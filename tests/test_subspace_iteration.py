"""Block iteration checks: single-vector limit, classical limit, spans.

The single-vector driver must be the Q = 1 view of the block driver; the
singleton index set must reproduce classical block inverse iteration; on
stochastic sets the converged basis is checked for Galerkin orthogonality
and for alignment with directly solved invariant subspaces.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from chaoseig import galerkin, subspace_iteration
from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import (
    SubspaceBreakdownError,
    SubspaceResult,
    initial_basis,
    run_subspace_iteration,
)
from chaoseig.validation import angle_statistics, subspace_angle
from oracles import (
    assemble_mass,
    assemble_stiffness,
    assemble_terms,
    basis_at,
    dense_generalized_eigenpairs,
    materialize_kronecker,
    matrix_at,
    nodal_columns,
    orthogonality_defect,
    raise_matrices_dense,
    smallest_eigenpairs,
    spectral_columns,
    tensor_dot,
    tensor_norm,
    use_skewed_term,
)


def span_gap(A, B):
    """Distance between the spans of two (P, N, Q) stacks in the mean
    eigenbasis, where the tensor inner product is the plain one: the norm
    of the part of A's orthonormalized columns outside B's span."""
    QA = np.linalg.qr(A.reshape(-1, A.shape[2]))[0]
    QB = np.linalg.qr(B.reshape(-1, B.shape[2]))[0]
    return float(np.linalg.norm(QA - QB @ (QB.T @ QA)))


class TestInitialBasis:
    def test_zero_block_orthonormal_columns(self):
        sys = build_system(n=3, order=2, size=8)
        B = initial_basis(sys, 3)
        assert B.shape == (sys.P, sys.N, 3)
        assert not B[1:].any()
        X = nodal_columns(sys.fem_op, B)
        G = X[0].T @ (assemble_mass(sys.mesh) @ X[0])
        np.testing.assert_allclose(G, np.eye(3), atol=1e-10)
        assert orthogonality_defect(sys, X) <= 1e-10

    def test_unit_columns_at_the_mean_positions(self):
        # in the mean eigenbasis each mean mode is a unit vector, at the
        # flat position of its eigenvalue in `mean_values`
        sys = build_system(n=4, order=1, size=5)
        B = initial_basis(sys, 3)
        pick = np.argsort(sys.fem_op.mean_values, axis=None,
                          kind="stable")[:3]
        want = np.zeros((sys.N, 3))
        want[pick, np.arange(3)] = 1.0
        np.testing.assert_array_equal(B[0], want)
        np.testing.assert_array_equal(B[0],
                                      sys.fem_op.mean_eigenpairs(3)[1])

    def test_exact_mean_eigenpairs(self):
        # the subspace-validation mesh: the 2nd and 3rd mean eigenvalues
        # are exactly degenerate on the square
        sys = build_system(n=16, order=1, size=1)
        B = initial_basis(sys, 3)
        X = nodal_columns(sys.fem_op, B[0])
        K0, M = assemble_stiffness(sys.mesh), assemble_mass(sys.mesh)
        vals, vecs = dense_generalized_eigenpairs(K0, M, 3)
        np.testing.assert_allclose(vals[1:], 49.8897, rtol=1e-6)
        for j in range(3):
            r = K0 @ X[:, j] - vals[j] * (M @ X[:, j])
            assert np.linalg.norm(r) <= 1e-12 * vals[j] * np.linalg.norm(
                M @ X[:, j])
        np.testing.assert_allclose(X.T @ (M @ X), np.eye(3), atol=1e-12)
        assert subspace_angle(B[0][:, 1:],
                              spectral_columns(sys.fem_op, vecs[:, 1:])) \
            >= 1.0 - 1e-12
        # each 1D mean mode has a positive first entry, which fixes the
        # basis of the degenerate pair: a second build gives the same
        # nodal modes, signs included
        assert (sys.fem_op.mean_eigenbasis[1][0] > 0).all()
        other = build_system(n=16, order=1, size=1)
        np.testing.assert_array_equal(
            X, nodal_columns(other.fem_op, initial_basis(other, 3)[0]))


class TestPerturbedStart:
    """The default start: each mean mode plus its first-order
    Rayleigh-Schroedinger correction."""

    @staticmethod
    def default_start(sys, q):
        return run_subspace_iteration(sys, q, kmax=1,
                                      store_snapshots=True).snapshots[0]

    def test_matches_dense_first_order_solve(self):
        # u_j = x_j - (K_0 - mu_j M)^+ (K - K_0) x_j on the assembled
        # PN x PN operator, the pseudo-inverse dropping the generalized
        # eigenvectors of (K_0, M) whose values lie at one of the cluster's;
        # q = 3 takes in the degenerate pair lam_2 = lam_3
        sys = build_system(n=3, order=2, size=8)
        q, f = 3, sys.fem_op
        K = assemble_terms(sys.mesh, f.nterms, f.varsigma)
        G = raise_matrices_dense(sys.aset)[:f.nterms]
        fluctuation = materialize_kronecker(G, K[1:])
        vals, vecs = scipy.linalg.eigh(K[0].toarray(),
                                       assemble_mass(sys.mesh).toarray())
        mu = vals[:q]
        away = np.abs(vals[:, None] - mu).min(axis=1) > 1e-8 * mu[-1]
        assert away.sum() == sys.N - q
        X = nodal_columns(f, initial_basis(sys, q))
        got = nodal_columns(f, self.default_start(sys, q))
        for j in range(q):
            pinv = (vecs[:, away] / (vals[away] - mu[j])) @ vecs[:, away].T
            R = (fluctuation @ X[:, :, j].ravel()).reshape(sys.P, sys.N)
            want = X[:, :, j] - R @ pinv
            want /= tensor_norm(want, f)
            np.testing.assert_allclose(got[:, :, j], want, rtol=0,
                                       atol=1e-12)
        assert np.abs(got - X).max() > 1e-3

    def test_cut_through_a_degenerate_level(self):
        # q = 2 on the unit square cuts between the exactly degenerate
        # lam_2 = lam_3: the start divides by no zero, and its run ends in
        # the span the mean modes' run ends in, in fewer sweeps (measured:
        # 27 and 33 sweeps, spans 1.5e-9 apart).  The increments contract
        # by about 0.6 a sweep, so a run that stops at an increment below
        # tol lies within 1.5 tol of the limit
        sys = build_system(n=4, order=1, size=12)
        start = self.default_start(sys, 2)
        assert np.isfinite(start).all()
        np.testing.assert_allclose(np.linalg.norm(start, axis=(0, 1)), 1.0,
                                   rtol=1e-14)
        tol = 1e-9
        perturbed = run_subspace_iteration(sys, 2, tol=tol, kmax=60)
        mean = run_subspace_iteration(sys, 2, tol=tol, kmax=60,
                                      initial=initial_basis(sys, 2))
        assert perturbed.converged and mean.converged
        assert len(perturbed.history) < len(mean.history)
        assert span_gap(perturbed.basis, mean.basis) <= 3 * tol


class TestSingleVectorLimit:
    def test_q1_reproduces_inverse_iteration(self):
        # inverse iteration is the Q = 1 view of the block driver: the same
        # result type, with one history column per (single) vector; the
        # eigenvalue expansion exists only at Q = 1
        sys = build_system(n=3, order=2, size=12)
        single = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        block = run_subspace_iteration(sys, q=1, tol=1e-10, kmax=40)
        assert type(single) is type(block) is SubspaceResult
        assert block.converged
        k = len(block.history)
        assert k == len(single.history)
        assert single.history.increments.shape == (k, 1)
        assert single.history.cg_iterations.shape == (k, 1)
        np.testing.assert_array_equal(block.history.max_increments,
                                      single.history.increments[:, 0])
        np.testing.assert_array_equal(block.history.cg_iterations,
                                      single.history.cg_iterations)
        np.testing.assert_array_equal(block.history.cg_tolerances,
                                      single.history.cg_tolerances)
        np.testing.assert_array_equal(block.history.newton_iterations,
                                      single.history.newton_iterations)
        np.testing.assert_array_equal(block.history.eigenvalue_means,
                                      single.history.eigenvalue_means)
        np.testing.assert_array_equal(block.basis[:, :, 0], single.U)
        np.testing.assert_array_equal(block.eigenvalue, single.eigenvalue)
        assert single.eigenvalue_mean == single.history.eigenvalue_means[-1]
        pair = run_subspace_iteration(sys, q=2, tol=1e-10, kmax=3)
        assert pair.history.increments.shape == (3, 2)
        assert pair.eigenvalue is None
        assert pair.eigenvalue_mean is None
        assert pair.eigenvalue_variance is None
        assert pair.history.eigenvalue_means is None


class TestSignFollowsStart:
    @pytest.mark.parametrize("q", [1, 2])
    def test_negated_start_negates_the_basis_bitwise(self, q):
        # the sweep is odd in its basis: solves, Gram-Schmidt projections
        # and divisions all commute with negation, so no sign is fixed up
        sys = build_system(n=4, order=1, size=12)
        start = initial_basis(sys, q)
        plain = run_subspace_iteration(sys, q, tol=1e-9, kmax=25,
                                       initial=start, store_snapshots=True)
        flipped = run_subspace_iteration(sys, q, tol=1e-9, kmax=25,
                                         initial=-start,
                                         store_snapshots=True)
        np.testing.assert_array_equal(flipped.basis, -plain.basis)
        np.testing.assert_array_equal(flipped.U, -plain.U)
        for a, b in zip(flipped.snapshots, plain.snapshots, strict=True):
            np.testing.assert_array_equal(a, -b)
        assert flipped.converged == plain.converged
        if q == 1:
            np.testing.assert_array_equal(flipped.eigenvalue,
                                          plain.eigenvalue)
        else:
            assert flipped.eigenvalue is plain.eigenvalue is None
        for f in dataclasses.fields(plain.history):
            np.testing.assert_array_equal(getattr(flipped.history, f.name),
                                          getattr(plain.history, f.name))
        if q == 1:
            inverse = run_inverse_iteration(sys, tol=1e-9, kmax=25,
                                            initial=-start[:, :, 0])
            np.testing.assert_array_equal(inverse.U, -plain.U)
            np.testing.assert_array_equal(inverse.eigenvalue,
                                          plain.eigenvalue)


def odd_part(sys, B):
    """The coordinates of a (P, N, ...) stack on the x_1-odd mean modes,
    a view when the stack is contiguous."""
    n = len(sys.fem_op.mean_values)
    return B.reshape(sys.P, n, n, -1)[:, :, 1::2]


class TestEvenSector:
    """At Q = 1 a run keeps the x_1-even half of the mean eigenbasis,
    which K(y) never couples to the other half."""

    def test_odd_coordinates_are_exact_zeros(self):
        # they were roundoff, up to 1e-16, when the run swept them too
        sys = build_system(n=8, order=2, size=31)
        res = run_inverse_iteration(sys, tol=1e-10, kmax=40,
                                    store_snapshots=True)
        assert res.converged and len(res.snapshots) == len(res.history) + 1
        for B in (res.basis, res.U, *res.snapshots):
            assert not odd_part(sys, B).any()
        assert np.abs(res.U).max() > 0.5

    def test_odd_part_of_the_start_is_dropped(self):
        sys = build_system(n=4, order=2, size=12)
        rng = np.random.default_rng(7)
        even = initial_basis(sys, 1)[:, :, 0]
        even[1:] = 0.1 * rng.standard_normal(even[1:].shape)
        odd_part(sys, even)[...] = 0.0
        mixed = even.copy()
        odd_part(sys, mixed)[...] = rng.standard_normal(
            odd_part(sys, mixed).shape)
        tol = 1e-10
        plain, dropped = (run_inverse_iteration(sys, tol=tol, kmax=60,
                                                initial=start)
                          for start in (even, mixed))
        assert plain.converged and dropped.converged
        assert not odd_part(sys, dropped.U).any()
        np.testing.assert_allclose(dropped.U, plain.U, rtol=0, atol=tol)

    def test_start_without_an_even_part_is_rejected(self):
        sys = build_system(n=4, order=2, size=12)
        start = np.zeros((sys.P, sys.N, 1))
        odd_part(sys, start)[...] = 1.0
        with pytest.raises(ValueError, match="start column 0 has no part "
                                             "in the x_1-even sector"):
            run_inverse_iteration(sys, initial=start[:, :, 0])
        with pytest.raises(ValueError, match="x_1-even sector"):
            run_subspace_iteration(sys, 1, initial=start)

    def test_coupled_parities_keep_every_mode(self, monkeypatch):
        # a first fluctuation that is not symmetric about x_1 = 1/2 couples
        # the halves, so the run sweeps every coordinate: its pointwise
        # eigenpairs match the dense ones of K(y) to 1e-4, where a run kept
        # on the even half misses the field by 7e-3 to 2e-2 and the
        # eigenvalue by up to 5e-4 at these points
        use_skewed_term(monkeypatch)
        sys = build_system(n=4, order=1, size=12)
        assert sys.fem_op.even_modes is None
        res = run_inverse_iteration(sys, tol=1e-10, kmax=60)
        assert res.converged
        assert np.abs(odd_part(sys, res.U)).max() > 1e-3
        M = assemble_mass(sys.mesh)
        rng = np.random.default_rng(3)
        for y in rng.uniform(-1, 1, (3, sys.fem_op.nterms)):
            vals, vecs = dense_generalized_eigenpairs(
                matrix_at(sys.fem_op, y), M, 1)
            phi = basis_at(sys.aset, y)
            u = sys.fem_op.to_nodal(phi @ res.U)
            u *= np.sign(u @ (M @ vecs[:, 0])) / np.sqrt(u @ (M @ u))
            d = u - vecs[:, 0]
            assert np.sqrt(d @ (M @ d)) <= 1e-3
            assert abs(phi @ res.eigenvalue - vals[0]) <= 2e-4 * vals[0]


def off_quarter(sys, B):
    """A copy of a (P, N, ...) stack with its coordinates on the Q = 1
    sector set to zero: the sector holds each chaos row's x_1-even mean
    modes with the x_2 modes of the row's class."""
    op = sys.operator_on(sys.fem_op.even_modes, True)
    pos = op.coords[op.classes]
    at = np.nonzero(pos >= 0)
    out = np.array(B)
    out.reshape(sys.P, sys.N, -1)[at[0], pos[at]] = 0.0
    return out


class TestX2ClassSector:
    """Of the x_1-even half, a Q = 1 run keeps each chaos row's x_2 mean
    modes of the parity of its class, (total degree over the dimensions
    along x_2) mod 2: about a quarter of the block."""

    def test_off_sector_coordinates_are_exact_zeros(self):
        # they were roundoff when the run swept them too: up to 1.7e-17
        # in U and 1.7e-15 in the odd-class entries of mu
        sys = build_system(n=8, order=2, size=31)
        even = sys.fem_op.even_modes
        op = sys.operator_on(even, True)
        assert subspace_iteration._sector(sys, 1) is op
        res = run_inverse_iteration(sys, tol=1e-10, kmax=40,
                                    store_snapshots=True)
        assert res.converged
        for B in (res.basis, res.U, *res.snapshots):
            assert not off_quarter(sys, B).any()
        assert np.abs(res.U).max() > 0.5
        assert op.classes.any()
        assert not res.eigenvalue[op.classes == 1].any()
        assert res.eigenvalue_mean > 19.0

    def test_start_off_the_sector_converges_to_its_projection(self):
        sys = build_system(n=4, order=2, size=12)
        rng = np.random.default_rng(8)
        start = initial_basis(sys, 1)[:, :, 0]
        start += 0.1 * rng.standard_normal(start.shape)
        projected = start - off_quarter(sys, start)
        assert np.abs(off_quarter(sys, start)).max() > 0.1
        tol = 1e-10
        plain, off = (run_inverse_iteration(sys, tol=tol, kmax=60,
                                            initial=x)
                      for x in (projected, start))
        assert plain.converged and off.converged
        assert not off_quarter(sys, off.U).any()
        np.testing.assert_allclose(off.U, plain.U, rtol=0, atol=tol)

    def test_start_without_a_part_on_the_sector_is_rejected(self):
        # on the x_1-even half, but each row only on the x_2 modes of the
        # other class
        sys = build_system(n=4, order=2, size=12)
        start = off_quarter(sys, np.ones((sys.P, sys.N, 1)))
        odd_part(sys, start)[...] = 0.0
        assert start.any()
        sector = ("start column 0 has no part in the x_1-even sector of the "
                  "mean eigenbasis, within each chaos row's x_2 class")
        with pytest.raises(ValueError, match=sector):
            run_inverse_iteration(sys, initial=start[:, :, 0])
        with pytest.raises(ValueError, match=sector):
            run_subspace_iteration(sys, 1, initial=start)

    def test_coupled_x2_parities_keep_the_x1_half(self, monkeypatch):
        # a second fluctuation that is not odd about x_2 = 1/2 couples the
        # x_2 classes, so the run keeps the whole x_1-even half, where U
        # has 3.9e-5 off the quarter: its pointwise eigenvalues match the
        # dense ones of K(y) to 2e-4, where a run forced onto the quarter
        # misses them by 5e-4 to 1e-2 at these points
        use_skewed_term(monkeypatch, 2)
        sys = build_system(n=4, order=1, size=12)
        even = sys.fem_op.even_modes
        assert even is not None and not sys.fem_op.x2_terms_flip_parity
        assert subspace_iteration._sector(sys, 1) is sys.operator_on(even)
        res = run_inverse_iteration(sys, tol=1e-10, kmax=60)
        assert res.converged
        assert not odd_part(sys, res.U).any()
        assert np.abs(off_quarter(sys, res.U)).max() > 1e-5
        M = assemble_mass(sys.mesh)
        rng = np.random.default_rng(4)
        for y in rng.uniform(-1, 1, (3, sys.fem_op.nterms)):
            vals, vecs = dense_generalized_eigenpairs(
                matrix_at(sys.fem_op, y), M, 1)
            phi = basis_at(sys.aset, y)
            u = sys.fem_op.to_nodal(phi @ res.U)
            u *= np.sign(u @ (M @ vecs[:, 0])) / np.sqrt(u @ (M @ u))
            d = u - vecs[:, 0]
            assert np.sqrt(d @ (M @ d)) <= 1e-3
            assert abs(phi @ res.eigenvalue - vals[0]) <= 2e-4 * vals[0]


class TestSingletonSetLimit:
    def test_matches_classical_block_iteration(self):
        # with only the zero index the sweep is plain block inverse
        # iteration on the mean problem, so the converged basis spans the
        # reference invariant subspace
        sys = build_system(n=4, order=2, size=1)
        res = run_subspace_iteration(sys, q=3, tol=1e-12, kmax=80)
        assert res.converged
        M = assemble_mass(sys.mesh)
        vals, vecs = smallest_eigenpairs(matrix_at(sys.fem_op), M, 3,
                                         tol=1e-12)
        assert subspace_angle(res.basis[0],
                              spectral_columns(sys.fem_op, vecs)) \
            >= 1.0 - 1e-9
        # the leading column resolves the isolated ground mode itself
        v0 = sys.fem_op.to_nodal(res.basis[0, :, 0])
        if v0 @ (M @ vecs[:, 0]) < 0:
            v0 = -v0
        d = v0 - vecs[:, 0]
        assert np.sqrt(d @ (M @ d)) <= 1e-7


@pytest.fixture(scope="module")
def block_solved():
    # from the mean modes, so that the snapshots start at `initial_basis`
    sys = build_system(n=4, order=1, size=12)
    res = run_subspace_iteration(sys, q=2, tol=1e-9, kmax=25,
                                 initial=initial_basis(sys, 2),
                                 store_snapshots=True)
    return sys, res


class TestStochasticBlock:
    def test_span_settles_with_orthogonal_basis(self, block_solved):
        # the second and third eigenvalues cross inside the parameter box,
        # so the vectors keep rotating within the cluster and per-vector
        # increments floor; the iterated SPAN is the converging object
        sys, res = block_solved

        def gram(A, B):
            # tensor-space Gram matrix of two (P, N, 2) bases
            return np.array([[tensor_dot(A[:, :, i], B[:, :, j], sys.fem_op)
                              for j in range(2)] for i in range(2)])

        late = [nodal_columns(sys.fem_op, S) for S in res.snapshots[-4:]]
        for A, B in zip(late[:-1], late[1:]):
            # the alignment |det G_AB| / sqrt(det G_AA det G_BB)
            theta = abs(np.linalg.det(gram(A, B))) / np.sqrt(
                np.linalg.det(gram(A, A)) * np.linalg.det(gram(B, B)))
            assert theta >= 1.0 - 1e-5
        basis = nodal_columns(sys.fem_op, res.basis)
        assert orthogonality_defect(sys, basis) <= 1e-8
        for L in range(2):
            norm = tensor_norm(basis[:, :, L], sys.fem_op)
            assert abs(norm - 1.0) <= 1e-6

    def test_snapshot_bookkeeping(self, block_solved):
        sys, res = block_solved
        k = len(res.history)
        assert len(res.snapshots) == k + 1
        np.testing.assert_array_equal(res.snapshots[0],
                                      initial_basis(sys, 2))
        # the last snapshot is the returned basis, but not the same array
        np.testing.assert_array_equal(res.snapshots[-1], res.basis)
        assert not np.shares_memory(res.snapshots[-1], res.basis)
        assert res.history.increments.shape == (k, 2)
        assert res.history.cg_iterations.shape == (k, 2)
        np.testing.assert_allclose(res.history.max_increments,
                                   res.history.increments.max(axis=1))

    def test_history_defects_are_those_of_the_snapshots(self):
        # the sweep reports the defect of the one-pass basis it returns,
        # measured in the eigenbasis; the oracle measures it on the
        # snapshots' nodal values through the mass, so the two agree to
        # roundoff.  With the pooled q = 3 basis the defects stay far above
        # roundoff (8e-8 to 1.3e-6), and a second pass would lower each by
        # orders of magnitude, far outside the tolerance
        sys = build_system(n=3, order=1, size=31)
        res = run_subspace_iteration(sys, q=3, tol=1e-9, kmax=6,
                                     sum_trick=True, store_snapshots=True)
        assert not res.history.extra_orthogonalizations.any()
        want = [orthogonality_defect(sys, nodal_columns(sys.fem_op, S))
                for S in res.snapshots[1:]]
        np.testing.assert_allclose(res.history.orthogonality_defects, want,
                                   rtol=1e-6, atol=0.0)

    def test_aligned_with_direct_solve_at_origin(self, block_solved):
        # at the origin the 2nd and 3rd modes are exactly degenerate, so a
        # two-column span holds the ground mode and some direction inside
        # that pair: compare it with the span of the three smallest modes
        sys, res = block_solved
        y0 = np.zeros(sys.aset.max_dimension)
        M = assemble_mass(sys.mesh)
        _, vecs = smallest_eigenpairs(
            matrix_at(sys.fem_op, np.zeros(sys.fem_op.nterms)), M, 3,
            tol=1e-12)
        from chaoseig.legendre import evaluate_expansion
        By = np.stack([evaluate_expansion(res.basis[:, :, L], sys.aset, y0)
                       for L in range(2)], axis=1)
        vecs = spectral_columns(sys.fem_op, vecs)
        assert subspace_angle(By[:, :1], vecs[:, :1]) >= 1.0 - 1e-3
        inside = vecs @ (vecs.T @ By)
        assert subspace_angle(By, inside) >= 1.0 - 1e-3

    def test_sum_trick_reaches_the_same_span(self, block_solved):
        sys, res = block_solved
        pooled = run_subspace_iteration(sys, q=2, tol=1e-9, kmax=25,
                                        sum_trick=True)
        y0 = np.zeros(sys.aset.max_dimension)
        from chaoseig.legendre import evaluate_expansion

        def span_at(basis):
            return np.stack([evaluate_expansion(basis[:, :, L], sys.aset,
                                                y0) for L in range(2)],
                            axis=1)

        theta = subspace_angle(span_at(res.basis), span_at(pooled.basis))
        assert theta >= 1.0 - 1e-4

    def test_unpooled_block_converges(self):
        # the subspace-validation system: without pooling every increment
        # settles, so the run reports convergence (measured from the
        # default start: 23 sweeps, a last increment of 8.96e-9 and an
        # angle error of 4.53e-6 at 64 points of seed 1; from the mean
        # modes it took 30 sweeps to the same angle error)
        sys = build_system(n=16, order=1, size=120)
        res = run_subspace_iteration(sys, q=3, tol=1e-8, kmax=40)
        assert res.converged and len(res.history) == 23
        mean, _ = angle_statistics(sys.fem_op, sys.aset, [res.basis],
                                   npoints=64, seed=1)
        assert np.arccos(min(mean[0], 1.0)) <= 5e-6


class TestStopOnASolvedSweep:
    @pytest.mark.parametrize("q", [1, 3])
    def test_small_first_increment_does_not_stop_the_run(self, q,
                                                         monkeypatch):
        # at varsigma 10 the fluctuations are so weak that one loose solve
        # from the mean modes barely moves them: the first increment fell
        # below tol after CG to 1e-3, and the run stopped there, 6.6e-5
        # (q = 1) and 1.6e-4 (q = 3) from a tight solve.  It now sweeps on
        # until a sweep solved to tol also moved less than tol (measured
        # from either start: 13 sweeps and 5.5e-11 or 3.3e-11 at q = 1,
        # 23-25 sweeps and 1.3e-10 at q = 3)
        sys = build_system(n=8, order=2, size=31, varsigma=10.0)
        tol = 1e-10
        runs = [run_subspace_iteration(sys, q, tol=tol, kmax=60),
                run_subspace_iteration(sys, q, tol=tol, kmax=60,
                                       initial=initial_basis(sys, q))]
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FACTOR", 0.0)
        tight = run_subspace_iteration(sys, q, tol=1e-13, kmax=200)
        assert tight.converged
        for res in runs:
            assert res.converged and len(res.history) > 10
            assert res.history.cg_tolerances[-1] <= tol
            assert span_gap(res.basis, tight.basis) <= 1e-9


class TestFailureModes:
    def test_breakdown_on_duplicated_column(self):
        sys = build_system(n=3, order=1, size=1)
        B = initial_basis(sys, 2)
        B[:, :, 1] = B[:, :, 0]
        with pytest.raises(SubspaceBreakdownError, match="collapsed"):
            run_subspace_iteration(sys, q=2, kmax=5, initial=B)

    def test_cg_stall_names_the_basis_vector(self, monkeypatch):
        monkeypatch.setattr(subspace_iteration, "_CG_MAXITER", 1)
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FACTOR", 0.0)
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FLOOR", 1e-14)
        sys = build_system(n=3, order=1, size=5)
        with pytest.raises(RuntimeError,
                           match=r"inner CG stalled on basis vector 0 at "
                                 r"relative residual \d\.\d{3}e-\d+$"):
            run_subspace_iteration(sys, q=2)

    def test_shape_and_argument_validation(self):
        sys = build_system(n=3, order=1, size=5)
        with pytest.raises(ValueError, match="kmax"):
            run_subspace_iteration(sys, q=1, kmax=0)
        with pytest.raises(ValueError, match="basis vector"):
            run_subspace_iteration(sys, q=0)
        # more columns than spatial dofs: q = 5 on N = 4, and two columns
        # on N = 1, where both would start from the one mean mode
        with pytest.raises(ValueError, match="q = 5 exceeds the N = 4 "):
            run_subspace_iteration(sys, q=5)
        with pytest.raises(ValueError, match="q = 2 exceeds the N = 1 "):
            run_subspace_iteration(build_system(n=2, order=1, size=3), q=2)
        with pytest.raises(ValueError, match="basis shape"):
            run_subspace_iteration(sys, q=2,
                                   initial=np.zeros((sys.P, sys.N, 3)))

    @pytest.mark.parametrize("where, entry, column", [
        (np.s_[:], 0.0, 0), (np.s_[1, 2, 1], np.nan, 1),
        (np.s_[:, :, 1], 0.0, 1)],
        ids=["zero-block", "nan-entry", "zero-column"])
    def test_bad_start_names_its_column(self, where, entry, column):
        sys = build_system(n=3, order=1, size=5)
        B = initial_basis(sys, 2)
        B[where] = entry
        with pytest.raises(ValueError, match=f"start column {column} is "
                                             f"zero or not finite"):
            run_subspace_iteration(sys, q=2, initial=B)


class TestCarriedProduct:
    """Each warm start brings the operator's product with it, so the
    sweeps cost exactly their CG iterations in operator products; the
    default start adds one product per column."""

    @pytest.fixture
    def apply_calls(self, monkeypatch):
        calls = []
        apply = galerkin.KroneckerOperator.apply

        def counted(op, V, out=None):
            calls.append(1)
            return apply(op, V, out=out)

        monkeypatch.setattr(galerkin.KroneckerOperator, "apply", counted)
        return calls

    def test_inverse_iteration(self, apply_calls):
        sys = build_system(n=3, order=2, size=8)
        res = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        assert len(res.history) > 2
        assert len(apply_calls) == res.history.cg_iterations.sum() + 1

    def test_subspace_iteration(self, apply_calls):
        sys = build_system(n=4, order=1, size=12)
        res = run_subspace_iteration(sys, q=2, tol=1e-9, kmax=25)
        assert len(res.history) > 2
        assert len(apply_calls) == res.history.cg_iterations.sum() + 2


class TestCarriedNormalization:
    """Each sweep makes one Gram-Schmidt pass, and starts its columns'
    Newton normalizations from the roots and factors the same columns
    left in the previous sweep."""

    def test_carried_sweep_matches_the_cold_sweep(self):
        sys = build_system(n=4, order=1, size=12)
        B = initial_basis(sys, 2)
        normalizers = None
        for _ in range(3):
            cold = subspace_iteration.subspace_iterate_once(sys, B, 1e-8)
            warm = subspace_iteration.subspace_iterate_once(
                sys, B, 1e-8, normalizers=normalizers)
            np.testing.assert_allclose(warm[0], cold[0], rtol=0,
                                       atol=1e-12 * np.linalg.norm(cold[0]))
            assert warm[3] == cold[3]
            assert len(warm[7]) == 2
            B, normalizers = warm[0], warm[7]
        # the third sweep normalized from the second sweep's roots
        assert warm[4] < cold[4]

    def test_one_normalization_per_column_and_sweep(self, monkeypatch):
        # the pooled q = 3 basis, whose defects lie above 1e-8, where any
        # refinement pass would normalize every column once more
        calls = []
        normalize = subspace_iteration.newton_normalize

        def counted(*args, **kwargs):
            calls.append(1)
            return normalize(*args, **kwargs)

        monkeypatch.setattr(subspace_iteration, "newton_normalize", counted)
        sys = build_system(n=3, order=1, size=31)
        res = run_subspace_iteration(sys, q=3, tol=1e-9, kmax=6,
                                     sum_trick=True)
        assert len(res.history) == 6
        assert min(res.history.orthogonality_defects) > 1e-8
        assert len(calls) == 3 * len(res.history)

    def test_lu_solves_only_in_the_first_sweep(self, monkeypatch):
        # chord steps on the carried factors take no LU solve; every one
        # of this converged run's is a Newton step of its first sweep
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        sys = build_system(n=3, order=2, size=8)
        res = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        assert res.converged and len(res.history) == 14
        assert len(calls) == res.history.newton_iterations[0] == 4
        assert res.history.newton_iterations.sum() == 16


class TestProjectedStarts:
    """Each solve starts from the energy-optimal combination of the last
    sweeps' solves, formed from carried products alone."""

    @pytest.fixture
    def product_errors(self, monkeypatch):
        """Relative gap between carried and fresh products, of every
        projected start and every returned solution."""
        errors, solving = [], []
        project, solve = galerkin._project_start, subspace_iteration.pcg_solve

        def gap(op, X, carried):
            fresh = op.apply(X)
            return float(np.linalg.norm(carried - fresh)
                         / np.linalg.norm(fresh))

        def projected(window, B, X, R, work):
            project(window, B, X, R, work)
            errors.append(gap(solving[-1], X, B - R))

        def solved(op, rhs, **kw):
            solving.append(op)
            X, info = solve(op, rhs, **kw)
            errors.append(gap(op, X, info.product))
            return X, info

        monkeypatch.setattr(galerkin, "_project_start", projected)
        monkeypatch.setattr(subspace_iteration, "pcg_solve", solved)
        return errors

    def test_carried_products_match_fresh_ones(self, product_errors):
        # the longest runs: 17 sweeps at N = 9025, and 14 sweeps of three
        # vectors; a window holds the other vectors' last solves and the
        # increments, so the first projected start comes in the third sweep
        # at Q = 1 and in the second at Q = 3
        sys = build_system(n=48, order=2, size=31)
        res = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        assert len(product_errors) == 2 * len(res.history) - 2
        # the plain warm start took 42 CG iterations here
        assert res.history.cg_iterations.sum() <= 25
        sys = build_system(n=16, order=1, size=120)
        run_subspace_iteration(sys, q=3, sum_trick=True, tol=0.0, kmax=14)
        assert len(product_errors) == 2 * len(res.history) - 2 + 2 * 42 - 3
        assert max(product_errors) <= 1e-14

    def test_window_cuts_cg_iterations(self, monkeypatch):
        sys = build_system(n=8, order=2, size=31)
        projected = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        solve = subspace_iteration.pcg_solve
        monkeypatch.setattr(subspace_iteration, "pcg_solve",
                            lambda *a, window=(), **kw: solve(*a, **kw))
        plain = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        assert len(projected.history) == len(plain.history)
        assert projected.history.cg_iterations.sum() <= \
            0.6 * plain.history.cg_iterations.sum()
        np.testing.assert_allclose(projected.U, plain.U, rtol=0, atol=1e-11)
