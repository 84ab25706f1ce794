"""Block iteration checks: single-vector limit, classical limit, spans.

The single-vector driver must be the Q = 1 view of the block driver; the
singleton index set must reproduce classical block inverse iteration; on
stochastic sets the converged basis is checked for Galerkin orthogonality
and for alignment with directly solved invariant subspaces.
"""

import dataclasses

import numpy as np
import pytest

from chaoseig import galerkin, subspace_iteration
from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import (
    SubspaceBreakdownError,
    SubspaceResult,
    initial_basis,
    run_subspace_iteration,
)
from chaoseig.validation import subspace_angle
from oracles import (
    assemble_mass,
    assemble_stiffness,
    dense_generalized_eigenpairs,
    matrix_at,
    nodal_columns,
    orthogonality_defect,
    smallest_eigenpairs,
    spectral_columns,
    tensor_dot,
    tensor_norm,
)


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
    sys = build_system(n=4, order=1, size=12)
    res = run_subspace_iteration(sys, q=2, tol=1e-9, kmax=25,
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

    @pytest.mark.parametrize("max_reorth, threshold, capped", [
        (0, 0.0, True), (1, 0.0, True), (3, 1e-8, False)])
    def test_history_defects_are_those_of_the_snapshots(self, max_reorth,
                                                        threshold, capped,
                                                        monkeypatch):
        # the sweep reports the defect of the basis it returns, both when
        # the refinement passes end below the threshold and when max_reorth
        # cuts them off above it.  The sweep measures it in the eigenbasis,
        # the oracle on the snapshots' nodal values through the mass, so the
        # two agree to roundoff.  With the pooled q = 3 basis the defects
        # stay far above roundoff (4e-12 to 3e-6; they agree to 2.6e-8
        # relative), and one more pass would change each by 99.89% or more,
        # far outside the tolerance
        monkeypatch.setattr(subspace_iteration, "_REORTH_THRESHOLD",
                            threshold)
        monkeypatch.setattr(subspace_iteration, "_MAX_REORTH", max_reorth)
        sys = build_system(n=3, order=1, size=31)
        res = run_subspace_iteration(sys, q=3, tol=1e-9, kmax=6,
                                     sum_trick=True, store_snapshots=True)
        extras = res.history.extra_orthogonalizations
        assert np.all(extras == max_reorth) == capped
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
    sweeps cost exactly their CG iterations in operator products."""

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
        assert len(apply_calls) == res.history.cg_iterations.sum()

    def test_subspace_iteration(self, apply_calls):
        sys = build_system(n=4, order=1, size=12)
        res = run_subspace_iteration(sys, q=2, tol=1e-9, kmax=25)
        assert len(res.history) > 2
        assert len(apply_calls) == res.history.cg_iterations.sum()


class TestCarriedNormalization:
    """Each pass of a sweep starts its columns' Newton normalizations from
    the roots and factors the same pass left in the previous sweep."""

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
            assert len(warm[7]) == warm[3] + 1
            B, normalizers = warm[0], warm[7]
        # the third sweep normalized from the second sweep's roots
        assert warm[4] < cold[4]

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
        assert res.converged and len(res.history) == 20
        assert len(calls) == res.history.newton_iterations[0] == 4
        assert res.history.newton_iterations.sum() == 22


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
        # the longest runs: 21 sweeps at N = 9025, and 14 sweeps of three
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
