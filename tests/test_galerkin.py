"""Kronecker kernels against explicit dense materializations.

Every structured operation (blockwise operator apply, preconditioned CG,
weighted Gram contraction, Galerkin multiplication factor, Newton
normalization) is checked against a dense oracle built with np.kron or
einsum over the full triple-product tensor.  The operator and CG act in
the mean eigenbasis; the nodal checks reach them through the operator's
`to_spectral` and `to_nodal`, and the spectral checks move the dense
oracle into the same coordinates.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoseig import galerkin
from chaoseig.fem import build_mesh, build_parametric_operator
from chaoseig.galerkin import (
    DeltaFactor,
    GalerkinSystem,
    IndefiniteOperatorError,
    KroneckerOperator,
    NearSingularError,
    build_system,
    newton_normalize,
    pcg_solve,
)
from chaoseig.legendre import evaluate_expansion
from oracles import (
    assemble_mass,
    assemble_stiffness,
    assemble_terms,
    build_moment_matrices,
    dense_generalized_eigenpairs,
    materialize_kronecker,
    matrix_at,
    tensor_dot,
    tensor_grid,
    tensor_norm,
    triple_tensor_dense,
    use_cell_rule,
    weighted_gram,
)


def small_system(n=2, size=6):
    return build_system(n=n, order=2, size=size)


def raise_matrices(sys):
    """The system's raise matrices G_0..G_M, one per stiffness term."""
    return build_moment_matrices(sys.tt)[:sys.fem_op.nterms + 1]


def assembled_terms(sys, nquad=None):
    """The system's stiffness terms K_0..K_M, assembled by 2D quadrature."""
    return assemble_terms(sys.mesh, sys.fem_op.nterms, sys.fem_op.varsigma,
                          nquad)


def nodal_apply(sys, op, V):
    """The nodal product K V of a spectral operator: K = T^-T K' T^-1 for
    the nodal values X = T Y, and T^-T Y = M (Q Y Q^T) M per slice."""
    f = sys.fem_op
    return f.mass_apply(f.to_nodal(op.apply(f.to_spectral(V))))


def gram_vector(sys, V):
    """What `newton_normalize` normalizes: the Gram vector of V with
    itself."""
    return weighted_gram(sys.tt, V, V, sys.fem_op)


def random_block(sys, rng, scale_by_weight=False):
    V = rng.standard_normal((sys.P, sys.N))
    if scale_by_weight:
        V *= np.asarray(sys.aset.weights)[:, None]
    return V


class TestTensorNorm:
    def test_against_flat_kron_norm(self):
        sys = small_system()
        rng = np.random.default_rng(11)
        V = random_block(sys, rng)
        Md = assemble_mass(sys.mesh).toarray()
        big = np.kron(np.eye(sys.P), Md)
        v = V.ravel()
        np.testing.assert_allclose(tensor_norm(V, sys.fem_op),
                                   np.sqrt(v @ big @ v), rtol=1e-13)

    def test_is_frobenius_norm_of_coordinates(self):
        # the mass is the identity in the mean eigenbasis
        for sys in (small_system(), build_system(n=4, order=1, size=6)):
            V = random_block(sys, np.random.default_rng(13))
            np.testing.assert_allclose(
                np.linalg.norm(sys.fem_op.to_spectral(V)),
                tensor_norm(V, sys.fem_op), rtol=1e-13)

    def test_dot_bilinearity(self):
        sys = small_system()
        rng = np.random.default_rng(12)
        V, W, U = (random_block(sys, rng) for _ in range(3))
        lhs = tensor_dot(V, 2.0 * W + U, sys.fem_op)
        rhs = (2.0 * tensor_dot(V, W, sys.fem_op)
               + tensor_dot(V, U, sys.fem_op))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestKroneckerOperator:
    def test_matches_dense_kron(self):
        sys = small_system()
        op = sys.operator
        dense = materialize_kronecker(raise_matrices(sys),
                                      assembled_terms(sys))
        rng = np.random.default_rng(21)
        for _ in range(4):
            V = random_block(sys, rng)
            got = nodal_apply(sys, op, V).ravel()
            want = dense @ V.ravel()
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_apply_is_symmetric(self):
        sys = build_system(n=3, order=2, size=12)
        op = sys.operator
        rng = np.random.default_rng(23)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        left = float(np.sum(W * op.apply(V)))
        right = float(np.sum(V * op.apply(W)))
        np.testing.assert_allclose(left, right, rtol=1e-12)

    @pytest.mark.parametrize("order, nquad", [(1, None), (2, None), (1, 4),
                                              (2, 5)])
    @pytest.mark.parametrize("shift", [0.0, 7.5])
    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    def test_separable_apply_matches_assembled(self, order, nquad, shift,
                                               rows_per_chunk, monkeypatch):
        # shift * (identity (x) mass) comes off both sides: the coordinates
        # must make the assembled mass the identity, under every rule
        use_cell_rule(monkeypatch, nquad)
        sys = build_system(n=3, order=order, size=12)
        assert sys.fem_op.nterms >= 2  # terms along both axes
        if rows_per_chunk is not None:
            # split terms across chunks and chunks across terms
            slice_bytes = sys.N * 8
            monkeypatch.setattr(galerkin, "_CHUNK_BYTES",
                                rows_per_chunk * slice_bytes)
            assert sys.operator.step == rows_per_chunk
        dense = materialize_kronecker(raise_matrices(sys),
                                      assembled_terms(sys, nquad),
                                      shift=shift,
                                      mass=assemble_mass(sys.mesh, nquad))
        V = random_block(sys, np.random.default_rng(26))
        f = sys.fem_op
        Y = f.to_spectral(V)
        got = f.mass_apply(f.to_nodal(sys.operator.apply(Y)
                                      - shift * Y)).ravel()
        want = dense @ V.ravel()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("order, nquad", [(1, None), (2, None), (1, 4),
                                              (2, 5)])
    @pytest.mark.parametrize("shift", [0.0, 7.5])
    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    def test_spectral_apply_matches_assembled(self, order, nquad, shift,
                                              rows_per_chunk, monkeypatch):
        # the dense oracle in Q (x) Q coordinates: (I (x) T)^T K (I (x) T),
        # where shift * (identity (x) mass) is shift times the identity
        use_cell_rule(monkeypatch, nquad)
        sys = build_system(n=3, order=order, size=12)
        if rows_per_chunk is not None:
            monkeypatch.setattr(galerkin, "_CHUNK_BYTES",
                                rows_per_chunk * sys.N * 8)
            assert sys.operator.step == rows_per_chunk
        dense = materialize_kronecker(raise_matrices(sys),
                                      assembled_terms(sys, nquad),
                                      shift=shift,
                                      mass=assemble_mass(sys.mesh, nquad))
        Q = sys.fem_op.mean_eigenbasis[1]
        T = np.kron(np.eye(sys.P), np.kron(Q, Q))
        Y = random_block(sys, np.random.default_rng(28))
        got = (sys.operator.apply(Y) - shift * Y).ravel()
        want = T.T @ (dense @ (T @ Y.ravel()))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_positive_definite_without_shift(self):
        # the default varsigma = 3.2 keeps the amplitude sum zeta(3.2) - 1
        # below one, so a(x,y) > 0 and the energy is positive
        sys = build_system(n=4, order=1, size=12)
        op = sys.operator
        rng = np.random.default_rng(24)
        for _ in range(50):
            V = random_block(sys, rng)
            assert float(np.sum(V * op.apply(V))) > 0.0

    def test_single_index_set_reduces_to_mean_term(self):
        sys = build_system(n=3, order=1, size=1)
        op = sys.operator
        rng = np.random.default_rng(25)
        V = random_block(sys, rng)
        want = (matrix_at(sys.fem_op) @ V.T).T
        np.testing.assert_allclose(nodal_apply(sys, op, V), want, rtol=1e-14)
        # the mean term is diagonal, and the preconditioner inverts it
        np.testing.assert_allclose(op.mean_solve(op.apply(V)), V,
                                   rtol=1e-14)

    def test_rejects_wrong_shape(self):
        sys = small_system()
        op = sys.operator
        with pytest.raises(ValueError, match="block shape"):
            op.apply(np.zeros((sys.P, sys.N + 1)))

    def test_rejects_length_mismatch(self):
        sys = small_system()
        singleton = build_system(n=2, order=2, size=1)
        assert sys.fem_op.nterms > singleton.aset.max_dimension
        with pytest.raises(ValueError, match=r"\d+ stiffness terms, but the "
                                             r"set has 0 dimensions"):
            KroneckerOperator(singleton.tt, sys.fem_op)

    def test_apply_writes_into_out(self):
        sys = small_system()
        op = sys.operator
        V = random_block(sys, np.random.default_rng(50))
        out = np.full((sys.P, sys.N), np.nan)
        assert op.apply(V, out=out) is out
        np.testing.assert_array_equal(out, op.apply(V))

    def test_one_operator_per_system(self):
        sys = small_system()
        op = sys.operator
        assert isinstance(op, KroneckerOperator)
        assert sys.operator is op

    @pytest.mark.parametrize("args", [
        dict(n=16, order=2, size=264), dict(n=48, order=2, size=31),
        dict(n=16, order=1, size=120)],
        ids=["reference-264", "fine-mesh", "subspace-validation"])
    def test_scatters_apply_as_their_coo_builds(self, args):
        # each chunk's scatter is built in CSR form from sorted entries:
        # canonical, so that its product sums every row in the order of
        # the same entries sent through scipy's COO route, to the bit
        sys = build_system(**args)
        op = sys.operator
        V = random_block(sys, np.random.default_rng(52))
        want = op.apply(V)
        for chunks in op.passes:
            for i, (rows, runs, targets, scatter) in enumerate(chunks):
                assert scatter.has_canonical_format
                assert scatter.shape == (targets.size, rows.size)
                assert (np.diff(targets) > 0).all()
                local = np.repeat(np.arange(targets.size),
                                  np.diff(scatter.indptr))
                coo = sp.csr_matrix((scatter.data, (local, scatter.indices)),
                                    shape=scatter.shape)
                chunks[i] = (rows, runs, targets, coo)
        np.testing.assert_array_equal(op.apply(V), want)


class TestMeanPreconditioner:
    """The division by the mean eigenvalues in the eigenbasis is K_0^-1:
    K_0 X = M U has the solution X = Q [Y / (lam_i + lam_j)] Q^T per
    slice, Y being the coordinates of U."""

    @staticmethod
    def solve(fem_op, U):
        return fem_op.to_nodal(fem_op.to_spectral(U)
                               / fem_op.mean_values.ravel())

    def test_inverts_mean_term_blockwise(self):
        for sys in (small_system(), build_system(n=4, order=1, size=6)):
            rng = np.random.default_rng(31)
            K0 = assemble_stiffness(sys.mesh).toarray()
            # a (P, N) block and an (S, k, N) stack
            for U in (random_block(sys, rng),
                      rng.standard_normal((3, 2, sys.N))):
                X = self.solve(sys.fem_op, U)
                assert X.shape == U.shape
                np.testing.assert_allclose(X @ K0, sys.fem_op.mass_apply(U),
                                           rtol=1e-11, atol=1e-12)

    def test_symmetric_positive(self):
        # K_0^-1 M is self-adjoint and positive in the mass inner product
        sys = small_system()
        f = sys.fem_op
        rng = np.random.default_rng(32)
        U1 = random_block(sys, rng)
        U2 = random_block(sys, rng)
        s12 = float(np.sum(f.mass_apply(U1) * self.solve(f, U2)))
        s21 = float(np.sum(f.mass_apply(U2) * self.solve(f, U1)))
        np.testing.assert_allclose(s12, s21, rtol=1e-11)
        assert float(np.sum(f.mass_apply(U1) * self.solve(f, U1))) > 0.0

    def test_cached_on_system(self, monkeypatch):
        # the 1D eigh behind the spectral factors, the mean values and the
        # sweep's coordinates runs once per operator
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sys = small_system()
        R = random_block(sys, np.random.default_rng(33))
        for _ in range(2):
            self.solve(sys.fem_op, R)
            assert sys.fem_op.spectral_factors.shape[:2] == \
                (sys.fem_op.nterms + 1, 2)
            sys.fem_op.mean_eigenpairs(2)
            sys.operator.apply(R)
        assert len(calls) == 1


class TestPcgSolve:
    def test_matches_dense_solve(self):
        # K V = M U, solved in the eigenbasis, where the right-hand side is
        # U's own coordinates
        sys = small_system()
        op = sys.operator
        dense = materialize_kronecker(raise_matrices(sys),
                                      assembled_terms(sys))
        rng = np.random.default_rng(41)
        U = random_block(sys, rng)
        Y, info = pcg_solve(op, sys.fem_op.to_spectral(U), tol=1e-13,
                            maxiter=400)
        assert info.converged
        B = sys.fem_op.mass_apply(U)
        want = np.linalg.solve(dense, B.ravel()).reshape(B.shape)
        np.testing.assert_allclose(sys.fem_op.to_nodal(Y), want, rtol=1e-9,
                                   atol=1e-11)

    def test_zero_rhs_short_circuits(self):
        sys = small_system()
        op = sys.operator
        X, info = pcg_solve(op, np.zeros((sys.P, sys.N)))
        assert info.converged and info.iterations == 0
        assert not X.any()

    def test_warm_start_at_solution_costs_nothing(self):
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(42)
        B = random_block(sys, rng)
        X, first = pcg_solve(op, B, tol=1e-13, maxiter=400)
        _, info = pcg_solve(op, B, tol=1e-10, maxiter=400,
                            start=(X, first.product))
        assert info.iterations == 0

    def test_returned_product_matches_apply(self):
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(45)
        B = random_block(sys, rng)
        x0 = random_block(sys, rng)
        for start in (None, (x0, op.apply(x0))):
            X, info = pcg_solve(op, B, tol=1e-8, maxiter=400, start=start)
            assert info.iterations > 0
            np.testing.assert_allclose(info.product, op.apply(X), rtol=0,
                                       atol=1e-13 * np.abs(B).max())

    def test_carried_product_warm_start_equals_recomputed(self):
        # a second solve on a new right-hand side, warm-started from the
        # first: its carried product stands in for op.apply(x0)
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(46)
        B1, B2 = random_block(sys, rng), random_block(sys, rng)
        X1, info1 = pcg_solve(op, B1, tol=1e-6, maxiter=400)
        fresh, want = pcg_solve(op, B2, tol=1e-10, maxiter=400,
                                start=(X1, op.apply(X1)))
        carried, got = pcg_solve(op, B2, tol=1e-10, maxiter=400,
                                 start=(X1, info1.product))
        assert got.iterations == want.iterations > 0
        np.testing.assert_allclose(carried, fresh, rtol=0,
                                   atol=1e-12 * np.abs(fresh).max())

    def test_leaves_inputs_unchanged(self):
        # the CG updates run in place, on the solver's own blocks only
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(47)
        B, x0 = random_block(sys, rng), random_block(sys, rng)
        ax0 = op.apply(x0)
        kept = [B.copy(), x0.copy(), ax0.copy()]
        pcg_solve(op, B, tol=1e-10, maxiter=400, start=(x0, ax0))
        for arg, copy in zip((B, x0, ax0), kept):
            np.testing.assert_array_equal(arg, copy)

    def test_rejects_product_without_start(self):
        # the start's product comes only with the start itself
        sys = small_system()
        op = sys.operator
        B = random_block(sys, np.random.default_rng(48))
        with pytest.raises(ValueError, match="start needs two blocks"):
            pcg_solve(op, B, start=(None, np.zeros_like(B)))

    def test_rejects_product_of_another_shape(self):
        sys = small_system()
        op = sys.operator
        B = random_block(sys, np.random.default_rng(49))
        with pytest.raises(ValueError, match="shape"):
            pcg_solve(op, B, start=(np.zeros_like(B), np.zeros(B.size)))

    def test_reports_nonconvergence(self):
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(43)
        B = random_block(sys, rng)
        _, info = pcg_solve(op, B, tol=1e-14, maxiter=1)
        assert not info.converged
        assert info.iterations == 1
        assert info.trace.shape == (2,)

    def test_detects_negative_curvature(self):
        # the system's operator with its sign flipped: every direction has
        # negative energy, and CG meets one at its first step
        sys = small_system()
        op = sys.operator
        flipped = SimpleNamespace(
            apply=lambda V, out=None: np.negative(op.apply(V), out=out),
            mean_solve=op.mean_solve)
        B = random_block(sys, np.random.default_rng(44))
        with pytest.raises(IndefiniteOperatorError, match="curvature"):
            pcg_solve(flipped, B)

    def test_iteration_budget_mean_preconditioned(self):
        # regression bound: the mean-based preconditioner keeps the count
        # small even with 113 active dimensions truncated to the set
        sys = build_system(n=8, order=2, size=31)
        M = assemble_mass(sys.mesh)
        _, v = dense_generalized_eigenpairs(matrix_at(sys.fem_op), M, 1)
        v = v[:, 0]
        v /= np.sqrt(v @ (M @ v))
        U = np.zeros((sys.P, sys.N))
        U[0] = v
        op = sys.operator
        _, info = pcg_solve(op, sys.fem_op.to_spectral(U), tol=1e-10,
                            maxiter=30)
        assert info.converged
        assert info.iterations <= 30


def energy_error(op, X, exact):
    E = X - exact
    return float(np.vdot(E, op.apply(E)))


class TestProjectedStart:
    """CG starts from the energy-optimal point of x0 plus the span of a
    window of (D, K D) pairs."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.integers(-12, 0))
    def test_no_worse_than_the_plain_start(self, seed, m, spread):
        # directions: one near the error of x0, then ones within 10^spread
        # of it (numerically dependent at -12), then a random one
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(seed)
        B = random_block(sys, rng)
        exact, _ = pcg_solve(op, B, tol=1e-14, maxiter=400)
        x0 = exact + 1e-3 * random_block(sys, rng)
        D0 = exact - x0 + 1e-4 * random_block(sys, rng)
        dirs = [D0 + 10.0 ** spread * random_block(sys, rng) * i
                for i in range(m)] + [random_block(sys, rng)]
        X, info = pcg_solve(op, B, maxiter=0, start=(x0, op.apply(x0)),
                            window=[(D, op.apply(D)) for D in dirs])
        assert info.iterations == 0
        plain = energy_error(op, x0, exact)
        assert energy_error(op, X, exact) <= plain * (1.0 + 1e-8)

    def test_exact_when_the_solution_is_in_the_span(self):
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(51)
        x0, D1, D2 = (random_block(sys, rng) for _ in range(3))
        want = x0 + 0.3 * D1 - 2.0 * D2
        X, info = pcg_solve(op, op.apply(want), tol=1e-10,
                            start=(x0, op.apply(x0)),
                            window=[(D1, op.apply(D1)), (D2, op.apply(D2))])
        assert info.iterations == 0 and info.converged
        np.testing.assert_allclose(X, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(info.product, op.apply(X), rtol=0,
                                   atol=1e-12 * np.abs(info.product).max())

    def test_negative_energy_raises_before_any_cg_step(self):
        # a start that already meets its tolerance never reaches CG's
        # curvature check: the window's own energies must catch a pair
        # whose carried product is not the operator's
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(52)
        B, x0 = random_block(sys, rng), random_block(sys, rng)
        D = np.zeros((sys.P, sys.N))
        D[0] = sys.fem_op.mean_eigenpairs(1)[1][:, 0]
        with pytest.raises(IndefiniteOperatorError, match="window"):
            pcg_solve(op, B, tol=1e300, start=(x0, op.apply(x0)),
                      window=[(D, -op.apply(D))])

    def test_zero_and_roundoff_directions_are_skipped(self):
        # an exactly zero increment (two solves equal to the bit, as at
        # P = 1) and one whose product is roundoff of either sign change
        # nothing and divide by nothing
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(53)
        B, x0 = random_block(sys, rng), random_block(sys, rng)
        ax0 = op.apply(x0)
        zero = np.zeros_like(B)
        tiny = 1e-16 * random_block(sys, rng)
        noise = 1e-15 * np.linalg.norm(ax0) * tiny / np.linalg.norm(tiny)
        want, _ = pcg_solve(op, B, tol=1e-10, start=(x0, ax0),
                            window=[(x0, ax0)])
        for KD in (noise, -noise):
            with np.errstate(all="raise"):
                got, _ = pcg_solve(op, B, tol=1e-10, start=(x0, ax0),
                                   window=[(x0, ax0), (zero, zero),
                                           (tiny, KD)])
            np.testing.assert_array_equal(got, want)

    def test_leaves_the_window_unchanged(self):
        sys = small_system()
        op = sys.operator
        rng = np.random.default_rng(54)
        B, x0, D = (random_block(sys, rng) for _ in range(3))
        window = [(x0, op.apply(x0)), (D, op.apply(D))]
        kept = [a.copy() for pair in window for a in pair]
        pcg_solve(op, B, tol=1e-10, start=window[0], window=window)
        for arg, copy in zip((a for pair in window for a in pair), kept):
            np.testing.assert_array_equal(arg, copy)


class TestWeightedGram:
    def test_against_dense_tensor(self):
        sys = small_system()
        tdense = triple_tensor_dense(sys.aset)
        rng = np.random.default_rng(51)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        H = V @ (assemble_mass(sys.mesh) @ W.T)
        want = np.einsum("abc,bc->a", tdense, H)
        got = weighted_gram(sys.tt, V, W, sys.fem_op)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_zero_component_is_tensor_dot(self):
        sys = small_system()
        rng = np.random.default_rng(52)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        b = weighted_gram(sys.tt, V, W, sys.fem_op)
        np.testing.assert_allclose(b[0], tensor_dot(V, W, sys.fem_op),
                                   rtol=1e-12)

    def test_symmetric_in_arguments(self):
        sys = small_system()
        rng = np.random.default_rng(53)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        np.testing.assert_allclose(weighted_gram(sys.tt, V, W, sys.fem_op),
                                   weighted_gram(sys.tt, W, V, sys.fem_op),
                                   rtol=1e-12, atol=1e-14)


class TestDeltaFactor:
    def test_matrix_matches_dense_contraction(self):
        sys = small_system()
        tdense = triple_tensor_dense(sys.aset)
        rng = np.random.default_rng(61)
        s = rng.standard_normal(sys.P) * 0.2
        s[0] = 2.0
        fac = DeltaFactor(sys.tt, s)
        np.testing.assert_allclose(fac.matrix,
                                   np.einsum("abc,b->ac", tdense, s),
                                   rtol=1e-12, atol=1e-13)

    def test_eigenvalues_within_pointwise_range(self):
        # Galerkin projection of multiplication by s(y): the spectrum sits
        # inside the pointwise range of s over the parameter box
        sys = small_system(size=6)
        rng = np.random.default_rng(62)
        _, _, B = tensor_grid(sys.aset, extra_degree=40)
        for _ in range(5):
            s = rng.uniform(-0.3, 0.3, sys.P)
            s[0] = rng.uniform(1.0, 2.0)
            D = sys.tt.multiply_matrix(s)
            eigs = scipy.linalg.eigvalsh(D)
            svals = s @ B
            lo, hi = svals.min(), svals.max()
            corners = np.array(np.meshgrid(
                *[[-1.0, 1.0]] * sys.aset.max_dimension)).reshape(
                sys.aset.max_dimension, -1).T
            sc = evaluate_expansion(s, sys.aset, corners)
            lo = min(lo, sc.min())
            hi = max(hi, sc.max())
            assert eigs.min() >= lo - 1e-6
            assert eigs.max() <= hi + 1e-6

    def test_solve_round_trip(self):
        sys = small_system()
        rng = np.random.default_rng(63)
        s = rng.standard_normal(sys.P) * 0.1
        s[0] = 1.5
        fac = DeltaFactor(sys.tt, s)
        b = rng.standard_normal(sys.P)
        np.testing.assert_allclose(fac.matrix @ fac.solve(b), b, rtol=1e-11,
                                   atol=1e-12)
        B = rng.standard_normal((sys.P, sys.N))
        np.testing.assert_allclose(fac.matrix @ fac.solve(B), B, rtol=1e-11,
                                   atol=1e-12)

    def test_flags_singular_multiplication(self):
        # unit coefficient on the normalized degree-one mode makes
        # s(y) = 1 + sqrt(3) y_1, which vanishes on the box: on the
        # two-member set the multiplication matrix is exactly singular
        sys = small_system(size=2)
        pos = sys.aset.position(((1, 1),))
        s = np.zeros(sys.P)
        s[0] = 1.0
        s[pos] = 1.0
        with pytest.raises(NearSingularError, match="rcond"):
            DeltaFactor(sys.tt, s)

    def test_flags_exactly_singular_matrix(self):
        # s = 0 gives the zero matrix, singular in floating point: the
        # factorization fails outright and still reports the rcond
        sys = small_system()
        with pytest.raises(NearSingularError, match="rcond 0"):
            DeltaFactor(sys.tt, np.zeros(sys.P))

    def test_rcond_is_exact(self):
        sys = small_system(size=12)
        rng = np.random.default_rng(64)
        s = rng.standard_normal(sys.P) * 0.3
        s[0] = 1.2
        fac = DeltaFactor(sys.tt, s)
        np.testing.assert_allclose(fac.rcond,
                                   1.0 / np.linalg.cond(fac.matrix, 1),
                                   rtol=1e-12)


class TestNewtonNormalize:
    def test_mean_only_block_is_exact(self):
        sys = small_system()
        rng = np.random.default_rng(71)
        V = np.zeros((sys.P, sys.N))
        V[0] = rng.standard_normal(sys.N)
        s, hist = newton_normalize(sys.tt, gram_vector(sys, V))
        np.testing.assert_allclose(s[0], tensor_norm(V, sys.fem_op),
                                   rtol=1e-13)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-13)
        assert hist[-1] <= 1e-12 * tensor_norm(V, sys.fem_op) ** 2

    def test_second_moment_identity(self):
        # component 0 of the defect forces sum(s^2) = ||V||^2 exactly
        sys = small_system()
        rng = np.random.default_rng(72)
        V = random_block(sys, rng, scale_by_weight=True)
        s, _ = newton_normalize(sys.tt, gram_vector(sys, V))
        np.testing.assert_allclose(np.sum(s * s),
                                   tensor_norm(V, sys.fem_op) ** 2,
                                   rtol=1e-11)

    def test_pointwise_norm_sampling(self):
        # s(y)^2 tracks ||v(y)||_M^2 up to the chaos truncation tail; with
        # weight-scaled coefficients the tail stays a few percent
        sys = build_system(n=2, order=2, size=12)
        rng = np.random.default_rng(73)
        V = random_block(sys, rng, scale_by_weight=True)
        s, _ = newton_normalize(sys.tt, gram_vector(sys, V))
        Y = rng.uniform(-1.0, 1.0, (40, sys.aset.max_dimension))
        svals = evaluate_expansion(s, sys.aset, Y)
        vvals = evaluate_expansion(V, sys.aset, Y)
        norms2 = np.einsum("pn,pn->p", vvals, sys.fem_op.mass_apply(vvals))
        rel = np.abs(svals ** 2 - norms2) / norms2
        assert np.median(rel) < 0.05
        assert rel.max() < 0.35

    def test_quadratic_tail_and_budget(self):
        sys = small_system(size=12)
        rng = np.random.default_rng(74)
        V = random_block(sys, rng, scale_by_weight=True)
        s, hist = newton_normalize(sys.tt, gram_vector(sys, V))
        scale = tensor_norm(V, sys.fem_op) ** 2
        assert len(hist) - 1 <= 10
        assert hist[-1] <= 1e-12 * scale
        # once inside the contraction region each step squares the residual
        for rk, rk1 in zip(hist[:-1], hist[1:]):
            if rk <= 0.1 * scale:
                assert rk1 <= 50.0 * rk * rk / scale

    def test_residuals_strictly_decrease(self):
        sys = small_system(size=12)
        rng = np.random.default_rng(75)
        V = random_block(sys, rng, scale_by_weight=True)
        _, hist = newton_normalize(sys.tt, gram_vector(sys, V))
        assert np.all(np.diff(hist) < 0)

    def test_rejects_zero_block(self):
        sys = small_system()
        with pytest.raises(ValueError, match="zero block"):
            newton_normalize(sys.tt, np.zeros(sys.P))

    def test_stalls_without_halvings(self, monkeypatch):
        monkeypatch.setattr(galerkin, "_NEWTON_MAX_HALVINGS", 0)
        sys = small_system(size=12)
        V = random_block(sys, np.random.default_rng(76), scale_by_weight=True)
        with pytest.raises(NearSingularError,
                           match=r"Newton stalled: no decrease from residual "
                                 r"\d\.\d{3}e[+-]\d+ after 0 halvings"):
            newton_normalize(sys.tt, gram_vector(sys, V))

    def test_iteration_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(galerkin, "_NEWTON_MAXITER", 1)
        monkeypatch.setattr(galerkin, "_NEWTON_TOL", 0.0)
        sys = small_system(size=12)
        V = random_block(sys, np.random.default_rng(77), scale_by_weight=True)
        with pytest.raises(NearSingularError,
                           match=r"did not reach tolerance 0\.0e\+00 in 1 "
                                 r"iterations \(last residual \d\.\d{3}e"):
            newton_normalize(sys.tt, gram_vector(sys, V))


def carried(sys, V):
    """The (s, inverse) pair that normalizing V leaves for the next."""
    s, _ = newton_normalize(sys.tt, gram_vector(sys, V))
    return s, DeltaFactor(sys.tt, s).inverse


def far_from_its_start(sys, rng):
    """A block V and the pair its mean row alone leaves: V has a mean row u
    plus u / 2 on the row linear in y_1, so v(y) = u (1 + sqrt(3) y_1 / 2)
    nearly vanishes at y_1 = -1 and its norm expansion is far from the
    mean-only one."""
    V = np.zeros((sys.P, sys.N))
    V[0] = rng.standard_normal(sys.N)
    mean_only = V.copy()
    V[sys.aset.position(((1, 1),))] = 0.5 * V[0]
    return V, carried(sys, mean_only)


class TestCarriedNewtonStart:
    """A start carried from a nearby root: chord steps on its factor, and
    damped Newton where they stop halving the residual."""

    @pytest.fixture
    def lu_calls(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    def test_reaches_the_cold_root_by_chord_steps(self, lu_calls):
        # the next sweep's block differs from this one by an increment
        sys = small_system(size=12)
        rng = np.random.default_rng(78)
        V = random_block(sys, rng, scale_by_weight=True)
        start = carried(sys, V)
        V += 1e-3 * random_block(sys, rng, scale_by_weight=True)
        cold, cold_hist = newton_normalize(sys.tt, gram_vector(sys, V))
        del lu_calls[:]
        s, hist = newton_normalize(sys.tt, gram_vector(sys, V), start=start)
        np.testing.assert_allclose(s, cold, rtol=1e-12,
                                   atol=1e-12 * np.linalg.norm(cold))
        assert not lu_calls
        assert 1 <= len(hist) - 1 < len(cold_hist) - 1
        assert np.all(hist[1:] <= 0.5 * hist[:-1])
        assert hist[-1] <= 1e-12 * tensor_norm(V, sys.fem_op) ** 2

    def test_rescaled_block_starts_at_its_root(self):
        # every root has sum(s^2) = b_0, so the start rescales s0 onto it
        sys = small_system(size=12)
        V = random_block(sys, np.random.default_rng(79),
                         scale_by_weight=True)
        start = carried(sys, V)
        s, hist = newton_normalize(sys.tt, gram_vector(sys, 3.0 * V),
                                   start=start)
        np.testing.assert_allclose(s, 3.0 * start[0], rtol=0,
                                   atol=1e-12 * np.linalg.norm(s))
        assert len(hist) == 1

    def test_distant_factor_falls_back_to_newton(self, lu_calls):
        sys = small_system(size=12)
        V, start = far_from_its_start(sys, np.random.default_rng(80))
        cold, _ = newton_normalize(sys.tt, gram_vector(sys, V))
        del lu_calls[:]
        s, hist = newton_normalize(sys.tt, gram_vector(sys, V), start=start)
        assert lu_calls
        np.testing.assert_allclose(s, cold, rtol=1e-12,
                                   atol=1e-12 * np.linalg.norm(cold))
        assert hist[-1] <= 1e-12 * tensor_norm(V, sys.fem_op) ** 2

    def test_stalls_without_halvings(self, monkeypatch):
        monkeypatch.setattr(galerkin, "_NEWTON_MAX_HALVINGS", 0)
        sys = small_system(size=12)
        V, start = far_from_its_start(sys, np.random.default_rng(81))
        with pytest.raises(NearSingularError,
                           match=r"Newton stalled: no decrease from residual "
                                 r"\d\.\d{3}e[+-]\d+ after 0 halvings"):
            newton_normalize(sys.tt, gram_vector(sys, V), start=start)

    def test_iteration_budget_exhausted(self, monkeypatch):
        sys = small_system(size=12)
        rng = np.random.default_rng(82)
        V = random_block(sys, rng, scale_by_weight=True)
        start = carried(sys, V)
        V += 1e-3 * random_block(sys, rng, scale_by_weight=True)
        monkeypatch.setattr(galerkin, "_NEWTON_MAXITER", 1)
        monkeypatch.setattr(galerkin, "_NEWTON_TOL", 0.0)
        with pytest.raises(NearSingularError,
                           match=r"did not reach tolerance 0\.0e\+00 in 1 "
                                 r"iterations \(last residual \d\.\d{3}e"):
            newton_normalize(sys.tt, gram_vector(sys, V), start=start)


class TestBuildSystem:
    def test_shapes_are_consistent(self):
        sys = build_system(n=3, order=2, size=12)
        assert sys.P == len(sys.aset) == sys.tt.size == 12
        assert sys.N == sys.mesh.ndof == (3 * 2 - 1) ** 2
        assert sys.fem_op.nterms == sys.aset.max_dimension
        assert len(sys.fem_op.factors) == sys.aset.max_dimension + 1

    def test_requires_exactly_one_cardinality_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            build_system(n=2, order=1)
        with pytest.raises(ValueError, match="exactly one"):
            build_system(n=2, order=1, size=5, eps=0.1)

    def test_eps_route_matches_size_route(self):
        by_eps = build_system(n=2, order=1, eps=0.05)
        by_size = build_system(n=2, order=1, size=len(by_eps.aset))
        assert by_eps.aset.indices == by_size.aset.indices

    def test_max_terms_caps_coefficient_count(self):
        full = build_system(n=2, order=1, size=6)
        capped = build_system(n=2, order=1, size=6, max_terms=2)
        assert full.fem_op.nterms == full.aset.max_dimension
        assert capped.fem_op.nterms == 2
        assert len(capped.fem_op.factors) == 3
        # a cap at or above the active dimension count changes nothing
        loose = build_system(n=2, order=1, size=6, max_terms=50)
        assert loose.fem_op.nterms == full.fem_op.nterms

    def test_max_terms_must_be_positive(self):
        with pytest.raises(ValueError, match="max_terms must be positive"):
            build_system(n=2, order=1, size=6, max_terms=0)

    def test_rejects_coefficient_not_uniformly_positive(self):
        # varsigma = 1.5 with 120 members activates 103 terms whose
        # amplitudes sum to 1.42: a_0 - sum |a_m| = -0.196 at the
        # quadrature points of this mesh
        with pytest.raises(ValueError, match=r"varsigma=1\.5 with 103 terms: "
                           r"a_0 - sum \|a_m\| = -0\.196 "):
            build_system(n=8, order=2, size=120, varsigma=1.5)

    def test_positivity_checked_over_active_terms_only(self):
        # the same rule capped at 4 terms keeps a_0 - sum |a_m| near 0.28
        sys = build_system(n=8, order=2, size=120, varsigma=1.5, max_terms=4)
        assert sys.fem_op.nterms == 4
