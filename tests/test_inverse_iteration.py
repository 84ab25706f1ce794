"""Inverse iteration checks: classical limits, contraction rates, errors.

The singleton index set reduces the spectral sweep to textbook inverse
iteration on the mean problem, which is re-implemented inline here as an
independent comparator.  Contraction-rate and pointwise-accuracy checks
run on small meshes; the full-size versions live in the acceptance suite.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from chaoseig import subspace_iteration
from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import initial_basis, run_subspace_iteration
from chaoseig.validation import pointwise_error
from oracles import (
    assemble_mass,
    assemble_stiffness,
    dense_generalized_eigenpairs,
    matrix_at,
    rayleigh_quotient,
    smallest_eigenpairs,
    tensor_norm,
)


def classical_inverse_iteration(K, M, x0, steps):
    """Dense comparator: x -> K^{-1} M x with mass-norm normalization."""
    Kd = K.toarray()
    Md = M.toarray()
    x = x0 / np.sqrt(x0 @ Md @ x0)
    for _ in range(steps):
        x = np.linalg.solve(Kd, Md @ x)
        x /= np.sqrt(x @ Md @ x)
    lam = (x @ Kd @ x) / (x @ Md @ x)
    return lam, x


class TestInitialGuess:
    def test_unit_norm_zero_block_only(self):
        sys = build_system(n=3, order=2, size=8)
        U = initial_basis(sys, 1)[:, :, 0]
        assert U.shape == (sys.P, sys.N)
        np.testing.assert_allclose(
            tensor_norm(sys.fem_op.to_nodal(U), sys.fem_op), 1.0, rtol=1e-12)
        assert not U[1:].any()

    def test_matches_reference_ground_mode(self):
        sys = build_system(n=3, order=2, size=8)
        U = initial_basis(sys, 1)[:, :, 0]
        _, vecs = smallest_eigenpairs(matrix_at(sys.fem_op),
                                      assemble_mass(sys.mesh), 1, tol=1e-12)
        np.testing.assert_allclose(sys.fem_op.to_nodal(U[0]), vecs[:, 0],
                                   atol=1e-9)


class TestCoordinates:
    """Results are held in mean-eigenbasis coordinates, where the tensor
    norm is the Frobenius norm; `to_nodal` gives the nodal values."""

    @pytest.fixture(scope="class")
    def mean_only(self):
        sys = build_system(n=4, order=2, size=1)
        assert sys.fem_op.nterms == 0
        return sys, run_inverse_iteration(sys)

    def test_result_has_unit_frobenius_norm(self, mean_only):
        _, res = mean_only
        np.testing.assert_allclose(np.linalg.norm(res.U), 1.0, atol=1e-12)

    def test_nodal_values_are_the_ground_mode(self, mean_only):
        sys, res = mean_only
        M = assemble_mass(sys.mesh)
        _, vecs = dense_generalized_eigenpairs(assemble_stiffness(sys.mesh),
                                               M, 1)
        v = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (M @ vecs[:, 0]))
        u = sys.fem_op.to_nodal(res.U[0])
        np.testing.assert_allclose(u, np.sign(u @ (M @ v)) * v, atol=1e-8)


class TestSingletonSetReduction:
    def test_tracks_classical_iteration_stepwise(self, monkeypatch):
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FLOOR", 1e-14)
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FACTOR", 0.0)
        sys = build_system(n=4, order=2, size=1)
        res = run_inverse_iteration(sys, tol=0.0, kmax=6,
                                    store_snapshots=True)
        x = sys.fem_op.to_nodal(initial_basis(sys, 1)[0, :, 0])
        Kd = matrix_at(sys.fem_op).toarray()
        Md = assemble_mass(sys.mesh).toarray()
        assert len(res.snapshots) == 7
        for S in res.snapshots[1:]:
            x = np.linalg.solve(Kd, Md @ x)
            x /= np.sqrt(x @ Md @ x)
            np.testing.assert_allclose(sys.fem_op.to_nodal(S[0, :, 0]), x,
                                       atol=1e-9)
        lam = (x @ Kd @ x) / (x @ Md @ x)
        np.testing.assert_allclose(1.0 / res.eigenvalue[0], 1.0 / lam,
                                   rtol=1e-6)

    def test_exactly_zero_increments_are_skipped(self):
        # the start is the exact mean mode, so every solve repeats the
        # first to the bit: the window's increments are exactly zero, and
        # its projection must skip them instead of dividing by their energy
        sys = build_system(n=4, order=2, size=1)
        with np.errstate(all="raise"):
            res = run_inverse_iteration(sys, tol=0.0, kmax=6)
        assert not res.history.increments.any()
        assert not res.history.cg_iterations[1:].any()

    def test_converged_pair_matches_classical(self):
        sys = build_system(n=4, order=1, size=1)
        res = run_inverse_iteration(sys, tol=1e-13, kmax=60)
        assert res.converged
        lam, x = classical_inverse_iteration(
            matrix_at(sys.fem_op), assemble_mass(sys.mesh),
            sys.fem_op.to_nodal(initial_basis(sys, 1)[0, :, 0]), 60)
        np.testing.assert_allclose(res.eigenvalue_mean, lam, rtol=1e-10)
        d = sys.fem_op.to_nodal(res.U[0]) - x
        assert np.sqrt(d @ sys.fem_op.mass_apply(d)) <= 1e-8


@pytest.fixture(scope="module")
def solved():
    sys = build_system(n=4, order=2, size=12)
    return sys, run_inverse_iteration(sys, tol=1e-11, kmax=60)


class TestConvergence:
    def test_flags_convergence_and_unit_norm(self, solved):
        sys, res = solved
        assert res.converged
        assert res.history.increments[-1] < 1e-11
        np.testing.assert_allclose(
            tensor_norm(sys.fem_op.to_nodal(res.U), sys.fem_op), 1.0,
            atol=1e-8)

    def test_pointwise_accuracy(self, solved):
        sys, res = solved
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.uniform(-1.0, 1.0, sys.aset.max_dimension)
            rep = pointwise_error(sys.fem_op, sys.aset, res.U,
                                  res.eigenvalue, y)
            assert rep["eigenvalue_error"] <= 1e-3 * rep["eigenvalue_ref"]
            assert rep["residual"] <= 1e-3
            assert rep["normalization_error"] <= 1e-3

    def test_increment_contraction_rate(self, solved):
        # the sweep contracts like the gap ratio of the mean problem
        sys, res = solved
        vals, _ = smallest_eigenpairs(matrix_at(sys.fem_op),
                                      assemble_mass(sys.mesh), 2, tol=1e-12)
        expected = vals[0] / vals[1]
        inc = res.history.increments
        ratios = inc[3:-3] / inc[2:-4]  # pre-floor window
        assert np.all(np.abs(ratios - expected) < 0.1)

    def test_rayleigh_agrees_with_reciprocal_extraction(self, solved):
        sys, res = solved
        rayleigh = rayleigh_quotient(sys, sys.fem_op.to_nodal(res.U))
        np.testing.assert_allclose(rayleigh[0], res.eigenvalue[0], rtol=1e-7)
        np.testing.assert_allclose(
            float(np.sum(rayleigh[1:] ** 2)), res.eigenvalue_variance,
            rtol=1e-3)

    def test_statistics_helpers(self, solved):
        sys, res = solved
        assert res.eigenvalue_mean == res.eigenvalue[0]
        assert res.eigenvalue_variance == pytest.approx(
            float(np.sum(res.eigenvalue[1:] ** 2)))


class TestDriverBookkeeping:
    def test_history_and_iterates_shapes(self):
        # the iterates are the snapshots of the Q = 1 basis; the eigenvalue
        # changes are the iteration study's (see test_experiments), which
        # starts from the mean mode
        sys = build_system(n=3, order=1, size=5)
        start = initial_basis(sys, 1)[:, :, 0]
        res = run_inverse_iteration(sys, tol=1e-9, kmax=40, initial=start,
                                    store_snapshots=True)
        h = res.history
        k = len(h)
        assert k >= 2
        assert h.increments.shape == h.cg_iterations.shape == (k, 1)
        for arr in (h.max_increments, h.eigenvalue_means, h.cg_tolerances,
                    h.newton_iterations, h.extra_orthogonalizations,
                    h.orthogonality_defects):
            assert arr.shape == (k,)
        assert len(res.snapshots) == k + 1
        np.testing.assert_array_equal(res.snapshots[0][:, :, 0], start)
        np.testing.assert_array_equal(res.snapshots[-1][:, :, 0], res.U)
        assert not np.shares_memory(res.snapshots[-1][:, :, 0], res.U)

    def test_cg_tolerance_schedule(self, monkeypatch):
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FLOOR", 1e-12)
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FACTOR", 1e-2)
        sys = build_system(n=3, order=1, size=5)
        res = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        h = res.history
        np.testing.assert_allclose(h.cg_tolerances[0], 1e-2)
        want = np.maximum(1e-12, 1e-2 * h.increments[:-1, 0])
        np.testing.assert_allclose(h.cg_tolerances[1:], want)

    def test_nonconvergence_is_flagged_not_raised(self):
        sys = build_system(n=3, order=1, size=5)
        res = run_inverse_iteration(sys, tol=1e-14, kmax=2)
        assert not res.converged
        assert len(res.history) == 2

    def test_custom_initial_is_normalized(self):
        sys = build_system(n=3, order=1, size=5)
        start = initial_basis(sys, 1)[:, :, 0]
        res1 = run_inverse_iteration(sys, tol=1e-10, kmax=40)
        res2 = run_inverse_iteration(sys, tol=1e-10, kmax=40,
                                     initial=3.7 * start)
        np.testing.assert_allclose(res1.U, res2.U, atol=1e-10)

    def test_kmax_validation(self):
        sys = build_system(n=3, order=1, size=5)
        with pytest.raises(ValueError, match="kmax"):
            run_inverse_iteration(sys, kmax=0)

    @pytest.mark.parametrize("entry", [0.0, np.nan], ids=["zero", "nan"])
    def test_bad_start_is_rejected_before_the_division(self, entry):
        sys = build_system(n=3, order=1, size=5)
        start = np.zeros((sys.P, sys.N))
        start[1, 2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="start column 0 is zero or not finite"):
                run_inverse_iteration(sys, initial=start)

    def test_flat_start_is_rejected_by_its_shape(self):
        sys = build_system(n=3, order=1, size=5)
        with pytest.raises(ValueError, match=r"basis shape \(20, 1\)"):
            run_inverse_iteration(sys, initial=np.ones(sys.P * sys.N))

    def test_cg_stall_names_the_iteration_count(self, monkeypatch):
        monkeypatch.setattr(subspace_iteration, "_CG_MAXITER", 1)
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FACTOR", 0.0)
        monkeypatch.setattr(subspace_iteration, "_CG_TOL_FLOOR", 1e-14)
        sys = build_system(n=3, order=1, size=5)
        with pytest.raises(RuntimeError,
                           match=r"inner CG stalled at relative residual "
                                 r"\d\.\d{3}e-\d+ after 1 iterations"):
            run_inverse_iteration(sys)
