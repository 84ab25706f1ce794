"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

One test per criterion; run `pytest tests/test_acceptance.py -v` to get one
pass/fail line each.  Every test times itself against its budget, builds
its own systems (no shared fixtures, so budgets stay attributable), and
pins tolerances as literals.
"""

import json
import time

import numpy as np
import scipy.sparse.linalg as spla

import oracles
from chaoseig.experiments import ExperimentConfig, run_experiment
from chaoseig.galerkin import (
    build_system,
    newton_normalize,
    pcg_solve,
)
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.legendre import build_triple_tensor
from chaoseig.multiindex import generate_index_set_by_size
from chaoseig.subspace_iteration import run_subspace_iteration
from chaoseig.validation import (
    angle_statistics,
    monte_carlo_statistics,
    overlap_permutation,
    pointwise_error,
)
from oracles import (
    build_moment_matrices,
    matrix_at,
    smallest_eigenpairs,
    spectral_columns,
    tensor_norm,
    weighted_gram,
)


def test_01_moment_tensors_match_quadrature():
    budget, t0 = 1.0, time.perf_counter()
    aset = generate_index_set_by_size(12, varsigma=3.2)
    tt = build_triple_tensor(aset)
    dense = np.zeros((12, 12, 12))
    np.add.at(dense, (tt.ia, tt.ib, tt.ic), tt.values)
    ref = oracles.triple_tensor_dense(aset)
    assert np.max(np.abs(dense - ref)) <= 1e-12
    mats = build_moment_matrices(tt)
    assert np.max(np.abs(mats[0].toarray() - np.eye(12))) == 0.0
    raise_ref = oracles.raise_matrices_dense(aset)
    for m in range(1, aset.max_dimension + 1):
        assert np.max(np.abs(mats[m].toarray() - raise_ref[m - 1])) <= 1e-12
    assert time.perf_counter() - t0 <= budget


def test_02_singleton_set_matches_classical_iteration():
    budget, t0 = 5.0, time.perf_counter()
    sys1 = build_system(n=8, order=1, size=1)
    K0, M = matrix_at(sys1.fem_op), oracles.assemble_mass(sys1.mesh)
    x = np.ones(sys1.N)
    x /= np.sqrt(x @ (M @ x))
    # independent route: classical inverse iteration with a direct solver
    lu = spla.splu(K0.tocsc())
    xc = x.copy()
    for _ in range(20):
        xc = lu.solve(M @ xc)
        xc /= np.sqrt(xc @ (M @ xc))
    mu_classical = xc @ (K0 @ xc)
    res = run_inverse_iteration(sys1, tol=0.0, kmax=20,
                                initial=sys1.fem_op.to_spectral(x[None, :]))
    assert len(res.history) == 20
    assert abs(res.eigenvalue[0] - mu_classical) <= 1e-10
    u = sys1.fem_op.to_nodal(res.U[0])
    d = u - np.sign(u @ (M @ xc)) * xc
    assert np.sqrt(d @ (M @ d)) <= 1e-8
    assert time.perf_counter() - t0 <= budget


def test_03_spatial_convergence_rates(tmp_path):
    budget, t0 = 300.0, time.perf_counter()
    cfg = ExperimentConfig(kind="spatial", order=2, set_size=31, kmax=16,
                           tol=1e-13, mesh_sizes=(4, 8, 16), reference_n=32,
                           output=str(tmp_path / "spatial"))
    out = run_experiment(cfg)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert abs(summary["field_slope"] - 3.0) <= 0.5
    assert abs(summary["eigenvalue_slope"] - 4.0) <= 0.7
    assert time.perf_counter() - t0 <= budget


def test_04_iteration_contraction_and_eigenvalue_rate(tmp_path):
    budget, t0 = 120.0, time.perf_counter()
    cfg = ExperimentConfig(kind="iteration", n=8, order=2, set_size=31,
                           kmax=30, tol=1e-13, kmax_reference=60,
                           output=str(tmp_path / "iteration"))
    out = run_experiment(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    rho = manifest["summary"]["mean_gap_ratio"]
    assert 0.3 < rho < 0.5
    import csv
    with open(out / "iteration.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    inc = np.array([float(r["increment"]) for r in rows])
    mu_err = np.array([float(r["eigenvalue_error"]) for r in rows])
    # contraction band: past the transient, above the solver-tolerance floor
    in_band = (inc > 1e-9) & (inc < 1e-3)
    pairs = [i for i in range(1, len(inc)) if in_band[i] and in_band[i - 1]]
    assert len(pairs) >= 8
    ratios = inc[pairs] / inc[[i - 1 for i in pairs]]
    assert np.max(np.abs(ratios - rho)) <= 0.05
    # steep phase: first 6 sweeps, before the eigenvalue error inherits the
    # single-rate tail of the fixed-point iteration
    k = np.arange(1, 7)
    assert np.all(mu_err[:6] > 0)
    slope_inc = np.polyfit(k, np.log(inc[:6]), 1)[0]
    slope_mu = np.polyfit(k, np.log(mu_err[:6]), 1)[0]
    assert slope_mu <= 1.5 * slope_inc
    assert time.perf_counter() - t0 <= budget


def test_05_basis_growth_convergence_and_tail(tmp_path):
    budget, t0 = 600.0, time.perf_counter()
    cfg = ExperimentConfig(kind="stochastic", n=16, order=2, kmax=16,
                           tol=1e-12, set_sizes=(8, 15, 31, 60, 120),
                           reference_size=264,
                           output=str(tmp_path / "stochastic"))
    out = run_experiment(cfg)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["error_slope"] <= -1.4
    assert -3.0 <= summary["tail_slope"] <= -1.8
    assert time.perf_counter() - t0 <= budget


def test_06_pointwise_residuals():
    budget, t0 = 60.0, time.perf_counter()
    sys_ = build_system(n=8, order=2, size=120)
    pair = run_inverse_iteration(sys_, tol=1e-11, kmax=40)
    assert pair.converged
    rng = np.random.default_rng(321)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, sys_.fem_op.nterms)
        e = pointwise_error(sys_.fem_op, sys_.aset, pair.U, pair.eigenvalue, y)
        assert e["residual"] <= 1e-4
        assert e["normalization_error"] <= 5e-3
    assert time.perf_counter() - t0 <= budget


def test_07_moments_match_monte_carlo():
    budget, t0 = 300.0, time.perf_counter()
    sys_ = build_system(n=8, order=1, size=31)
    pair = run_inverse_iteration(sys_, tol=1e-11, kmax=40)
    mc = monte_carlo_statistics(sys_.fem_op, nsamples=10000, seed=1234)
    assert abs(pair.eigenvalue_mean - mc["eigenvalue_mean"]) \
        <= 3.0 * mc["se_mean"]
    assert abs(pair.eigenvalue_variance - mc["eigenvalue_var"]) \
        <= 3.0 * mc["se_var"]
    assert time.perf_counter() - t0 <= budget


def test_08_subspace_angles_variance_and_crossing():
    budget, t0 = 600.0, time.perf_counter()
    sys_ = build_system(n=8, order=1, size=52)
    K0, M = matrix_at(sys_.fem_op), oracles.assemble_mass(sys_.mesh)
    vals, vecs = smallest_eigenpairs(K0, M, 5, tol=1e-12)
    # start away from the limit (modes 4-5 mixed in, mode 4 dominant) so
    # several decades of geometric decay are visible above the floor set by
    # the basis truncation
    mix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                    [0.2, 0.15, 0.2], [0.0, 0.05, 0.0]])
    B0 = np.zeros((sys_.P, sys_.N, 3))
    B0[0] = spectral_columns(sys_.fem_op, vecs @ mix)
    res = run_subspace_iteration(sys_, q=3, sum_trick=True, tol=1e-9,
                                 kmax=14, store_snapshots=True, initial=B0)
    mean, var = angle_statistics(sys_.fem_op, sys_.aset, res.snapshots,
                                 npoints=256, seed=99)
    err = np.arccos(np.clip(mean, -1.0, 1.0))
    floor = err.min()
    window = [k for k in range(1, len(err))
              if err[k] > 3.0 * floor and err[k - 1] > 3.0 * floor]
    assert len(window) >= 4
    fitted = float(np.exp(np.mean(np.log(err[window]
                                         / err[[k - 1 for k in window]]))))
    rho = vals[2] / vals[3]
    assert abs(fitted - rho) <= 0.1
    assert var[-1] <= var[1] / 100.0
    perm, lam_lo, lam_hi = overlap_permutation(sys_.fem_op, [-1.0], [1.0])
    assert list(perm) == [1, 0]
    assert np.all(lam_lo > 0) and np.all(lam_hi > 0)
    assert time.perf_counter() - t0 <= budget


def test_09_operator_coercivity():
    budget, t0 = 10.0, time.perf_counter()
    sys_ = build_system(n=8, order=2, size=31)
    op = sys_.operator
    rng = np.random.default_rng(777)
    for _ in range(100):
        V = rng.standard_normal((sys_.P, sys_.N))
        assert float(np.sum(V * op.apply(V))) > 0.0
    # a solve must never trip the negative-curvature guard; the
    # right-hand side M U is U's own coordinates in the eigenbasis
    rhs = sys_.fem_op.to_spectral(rng.standard_normal((sys_.P, sys_.N)))
    _, info = pcg_solve(op, rhs, tol=1e-10)
    assert info.converged
    assert time.perf_counter() - t0 <= budget


def test_10_newton_termination_quadratic_tail():
    budget, t0 = 10.0, time.perf_counter()
    sys_ = build_system(n=8, order=1, size=31)
    rng = np.random.default_rng(2468)
    V = rng.standard_normal((sys_.P, sys_.N)) * sys_.aset.weights[:, None]
    s, hist = newton_normalize(sys_.tt, weighted_gram(sys_.tt, V, V,
                                                      sys_.fem_op))
    scale = tensor_norm(V, sys_.fem_op) ** 2
    assert len(hist) - 1 <= 10
    assert hist[-1] <= 1e-12 * scale
    tail = [(hist[i + 1], hist[i]) for i in range(len(hist) - 1)
            if hist[i] / scale <= 1e-2]
    assert len(tail) >= 2
    for r_next, r in tail:
        assert r_next <= 50.0 * r * r / scale
    assert time.perf_counter() - t0 <= budget
