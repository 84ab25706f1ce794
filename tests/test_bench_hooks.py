"""The benchmark reads the result shapes the solvers return.

`bench/workloads.py` counts work off the results of traced calls: the
triple tensor's entries as `build_triple_tensor(...).values.size`, the CG
iterations as `pcg_solve(...)[1].iterations`, the Newton steps as
`len(newton_normalize(...)[1]) - 1`, the smallest division rcond as the
`rcond` of each `DeltaFactor` built, and the extra orthonormalization
passes as `subspace_iterate_once(...)[3]`, which now reads 0: each sweep
makes one pass.  It also reads both drivers' results: the sweep, CG,
Newton and extra-pass counts (0 too) of their histories, `U`,
`eigenvalue`, `eigenvalue_mean` and the snapshots, and it passes each
workload's keyword arguments to `build_system` and both drivers.  The
benchmark stays fixed while the package changes, so these tests run its
code on real results: a change to any of these names or shapes fails here
instead of breaking `bench/run.py`.  Its `setup_s` times `build_system`
and its `solve_s` the drivers, so the operator is built on first use, and
then shared, not built with the system.
"""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from chaoseig import subspace_iteration
from chaoseig.galerkin import (
    DeltaFactor,
    build_system,
    newton_normalize,
    pcg_solve,
)
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import (
    initial_basis,
    run_subspace_iteration,
    subspace_iterate_once,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def hooks(workloads):
    return workloads.HOOKS


class Tracer:
    """The part of the benchmark's tracer that the hooks use."""

    def __init__(self):
        self.counters = {}

    def count(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def minimum(self, counter, value):
        self.counters[counter] = min(self.counters.get(counter, value),
                                     value)


def test_triple_tensor_hook_reads_the_entry_count(hooks):
    system = build_system(n=2, order=1, size=264)
    tt = system.tt
    tracer = Tracer()
    hooks["legendre.build_triple_tensor"](tracer, (system.aset,), tt)
    assert tracer.counters == {"legendre.triple_tensor_nnz": tt.values.size}
    assert tt.values.size == 4_715


def test_pcg_hook_reads_the_iteration_count(hooks):
    system = build_system(n=3, order=1, size=5)
    op = system.operator
    rhs = initial_basis(system, 1)[:, :, 0]
    result = pcg_solve(op, rhs, tol=1e-10)
    X, info = result
    assert X.shape == rhs.shape and info.iterations > 0
    tracer = Tracer()
    hooks["galerkin.pcg_solve"](tracer, (op, rhs), result)
    assert tracer.counters == {"galerkin.pcg_iterations": info.iterations}


def test_newton_and_division_hooks_read_steps_and_rcond(hooks):
    # a cold normalization, then one started from its root and factor,
    # as the next sweep's normalization of the same column is
    system = build_system(n=4, order=1, size=12)
    tt = system.tt
    V = initial_basis(system, 1)[:, :, 0]
    V[1:4] = 0.05
    tracer = Tracer()
    cold = newton_normalize(tt, tt.contract_gram(V @ V.T))
    hooks["galerkin.newton_normalize"](tracer, (tt, None), cold)
    factor = DeltaFactor(tt, cold[0])
    hooks["galerkin.DeltaFactor.__init__"](tracer, (factor, tt, cold[0]),
                                           None)
    V[1:4] = 0.0501
    carried = newton_normalize(tt, tt.contract_gram(V @ V.T),
                               start=(cold[0], factor.inverse))
    hooks["galerkin.newton_normalize"](tracer, (tt, None), carried)
    other = DeltaFactor(tt, carried[0])
    hooks["galerkin.DeltaFactor.__init__"](tracer, (other, tt, carried[0]),
                                           None)
    steps = (len(cold[1]) - 1, len(carried[1]) - 1)
    assert steps[0] > steps[1] > 0
    assert tracer.counters == {
        "galerkin.newton_iterations": sum(steps),
        "galerkin.division_rcond_min": min(factor.rcond, other.rcond)}
    assert 0.0 < tracer.counters["galerkin.division_rcond_min"] <= 1.0


def test_sweep_hook_reads_the_extra_passes(hooks):
    # the first sweep of a run, whose history records its extra passes;
    # that sweep's CG tolerance is `_CG_TOL_FACTOR` times 1
    system = build_system(n=4, order=1, size=12)
    B = initial_basis(system, 2)
    result = subspace_iterate_once(system, B,
                                   subspace_iteration._CG_TOL_FACTOR)
    run = run_subspace_iteration(system, q=2, kmax=1)
    assert result[3] == run.history.extra_orthogonalizations[0]
    tracer = Tracer()
    hooks["subspace_iteration.subspace_iterate_once"](tracer, (system, B),
                                                      result)
    assert tracer.counters == {"subspace_iteration.extra_passes": result[3]}


def test_workloads_read_both_drivers_results(workloads, monkeypatch):
    # both drivers run under the counting hooks of the calls they make, so
    # the work counts the workloads read off the histories are checked
    # against the traced ones
    tracer = Tracer()
    for name, module in (("pcg_solve", "galerkin"),
                         ("newton_normalize", "galerkin"),
                         ("subspace_iterate_once", "subspace_iteration")):
        def counted(*args, _call=getattr(subspace_iteration, name),
                    _hook=workloads.HOOKS[f"{module}.{name}"], **kwargs):
            result = _call(*args, **kwargs)
            _hook(tracer, args, result)
            return result

        monkeypatch.setattr(subspace_iteration, name, counted)
    system = build_system(n=4, order=1, size=12)
    inv = run_inverse_iteration(system, tol=1e-10, kmax=40)
    inverse_counts = dict(tracer.counters)
    tracer.counters.clear()
    sub = run_subspace_iteration(system, q=2, tol=0, kmax=4,
                                 store_snapshots=True)
    assert workloads._inverse_counts(inv) == {
        "inverse_iteration.sweeps": len(inv.history.increments),
        "inverse_iteration.pcg_iterations":
            inverse_counts["galerkin.pcg_iterations"],
        "inverse_iteration.newton_iterations":
            inverse_counts["galerkin.newton_iterations"]}
    subspace = workloads.WORKLOADS["subspace-validation"]
    assert subspace.counts((sub, inv)) == {
        "subspace_iteration.sweeps": 4,
        "subspace_iteration.pcg_iterations":
            tracer.counters["galerkin.pcg_iterations"],
        "subspace_iteration.extra_passes":
            tracer.counters["subspace_iteration.extra_passes"],
        **workloads._inverse_counts(inv)}

    assert workloads._eigenvalue_check(inv.eigenvalue_mean)(inv) is None
    assert "eigenvalue mean" in workloads._eigenvalue_check(
        1.001 * inv.eigenvalue_mean)(inv)
    # the validations read U, eigenvalue, eigenvalue_mean and snapshots;
    # their bounds are the full-size workloads', so only the reads count
    inverse = workloads.WORKLOADS["fine-mesh"]
    Y = inverse.inputs(system, seed=1)[:2]
    ops = workloads.Ops()
    accuracy = inverse.validate(system, inv, Y, ops)
    assert ops.attempted == 2
    assert set(accuracy) == {"surrogate_residual_max",
                             "eigenvalue_error_max"}
    ops = workloads.Ops()
    small = dataclasses.replace(subspace, angle_points=4, mc_samples=20)
    accuracy = small.validate(system, (sub, inv), 1, ops)
    assert ops.attempted == 2
    assert set(accuracy) == {"angle_error_final", "mc_mean_z"}


def test_workload_arguments_bind_to_the_library(workloads):
    # a keyword the benchmark passes but the library no longer takes
    # fails to bind here
    build = inspect.signature(build_system)
    inverse = inspect.signature(run_inverse_iteration)
    subspace = inspect.signature(run_subspace_iteration)
    bound = 0
    for workload in workloads.WORKLOADS.values():
        build.bind(**workload.build_args)
        inverse.bind(None, **workload.inverse_args)
        if hasattr(workload, "subspace_args"):
            subspace.bind(None, **workload.subspace_args)
            bound += 1
    assert bound == 1


def test_build_leaves_the_operator_to_the_drivers(monkeypatch):
    # built on the first solve and shared by every later one on the system
    system = build_system(n=4, order=1, size=12)
    assert "operator" not in vars(system)
    seen = []
    solve = subspace_iteration.pcg_solve

    def recorded(op, *args, **kwargs):
        seen.append(op)
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(subspace_iteration, "pcg_solve", recorded)
    run_inverse_iteration(system, tol=1e-8, kmax=3)
    run_subspace_iteration(system, q=2, tol=0, kmax=2)
    assert len(seen) == 3 + 2 * 2
    assert all(op is system.operator for op in seen)
