"""The benchmark's workloads: library calls, output checks and work counts.

Each workload builds one system, runs the iteration routine(s) on it and
validates the result.  The seed picks only the validation parameter points
and Monte Carlo samples, so systems and solves are identical for every seed.

An operation is one solve, one validation point or one Monte Carlo
comparison.  An operation that raises one of chaoseig's solver errors (all
RuntimeError: IndefiniteOperatorError, NearSingularError, SubspaceBreakdown-
Error, a CG or eigensolver stall) or misses its pinned check counts as
failed, and the pass goes on.

Library functions are looked up on their module at call time
(`galerkin.build_system`, not a name imported here), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from chaoseig import galerkin, inverse_iteration, subspace_iteration, \
    validation

# Layers traced in the per-layer run; experiments and cli are left out on
# purpose (see layer_map.json).
LAYERS = ("multiindex", "legendre", "fem", "galerkin", "inverse_iteration",
          "subspace_iteration", "validation")

# Public per-element helpers that cost less per call than a span: they run
# hundreds of thousands of times while index sets and tensors are built, so
# wrapping them would mostly time the wrapper.  Their time stays in the
# span of the function that calls them.
UNTRACED = ("multiindex.total_degree", "multiindex.dense_exponents",
            "multiindex.MultiIndexSet.position", "legendre.univariate_triple",
            "legendre.univariate_raise", "legendre.gauss_rule",
            "legendre.eval_univariate", "legendre.eval_univariate_all")

# An eigenvalue mean agrees with its pin to this relative tolerance: far
# above roundoff, far below the truncation and iteration errors.
EIGENVALUE_RTOL = 1e-9


def _set(name, value):
    def hook(tracer, args, result):
        tracer.counters[name] = value(args, result)
    return hook


def _add(name, value):
    return lambda tracer, args, result: tracer.count(name, value(args, result))


# Work counts read off the results of traced calls.
HOOKS = {
    "multiindex.generate_index_set": _add("multiindex.size",
                                          lambda a, r: len(r)),
    "legendre.build_triple_tensor": _set("legendre.triple_tensor_nnz",
                                         lambda a, r: int(r.values.size)),
    "fem.build_parametric_operator": _set("fem.ndof", lambda a, r: r.ndof),
    "galerkin.pcg_solve": _add("galerkin.pcg_iterations",
                               lambda a, r: r[1].iterations),
    "galerkin.newton_normalize": _add("galerkin.newton_iterations",
                                      lambda a, r: len(r[1]) - 1),
    "galerkin.DeltaFactor.__init__":
        lambda tracer, args, result: tracer.minimum(
            "galerkin.division_rcond_min", args[0].rcond),
    "subspace_iteration.subspace_iterate_once":
        _add("subspace_iteration.extra_passes", lambda a, r: int(r[3])),
}


class Ops:
    """Attempted operations of one pass and the reasons any failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, label, call, check=None):
        """Run one operation; its result, or None if it raised.

        check(result) returns a description of a miss, or None.
        """
        self.attempted += 1
        try:
            result = call()
        except RuntimeError as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        miss = check(result) if check else None
        if miss:
            self.failures.append(f"{label}: {miss}")
        return result

    def lost(self, label, reason):
        """An operation that could not run because its input failed."""
        self.attempted += 1
        self.failures.append(f"{label}: {reason}")


def _eigenvalue_check(pin):
    def check(res):
        err = abs(res.eigenvalue_mean - pin) / pin
        if err > EIGENVALUE_RTOL:
            return (f"eigenvalue mean {res.eigenvalue_mean!r} is {err:.2e} "
                    f"from the pinned {pin!r}")
        return None
    return check


def _inverse_counts(res):
    """Work counts the inverse-iteration history records."""
    if res is None:
        return {}
    h = res.history
    return {"inverse_iteration.sweeps": len(h),
            "inverse_iteration.pcg_iterations": int(h.cg_iterations.sum()),
            "inverse_iteration.newton_iterations":
                int(h.newton_iterations.sum())}


@dataclass
class Workload:
    """Build arguments plus the solve and validation steps of one workload."""

    name: str
    build_args: dict
    inverse_args: dict
    eigenvalue_pin: float
    # solves (each on a fresh build) in an untraced run, and validations
    # of each solve's results
    solves: int
    validations: int

    def build(self):
        return galerkin.build_system(**self.build_args)

    @staticmethod
    def sizes(system):
        return {"P": system.P, "N": system.N, "terms": system.fem_op.nterms}

    def inputs(self, system, seed):
        """Validation inputs drawn from the seed; by default the seed."""
        return seed

    def _inverse(self, system, ops):
        return ops.run(
            "inverse iteration",
            lambda: inverse_iteration.run_inverse_iteration(
                system, **self.inverse_args),
            _eigenvalue_check(self.eigenvalue_pin))


@dataclass
class InverseWorkload(Workload):
    """Inverse iteration, then pointwise errors at seeded Sobol points."""

    points: int = 0
    residual_bound: float = 0.0

    def solve(self, system, ops):
        return self._inverse(system, ops)

    def inputs(self, system, seed):
        return 2.0 * qmc.Sobol(d=system.aset.max_dimension, scramble=True,
                               seed=seed).random(self.points) - 1.0

    def validate(self, system, res, Y, ops):
        def check(out):
            if out["residual"] > self.residual_bound:
                return (f"residual {out['residual']:.3e} above "
                        f"{self.residual_bound:.1e}")
            return None

        results = []
        for j, y in enumerate(Y):
            label = f"point {j}"
            if res is None:
                ops.lost(label, "no surrogate to evaluate")
                continue
            out = ops.run(label, lambda: validation.pointwise_error(
                system.fem_op, system.aset, res.U, res.eigenvalue, y), check)
            if out is not None:
                results.append(out)
        if not results:
            return {}
        return {
            "surrogate_residual_max": max(r["residual"] for r in results),
            "eigenvalue_error_max": max(r["eigenvalue_error"]
                                        for r in results),
        }

    def counts(self, res):
        return _inverse_counts(res)


@dataclass
class SubspaceWorkload(Workload):
    """Subspace and inverse iteration, then angle and Monte Carlo checks."""

    subspace_args: dict = field(default_factory=dict)
    angle_points: int = 0
    angle_error_bound: float = 0.0
    mc_samples: int = 0
    mc_z_bound: float = 0.0

    def solve(self, system, ops):
        sub = ops.run("subspace iteration",
                      lambda: subspace_iteration.run_subspace_iteration(
                          system, **self.subspace_args))
        return sub, self._inverse(system, ops)

    def validate(self, system, solved, seed, ops):
        sub, inv = solved
        accuracy = {}
        if sub is None:
            ops.lost("angle statistics", "no subspace iterates")
        else:
            def check(means):
                err = float(np.arccos(min(means[-1], 1.0)))
                accuracy["angle_error_final"] = err
                if err > self.angle_error_bound:
                    return (f"final angle error {err:.3e} above "
                            f"{self.angle_error_bound:.1e}")
                return None

            ops.run("angle statistics", lambda: validation.angle_statistics(
                system.fem_op, system.aset, sub.snapshots,
                npoints=self.angle_points, seed=seed)[0], check)
        if inv is None:
            ops.lost("monte carlo", "no surrogate moments")
        else:
            def check(mc):
                z = abs(inv.eigenvalue_mean - mc["eigenvalue_mean"]) \
                    / mc["se_mean"]
                accuracy["mc_mean_z"] = z
                if z > self.mc_z_bound:
                    return f"mean z-score {z:.2f} above {self.mc_z_bound}"
                return None

            ops.run("monte carlo", lambda: validation.monte_carlo_statistics(
                system.fem_op, nsamples=self.mc_samples, seed=seed), check)
        return accuracy

    def counts(self, solved):
        sub, inv = solved
        out = {}
        if sub is not None:
            h = sub.history
            out.update({
                "subspace_iteration.sweeps": len(h),
                "subspace_iteration.pcg_iterations":
                    int(h.cg_iterations.sum()),
                "subspace_iteration.extra_passes":
                    int(h.extra_orthogonalizations.sum())})
        out.update(_inverse_counts(inv))
        return out


WORKLOADS = {w.name: w for w in (
    InverseWorkload(
        "reference-264", dict(n=16, order=2, size=264),
        dict(tol=1e-12, kmax=16), eigenvalue_pin=19.73308523883103,
        solves=1, validations=3,
        points=32, residual_bound=1e-4),
    InverseWorkload(
        "fine-mesh", dict(n=48, order=2, size=31),
        dict(tol=1e-10, kmax=40), eigenvalue_pin=19.73304448765468,
        solves=2, validations=1,
        points=8, residual_bound=2e-3),
    SubspaceWorkload(
        "subspace-validation", dict(n=16, order=1, size=120),
        dict(tol=1e-11, kmax=40), eigenvalue_pin=19.79669206600673,
        solves=2, validations=1,
        subspace_args=dict(q=3, sum_trick=True, tol=0, kmax=14,
                           store_snapshots=True),
        angle_points=64, angle_error_bound=3e-3,
        mc_samples=2000, mc_z_bound=4.0),
)}
