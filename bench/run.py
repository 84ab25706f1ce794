#!/usr/bin/env python3
"""chaoseig benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload reference-264 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload is one single-process closed-loop job (bench/workloads.py).
With --trace 0 the run measures end-to-end metrics untraced: the workload's
fixed numbers of solves (each on a fresh build) and validations, with bare
builds for half of --seconds spread around them (untraced_run).  With
--trace 1 it makes an untraced pass, a traced pass and another untraced
pass, and reports the per-layer metrics of bench/layer_map.json plus the
tracing overhead.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics BENCHMARK.json names for the mode.  The line before it is the full
report: environment, every end-to-end metric with its unit (accuracy and
failure rate included), work counts and the checks that failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# numpy, scipy, chaoseig and the modules beside this file that use them are
# imported inside functions: BLAS reads its thread count once, when numpy
# loads, which must come after limit_blas_threads.

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
COUNTS_DIR = ROOT / ".bench_counts"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Work counts the traced run adds to those the results record.
TRACE_COUNTS = ("galerkin.pcg_iterations", "galerkin.newton_iterations",
                "galerkin.op_apply_calls", "validation.eigensolve_calls",
                "fem.matrix_at_calls")

# End-to-end metrics the report adds to those of BENCHMARK.json, which
# bounds none of them: failure_rate is 0 when all is well; the accuracy
# metrics move with the seed's validation points by far more than any bound
# allows (they are checked against pinned values instead); validate_s, from
# two or three samples per run, spreads by up to 37% of its median over ten
# runs on a shared 2-vCPU host, more than the largest allowed bound.
# Share of a traced phase left to the benchmark's own code between library
# calls (operation bookkeeping and output checks, about 10-20 us per
# operation): at most 0.04% of any phase of the three workloads.
GLUE_SHARE = 1e-3

REPORT_UNITS = {"validate_s": "s", "failure_rate": "1",
                "surrogate_residual_max": "1",
                "eigenvalue_error_max": "1", "angle_error_final": "rad",
                "mc_mean_z": "1"}


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """At most one BLAS thread per usable core; before numpy loads BLAS."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc()))
        except ValueError:
            wanted = nproc()
        os.environ[var] = str(max(1, min(wanted, nproc())))


def source_digest():
    """sha256 over the library and benchmark sources."""
    h = hashlib.sha256()
    files = sorted((SRC / "chaoseig").rglob("*.py")) + \
        sorted(p for p in BENCH.iterdir() if p.suffix in (".py", ".json"))
    for path in files + [ROOT / "BENCHMARK.json"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_libraries():
    """Loaded OpenBLAS builds with their runtime config and thread count."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": Path(path).name}
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info["threads"] = int(threads())
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment():
    import numpy
    import scipy

    def build_blas(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": build_blas(numpy), "scipy": build_blas(scipy),
                 "loaded": blas_libraries(),
                 "thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS}},
        "nproc": nproc(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    """What one benchmark run measured, before it is reported."""

    metrics: dict
    counts: list       # work counts, one dict per pass or solve
    accuracy: dict
    sizes: dict
    extra: dict


def timed(call):
    t0 = time.perf_counter()
    out = call()
    return out, time.perf_counter() - t0


def untraced_run(wl, seed, seconds, ops):
    """Phase times from repeated samples of each phase.

    The run is wl.solves cycles: a build, a solve and wl.validations
    validations of what it gave.  Bare builds fill half of `seconds`, in
    equal slices before, between and after the cycles.  Only one system is
    alive at a time, so the peak RSS is that of one build and its solve.
    Solves and validations are counted, not timed, because the first of
    each in a process is slower than the rest (by up to a fifth): a count
    that followed the clock would mix the two kinds of sample differently
    from run to run.  solve_s and validate_s are the medians of their
    samples.  setup_s is the mean of its samples, which span the whole run:
    on a shared host the speed of identical code switches between two
    levels (up to 1.7x apart) in spells of seconds to minutes, so the
    median of many short builds jumps between the levels with the share of
    the run spent in slow spells, while the mean follows that share
    smoothly, as the long solves do.  total_s is the sum of the three.
    """
    setups, solves, validates, counts = [], [], [], []
    slice_s = seconds / 2 / (wl.solves + 1)

    def bare_builds():
        spent = 0.0
        while spent < slice_s:
            t = timed(wl.build)[1]
            setups.append(t)
            spent += t

    bare_builds()
    for _ in range(wl.solves):
        system, t = timed(wl.build)
        setups.append(t)
        solved, t = timed(lambda: wl.solve(system, ops))
        solves.append(t)
        counts.append(wl.counts(solved))
        inputs = wl.inputs(system, seed)
        for _ in range(wl.validations):
            accuracy, t = timed(
                lambda: wl.validate(system, solved, inputs, ops))
            validates.append(t)
        sizes = wl.sizes(system)
        system = solved = None
        bare_builds()
    samples = {"setup_s": setups, "solve_s": solves,
               "validate_s": validates}
    metrics = {"setup_s": statistics.mean(setups),
               "solve_s": statistics.median(solves),
               "validate_s": statistics.median(validates)}
    metrics["total_s"] = sum(metrics.values())
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Run(metrics, counts, accuracy, sizes, {"samples": samples})


def one_pass(wl, seed, ops, tracer=None):
    """Phase times of one build, solve and validation, and what they gave.

    With a tracer each phase is a root span.  The benchmark's own input
    generation sits between the timed phases.
    """
    def phase(name, call):
        if tracer is None:
            return timed(call)
        with tracer.span(f"phase.{name}"):
            return timed(call)

    system, setup_s = phase("setup", wl.build)
    inputs = wl.inputs(system, seed)
    solved, solve_s = phase("solve", lambda: wl.solve(system, ops))
    accuracy, validate_s = phase(
        "validate", lambda: wl.validate(system, solved, inputs, ops))
    times = {"setup_s": setup_s, "solve_s": solve_s,
             "validate_s": validate_s,
             "total_s": setup_s + solve_s + validate_s}
    return times, wl.counts(solved), accuracy, wl.sizes(system)


def layer_metric(spec, spans, counters, where=True):
    """One per-layer metric of layer_map.json, from spans in where."""
    if "span_time" in spec:
        return spans.inclusive(spec["span_time"], where)
    if "span_calls" in spec:
        return spans.calls(spec["span_calls"])
    if "self" in spec:
        return spans.layer_self_time(spec["self"], where)
    return counters.get(spec["counter"], 0)


def traced_run(wl, seed, ops, layer_map):
    """Per-layer metrics from a traced pass between two untraced ones.

    The first pass warms the process (a fresh process runs its first solve
    measurably slower), so the overhead compares the traced pass with the
    last one.
    """
    from tracing import Tracer
    from workloads import HOOKS, LAYERS, UNTRACED

    warm, warm_counts, _, _ = one_pass(wl, seed, ops)
    tracer = Tracer(LAYERS, skip=UNTRACED, hooks=HOOKS)
    tracer.install()
    try:
        traced, counts, _, _ = one_pass(wl, seed, ops, tracer)
    finally:
        tracer.uninstall()
    base, base_counts, accuracy, sizes = one_pass(wl, seed, ops)
    spans = tracer.spans()
    metrics = {name: layer_metric(spec, spans, tracer.counters)
               for name, spec in layer_map["metrics"].items()}
    counts.update({k: metrics[k] for k in TRACE_COUNTS})
    roots = phase_roots(spans)
    report = tracing_report(spans, roots, Tracer.wrapper_cost(), warm,
                            traced, base)
    report["shares"] = phase_shares(layer_map, spans, roots, tracer.counters)
    return Run(metrics, [warm_counts, counts, base_counts], accuracy,
               sizes, {"tracing": report})


def phase_roots(spans):
    """Each phase's root span and the mask of the spans below it."""
    root = spans.root_of()
    out = {}
    for sid in (spans.parent < 0).nonzero()[0]:
        under = root == sid
        under[sid] = False
        out[spans.names[spans.name[sid]].split(".", 1)[1] + "_s"] = \
            (sid, under)
    return out


def phase_shares(layer_map, spans, roots, counters):
    """Each time metric's part in each phase, as a share of the traced phase.

    Only the metric's spans below that phase's span count (an eigensolve
    in the solve phase is not validation time).  A count shares the time
    metric named by its share_of.  These are the figures layer_map.json
    records.
    """
    shares = {}
    for name, spec in layer_map["metrics"].items():
        if "share_of" in spec:
            continue
        shares[name] = {
            phase: layer_metric(spec, spans, counters, under)
            / spans.duration[sid]
            for phase, (sid, under) in roots.items()}
    for name, spec in layer_map["metrics"].items():
        if "share_of" in spec:
            shares[name] = shares[spec["share_of"]]
    return shares


def tracing_report(spans, roots, wrapper_cost, warm, traced, base):
    """What tracing cost, and whether the layers cover each phase.

    warm, traced and base are the phase times of the three passes.  A
    phase's layer self times must add up to its traced span, short by at
    most the allowance: what the wrappers of the spans below it cost
    (wrapper_cost per span, timed on a no-op) plus GLUE_SHARE of the phase
    for the benchmark's own code between library calls.  A larger
    shortfall is time spent outside every traced callable.  The difference
    to the untraced phase time is reported beside it; it is not a check,
    because the two untraced passes of the same phase already differ by
    more than tracing costs on a shared host (first_untraced_s).
    """
    import numpy as np

    layer_of = np.array([q.split(".", 1)[0] for q in spans.names])
    phases = {}
    for phase, (sid, under) in roots.items():
        layers = layer_of[spans.name[under]]
        self_time = spans.self_time[under]
        by_layer = {str(lay): float(self_time[layers == lay].sum())
                    for lay in np.unique(layers)}
        layer_sum = float(self_time.sum())
        traced_s = float(spans.duration[sid])
        cost = wrapper_cost * int(under.sum())
        allowance = cost + GLUE_SHARE * traced_s
        unattributed = float(spans.self_time[sid])
        phases[phase] = {
            "traced_s": traced_s,
            "untraced_s": base[phase],
            "first_untraced_s": warm[phase],
            "spans": int(under.sum()),
            "wrapper_cost_s": cost,
            "allowance_s": allowance,
            "layer_self_sum_s": layer_sum,
            "unattributed_s": unattributed,
            "covered": unattributed <= allowance,
            "layer_self_sum_minus_untraced_s": layer_sum - base[phase],
            "layer_self_s": by_layer,
        }
    return {
        "overhead_s": traced["total_s"] - base["total_s"],
        "untraced_total_s": base["total_s"],
        "traced_total_s": traced["total_s"],
        "wrapper_cost_per_span_s": wrapper_cost,
        "spans": int(len(spans.name)),
        # a sanity assertion: children run inside their parent, so a
        # negative self time would mean the spans were recorded wrongly
        "self_time_min_s": float(spans.self_time.min()),
        "self_times_nonnegative": bool(spans.self_time.min() >= 0.0),
        "phases": phases,
    }


def check_counts(workload, seed, counts, failures):
    """Work counts must repeat exactly for the same code, seed and BLAS.

    Counts from earlier runs in this checkout are kept in .bench_counts/,
    keyed by a digest of the sources and the environment that can change
    them; every name both runs report must agree.
    """
    key = hashlib.sha256(json.dumps(
        [source_digest(), nproc(), {v: os.environ[v]
                                    for v in BLAS_THREAD_VARS}],
        sort_keys=True).encode()).hexdigest()
    path = COUNTS_DIR / f"{workload}-seed{seed}.json"
    stored = {}
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("key") == key:
            stored = data["counts"]
    for name in sorted(set(stored) & set(counts)):
        if stored[name] != counts[name]:
            failures.append(f"work count {name} is {counts[name]}, an "
                            f"earlier run of the same code had "
                            f"{stored[name]}")
    COUNTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"key": key, "counts": {**stored, **counts}},
                               sort_keys=True, indent=1))


def run_workload(name, seed, seconds, trace, spec):
    import workloads

    wl = workloads.WORKLOADS[name]
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    ops = workloads.Ops()
    if trace:
        run = traced_run(wl, seed, ops, layer_map)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        run = untraced_run(wl, seed, seconds, ops)
        names = [m["name"] for m in spec["end_to_end"]]
    failures = list(ops.failures)
    counts = run.counts[0]
    for other in run.counts[1:]:
        if any(other[k] != counts[k] for k in set(other) & set(counts)):
            failures.append(f"work counts differ between passes: {counts} "
                            f"then {other}")
        counts = {**counts, **other}
    if trace:
        tracing = run.extra["tracing"]
        if not tracing["self_times_nonnegative"]:
            failures.append("a span has negative self time")
        for phase, cover in tracing["phases"].items():
            if not cover["covered"]:
                failures.append(f"layer self times leave {phase} short by "
                                f"{cover['unattributed_s']:.3g} s, more "
                                f"than the allowance of "
                                f"{cover['allowance_s']:.3g} s")
    check_counts(name, seed, counts, failures)
    failed = len(ops.failures)
    end_to_end = {} if trace else dict(run.metrics)
    end_to_end["failure_rate"] = failed / ops.attempted
    end_to_end.update(run.accuracy)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_UNITS)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": layer_map["workloads"][name],
        "environment": environment(),
        "sizes": run.sizes,
        "attempted": ops.attempted, "failed": failed,
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in end_to_end.items()},
        "counts": counts,
        "failures": failures,
        **run.extra,
    }
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {n: {"value": run.metrics[n], "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(report))
    print(json.dumps(result), flush=True)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each peak RSS is its own
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for w in workloads]
        return max(codes)
    if not (SRC / "chaoseig" / "__init__.py").is_file():
        print(f"error: no chaoseig sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import chaoseig

    if Path(chaoseig.__file__).resolve().parent != SRC / "chaoseig":
        print(f"error: imported chaoseig from {chaoseig.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
