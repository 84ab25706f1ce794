"""Declarative study drivers: convergence sweeps, decay reports, manifests.

Each study kind reproduces one numerical experiment end to end from a
serializable config: spatial mesh sweep, stochastic index-set sweep,
iteration-convergence run, coefficient-decay report, subspace-angle study.
Outputs are CSV files plus a JSON manifest with per-file content hashes.
Runs are deterministic per machine and BLAS thread count: on one machine,
with the same thread setting, a config (with its seed) maps to identical
output bytes.  Another thread count may round BLAS kernels differently and
change the last bits.  Every CSV row carries the config hash and package
version, and sweep members execute in a fixed order.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .fem import prolongation_matrix
from .galerkin import build_system, tensor_dot, tensor_norm
from .inverse_iteration import run_inverse_iteration
from .subspace_iteration import run_subspace_iteration
from .validation import (
    angle_statistics,
    coefficient_decay,
    overlap_permutation,
    smallest_eigenpairs,
)

__all__ = [
    "KINDS",
    "ExperimentConfig",
    "fit_slope",
    "run_experiment",
    "make_reference",
    "reference_config",
    "load_reference",
    "report",
]

KINDS = ("spatial", "stochastic", "iteration", "decay", "subspace",
         "reference")


@dataclass
class ExperimentConfig:
    """One study, fully described: problem, basis, iteration, outputs.

    Exactly one of set_size / eps selects the chaos basis (set_size = 31
    when both are left unset).  Sweep kinds read their axis from
    mesh_sizes / set_sizes and compare against a reference computed at
    reference_n / reference_size on the same remaining parameters.
    """

    kind: str
    n: int = 8
    order: int = 2
    varsigma: float = 3.2
    max_terms: int = None
    set_size: int = None
    eps: float = None
    tol: float = 1e-10
    kmax: int = 30
    shift: float = 0.0
    q: int = 3
    sum_trick: bool = False
    seed: int = 2024
    mesh_sizes: tuple = ()
    reference_n: int = 32
    set_sizes: tuple = ()
    reference_size: int = 264
    kmax_reference: int = 60
    angle_points: int = 256
    crossing_points: int = 21
    output: str = "results"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got "
                             f"{self.kind!r}")
        if self.set_size is not None and self.eps is not None:
            raise ValueError("give at most one of set_size and eps")
        if self.set_size is None and self.eps is None:
            self.set_size = 31
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("field max_terms must be positive")
        self.mesh_sizes = tuple(int(v) for v in self.mesh_sizes)
        self.set_sizes = tuple(int(v) for v in self.set_sizes)
        for fname in ("n", "order", "kmax", "q", "reference_n",
                      "reference_size", "kmax_reference", "angle_points",
                      "crossing_points"):
            if getattr(self, fname) < 1:
                raise ValueError(f"field {fname} must be positive")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["mesh_sizes"] = list(self.mesh_sizes)
        d["set_sizes"] = list(self.set_sizes)
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        if "kind" not in data:
            raise ValueError("config is missing the required field 'kind'")
        return cls(**data)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path):
        return cls.from_json(Path(path).read_text())

    def save(self, path):
        Path(path).write_text(self.to_json() + "\n")

    @property
    def config_hash(self):
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def fit_slope(x, y, skip=0):
    """Log-log least-squares slope with its standard error.

    Entries must be positive; `skip` drops the leading (preasymptotic)
    points.  The standard error is NaN when fewer than three points remain.
    """
    lx = np.log(np.asarray(x, dtype=float)[skip:])
    ly = np.log(np.asarray(y, dtype=float)[skip:])
    if len(lx) < 2:
        raise ValueError("need at least two points for a slope")
    coeffs, residuals, *_ = np.polyfit(lx, ly, 1, full=True)
    slope = float(coeffs[0])
    if len(lx) < 3:
        return slope, float("nan")
    dof = len(lx) - 2
    resid = float(residuals[0]) if len(residuals) else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    return slope, float(np.sqrt(resid / dof / sxx))


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _write_manifest(outdir, cfg, filenames, summary):
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash,
        "version": __version__,
        "outputs": {name: _sha256(outdir / name) for name in filenames},
        "summary": _json_safe(summary),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _build(cfg, n=None, size=None):
    return build_system(n=cfg.n if n is None else n, order=cfg.order,
                        size=cfg.set_size if size is None else size,
                        eps=cfg.eps if size is None else None,
                        varsigma=cfg.varsigma, max_terms=cfg.max_terms)


def _aligned_field_error(U, U_ref, mass):
    sign = 1.0 if tensor_dot(U, U_ref, mass) >= 0.0 else -1.0
    return tensor_norm(sign * U - U_ref, mass)


def _run_spatial(cfg, outdir):
    sizes = cfg.mesh_sizes or (4, 8, 16)
    ref_sys = _build(cfg, n=cfg.reference_n)
    ref = run_inverse_iteration(ref_sys, tol=cfg.tol, kmax=cfg.kmax,
                                shift=cfg.shift)
    rows = []
    hs = []
    field_errors = []
    mu_errors = []
    for n in sizes:
        if cfg.reference_n % n != 0:
            raise ValueError(f"mesh size {n} is not nested in the reference "
                             f"mesh {cfg.reference_n}")
        sys_n = _build(cfg, n=n)
        res = run_inverse_iteration(sys_n, tol=cfg.tol, kmax=cfg.kmax,
                                    shift=cfg.shift)
        P = prolongation_matrix(sys_n.mesh, ref_sys.mesh)
        U_pro = (P @ res.U.T).T
        ferr = _aligned_field_error(U_pro, ref.U, ref_sys.mass)
        merr = float(np.linalg.norm(res.eigenvalue - ref.eigenvalue))
        rows.append([n, sys_n.mesh.h, sys_n.N, len(res.history),
                     res.eigenvalue_mean, ferr, merr,
                     abs(res.eigenvalue_mean - ref.eigenvalue_mean),
                     cfg.config_hash, __version__])
        hs.append(sys_n.mesh.h)
        field_errors.append(ferr)
        mu_errors.append(merr)
    _write_csv(outdir / "spatial.csv",
               ["n", "h", "ndof", "steps", "eigenvalue_mean", "field_error",
                "eigenvalue_error", "eigenvalue_mean_error", "config_hash",
                "version"], rows)
    fslope, fse = fit_slope(hs, field_errors)
    mslope, mse = fit_slope(hs, mu_errors)
    summary = {
        "reference_n": cfg.reference_n,
        "reference_eigenvalue_mean": ref.eigenvalue_mean,
        "field_slope": fslope, "field_slope_stderr": fse,
        "eigenvalue_slope": mslope, "eigenvalue_slope_stderr": mse,
    }
    return ["spatial.csv"], summary


def _decay_rows(cfg, aset, res):
    frep = coefficient_decay(aset, res.U, M=res.system.mass)
    mrep = coefficient_decay(aset, res.eigenvalue)
    rows = []
    for i in range(len(aset)):
        rows.append([i + 1, aset.weights[i], frep["magnitudes"][i],
                     mrep["magnitudes"][i], frep["sorted"][i],
                     mrep["sorted"][i], cfg.config_hash, __version__])
    return rows


_DECAY_HEADER = ["rank", "weight", "field_coefficient", "mu_coefficient",
                 "field_coefficient_sorted", "mu_coefficient_sorted",
                 "config_hash", "version"]


def _run_stochastic(cfg, outdir):
    sizes = cfg.set_sizes or (8, 15, 31, 60, 120)
    ref_sys = _build(cfg, size=cfg.reference_size)
    ref = run_inverse_iteration(ref_sys, tol=cfg.tol, kmax=cfg.kmax,
                                shift=cfg.shift)
    rows = []
    cards = []
    field_errors = []
    for size in sizes:
        sys_s = _build(cfg, size=size)
        res = run_inverse_iteration(sys_s, tol=cfg.tol, kmax=cfg.kmax,
                                    shift=cfg.shift)
        positions = [ref_sys.aset.position(a) for a in sys_s.aset.indices]
        if any(p is None for p in positions):
            raise RuntimeError("sweep set is not nested in the reference "
                               "set; refinement monotonicity is broken")
        sign = 1.0 if float(np.sum(
            res.U[0] * (ref_sys.mass @ ref.U[0]))) >= 0.0 else -1.0
        U_embed = ref.U.copy()
        U_embed[positions] = sign * res.U
        mu_embed = ref.eigenvalue.copy()
        mu_embed[positions] = res.eigenvalue
        ferr = tensor_norm(U_embed - ref.U, ref_sys.mass)
        merr = float(np.linalg.norm(mu_embed - ref.eigenvalue))
        rows.append([size, sys_s.aset.eps, sys_s.aset.max_dimension,
                     len(res.history), res.eigenvalue_mean, ferr, merr,
                     cfg.config_hash, __version__])
        cards.append(size)
        field_errors.append(ferr)
    _write_csv(outdir / "stochastic.csv",
               ["set_size", "eps", "max_dimension", "steps",
                "eigenvalue_mean", "field_error", "eigenvalue_error",
                "config_hash", "version"], rows)
    _write_csv(outdir / "decay.csv", _DECAY_HEADER,
               _decay_rows(cfg, ref_sys.aset, ref))
    eslope, ese = fit_slope(cards, field_errors)
    mags = coefficient_decay(ref_sys.aset, ref.U,
                             M=ref_sys.mass)["magnitudes"]
    skip = max(1, len(mags) // 4)
    tslope, tse = fit_slope(np.arange(1, len(mags) + 1), mags, skip=skip)
    summary = {
        "reference_size": cfg.reference_size,
        "reference_eigenvalue_mean": ref.eigenvalue_mean,
        "error_slope": eslope, "error_slope_stderr": ese,
        "tail_slope": tslope, "tail_slope_stderr": tse,
        "tail_skip": skip,
    }
    return ["stochastic.csv", "decay.csv"], summary


def _run_iteration(cfg, outdir):
    sys_ = _build(cfg)
    target = run_inverse_iteration(sys_, tol=1e-13, kmax=cfg.kmax_reference,
                                   shift=cfg.shift)
    res = run_inverse_iteration(sys_, tol=cfg.tol, kmax=cfg.kmax,
                                shift=cfg.shift, store_iterates=True)
    h = res.history
    rows = []
    for k in range(len(h)):
        U_k = res.iterates[k + 1]
        rows.append([
            k + 1, h.increments[k], h.eigenvalue_means[k],
            h.eigenvalue_changes[k],
            abs(h.eigenvalue_means[k] - target.eigenvalue_mean),
            _aligned_field_error(U_k, target.U, sys_.mass),
            int(h.cg_iterations[k]), h.cg_tolerances[k],
            int(h.newton_iterations[k]), cfg.config_hash, __version__])
    _write_csv(outdir / "iteration.csv",
               ["k", "increment", "eigenvalue_mean", "eigenvalue_change",
                "eigenvalue_error", "field_error", "cg_iterations",
                "cg_tolerance", "newton_iterations", "config_hash",
                "version"], rows)
    vals, _ = smallest_eigenpairs(sys_.fem_op.stiffness[0], sys_.mass, 2,
                                  tol=1e-12)
    summary = {
        "target_eigenvalue_mean": target.eigenvalue_mean,
        "target_converged": bool(target.converged),
        "study_converged": bool(res.converged),
        "mean_gap_ratio": float(vals[0] / vals[1]),
    }
    return ["iteration.csv"], summary


def _run_decay(cfg, outdir):
    sys_ = _build(cfg)
    res = run_inverse_iteration(sys_, tol=cfg.tol, kmax=cfg.kmax,
                                shift=cfg.shift)
    _write_csv(outdir / "decay.csv", _DECAY_HEADER,
               _decay_rows(cfg, sys_.aset, res))
    mags = coefficient_decay(sys_.aset, res.U, M=sys_.mass)["magnitudes"]
    skip = max(1, len(mags) // 4)
    tslope, tse = fit_slope(np.arange(1, len(mags) + 1), mags, skip=skip)
    summary = {"eigenvalue_mean": res.eigenvalue_mean,
               "tail_slope": tslope, "tail_slope_stderr": tse,
               "tail_skip": skip}
    return ["decay.csv"], summary


def _run_subspace(cfg, outdir):
    sys_ = _build(cfg)
    res = run_subspace_iteration(sys_, q=cfg.q, tol=cfg.tol, kmax=cfg.kmax,
                                 shift=cfg.shift, sum_trick=cfg.sum_trick,
                                 store_snapshots=True)
    mean, var = angle_statistics(sys_.fem_op, sys_.aset, res.snapshots,
                                 npoints=cfg.angle_points, seed=cfg.seed)
    rows = []
    for k in range(len(res.snapshots)):
        inc = float("nan") if k == 0 else \
            float(res.history.max_increments[k - 1])
        rows.append([k, mean[k], var[k], inc, cfg.config_hash, __version__])
    _write_csv(outdir / "angles.csv",
               ["k", "theta_mean", "theta_var", "max_increment",
                "config_hash", "version"], rows)
    grid = np.linspace(-1.0, 1.0, cfg.crossing_points)
    count = max(cfg.q, 3)
    crows = []
    for y1 in grid:
        y = np.zeros(sys_.fem_op.nterms)
        y[0] = y1
        vals, _ = smallest_eigenpairs(sys_.fem_op.matrix_at(y), sys_.mass,
                                      count, tol=1e-11)
        crows.append([y1, *vals, cfg.config_hash, __version__])
    _write_csv(outdir / "crossing.csv",
               ["y1", *[f"lambda{i + 1}" for i in range(count)],
                "config_hash", "version"], crows)
    perm, _, _ = overlap_permutation(
        sys_.fem_op, [-1.0] + [0.0] * (sys_.fem_op.nterms - 1),
        [1.0] + [0.0] * (sys_.fem_op.nterms - 1), which=(1, 2))
    qvals, _ = smallest_eigenpairs(sys_.fem_op.stiffness[0], sys_.mass,
                                   cfg.q + 1, tol=1e-12)
    summary = {
        "sweep_endpoint_pairing": [int(p) for p in perm],
        "crossing_detected": bool(perm[0] == 1 and perm[1] == 0),
        "cluster_gap_ratio": float(qvals[cfg.q - 1] / qvals[cfg.q]),
        "converged": bool(res.converged),
    }
    return ["angles.csv", "crossing.csv"], summary


_RUNNERS = {
    "spatial": _run_spatial,
    "stochastic": _run_stochastic,
    "iteration": _run_iteration,
    "decay": _run_decay,
    "subspace": _run_subspace,
}


def run_experiment(config: ExperimentConfig, outdir=None):
    """Execute one study and write its CSVs plus manifest.

    Returns the output directory as a Path.  The manifest records the
    config, its hash, the package version, per-file sha256 digests, and a
    study-specific summary (fitted slopes with standard errors, detected
    crossings, and similar headline numbers).
    """
    if config.kind not in _RUNNERS:
        raise ValueError(f"kind {config.kind!r} is not runnable; use "
                         f"make_reference for reference artifacts")
    outdir = Path(config.output if outdir is None else outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    filenames, summary = _RUNNERS[config.kind](config, outdir)
    config.save(outdir / "config.json")
    _write_manifest(outdir, config, filenames + ["config.json"], summary)
    return outdir


def reference_config(n=32, order=2, set_size=120, kmax=16, tol=1e-12,
                     varsigma=3.2, shift=0.0, output="reference"):
    """Desk-scale overkill-reference defaults as a config."""
    return ExperimentConfig(kind="reference", n=n, order=order,
                            set_size=set_size, kmax=kmax, tol=tol,
                            varsigma=varsigma, shift=shift, output=output)


_REFERENCE_ARRAYS = ("field", "eigenvalue", "rayleigh")


def make_reference(config: ExperimentConfig = None, outdir=None, force=False):
    """Compute (or reuse) a stored overkill eigenpair expansion.

    Writes the coefficient arrays as plain .npy files (a timestamp-free
    format, so regeneration reproduces the exact bytes), the index set as
    text, config.json and manifest.json.  When the directory already holds
    a manifest with the same config hash and intact file digests, the
    stored artifact is reused untouched (pass force=True to recompute).
    """
    cfg = reference_config() if config is None else config
    if cfg.kind != "reference":
        raise ValueError("make_reference needs a config with "
                         "kind='reference'")
    outdir = Path(cfg.output if outdir is None else outdir)
    manifest_path = outdir / "manifest.json"
    if manifest_path.exists() and not force:
        stored = json.loads(manifest_path.read_text())
        if stored.get("config_hash") == cfg.config_hash and all(
                (outdir / name).exists() and _sha256(outdir / name) == digest
                for name, digest in stored["outputs"].items()):
            stored["reused"] = True
            return stored
    outdir.mkdir(parents=True, exist_ok=True)
    sys_ = _build(cfg)
    res = run_inverse_iteration(sys_, tol=cfg.tol, kmax=cfg.kmax,
                                shift=cfg.shift)
    arrays = {"field": res.U, "eigenvalue": res.eigenvalue,
              "rayleigh": res.rayleigh}
    for name in _REFERENCE_ARRAYS:
        np.save(outdir / f"{name}.npy", arrays[name])
    sys_.aset.save(outdir / "index_set.txt")
    cfg.save(outdir / "config.json")
    manifest = _write_manifest(
        outdir, cfg,
        [f"{name}.npy" for name in _REFERENCE_ARRAYS]
        + ["index_set.txt", "config.json"],
        {"eigenvalue_mean": res.eigenvalue_mean,
         "eigenvalue_variance": res.eigenvalue_variance,
         "set_size": len(sys_.aset),
         "steps": len(res.history),
         "converged": bool(res.converged)})
    manifest["reused"] = False
    return manifest


def load_reference(outdir):
    """Load a stored reference after verifying its manifest digests."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        actual = _sha256(outdir / name)
        if actual != digest:
            raise ValueError(f"reference file {name} does not match its "
                             f"manifest digest")
    arrays = {name: np.load(outdir / f"{name}.npy")
              for name in _REFERENCE_ARRAYS}
    return manifest, arrays


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def report(outdir):
    """Readable summary of a study directory; returns the text."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    kind = manifest["config"]["kind"]
    lines = [f"study: {kind}", f"config hash: {manifest['config_hash']}",
             f"version: {manifest['version']}"]
    summary = manifest.get("summary", {})
    for key in sorted(summary):
        lines.append(f"{key}: {summary[key]}")
    if kind == "spatial":
        for row in _read_csv(outdir / "spatial.csv"):
            lines.append(f"n={row['n']}: field error {row['field_error']}, "
                         f"eigenvalue error {row['eigenvalue_error']}")
    elif kind == "stochastic":
        for row in _read_csv(outdir / "stochastic.csv"):
            lines.append(f"#A={row['set_size']}: field error "
                         f"{row['field_error']}, eigenvalue error "
                         f"{row['eigenvalue_error']}")
    elif kind == "iteration":
        rows = _read_csv(outdir / "iteration.csv")
        first, last = rows[0], rows[-1]
        lines.append(f"steps: {len(rows)}")
        lines.append(f"increment: {first['increment']} -> "
                     f"{last['increment']}")
        lines.append(f"eigenvalue error: {first['eigenvalue_error']} -> "
                     f"{last['eigenvalue_error']}")
    elif kind == "subspace":
        rows = _read_csv(outdir / "angles.csv")
        lines.append(f"sweeps: {len(rows) - 1}")
        lines.append(f"theta mean: {rows[0]['theta_mean']} -> "
                     f"{rows[-1]['theta_mean']}")
        lines.append(f"theta var: {rows[1]['theta_var']} -> "
                     f"{rows[-1]['theta_var']}")
    elif kind == "decay":
        rows = _read_csv(outdir / "decay.csv")
        lines.append(f"coefficients: {len(rows)}")
        lines.append(f"leading magnitude: {rows[0]['field_coefficient']}")
    return "\n".join(lines)
