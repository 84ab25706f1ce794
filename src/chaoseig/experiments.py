"""Declarative study drivers: convergence sweeps, decay reports, manifests.

Each study kind reproduces one numerical experiment end to end from a
serializable config: spatial mesh sweep, stochastic index-set sweep,
iteration-convergence run, coefficient-decay report, subspace-angle study.
Outputs are CSV files plus a JSON manifest with per-file content hashes.
Runs are deterministic per machine and BLAS thread count: on one machine,
with the same thread setting, a config (with its seed) maps to identical
output bytes.  Another thread count may round BLAS kernels differently and
change the last bits.  Every CSV row carries the config hash, a digest of
every field but `output`, and the package version, and sweep members
execute in a fixed order.  Field errors and magnitudes are taken on the
solvers' mean-eigenbasis coordinates, where the tensor norm is the
Frobenius norm.
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
from .fem import prolongation_1d
from .galerkin import build_system
from .inverse_iteration import run_inverse_iteration
from .subspace_iteration import run_subspace_iteration
from .validation import (
    angle_statistics,
    coefficient_decay,
    overlap_permutation,
    pointwise_eigenpairs,
)

__all__ = [
    "KINDS",
    "ExperimentConfig",
    "fit_slope",
    "run_experiment",
    "report",
]

# the JSON values each field annotation of ExperimentConfig admits
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool,
                "tuple": (list, tuple)}


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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if isinstance(value, bool) != (f.type == "bool") or \
                    not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"field {f.name} must be of type {f.type}, "
                                 f"got {value!r}")
            # counts and sizes: every int but the seed, every list entry
            counts = value if f.type == "tuple" else \
                [value] if f.type == "int" and f.name != "seed" else []
            if not all(type(v) is int and v >= 1 for v in counts):
                raise ValueError(f"field {f.name} must be positive: integers "
                                 f">= 1, got {value!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got "
                             f"{self.kind!r}")
        if self.set_size is not None and self.eps is not None:
            raise ValueError("give at most one of set_size and eps")
        if self.set_size is None and self.eps is None:
            self.set_size = 31
        self.mesh_sizes = tuple(self.mesh_sizes)
        self.set_sizes = tuple(self.set_sizes)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["mesh_sizes"] = list(self.mesh_sizes)
        d["set_sizes"] = list(self.set_sizes)
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got "
                             f"{type(data).__name__}")
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
        """Short digest of the computation the config describes: every
        field but `output`, which only says where the files go."""
        fields = self.to_dict()
        del fields["output"]
        payload = json.dumps(fields, sort_keys=True)
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


def _build(cfg, n=None, size=None):
    return build_system(n=cfg.n if n is None else n, order=cfg.order,
                        size=cfg.set_size if size is None else size,
                        eps=cfg.eps if size is None else None,
                        varsigma=cfg.varsigma, max_terms=cfg.max_terms)


def _aligned_field_error(U, U_ref):
    sign = 1.0 if np.sum(U * U_ref) >= 0.0 else -1.0
    return float(np.linalg.norm(sign * U - U_ref))


def _run_spatial(cfg, outdir):
    sizes = cfg.mesh_sizes or (4, 8, 16)
    for n in sizes:
        if n >= cfg.reference_n or cfg.reference_n % n != 0:
            raise ValueError(f"mesh size {n} is not nested strictly inside "
                             f"the reference mesh {cfg.reference_n}")
    ref_sys = _build(cfg, n=cfg.reference_n)
    ref = run_inverse_iteration(ref_sys, tol=cfg.tol, kmax=cfg.kmax,
                                shift=cfg.shift)
    rows = []
    hs = []
    field_errors = []
    mu_errors = []
    for n in sizes:
        sys_n = _build(cfg, n=n)
        res = run_inverse_iteration(sys_n, tol=cfg.tol, kmax=cfg.kmax,
                                    shift=cfg.shift)
        # coarse coordinates -> nodal values X -> P1 X P1^T on the
        # reference mesh -> its coordinates
        P1 = prolongation_1d(sys_n.mesh, ref_sys.mesh)
        nc = P1.shape[1]
        X = sys_n.fem_op.to_nodal(res.U).reshape(-1, nc, nc)
        U_pro = ref_sys.fem_op.to_spectral(
            (P1 @ X @ P1.T).reshape(len(res.U), -1))
        ferr = _aligned_field_error(U_pro, ref.U)
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


def _write_decay(cfg, outdir, res):
    """Write decay.csv for a converged pair; returns the summary entries
    of the log-log slope over the tail of its field magnitudes."""
    aset = res.system.aset
    frep = coefficient_decay(aset, res.U)
    mrep = coefficient_decay(aset, res.eigenvalue)
    rows = [[i + 1, aset.weights[i], frep["magnitudes"][i],
             mrep["magnitudes"][i], frep["sorted"][i], mrep["sorted"][i],
             cfg.config_hash, __version__] for i in range(len(aset))]
    _write_csv(outdir / "decay.csv",
               ["rank", "weight", "field_coefficient", "mu_coefficient",
                "field_coefficient_sorted", "mu_coefficient_sorted",
                "config_hash", "version"], rows)
    mags = frep["magnitudes"]
    skip = max(1, len(mags) // 4)
    tslope, tse = fit_slope(np.arange(1, len(mags) + 1), mags, skip=skip)
    return {"tail_slope": tslope, "tail_slope_stderr": tse,
            "tail_skip": skip}


def _run_stochastic(cfg, outdir):
    sizes = cfg.set_sizes or (8, 15, 31, 60, 120)
    for size in sizes:
        if size >= cfg.reference_size:
            raise ValueError(f"set size {size} is not below the reference "
                             f"size {cfg.reference_size}")
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
        sign = 1.0 if float(res.U[0] @ ref.U[0]) >= 0.0 else -1.0
        U_embed = ref.U.copy()
        U_embed[positions] = sign * res.U
        mu_embed = ref.eigenvalue.copy()
        mu_embed[positions] = res.eigenvalue
        ferr = float(np.linalg.norm(U_embed - ref.U))
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
    eslope, ese = fit_slope(cards, field_errors)
    summary = {
        "reference_size": cfg.reference_size,
        "reference_eigenvalue_mean": ref.eigenvalue_mean,
        "error_slope": eslope, "error_slope_stderr": ese,
        **_write_decay(cfg, outdir, ref),
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
            _aligned_field_error(U_k, target.U),
            int(h.cg_iterations[k]), h.cg_tolerances[k],
            int(h.newton_iterations[k]), cfg.config_hash, __version__])
    _write_csv(outdir / "iteration.csv",
               ["k", "increment", "eigenvalue_mean", "eigenvalue_change",
                "eigenvalue_error", "field_error", "cg_iterations",
                "cg_tolerance", "newton_iterations", "config_hash",
                "version"], rows)
    vals, _ = sys_.fem_op.mean_eigenpairs(2)
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
    summary = {"eigenvalue_mean": res.eigenvalue_mean,
               **_write_decay(cfg, outdir, res)}
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
    vals, _ = pointwise_eigenpairs(sys_.fem_op, grid[:, None], count,
                                   tol=1e-11)
    crows = [[y1, *v, cfg.config_hash, __version__]
             for y1, v in zip(grid, vals)]
    _write_csv(outdir / "crossing.csv",
               ["y1", *[f"lambda{i + 1}" for i in range(count)],
                "config_hash", "version"], crows)
    perm, _, _ = overlap_permutation(
        sys_.fem_op, [-1.0] + [0.0] * (sys_.fem_op.nterms - 1),
        [1.0] + [0.0] * (sys_.fem_op.nterms - 1))
    qvals, _ = sys_.fem_op.mean_eigenpairs(cfg.q + 1)
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

KINDS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig, outdir=None):
    """Execute one study and write its CSVs plus manifest.

    Returns the output directory as a Path.  The manifest records the
    config, its hash, the package version, per-file sha256 digests, and a
    study-specific summary (fitted slopes with standard errors, detected
    crossings, and similar headline numbers).
    """
    outdir = Path(config.output if outdir is None else outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    filenames, summary = _RUNNERS[config.kind](config, outdir)
    config.save(outdir / "config.json")
    _write_manifest(outdir, config, filenames + ["config.json"], summary)
    return outdir


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
