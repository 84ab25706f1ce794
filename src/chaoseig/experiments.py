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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fem import prolongation_1d
from .galerkin import build_system
from .inverse_iteration import run_inverse_iteration
from .subspace_iteration import initial_basis, run_subspace_iteration
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
        if self.seed < 0:
            raise ValueError(f"field seed must be a non-negative integer, "
                             f"got {self.seed!r}")
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
        return dataclasses.asdict(self)

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


def _write_csv(path, cfg, rows):
    """Write row dicts as CSV, one column per key in insertion order, and
    stamp every row with the config hash and the package version."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*rows[0], "config_hash", "version"])
        for row in rows:
            writer.writerow([*map(_fmt, row.values()), cfg.config_hash,
                             __version__])


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _build(cfg, n=None, size=None):
    return build_system(n=cfg.n if n is None else n, order=cfg.order,
                        size=cfg.set_size if size is None else size,
                        eps=cfg.eps if size is None else None,
                        varsigma=cfg.varsigma, max_terms=cfg.max_terms)


def _solve(cfg, system, **kw):
    """Inverse iteration at the config's tol and kmax, unless kw sets
    them."""
    return run_inverse_iteration(
        system, **{"tol": cfg.tol, "kmax": cfg.kmax, **kw})


def _stop(res):
    """How an inverse-iteration solve stopped: whether it met the stop
    tolerance, and its last increment."""
    return {"converged": bool(res.converged),
            "final_increment": float(res.history.max_increments[-1])}


def _aligned_field_error(U, U_ref):
    sign = 1.0 if np.sum(U * U_ref) >= 0.0 else -1.0
    return float(np.linalg.norm(sign * U - U_ref))


def _slope(rows, x, y, skip=0):
    return fit_slope([r[x] for r in rows], [r[y] for r in rows], skip=skip)


def _run_spatial(cfg):
    sizes = cfg.mesh_sizes or (4, 8, 16)
    for n in sizes:
        if n >= cfg.reference_n or cfg.reference_n % n != 0:
            raise ValueError(f"mesh size {n} is not nested strictly inside "
                             f"the reference mesh {cfg.reference_n}")
    ref_sys = _build(cfg, n=cfg.reference_n)
    ref = _solve(cfg, ref_sys)
    rows = []
    for n in sizes:
        sys_n = _build(cfg, n=n)
        res = _solve(cfg, sys_n)
        # coarse coordinates -> nodal values X -> P1 X P1^T on the
        # reference mesh -> its coordinates
        P1 = prolongation_1d(sys_n.mesh, ref_sys.mesh)
        nc = P1.shape[1]
        X = sys_n.fem_op.to_nodal(res.U).reshape(-1, nc, nc)
        U_pro = ref_sys.fem_op.to_spectral(
            (P1 @ X @ P1.T).reshape(len(res.U), -1))
        rows.append({
            "n": n, "h": sys_n.mesh.h, "ndof": sys_n.N,
            "steps": len(res.history), **_stop(res),
            "eigenvalue_mean": res.eigenvalue_mean,
            "field_error": _aligned_field_error(U_pro, ref.U),
            "eigenvalue_error": float(np.linalg.norm(res.eigenvalue
                                                     - ref.eigenvalue)),
            "eigenvalue_mean_error": abs(res.eigenvalue_mean
                                         - ref.eigenvalue_mean)})
    fslope, fse = _slope(rows, "h", "field_error")
    mslope, mse = _slope(rows, "h", "eigenvalue_error")
    summary = {
        "reference_n": cfg.reference_n,
        "reference_eigenvalue_mean": ref.eigenvalue_mean,
        **{f"reference_{k}": v for k, v in _stop(ref).items()},
        "field_slope": fslope, "field_slope_stderr": fse,
        "eigenvalue_slope": mslope, "eigenvalue_slope_stderr": mse,
    }
    return {"spatial.csv": rows}, summary


def _decay(res):
    """decay.csv rows of a converged pair, and the summary entries of the
    log-log slope over the tail of its field magnitudes."""
    aset = res.system.aset
    frep = coefficient_decay(aset, res.U)
    mrep = coefficient_decay(aset, res.eigenvalue)
    rows = [{"rank": i + 1, "weight": aset.weights[i],
             "field_coefficient": frep["magnitudes"][i],
             "mu_coefficient": mrep["magnitudes"][i],
             "field_coefficient_sorted": frep["sorted"][i],
             "mu_coefficient_sorted": mrep["sorted"][i]}
            for i in range(len(aset))]
    skip = max(1, len(rows) // 4)
    tslope, tse = _slope(rows, "rank", "field_coefficient", skip=skip)
    return rows, {"tail_slope": tslope, "tail_slope_stderr": tse,
                  "tail_skip": skip}


def _run_stochastic(cfg):
    sizes = cfg.set_sizes or (8, 15, 31, 60, 120)
    for size in sizes:
        if size >= cfg.reference_size:
            raise ValueError(f"set size {size} is not below the reference "
                             f"size {cfg.reference_size}")
    ref_sys = _build(cfg, size=cfg.reference_size)
    ref = _solve(cfg, ref_sys)
    rows = []
    for size in sizes:
        sys_s = _build(cfg, size=size)
        res = _solve(cfg, sys_s)
        # each member is a prefix of the reference's canonical order
        if sys_s.aset.indices != ref_sys.aset.indices[:size]:
            raise RuntimeError("sweep set is not nested in the reference "
                               "set; refinement monotonicity is broken")
        # the member zero-padded to the reference set: the errors include
        # the reference's coefficients the truncation drops
        sign = 1.0 if float(res.U[0] @ ref.U[0]) >= 0.0 else -1.0
        U_embed = np.zeros_like(ref.U)
        U_embed[:size] = sign * res.U
        mu_embed = np.zeros_like(ref.eigenvalue)
        mu_embed[:size] = res.eigenvalue
        rows.append({
            "set_size": size, "eps": sys_s.aset.eps,
            "max_dimension": sys_s.aset.max_dimension,
            "steps": len(res.history), **_stop(res),
            "eigenvalue_mean": res.eigenvalue_mean,
            "field_error": float(np.linalg.norm(U_embed - ref.U)),
            "eigenvalue_error": float(np.linalg.norm(mu_embed
                                                     - ref.eigenvalue))})
    eslope, ese = _slope(rows, "set_size", "field_error")
    decay_rows, decay_summary = _decay(ref)
    summary = {
        "reference_size": cfg.reference_size,
        "reference_eigenvalue_mean": ref.eigenvalue_mean,
        **{f"reference_{k}": v for k, v in _stop(ref).items()},
        "error_slope": eslope, "error_slope_stderr": ese, **decay_summary,
    }
    return {"stochastic.csv": rows, "decay.csv": decay_rows}, summary


def _run_iteration(cfg):
    sys_ = _build(cfg)
    # the paper's contraction is measured from the mean mode, not from the
    # solver's default, perturbed start
    start = initial_basis(sys_, 1)[:, :, 0]
    target = _solve(cfg, sys_, tol=1e-13, kmax=cfg.kmax_reference,
                    initial=start)
    res = _solve(cfg, sys_, store_snapshots=True, initial=start)
    h = res.history
    changes = np.append(np.nan, np.abs(np.diff(h.eigenvalue_means)))
    rows = [{
        "k": k + 1, "increment": h.increments[k, 0],
        "eigenvalue_mean": h.eigenvalue_means[k],
        "eigenvalue_change": changes[k],
        "eigenvalue_error": abs(h.eigenvalue_means[k]
                                - target.eigenvalue_mean),
        "field_error": _aligned_field_error(res.snapshots[k + 1][:, :, 0],
                                            target.U),
        "cg_iterations": int(h.cg_iterations[k, 0]),
        "cg_tolerance": h.cg_tolerances[k],
        "newton_iterations": int(h.newton_iterations[k])}
        for k in range(len(h))]
    vals, _ = sys_.fem_op.mean_eigenpairs(2)
    summary = {
        "target_eigenvalue_mean": target.eigenvalue_mean,
        "target_converged": bool(target.converged),
        "study_converged": bool(res.converged),
        "mean_gap_ratio": float(vals[0] / vals[1]),
    }
    return {"iteration.csv": rows}, summary


def _run_decay(cfg):
    res = _solve(cfg, _build(cfg))
    rows, summary = _decay(res)
    return {"decay.csv": rows}, {"eigenvalue_mean": res.eigenvalue_mean,
                                 **summary}


def _run_subspace(cfg):
    sys_ = _build(cfg)
    res = run_subspace_iteration(sys_, q=cfg.q, tol=cfg.tol, kmax=cfg.kmax,
                                 sum_trick=cfg.sum_trick, store_snapshots=True)
    mean, var = angle_statistics(sys_.fem_op, sys_.aset, res.snapshots,
                                 npoints=cfg.angle_points, seed=cfg.seed)
    increments = [float("nan"), *map(float, res.history.max_increments)]
    angles = [{"k": k, "theta_mean": mean[k], "theta_var": var[k],
               "max_increment": increments[k]}
              for k in range(len(res.snapshots))]
    grid = np.linspace(-1.0, 1.0, cfg.crossing_points)
    vals, _ = pointwise_eigenpairs(sys_.fem_op, grid[:, None],
                                   max(cfg.q, 3), tol=1e-11)
    crossing = [{"y1": y1, **{f"lambda{i + 1}": v_i
                              for i, v_i in enumerate(v)}}
                for y1, v in zip(grid, vals)]
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
    return {"angles.csv": angles, "crossing.csv": crossing}, summary


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
    tables, summary = _RUNNERS[config.kind](config)
    outdir = Path(config.output if outdir is None else outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        _write_csv(outdir / name, config, rows)
    config.save(outdir / "config.json")
    manifest = {
        "config": config.to_dict(),
        "config_hash": config.config_hash,
        "version": __version__,
        "outputs": {name: hashlib.sha256((outdir / name).read_bytes())
                    .hexdigest() for name in [*tables, "config.json"]},
        "summary": _json_safe(summary),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return outdir


def report(outdir):
    """Readable summary of a study directory; returns the text.

    After the header and the summary comes each CSV the manifest lists:
    its row count, then the first and last value of every column but the
    config hash and version stamps.
    """
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    summary = manifest.get("summary", {})
    lines = [f"study: {manifest['config']['kind']}",
             f"config hash: {manifest['config_hash']}",
             f"version: {manifest['version']}",
             *(f"{key}: {summary[key]}" for key in sorted(summary))]
    for name in manifest["outputs"]:
        if name.endswith(".csv"):
            with open(outdir / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            lines.append(f"{name}: {len(rows)} rows")
            lines += [f"  {col}: {rows[0][col]} -> {rows[-1][col]}"
                      for col in rows[0] if col not in ("config_hash",
                                                        "version")]
    return "\n".join(lines)
