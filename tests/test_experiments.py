"""Study drivers: config handling, determinism, artifacts, CLI verbs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaoseig
from chaoseig import __version__, experiments
from chaoseig.cli import main
from chaoseig.experiments import (
    ExperimentConfig,
    fit_slope,
    report,
    run_experiment,
)


def tiny_config(kind, output, **kw):
    base = dict(kind=kind, n=4, order=1, set_size=6, tol=1e-9, kmax=6,
                kmax_reference=10, output=str(output))
    base.update(kw)
    return ExperimentConfig(**base)


# the tiny study of each kind that the tests below run
TINY_STUDIES = {
    "iteration": {},
    "spatial": dict(kmax=8, mesh_sizes=(2, 4), reference_n=8),
    "stochastic": dict(kmax=8, set_sizes=(4, 8), reference_size=16),
    "decay": {},
    "subspace": dict(q=2, kmax=3, angle_points=8, crossing_points=5),
}


def run_tiny(kind, tmp_path):
    cfg = tiny_config(kind, tmp_path / kind, **TINY_STUDIES[kind])
    return cfg, run_experiment(cfg)


def read_rows(path):
    import csv
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config("iteration", "out", eps=None)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash == cfg.config_hash

    def test_hash_ignores_key_order(self):
        cfg = tiny_config("iteration", "out")
        scrambled = json.dumps(dict(reversed(list(cfg.to_dict().items()))))
        assert ExperimentConfig.from_json(scrambled).config_hash \
            == cfg.config_hash

    def test_hash_sensitive_to_fields(self):
        a = tiny_config("iteration", "out")
        b = tiny_config("iteration", "out", n=8)
        assert a.config_hash != b.config_hash

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields: nn"):
            ExperimentConfig.from_dict({"kind": "iteration", "nn": 4})

    def test_shift_is_no_field(self):
        # the spectral shift moved the fixed point and is gone: a config
        # that still sets it fails instead of silently running unshifted
        with pytest.raises(ValueError, match="unknown config fields: shift"):
            ExperimentConfig.from_dict({"kind": "iteration", "shift": 0.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig.from_dict({"n": 4})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            ExperimentConfig(kind="frobnicate")

    def test_reference_is_not_a_kind(self):
        with pytest.raises(ValueError, match="kind must be one of") as err:
            ExperimentConfig(kind="reference")
        for kind in ("spatial", "stochastic", "iteration", "decay",
                     "subspace"):
            assert repr(kind) in str(err.value)

    def test_set_size_and_eps_exclusive(self):
        with pytest.raises(ValueError, match="at most one"):
            ExperimentConfig(kind="iteration", set_size=10, eps=1e-2)

    def test_default_basis_size(self):
        cfg = ExperimentConfig(kind="iteration")
        assert cfg.set_size == 31 and cfg.eps is None

    def test_positivity_diagnostics_name_the_field(self):
        with pytest.raises(ValueError, match="field kmax must be positive"):
            ExperimentConfig(kind="iteration", kmax=0)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="field seed must be a "
                                             "non-negative integer, got -1"):
            ExperimentConfig(kind="subspace", seed=-1)
        assert ExperimentConfig(kind="subspace", seed=0).seed == 0

    def test_max_terms_must_be_positive(self):
        with pytest.raises(ValueError, match="field max_terms must be positive"):
            ExperimentConfig(kind="iteration", max_terms=0)

    def test_max_terms_run_produces_artifacts(self, tmp_path):
        cfg = tiny_config("iteration", tmp_path / "capped", max_terms=2)
        outdir = run_experiment(cfg)
        rows = read_rows(outdir / "iteration.csv")
        assert len(rows) >= 1
        stored = json.loads((outdir / "config.json").read_text())
        assert stored["max_terms"] == 2


class TestFitSlope:
    def test_recovers_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        slope, se = fit_slope(x, x ** -2.4)
        assert abs(slope + 2.4) < 1e-12
        assert se < 1e-10

    def test_two_points_have_no_stderr(self):
        slope, se = fit_slope([1.0, 2.0], [1.0, 8.0])
        assert abs(slope - 3.0) < 1e-12
        assert np.isnan(se)

    def test_skip_drops_preasymptotic_head(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([5.0, 1.0, 0.25, 0.0625])
        slope, _ = fit_slope(x, y, skip=1)
        assert abs(slope + 2.0) < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            fit_slope([1.0], [1.0])


class TestIterationStudy:
    def test_artifacts_and_row_provenance(self, tmp_path):
        cfg = tiny_config("iteration", tmp_path / "it")
        outdir = run_experiment(cfg)
        for name in ("iteration.csv", "config.json", "manifest.json"):
            assert (outdir / name).exists()
        rows = read_rows(outdir / "iteration.csv")
        assert 1 <= len(rows) <= cfg.kmax
        for row in rows:
            assert row["config_hash"] == cfg.config_hash
            assert row["version"] == __version__
        assert float(rows[-1]["increment"]) < float(rows[0]["increment"])

    def test_eigenvalue_changes_follow_the_means(self, tmp_path):
        # one change per sweep; the first has no previous mean to compare
        rows = read_rows(run_experiment(tiny_config(
            "iteration", tmp_path / "it")) / "iteration.csv")
        assert len(rows) >= 2
        means = [float(r["eigenvalue_mean"]) for r in rows]
        changes = [float(r["eigenvalue_change"]) for r in rows]
        assert np.isnan(changes[0])
        assert changes[1:] == [abs(b - a) for a, b in zip(means, means[1:])]

    def test_manifest_digests_match_files(self, tmp_path):
        cfg = tiny_config("iteration", tmp_path / "it")
        outdir = run_experiment(cfg)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash
        assert manifest["version"] == __version__
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_identical_config_gives_identical_bytes(self, tmp_path):
        # each config runs into two physical directories, once with the
        # same configured output field and once with two different ones:
        # the hash describes the computation, not where its files go, so
        # the CSV rows that carry it match byte for byte
        cases = [("results", "results",
                  ("iteration.csv", "config.json", "manifest.json")),
                 ("a", "b", ("iteration.csv",))]
        for k, (output_a, output_b, names) in enumerate(cases):
            cfg_a = tiny_config("iteration", output_a)
            cfg_b = tiny_config("iteration", output_b)
            assert cfg_a.config_hash == cfg_b.config_hash
            out_a = run_experiment(cfg_a, outdir=tmp_path / f"{k}a")
            out_b = run_experiment(cfg_b, outdir=tmp_path / f"{k}b")
            for name in names:
                assert (out_a / name).read_bytes() == \
                    (out_b / name).read_bytes()


class TestSpatialStudy:
    def test_errors_shrink_under_refinement(self, tmp_path):
        cfg = tiny_config("spatial", tmp_path / "sp", kmax=8,
                          mesh_sizes=(2, 4), reference_n=8)
        outdir = run_experiment(cfg)
        rows = read_rows(outdir / "spatial.csv")
        assert [int(r["n"]) for r in rows] == [2, 4]
        ferr = [float(r["field_error"]) for r in rows]
        merr = [float(r["eigenvalue_error"]) for r in rows]
        assert ferr[1] < ferr[0] and merr[1] < merr[0]
        summary = json.loads((outdir / "manifest.json").read_text())["summary"]
        assert summary["field_slope"] > 0.5
        assert summary["eigenvalue_slope"] > 0.5

    def test_non_nested_mesh_rejected(self, tmp_path):
        cfg = tiny_config("spatial", tmp_path / "sp", mesh_sizes=(3,),
                          reference_n=8)
        with pytest.raises(ValueError, match="not nested"):
            run_experiment(cfg)

    def test_reference_mesh_in_sweep_rejected(self, tmp_path, monkeypatch):
        # a member equal to the reference has zero error and no slope
        monkeypatch.setattr(experiments, "run_inverse_iteration", None)
        cfg = tiny_config("spatial", tmp_path / "sp", mesh_sizes=(2, 4),
                          reference_n=4)
        with pytest.raises(ValueError, match="mesh size 4 is not nested"):
            run_experiment(cfg)


class TestStochasticStudy:
    def test_errors_shrink_with_set_size(self, tmp_path):
        cfg = tiny_config("stochastic", tmp_path / "st", kmax=8,
                          set_sizes=(4, 8), reference_size=16)
        outdir = run_experiment(cfg)
        rows = read_rows(outdir / "stochastic.csv")
        assert [int(r["set_size"]) for r in rows] == [4, 8]
        ferr = [float(r["field_error"]) for r in rows]
        assert ferr[1] < ferr[0]
        decay = read_rows(outdir / "decay.csv")
        assert len(decay) == 16
        summary = json.loads((outdir / "manifest.json").read_text())["summary"]
        assert summary["error_slope"] < 0.0
        assert summary["tail_slope"] < 0.0

    def test_reference_size_in_sweep_rejected(self, tmp_path, monkeypatch):
        # rejected before the reference solve, which would give error 0
        monkeypatch.setattr(experiments, "run_inverse_iteration", None)
        cfg = tiny_config("stochastic", tmp_path / "st", set_sizes=(5, 8),
                          reference_size=8)
        with pytest.raises(ValueError, match="set size 8 is not below the "
                                             "reference size 8"):
            run_experiment(cfg)


class TestDecayStudy:
    def test_sorted_column_is_nonincreasing(self, tmp_path):
        cfg = tiny_config("decay", tmp_path / "dc")
        outdir = run_experiment(cfg)
        rows = read_rows(outdir / "decay.csv")
        assert len(rows) == 6
        ordered = [float(r["field_coefficient_sorted"]) for r in rows]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert float(rows[0]["field_coefficient"]) == ordered[0]


class TestSubspaceStudy:
    def test_angle_and_crossing_outputs(self, tmp_path):
        cfg = tiny_config("subspace", tmp_path / "sub", q=2, kmax=3,
                          angle_points=8, crossing_points=5)
        outdir = run_experiment(cfg)
        angles = read_rows(outdir / "angles.csv")
        assert len(angles) == 4 and angles[0]["max_increment"] == "nan"
        for row in angles:
            assert 0.0 <= float(row["theta_mean"]) <= 1.0 + 1e-12
        crossing = read_rows(outdir / "crossing.csv")
        assert len(crossing) == 5
        assert set(crossing[0]) >= {"y1", "lambda1", "lambda2", "lambda3"}
        lam = [(float(r["lambda1"]), float(r["lambda2"])) for r in crossing]
        assert all(a <= b for a, b in lam)
        summary = json.loads((outdir / "manifest.json").read_text())["summary"]
        assert summary["sweep_endpoint_pairing"] == [1, 0]
        assert summary["crossing_detected"] is True


class TestReport:
    @pytest.mark.parametrize("kind", TINY_STUDIES)
    def test_report_text(self, tmp_path, kind):
        cfg, outdir = run_tiny(kind, tmp_path)
        text = report(outdir)
        assert f"study: {kind}" in text
        assert f"config hash: {cfg.config_hash}" in text
        manifest = json.loads((outdir / "manifest.json").read_text())
        tables = [name for name in manifest["outputs"]
                  if name.endswith(".csv")]
        assert tables
        for name in tables:
            assert f"{name}: {len(read_rows(outdir / name))} rows" in text
        if kind == "iteration":
            assert "increment:" in text


class TestCsvColumns:
    """The exact header row of every CSV a study writes."""

    HEADERS = {
        "iteration.csv": "k,increment,eigenvalue_mean,eigenvalue_change,"
                         "eigenvalue_error,field_error,cg_iterations,"
                         "cg_tolerance,newton_iterations",
        "spatial.csv": "n,h,ndof,steps,converged,final_increment,"
                       "eigenvalue_mean,field_error,eigenvalue_error,"
                       "eigenvalue_mean_error",
        "stochastic.csv": "set_size,eps,max_dimension,steps,converged,"
                          "final_increment,eigenvalue_mean,field_error,"
                          "eigenvalue_error",
        "decay.csv": "rank,weight,field_coefficient,mu_coefficient,"
                     "field_coefficient_sorted,mu_coefficient_sorted",
        "angles.csv": "k,theta_mean,theta_var,max_increment",
        "crossing.csv": "y1,lambda1,lambda2,lambda3",
    }
    TABLES = {"iteration": ["iteration.csv"], "spatial": ["spatial.csv"],
              "stochastic": ["decay.csv", "stochastic.csv"],
              "decay": ["decay.csv"],
              "subspace": ["angles.csv", "crossing.csv"]}

    @pytest.mark.parametrize("kind", TINY_STUDIES)
    def test_header_rows(self, tmp_path, kind):
        _, outdir = run_tiny(kind, tmp_path)
        assert sorted(p.name for p in outdir.glob("*.csv")) == \
            self.TABLES[kind]
        for name in self.TABLES[kind]:
            header = (outdir / name).read_text().splitlines()[0]
            assert header == self.HEADERS[name] + ",config_hash,version"


class TestDeterminismContract:
    """Study bytes are identical per machine and BLAS thread count.

    Kernels built on BLAS (batched matmuls, dense factorizations) may round
    differently at another thread count, so the contract is checked between
    two fresh processes with the same setting.
    """

    @staticmethod
    def digests(workdir, cfg_path, threads):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env.pop(var, None)
            if threads is not None:
                env[var] = threads
        src = str(Path(chaoseig.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        workdir.mkdir()
        subprocess.run([sys.executable, "-m", "chaoseig", "run",
                        str(cfg_path)], cwd=workdir, env=env, check=True,
                       capture_output=True, timeout=300)
        manifest = json.loads((workdir / "results" / "manifest.json")
                              .read_text())
        return manifest["outputs"]

    @pytest.mark.parametrize("threads", ["1", None], ids=["one", "default"])
    def test_same_thread_count_gives_same_digests(self, tmp_path, threads):
        cfg = tiny_config("iteration", "results", n=8, order=2, set_size=20)
        cfg_path = tmp_path / "config.json"
        cfg.save(cfg_path)
        first = self.digests(tmp_path / "a", cfg_path, threads)
        assert first
        assert self.digests(tmp_path / "b", cfg_path, threads) == first


class TestCli:
    def test_run_and_report_verbs(self, tmp_path, capsys):
        cfg = tiny_config("iteration", tmp_path / "it")
        cfg_path = tmp_path / "config.json"
        cfg.save(cfg_path)
        assert main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "study: iteration" in out
        assert main(["report", str(tmp_path / "it")]) == 0
        assert "config hash" in capsys.readouterr().out

    def test_reference_verb_is_gone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["reference"])
        assert exc.value.code == 2
        assert "invalid choice: 'reference'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "iteration", "bogus": 1}))
        assert main(["run", str(bad)]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ([1], "config must be a JSON object, got list"),
        (1, "config must be a JSON object, got int"),
        ({"kind": "iteration", "n": "8"}, "field n must be of type int"),
        ({"kind": "iteration", "mesh_sizes": 4},
         "field mesh_sizes must be of type tuple"),
        ({"kind": "iteration", "sum_trick": 1},
         "field sum_trick must be of type bool"),
        ({"kind": "iteration", "kmax": True},
         "field kmax must be of type int"),
        ({"kind": "spatial", "mesh_sizes": [None]},
         "field mesh_sizes must be positive"),
        ({"kind": "spatial", "mesh_sizes": [0]},
         "field mesh_sizes must be positive"),
    ], ids=["list", "number", "string-n", "scalar-mesh-sizes", "int-flag",
            "bool-count", "null-mesh-size", "zero-mesh-size"])
    def test_malformed_config_is_a_clean_error(self, tmp_path, monkeypatch,
                                               capsys, data, message):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_oversized_set_is_a_clean_error(self, tmp_path, capsys):
        cfg = tiny_config("stochastic", tmp_path / "st", set_sizes=(20,),
                          reference_size=15)
        cfg.save(tmp_path / "config.json")
        assert main(["run", str(tmp_path / "config.json")]) == 2
        assert ("set size 20 is not below the reference size 15"
                in capsys.readouterr().err)

    def test_oversized_dimension_count_is_a_clean_error(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "decay.json"
        bad.write_text(json.dumps({"kind": "decay", "eps": 1e-6,
                                   "varsigma": 1.5,
                                   "output": str(tmp_path / "dc")}))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "limit of 100000" in err
        assert not (tmp_path / "dc").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err
