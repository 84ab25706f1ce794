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
from chaoseig import __version__
from chaoseig.cli import main
from chaoseig.experiments import (
    ExperimentConfig,
    fit_slope,
    load_reference,
    make_reference,
    reference_config,
    report,
    run_experiment,
)


def tiny_config(kind, output, **kw):
    base = dict(kind=kind, n=4, order=1, set_size=6, tol=1e-9, kmax=6,
                kmax_reference=10, output=str(output))
    base.update(kw)
    return ExperimentConfig(**base)


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

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig.from_dict({"n": 4})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            ExperimentConfig(kind="frobnicate")

    def test_set_size_and_eps_exclusive(self):
        with pytest.raises(ValueError, match="at most one"):
            ExperimentConfig(kind="iteration", set_size=10, eps=1e-2)

    def test_default_basis_size(self):
        cfg = ExperimentConfig(kind="iteration")
        assert cfg.set_size == 31 and cfg.eps is None

    def test_positivity_diagnostics_name_the_field(self):
        with pytest.raises(ValueError, match="field kmax must be positive"):
            ExperimentConfig(kind="iteration", kmax=0)

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
        # same configured output field, two physical directories
        cfg_a = tiny_config("iteration", "results")
        cfg_b = tiny_config("iteration", "results")
        out_a = run_experiment(cfg_a, outdir=tmp_path / "a")
        out_b = run_experiment(cfg_b, outdir=tmp_path / "b")
        for name in ("iteration.csv", "config.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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


class TestMakeReference:
    def small_reference(self, output):
        return reference_config(n=4, order=1, set_size=6, kmax=5, tol=1e-10,
                                output=str(output))

    def test_compute_then_reuse(self, tmp_path):
        cfg = self.small_reference(tmp_path / "ref")
        first = make_reference(cfg)
        assert first["reused"] is False
        again = make_reference(cfg)
        assert again["reused"] is True
        assert again["outputs"] == first["outputs"]

    def test_forced_regeneration_reproduces_digests(self, tmp_path):
        cfg = self.small_reference(tmp_path / "ref")
        first = make_reference(cfg)
        redo = make_reference(cfg, force=True)
        assert redo["reused"] is False
        assert redo["outputs"] == first["outputs"]

    def test_load_checks_digests(self, tmp_path):
        cfg = self.small_reference(tmp_path / "ref")
        make_reference(cfg)
        manifest, arrays = load_reference(tmp_path / "ref")
        assert arrays["field"].shape == (6, 9)
        assert arrays["eigenvalue"].shape == (6,)
        assert manifest["summary"]["set_size"] == 6
        (tmp_path / "ref" / "field.npy").write_bytes(b"corrupt")
        with pytest.raises(ValueError, match="does not match"):
            load_reference(tmp_path / "ref")

    def test_config_change_triggers_recompute(self, tmp_path):
        cfg = self.small_reference(tmp_path / "ref")
        make_reference(cfg)
        bigger = reference_config(n=4, order=1, set_size=8, kmax=5,
                                  tol=1e-10, output=str(tmp_path / "ref"))
        redo = make_reference(bigger)
        assert redo["reused"] is False
        assert redo["summary"]["set_size"] == 8

    def test_kind_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind='reference'"):
            make_reference(tiny_config("iteration", tmp_path / "x"))
        with pytest.raises(ValueError, match="not runnable"):
            run_experiment(self.small_reference(tmp_path / "x"))


class TestReport:
    def test_iteration_report_text(self, tmp_path):
        cfg = tiny_config("iteration", tmp_path / "it")
        outdir = run_experiment(cfg)
        text = report(outdir)
        assert "study: iteration" in text
        assert f"config hash: {cfg.config_hash}" in text
        assert "increment:" in text


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

    def test_reference_verb_reuses(self, tmp_path, capsys):
        argv = ["reference", "--output", str(tmp_path / "ref"), "--n", "4",
                "--order", "1", "--set-size", "6", "--kmax", "5"]
        assert main(argv) == 0
        assert "computed reference" in capsys.readouterr().out
        assert main(argv) == 0
        assert "reused reference" in capsys.readouterr().out

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "iteration", "bogus": 1}))
        assert main(["run", str(bad)]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err
