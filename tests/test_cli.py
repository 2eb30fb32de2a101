import ast
import json
import logging
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcbound import cli as cli_module
from qcbound.cli import main
from qcbound.level_stats import UnfoldingError

from oracles import mean_bipartite_Q


def run_cli(args):
    return main(args)


class TestCheckCommand:
    def test_writes_outputs_and_schema(self, tmp_path, capsys):
        out = tmp_path / "r1"
        code = run_cli(
            ["check", "--model", "B", "--qubits", "2", "--samples", "50",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        records = (out / "records.csv").read_text().splitlines()
        assert records[0] == "sample_seed,dq_abs,k0,b,b_prime,delta"
        assert len(records) == 51
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations_b"] == 0
        assert summary["samples_recorded"] == 50
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert "records.csv" in manifest["outputs"]
        assert "PCG64" in manifest["rng_algorithm"]

    def test_zero_samples_is_validation_error(self, tmp_path):
        code = run_cli(["check", "--model", "B", "--samples", "0", "--out", str(tmp_path)])
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(
                ["check", "--model", "C", "--ensemble", "GOE", "--samples", "30",
                 "--seed", "7", "--out", str(out)]
            ) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        run_cli(["check", "--model", "B", "--samples", "30", "--seed", "3",
                 "--out", str(out1), "--threads", "1"])
        run_cli(["check", "--model", "B", "--samples", "30", "--seed", "3",
                 "--out", str(out2), "--threads", "4"])
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_records_are_the_result_in_17_digits(self, tmp_path, monkeypatch):
        import qcbound.cli as cli_mod

        real, results = cli_mod.scatter_bound_test, []
        monkeypatch.setattr(cli_mod, "scatter_bound_test",
                            lambda *a, **k: results.append(real(*a, **k)) or results[-1])
        out = tmp_path / "r"
        assert run_cli(["check", "--model", "C", "--ensemble", "GOE", "--samples", "40",
                        "--seed", "2", "--out", str(out)]) == 0
        [res] = results
        lines = (out / "records.csv").read_text().splitlines()[1:]
        assert lines == [
            ",".join([str(int(seed)), *(format(float(x), ".17g")
                                        for x in (dq, k0, res.b, res.b_prime, delta))])
            for seed, dq, k0, delta in zip(res.seeds, res.dq_abs, res.k0, res.delta)
        ]

    def test_bound_violation_exits_3(self, tmp_path, monkeypatch):
        # the proved inequality cannot be violated by real runs, so fake one
        import qcbound.cli as cli_mod
        from qcbound.experiments import ScatterResult

        fake = ScatterResult(
            seeds=np.array([1], dtype=np.uint64), dq_abs=np.array([9.0]),
            k0=np.array([-1.0]), delta=np.array([7.0]),
            violations_b=1, violations_b_prime=1, b=2.0, b_prime=0.2,
        )
        monkeypatch.setattr(cli_mod, "scatter_bound_test", lambda *a, **k: fake)
        code = run_cli(["check", "--model", "B", "--samples", "1",
                        "--out", str(tmp_path / "v")])
        assert code == 3

    def test_degenerate_base_is_refused_before_any_draw(self, tmp_path, monkeypatch):
        # model A with equal fields at lambda = 0.5 has a ground doublet at -1.6
        import qcbound.experiments as experiments

        def no_draw(*args):
            raise AssertionError("a perturbation was drawn on a degenerate H0")

        monkeypatch.setattr(experiments, "_normals", no_draw)
        monkeypatch.setattr(experiments, "_sample_rows", no_draw)
        # the seam is live: a run on an isolated ground level reaches it
        with pytest.raises(AssertionError, match="was drawn"):
            run_cli(["check", "--model", "A", "--a-coeffs", "0,0.3,0.3", "--lambda", "0.5",
                     "--samples", "5", "--out", str(tmp_path / "live")])
        out = tmp_path / "d"
        code = run_cli(["check", "--model", "A", "--a-coeffs", "0.1,0.1,0.1",
                        "--lambda", "0.5", "--samples", "5", "--out", str(out)])
        assert code == 2
        assert not (out / "records.csv").exists()

    def test_degenerate_excited_levels_are_accepted(self, tmp_path):
        # a = (0, 0.3, 0.3), lambda = 0.5: an isolated ground level at -1.92
        # below an excited doublet at -1.5; the bound divides only by the
        # ground gaps, so the run goes ahead
        from qcbound import HermitianOperator, eigensystem
        from qcbound.ensembles import _sample_matrix, spawn_seed
        from qcbound.models import ModelConfig, build_scatter_model

        out = tmp_path / "x"
        code = run_cli(["check", "--model", "A", "--a-coeffs", "0,0.3,0.3",
                        "--lambda", "0.5", "--samples", "8", "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["violations_b"] == 0
        config = ModelConfig(family="A", n_qubits=3, a_coeffs=(0.0, 0.3, 0.3), lam=0.5)
        h0, v_spec = build_scatter_model(config, h0_seed=spawn_seed(0, 0))
        eps = eigensystem(h0).eigenvalues
        assert eps[2] - eps[1] < 1e-12 < eps[1] - eps[0]
        for line in (out / "records.csv").read_text().splitlines()[1:]:
            seed, dq_abs = int(line.split(",")[0]), float(line.split(",")[1])
            v = _sample_matrix(v_spec, seed)

            def q(tau):
                dec = eigensystem(HermitianOperator(h0.matrix + tau * v))
                return mean_bipartite_Q(dec.eigenvectors[:, 0], 3)

            h = 1e-5  # central differences with one Richardson step
            d1 = (q(h) - q(-h)) / (2 * h)
            d2 = (q(h / 2) - q(-h / 2)) / h
            assert dq_abs == pytest.approx(abs((4 * d2 - d1) / 3), rel=1e-5, abs=1e-9)

    def test_a_choice_flag_changes_b_prime(self, tmp_path):
        outs = {}
        for choice, name in (("1/2^N", "pow"), ("1/N", "lin")):
            out = tmp_path / name
            run_cli(["check", "--model", "B", "--qubits", "2", "--samples", "5",
                     "--seed", "1", "--a-choice", choice, "--out", str(out)])
            outs[name] = json.loads((out / "summary.json").read_text())["b_prime"]
        assert outs["lin"] == pytest.approx(outs["pow"] * 2.0**2 / 2.0)


class TestManifestReproduction:
    def test_manifest_config_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "orig"
        assert run_cli(["check", "--model", "C", "--ensemble", "GUE", "--samples",
                        "40", "--seed", "13", "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg = manifest["config"]
        out2 = tmp_path / "redo"
        argv = ["check",
                "--model", cfg["model"]["family"],
                "--qubits", str(cfg["model"]["n_qubits"]),
                "--ensemble", cfg["model"]["ensemble"],
                "--samples", str(cfg["samples"]),
                "--a-choice", cfg["a_choice"],
                "--seed", str(manifest["master_seed"]),
                "--out", str(out2)]
        assert run_cli(argv) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["outputs"] == manifest["outputs"]

    SWEEP_CONFIGS = [
        (["sweep-theta", "--points", "2", "--realizations", "8", "--dim", "64",
          "--unfold-trim", "0.1", "--outlier-k", "2", "--seed", "9"],
         {"subcommand": "sweep-theta", "points": 2, "realizations": 8, "dim": 64,
          "chaotic_scale": 0.3, "unfolding": {"degree": 6, "edge_trim": 0.1},
          "outlier_k": 2.0, "gamma_mode": "pooled"}),
        (["sweep-defect", "--points", "2", "--d-max", "0.3", "--realizations", "6",
          "--qubits", "6", "--h", "0.5", "--J", "1.2", "--unfold-degree", "5",
          "--seed", "4"],
         {"subcommand": "sweep-defect", "points": 2, "d_max": 0.3, "realizations": 6,
          "n_qubits": 6, "h": 0.5, "J": 1.2, "sector": "restricted",
          "unfolding": {"degree": 5, "edge_trim": 0.05}, "outlier_k": 1.5,
          "gamma_mode": "pooled"}),
    ]

    # every defaulted flag left unset: these pin the flags' default values
    DEFAULT_CONFIGS = [
        (["check", "--model", "A"], ["records.csv", "summary.json"],
         {"subcommand": "check", "samples": 3000, "a_choice": "1/2^N",
          "model": {"family": "A", "n_qubits": 3, "ensemble": "GUE",
                    "a_coeffs": [0.1, 0.2, 0.3], "lam": 0.5}}),
        (["stats", "--source", "GOE"], ["stats.json"],
         {"subcommand": "stats", "source": "GOE", "draws": 100, "dim": 128,
          "theta": 1.5707963267948966, "d_value": 0.25, "n_qubits": 9, "h": 0.98,
          "J": 1.0, "sector": "restricted", "unfolding": {"degree": 6, "edge_trim": 0.05}}),
    ]

    @pytest.mark.parametrize("argv,outputs,config", DEFAULT_CONFIGS,
                             ids=["check", "stats"])
    def test_default_manifest_config(self, tmp_path, argv, outputs, config):
        out = tmp_path / "m"
        assert run_cli([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 0
        assert manifest["config"] == config
        assert list(manifest["outputs"]) == outputs

    @pytest.mark.parametrize("argv,config", SWEEP_CONFIGS, ids=["theta", "defect"])
    def test_sweep_manifest_config(self, tmp_path, argv, config):
        out = tmp_path / "m"
        assert run_cli([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == config
        assert set(manifest) == {"tool_version", "created_utc", "master_seed",
                                 "rng_algorithm", "config", "outputs"}
        kind = argv[0].removeprefix("sweep-")
        assert list(manifest["outputs"]) == [f"{kind}_sweep.csv"]

    def test_defect_field_flags_parse(self, tmp_path):
        out = tmp_path / "d"
        code = run_cli(["sweep-defect", "--points", "2", "--d-max", "0.3",
                        "--realizations", "6", "--qubits", "6", "--h", "0.5",
                        "--J", "1.2", "--seed", "4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["h"] == 0.5
        assert manifest["config"]["J"] == 1.2


class TestConfigFile:
    def test_config_supplies_values_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "B", "samples": 10, "seed": 5}))
        out = tmp_path / "out"
        code = run_cli(["check", "--model", "B", "--samples", "20",
                        "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        # explicit flag (20) beats the config value (10); config seed is used
        assert summary["samples_requested"] == 20
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 5

    def test_stats_precedence_flag_config_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": 6, "dim": 48, "seed": 3}))
        out = tmp_path / "out"
        assert run_cli(["stats", "--source", "GOE", "--dim", "64", "--config", str(cfg),
                        "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 3  # config beats default
        assert manifest["config"]["draws"] == 6  # config beats default
        assert manifest["config"]["dim"] == 64  # flag beats config
        assert manifest["config"]["unfolding"]["degree"] == 6  # default

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        code = run_cli(["check", "--model", "B", "--samples", "5",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code = run_cli(["check", "--model", "B", "--samples", "5",
                        "--config", str(tmp_path / "absent.json"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_string_for_integer_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": "50"}))
        code = run_cli(["check", "--model", "B", "--config", str(cfg),
                        "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'samples'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,payload", [
        (["sweep-defect", "--qubits", "6", "--points", "2", "--d-max", "0.5",
          "--realizations", "6", "--seed", "2"], {"sector": "bogus"}),
        (["sweep-theta", "--dim", "64", "--points", "2", "--realizations", "8",
          "--seed", "9"], {"gamma_mode": "per-realisation"}),
    ], ids=["sector", "gamma_mode"])
    def test_value_outside_choices_exits_2(self, tmp_path, argv, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run_cli([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()

    def test_list_coeffs_and_integer_for_float_flag(self, tmp_path):
        flags = tmp_path / "flags"
        assert run_cli(["check", "--model", "A", "--a-coeffs", "0.1,0.2,0.3",
                        "--lambda", "1", "--samples", "20", "--out", str(flags)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a_coeffs": [0.1, 0.2, 0.3], "lam": 1, "samples": 20}))
        config = tmp_path / "config"
        assert run_cli(["check", "--model", "A", "--config", str(cfg),
                        "--out", str(config)]) == 0
        assert (config / "records.csv").read_bytes() == (flags / "records.csv").read_bytes()
        manifest = json.loads((config / "manifest.json").read_text())
        assert manifest["config"]["model"]["lam"] == 1.0


class TestSweepCommands:
    def test_sweep_theta_schema(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(["sweep-theta", "--points", "3", "--realizations", "12",
                        "--dim", "64", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "theta_sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,gamma_mean,gamma_stderr,b_mean,b_stderr,n_kept,n_trimmed"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert int(first[5]) + int(first[6]) == 12

    def test_sweep_defect_schema(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(["sweep-defect", "--points", "2", "--d-max", "0.5",
                        "--realizations", "6", "--qubits", "6", "--seed", "2",
                        "--out", str(out)])
        assert code == 0
        lines = (out / "defect_sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "d,gamma_mean,gamma_stderr,b_mean,b_stderr,q_mean,q_stderr,n_kept,n_trimmed"
        )
        assert len(lines) == 3

    def test_sweep_defect_full_spectrum_mode(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(["sweep-defect", "--points", "2", "--d-max", "0.4",
                        "--realizations", "6", "--qubits", "6", "--sector", "full",
                        "--seed", "2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sector"] == "full"

    def test_sweep_theta_thread_invariance(self, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            code = run_cli(["sweep-theta", "--points", "2", "--realizations", "8",
                            "--dim", "64", "--seed", "9", "--threads", threads,
                            "--out", str(out)])
            assert code == 0
            outs.append((out / "theta_sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_points(self, tmp_path):
        assert run_cli(["sweep-theta", "--points", "1", "--out", str(tmp_path)]) == 2

    SMALL_RUNS = {
        "sweep-theta": ["sweep-theta", "--points", "2", "--realizations", "8",
                        "--dim", "64", "--seed", "9"],
        "sweep-defect": ["sweep-defect", "--points", "2", "--realizations", "4",
                         "--qubits", "6", "--seed", "9"],
        "stats": ["stats", "--source", "GOE", "--dim", "64", "--draws", "4"],
    }
    BAD_VALUES = [("sweep-theta", "outlier-k", -1), ("sweep-defect", "outlier-k", -0.5),
                  ("sweep-theta", "unfold-trim", 0.6), ("sweep-defect", "unfold-trim", 0.5),
                  ("stats", "unfold-trim", -0.1), ("sweep-theta", "unfold-degree", 0),
                  ("stats", "unfold-degree", 0)]

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", BAD_VALUES,
                             ids=[f"{c}-{f}" for c, f, _ in BAD_VALUES])
    def test_bad_unfolding_value_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                         command, flag, value, via_config):
        import qcbound.experiments as experiments

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(experiments, "_sweep", no_draw)
        monkeypatch.setattr(experiments, "spawn_seeds", no_draw)
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag.replace("-", "_"): value}))
            extra = ["--config", str(cfg)]
        else:
            extra = [f"--{flag}", str(value)]
        out = tmp_path / "o"
        assert run_cli([*self.SMALL_RUNS[command], *extra, "--out", str(out)]) == 2
        assert f"--{flag}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    TOO_SMALL = [
        (["sweep-theta", "--points", "2", "--realizations", "4", "--dim", "19"], "--dim"),
        (["sweep-defect", "--qubits", "5", "--points", "2", "--realizations", "4"], "--qubits"),
        (["sweep-defect", "--qubits", "4", "--sector", "full", "--points", "2",
          "--realizations", "4"], "--qubits"),
        (["stats", "--source", "GOE", "--dim", "10"], "--dim"),
        (["stats", "--source", "D", "--dim", "19"], "--dim"),
        (["stats", "--source", "E", "--qubits", "5"], "--qubits"),
        (["stats", "--source", "E", "--qubits", "4", "--sector", "full"], "--qubits"),
    ]

    @pytest.mark.parametrize("argv,flag", TOO_SMALL,
                             ids=[" ".join(a[:1] + a[-2:]) for a, _ in TOO_SMALL])
    def test_spectrum_too_small_to_unfold_exits_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, argv, flag):
        # 20 levels is the unfold minimum: C(N, N // 2) levels in the
        # restricted sector (10 at N = 5), 2^N with --sector full (16 at N = 4)
        import qcbound.experiments as experiments

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(experiments, "_sweep", no_draw)
        monkeypatch.setattr(experiments, "spawn_seeds", no_draw)
        out = tmp_path / "o"
        assert run_cli([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "at least 20" in err
        assert not (out / "manifest.json").exists()

    TOO_FEW_SPACINGS = [
        (["stats", "--source", "E", "--qubits", "6", "--draws", "5"], "--draws 5", 85),
        (["stats", "--source", "GOE", "--dim", "20", "--draws", "3"], "--draws 3", 51),
        (["sweep-theta", "--dim", "20", "--points", "2", "--realizations", "4"],
         "--realizations 4", 68),
        (["sweep-defect", "--qubits", "6", "--points", "2", "--realizations", "4"],
         "--realizations 4", 68),
    ]

    @pytest.mark.parametrize("argv,flag,spacings", TOO_FEW_SPACINGS,
                             ids=["stats-E-N6", "stats-GOE-d20", "theta-d20", "defect-N6"])
    def test_pooled_fit_too_small_exits_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, argv, flag, spacings):
        # draws x (L - 2 floor(trim L) - 1) spacings: 5 x 17, 3 x 17, 4 x 17
        import qcbound.experiments as experiments

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(experiments, "_sweep", no_draw)
        monkeypatch.setattr(experiments, "spawn_seeds", no_draw)
        out = tmp_path / "o"
        assert run_cli([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "--unfold-trim" in err
        assert f"gives {spacings} spacings" in err and "at least 100" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-defect", "--qubits", "6", "--points", "2", "--realizations", "8", "--d-max", "0.5"],
        ["stats", "--source", "E", "--qubits", "5", "--sector", "full", "--draws", "4"],
        ["stats", "--source", "GOE", "--dim", "20", "--draws", "6"],
    ], ids=["defect-N6", "stats-E-N5-full", "stats-GOE-d20"])
    def test_smallest_unfoldable_spectrum_runs(self, tmp_path, argv):
        assert run_cli([*argv, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv,flag,spacings", [
        (["sweep-theta", "--dim", "64"], "--dim 64", 57),
        (["sweep-defect", "--qubits", "8"], "--qubits 8 (--sector restricted)", 63),
    ], ids=["theta-d64", "defect-N8"])
    def test_per_realization_fit_too_small_exits_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, argv, flag, spacings):
        # each draw fits alone: L - 2 floor(trim L) - 1 spacings, 64 - 7 and 70 - 7
        import qcbound.experiments as experiments

        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(experiments, "_sweep", no_draw)
        monkeypatch.setattr(experiments, "spawn_seeds", no_draw)
        out = tmp_path / "o"
        assert run_cli([*argv, "--points", "2", "--realizations", "4",
                        "--gamma-mode", "per-realization", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --gamma-mode per-realization with {flag}, --unfold-trim 0.05 gives "
            f"{spacings} spacings per fit; a fit needs at least 100"]
        assert not out.exists()

    def test_failed_point_aborts_the_sweep_naming_it(self, tmp_path, capsys, caplog):
        # the benchmark's defect-n9 call at workload seed 39: draw 0 at grid
        # index 6 unfolds at neither degree 6 nor 5, and 1 of 8 is over 10%
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="qcbound.experiments"):
            code = run_cli(["sweep-defect", "--qubits", "9", "--points", "8",
                            "--realizations", "8", "--seed", "39", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: 1/8 draws failed at parameter 2.14286"]
        assert [r.getMessage() for r in caplog.records] == [
            "model-E d=2.14286 draw 0 failed: counting-function fit non-monotone at degrees 6 "
            "and 5"]
        assert not (out / "defect_sweep.csv").exists()

    def test_unfold_fallbacks_logged_at_debug(self, tmp_path, caplog):
        # the sweep-theta-d64 digest config: draws 4 (theta = 0) and 7 (theta
        # = pi/6) unfold only at degree 5, draw 8 (theta = 0) at neither; a
        # fallback is DEBUG, since the benchmark counts warnings as failures
        with caplog.at_level(logging.DEBUG, logger="qcbound.experiments"):
            code = run_cli(["sweep-theta", "--points", "4", "--realizations", "12",
                            "--dim", "64", "--seed", "9", "--out", str(tmp_path)])
        assert code == 0
        by_level = {level: [r.args[:2] for r in caplog.records if r.levelno == level]
                    for level in (logging.DEBUG, logging.WARNING)}
        assert by_level == {logging.DEBUG: [("model-D theta=0", 4),
                                            ("model-D theta=0.523599", 7)],
                            logging.WARNING: [("model-D theta=0", 8)]}
        assert all(r.getMessage().endswith("unfolded at degree 5")
                   for r in caplog.records if r.levelno == logging.DEBUG)


class TestStatsCommand:
    def test_goe_stats(self, tmp_path):
        out = tmp_path / "stats"
        code = run_cli(["stats", "--source", "GOE", "--dim", "64", "--draws", "20",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["source"] == "GOE"
        assert 1.5 < stats["weibull_c"] < 2.5
        assert stats["gamma"] < 0.3

    def test_poisson_stats(self, tmp_path):
        out = tmp_path / "stats"
        code = run_cli(["stats", "--source", "PoissonDiagonal", "--dim", "64",
                        "--draws", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["weibull_c"] == pytest.approx(1.0, abs=0.15)
        assert stats["gamma"] > 0.7

    def test_rotation_model_stats(self, tmp_path):
        out = tmp_path / "stats"
        code = run_cli(["stats", "--source", "D", "--theta", "1.2", "--dim", "128",
                        "--draws", "10", "--seed", "5", "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["gamma"] < 0.3  # deep in the chaotic regime

    def test_defect_chain_stats_by_sector(self, tmp_path):
        gammas = {}
        for sector in ("restricted", "full"):
            out = tmp_path / sector
            code = run_cli(["stats", "--source", "E", "--qubits", "8", "--d-value", "0.3",
                            "--draws", "10", "--sector", sector, "--seed", "4",
                            "--out", str(out)])
            assert code == 0
            gammas[sector] = json.loads((out / "stats.json").read_text())["gamma"]
        # mixing symmetry sectors pushes the statistics toward Poisson
        assert gammas["full"] > gammas["restricted"]

    def test_skipped_draws_are_logged(self, tmp_path, monkeypatch, caplog, capsys):
        import qcbound.experiments as experiments

        real = experiments.unfold_rows

        def fail_second(levels, *args):
            kept, degrees = real(levels, *args)
            degrees[1] = 0  # draw 1 unfolds at neither degree
            return kept, degrees

        def unfold(*args):  # the one-row path gives the failed draw its error
            raise UnfoldingError("forced")

        monkeypatch.setattr(experiments, "unfold_rows", fail_second)
        monkeypatch.setattr(experiments, "unfold", unfold)
        out = tmp_path / "stats"
        with caplog.at_level(logging.WARNING, logger="qcbound.experiments"):
            code = run_cli(["stats", "--source", "GOE", "--dim", "64", "--draws", "4",
                            "--seed", "3", "--out", str(out)])
        assert code == 0
        assert [r.args[:2] for r in caplog.records] == [("GOE", 1)]
        assert isinstance(caplog.records[0].args[-1], UnfoldingError)
        assert capsys.readouterr().err == ""
        assert json.loads((out / "stats.json").read_text())["draws_failed"] == 1

    @pytest.mark.parametrize("n_failed,code", [(2, 0), (3, 2)])
    def test_more_than_half_failed_exits_2(self, tmp_path, monkeypatch, capsys,
                                           n_failed, code):
        import qcbound.experiments as experiments

        real = experiments.unfold_rows

        def fail_first(levels, *args):
            kept, degrees = real(levels, *args)
            degrees[:n_failed] = 0
            return kept, degrees

        def unfold(*args):
            raise UnfoldingError("forced")

        monkeypatch.setattr(experiments, "unfold_rows", fail_first)
        monkeypatch.setattr(experiments, "unfold", unfold)
        out = tmp_path / "stats"
        assert run_cli(["stats", "--source", "GOE", "--dim", "64", "--draws", "4",
                        "--out", str(out)]) == code
        assert (out / "stats.json").exists() == (code == 0)
        if code == 2:
            assert f"{n_failed}/4 draws failed to unfold" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--source", "GOE"], ["--source", "GUE"], ["--source", "PoissonDiagonal"],
        ["--source", "D"], ["--source", "E", "--qubits", "8"],
        ["--source", "E", "--qubits", "5", "--sector", "full"],
    ], ids=lambda a: "-".join(a[1::2]))
    def test_one_draw_loop_per_run(self, tmp_path, monkeypatch, argv):
        import qcbound.experiments as experiments

        real, loops = experiments._run_indexed, []

        def counting(task, n_tasks, workers):
            loops.append((n_tasks, workers))
            return real(task, n_tasks, workers)

        monkeypatch.setattr(experiments, "_run_indexed", counting)
        assert run_cli(["stats", *argv, "--dim", "32", "--draws", "5",
                        "--out", str(tmp_path)]) == 0
        # a solved source first solves its five draws in one stack of 16;
        # model E in stacks per sector: one of its dim-70 middle sector at
        # N = 8, one for each of the six sectors (dims 1 to 10) at N = 5
        stacks = {"GOE": [(1, 1)], "GUE": [(1, 1)], "D": [(1, 1)], "PoissonDiagonal": [],
                  "E": [(1, 1)] if "full" not in argv else [(6, 1)]}[argv[1]]
        assert loops == [*stacks, (5, 1)]


class TestOverflowingHamiltonian:
    # finite flags whose Hamiltonian overflows: one error line naming the
    # flags that set its scale, and no numpy warning
    @pytest.mark.parametrize("argv,message", [
        (["check", "--model", "A", "--lambda", "1e308", "--samples", "5"],
         "the model-A Hamiltonian is not finite; lower --lambda or --a-coeffs"),
        (["sweep-defect", "--qubits", "7", "--points", "2", "--realizations", "4",
          "--d-max", "1e308"],
         "the model-E Hamiltonian is not finite; lower --d-max, --h or --J"),
        (["stats", "--source", "E", "--qubits", "7", "--draws", "5", "--h", "1e308"],
         "the model-E Hamiltonian is not finite; lower --d-value, --h or --J"),
        # finite matrices whose spectra are wider than a float
        (["sweep-theta", "--points", "2", "--realizations", "10", "--chaotic-scale", "1e308"],
         "the model-D spectrum overflows; lower --chaotic-scale"),
        (["stats", "--source", "E", "--qubits", "7", "--draws", "5", "--J", "1e308"],
         "the model-E spectrum overflows; lower --d-value, --h or --J"),
    ], ids=["check", "sweep-defect", "stats", "sweep-theta-spectrum", "stats-spectrum"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "manifest.json").exists()

    # at N = 9 the sector blocks are solved on threads, here forced to two;
    # the last run raises in the workers that write draw 5's n_down = 4 block:
    # the one pass over both grid points gives each worker one point's blocks
    @pytest.mark.parametrize("argv,message,fail_at", [
        (["sweep-defect", "--qubits", "9", "--points", "2", "--realizations", "6",
          "--d-max", "1e308"],
         "the model-E Hamiltonian is not finite; lower --d-max, --h or --J", None),
        (["stats", "--source", "E", "--qubits", "9", "--draws", "9", "--J", "8e307"],
         "the model-E spectrum overflows; lower --d-value, --h or --J", None),
        (["sweep-defect", "--qubits", "9", "--points", "2", "--realizations", "6"],
         "the model-E Hamiltonian is not finite; lower --d-max, --h or --J", (4, 5)),
    ], ids=["sweep-defect", "stats-spectrum", "raised-in-a-worker"])
    def test_on_threads_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                    argv, message, fail_at):
        import qcbound.experiments as experiments
        from qcbound.models import NonFiniteHamiltonianError, _ModelESampler

        block, raised_in = _ModelESampler.block, []

        def failing_block(sampler, n_down, i, out):
            if (n_down, i) == fail_at:
                raised_in.append(threading.current_thread())
                raise NonFiniteHamiltonianError("the model-E Hamiltonian is not finite")
            return block(sampler, n_down, i, out)

        monkeypatch.setattr(_ModelESampler, "block", failing_block)
        monkeypatch.setattr(experiments, "_worker_count", lambda n_tasks, dim: min(2, n_tasks))
        self.test_exits_2_with_one_error_line(tmp_path, capsys, argv, message)
        assert [t is threading.main_thread() for t in raised_in] == (
            [] if fail_at is None else [False, False])


class TestCliModule:
    TREE = ast.parse(Path(cli_module.__file__).read_text())

    def test_imports_no_private_name(self):
        # dunders such as __version__ are module metadata, not private names
        private = [
            (node.module, alias.name)
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "qcbound")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
        assert private == []

    def test_stats_command_draws_nothing_itself(self):
        (cmd,) = [node for node in self.TREE.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_cmd_stats"]
        kinds = {type(node) for stmt in cmd.body for node in ast.walk(stmt)}
        assert not kinds & {ast.For, ast.While, ast.Try, ast.FunctionDef, ast.Lambda}


class TestReportEnsembles:
    def test_prints_ratios(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["report-ensembles"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DQ_GOE/DQ_GUE = 0.84" in out
        assert "DQ_GOE/DQ_GSE = 0.70" in out
        assert (tmp_path / "manifest.json").exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["check", "--model", "B", "--samples", "5"],
        ["sweep-theta", "--points", "2", "--realizations", "4", "--dim", "64"],
        ["sweep-defect", "--qubits", "6", "--points", "2", "--realizations", "4"],
        ["stats", "--source", "GOE", "--draws", "4", "--dim", "64"],
        ["report-ensembles"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_exits_2_naming_the_flag_before_any_output(self, tmp_path, capsys, argv,
                                                       from_config):
        if from_config:
            (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "o"
        code = run_cli([*argv, *([] if from_config else ["--seed", "-1"]), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"
        assert not out.exists()


class TestIgnoredScatterFlags:
    # a scatter parameter its model does not read is refused, not written
    # into the manifest: the ensemble is model C's, the fields and coupling A's
    @pytest.mark.parametrize("model,flag,value,key,config_value,message", [
        ("B", "--ensemble", "GOE", "ensemble", "GOE",
         "--ensemble applies to model C only; model B perturbations are GUE"),
        ("A", "--ensemble", "GOE", "ensemble", "GOE",
         "--ensemble applies to model C only; model A perturbations are GUE"),
        ("B", "--lambda", "9", "lam", 9,
         "--lambda applies to model A only; model B has no coupling"),
        ("C", "--lambda", "0.7", "lam", 0.7,
         "--lambda applies to model A only; model C has no coupling"),
        ("B", "--a-coeffs", "0.1,0.2,0.4", "a-coeffs", [0.1, 0.2, 0.4],
         "--a-coeffs applies to model A only; model B has no fields"),
        ("C", "--a-coeffs", "0,0,0", "a_coeffs", "0,0,0",
         "--a-coeffs applies to model A only; model C has no fields"),
    ], ids=["B-ensemble", "A-ensemble", "B-lambda", "C-lambda", "B-a-coeffs", "C-a-coeffs"])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_exits_2_naming_the_flag_before_any_output(self, tmp_path, capsys, model, flag,
                                                       value, key, config_value, message,
                                                       from_config):
        argv = ["check", "--model", model, "--samples", "3"]
        if from_config:
            (tmp_path / "cfg.json").write_text(json.dumps({key: config_value}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        else:
            argv += [flag, value]
        out = tmp_path / "o"
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["A", "B", "C"])
    def test_defaults_given_as_flags_write_the_same_bytes(self, tmp_path, model):
        argv = ["check", "--model", model, "--samples", "20", "--seed", "2"]
        defaults = ["--lambda", "0.5", "--a-coeffs", "0.1,0.2,0.3"]
        if model != "C":
            defaults += ["--ensemble", "GUE"]
        assert run_cli([*argv, "--out", str(tmp_path / "plain")]) == 0
        assert run_cli([*argv, *defaults, "--out", str(tmp_path / "given")]) == 0
        for name in ("records.csv", "summary.json", "manifest.json"):
            plain, given = ((tmp_path / d / name).read_text().splitlines()
                            for d in ("plain", "given"))
            assert ([line for line in plain if "created_utc" not in line]
                    == [line for line in given if "created_utc" not in line])


class TestNonFiniteFloats:
    # every float flag of every subcommand, and the config key of each
    FLOAT_FLAGS = [("check", "lambda"), ("check", "a-coeffs"),
                   ("sweep-theta", "chaotic-scale"), ("sweep-theta", "unfold-trim"),
                   ("sweep-theta", "outlier-k"), ("sweep-defect", "d-max"),
                   ("sweep-defect", "h"), ("sweep-defect", "J"),
                   ("sweep-defect", "unfold-trim"), ("sweep-defect", "outlier-k"),
                   ("stats", "theta"), ("stats", "d-value"), ("stats", "h"), ("stats", "J"),
                   ("stats", "unfold-trim")]
    CONFIG_KEYS = {"lambda": "lam", "J": "coupling"}
    RUNS = {
        "check": ["check", "--model", "A", "--samples", "5"],
        "sweep-theta": ["sweep-theta", "--points", "2", "--realizations", "4", "--dim", "32"],
        "sweep-defect": ["sweep-defect", "--qubits", "7", "--points", "2",
                         "--realizations", "4"],
        "stats": ["stats", "--source", "E", "--qubits", "7", "--draws", "5"],
    }

    def test_every_float_flag_is_listed(self):
        subparsers = cli_module.build_parser()._subparsers._group_actions[0].choices
        checked = {(command, action.option_strings[0][2:])
                   for command, parser in subparsers.items() for action in parser._actions
                   if action.type in (cli_module._finite_float, cli_module._coefficients)}
        assert checked == set(self.FLOAT_FLAGS)
        assert not any(action.type is float for parser in subparsers.values()
                       for action in parser._actions)

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS,
                             ids=[f"{c}-{f}" for c, f in FLOAT_FLAGS])
    def test_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch, command, flag,
                                     value, via_config):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        for name in ("scatter_bound_test", "sweep_theta", "sweep_defect",
                     "spacing_statistics"):
            monkeypatch.setattr(cli_module, name, no_draw)
        setting = [0.1, value, 0.3] if flag == "a-coeffs" else value
        if via_config:
            cfg = tmp_path / "cfg.json"
            key = self.CONFIG_KEYS.get(flag, flag.replace("-", "_"))
            cfg.write_text(json.dumps({key: setting}))  # written as NaN / Infinity
            extra = ["--config", str(cfg)]
        else:
            text = ",".join(map(str, setting)) if flag == "a-coeffs" else str(setting)
            extra = [f"--{flag}={text}"]
        out = tmp_path / "o"
        try:
            code = run_cli([*self.RUNS[command], *extra, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag's value itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert f"--{flag}" in err and "finite" in err
        assert not (out / "manifest.json").exists()


class TestSerialDraws:
    CHECK = ["check", "--model", "B", "--qubits", "3", "--samples", "300", "--seed", "5"]
    # the spectra are solved in stacks of 4 at dims 126 and 128: 14 draws are
    # four stacks, the last one short, so 3 workers get chunks of 1, 1 and 2.
    # Each run lists the (stacks, largest dim) of its stacked solves, one pass
    # per sweep: theta = 0 needs none, so the theta sweep's pass holds the
    # stacks of its other two points; a model-E sweep has one pass over the
    # ten sectors of every grid point (stacks of 4, 6, 14, 56 and 501 at dims
    # 126, 84, 36, 9 and 1: 20 stacks per point for 14 draws, 12 for 6), then
    # one over the ground blocks of every point, grouped by sector (at d = 0
    # the lone n_down = 9 state; at d = 2.5 one stack in each of n_down = 4
    # to 8, here across points)
    STACKED = [
        (["sweep-theta", "--points", "3", "--realizations", "14", "--dim", "128",
          "--seed", "9"],
         ["theta_sweep.csv"], [(8, 128)]),
        (["stats", "--source", "GUE", "--draws", "14", "--dim", "128", "--seed", "2"],
         ["stats.json"], [(4, 128)]),
        (["sweep-defect", "--qubits", "9", "--points", "2", "--realizations", "14",
          "--seed", "5"],
         ["defect_sweep.csv"], [(40, 126), (6, 126)]),
        (["sweep-defect", "--qubits", "9", "--points", "5", "--realizations", "6",
          "--seed", "5"],
         ["defect_sweep.csv"], [(60, 126), (6, 126)]),
        (["stats", "--source", "E", "--qubits", "9", "--draws", "14", "--seed", "2"],
         ["stats.json"], [(4, 126)]),
    ]

    @staticmethod
    def _count_threads(monkeypatch) -> list:
        start, started = threading.Thread.start, []

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    # at N = 7 every sector block is below _THREAD_MIN_DIM (the largest is 35)
    @pytest.mark.parametrize("argv", [
        ["sweep-defect", "--points", "2", "--realizations", "4", "--qubits", "7", "--seed", "5"],
    ], ids=["sweep-defect"])
    def test_no_thread_is_started(self, tmp_path, monkeypatch, argv):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        serial = tmp_path / "serial"
        assert run_cli([*argv, "--threads", "1", "--out", str(serial)]) == 0
        monkeypatch.setattr(threading.Thread, "start", refuse)
        asked = tmp_path / "asked"
        assert run_cli([*argv, "--threads", "4", "--out", str(asked)]) == 0
        assert ((asked / "defect_sweep.csv").read_bytes()
                == (serial / "defect_sweep.csv").read_bytes())

    @pytest.mark.parametrize("argv,outputs,stacks", STACKED,
                             ids=["sweep-theta", "stats", "sweep-defect", "sweep-defect-5x6",
                                  "stats-E"])
    def test_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, argv, outputs,
                                            stacks):
        import qcbound.experiments as experiments

        started = self._count_threads(monkeypatch)
        real = experiments._worker_count
        outputs_of = {}
        for workers in (None, 1, 2, 3):
            if workers is not None:
                monkeypatch.setattr(experiments, "_worker_count",
                                    lambda n_tasks, dim, w=workers: min(w, n_tasks))
            started.clear()
            out = tmp_path / str(workers)
            assert run_cli([*argv, "--threads", "1", "--out", str(out)]) == 0
            counts = [min(workers, n) if workers else real(n, dim) for n, dim in stacks]
            assert len(started) == sum(count for count in counts if count > 1)
            assert not any(thread.is_alive() for thread in started)
            outputs_of[workers] = [(out / name).read_bytes() for name in outputs]
        assert outputs_of[1] == outputs_of[2] == outputs_of[3] == outputs_of[None]

    # one pass per sweep, whatever its --points: the theta sweep's holds every
    # grid point but theta = 0, the defect sweep's first the ten sectors of
    # every point, then the ground blocks
    @pytest.mark.parametrize("argv,passes,shapes", [
        (["sweep-theta", "--dim", "64"], 1, lambda points: points - 1),
        (["sweep-defect", "--qubits", "9"], 2, lambda points: 10 * points),
    ], ids=["sweep-theta", "sweep-defect"])
    def test_one_set_of_stacked_passes_per_sweep(self, tmp_path, monkeypatch, argv, passes,
                                                 shapes):
        import qcbound.experiments as experiments

        real, calls = experiments._run_stacks, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "_run_stacks", counted)
        for points in (2, 5):
            calls.clear()
            assert run_cli([*argv, "--points", str(points), "--realizations", "6",
                            "--seed", "4", "--out", str(tmp_path / str(points))]) == 0
            assert len(calls) == passes
            assert len(calls[0]) == shapes(points)

    def test_check_bytes_do_not_depend_on_its_threads(self, tmp_path, monkeypatch):
        # 300 samples at dim 8: stacks of 63 draws by default (five, the last
        # one short), else of the forced length 1, 7 or 128
        import qcbound.experiments as experiments

        started = self._count_threads(monkeypatch)
        real_worker_count = experiments._worker_count
        outputs = {}
        for block in (None, 1, 7, 128):
            if block is not None:  # 8 (k - 1) // 8 + 1 = k draws per stack
                monkeypatch.setattr(experiments, "_STACK_LEVELS", 8 * (block - 1))
            blocks = -(-300 // (block or 500 // 8 + 1))
            for workers in (None, 1, 2, 3):
                monkeypatch.setattr(experiments, "_worker_count", real_worker_count
                                    if workers is None else
                                    lambda n_tasks, dim, w=workers: min(w, n_tasks))
                started.clear()
                out = tmp_path / f"{block}-{workers}"
                assert run_cli([*self.CHECK, "--threads", "1", "--out", str(out)]) == 0
                # the default: no thread for dim-8 draws (below _THREAD_MIN_DIM)
                count = min(workers or 1, blocks)
                assert len(started) == (count if count > 1 else 0)
                assert not any(thread.is_alive() for thread in started)
                outputs[block, workers] = [(out / name).read_bytes()
                                           for name in ("records.csv", "summary.json")]
        assert len(set(map(tuple, outputs.values()))) == 1

    def test_no_openblas_found_gives_the_same_bytes(self, tmp_path, monkeypatch):
        # dim 64: OpenBLAS at its own thread count gives the same floats
        import qcbound.quantum as quantum

        argv = ["sweep-theta", "--points", "2", "--realizations", "20", "--dim", "64",
                "--seed", "9"]
        assert run_cli([*argv, "--out", str(tmp_path / "pinned")]) == 0
        blas = quantum._openblas()
        before = blas[0]() if blas else None
        monkeypatch.setattr(quantum, "_openblas", lambda: None)
        assert run_cli([*argv, "--out", str(tmp_path / "none")]) == 0
        assert ((tmp_path / "none" / "theta_sweep.csv").read_bytes()
                == (tmp_path / "pinned" / "theta_sweep.csv").read_bytes())
        assert (blas[0]() if blas else None) == before


class TestBlasThreadCount:
    # in subprocesses, since OpenBLAS reads the variable once, when loaded
    RUNS = [
        (["sweep-theta", "--points", "2", "--realizations", "10", "--dim", "128",
          "--seed", "3"], ["theta_sweep.csv"]),
        (["check", "--model", "B", "--qubits", "7", "--samples", "20", "--seed", "3"],
         ["records.csv", "summary.json"]),
        # model E's ground states by inverse iteration, in stacks of dim 1 to 126
        (["sweep-defect", "--qubits", "9", "--points", "8", "--realizations", "8",
          "--seed", "3"], ["defect_sweep.csv"]),
    ]

    @pytest.mark.parametrize("argv,outputs", RUNS, ids=[r[0][0] for r in RUNS])
    def test_bytes_do_not_depend_on_openblas_threads(self, tmp_path, argv, outputs):
        src = Path(__file__).resolve().parents[1] / "src"
        written = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
            out = tmp_path / threads
            done = subprocess.run([sys.executable, "-m", "qcbound.cli", *argv, "--out", str(out)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            written.append([(out / name).read_bytes() for name in outputs])
        assert written[0] == written[1]


class TestEnvThreads:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QCBOUND_THREADS", "2")
        out = tmp_path / "env"
        assert run_cli(["check", "--model", "B", "--samples", "10",
                        "--seed", "1", "--out", str(out)]) == 0

    def test_env_ignored(self, tmp_path, monkeypatch):
        argv = ["check", "--model", "B", "--samples", "10", "--seed", "1"]
        assert run_cli([*argv, "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("QCBOUND_THREADS", "soup")
        assert run_cli([*argv, "--out", str(tmp_path / "soup")]) == 0
        assert ((tmp_path / "soup" / "records.csv").read_bytes()
                == (tmp_path / "plain" / "records.csv").read_bytes())


def test_module_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "qcbound.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == "qcbound 0.1.0"
