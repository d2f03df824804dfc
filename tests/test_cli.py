"""End-to-end CLI runs: artifacts, exit codes, byte-level determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from etfnc.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main


def run(*argv):
    return main([str(a) for a in argv])


def payload_bytes(run_dir):
    """All artifact bytes except the manifest (which holds the timestamp)."""
    out = {}
    for p in sorted(Path(run_dir).iterdir()):
        if p.name != "manifest.json":
            out[p.name] = p.read_bytes()
    return out


class TestEtfCommand:
    def test_writes_verified_frame(self, tmp_path):
        out = tmp_path / "run"
        assert run("etf", "--d", 3, "--K", 4, "--seed", 1, "--out", out) == EXIT_OK
        frame = json.loads((out / "frame.json").read_text())
        cols = np.asarray(frame["columns"])
        gram = cols.T @ cols
        np.testing.assert_allclose(gram[~np.eye(4, dtype=bool)], -1 / 3, atol=1e-10)
        report = (out / "gram_report.csv").read_text().splitlines()
        assert report[0].startswith("max_deviation")
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"frame.json", "frame.csv", "gram_report.csv"}

    def test_invalid_dims_nonzero_exit(self, tmp_path):
        assert run("etf", "--d", 2, "--K", 4, "--out", tmp_path / "x") == EXIT_CONFIG

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("etf", "--d", 5, "--K", 4, "--seed", 3, "--out", a)
        run("etf", "--d", 5, "--K", 4, "--seed", 3, "--out", b)
        assert payload_bytes(a) == payload_bytes(b)


class TestPeeledCommand:
    def test_dlpm_ce_converges(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "peeled", "--mode", "dlpm", "--loss", "ce", "--K", 5, "--d", 8,
            "--tau", "0.1", "--n-max", 30, "--gamma", 0.5, "--steps", 3000,
            "--stop-tol", "1e-3", "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].split(",")[:4] == ["step", "loss", "gap", "grad_norm"]
        final_gap = float(lines[-1].split(",")[2])
        assert final_gap < 1e-3
        state = json.loads((out / "final_state.json").read_text())
        assert state["classifier"]["num_classes"] == 5

    def test_init_at_optimum_stays(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "peeled", "--mode", "dlpm", "--loss", "dr", "--K", 4, "--d", 6,
            "--counts", "3,2,2,1", "--gamma", 1.0, "--steps", 100,
            "--init-at-optimum", "--out", out,
        )
        assert code == EXIT_OK
        gaps = [float(l.split(",")[2]) for l in (out / "trajectory.csv").read_text().splitlines()[1:]]
        assert max(gaps) < 1e-10

    def test_lpm_writes_probe(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "peeled", "--mode", "lpm", "--loss", "ce", "--K", 4, "--d", 6,
            "--counts", "60,60,2,2", "--gamma", 0.5, "--steps", 400,
            "--minor-classes", "2,3", "--out", out,
        )
        assert code == EXIT_OK
        probe = (out / "probe.csv").read_text().splitlines()
        assert probe[0] == "class_i,class_j,cosine"
        assert len(probe) == 2  # one pair
        summary = (out / "probe_summary.csv").read_text().splitlines()[1].split(",")
        assert float(summary[1]) > -1 / 3  # above the balanced reference

    @pytest.mark.parametrize(
        "minor,message",
        [
            ("2,7", "entries must lie in [0, 4)"),
            ("-1,2", "entries must lie in [0, 4)"),
            ("2,2", "at least two distinct classes"),
        ],
    )
    def test_bad_minor_classes_rejected_before_run(self, tmp_path, capsys, minor, message):
        out = tmp_path / "x"
        code = run(
            "peeled", "--mode", "lpm", "--loss", "ce", "--K", 4, "--d", 6,
            "--counts", "60,60,2,2", "--steps", 400, f"--minor-classes={minor}", "--out", out,
        )
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_counts_mismatch_exit_config(self, tmp_path):
        assert run(
            "peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6,
            "--counts", "1,2", "--out", tmp_path / "x",
        ) == EXIT_CONFIG

    def test_divergence_exit_code(self, tmp_path):
        code = run(
            "peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6,
            "--counts", "2,2,2,2", "--gamma", "1e308", "--e-w", "10000",
            "--steps", 10, "--out", tmp_path / "x",
        )
        assert code == EXIT_DIVERGED

    def test_rerun_byte_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                "peeled", "--mode", "dlpm", "--loss", "dr", "--K", 4, "--d", 6,
                "--tau", "0.5", "--n-max", 10, "--gamma", 1.0, "--steps", 50,
                "--seed", 7, "--out", out,
            )
            dirs.append(payload_bytes(out))
        assert dirs[0] == dirs[1]


class TestRegularityCommand:
    def test_dr_bound_passes(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "regularity", "--losses", "dr", "--gammas", "", "--deltas", "0.05",
            "--trials", 100, "--K", 4, "--d", 8, "--out", out,
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dr_bound"]["passed"]
        assert summary["dr_bound"]["max_ratio_minus_bound"] <= 1e-9

    def test_zero_trials_no_data(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "regularity", "--losses", "dr", "--gammas", "", "--deltas", "0.05",
            "--trials", 0, "--K", 4, "--d", 8, "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
        assert json.loads((out / "summary.json").read_text())["status"] == "no-data"

    def test_paired_dominance_summary_present(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "regularity", "--losses", "ce,dr", "--gammas", "0.1,0.5",
            "--deltas", "0.01", "--trials", 120, "--K", 10, "--d", 20,
            "--instance-optimal", "--out", out,
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert "paired_dominance" in summary
        for cfg in summary["paired_dominance"]["configs"]:
            if cfg.get("raw_dominance_frac") is not None:
                assert cfg["raw_dominance_frac"] >= 0.99
        records = (out / "records.csv").read_text()
        assert "ce-opt" in records

    def test_rerun_byte_identical(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                "regularity", "--losses", "ce,dr", "--gammas", "0.5",
                "--deltas", "0.05", "--trials", 50, "--K", 4, "--d", 8,
                "--seed", 3, "--out", out,
            )
            payloads.append(payload_bytes(out))
        assert payloads[0] == payloads[1]


def write_train_config(path, **overrides):
    cfg = {
        "dataset": {
            "num_classes": 3, "input_dim": 6, "n_max": 20,
            "imbalance_ratio": 0.25, "test_per_class": 10,
        },
        "model": {"hidden_sizes": [8], "feature_dim": 5},
        "train": {"epochs": 3},
        "regimes": ["learnable-ce", "etf-dr"],
        "seeds": [0],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestTrainCommand:
    def test_four_regime_sweep(self, tmp_path):
        regimes = ["learnable-ce", "learnable-wce", "etf-ce", "etf-dr"]
        cfg = write_train_config(tmp_path / "cfg.json", regimes=regimes)
        out = tmp_path / "run"
        assert run("train", "--config", cfg, "--out", out) == EXIT_OK
        for regime in regimes:
            assert (out / f"trainlog_{regime}_seed0.csv").exists()
            assert (out / f"model_{regime}_seed0.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["by_regime"]) == set(regimes)
        header = (out / "trainlog_etf-dr_seed0.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,loss,bal_acc,train_sigma_w_trace")

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = {"dataset": {"num_classes": 3}, "regimes": [], "seeds": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", path, "--out", tmp_path / "x") == EXIT_CONFIG
        assert "dataset.input_dim" in capsys.readouterr().err

    def test_diverged_training_exit_code(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "cfg.json", train={"epochs": 3, "step_size": 1e200})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_DIVERGED
        assert "numeric divergence" in capsys.readouterr().err

    def test_bad_dataset_row_named(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,1.0,2.0\n1,0.5\n")
        cfg = write_train_config(
            tmp_path / "cfg.json", dataset={"num_classes": 2, "train_csv": str(data)}
        )
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG
        assert f"{data} line 3: 1 features" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run("train", "--config", tmp_path / "nope.json", "--out", tmp_path / "x") == EXIT_CONFIG

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_train_config(tmp_path / "cfg.json")
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("train", "--config", cfg, "--out", out)
            payloads.append(payload_bytes(out))
        assert payloads[0] == payloads[1]


class TestReportCommand:
    def test_aggregates_three_seed_runs(self, tmp_path):
        runs = []
        for seed in (0, 1, 2):
            out = tmp_path / f"run{seed}"
            write_train_config(tmp_path / f"cfg{seed}.json", seeds=[seed])
            run("train", "--config", tmp_path / f"cfg{seed}.json", "--out", out)
            runs.append(out)
        rep = tmp_path / "report"
        assert run("report", "--runs", *runs, "--out", rep) == EXIT_OK
        lines = (rep / "report_summary.csv").read_text().splitlines()
        assert lines[0] == "regime,runs,bal_acc_mean,bal_acc_std"
        assert len(lines) == 3  # one row per regime
        assert all(line.split(",")[1] == "3" for line in lines[1:])
        long = (rep / "report_long.csv").read_text().splitlines()
        assert len(long) == 1 + 3 * 2 * 4  # seeds x regimes x metrics

    def test_empty_input_rejected(self, tmp_path):
        assert run("report", "--out", tmp_path / "x") == EXIT_CONFIG

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--runs", empty, "--out", tmp_path / "x") == EXIT_CONFIG


class TestSvg:
    def test_optional_charts(self, tmp_path):
        out = tmp_path / "run"
        run(
            "peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6,
            "--counts", "4,3,2,1", "--gamma", 0.5, "--steps", 50, "--svg", "--out", out,
        )
        assert (out / "trajectory.svg").read_text().startswith("<svg")
