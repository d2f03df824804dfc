"""End-to-end CLI runs: artifacts, exit codes, byte-level determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from etfnc.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from etfnc.etf import generate_etf, uniform_classifier
from etfnc.regularity import check_sweep, pair_dominance, run_regularity_sweep
from etfnc.serialize import derive_seed


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
        assert set(manifest) == {"command", "config", "artifacts", "created_at_unix"}
        assert set(manifest["artifacts"]) == {"frame.json", "frame.csv", "gram_report.csv"}

    def test_invalid_dims_nonzero_exit(self, tmp_path):
        assert run("etf", "--d", 2, "--K", 4, "--out", tmp_path / "x") == EXIT_CONFIG

    def test_bad_tol_rejected_before_run(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("etf", "--d", 3, "--K", 4, "--tol", "nan", "--out", out) == EXIT_CONFIG
        assert "--tol must be finite and > 0, got nan" in capsys.readouterr().err
        assert not out.exists()

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
            ("2,x", "--minor-classes: invalid literal for int()"),
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

    @pytest.mark.parametrize("K", [2, 3])
    def test_lpm_default_probe_has_two_classes(self, tmp_path, K):
        out = tmp_path / "run"
        assert run("peeled", "--mode", "lpm", "--loss", "ce", "--K", K, "--d", 4, "--steps", 5,
                   "--out", out) == EXIT_OK
        assert len((out / "probe.csv").read_text().splitlines()) == 2  # header, one pair

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

    @pytest.mark.parametrize("argv,message", [
        (("--gamma", "nan"), "--gamma must be finite and > 0, got nan"),
        (("--e-h", "0"), "--e-h must be finite and > 0, got 0.0"),
        (("--e-h", "-1"), "--e-h must be finite and > 0, got -1.0"),
        (("--mode", "lpm", "--e-w", "0"), "--e-w must be finite and > 0, got 0.0"),
        (("--steps", "-2"), "--steps must be >= 0, got -2"),
        (("--stop-tol", "nan"), "--stop-tol must be finite and >= 0, got nan"),
        (("--stop-tol", "inf"), "--stop-tol must be finite and >= 0, got inf"),
        # argparse takes "-1e+300" for a flag; "--flag=value" passes it as a value
        (("--gamma=-1e+300",), "--gamma must be finite and > 0, got -1e+300"),
    ])
    def test_bad_numeric_flags_rejected_before_run(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        # a repeated flag takes its last value, so ``argv`` overrides the base run
        code = run("peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6,
                   "--counts", "4,3,2,2", *argv, "--out", out)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

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
            "regularity", "--gammas", "", "--deltas", "0.05",
            "--trials", 100, "--K", 4, "--d", 8, "--out", out,
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dr_bound"]["passed"]
        assert summary["dr_bound"]["max_ratio_minus_bound"] <= 1e-9

    def test_all_trials_excluded_fails(self, tmp_path, capsys):
        # a delta below DIST_GUARD puts every start at the optimum
        out = tmp_path / "run"
        code = run("regularity", "--deltas", "1e-13", "--trials", 20, "--K", 4, "--d", 8,
                   "--out", out)
        assert code == EXIT_CHECK_FAILED
        assert "all 20 trials started within 1e-12 of the optimum" in capsys.readouterr().err
        assert len((out / "records.csv").read_text().splitlines()) == 1

    def test_paired_dominance_summary_present(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "regularity", "--gammas", "0.1,0.5", "--deltas", "0.01", "--trials", 120,
            "--K", 10, "--d", 20, "--instance-optimal", "--out", out,
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert "paired_dominance" in summary
        for cfg in summary["paired_dominance"]["configs"]:
            if cfg.get("raw_dominance_frac") is not None:
                assert cfg["raw_dominance_frac"] >= 0.99
        records = (out / "records.csv").read_text()
        assert "ce-opt" in records

    @pytest.mark.parametrize("argv", [
        ("--gammas", "0.1,0.1", "--deltas", "0.05,0.01"),
        ("--gammas", "0.5,0.05", "--deltas", "0.01,0.05,0.01"),
        ("--gammas", "0.1,0.5", "--deltas", "0.05", "--e-w", "4", "--instance-optimal"),
    ])
    def test_paired_dominance_from_written_records(self, tmp_path, argv):
        out = tmp_path / "run"
        assert run("regularity", *argv, "--trials", 30, "--K", 5, "--d", 7,
                   "--seed", 2, "--out", out) == EXIT_OK
        args = dict(zip(argv[::2], argv[1::2]))
        e_w = float(args.get("--e-w", 1.0))
        clf = uniform_classifier(generate_etf(7, 5, derive_seed(2, "etf")), e_w)
        gammas = [float(g) for g in args["--gammas"].split(",")]
        deltas = [float(d) for d in args["--deltas"].split(",")]
        steps = [("dr", float(np.sqrt(1.0 / clf.e_w)))] + [("ce", g) for g in gammas]
        runs = [run_regularity_sweep(clf, steps, d, 30, 2) for d in deltas]
        expected = pair_dominance(steps, deltas, runs)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["paired_dominance"] == json.loads(json.dumps(expected))
        verdict = json.loads(json.dumps(check_sweep(steps, deltas, runs)[0]))
        assert summary["dr_bound"] == verdict["dr_bound"]
        assert len(expected["configs"]) == len(gammas) * len(deltas)

    def test_dr_reference_rate(self, tmp_path):
        out = tmp_path / "run"
        assert run("regularity", "--gammas", "0.1", "--deltas", "0.01", "--trials", 10,
                   "--K", 10, "--d", 16, "--e-w", 4, "--out", out) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        np.testing.assert_allclose(summary["paired_dominance"]["gamma_dr"], 0.5)  # sqrt(1/4)

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "-3", "--trials must be > 0, got -3"),
        ("--trials", "0", "--trials must be > 0, got 0"),
        ("--deltas", "0", "--deltas entries must be finite and > 0"),
        ("--deltas", "0.05,nan", "--deltas entries must be finite and > 0"),
        ("--deltas", "0.05,x", "--deltas must be comma-separated numbers"),
        ("--gammas", "0.1,inf", "--gammas entries must be finite"),
        ("--e-h", "0", "--e-h must be finite and > 0"),
        ("--e-w", "inf", "--e-w must be finite and > 0"),
    ])
    def test_bad_flags_rejected_before_trials(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "run"
        code = run("regularity", flag, value, "--K", 4, "--d", 8, "--out", out)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                "regularity", "--gammas", "0.5", "--deltas", "0.05", "--trials", 50, "--K", 4, "--d", 8,
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
        assert not (tmp_path / "x").exists()

    def test_diverged_later_regime_leaves_no_out(self, tmp_path, capsys):
        """learnable-ce finishes at e_h = 5e-324; etf-ce then diverges, and nothing is written."""
        cfg = write_train_config(tmp_path / "cfg.json", regimes=["learnable-ce", "etf-ce"],
                                 train={"epochs": 3, "e_h": 5e-324})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_DIVERGED
        out = capsys.readouterr()
        assert "train: learnable-ce seed 0" in out.out and "numeric divergence" in out.err
        assert not (tmp_path / "x").exists()

    def test_bad_dataset_row_named(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("label,x0,x1\n0,1.0,2.0\n1,0.5\n")
        cfg = write_train_config(
            tmp_path / "cfg.json", dataset={"num_classes": 2, "train_csv": str(data)}
        )
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG
        assert f"{data} line 3: 1 features" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block,value,message",
        [
            ("train", {"epochs": 1, "lr": 0.1}, "unknown key 'train.lr'"),
            ("train", {"epochs": 1, "regime": "etf-dr"}, "unknown key 'train.regime'"),
            ("train", {"epochs": 1, "classifier_mode": "learnable"},
             "unknown key 'train.classifier_mode'"),
            ("dataset", {"num_classes": 3, "input_dim": 6, "n_max": 20,
                         "imbalance_ratio": 0.25, "colour": 1}, "unknown key 'dataset.colour'"),
            ("model", {"hidden_sizes": [8], "depth": 2}, "unknown key 'model.depth'"),
            ("model", [8], "config field 'model' must be an object"),
            ("train", {"epochs": "x"}, "'train.epochs' must be an integer >= 1, got 'x'"),
            ("train", {"epochs": 0}, "'train.epochs' must be an integer >= 1, got 0"),
            ("train", {"epochs": 1.5}, "'train.epochs' must be an integer >= 1, got 1.5"),
            ("train", {"epochs": 1, "batch_size": "x"},
             "'train.batch_size' must be an integer >= 1, got 'x'"),
            ("train", {"epochs": 1, "milestones": 5},
             "'train.milestones' must be a list of integers, got 5"),
            ("train", {"epochs": 1, "momentum": None},
             "'train.momentum' must be a finite number, got None"),
            ("dataset", {"num_classes": 3, "input_dim": 6, "n_max": "10", "imbalance_ratio": 0.25},
             "'dataset.n_max' must be an integer >= 1, got '10'"),
            ("dataset", {"num_classes": 3, "input_dim": 6, "n_max": 20, "imbalance_ratio": 0.25,
                         "test_csv": "t.csv"}, "'dataset.test_csv' needs 'dataset.train_csv'"),
            ("model", {"hidden_sizes": 3}, "'model.hidden_sizes' must be a list of integers >= 1"),
            ("seeds", [0.5], "'seeds' must be a list of one or more integers >= 0, got [0.5]"),
            ("seeds", [-1], "'seeds' must be a list of one or more integers >= 0, got [-1]"),
            ("regimes", "etf-dr",
             "'regimes' must be a list of one or more regimes from learnable-ce"),
            ("train", {"epochs": 1, "e_h": -1}, "config block 'train': e_h must be > 0, got -1"),
            ("train", {"epochs": 1, "e_h": 0}, "config block 'train': e_h must be > 0, got 0"),
            ("train", {"epochs": 1, "step_size": -0.1},
             "config block 'train': step_size must be > 0, got -0.1"),
            ("train", {"epochs": 1, "step_size": 0.0},
             "config block 'train': step_size must be > 0, got 0.0"),
            ("train", {"epochs": 1, "momentum": 1},
             "config block 'train': momentum must be in [0, 1), got 1"),
            ("train", {"epochs": 1, "momentum": -0.5},
             "config block 'train': momentum must be in [0, 1), got -0.5"),
            ("dataset", {"num_classes": 1, "input_dim": 6, "n_max": 20, "imbalance_ratio": 0.25},
             "'dataset.num_classes' must be >= 2, got 1"),
            ("model", {"hidden_sizes": [8], "feature_dim": 1},
             "'model.feature_dim' must be >= dataset.num_classes - 1 = 2, got 1"),
            ("seeds", [], "'seeds' must be a list of one or more integers >= 0, got []"),
            ("regimes", [], "'regimes' must be a list of one or more regimes from learnable-ce, "
                            "learnable-wce, etf-ce, etf-dr, got []"),
            ("regimes", ["etf-dr", "etf-ce", "etf-dr"], "config field 'regimes' repeats 'etf-dr'"),
            ("seeds", [0, 0], "config field 'seeds' repeats 0"),
        ],
    )
    def test_bad_train_config_named(self, tmp_path, capsys, block, value, message):
        """``block`` is a config block or a top-level key; nothing runs or is written."""
        cfg = write_train_config(tmp_path / "cfg.json", **{block: value})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_default_feature_dim_checked(self, tmp_path, capsys):
        """Without model.feature_dim the default 16 must still span the ETF frame."""
        dataset = {"num_classes": 20, "input_dim": 6, "n_max": 20, "imbalance_ratio": 0.25}
        cfg = write_train_config(tmp_path / "cfg.json", dataset=dataset, model={})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG
        assert "'model.feature_dim' must be >= dataset.num_classes - 1 = 19, got 16" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_seed_flag_not_accepted(self, tmp_path, capsys, command):
        """train seeds come from the config's ``seeds``; report has none."""
        cfg = write_train_config(tmp_path / "cfg.json")
        argv = ["--config", cfg] if command == "train" else ["--runs", tmp_path]
        with pytest.raises(SystemExit) as exc:
            run(command, *argv, "--seed", 3, "--out", tmp_path / "x")
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (("regularity", "--K", 4, "--d", 8, "--losses", "ce"), "--losses ce"),
        (("etf", "--d", 3, "--K", 4, "--label", "x"), "--label x"),
    ])
    def test_removed_flags_not_accepted(self, tmp_path, capsys, argv, flag):
        """Every regularity run takes the DR step; the manifest has no free-form label."""
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "x")
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["train_csv", "test_csv"])
    def test_missing_dataset_file_named(self, tmp_path, capsys, key):
        data = tmp_path / "data.csv"
        data.write_text("label,x0\n0,1.0\n1,2.0\n")
        dataset = {"num_classes": 2, "train_csv": str(data), key: str(tmp_path / "nope.csv")}
        cfg = write_train_config(tmp_path / "cfg.json", dataset=dataset)
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG
        assert f"cannot read dataset file {tmp_path / 'nope.csv'}" in capsys.readouterr().err

    def test_csv_dataset_ignores_input_dim(self, tmp_path):
        """The frame dimension check applies to the generator, not to a CSV's columns."""
        data = tmp_path / "data.csv"
        data.write_text("label,x0\n0,1.0\n1,2.0\n2,3.0\n")
        dataset = {"num_classes": 3, "train_csv": str(data), "input_dim": 1}
        cfg = write_train_config(tmp_path / "cfg.json", dataset=dataset, train={"epochs": 1})
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_OK

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


#: one well-formed run of a train summary.json
REPORT_RUN = {"regime": "etf-dr", "seed": 0, "final_bal_acc": 0.5, "final_loss": 1.0,
              "final_quarter_cos_ff_std": 0.0, "final_quarter_cos_fc_std": 0.0}


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

    @pytest.mark.parametrize("summary,message", [
        ({}, "has no 'runs' list"),
        ({"runs": [{"seed": 0, "final_bal_acc": 0.5}]}, "run 0 is missing regime, final_loss"),
        ({"runs": "x"}, "has no 'runs' list"),
        ({"runs": [dict(REPORT_RUN, final_bal_acc="x")]}, "run 0 has a non-numeric metric"),
        (("summary.json", "{"), "is not valid JSON"),
        (("manifest.json", '{"command": "train",'), "is not valid JSON"),
        (("manifest.json", "[1]"), "is not a JSON object"),
        ({"runs": [dict(REPORT_RUN, regime=["etf-dr"])]},
         "run 0 needs a string regime and an integer seed >= 0, got regime ['etf-dr'], seed 0"),
        ({"runs": [dict(REPORT_RUN, regime="a"), dict(REPORT_RUN, regime=1)]},
         "run 1 needs a string regime and an integer seed >= 0, got regime 1, seed 0"),
        ({"runs": [dict(REPORT_RUN, seed=[0])]},
         "run 0 needs a string regime and an integer seed >= 0, got regime 'etf-dr', seed [0]"),
    ])
    def test_malformed_summary_named(self, tmp_path, capsys, summary, message):
        """``summary`` is written as summary.json, or is a (file, raw text) pair."""
        run_dir = tmp_path / "run"
        write_train_config(tmp_path / "cfg.json")
        assert run("train", "--config", tmp_path / "cfg.json", "--out", run_dir) == EXIT_OK
        if not isinstance(summary, tuple):
            summary = ("summary.json", json.dumps(summary))
        name, text = summary
        (run_dir / name).write_text(text)
        assert run("report", "--runs", run_dir, "--out", tmp_path / "x") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{run_dir}/{name}" in err and message in err

    @pytest.mark.parametrize("alias", ["{}", "{}/", "{}/../run", "./{}"])
    def test_repeated_run_rejected(self, tmp_path, capsys, monkeypatch, alias):
        """One run directory given twice, under any spelling, would count twice."""
        monkeypatch.chdir(tmp_path)
        write_train_config(tmp_path / "cfg.json")
        assert run("train", "--config", "cfg.json", "--out", "run") == EXIT_OK
        code = run("report", "--runs", "run", alias.format("run"), "--out", "x")
        assert code == EXIT_CONFIG
        assert f"--runs repeats {alias.format('run')}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--runs", empty, "--out", tmp_path / "x") == EXIT_CONFIG


PEELED = ("peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6, "--steps", 5)


#: a dataset CSV of three classes with no row of class 2
NO_CLASS_2 = "label,x0,x1\n0,1,2\n1,2,3\n0,3,4\n"


class TestInputRefusedBeforeOutput:
    """Bad input exits 2, names its flag, config key or file, and leaves no --out directory.

    A repeated flag takes its last value, so the extra flags override the base run.
    """

    @pytest.mark.parametrize("argv,named", [
        (("etf", "--d", 2, "--K", 4), "--d"),
        (("etf", "--d", 3, "--K", 1), "--K"),
        ((*PEELED, "--K", 1), "--K"),
        ((*PEELED, "--d", 2), "--d"),
        ((*PEELED, "--counts", "a,b,c,d"), "--counts"),
        ((*PEELED, "--tau", 0), "--tau"),
        ((*PEELED, "--tau", 2), "--tau"),
        ((*PEELED, "--n-max", 0), "--n-max"),
        ((*PEELED, "--n-max", 1, "--tau", 0.1), "--n-max"),
        ((*PEELED, "--mode", "lpm", "--d", 0), "--d must be > 0"),
        (("regularity", "--K", 1, "--d", 4, "--trials", 3), "--K"),
        (("regularity", "--K", 4, "--d", 2, "--trials", 3), "--d"),
        ((*PEELED, "--mode", "lpm", "--K", 1), "--K"),
        ((*PEELED, "--counts", "99999999999999999999,1,1,1"), "--counts"),
        ((*PEELED, "--counts", "9223372036854775807,1,1,1"),
         "--K/--counts: class_counts must total < 2**63"),
        # 10**13 rows of 6 floats: 437 TiB, past any address space, so numpy refuses at once
        ((*PEELED, "--counts", "10000000000000,1,1,1"), "--K/--counts: Unable to allocate"),
        ((*PEELED, "--steps", 10**23), f"--steps must be < 2**63, got {10**23}"),
        ((*PEELED, "--steps", -10**23), f"--steps must be >= 0, got {-10**23}"),
        ((*PEELED, "--d", 2**63), f"--d must be < 2**63, got {2**63}"),
        (("regularity", "--K", 4, "--d", 6, "--trials", 10**23),
         f"--trials must be < 2**63, got {10**23}"),
        (("etf", "--d", 3, "--K", 4, "--seed", -1), "--seed must be >= 0, got -1"),
        ((*PEELED, "--seed", -1), "--seed must be >= 0, got -1"),
        (("regularity", "--K", 4, "--d", 6, "--trials", 3, "--seed", -1),
         "--seed must be >= 0, got -1"),
        ((*PEELED, "--minor-classes", "0,9"), "--minor-classes needs lpm mode"),
    ])
    def test_flags(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x"
        assert run(*argv, "--out", out) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_not_a_directory(self, tmp_path, capsys, under):
        """An --out that is a file, or lies under one, is refused before the command runs."""
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        assert run("etf", "--d", 3, "--K", 4, "--out", out) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--out {out}: {blocker} exists and is not a directory" in captured.err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("block,value,named", [
        ("train", {"epochs": 3, "milestones": [5]}, ("'train'", "milestones")),
        ("train", {"epochs": 3, "milestones": [2, 1]}, ("'train'", "milestones")),
        ("dataset", {"imbalance_ratio": 0}, ("'dataset'", "imbalance_ratio")),
        ("dataset", {"imbalance_ratio": 2}, ("'dataset'", "imbalance_ratio")),
        ("dataset", {"input_dim": 1}, ("'dataset.input_dim'",)),
        ("dataset", {"n_max": 1, "imbalance_ratio": 0.1}, ("'dataset'", "n_max")),
        # the generator overflows: the drawn features hold inf, and numpy stays silent
        pytest.param("dataset", {"noise_scale": 1e308},
                     ("config block 'dataset': features contain non-finite entries",),
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        ("train", {"epochs": 3, "milestones": [0]}, ("'train'", "milestones")),
        ("train", {"epochs": 3, "milestones": [-5]}, ("'train'", "milestones")),
    ])
    def test_train_config(self, tmp_path, capsys, block, value, named):
        base = {"num_classes": 3, "input_dim": 6, "n_max": 20, "imbalance_ratio": 0.25}
        cfg = write_train_config(tmp_path / "cfg.json",
                                 **{block: {**base, **value} if block == "dataset" else value})
        out = tmp_path / "x"
        assert run("train", "--config", cfg, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert not out.exists()

    @pytest.mark.parametrize("test_per_class,message", [
        (10**20, "config block 'dataset': test_per_class=100000000000000000000 is too large"),
        # 10**12 rows of 24 floats: 175 TiB, past any address space, so numpy refuses at once
        (10**12, "config block 'dataset': Unable to allocate"),
    ])
    def test_test_per_class_too_large(self, tmp_path, capsys, test_per_class, message):
        cfg = write_train_config(tmp_path / "cfg.json", dataset={
            "num_classes": 3, "input_dim": 24, "n_max": 20, "imbalance_ratio": 0.25,
            "test_per_class": test_per_class})
        out = tmp_path / "x"
        assert run("train", "--config", cfg, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # numpy warns when a cast to int64 wraps
    def test_n_max_past_int64(self, tmp_path, capsys):
        n_max = 99999999999999999999
        cfg = write_train_config(tmp_path / "cfg.json", dataset={
            "num_classes": 3, "input_dim": 6, "n_max": n_max, "imbalance_ratio": 0.25})
        for argv, named in (((*PEELED, "--n-max", n_max), "--n-max/--tau"),
                            (("train", "--config", cfg), "config block 'dataset'")):
            out = tmp_path / "x"
            assert run(*argv, "--out", out) == EXIT_CONFIG
            assert f"{named}: n_max={n_max} is too large" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("key,text,message", [
        ("train_csv", "0,1,2\n1,2,3\n2,3,4\n0,1.5,2\n", "line 1 is a data row, not the header"),
        ("train_csv", NO_CLASS_2, "class 2 has no samples"),
        ("test_csv", NO_CLASS_2, "class 2 has no samples"),
        ("test_csv", "label,x0\n0,1\n1,2\n2,3\n", "has 1 features, not 2"),
        ("train_csv", "label,x0,x1\n0,1,2\n1,nan,3\n2,3,4\n",
         "features contain non-finite entries"),
        ("test_csv", "label,x0,x1\n0,1,2\n1,2,-inf\n2,3,4\n",
         "features contain non-finite entries"),
    ])
    def test_dataset_files(self, tmp_path, capsys, key, text, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("label,x0,x1\n0,1,2\n1,2,3\n2,3,4\n0,1.5,2\n")
        bad.write_text(text)
        dataset = {"num_classes": 3, "train_csv": str(good), key: str(bad)}
        cfg = write_train_config(tmp_path / "cfg.json", dataset=dataset,
                                 model={"hidden_sizes": [4], "feature_dim": 3})
        out = tmp_path / "x"
        assert run("train", "--config", cfg, "--out", out) == EXIT_CONFIG
        assert f"dataset file: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumericBreakdownDiverges:
    """A number out of floating-point range mid-run exits 3 where it happens."""

    @pytest.mark.parametrize("argv,message", [
        # |h|^2 overflows, so sqrt(E/|h|^2) is 0: the projection would zero the features
        (("--mode", "dlpm", "--loss", "dr", "--gamma", "1e300"), "no finite projection"),
        (("--mode", "lpm", "--loss", "ce", "--gamma", "1e300"), "no finite projection"),
        # E_W/|w|^2 underflows to 0: the projection would zero every column
        (("--mode", "lpm", "--loss", "ce", "--gamma", "1e-8", "--e-h", "1e150", "--e-w", "1e-300"),
         "no finite projection"),
        # a subnormal E_W: the norms of the probed columns underflow
        (("--mode", "lpm", "--loss", "ce", "--e-w", "5e-324"), "column underflow"),
    ])
    def test_peeled(self, tmp_path, capsys, argv, message):
        code = run("peeled", "--K", 4, "--d", 6, "--counts", "5,3,2,1", "--steps", 20, *argv,
                   "--out", tmp_path / "x")
        assert code == EXIT_DIVERGED
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv,message", [
        (("--deltas", "1e300"), "start of trial 0 at delta=1e+300 left the sphere"),
        (("--e-h", "5e-324"), "left the sphere"),
    ])
    def test_regularity_start(self, tmp_path, capsys, argv, message):
        code = run("regularity", "--K", 4, "--d", 6, "--trials", 5, *argv, "--out", tmp_path / "x")
        assert code == EXIT_DIVERGED
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_regularity_instance_rate_undefined(self, tmp_path, capsys):
        """At e_h = 1e4 the logits saturate: p_c rounds to 1, and the rate would divide by 0."""
        argv = ("regularity", "--K", 10, "--d", 20, "--trials", 20, "--e-h", "1e4")
        assert run(*argv, "--instance-optimal", "--out", tmp_path / "x") == EXIT_DIVERGED
        assert ("instance-optimal rate undefined in trial 0: p_c rounds to 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()
        assert run(*argv, "--out", tmp_path / "y") == EXIT_OK
        assert "regularity: ok (300 records)" in capsys.readouterr().out

    @pytest.mark.parametrize("regime,e_h",
                             [("etf-dr", 1e300), ("etf-dr", 5e-324), ("etf-ce", 5e-324)])
    def test_train_features_collapse(self, tmp_path, capsys, regime, e_h):
        """Dead units after a blown-up first epoch, or features too small to square."""
        cfg = write_train_config(
            tmp_path / "cfg.json",
            dataset={"num_classes": 3, "input_dim": 4, "n_max": 12, "imbalance_ratio": 0.5},
            model={"hidden_sizes": [4], "feature_dim": 3},
            train={"epochs": 2, "batch_size": 8, "e_h": e_h},
            regimes=[regime],
        )
        assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_DIVERGED
        assert "train features collapsed to one point after epoch 0" in capsys.readouterr().err
