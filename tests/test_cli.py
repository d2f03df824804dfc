"""End-to-end CLI runs: artifacts, exit codes, byte-level determinism."""

import argparse
import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etfnc import cli
from etfnc.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, build_parser, main
from etfnc.batches import FeatureBatch
from etfnc.etf import generate_etf, uniform_classifier
from etfnc.regularity import check_sweep, run_regularity_sweep
from etfnc.serialize import derive_seed


SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main([str(a) for a in argv])


def payload_bytes(run_dir):
    """All artifact bytes except the manifest (which holds the timestamp)."""
    out = {}
    for p in sorted(Path(run_dir).iterdir()):
        if p.name != "manifest.json":
            out[p.name] = p.read_bytes()
    return out


#: a small valid peeled run; a repeated flag takes its last value, so tests extend it
PEELED = ("peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6, "--counts", "5,3,2,1",
          "--steps", 5)


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
        assert set(manifest) == {"command", "config", "artifacts", "created_at_unix",
                                 "environment"}
        assert set(manifest["environment"]) == {"python", "numpy", "blas", "threads"}
        assert set(manifest["environment"]["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
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
            "--counts", "30,17,9,5,3", "--gamma", 0.5, "--steps", 3000,
            "--stop-tol", "1e-3", "--out", out,
        )
        assert code == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].split(",")[:4] == ["step", "loss", "gap", "grad_norm"]
        final_gap = float(lines[-1].split(",")[2])
        assert final_gap < 1e-3
        state = json.loads((out / "final_state.json").read_text())
        assert state["classifier"]["num_classes"] == 5

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
            ("2,x", "--minor-classes must be comma-separated integers, got '2,x'"),
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
                   "--counts", ",".join(["100"] * K), "--out", out) == EXIT_OK
        assert len((out / "probe.csv").read_text().splitlines()) == 2  # header, one pair

    def test_counts_required(self, tmp_path, capsys):
        """The class counts have one way in: there is no default and no --n-max/--tau."""
        with pytest.raises(SystemExit) as exc:
            run("peeled", "--mode", "dlpm", "--loss", "ce", "--K", 4, "--d", 6,
                "--out", tmp_path / "x")
        assert exc.value.code == EXIT_CONFIG
        assert "the following arguments are required: --counts" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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
                "--counts", "10,8,6,5", "--gamma", 1.0, "--steps", 50,
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

    def test_means_equal_to_rounding_pass(self, tmp_path):
        """Starts 1e-6 to 1e-5 of |h*| off h*: both raw ratios sit within ~1e-11 of 1,
        and DR's mean rounds above CE's."""
        out = tmp_path / "run"
        code = run("regularity", "--K", 4, "--d", 6, "--trials", 20, "--e-h", "1e8",
                   "--deltas", "1e-6,5e-6,1e-5", "--out", out)
        assert code == EXIT_OK
        configs = json.loads((out / "summary.json").read_text())["paired_dominance"]["configs"]
        assert all(c["raw_dominance_frac"] == 1.0 for c in configs)
        assert any(c["mean_ce_raw"] < c["mean_dr_raw"] for c in configs)

    def test_all_trials_excluded_fails(self, tmp_path, capsys):
        # a delta below DIST_GUARD puts every start at the optimum; both scale with sqrt(E_H)
        for e_h, guard in (("1", "1e-12"), ("1e8", "1e-08")):
            out = tmp_path / e_h
            code = run("regularity", "--deltas", "1e-13", "--trials", 20, "--K", 4, "--d", 8,
                       "--e-h", e_h, "--out", out)
            assert code == EXIT_CHECK_FAILED
            assert f"all 20 trials started within {guard} of the optimum" in capsys.readouterr().err
            assert len((out / "records.csv").read_text().splitlines()) == 1

    @pytest.mark.parametrize("e_h", ["1e-300", "1e-30", "1e12", "1e160", "1e300"])
    def test_starts_scale_free(self, tmp_path, e_h):
        """Deltas are fractions of |h*| = sqrt(E_H): every E_H sees the starts of E_H = 1."""
        runs = {}
        for scale in ("1", e_h):
            out = tmp_path / scale
            assert run("regularity", "--K", 4, "--d", 6, "--trials", 20, "--e-h", scale,
                       "--out", out) == EXIT_OK
            runs[scale] = list(csv.DictReader((out / "records.csv").read_text().splitlines()))
        assert len(runs[e_h]) == len(runs["1"]) == 300
        # DR at rate sqrt(E_H/E_W) is scale-free too; CE at a fixed rate is not
        for column, kinds in (("cos_before", ("ce", "dr")), ("ratio", ("dr",)),
                              ("raw_ratio", ("dr",))):
            scaled, unit = ([float(r[column]) for r in rows if r["loss_kind"] in kinds]
                            for rows in (runs[e_h], runs["1"]))
            np.testing.assert_allclose(scaled, unit, rtol=1e-9)

    def test_divergence_names_first_trial_over_every_delta(self, tmp_path, capsys):
        """The sweep runs trial by trial, each trial over every delta.

        |h* + delta u|^2 overflows at the first delta from trial 12 on, at the
        second from trial 0: trial 0 at the second delta is named.
        """
        out = tmp_path / "run"
        assert run("regularity", "--K", 4, "--d", 6, "--trials", 20,
                   "--deltas", "1.3407807929942596e154,1e300", "--out", out) == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "numeric divergence: start of trial 0 at delta=1e+300 left the sphere\n")
        assert not out.exists()
        assert run("regularity", "--K", 4, "--d", 6, "--trials", 20,
                   "--deltas", "1.3407807929942596e154", "--out", out) == EXIT_DIVERGED
        assert "start of trial 12 at delta=1.34078e+154" in capsys.readouterr().err
        assert not out.exists()

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
        runs = run_regularity_sweep(clf, steps, deltas, 30, 2)
        verdict = json.loads(json.dumps(check_sweep(steps, deltas, runs)[0]))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["paired_dominance"] == verdict["paired_dominance"]
        assert summary["dr_bound"] == verdict["dr_bound"]
        assert len(verdict["paired_dominance"]["configs"]) == len(gammas) * len(deltas)

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
        # a CE step at a rate <= 0 never moves toward h*: the dominance check would pass vacuously
        ("--gammas", "0", "--gammas entries must be finite and > 0, got '0'"),
        ("--gammas", "0.1,-1", "--gammas entries must be finite and > 0, got '0.1,-1'"),
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

    def test_aggregates_three_seeds(self, tmp_path):
        """by_regime holds the mean, std and count of final_bal_acc over the config's seeds."""
        cfg = write_train_config(tmp_path / "cfg.json", seeds=[0, 1, 2])
        assert run("train", "--config", cfg, "--out", tmp_path / "run") == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["runs"]) == 3 * 2  # seeds x regimes
        for regime in ("learnable-ce", "etf-dr"):
            accs = [r["final_bal_acc"] for r in summary["runs"] if r["regime"] == regime]
            assert summary["by_regime"][regime] == {
                "mean_bal_acc": np.mean(accs), "std_bal_acc": np.std(accs), "runs": 3}

    def test_integer_in_float_field_runs_as_float(self, tmp_path):
        """A JSON integer past int64 in a float field runs as the float it names."""
        cfg = tmp_path / "cfg.json"
        for name, e_h in (("int", 10**20), ("float", 1e20)):
            write_train_config(cfg, train={"epochs": 2, "e_h": e_h}, regimes=["etf-dr"])
            assert run("train", "--config", cfg, "--out", tmp_path / name) == EXIT_OK
        assert payload_bytes(tmp_path / "int") == payload_bytes(tmp_path / "float")

    def test_null_step_size_is_the_regime_default(self, tmp_path):
        """TrainConfig takes step_size None as the regime's default, so JSON null means unset."""
        cfg = tmp_path / "cfg.json"
        for name, train in (("null", {"epochs": 2, "step_size": None}), ("unset", {"epochs": 2})):
            write_train_config(cfg, train=train)
            assert run("train", "--config", cfg, "--out", tmp_path / name) == EXIT_OK
        assert payload_bytes(tmp_path / "null") == payload_bytes(tmp_path / "unset")

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
            ("train", {"epochs": "x"},
             "config block 'train': epochs must be an integer >= 1, got 'x'"),
            ("train", {"epochs": 0}, "config block 'train': epochs must be an integer >= 1, got 0"),
            ("train", {"epochs": 1.5},
             "config block 'train': epochs must be an integer >= 1, got 1.5"),
            ("train", {"epochs": 1, "batch_size": "x"},
             "config block 'train': batch_size must be an integer >= 1, got 'x'"),
            ("train", {"epochs": 1, "milestones": 5},
             "config block 'train': milestones must be a list of integers, got 5"),
            ("train", {"epochs": 1, "momentum": None},
             "config block 'train': momentum must be a finite number, got None"),
            ("dataset", {"num_classes": 3, "input_dim": 6, "n_max": "10", "imbalance_ratio": 0.25},
             "config block 'dataset': n_max must be an integer >= 1, got '10'"),
            # a dataset comes from the generator only; train() takes arrays through the library
            ("dataset", {"num_classes": 3, "train_csv": "t.csv"},
             "config has unknown key 'dataset.train_csv'"),
            ("model", {"hidden_sizes": 3}, "'model.hidden_sizes' must be a list of integers >= 1"),
            ("seeds", [0.5],
             "'seeds' must be a list of one or more integers >= 0 and < 2**63, got [0.5]"),
            ("seeds", [-1],
             "'seeds' must be a list of one or more integers >= 0 and < 2**63, got [-1]"),
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
             "config block 'dataset': num_classes must be an integer >= 2, got 1"),
            ("model", {"hidden_sizes": [8], "feature_dim": 1},
             "'model.feature_dim' must be >= dataset.num_classes - 1 = 2, got 1"),
            ("seeds", [],
             "'seeds' must be a list of one or more integers >= 0 and < 2**63, got []"),
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

    def test_seed_flag_not_accepted(self, tmp_path, capsys):
        """train seeds come from the config's ``seeds``."""
        cfg = write_train_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            run("train", "--config", cfg, "--seed", 3, "--out", tmp_path / "x")
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (("regularity", "--K", 4, "--d", 8, "--losses", "ce"), "--losses ce"),
        (("etf", "--d", 3, "--K", 4, "--label", "x"), "--label x"),
        ((*PEELED, "--tau", 0.5), "--tau 0.5"),
        ((*PEELED, "--n-max", 8), "--n-max 8"),
        ((*PEELED, "--mode", "dlpm", "--init-at-optimum"), "--init-at-optimum"),
    ])
    def test_removed_flags_not_accepted(self, tmp_path, capsys, argv, flag):
        """Every regularity run takes the DR step; the manifest has no free-form label;
        peeled takes its class counts from --counts only and starts from the drawn features."""
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "x")
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_report_command_gone(self, tmp_path, capsys):
        """summary.json's by_regime holds what report aggregated over run directories."""
        with pytest.raises(SystemExit) as exc:
            run("report", "--runs", tmp_path, "--out", tmp_path / "x")
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'report'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path):
        assert run("train", "--config", tmp_path / "nope.json", "--out", tmp_path / "x") == EXIT_CONFIG

    @pytest.mark.parametrize("text,message", [
        ("{", "config file {} is not valid JSON"),
        ("[1]", "config must be a JSON object"),
    ])
    def test_malformed_config_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run("train", "--config", path, "--out", tmp_path / "x") == EXIT_CONFIG
        assert message.format(path) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_train_config(tmp_path / "cfg.json")
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("train", "--config", cfg, "--out", out)
            payloads.append(payload_bytes(out))
        assert payloads[0] == payloads[1]


class TestTrainPool:
    """With BLAS on one thread, train's runs go through a fork pool, with the same payloads."""

    REGIMES = ["learnable-ce", "learnable-wce", "etf-ce", "etf-dr"]

    @pytest.mark.parametrize("env,runs,workers", [
        ({}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 3),
        # an "os.<name>" entry removes that function, as on macOS (sched_getaffinity) or Windows
        ({"OPENBLAS_NUM_THREADS": "1", "os.sched_getaffinity": None}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "os.fork": None}, 4, 1),
    ])
    def test_workers(self, monkeypatch, env, runs, workers):
        """The first of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS that is set decides, as in OpenBLAS."""
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        for name, value in env.items():
            if name.startswith("os."):
                monkeypatch.delattr(os, name[3:])
            else:
                monkeypatch.setenv(name, value)
        assert cli._train_workers(runs) == workers

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU runs no pool")
    def test_pool_payloads_equal_in_process(self, tmp_path):
        """Each side starts with its BLAS thread count fixed, as the benchmark starts its runs."""
        cfg = write_train_config(tmp_path / "cfg.json", regimes=self.REGIMES, seeds=[0, 1])
        payloads = []
        for threads in ("1", "2"):  # "2" runs in process
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "etfnc.cli", "train", "--config", cfg, "--out", out],
                env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            payloads.append(payload_bytes(out))
        assert len(payloads[0]) == 2 * 2 * len(self.REGIMES) + 1
        assert payloads[0] == payloads[1]

    def test_workers_take_jobs_from_the_fork(self, tmp_path, monkeypatch):
        """A dataset that cannot be pickled still trains in the pool: no job crosses a pipe."""
        cfg = write_train_config(tmp_path / "cfg.json", regimes=self.REGIMES[:2],
                                 train={"epochs": 2})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        payloads = []
        for threads in ("2", "1"):  # in process, then pooled
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            if threads == "1":
                assert cli._train_workers(2) == 2

                def refuse(self, protocol):
                    raise TypeError("a FeatureBatch was pickled")
                monkeypatch.setattr(FeatureBatch, "__reduce_ex__", refuse)
            out = tmp_path / f"threads{threads}"
            assert run("train", "--config", cfg, "--out", out) == EXIT_OK
            payloads.append(payload_bytes(out))
            assert multiprocessing.active_children() == []
            assert cli._JOBS == []
        assert len(payloads[1]) == 2 * 2 + 1
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("regimes,message", [
        (REGIMES[:3], "non-finite logits in softmax"),
        # job 0 fails with a message of its own; a later job's error must not overtake it
        (["etf-dr", "etf-ce", "learnable-ce"], "training diverged at epoch 0"),
    ])
    def test_pooled_divergence(self, tmp_path, capsys, monkeypatch, regimes, message):
        """The first failing run in job order decides the message; no --out, no live worker."""
        cfg = write_train_config(tmp_path / "cfg.json", regimes=regimes,
                                 train={"epochs": 3, "batch_size": 8, "step_size": 1e308})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        errors = []
        for threads in ("1", "2"):  # pooled, then in process
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            assert cli._train_workers(3) == (2 if threads == "1" else 1)
            assert run("train", "--config", cfg, "--out", tmp_path / "x") == EXIT_DIVERGED
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / "x").exists()
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1] == f"numeric divergence: {message}\n"


def test_cli_import_leaves_multiprocessing_out():
    """The benchmark's setup_s times `import etfnc.cli`; a command's module waits for its run.

    The package root loads no submodule; the cli loads only the modules every command shares.
    """
    code = ("import json, sys\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith(('etfnc.', 'multi')))\n"
            "import etfnc\nroot = loaded()\nimport etfnc.cli\nprint(json.dumps([root, loaded()]))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    root, cli_loaded = json.loads(proc.stdout)
    assert root == []
    assert cli_loaded == ["etfnc.batches", "etfnc.cli", "etfnc.etf", "etfnc.losses",
                          "etfnc.serialize"]


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
        ((*PEELED, "--counts", "5,3,2.5,1"),
         "--counts must be comma-separated integers, got '5,3,2.5,1'"),
        ((*PEELED, "--counts", ""), "--K/--counts: class_counts must be K=4 integers >= 1"),
        ((*PEELED, "--counts", "5,3,0,1"), "--K/--counts: class_counts must be K=4 integers >= 1"),
        ((*PEELED, "--mode", "lpm", "--counts", "5,3,2"),
         "--K/--counts: class_counts must be K=4 integers >= 1"),
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
        # sizes numpy refuses at once, before allocating anything
        ((*PEELED, "--mode", "lpm", "--d", 2**62), "--d/--K/--counts: array is too big"),
        ((*PEELED, "--d", 2**62), "--d/--K/--counts: array is too big"),
        # the sphere of d = 1 is two points: a regularity start has no tangent direction
        (("regularity", "--K", 2, "--d", 1, "--trials", 3),
         "--d/--K: regularity experiment needs d >= 2, got d=1"),
        (("regularity", "--K", 4, "--d", 6, "--trials", 3, "--gammas=-1"),
         "--gammas entries must be finite and > 0, got '-1'"),
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

    def test_out_empty(self, tmp_path, capsys, monkeypatch):
        """An empty --out names no directory: refused before the command runs."""
        monkeypatch.chdir(tmp_path)
        assert run("etf", "--d", 3, "--K", 4, "--out", "") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out must name a directory, got ''" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block,value,named", [
        ("train", {"epochs": 3, "milestones": [5]}, ("'train'", "milestones")),
        ("train", {"epochs": 3, "milestones": [2, 1]}, ("'train'", "milestones")),
        ("dataset", {"imbalance_ratio": 0}, ("'dataset'", "imbalance_ratio")),
        ("dataset", {"imbalance_ratio": 2}, ("'dataset'", "imbalance_ratio")),
        ("dataset", {"input_dim": 1},
         ("config block 'dataset': input_dim must be an integer >= 2, got 1",)),
        ("dataset", {"n_max": 1, "imbalance_ratio": 0.1}, ("'dataset'", "n_max")),
        # the generator overflows: the drawn features hold inf, and numpy stays silent
        pytest.param("dataset", {"noise_scale": 1e308},
                     ("config block 'dataset': features contain non-finite entries",),
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        ("train", {"epochs": 3, "milestones": [0]}, ("'train'", "milestones")),
        ("train", {"epochs": 3, "milestones": [-5]}, ("'train'", "milestones")),
        # an integer past float range
        ("train", {"epochs": 3, "e_h": 10**400},
         ("config block 'train': e_h must be a finite number",)),
        ("dataset", {"noise_scale": -10**400},
         ("config block 'dataset': noise_scale must be a finite number",)),
        # sizes numpy refuses at once, before allocating anything
        ("model", {"hidden_sizes": [2**62]}, ("config block 'model': array is too big",)),
        ("model", {"feature_dim": 2**62}, ("config block 'model': array is too big",)),
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

    @pytest.mark.parametrize("seed", [2**63, 10**300], ids=["2**63", "10**300"])
    def test_seed_past_int64(self, tmp_path, capsys, seed):
        """A seed names payload files; one past int64 is refused before any training."""
        cfg = write_train_config(tmp_path / "cfg.json", seeds=[0, seed])
        out = tmp_path / "x"
        assert run("train", "--config", cfg, "--out", out) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("config field 'seeds' must be a list of one or more integers >= 0 and < 2**63, "
                f"got [0, {seed}]") in captured.err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # numpy warns when a cast to int64 wraps
    def test_n_max_past_int64(self, tmp_path, capsys):
        n_max = 99999999999999999999
        cfg = write_train_config(tmp_path / "cfg.json", dataset={
            "num_classes": 3, "input_dim": 6, "n_max": n_max, "imbalance_ratio": 0.25})
        out = tmp_path / "x"
        assert run("train", "--config", cfg, "--out", out) == EXIT_CONFIG
        assert f"config block 'dataset': n_max={n_max} is too large" in capsys.readouterr().err
        assert not out.exists()

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
        # the step-0 record overflows: DR's squared residual, and |h - h*|^2 near 4 E_H
        (("--mode", "dlpm", "--loss", "dr", "--e-w", "1e308"),
         "loss or distance to the optimum out of range at step 0"),
        (("--mode", "dlpm", "--loss", "ce", "--e-h", "1.7976931348623157e308"),
         "loss or distance to the optimum out of range at step 0"),
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
        # |w_c|^2 underflows: the cosines would divide by 0
        (("--e-w", "5e-324"), "classifier column norms under- or overflow"),
        # the step leaves h finite, but its squared norm overflows in the projection
        (("--gammas", "1e300"), "no finite projection"),
        # a subnormal |h0|^2 = E_H: project_ball's ulp nudges would not shrink it
        (("--e-h", "1e-320"), "start of trial 0 at delta=0.01 left the sphere"),
        # CE's raw ratio |pre - h*|^2 / |h0 - h*|^2 overflows; summary.json would hold Infinity
        (("--gammas", "1e153"), "raw ratio not finite in trial 0 at delta=0.01"),
        (("--e-h", "1e-307"), "raw ratio not finite in trial 0 at delta=0.01"),
        # every raw ratio is finite, about 1e307, but the sum of 20 overflows in their mean
        (("--gammas", "1e152", "--trials", "20"),
         "mean ratio overflows at delta=0.01, gamma_ce=1e+152"),
        # CE's gradient is about |w_c| = 100, so the step itself leaves float range
        (("--gammas", "1e308", "--e-h", "1e-4", "--e-w", "1e4"),
         "non-finite step in trial 0 at delta=0.01, step (ce, 1e+308)"),
        # a projection divergence names its trial, delta and step too
        (("--gammas", "1e308", "--e-w", "1e4", "--deltas", "0.01,0.05"),
         "squared norm inf has no finite projection onto |x|^2 <= 1.0: "
         "trial 0 at delta=0.01, step (ce, 1e+308)"),
        # E_H / |pre|^2 = 1e-317 is subnormal: too few bits for the ulp nudges to end
        (("--e-h", "1e-307", "--gammas", "1e5"),
         "has no finite projection onto |x|^2 <= 1e-307: trial 0 at delta=0.01, step (ce, 100000)"),
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
        assert ("instance-optimal rate undefined in trial 0: p_c rounds to 1 "
                "at delta=0.01, step (ce-opt, None)" in capsys.readouterr().err)
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


def test_readme_flags_match_parser():
    """README.md names every subcommand option, and no option that does not parse."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sp in sub.choices.values() for a in sp._actions
               for opt in a.option_strings} - {"-h", "--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    # pip's --no-build-isolation; --flag=value is the placeholder of the exponent-form rule
    assert named - {"--no-build-isolation", "--flag"} == options
