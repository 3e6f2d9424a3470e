import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from biasadapt import harness
from biasadapt.cli import main
from biasadapt.harness import (
    EvalConfig,
    ExperimentConfig,
    bench_overhead,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from biasadapt.metrics import evaluate
from biasadapt.model import init_model, save_checkpoint
from biasadapt.numcore import make_rng

ROOT = Path(__file__).resolve().parent.parent

TINY_TRAIN = {
    "mode": "l2ac",
    "alpha": 0.05,
    "eta": 0.5,
    "tau": 0.6,
    "batch_n": 12,
    "batch_m": 12,
    "balanced_n": 8,
    "iters": 30,
    "extractor_hidden": [8],
    "feature_dim": 4,
    "attractor_hidden": 8,
    "seed": 7,
}

TINY_DATA = {
    "dim": 5,
    "num_classes": 4,
    "class_separation": 4.0,
    "labeled_profile": {"kind": "longtail", "gamma": 5.0, "n1": 20},
    "unlabeled_profile": {"kind": "uniform", "gamma": 1.0, "n1": 30},
    "test_per_class": 25,
}


def tiny_config_dict(out_dir, **train_overrides):
    """A fresh payload: no mapping or list in it is shared with TINY_DATA,
    TINY_TRAIN or another payload."""
    return copy.deepcopy({
        "seed": 7,
        "data": TINY_DATA,
        "train": {**TINY_TRAIN, **train_overrides},
        "eval": {"interval": 10, "last_e": 2, "out_dir": str(out_dir)},
    })


def write_config(tmp_path, name="config.yaml", **overrides):
    path = tmp_path / name
    payload = tiny_config_dict(tmp_path / "run", **overrides)
    path.write_text(yaml.safe_dump(payload))
    return path


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        config = config_from_dict(tiny_config_dict(tmp_path / "run"))
        path = tmp_path / "cfg.yaml"
        save_config(config, path)
        again = load_config(path)
        assert again == config
        save_config(again, path)
        assert load_config(path) == again

    def test_unknown_keys_rejected(self, tmp_path):
        payload = tiny_config_dict(tmp_path)
        payload["train"]["warp_speed"] = 9
        with pytest.raises(ValueError, match="warp_speed"):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("seed",), {"value": 1}, "unexpected mapping at seed"),
            (("train", "alpha"), {"value": 1}, r"unexpected mapping at train\.alpha"),
            (("data", "dim"), {"value": 1}, r"unexpected mapping at data\.dim"),
            (("train",), None, "train: expected a mapping, got None"),
            (("data", "labeled_profile"), 5, r"data\.labeled_profile: expected a mapping, got 5"),
        ],
    )
    def test_section_and_scalar_keys_keep_their_shape(self, tmp_path, path, value, message):
        payload = tiny_config_dict(tmp_path)
        section = payload
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict(payload)

    def test_defaults_materialize(self):
        config = ExperimentConfig()
        assert config.train.alpha == 2e-3
        assert config.train.eta == 1e-4
        assert config.train.ema_decay == 0.999
        assert config.train.tau == 0.95
        assert config.train.lambda_u == 1.0
        assert config.train.attractor_hidden == 256

    @pytest.mark.parametrize(
        "key,value", [("alpha", "inf"), ("alpha", "fast"), ("alpha", True), ("batch_n", 1.5),
                      ("batch_n", "12"), ("iters", None), ("extractor_hidden", 8),
                      ("extractor_hidden", ["8"])],
    )
    def test_numeric_keys_typed(self, tmp_path, key, value):
        payload = tiny_config_dict(tmp_path)
        payload["train"][key] = value
        with pytest.raises(ValueError, match=f"train.{key}: expected"):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "path,value",
        [(("eval", "out_dir"), 12), (("eval", "out_dir"), None), (("data", "labeled_csv"), 5),
         (("data", "test_csv"), 7), (("data", "unlabeled_csv"), ["u.csv"]), (("train", "mode"), 3),
         (("data", "labeled_profile", "kind"), True)],
    )
    def test_string_keys_typed(self, tmp_path, path, value):
        payload = tiny_config_dict(tmp_path)
        section = payload
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        message = f"{'.'.join(path)}: expected str, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(payload)

    def test_numeric_keys_take_their_type(self, tmp_path):
        payload = tiny_config_dict(tmp_path, eta=2, alpha="5e-2")
        config = config_from_dict(payload)
        assert type(config.train.eta) is float and config.train.eta == 2.0
        assert config.train.alpha == 0.05
        assert type(config.train.iters) is int

    @pytest.mark.parametrize("key", ["interval", "last_e"])
    def test_negative_eval_values_rejected_with_their_key(self, tmp_path, key):
        payload = tiny_config_dict(tmp_path)
        payload["eval"][key] = -2
        with pytest.raises(ValueError, match=f"eval.{key}: expected >= 0, got -2"):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("dim",), 1, r"data\.dim: expected >= 2, got 1"),
            (("num_classes",), 1, r"data\.num_classes: expected >= 2, got 1"),
            (("class_separation",), -0.5, r"data\.class_separation: expected >= 0, got -0\.5"),
            (("unlabeled_profile", "gamma"), 0.5,
             r"data\.unlabeled_profile\.gamma: expected >= 1, got 0\.5"),
            (("labeled_profile", "kind"), "foo",
             r"data\.labeled_profile\.kind: expected one of \(.*\), got 'foo'"),
            (("labeled_profile", "n1"), 0, r"data\.labeled_profile\.n1: expected >= 1, got 0"),
            (("labeled_profile", "kind"), "step",
             r"data\.labeled_profile\.kind: expected one of \(.*\), got 'step'"),
        ],
    )
    def test_bad_synthetic_data_rejected_with_its_key(self, tmp_path, path, value, message):
        payload = tiny_config_dict(tmp_path)
        section = payload["data"]
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict(payload)

    def test_a_payload_shares_no_mapping_with_tiny_data(self, tmp_path):
        before = copy.deepcopy(TINY_DATA)
        tiny_config_dict(tmp_path)["data"]["labeled_profile"]["kind"] = "uniform"
        assert TINY_DATA == before

    def test_bad_mode_rejected(self, tmp_path):
        payload = tiny_config_dict(tmp_path)
        payload["train"]["mode"] = "turbo"
        with pytest.raises(ValueError, match="mode"):
            config_from_dict(payload)


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        for name in ("metrics.json", "trace.csv", "ckpt_final.npz", "config.yaml"):
            assert (run / name).exists(), name
        payload = json.loads((run / "metrics.json").read_text())
        assert payload["mode"] == "l2ac"
        assert payload["headline"]["evals_averaged"] == 2
        assert len(payload["history"]) == 3

    def test_rerun_refuses_then_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["train", "--config", str(cfg), "--force"]) == 0

    def test_divergence_reported_without_traceback(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=1e6)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: iteration ") and "non-finite" in err
        assert "Traceback" not in err
        # the run keeps the trace of every iteration before the failing one
        failed_at = int(err.split()[2].rstrip(":"))
        run = tmp_path / "run"
        lines = (run / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("iter,lower_loss")
        assert len(lines) - 1 == failed_at - 1
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, failed_at))
        assert not (run / "metrics.json").exists()

    def test_divergence_prints_one_stderr_line(self, tmp_path):
        cfg = write_config(tmp_path, alpha=1e6)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "biasadapt.cli", "train", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: iteration "), proc.stderr

    def test_a_non_string_path_is_refused_in_one_stderr_line(self, tmp_path):
        payload = tiny_config_dict(tmp_path / "run")
        payload["eval"]["out_dir"] = 12
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "biasadapt.cli", "train", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, "error: eval.out_dir: expected str, got 12\n")

    def test_forced_rerun_that_diverges_leaves_no_stale_artifacts(self, tmp_path, capsys):
        payload = tiny_config_dict(tmp_path / "run", iters=20)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        (run / "notes.txt").write_text("kept\n")
        assert {"metrics.json", "ckpt_final.npz"} <= set(p.name for p in run.iterdir())
        payload["train"]["alpha"] = 1e6
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["train", "--config", str(cfg), "--force"]) == 2
        assert sorted(p.name for p in run.iterdir()) == ["notes.txt", "trace.csv"]
        capsys.readouterr()
        assert main(["compare", str(run)]) == 2
        assert "metrics.json" in capsys.readouterr().err

    def test_run_train_validates_before_clearing_a_finished_run(self, tmp_path):
        # an invalid value set after loading (as the CLI's overrides are)
        # fails in run_train itself, before the previous run is touched
        config = load_config(ROOT / "configs" / "example.yaml")
        config.train.iters = 20
        config.eval.out_dir = str(tmp_path / "run")
        harness.run_train(config)
        run = tmp_path / "run"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert len(before) == 4
        config.train.alpha = -1.0
        with pytest.raises(ValueError, match="^alpha must be > 0, got -1.0$"):
            harness.run_train(config, force=True)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("data", "test_per_class", 0, "data.test_per_class: expected >= 1, got 0"),
            ("eval", "interval", -5, "eval.interval: expected >= 0, got -5"),
            ("data", "dim", 1, "data.dim: expected >= 2, got 1"),
        ],
        ids=["test_per_class", "interval", "dim"],
    )
    def test_code_built_config_refused_before_the_out_dir(
        self, tmp_path, monkeypatch, section, key, value, message
    ):
        # a config built in code never passes through config_from_dict, so
        # run_train runs ExperimentConfig.validate itself
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(args))
        config = ExperimentConfig(eval=EvalConfig(out_dir=str(tmp_path / "run")))
        setattr(getattr(config, section), key, value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.run_train(config)
        assert trained == [] and not (tmp_path / "run").exists()

    def test_forced_rerun_that_fails_on_its_input_keeps_the_previous_run(
        self, tmp_path, capsys
    ):
        from biasadapt.data import save_csv_dataset

        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert "metrics.json" in before
        labeled, missing = tmp_path / "labeled.csv", tmp_path / "missing.csv"
        save_csv_dataset(harness.build_datasets(load_config(cfg))[0], labeled)
        payload = tiny_config_dict(run)
        payload["data"].update(labeled_csv=str(labeled), test_csv=str(missing))
        cfg.write_text(yaml.safe_dump(payload))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--force"]) == 2
        assert str(missing) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize(
        "section,edit,message",
        [
            ("train", {"balanced_n": 10},
             "balanced_n 10 not divisible by 4 classes; mode l2ac draws class-balanced batches"),
            # a labeled_csv without class 1; the file's path leads the line
            ("data", None, "class 1 has no labeled rows; mode l2ac draws class-balanced batches"),
            ("data", {"test_per_class": 0}, "data.test_per_class: expected >= 1, got 0"),
            ("data", {"test_per_class": -3}, "data.test_per_class: expected >= 1, got -3"),
            # a CSV beside synthetic data is refused by its key, whether or
            # not the file exists
            ("data", {"test_csv": "missing.csv"}, "data.test_csv: given without data.labeled_csv"),
            ("data", {"unlabeled_csv": "missing.csv"},
             "data.unlabeled_csv: given without data.labeled_csv"),
            ("data", {"test_csv": "missing.csv", "test_per_class": 0},
             "data.test_csv: given without data.labeled_csv"),
            ("train", {"lower_optimizer": "sgd"},
             "unknown config key(s) ['lower_optimizer'] under train"),
            ("train", {"lower_optimizer": "adam"},
             "unknown config key(s) ['lower_optimizer'] under train"),
            ("train", {"log_timings": True}, "unknown config key(s) ['log_timings'] under train"),
            ("train", {"schedule": "theorem_f", "c1": 1.0, "c2": 10.0},
             "unknown config key(s) ['c1', 'c2', 'schedule'] under train"),
            # single_level adds the balanced loss unweighted
            ("train", {"lambda_bal": 1.0}, "unknown config key(s) ['lambda_bal'] under train"),
            # the head reads the softmax of the scores, sharpening uses
            # T = 0.5, and the one checkpoint is ckpt_final.npz
            ("train", {"attractor_norm": "l2_input"},
             "unknown config key(s) ['attractor_norm'] under train"),
            ("train", {"pseudo_mode": "sharpen", "sharpen_temperature": 0.5},
             "unknown config key(s) ['sharpen_temperature'] under train"),
            ("eval", {"ckpt_interval": 10}, "unknown config key(s) ['ckpt_interval'] under eval"),
        ],
        ids=["balanced_n", "empty_class", "test_per_class=0", "test_per_class=-3",
             "test_csv_alone", "unlabeled_csv_alone", "test_csv_with_test_per_class=0",
             "lower_optimizer=sgd", "lower_optimizer=adam", "log_timings", "schedule",
             "lambda_bal", "attractor_norm", "sharpen_temperature", "ckpt_interval"],
    )
    def test_input_error_stops_before_the_out_dir(self, tmp_path, capsys, section, edit, message):
        # a forced rerun keeps every file of the previous run, and a fresh
        # out_dir is never created
        from biasadapt.data import Dataset, save_csv_dataset

        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        run, fresh = tmp_path / "run", tmp_path / "fresh"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        if edit is None:
            d_l, _, d_test = harness.build_datasets(load_config(cfg))
            keep = d_l.labels != 1
            edit = {"labeled_csv": str(tmp_path / "labeled.csv"), "test_csv": str(tmp_path / "test.csv")}
            save_csv_dataset(
                Dataset(d_l.features[keep], d_l.labels[keep], d_l.true_labels[keep], 4),
                edit["labeled_csv"])
            save_csv_dataset(d_test, edit["test_csv"])
            message = f"{edit['labeled_csv']}: {message}"
        payload = tiny_config_dict(run)
        payload[section].update(edit)
        for out, force in ((run, ["--force"]), (fresh, [])):
            payload["eval"]["out_dir"] = str(out)
            cfg.write_text(yaml.safe_dump(payload))
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), *force]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        assert not fresh.exists()

    def test_negative_seed_rejected_before_the_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed: expected >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [0, -6])
    def test_balanced_n_below_one_rejected(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, balanced_n=value)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: balanced_n must be >= 1, got {value}\n"

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"alpha": float("nan")}, "train.alpha: expected float, got nan"),
            ({"eta": float("inf")}, "train.eta: expected float, got inf"),
            ({"feature_dim": 0}, "feature_dim must be >= 1, got 0"),
            ({"attractor_hidden": 0}, "attractor_hidden must be >= 1, got 0"),
            ({"extractor_hidden": [0]}, "extractor_hidden widths must be >= 1, got [0]"),
        ],
    )
    def test_unrunnable_norm_or_temperature_rejected_before_any_artifact(
        self, tmp_path, capsys, overrides, message
    ):
        # baseline never reads eta, and the widths are first read in
        # init_model: all must fail at validation, before the run starts
        cfg = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), "--mode", "baseline"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_yaml_syntax_error_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("seed: [1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and "Traceback" not in err

    def test_exponent_without_dot_is_a_float(self, tmp_path, capsys):
        # PyYAML reads 1e6 as a string; it trains exactly as 1000000.0 does
        runs = {}
        for text in ("1e6", "1000000.0"):
            cfg = write_config(tmp_path, name=f"{text}.yaml")
            body = cfg.read_text()
            assert "alpha: 0.05\n" in body
            out = tmp_path / f"run-{text}"
            cfg.write_text(body.replace("alpha: 0.05\n", f"alpha: {text}\n"))
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
            runs[text] = (capsys.readouterr().err, (out / "trace.csv").read_bytes())
        assert runs["1e6"] == runs["1000000.0"]
        assert runs["1e6"][0].startswith("error: iteration ")

    def test_non_numeric_value_rejected_with_its_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("batch_n: 12\n", "batch_n: abc\n"))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "train.batch_n" in err and "'abc'" in err
        assert "Traceback" not in err

    def test_evaluation_hook_skips_the_distribution(self, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("distribution", True))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(harness, "evaluate", spy)
        payload = harness.run_train(config_from_dict(tiny_config_dict(tmp_path / "run")))
        assert calls == [False, False, False, True]
        assert len(payload["final"]["predicted_distribution"]) == TINY_DATA["num_classes"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ovr"
        assert main([
            "train", "--config", str(cfg), "--mode", "baseline",
            "--seed", "99", "--iters", "12", "--out", str(out),
        ]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["mode"] == "baseline"
        assert payload["seed"] == 99
        assert payload["iters"] == 12

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIASADAPT_OUT", str(tmp_path / "root"))
        cfg = tmp_path / "config.yaml"
        payload = tiny_config_dict("rel/run")
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "root" / "rel" / "run" / "metrics.json").exists()

    def test_a_run_without_evaluations_prints_its_final_scores(self, tmp_path, capsys):
        payload = tiny_config_dict(tmp_path / "run", iters=6)
        payload["eval"]["interval"] = 0
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["train", "--config", str(cfg)]) == 0
        final = json.loads((tmp_path / "run" / "metrics.json").read_text())["final"]
        assert f"bACC={final['bacc']:.4f} GM={final['gm']:.4f} " in capsys.readouterr().out

    def test_pseudo_recall_reported(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "run" / "metrics.json").read_text())
        recalls = payload["final"]["pseudo_recall"]
        assert len(recalls) == TINY_DATA["num_classes"]
        assert all(r is None or 0.0 <= r <= 1.0 for r in recalls)


class TestGenData:
    def test_counts_match_recipe(self, tmp_path, capsys):
        out = tmp_path / "gen"
        rc = main([
            "gen-data", "--kind", "longtail", "--gamma", "100", "--n1", "1500",
            "--classes", "10", "--dim", "4", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"] == [1500, 899, 539, 323, 193, 116, 69, 41, 25, 15]
        from biasadapt.data import load_csv_dataset

        ds = load_csv_dataset(out / "data.csv")
        assert np.bincount(ds.true_labels, minlength=10).tolist() == summary["counts"]

    def test_refuses_overwrite(self, tmp_path):
        out = tmp_path / "gen"
        args = [
            "gen-data", "--kind", "uniform", "--gamma", "1", "--n1", "5",
            "--classes", "2", "--dim", "3", "--out", str(out),
        ]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_step_kind_is_not_offered(self, tmp_path, capsys):
        out = tmp_path / "gen"
        with pytest.raises(SystemExit) as info:
            main(["gen-data", "--kind", "step", "--n1", "50", "--classes", "3", "--out", str(out)])
        assert info.value.code == 2
        assert "argument --kind: invalid choice: 'step'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--seed", "-1"], "seed: expected >= 0, got -1"),
            (["--dim", "1"], "dim: expected >= 2, got 1"),
            (["--classes", "1"], "num_classes: expected >= 2, got 1"),
            (["--separation", "-1"], "class_separation: expected >= 0, got -1.0"),
            (["--separation", "inf"], "class_separation: expected >= 0, got inf"),
            (["--gamma", "nan"], "gamma: expected >= 1, got nan"),
        ],
        ids=["seed", "dim", "classes", "separation", "infinite-separation", "gamma"],
    )
    def test_bad_flag_rejected_before_the_out_dir(self, tmp_path, capsys, flags, message):
        out = tmp_path / "gen"
        rc = main([
            "gen-data", "--kind", "longtail", "--n1", "50", "--classes", "3",
            *flags, "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestEvalCommand:
    def test_eval_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()

        from biasadapt.data import save_csv_dataset
        from biasadapt.harness import build_datasets

        config = load_config(cfg)
        _, _, d_test = build_datasets(config)
        test_csv = tmp_path / "test.csv"
        save_csv_dataset(d_test, test_csv)
        rc = main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.npz"), "--test", str(test_csv)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["bacc"] <= 1.0
        assert report["gm"] <= report["bacc"] + 1e-12

    def test_eval_matches_training_final_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        from biasadapt.data import save_csv_dataset
        from biasadapt.harness import build_datasets

        config = load_config(cfg)
        _, _, d_test = build_datasets(config)
        test_csv = tmp_path / "test.csv"
        save_csv_dataset(d_test, test_csv)
        main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.npz"), "--test", str(test_csv)])
        report = json.loads(capsys.readouterr().out)
        payload = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert report["bacc"] == payload["final"]["bacc"]
        assert report["confusion"] == payload["final"]["confusion"]

    def test_eval_rejects_an_archive_that_is_not_a_checkpoint(self, tmp_path, capsys):
        archive = tmp_path / "x.npz"
        np.savez(archive, weights=np.zeros(3))
        assert main(["eval", "--ckpt", str(archive), "--test", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {archive}: not a checkpoint, no meta array\n"

    def test_eval_rejects_a_checkpoint_holding_nan(self, tmp_path):
        # the scoring kernels do not scan for NaN, so loading must
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        with np.load(tmp_path / "run" / "ckpt_final.npz") as z:
            arrays = dict(z)
        arrays["ema_phi_w"][0, 0] = np.nan
        ckpt = tmp_path / "nan.npz"
        np.savez(ckpt, **arrays)
        from biasadapt.data import save_csv_dataset
        from biasadapt.harness import build_datasets

        test_csv = tmp_path / "test.csv"
        save_csv_dataset(build_datasets(load_config(cfg))[2], test_csv)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "biasadapt.cli", "eval", "--ckpt", str(ckpt),
             "--test", str(test_csv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {ckpt}: ema_phi_w holds non-finite values\n"

    def test_eval_rejects_an_unlabeled_test_row(self, tmp_path, capsys):
        from biasadapt.data import Dataset, save_csv_dataset

        ckpt = tmp_path / "model.npz"
        save_checkpoint(ckpt, init_model([5, 8, 4], 4, 8, make_rng(0)))
        labels = np.arange(8) % 4
        observed = np.where(np.arange(8) == 5, -1, labels)
        test_csv = tmp_path / "test.csv"
        save_csv_dataset(Dataset(make_rng(1).standard_normal((8, 5)), observed, labels, 4), test_csv)
        assert main(["eval", "--ckpt", str(ckpt), "--test", str(test_csv)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {test_csv}: 1 unlabeled row(s) (label -1), the first at line 7; "
            "every test_csv row needs a label\n"
        ))

    def test_eval_rejects_a_test_csv_missing_a_class(self, tmp_path, capsys):
        # bACC and GM average every class's recall, so a class with no test
        # row is refused before scoring, naming the file and the class
        from biasadapt.data import Dataset, save_csv_dataset

        ckpt = tmp_path / "model.npz"
        save_checkpoint(ckpt, init_model([5, 8, 4], 4, 8, make_rng(0)))
        labels = np.array([0, 2, 3, 0, 2, 3])
        test_csv = tmp_path / "test.csv"
        save_csv_dataset(Dataset(make_rng(1).standard_normal((6, 5)), labels, labels, 4), test_csv)
        assert main(["eval", "--ckpt", str(ckpt), "--test", str(test_csv)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {test_csv}: class 1 has no row, but checkpoint {ckpt} has 4 classes\n"
        ))

    def test_eval_rejects_a_checkpoint_with_an_unknown_norm(self, tmp_path, capsys):
        ckpt = tmp_path / "bogus.npz"
        save_checkpoint(ckpt, init_model([5, 8, 4], 4, 8, make_rng(0)))
        with np.load(ckpt) as z:
            arrays = dict(z)
        meta = {**json.loads(bytes(arrays["meta"]).decode()), "norm": "bogus"}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        assert main(["eval", "--ckpt", str(ckpt), "--test", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: attractor norm 'bogus' in checkpoint meta, expected 'softmax_input'\n"
        )

    def test_eval_rejects_a_one_class_checkpoint(self, tmp_path, capsys):
        # every array and the metadata agree on K = 1; init_model's floor is
        # the one class-count check on this path, as the softmax kernels trust it
        from biasadapt.model import load_checkpoint

        ckpt = tmp_path / "one_class.npz"
        save_checkpoint(ckpt, init_model([5, 8, 4], 2, 8, make_rng(0)))
        with np.load(ckpt) as z:
            arrays = dict(z)
        for name in ("phi_w", "ema_phi_w", "omega_w2"):
            arrays[name] = arrays[name][:, :1]
        for name in ("phi_b", "ema_phi_b", "omega_w1", "omega_b2"):
            arrays[name] = arrays[name][:1]
        meta = {**json.loads(bytes(arrays["meta"]).decode()), "num_classes": 1}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        message = f"{ckpt}: num_classes: expected >= 2, got 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--test", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "dim,classes,message",
        [
            (TINY_DATA["dim"], 6, "6 classes, but checkpoint .* has 4"),
            (7, TINY_DATA["num_classes"], "7 features per row, but checkpoint .* has 5"),
        ],
    )
    def test_eval_rejects_mismatched_test_csv(self, tmp_path, capsys, dim, classes, message):
        import re

        from biasadapt.data import save_csv_dataset, synth_gaussian_mixture
        from biasadapt.harness import run_eval
        from biasadapt.numcore import make_rng

        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        test_csv = tmp_path / "other.csv"
        save_csv_dataset(
            synth_gaussian_mixture(classes, dim, 3.0, [5] * classes, make_rng(1)), test_csv
        )
        ckpt = tmp_path / "run" / "ckpt_final.npz"
        with pytest.raises(ValueError, match=message):
            run_eval(ckpt, test_csv)
        assert main(["eval", "--ckpt", str(ckpt), "--test", str(test_csv)]) == 2
        assert re.search(message, capsys.readouterr().err)


class TestSelfcheck:
    def test_exit_zero_and_reports(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestBenchOverhead:
    def test_reports_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bench-overhead", "--config", str(cfg), "--reps", "5"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["second_order_seconds"] > 0
        assert result["backward_seconds"] > 0
        assert result["phi_params"] < result["total_params"]

    @pytest.mark.parametrize(
        "seed,reps,message",
        [(-1, 5, "seed: expected >= 0, got -1"), (7, 0, "reps: expected >= 1, got 0")],
        ids=["seed", "reps"],
    )
    def test_bad_input_rejected(self, tmp_path, capsys, seed, reps, message):
        payload = tiny_config_dict(tmp_path / "run")
        payload["seed"] = seed
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["bench-overhead", "--config", str(cfg), "--reps", str(reps)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key,value,message",
        [("alpha", -1.0, "alpha must be > 0, got -1.0"), ("tau", 5.0, "tau must lie in [0, 1], got 5.0")],
        ids=["alpha", "tau"],
    )
    def test_code_built_config_refused_before_timing(self, monkeypatch, key, value, message):
        # bench_overhead's first work is the datasets that size its model
        built = []
        monkeypatch.setattr(harness, "build_datasets", lambda *args: built.append(args))
        config = ExperimentConfig()
        setattr(config.train, key, value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bench_overhead(config, reps=5)
        assert built == []

    def test_csv_config_times_the_csvs_shapes(self, tmp_path, capsys):
        # an 8-dim, 3-class CSV run, not the 5-dim, 4-class synthetic
        # defaults its data section still carries
        from biasadapt.data import save_csv_dataset, synth_gaussian_mixture

        payload = tiny_config_dict(tmp_path / "run")
        for name in ("labeled_csv", "test_csv"):
            path = tmp_path / f"{name}.csv"
            save_csv_dataset(synth_gaussian_mixture(3, 8, 3.0, [6, 4, 2], make_rng(2)), path)
            payload["data"][name] = str(path)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["bench-overhead", "--config", str(cfg), "--reps", "2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["phi_params"] == TINY_TRAIN["feature_dim"] * 3 + 3

    def test_one_class_labeled_csv_refused_by_its_file(self, tmp_path, capsys):
        from biasadapt.data import Dataset, save_csv_dataset

        payload = tiny_config_dict(tmp_path / "run")
        zeros = np.zeros(6, dtype=np.int64)
        for name in ("labeled_csv", "test_csv"):
            path = tmp_path / f"{name}.csv"
            save_csv_dataset(Dataset(make_rng(3).standard_normal((6, 5)), zeros, zeros, 1), path)
            payload["data"][name] = str(path)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["bench-overhead", "--config", str(cfg), "--reps", "2"]) == 2
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'labeled_csv.csv'}: 1 class, expected >= 2\n"
        )

    def test_default_sizes_ratio_bounded(self, tmp_path):
        # default sizes: the head-only second-order step must not exceed one
        # full lower backward (2x margin for timer noise)
        config = ExperimentConfig()
        result = bench_overhead(config, reps=25)
        assert result["ratio"] <= 2.0


class TestCompare:
    def test_identical_runs_zero_std(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(cfg), "--out", str(out_a)])
        main(["train", "--config", str(cfg), "--out", str(out_b)])
        capsys.readouterr()
        csv_out = tmp_path / "table.csv"
        assert main(["compare", str(out_a), str(out_b), "--csv-out", str(csv_out)]) == 0
        table = capsys.readouterr().out
        assert "l2ac" in table
        line = [l for l in csv_out.read_text().splitlines() if l.startswith("l2ac")][0]
        _, runs, _, bacc_std, _, gm_std = line.split(",")
        assert runs == "2"
        assert float(bacc_std) == 0.0 and float(gm_std) == 0.0

    def test_two_modes_two_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg), "--mode", "baseline", "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header + 2 modes

    def test_missing_run_errors(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope")]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,key",
        [
            ({"mode": "l2ac", "final": {}}, "bacc"),
            ({"mode": "l2ac", "headline": None}, "final"),
            ({"final": {"bacc": 0.5, "gm": 0.5}}, "mode"),
        ],
        ids=["bacc", "final", "mode"],
    )
    def test_malformed_run_refused_by_its_key(self, tmp_path, capsys, payload, key):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        assert main(["compare", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: missing key {key!r}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "Expecting value: line 1 column 1 (char 0)"),
            ("[1]", "expected a JSON object, got list"),
        ],
        ids=["not-json", "json-list"],
    )
    def test_malformed_run_refused_by_its_path(self, tmp_path, capsys, text, message):
        path = tmp_path / "metrics.json"
        path.write_text(text)
        assert main(["compare", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("case", ["train --out", "gen-data --out", "train --config"])
def test_a_path_the_os_refuses_prints_one_error_line(tmp_path, capsys, case):
    # a file where a directory belongs, or a directory where a file belongs
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv, named = {
        "train --out": (["train", "--config", str(ROOT / "configs" / "example.yaml"),
                         "--iters", "2", "--out", str(blocker / "run")], blocker),
        "gen-data --out": (["gen-data", "--kind", "longtail", "--n1", "10", "--classes", "3",
                            "--out", str(blocker / "d")], blocker),
        "train --config": (["train", "--config", str(ROOT / "configs")], ROOT / "configs"),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1 and str(named) in err


def test_config_mirrors_dataclass_round_trip(tmp_path):
    config = ExperimentConfig()
    payload = config_to_dict(config)
    assert config_from_dict(payload) == config
