"""Training from externally supplied CSV datasets (the bring-your-own-features
route through the harness)."""

import json

import numpy as np
import pytest
import yaml

from biasadapt.cli import main
from biasadapt.data import Dataset, load_csv_dataset, save_csv_dataset, synth_gaussian_mixture
from biasadapt.harness import build_datasets, config_from_dict
from biasadapt.numcore import make_rng


@pytest.fixture
def csv_triplet(tmp_path):
    rng = make_rng(42)
    pool = synth_gaussian_mixture(3, 6, 4.0, [40, 25, 12], rng)
    order = rng.permutation(len(pool))
    take = lambda sl: (pool.features[order[sl]], pool.true_labels[order[sl]])
    f, t = take(slice(0, 30))
    labeled = Dataset(f, t, t, 3)
    f, t = take(slice(30, 60))
    unlabeled = Dataset(f, np.full(30, -1), t, 3)
    f, t = take(slice(60, None))
    test = Dataset(f, t, t, 3)
    for ds in (labeled, unlabeled, test):
        assert set(ds.true_labels) == {0, 1, 2}
    paths = {}
    for name, ds in (("labeled", labeled), ("unlabeled", unlabeled), ("test", test)):
        paths[name] = tmp_path / f"{name}.csv"
        save_csv_dataset(ds, paths[name])
    return paths


def csv_config(tmp_path, paths, out_name="csvrun"):
    return {
        "seed": 5,
        "data": {
            "labeled_csv": str(paths["labeled"]),
            "unlabeled_csv": str(paths["unlabeled"]),
            "test_csv": str(paths["test"]),
        },
        "train": {
            "mode": "l2ac", "alpha": 0.05, "eta": 0.5, "tau": 0.6,
            "batch_n": 10, "batch_m": 10, "balanced_n": 6, "iters": 25,
            "extractor_hidden": [8], "feature_dim": 4, "attractor_hidden": 8,
            "seed": 5,
        },
        "eval": {"interval": 5, "last_e": 3, "out_dir": str(tmp_path / out_name)},
    }


def test_build_datasets_from_csv(tmp_path, csv_triplet):
    config = config_from_dict(csv_config(tmp_path, csv_triplet))
    d_l, d_u, d_test = build_datasets(config)
    assert len(d_l) == 30 and len(d_u) == 30 and len(d_test) == 17
    assert np.all(d_u.labels == -1)
    assert np.all(d_l.labels >= 0)


def test_train_from_csvs(tmp_path, csv_triplet):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(csv_config(tmp_path, csv_triplet)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    payload = json.loads((tmp_path / "csvrun" / "metrics.json").read_text())
    assert payload["headline"]["evals_averaged"] == 3
    assert len(payload["final"]["pseudo_recall"]) == 3


def test_missing_test_csv_rejected(tmp_path, csv_triplet):
    # a config-only rule: refused when the config is loaded, naming the key
    payload = csv_config(tmp_path, csv_triplet)
    del payload["data"]["test_csv"]
    with pytest.raises(ValueError, match=r"^data\.test_csv: required with data\.labeled_csv$"):
        config_from_dict(payload)


def test_eval_raw_flag(tmp_path, csv_triplet, capsys):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(csv_config(tmp_path, csv_triplet)))
    main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    ckpt = str(tmp_path / "csvrun" / "ckpt_final.npz")
    main(["eval", "--ckpt", ckpt, "--test", str(csv_triplet["test"])])
    ema_report = json.loads(capsys.readouterr().out)
    main(["eval", "--ckpt", ckpt, "--test", str(csv_triplet["test"]), "--raw"])
    raw_report = json.loads(capsys.readouterr().out)
    # after 25 iterations at decay 0.999 the shadows still hug the init, so
    # raw and EMA parameters genuinely differ
    assert raw_report["confusion"] != ema_report["confusion"] or raw_report["bacc"] != ema_report["bacc"]


def test_csv_header_and_empty_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        load_csv_dataset(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv_dataset(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("f0,label,true_label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv_dataset(header_only)


def _csv(path, num_classes, dim, labels=None, counts=None):
    """A CSV of a mixture, 3 rows per class unless counts says otherwise;
    labels defaults to the true labels."""
    counts = [3] * num_classes if counts is None else counts
    ds = synth_gaussian_mixture(num_classes, dim, 4.0, counts, make_rng(7))
    labels = ds.true_labels if labels is None else labels
    path.parent.mkdir(exist_ok=True)
    save_csv_dataset(Dataset(ds.features, labels, ds.true_labels, num_classes), path)
    return path


def _train_rejects(tmp_path, payload, message, capsys):
    import re

    with pytest.raises(ValueError, match=message):
        build_datasets(config_from_dict(payload))
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(payload))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert re.search(message, capsys.readouterr().err)
    # refused before run_train creates its out_dir, so nothing trained
    assert not (tmp_path / "csvrun").exists()


def test_labeled_csv_with_unlabeled_rows_rejected(tmp_path, csv_triplet, capsys):
    labels = np.repeat(np.arange(3), 3)
    labels[[4, 7]] = -1
    paths = dict(csv_triplet, labeled=_csv(tmp_path / "partly.csv", 3, 6, labels))
    message = r"partly\.csv: 2 unlabeled row\(s\) \(label -1\), the first at line 6"
    _train_rejects(tmp_path, csv_config(tmp_path, paths), message, capsys)


@pytest.mark.parametrize(
    "role,message",
    [
        ("test", r"test\.csv: 1 unlabeled row\(s\) \(label -1\), the first at line 5; "
                 r"every test_csv row needs a label"),
        ("labeled", r"labeled\.csv: 1 class, expected >= 2"),
    ],
    ids=["test-unlabeled-row", "labeled-one-class"],
)
def test_csv_the_run_cannot_use_rejected(tmp_path, csv_triplet, capsys, role, message):
    path = tmp_path / "other" / f"{role}.csv"
    if role == "test":
        labels = np.repeat(np.arange(3), 3)
        labels[3] = -1
        _csv(path, 3, 6, labels)
    else:
        path.parent.mkdir()
        zeros = np.zeros(6, dtype=np.int64)
        save_csv_dataset(Dataset(make_rng(3).standard_normal((6, 6)), zeros, zeros, 1), path)
    paths = dict(csv_triplet, **{role: path})
    _train_rejects(tmp_path, csv_config(tmp_path, paths), message, capsys)


@pytest.mark.parametrize(
    "role,counts,dim,message",
    [
        ("test", [3, 3, 3, 3], 6, r"test\.csv: 4 classes, but labeled_csv .*labeled\.csv has 3"),
        ("test", [3, 3], 6, r"test\.csv: class 2 has no row, but labeled_csv .*labeled\.csv has 3 classes"),
        ("test", [3, 0, 3], 6, r"test\.csv: class 1 has no row, but labeled_csv .*labeled\.csv has 3 classes"),
        ("test", [3, 3, 3], 7, r"test\.csv: 7 features per row, but labeled_csv .*labeled\.csv has 6"),
        ("unlabeled", [3, 3, 3], 5, r"unlabeled\.csv: 5 features per row, but labeled_csv .*labeled\.csv has 6"),
        ("unlabeled", [3, 3, 3, 3], 6, r"unlabeled\.csv: 4 classes, but labeled_csv .*labeled\.csv has 3"),
    ],
    ids=["test-more-classes", "test-fewer-classes", "test-no-class-1", "test-dim",
         "unlabeled-dim", "unlabeled-more-classes"],
)
def test_mismatched_csvs_rejected(tmp_path, csv_triplet, capsys, role, counts, dim, message):
    labels = np.full(sum(counts), -1) if role == "unlabeled" else None
    paths = dict(csv_triplet)
    paths[role] = _csv(tmp_path / "other" / f"{role}.csv", len(counts), dim, labels, counts)
    _train_rejects(tmp_path, csv_config(tmp_path, paths), message, capsys)


def test_unlabeled_csv_with_fewer_classes_accepted(tmp_path, csv_triplet):
    paths = dict(csv_triplet, unlabeled=_csv(tmp_path / "u2.csv", 2, 6, np.full(6, -1)))
    d_l, d_u, _ = build_datasets(config_from_dict(csv_config(tmp_path, paths)))
    assert d_u.num_classes == 2 and d_l.num_classes == 3
