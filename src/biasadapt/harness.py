"""Config-driven experiment harness: dataset synthesis or CSV ingestion,
training runs with trace/checkpoint/metrics artifacts, checkpoint scoring,
the overhead micro-benchmark, and cross-run comparison tables.

The master seed fans out via SeedSequence children: child 0 drives data
synthesis, child 1 seeds the trainer (which spawns its own init / batch /
augmentation streams). Evaluation consumes no randomness, so changing the
evaluation cadence never perturbs training.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .bilevel import (
    TrainConfig,
    TrainingDiverged,
    _hypergrad_unrolled,
    balanced_sampler,
    lower_backward,
    lower_forward,
    lower_step,
    pseudo_label_logits,
    train,
    upper_loss,
    write_trace_csv,
)
from .data import (
    UNLABELED,
    Dataset,
    ImbalanceProfile,
    class_counts,
    load_csv_dataset,
    one_hot,
    save_csv_dataset,
    split_counts,
    synth_gaussian_mixture,
)
from .metrics import (
    MetricsReport,
    evaluate,
    headline_means,
    pseudo_label_recall,
)
from .model import init_model, load_checkpoint, save_checkpoint
from .numcore import child_seeds, make_rng
from .pseudo import PseudoBatch, assign_pseudo_labels

OUT_ROOT_ENV = "BIASADAPT_OUT"
# what run_train writes into its out_dir, besides the ckpt_*.npz checkpoints
RUN_ARTIFACTS = ("trace.csv", "metrics.json", "config.yaml")


@dataclass
class ProfileSpec:
    kind: str = "longtail"
    gamma: float = 20.0
    n1: int = 100

    def to_profile(self, num_classes: int) -> ImbalanceProfile:
        return ImbalanceProfile(self.kind, self.gamma, self.n1, num_classes)


@dataclass
class DataConfig:
    dim: int = 16
    num_classes: int = 6
    class_separation: float = 3.0
    labeled_profile: ProfileSpec = field(default_factory=ProfileSpec)
    unlabeled_profile: ProfileSpec = field(
        default_factory=lambda: ProfileSpec(kind="longtail", gamma=20.0, n1=500)
    )
    test_per_class: int = 250
    labeled_csv: str | None = None
    unlabeled_csv: str | None = None
    test_csv: str | None = None


@dataclass
class EvalConfig:
    interval: int = 100
    last_e: int = 20
    ckpt_interval: int = 0
    out_dir: str = "runs/run"


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _number(kind: type, value, key: str):
    """value as an int for an int key, or as a finite float for a float key,
    which also takes an int or a string that parses to one (PyYAML reads `1e6`
    as a string); raises naming the key and the value."""
    if not isinstance(value, bool):
        if isinstance(value, int):
            return kind(value)
        if kind is float and isinstance(value, (float, str)):
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if math.isfinite(number):
                return number
    raise ValueError(f"{key}: expected {kind.__name__}, got {value!r}")


def _from_dict(cls, payload: dict, path: str):
    fields = typing.get_type_hints(cls)
    unknown = set(payload) - set(fields)
    if unknown:
        raise ValueError(f"unknown config key(s) {sorted(unknown)} under {path or 'top level'}")
    kwargs = {}
    for name, value in payload.items():
        sub = f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(fields[name]):
            if not isinstance(value, dict):
                raise ValueError(f"{sub}: expected a mapping, got {value!r}")
            kwargs[name] = _from_dict(fields[name], value, sub)
        elif isinstance(value, dict):
            raise ValueError(f"unexpected mapping at {sub}")
        elif name == "extractor_hidden":
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{sub}: expected a list of int, got {value!r}")
            kwargs[name] = tuple(_number(int, v, sub) for v in value)
        elif fields[name] in (int, float):
            kwargs[name] = _number(fields[name], value, sub)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    out["train"]["extractor_hidden"] = list(config.train.extractor_hidden)
    return out


def config_from_dict(payload: dict) -> ExperimentConfig:
    config = _from_dict(ExperimentConfig, payload, "")
    config.train.validate()
    dc = config.data
    if not dc.labeled_csv:
        # what the synthetic build would refuse only once the run started
        for key, low in (("dim", 2), ("num_classes", 2), ("class_separation", 0)):
            if getattr(dc, key) < low:
                raise ValueError(f"data.{key}: expected >= {low}, got {getattr(dc, key)!r}")
        for key in ("labeled_profile", "unlabeled_profile"):
            try:
                getattr(dc, key).to_profile(dc.num_classes)
            except ValueError as exc:
                raise ValueError(f"data.{key}.{exc}") from None
    if not dc.test_csv and dc.test_per_class < 1:
        raise ValueError(f"data.test_per_class: expected >= 1, got {dc.test_per_class!r}")
    for name in ("interval", "last_e", "ckpt_interval"):
        value = getattr(config.eval, name)
        if value < 0:
            raise ValueError(f"eval.{name}: expected >= 0, got {value!r}")
    return config


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            payload = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return config_from_dict(payload)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=True)


def resolve_out_dir(out_dir: str) -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    path = Path(out_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


# ---------------------------------------------------------------------------
# dataset assembly


def _check_csvs_agree(dc: DataConfig, d_l: Dataset, d_u: Dataset | None, d_test: Dataset) -> None:
    """The unlabeled and test CSVs have the labeled CSV's feature dim, the
    test CSV its class count and the unlabeled CSV at most that count;
    raises naming both files and both numbers."""
    for path, d in ((dc.unlabeled_csv, d_u), (dc.test_csv, d_test)):
        if d is not None and d.dim != d_l.dim:
            raise ValueError(
                f"{path}: {d.dim} features per row, but labeled_csv {dc.labeled_csv} has {d_l.dim}"
            )
    if d_test.num_classes != d_l.num_classes:
        raise ValueError(
            f"{dc.test_csv}: {d_test.num_classes} classes, but labeled_csv {dc.labeled_csv} "
            f"has {d_l.num_classes}"
        )
    if d_u is not None and d_u.num_classes > d_l.num_classes:
        raise ValueError(
            f"{dc.unlabeled_csv}: {d_u.num_classes} classes, more than the {d_l.num_classes} "
            f"of labeled_csv {dc.labeled_csv}"
        )


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset | None, Dataset]:
    """(labeled, unlabeled, test) from CSVs when given, otherwise synthesized
    from one mixture pool using the data child stream of the master seed."""
    dc = config.data
    if dc.labeled_csv:
        d_l = load_csv_dataset(dc.labeled_csv)
        unlabeled = np.flatnonzero(d_l.labels == UNLABELED)
        if unlabeled.size:
            raise ValueError(
                f"{dc.labeled_csv}: {unlabeled.size} unlabeled row(s) (label -1), the first "
                f"at line {int(unlabeled[0]) + 2}; every labeled_csv row needs a label"
            )
        d_u = load_csv_dataset(dc.unlabeled_csv) if dc.unlabeled_csv else None
        if not dc.test_csv:
            raise ValueError("test_csv required when training from CSVs")
        d_test = load_csv_dataset(dc.test_csv)
        _check_csvs_agree(dc, d_l, d_u, d_test)
        return d_l, d_u, d_test
    data_seed = child_seeds(config.seed, 2)[0]
    rng = make_rng(data_seed)
    labeled = class_counts(dc.labeled_profile.to_profile(dc.num_classes))
    unlabeled = class_counts(dc.unlabeled_profile.to_profile(dc.num_classes))
    test = np.full(dc.num_classes, dc.test_per_class, dtype=np.int64)
    pool = synth_gaussian_mixture(
        dc.num_classes, dc.dim, dc.class_separation, labeled + unlabeled + test, rng
    )
    d_l, d_u, d_test = split_counts(pool, [labeled, unlabeled, test], [True, False, True], rng)
    return d_l, d_u, d_test


# ---------------------------------------------------------------------------
# training run with artifacts


def final_pseudo_recall(config: TrainConfig, state, d_u: Dataset | None):
    """Diagnostic: pseudo-label recall of the final model over the unlabeled
    set (raw features as the weak view), using the mode's labeling path."""
    if d_u is None or len(d_u) == 0:
        return None
    logits = pseudo_label_logits(d_u.features, state, config)
    y_hat, lam = assign_pseudo_labels(
        logits, config.tau, config.lambda_u, config.pseudo_mode, config.sharpen_temperature
    )
    return pseudo_label_recall(d_u.true_labels, y_hat, lam)


def check_seed(seed: int) -> None:
    """Refuse a negative master seed by name, before anything is written;
    numpy's own refusal names neither the seed nor the flag."""
    if seed < 0:
        raise ValueError(f"seed: expected >= 0, got {seed!r}")


def run_train(config: ExperimentConfig, force: bool = False) -> dict:
    out_dir = resolve_out_dir(config.eval.out_dir)
    metrics_path = out_dir / "metrics.json"
    if metrics_path.exists() and not force:
        raise FileExistsError(f"{metrics_path} exists; pass --force to overwrite")

    check_seed(config.seed)
    # master seed child 0 drives data synthesis (build_datasets); child 1
    # seeds the trainer so the two never share a stream. Any train.seed the
    # config carries is overwritten here: it is derived, not read.
    config.train.seed = child_seeds(config.seed, 2)[1]
    # the config is validated, the data built and the balanced sampler
    # checked first, so a run that fails on its input neither creates
    # out_dir nor clears the previous run's artifacts
    config.train.validate()
    d_l, d_u, d_test = build_datasets(config)
    try:
        balanced_sampler(config.train, d_l)
    except ValueError as exc:
        source = f"{config.data.labeled_csv}: " if config.data.labeled_csv else ""
        raise ValueError(
            f"{source}{exc}; mode {config.train.mode} draws class-balanced batches"
        ) from None
    out_dir.mkdir(parents=True, exist_ok=True)
    if force:
        # a forced rerun that diverges must not leave the old run's artifacts
        # beside its own trace; files run_train does not write are kept
        for name in RUN_ARTIFACTS:
            (out_dir / name).unlink(missing_ok=True)
        for ckpt in out_dir.glob("ckpt_*.npz"):
            ckpt.unlink()
    reports: list[tuple[int, MetricsReport]] = []

    def hook(iteration, state):
        reports.append((iteration, evaluate(state, d_test, use_ema=True, distribution=False)))
        if config.eval.ckpt_interval > 0 and iteration % config.eval.ckpt_interval == 0:
            save_checkpoint(out_dir / f"ckpt_{iteration:07d}.npz", state)

    trace_path = out_dir / "trace.csv"
    try:
        state, traces = train(
            config.train, d_l, d_u, eval_hook=hook, eval_interval=config.eval.interval
        )
    except TrainingDiverged as exc:
        # the iterations before the blow-up explain it; no metrics.json
        write_trace_csv(exc.traces, trace_path)
        raise

    final_report = evaluate(state, d_test, use_ema=True)
    final_report.pseudo_recall = final_pseudo_recall(config.train, state, d_u)

    evals = [r for _, r in reports]
    headline = None
    if evals:
        averaged = len(evals[-config.eval.last_e :])
        headline = {**headline_means(evals, config.eval.last_e), "evals_averaged": averaged}

    payload = {
        "mode": config.train.mode,
        "seed": config.seed,
        "iters": config.train.iters,
        "headline": headline,
        "final": dataclasses.asdict(final_report),
        "history": [
            {"iter": it, "bacc": r.bacc, "gm": r.gm, "acc": r.acc}
            for it, r in reports
        ],
    }

    write_trace_csv(traces, trace_path)
    save_checkpoint(out_dir / "ckpt_final.npz", state)
    save_config(config, out_dir / "config.yaml")
    with open(metrics_path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return payload


def run_eval(ckpt_path, test_csv, use_ema: bool = True) -> MetricsReport:
    """Score a checkpoint on a test CSV; raises naming both numbers when the
    CSV's feature dim or class count differs from the checkpoint's."""
    state = load_checkpoint(ckpt_path)
    test = load_csv_dataset(test_csv)
    in_dim = state.extractor_dims()[0]
    if test.dim != in_dim:
        raise ValueError(
            f"{test_csv}: {test.dim} features per row, but checkpoint {ckpt_path} takes {in_dim}"
        )
    if test.num_classes != state.num_classes:
        raise ValueError(
            f"{test_csv}: {test.num_classes} classes, but checkpoint {ckpt_path} "
            f"has {state.num_classes}"
        )
    return evaluate(state, test, use_ema=use_ema)


def run_gen_data(
    profile: ImbalanceProfile,
    dim: int,
    class_separation: float,
    seed: int,
    out_dir,
    force: bool = False,
) -> dict:
    """Synthesize one fully labeled dataset following the profile and write
    data.csv plus a counts summary."""
    check_seed(seed)
    out = resolve_out_dir(str(out_dir))
    target = out / "data.csv"
    if target.exists() and not force:
        raise FileExistsError(f"{target} exists; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    counts = class_counts(profile)
    ds = synth_gaussian_mixture(
        profile.num_classes, dim, class_separation, counts, make_rng(seed)
    )
    save_csv_dataset(ds, target)
    summary = {
        "counts": [int(c) for c in counts],
        "rows": len(ds),
        "path": str(target),
    }
    with open(out / "counts.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# overhead micro-benchmark


def bench_overhead(config: ExperimentConfig, reps: int = 30) -> dict:
    """Median wall-clock of the backward-on-backward head step at the
    configured sizes, against two lower backward passes: the full one, head
    gradient included, as plain_attractor and single_level run it (`ratio`),
    and the one l2ac's training loop runs, which skips the head's lower
    gradient (`ratio_l2ac`). Also the parameter-count ratio that motivates
    the head-only unroll."""
    check_seed(config.seed)
    tc = config.train
    rng = make_rng(config.seed)
    k = config.data.num_classes
    dims = [config.data.dim, *tc.extractor_hidden, tc.feature_dim]
    state = init_model(dims, k, tc.attractor_hidden, rng, tc.attractor_norm)
    state.omega_w2 += 0.1 * rng.standard_normal(state.omega_w2.shape)

    x_l = rng.standard_normal((tc.batch_n, config.data.dim))
    y_l = one_hot(rng.integers(0, k, tc.batch_n), k)
    x_u = rng.standard_normal((tc.batch_m, config.data.dim))
    y_hat = one_hot(rng.integers(0, k, tc.batch_m), k)
    pseudo = PseudoBatch(x_u, y_hat, np.ones(tc.batch_m))
    bal_n = tc.balanced_n - tc.balanced_n % k
    bal_x = rng.standard_normal((max(bal_n, k), config.data.dim))
    bal_y = one_hot(np.arange(max(bal_n, k)) % k, k)

    def median_seconds(fn) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    rec = lower_forward(x_l, y_l, pseudo, state)
    t_back = median_seconds(lambda: lower_backward(state, rec))
    t_back_l2ac = median_seconds(lambda: lower_backward(state, rec, need_omega=False))
    lower_step(state, rec, tc.alpha)
    _, upper_grad = upper_loss(bal_x, bal_y, state)
    t_second = median_seconds(lambda: _hypergrad_unrolled(state, rec, upper_grad))
    phi_params = state.phi_w.size + state.phi_b.size
    total_params = sum(a.size for a in state.lower_arrays() + state.omega_arrays())
    return {
        "backward_seconds": t_back,
        "l2ac_backward_seconds": t_back_l2ac,
        "second_order_seconds": t_second,
        "ratio": t_second / t_back if t_back > 0 else math.inf,
        "ratio_l2ac": t_second / t_back_l2ac if t_back_l2ac > 0 else math.inf,
        "phi_params": int(phi_params),
        "total_params": int(total_params),
        "params_ratio": phi_params / total_params,
        "reps": reps,
    }


# ---------------------------------------------------------------------------
# compare


def run_compare(run_dirs) -> tuple[str, str]:
    """Aggregate completed runs per mode into mean +/- std of headline bACC
    and GM. Returns (aligned text table, CSV text)."""
    rows = []
    for d in run_dirs:
        path = resolve_out_dir(str(d)) / "metrics.json"
        if not path.exists():
            raise FileNotFoundError(f"no metrics.json in run {d}")
        with open(path) as fh:
            payload = json.load(fh)
        headline = payload.get("headline") or {
            "bacc": payload["final"]["bacc"],
            "gm": payload["final"]["gm"],
        }
        rows.append((payload["mode"], float(headline["bacc"]), float(headline["gm"])))
    by_mode: dict[str, list[tuple[float, float]]] = {}
    for mode, bacc, gm in rows:
        by_mode.setdefault(mode, []).append((bacc, gm))

    def mean_std(vals):
        if len(vals) == 1:
            return vals[0], 0.0
        return statistics.fmean(vals), statistics.stdev(vals)

    text_lines = [f"{'mode':<16s} {'runs':>4s} {'bACC':>16s} {'GM':>16s}"]
    csv_lines = ["mode,runs,bacc_mean,bacc_std,gm_mean,gm_std"]
    for mode in sorted(by_mode):
        baccs = [b for b, _ in by_mode[mode]]
        gms = [g for _, g in by_mode[mode]]
        bm, bs = mean_std(baccs)
        gm_m, gm_s = mean_std(gms)
        text_lines.append(
            f"{mode:<16s} {len(baccs):>4d} {bm:8.4f}±{bs:<7.4f} {gm_m:8.4f}±{gm_s:<7.4f}"
        )
        csv_lines.append(f"{mode},{len(baccs)},{bm!r},{bs!r},{gm_m!r},{gm_s!r}")
    return "\n".join(text_lines), "\n".join(csv_lines) + "\n"
