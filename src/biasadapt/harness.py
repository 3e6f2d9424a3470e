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
    init_state,
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
    check_mixture,
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
from .model import load_checkpoint, save_checkpoint
from .numcore import check_seed, child_seeds, make_rng
from .pseudo import PseudoBatch, assign_pseudo_labels

OUT_ROOT_ENV = "BIASADAPT_OUT"
# what run_train writes into its out_dir
RUN_ARTIFACTS = ("trace.csv", "metrics.json", "config.yaml", "ckpt_final.npz")


@dataclass
class DataConfig:
    dim: int = 16
    num_classes: int = 6
    class_separation: float = 3.0
    labeled_profile: ImbalanceProfile = ImbalanceProfile()
    unlabeled_profile: ImbalanceProfile = ImbalanceProfile(n1=500)
    test_per_class: int = 250
    labeled_csv: str | None = None
    unlabeled_csv: str | None = None
    test_csv: str | None = None


@dataclass
class EvalConfig:
    interval: int = 100
    last_e: int = 20
    out_dir: str = "runs/run"


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> None:
        """Refuse, naming the key, a value no run can use; the profiles check
        themselves when built, and the CSVs are checked when loaded."""
        check_seed(self.seed)
        self.train.validate()
        dc = self.data
        if dc.labeled_csv:
            if not dc.test_csv:
                raise ValueError("data.test_csv: required with data.labeled_csv")
        else:
            for key in ("test_csv", "unlabeled_csv"):
                if getattr(dc, key):
                    raise ValueError(f"data.{key}: given without data.labeled_csv")
            check_mixture(dc.num_classes, dc.dim, dc.class_separation, "data.")
            if dc.test_per_class < 1:
                raise ValueError(f"data.test_per_class: expected >= 1, got {dc.test_per_class!r}")
        for name in ("interval", "last_e"):
            value = getattr(self.eval, name)
            if value < 0:
                raise ValueError(f"eval.{name}: expected >= 0, got {value!r}")


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
        elif isinstance(value, str) or (value is None and fields[name] == str | None):
            kwargs[name] = value
        else:
            raise ValueError(f"{sub}: expected str, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # a nested record (ImbalanceProfile) checks itself when built, naming
        # only its field
        raise ValueError(f"{path}.{exc}") from None


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    out["train"]["extractor_hidden"] = list(config.train.extractor_hidden)
    return out


def config_from_dict(payload: dict) -> ExperimentConfig:
    config = _from_dict(ExperimentConfig, payload, "")
    config.validate()
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


def check_fits(ds: Dataset, path, dim: int, k: int, against: str, every_class=True) -> None:
    """Refuse a dataset that a model of dim inputs and k classes, read from
    `against` (a labeled CSV or checkpoint), cannot take: another feature
    count, a (true) label at or above k, or, with every_class (a fully
    labeled test set), a class with no row, as bACC and GM average them all."""
    if ds.dim != dim:
        raise ValueError(f"{path}: {ds.dim} features per row, but {against} has {dim}")
    if ds.num_classes > k:
        raise ValueError(f"{path}: {ds.num_classes} classes, but {against} has {k}")
    if every_class:
        rows = np.bincount(ds.labels, minlength=k)
        if not rows.all():
            c = int(np.argmin(rows))
            raise ValueError(f"{path}: class {c} has no row, but {against} has {k} classes")


def load_labeled_csv(path, key: str) -> Dataset:
    """load_csv_dataset(path), refused naming the file, the count and the first
    line when a row is unlabeled (label -1); `key` names the input for the message."""
    ds = load_csv_dataset(path)
    unlabeled = np.flatnonzero(ds.labels == UNLABELED)
    if unlabeled.size:
        raise ValueError(
            f"{path}: {unlabeled.size} unlabeled row(s) (label -1), the first "
            f"at line {int(unlabeled[0]) + 2}; every {key} row needs a label"
        )
    return ds


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset | None, Dataset]:
    """(labeled, unlabeled, test) from CSVs when given, otherwise synthesized
    from one mixture pool using the data child stream of the master seed.
    Trusts ExperimentConfig.validate for the keys; the other CSVs must pass
    check_fits against the labeled one."""
    dc = config.data
    if dc.labeled_csv:
        d_l = load_labeled_csv(dc.labeled_csv, "labeled_csv")
        if d_l.num_classes < 2:
            raise ValueError(f"{dc.labeled_csv}: {d_l.num_classes} class, expected >= 2")
        d_u = load_csv_dataset(dc.unlabeled_csv) if dc.unlabeled_csv else None
        d_test = load_labeled_csv(dc.test_csv, "test_csv")
        labeled = f"labeled_csv {dc.labeled_csv}"
        check_fits(d_test, dc.test_csv, d_l.dim, d_l.num_classes, labeled)
        if d_u is not None:
            check_fits(d_u, dc.unlabeled_csv, d_l.dim, d_l.num_classes, labeled, every_class=False)
        return d_l, d_u, d_test
    data_seed = child_seeds(config.seed, 2)[0]
    rng = make_rng(data_seed)
    labeled = class_counts(dc.labeled_profile, dc.num_classes)
    unlabeled = class_counts(dc.unlabeled_profile, dc.num_classes)
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
    y_hat, lam = assign_pseudo_labels(logits, config.tau, config.lambda_u, config.pseudo_mode)
    return pseudo_label_recall(d_u.true_labels, y_hat, lam)


def run_train(config: ExperimentConfig, force: bool = False) -> dict:
    out_dir = resolve_out_dir(config.eval.out_dir)
    metrics_path = out_dir / "metrics.json"
    if metrics_path.exists() and not force:
        raise FileExistsError(f"{metrics_path} exists; pass --force to overwrite")

    # the config, the data and the balanced sampler are checked first, so a
    # run that fails on its input neither creates nor clears out_dir
    config.validate()
    # master seed child 0 drives data synthesis (build_datasets); child 1
    # seeds the trainer so the two never share a stream. Any train.seed the
    # config carries is overwritten here: it is derived, not read.
    config.train.seed = child_seeds(config.seed, 2)[1]
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
    reports: list[tuple[int, MetricsReport]] = []

    def hook(iteration, state):  # every eval.interval iterations
        reports.append((iteration, evaluate(state, d_test, use_ema=True, distribution=False)))

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
    """Score a checkpoint on a fully labeled test CSV (load_labeled_csv) that
    check_fits accepts against the checkpoint's input dim and classes."""
    state = load_checkpoint(ckpt_path)
    test = load_labeled_csv(test_csv, "test_csv")
    in_dim = state.extractor_dims()[0]
    check_fits(test, test_csv, in_dim, state.num_classes, f"checkpoint {ckpt_path}")
    return evaluate(state, test, use_ema=use_ema)


def run_gen_data(
    profile: ImbalanceProfile,
    num_classes: int,
    dim: int,
    class_separation: float,
    seed: int,
    out_dir,
    force: bool = False,
) -> dict:
    """Synthesize one fully labeled dataset following the profile and write
    data.csv plus a counts summary. Refuses a bad seed or mixture before it
    creates out_dir."""
    check_seed(seed)
    check_mixture(num_classes, dim, class_separation)
    out = resolve_out_dir(str(out_dir))
    target = out / "data.csv"
    if target.exists() and not force:
        raise FileExistsError(f"{target} exists; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    counts = class_counts(profile, num_classes)
    ds = synth_gaussian_mixture(num_classes, dim, class_separation, counts, make_rng(seed))
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
    """Median wall-clock of the backward-on-backward head step at the run's
    sizes, against two lower backward passes: the full one, head gradient
    included, as plain_attractor and single_level run it (`ratio`), and the
    one l2ac's training loop runs, which skips the head's lower gradient
    (`ratio_l2ac`). Also the parameter-count ratio that motivates the
    head-only unroll. ExperimentConfig.validate and a reps < 1 refuse before
    anything is built; build_datasets' labeled set sizes the model."""
    config.validate()
    if reps < 1:
        raise ValueError(f"reps: expected >= 1, got {reps!r}")
    d_l = build_datasets(config)[0]
    tc = config.train
    rng = make_rng(config.seed)
    k, dim = d_l.num_classes, d_l.dim
    state = init_state(tc, d_l, rng)
    state.omega_w2 += 0.1 * rng.standard_normal(state.omega_w2.shape)

    x_l = rng.standard_normal((tc.batch_n, dim))
    y_l = one_hot(rng.integers(0, k, tc.batch_n), k)
    x_u = rng.standard_normal((tc.batch_m, dim))
    y_hat = one_hot(rng.integers(0, k, tc.batch_m), k)
    pseudo = PseudoBatch(x_u, y_hat, np.ones(tc.batch_m))
    bal_n = tc.balanced_n - tc.balanced_n % k
    bal_x = rng.standard_normal((max(bal_n, k), dim))
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
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
        try:
            # headline is null when the run made no evaluation
            scores = payload.get("headline") or payload["final"]
            rows.append((payload["mode"], float(scores["bacc"]), float(scores["gm"])))
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
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
