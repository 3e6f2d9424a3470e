"""Bi-level training engine.

Each iteration runs four stages: (i) lower-level loss over the labeled batch
plus confidence-masked pseudo-labeled batch, through the residual-head
training path; (ii) gradient step on extractor and classifier, where the
classifier gradient's dependence on the head parameters is kept for the
unroll; (iii) balanced cross-entropy at the stepped parameters through the
plain classifier path; (iv) a backward-on-backward step on the head
parameters that differentiates only the classifier-gradient expression.

One record, `LowerPass`, carries the lower pass from (i) to (iv). Every
gradient list is flat, in `ModelState.lower_arrays()` (extractor layers, then
classifier) or `omega_arrays()` (head) order.

This module holds the training path only. The oracles that check the head
hypergradient, a closed form and central differences of the composite map,
live in `testing`. A non-finite kernel input, loss or gradient norm ends the
run with `TrainingDiverged`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, balanced_batch, balanced_index, one_hot
from .model import (
    NORM_MODES,
    ModelState,
    attractor_backward,
    classifier_scores,
    ema_update,
    features_backward,
    features_with_cache,
    forward_eval,
    forward_train,
    init_model,
)
from .numcore import NonFinite, child_seeds, log_softmax, make_rng, weighted_ce
from .pseudo import PseudoBatch, assign_pseudo_labels, augment

MODES = ("baseline", "plain_attractor", "single_level", "l2ac")
# One trace row per iteration, the columns of trace.csv: `iter`, then the
# lower and balanced losses (upper_loss is NaN in modes without one) and the
# norms of the extractor and classifier gradients the lower step took and of
# the gradient the head moved along (0 in baseline).
TRACE_DTYPE = np.dtype([("iter", np.int64)] + [(name, np.float64) for name in (
    "lower_loss", "upper_loss", "grad_norm_theta", "grad_norm_phi", "grad_norm_omega",
)])


@dataclass
class TrainConfig:
    mode: str = "l2ac"
    alpha: float = 2e-3
    eta: float = 1e-4
    tau: float = 0.95
    lambda_u: float = 1.0
    batch_n: int = 64
    batch_m: int = 128
    balanced_n: int = 64
    iters: int = 4000
    ema_decay: float = 0.999
    pseudo_mode: str = "hard"
    pseudo_source: str = "plain"
    sharpen_temperature: float = 0.5
    sigma_weak: float = 0.05
    sigma_strong: float = 0.5
    extractor_hidden: tuple = (64,)
    feature_dim: int = 32
    attractor_hidden: int = 256
    attractor_norm: str = "softmax_input"
    seed: int = 0  # harness.run_train derives it from ExperimentConfig.seed

    def validate(self) -> None:
        choices = {"mode": MODES, "pseudo_mode": ("hard", "sharpen"),
                   "pseudo_source": ("plain", "biased"), "attractor_norm": NORM_MODES}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        # written as `not value > bound` so that NaN fails
        positive = ["alpha", "eta"]
        if self.pseudo_mode == "sharpen":
            positive.append("sharpen_temperature")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        minimums = {"lambda_u": 0, "batch_n": 1, "batch_m": 0, "iters": 0, "balanced_n": 1,
                    "feature_dim": 1, "attractor_hidden": 1}
        for name, low in minimums.items():
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("tau", "ema_decay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not all(width >= 1 for width in self.extractor_hidden):
            raise ValueError(f"extractor_hidden widths must be >= 1, got {list(self.extractor_hidden)}")
        if not 0.0 <= self.sigma_weak < self.sigma_strong:
            raise ValueError(f"sigma_weak must lie in [0, sigma_strong={self.sigma_strong}), "
                             f"got {self.sigma_weak}")


class TrainingDiverged(RuntimeError):
    """A non-finite value ended training; traces holds the completed
    iterations, a read-only TRACE_DTYPE table."""

    def __init__(self, message: str, traces: np.ndarray):
        super().__init__(message)
        self.traces = traces

    def __reduce__(self):
        # pickled whole, so a benchmark worker process can raise it
        return type(self), (str(self), self.traces)


# ---------------------------------------------------------------------------
# lower-level loss and parameter step


@dataclass
class LowerPass:
    """One lower pass. lower_forward records the loss, features z, the
    extractor's layer inputs, probabilities p, per-row loss coefficients, the
    logit gradient, and the head's stop-gradient input u and ReLU output a
    (None on the plain path). lower_backward adds `grads` (extractor and
    classifier) and `grads_omega` (the head's, empty when not formed);
    lower_step stamps the iteration and alpha that the unroll reads."""

    loss: float
    z: np.ndarray
    feat_cache: list
    p: np.ndarray
    coeff: np.ndarray
    d_logits: np.ndarray
    u: np.ndarray | None
    a: np.ndarray | None
    grads: list = field(default_factory=list)
    grads_omega: list = field(default_factory=list)
    step_count: int | None = None
    alpha: float = math.nan


def _stack_lower_batch(x_l, y_l, pseudo: PseudoBatch | None):
    """Stack labeled rows (weight 1/n each) with pseudo-labeled strong views
    (weight lam_i/m each); returns (X, targets, per-row coefficients).
    TrainConfig.validate has checked batch_n >= 1, so x_l has rows."""
    n = x_l.shape[0]
    if pseudo is None or len(pseudo) == 0:
        return x_l, y_l, np.full(n, 1.0 / n)
    m = len(pseudo)
    x = np.concatenate([x_l, pseudo.x_strong])
    targets = np.concatenate([y_l, pseudo.y_hat])
    coeff = np.concatenate([np.full(n, 1.0 / n), pseudo.lam / m])
    return x, targets, coeff


def pseudo_label_logits(x, state: ModelState, config: TrainConfig) -> np.ndarray:
    """Logits the pseudo-labels are read from: the residual-head training
    path when the mode has a head (all but baseline) and pseudo_source is
    biased, else the plain classifier path (forward_eval, whose extractor
    runs in row blocks so a whole unlabeled set can be labeled)."""
    if config.mode != "baseline" and config.pseudo_source == "biased":
        return forward_train(x, state)[0]
    return forward_eval(x, state)


def _ce_forward(x, targets, coeff, state: ModelState, head: bool) -> LowerPass:
    """Weighted cross-entropy forward through the residual-head training
    path, or through the plain classifier path (u and a None) when head is
    False; the plain path runs no attractor code."""
    if head:
        logits, cache = forward_train(x, state)
        z, feat_cache, u, a = cache.z, cache.feat_cache, cache.u, cache.a
    else:
        z, feat_cache = features_with_cache(x, state.theta)
        logits = classifier_scores(z, state.phi_w, state.phi_b)
        u = a = None
    loss, p, d_logits = weighted_ce(log_softmax(logits), targets, coeff)
    return LowerPass(loss, z, feat_cache, p, coeff, d_logits, u, a)


def lower_forward(x_l, y_l, pseudo, state: ModelState, head: bool = True) -> LowerPass:
    """A fresh LowerPass of the labeled rows stacked with the pseudo batch."""
    return _ce_forward(*_stack_lower_batch(x_l, y_l, pseudo), state, head)


def _classifier_backward(rec: LowerPass, state: ModelState, need_theta: bool) -> list[np.ndarray]:
    """[dW_phi, db_phi] of a loss whose logit gradient is rec.d_logits, with
    the extractor's gradients in front when need_theta."""
    g_w = rec.z.T @ rec.d_logits
    g_b = rec.d_logits.sum(axis=0)
    if not need_theta:
        return [g_w, g_b]
    return features_backward(rec.feat_cache, state.theta, rec.d_logits @ state.phi_w.T) + [g_w, g_b]


def lower_backward(state: ModelState, rec: LowerPass, need_omega: bool = True) -> LowerPass:
    """Fill rec with the lower loss's gradients w.r.t. extractor, classifier
    and (on the head path, when need_omega) attractor, and return it. The
    logit gradient feeds both the classifier scores (direct shortcut) and the
    attractor output; the attractor input is stop-gradient so no second path
    reaches the classifier, and grads does not depend on need_omega."""
    rec.grads_omega = []
    if need_omega and rec.u is not None:
        rec.grads_omega = attractor_backward(state, rec.u, rec.a, rec.d_logits)
    rec.grads = _classifier_backward(rec, state, True)
    return rec


def lower_loss(x_l, y_l, pseudo, state: ModelState, head: bool = True) -> LowerPass:
    """Lower-level loss and its analytic gradients w.r.t. every parameter
    block, through the residual-head training path (or the plain classifier
    path when head is False)."""
    return lower_backward(state, lower_forward(x_l, y_l, pseudo, state, head))


class LowerOptimizer:
    """Plain SGD, in place: each array moves by -alpha times its gradient.
    Stateless, so the one instance below takes every lower step and, in
    plain_attractor and single_level, every head step."""

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray], alpha: float) -> None:
        for p, g in zip(arrays, grads):
            p -= alpha * g


_SGD = LowerOptimizer()


def lower_step(state: ModelState, rec: LowerPass, alpha: float) -> LowerPass:
    """Update extractor and classifier in place (head untouched) and stamp
    rec with the iteration and alpha for the unroll: the classifier
    gradient's dependence on the head is retained via the recorded forward
    quantities; the extractor's dependence is dropped by construction."""
    _SGD.step(state.lower_arrays(), rec.grads, alpha)
    state.step_count += 1
    rec.step_count, rec.alpha = state.step_count, alpha
    return rec


# ---------------------------------------------------------------------------
# upper-level loss and the head hypergradient


def upper_loss(x, y, state: ModelState, need_theta: bool = False):
    """(loss, grads): mean cross-entropy of the plain (no attractor) path at
    the state's current parameters and its gradient [dW_phi, db_phi], with
    the extractor's in front on request (joint single-level mode)."""
    coeff = np.full(x.shape[0], 1.0 / x.shape[0])
    rec = _ce_forward(x, y, coeff, state, head=False)
    return rec.loss, _classifier_backward(rec, state, need_theta)


def _hypergrad_unrolled(state: ModelState, rec: LowerPass, upper_grad) -> list[np.ndarray]:
    """Backward-on-backward through the classifier-gradient expression only.

    With v the balanced gradient at the stepped classifier, the scalar
    s(omega) = <g_phi(omega), v> is differentiated at the recorded point: the
    per-sample contraction r_i = V_w^T z_i + v_b flows back through the
    softmax Jacobian into the attractor output, then through the attractor
    arrays (its input is a stop-gradient constant). The hypergradient is
    -alpha times that, matching a gradient-descent lower step.
    """
    v_w, v_b = upper_grad
    r = rec.z @ v_w + v_b
    d_xi = rec.coeff[:, None] * r
    tmp = rec.p * d_xi
    d_delta = tmp - rec.p * tmp.sum(axis=1, keepdims=True)
    s_grads = attractor_backward(state, rec.u, rec.a, d_delta)
    return [-rec.alpha * g for g in s_grads]


def omega_step(state: ModelState, rec: LowerPass, upper_grad, eta: float) -> list[np.ndarray]:
    """Descend the head parameters along the unrolled hypergradient; returns
    the hypergradient arrays. Never touches the extractor or classifier."""
    if rec.step_count != state.step_count:
        raise ValueError(f"stale lower pass: iteration {rec.step_count} vs state {state.step_count}")
    hyper = _hypergrad_unrolled(state, rec, upper_grad)
    for arr, g in zip(state.omega_arrays(), hyper):
        arr -= eta * g
    return hyper


# ---------------------------------------------------------------------------
# training loop


def _block_norms(grads, omega_grads) -> tuple[float, float, float]:
    """Extractor, classifier and head gradient norms; grads is in
    lower_arrays() order, so the classifier's two arrays come last."""
    sq = [float(np.square(g).sum()) for g in grads]
    sq_omega = sum(float(np.square(g).sum()) for g in omega_grads)
    return math.sqrt(sum(sq[:-2])), math.sqrt(sq[-2] + sq[-1]), math.sqrt(sq_omega)


def _sample_rows(rng: np.random.Generator, n_rows: int, size: int) -> np.ndarray:
    if size <= n_rows:
        return rng.choice(n_rows, size=size, replace=False)
    return rng.integers(0, n_rows, size=size)


def init_state(config: TrainConfig, d_l: Dataset, rng: np.random.Generator) -> ModelState:
    """The untrained model at d_l's shape: train and harness.bench_overhead build it here."""
    dims = [d_l.dim, *config.extractor_hidden, config.feature_dim]
    return init_model(dims, d_l.num_classes, config.attractor_hidden, rng, config.attractor_norm)


def balanced_sampler(config: TrainConfig, d_l: Dataset):
    """balanced_index(d_l, balanced_n) in the modes with a balanced loss
    (l2ac, single_level), else None. train builds it, and harness.run_train
    calls it before touching its out_dir, so a balanced_n the class count
    does not divide, or a class without labeled rows, fails there first."""
    if config.mode in ("l2ac", "single_level"):
        return balanced_index(d_l, config.balanced_n)
    return None


def train(
    config: TrainConfig,
    d_l: Dataset,
    d_u: Dataset | None,
    eval_hook=None,
    eval_interval: int = 0,
) -> tuple[ModelState, np.ndarray]:
    """Run the configured number of iterations and return the final state
    plus a read-only TRACE_DTYPE table, one row per iteration. Deterministic
    given config.seed: the seed fans out into separate init / batch-sampling /
    augmentation streams. The unlabeled dataset's hidden true labels are
    never read here.
    """
    config.validate()
    k = d_l.num_classes
    seeds = child_seeds(config.seed, 3)
    init_rng = make_rng(seeds[0])
    batch_rng = make_rng(seeds[1])
    aug_rng = make_rng(seeds[2])

    state = init_state(config, d_l, init_rng)

    # the modes differ on three axes: the head sits in the lower path (all
    # but baseline); the balanced loss is added to the lower loss
    # (single_level) or is the upper level (l2ac); the head moves along the
    # hypergradient (l2ac), else along its lower gradient
    head = config.mode != "baseline"
    joint = config.mode == "single_level"
    hyper = config.mode == "l2ac"
    bal_index = balanced_sampler(config, d_l)

    x_all_l = d_l.features
    y_all_l = one_hot(d_l.labels, k)
    have_unlabeled = d_u is not None and len(d_u) > 0 and config.batch_m > 0

    def iteration(t: int) -> tuple:
        """One iteration: sample, pseudo-label, lower step, upper and head
        steps, EMA; returns its trace row. Every batch, cache and gradient
        is a local here, so none is alive when the eval hook runs or the
        next batch is drawn."""
        l_idx = _sample_rows(batch_rng, len(d_l), config.batch_n)
        x_l = x_all_l[l_idx]
        y_l = y_all_l[l_idx]

        upper_val = math.nan

        pseudo = None
        if have_unlabeled:
            u_idx = _sample_rows(batch_rng, len(d_u), config.batch_m)
            x_u = d_u.features[u_idx]
            x_weak, x_strong = augment(x_u, config.sigma_weak, config.sigma_strong, aug_rng)
            y_hat, lam = assign_pseudo_labels(
                pseudo_label_logits(x_weak, state, config), config.tau, config.lambda_u,
                config.pseudo_mode, config.sharpen_temperature,
            )
            pseudo = PseudoBatch(x_strong, y_hat, lam)

        if bal_index is not None:
            bal_idx = balanced_batch(bal_index, batch_rng)
            bal_x = x_all_l[bal_idx]
            bal_y = y_all_l[bal_idx]

        rec = lower_forward(x_l, y_l, pseudo, state, head)
        lower_backward(state, rec, need_omega=head and not hyper)
        head_grads = rec.grads_omega

        if joint:
            upper_val, bal_grads = upper_loss(bal_x, bal_y, state, need_theta=True)
            for g, b in zip(rec.grads, bal_grads):
                g += b

        lower_step(state, rec, config.alpha)

        if hyper:
            upper_val, upper_grad = upper_loss(bal_x, bal_y, state)
            head_grads = omega_step(state, rec, upper_grad, config.eta)
        elif head:
            _SGD.step(state.omega_arrays(), head_grads, config.alpha)

        # upper_loss is NaN by definition in modes without a balanced loss;
        # a finite sum of squares means every gradient entry is finite
        nt, nphi, nomega = _block_norms(rec.grads, head_grads)
        checked = (rec.loss, upper_val if joint or hyper else 0.0, nt, nphi, nomega)
        for name, value in zip(TRACE_DTYPE.names[1:], checked):
            if not math.isfinite(value):
                raise NonFinite(f"non-finite {name} ({value})")

        ema_update(state, config.ema_decay)
        return t, rec.loss, upper_val, nt, nphi, nomega

    table = np.empty(config.iters, TRACE_DTYPE)
    # a blow-up is reported by the explicit checks below, not by NumPy's
    # overflow and invalid-value warnings on the way to it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.iters + 1):
            try:
                table[t - 1] = iteration(t)
            except NonFinite as exc:
                # an overflow inside a kernel, or a non-finite loss or norm
                table.flags.writeable = False
                raise TrainingDiverged(f"iteration {t}: {exc}", table[: t - 1]) from exc
            if eval_hook is not None and eval_interval > 0 and t % eval_interval == 0:
                eval_hook(t, state)

    table.flags.writeable = False
    return state, table


def write_trace_csv(traces: np.ndarray, path) -> None:
    """One row per iteration of a TRACE_DTYPE table, under a header of its
    field names."""
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_DTYPE.names) + "\n")
        # one row at a time: the table is never copied into Python numbers
        for row in traces:
            fh.write(",".join(map(repr, row.item())) + "\n")
