"""Three-part network with hand-rolled forward/backward passes.

An extractor MLP (ReLU hidden layers, linear output) feeds a linear
classifier. During training a small residual head ("bias attractor", one
hidden ReLU layer) reads the normalized classifier scores through a
stop-gradient and adds a correction to the logits; at evaluation time the
head is dropped entirely. EMA shadows of extractor and classifier exist for
evaluation only.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numcore import make_rng, softmax

NORM_MODES = ("softmax_input", "l2_input")

CHECKPOINT_VERSION = 1

# rows per extractor pass when scoring a whole dataset (forward_features);
# training batches are smaller and take one pass
SCORE_BLOCK_ROWS = 1024

Layer = tuple[np.ndarray, np.ndarray]  # (W: (fan_in, fan_out), b: (fan_out,))


@dataclass
class ModelState:
    """Every parameter array and the head's input normalisation; the four
    *_arrays methods state the layout that copying, the EMA, the SGD steps,
    the oracles, the checkpoint format and every gradient list follow;
    head_layers() lays the head out as theta, for the extractor's kernels."""

    theta: list[Layer]
    phi_w: np.ndarray
    phi_b: np.ndarray
    omega_w1: np.ndarray
    omega_b1: np.ndarray
    omega_w2: np.ndarray
    omega_b2: np.ndarray
    norm: str  # the head's input normalisation, one of NORM_MODES
    ema_theta: list[Layer] = field(default_factory=list)
    ema_phi_w: np.ndarray | None = None
    ema_phi_b: np.ndarray | None = None
    step_count: int = 0

    @property
    def num_classes(self) -> int:
        return self.phi_b.size

    @property
    def attractor_hidden(self) -> int:
        return self.omega_b1.size

    def extractor_dims(self) -> list[int]:
        return [self.theta[0][0].shape[0]] + [w.shape[1] for w, _ in self.theta]

    def lower_arrays(self) -> list[np.ndarray]:
        """Extractor layers then classifier: what the lower step and the EMA
        move."""
        return [a for layer in self.theta for a in layer] + [self.phi_w, self.phi_b]

    def ema_arrays(self) -> list[np.ndarray]:
        """The EMA shadows of lower_arrays(), in the same order."""
        return [a for layer in self.ema_theta for a in layer] + [self.ema_phi_w, self.ema_phi_b]

    def omega_arrays(self) -> list[np.ndarray]:
        return [self.omega_w1, self.omega_b1, self.omega_w2, self.omega_b2]

    def head_layers(self) -> list[Layer]:
        """The head in theta's layout: one hidden ReLU layer, a linear output."""
        return [(self.omega_w1, self.omega_b1), (self.omega_w2, self.omega_b2)]

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every array under its checkpoint name, in checkpoint order."""
        named = {}
        for prefix, layers in (("theta", self.theta), ("ema_theta", self.ema_theta)):
            for i, (w, b) in enumerate(layers):
                named[f"{prefix}_w{i}"] = w
                named[f"{prefix}_b{i}"] = b
        named.update(phi_w=self.phi_w, phi_b=self.phi_b)
        named.update(ema_phi_w=self.ema_phi_w, ema_phi_b=self.ema_phi_b)
        named.update(zip(("omega_w1", "omega_b1", "omega_w2", "omega_b2"), self.omega_arrays()))
        return named


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(
    dims, num_classes: int, attractor_hidden: int, rng: np.random.Generator, norm: str
) -> ModelState:
    """Build a fresh model whose head reads its input under `norm`. dims
    lists the extractor layer widths, input first and feature dim last (so
    len(dims) >= 2). Extractor, classifier and attractor hidden weights get
    scaled-uniform init with zero biases; the attractor OUTPUT layer starts
    at exactly zero, so the residual correction is the identity at step 0.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"extractor_dims: expected >= 2 widths, each >= 1, got {dims}")
    for name, value, low in (("num_classes", num_classes, 2), ("attractor_hidden", attractor_hidden, 1)):
        if value < low:
            raise ValueError(f"{name}: expected >= {low}, got {value}")
    theta = [
        (_glorot(rng, dims[i], dims[i + 1]), np.zeros(dims[i + 1]))
        for i in range(len(dims) - 1)
    ]
    phi_w = _glorot(rng, dims[-1], num_classes)
    phi_b = np.zeros(num_classes)
    omega_w1 = _glorot(rng, num_classes, attractor_hidden)
    omega_b1 = np.zeros(attractor_hidden)
    omega_w2 = np.zeros((attractor_hidden, num_classes))
    omega_b2 = np.zeros(num_classes)
    ema = copy.deepcopy((theta, phi_w, phi_b))
    return ModelState(theta, phi_w, phi_b, omega_w1, omega_b1, omega_w2, omega_b2, norm, *ema)


def copy_state(state: ModelState) -> ModelState:
    return copy.deepcopy(state)


def forward_features(x: np.ndarray, theta: list[Layer]) -> np.ndarray:
    """Extractor output of every row, computed SCORE_BLOCK_ROWS rows at a
    time into one (N, feature_dim) array, so no N x hidden activation is ever
    allocated. Up to one block of rows takes a single features_with_cache
    call. Every row's output is bit-identical to the whole-batch call at the
    extractor widths in use (multiples of 8 under OpenBLAS)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] <= SCORE_BLOCK_ROWS:
        return features_with_cache(x, theta)[0]
    z = np.empty((x.shape[0], theta[-1][0].shape[1]))
    for start in range(0, x.shape[0], SCORE_BLOCK_ROWS):
        stop = start + SCORE_BLOCK_ROWS
        z[start:stop] = features_with_cache(x[start:stop], theta)[0]
    return z


def features_with_cache(x: np.ndarray, theta: list[Layer]):
    """Forward pass of a layer stack (theta, or head_layers()): ReLU after
    every layer except the last, each layer's output a fresh array biased and
    rectified in place (x is never written). The cache is the list of layer
    inputs only: backward reads its ReLU gates from them, so no preactivation
    is kept. x has the input width: harness.check_fits refuses a CSV of
    another feature count."""
    x = np.asarray(x, dtype=np.float64)
    inputs = []
    h = x
    for li, (w, b) in enumerate(theta):
        inputs.append(h)
        h = h @ w
        h += b
        if li < len(theta) - 1:
            np.maximum(h, 0.0, out=h)
    return h, inputs


def features_backward(inputs, theta: list[Layer], d_out: np.ndarray) -> list[np.ndarray]:
    """Backprop d_out through a layer stack given features_with_cache's layer
    inputs; returns its gradients flat (dW0, db0, dW1, ...), the order of
    lower_arrays() for theta and of omega_arrays() for the head. Each hidden
    ReLU is gated by its output (relu(h) > 0 is the same mask as h > 0, at
    +-0.0 and NaN too); the cache is never written."""
    grads: list[np.ndarray] = [None] * (2 * len(theta))  # type: ignore[list-item]
    d = d_out
    for li in range(len(theta) - 1, -1, -1):
        grads[2 * li : 2 * li + 2] = inputs[li].T @ d, d.sum(axis=0)
        if li > 0:
            d = d @ theta[li][0].T
            d *= inputs[li] > 0.0
    return grads


def classifier_scores(z: np.ndarray, phi_w: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    s = z @ phi_w
    s += phi_b
    return s


def normalize_scores(s: np.ndarray, norm: str) -> np.ndarray:
    """Attractor input: softmax of the scores or their L2-normalized value.
    Callers must treat the result as a constant (stop-gradient); a zero score
    row under l2_input maps to the zero vector. TrainConfig.validate and
    load_checkpoint refuse a norm outside NORM_MODES."""
    if norm == "softmax_input":
        return softmax(s)
    norms = np.linalg.norm(s, axis=1, keepdims=True)
    return np.where(norms > 0.0, s / np.where(norms > 0.0, norms, 1.0), 0.0)


def attractor_backward(state: ModelState, u: np.ndarray, a: np.ndarray, d_delta: np.ndarray):
    """Gradient of a scalar (whose dL/ddelta is d_delta) w.r.t. the four
    attractor arrays, in omega_arrays() order, given the head's layer inputs:
    u, a stop-gradient constant, and its hidden ReLU output a."""
    return features_backward([u, a], state.head_layers(), d_delta)


@dataclass
class TrainForwardCache:
    """What a backward pass through forward_train reads: features z, the
    extractor's layer inputs, the head's stop-gradient input u and its ReLU
    output a (the head's gate, a > 0). No preactivation is kept."""

    z: np.ndarray
    feat_cache: list
    u: np.ndarray
    a: np.ndarray


def forward_train(x: np.ndarray, state: ModelState) -> tuple[np.ndarray, TrainForwardCache]:
    """Training-path logits: classifier scores plus the residual attractor
    correction computed from the stop-gradient scores, normalized under
    state.norm. The logits and every cached array are fresh; x is never
    written."""
    z, feat_cache = features_with_cache(x, state.theta)
    logits = classifier_scores(z, state.phi_w, state.phi_b)
    u = normalize_scores(logits, state.norm)
    delta, (_, a) = features_with_cache(u, state.head_layers())
    logits += delta
    return logits, TrainForwardCache(z, feat_cache, u, a)


def forward_eval(x: np.ndarray, state: ModelState, use_ema: bool = False) -> np.ndarray:
    """Evaluation-path logits: extractor + linear classifier only; the
    attractor is never read. The extractor runs in row blocks
    (forward_features); the classifier product is one whole matmul, since
    splitting it changes bits at small class counts."""
    theta, phi_w, phi_b = (
        (state.ema_theta, state.ema_phi_w, state.ema_phi_b) if use_ema
        else (state.theta, state.phi_w, state.phi_b)
    )
    return classifier_scores(forward_features(x, theta), phi_w, phi_b)


def ema_update(state: ModelState, decay: float) -> ModelState:
    """shadow <- decay * shadow + (1 - decay) * param for theta and phi;
    TrainConfig.validate has checked that decay (ema_decay) lies in [0, 1]."""
    for shadow, param in zip(state.ema_arrays(), state.lower_arrays()):
        shadow *= decay
        shadow += (1.0 - decay) * param
    return state


def save_checkpoint(path, state: ModelState) -> None:
    """Versioned npz checkpoint of every parameter array plus dims and the
    attractor norm mode; round-trips bit-exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "extractor_dims": state.extractor_dims(),
        "num_classes": state.num_classes,
        "attractor_hidden": state.attractor_hidden,
        "norm": state.norm,
        "step_count": state.step_count,
        "num_theta_layers": len(state.theta),
    }
    blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(Path(path), meta=blob, **state.named_arrays())


def load_checkpoint(path) -> ModelState:
    """Inverse of save_checkpoint: a model of the metadata's shapes (extractor
    dims, num_classes, attractor_hidden) with each named array copied into
    its slot. Raises naming the file when the archive has no metadata or the
    metadata is unreadable, lacks a key or names an unknown attractor norm,
    and naming the array when one is missing, its shape disagrees with the
    metadata or it holds a non-finite value (the scoring kernels do not scan
    for one)."""
    with np.load(Path(path)) as z:
        if "meta" not in z.files:
            raise ValueError(f"{path}: not a checkpoint, no meta array")
        try:
            meta = json.loads(bytes(z["meta"]).decode())
            version, norm, step_count = meta["version"], meta["norm"], int(meta["step_count"])
            dims = [int(d) for d in meta["extractor_dims"]]
            n_layers = meta["num_theta_layers"]
            k, hidden = int(meta["num_classes"]), int(meta["attractor_hidden"])
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint meta has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable checkpoint meta: {exc}") from None
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if norm not in NORM_MODES:
            raise ValueError(f"{path}: unknown attractor norm {norm!r} in checkpoint meta")
        if n_layers != len(dims) - 1:
            raise ValueError(
                f"{path}: num_theta_layers {n_layers} does not match extractor_dims {dims}"
            )
        try:
            state = init_model(dims, k, hidden, make_rng(0), norm)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for name, slot in state.named_arrays().items():
            if name not in z.files:
                raise ValueError(f"{path}: missing array {name}")
            array = z[name]
            if array.shape != slot.shape:
                raise ValueError(
                    f"{path}: {name} has shape {array.shape}, metadata implies {slot.shape}"
                )
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{path}: {name} holds non-finite values")
            slot[...] = array
    state.step_count = step_count
    return state
