"""Bias-adaptive classifier training for class-imbalanced semi-supervised
learning: pseudo-labeling with confidence masking, a residual bias-attractor
head on the linear classifier, and a bi-level optimizer whose second-order
step unrolls only the classifier gradient."""

from .bilevel import (
    TRACE_DTYPE,
    TrainConfig,
    TrainingDiverged,
    lower_loss,
    lower_step,
    omega_step,
    schedule_rates,
    train,
    upper_loss,
)
from .data import (
    Dataset,
    ImbalanceProfile,
    balanced_batch,
    balanced_index,
    class_counts,
    load_csv_dataset,
    save_csv_dataset,
    synth_gaussian_mixture,
)
from .metrics import (
    MetricsReport,
    balanced_accuracy,
    confusion,
    evaluate,
    geometric_mean,
    predicted_distribution,
    pseudo_label_recall,
)
from .model import (
    ModelState,
    ema_update,
    forward_eval,
    forward_features,
    forward_train,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .numcore import cross_entropy, make_rng, softmax
from .pseudo import PseudoBatch, assign_pseudo_labels, augment

__all__ = [name for name in dir() if not name.startswith("_")]
