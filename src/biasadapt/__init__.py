"""Bias-adaptive classifier training for class-imbalanced semi-supervised
learning: pseudo-labeling with confidence masking, a residual bias-attractor
head on the linear classifier, and a bi-level optimizer whose second-order
step unrolls only the classifier gradient."""
