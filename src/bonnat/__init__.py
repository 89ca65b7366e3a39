"""Differentiable bag-of-ngrams training for non-autoregressive
sequence models: exact expected n-gram counts, the sparse L1 objective
with analytic gradients, a small trainable model and evaluation tools.
"""

from .loss import JointConfig, LossResult, bon_l1, bon_loss, cross_entropy, joint_loss
from .ngram import count_ngrams
from .probmodel import expected_bag, expected_ngram_count

__all__ = [
    "JointConfig",
    "LossResult",
    "bon_l1",
    "bon_loss",
    "count_ngrams",
    "cross_entropy",
    "expected_bag",
    "expected_ngram_count",
    "joint_loss",
]
