"""Cross-entropy, BoN-L1 and joint losses with analytic gradients.

All gradients are taken with respect to the probability table. The BoN
losses only touch n-grams present in the reference: off-support n-grams
contribute no match mass and therefore no gradient.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ngram import count_ngrams
from .probmodel import expected_bag, expected_count_gradient

LOG_CLAMP = 1e-12


@dataclass
class LossResult:
    value: float
    grad: np.ndarray | None  # None when only the value was asked for
    match: float = 0.0  # sum_g min(expected, reference) mass
    degenerate: bool = False


@dataclass(frozen=True)
class JointConfig:
    alpha: float = 0.1
    n: int = 2

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 1 <= self.n <= 4:
            raise ValueError("n-gram order must be in 1..4")


def cross_entropy(table, ref: Sequence[int]) -> LossResult:
    p = np.asarray(table, dtype=float)
    T, V = p.shape
    if len(ref) != T:
        raise ValueError(
            f"reference length {len(ref)} does not match table length {T}"
        )
    rows = np.arange(T)
    picked = np.maximum(p[rows, ref], LOG_CLAMP)
    value = float(-np.log(picked).sum())
    grad = np.zeros((T, V))
    grad[rows, ref] = -1.0 / picked
    return LossResult(value=value, grad=grad)


def bon_l1(table, ref: Sequence[int], n: int, grad: bool = True) -> LossResult:
    """L1 distance between expected and reference bags: 2(T-n+1-match).

    The subgradient at min ties flows through the expected count, i.e.
    an n-gram contributes gradient whenever expected <= reference. With
    grad=False only the value and match are computed (grad is None).
    """
    p = np.asarray(table, dtype=float)
    T, V = p.shape
    if T < n or len(ref) < n:
        # short sentences are defined as zero loss, flagged for callers
        zero = np.zeros((T, V)) if grad else None
        return LossResult(value=0.0, grad=zero, degenerate=True)
    ref_bag = count_ngrams(ref, n)
    model_bag = expected_bag(p, ref_bag)
    expected = np.fromiter(model_bag.values(), float, len(model_bag))
    ref_counts = np.fromiter(ref_bag.values(), float, len(ref_bag))
    # added in support order, as a running sum would
    match = float(np.minimum(expected, ref_counts).cumsum()[-1])
    # match <= T-n+1 holds exactly; clamp the float rounding residue so
    # the loss (and its [0,1] normalization) cannot go negative
    value = max(0.0, 2.0 * (T - n + 1 - match))
    if not grad:
        return LossResult(value=value, grad=None, match=match)
    active = np.array(list(ref_bag), dtype=np.intp)[expected <= ref_counts]
    # doubling is exact, so this equals subtracting 2x each gram's
    # gradient in turn from zero
    dp = 0.0 - 2.0 * expected_count_gradient(p, active)
    return LossResult(value=value, grad=dp, match=match)


def bon_loss(table, ref: Sequence[int], n: int, grad: bool = True) -> LossResult:
    """BoN-L1 normalized to [0, 1] by the constant 2(T-n+1)."""
    raw = bon_l1(table, ref, n, grad)
    if raw.degenerate:
        return raw
    T = np.asarray(table, dtype=float).shape[0]
    scale = 2.0 * (T - n + 1)
    return LossResult(
        value=raw.value / scale,
        grad=None if raw.grad is None else raw.grad / scale,
        match=raw.match,
    )


def mix(ce_weight: float, ce, bon):
    """ce_weight * ce + (1 - ce_weight) * bon, for loss values or gradients.
    At weight 1 (0) the CE (BoN) term is returned as it is: the other term
    may then be None, and no rounding or signed zero is added."""
    if ce_weight == 1.0:
        return ce
    if ce_weight == 0.0:
        return bon
    return ce_weight * ce + (1.0 - ce_weight) * bon


def joint_loss(table, ref: Sequence[int], cfg: JointConfig) -> LossResult:
    """alpha * cross-entropy + (1 - alpha) * BoN loss."""
    ce = cross_entropy(table, ref)
    if cfg.alpha == 1.0:
        return ce
    bon = bon_loss(table, ref, cfg.n)
    return LossResult(
        value=mix(cfg.alpha, ce.value, bon.value),
        grad=mix(cfg.alpha, ce.grad, bon.grad),
        match=bon.match,
        degenerate=bon.degenerate,
    )
