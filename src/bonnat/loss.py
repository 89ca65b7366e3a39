"""Cross-entropy, BoN-L1 and joint losses with analytic gradients.

All gradients are taken with respect to the probability table. The BoN
losses only touch n-grams present in the reference: off-support n-grams
contribute no match mass and therefore no gradient.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ngram import count_ngrams, ragged_supports
from .probmodel import (
    expected_bag, expected_count_gradient, factor_pairs, pair_counts,
)

LOG_CLAMP = 1e-12


@dataclass
class LossResult:
    value: float
    grad: np.ndarray | None  # None when only the value was asked for
    match: float = 0.0  # sum_g min(expected, reference) mass
    degenerate: bool = False


class BoundError(ValueError):
    """A named value outside its bounds."""

    def __init__(self, name: str, value, bound: str):
        super().__init__(f"{name} must be {bound}, got {value}")
        self.name, self.value, self.bound = name, value, bound


def check_at_least(lows) -> None:
    """Each (name, value, low) with value < low is a BoundError."""
    for name, value, low in lows:
        if value < low:
            raise BoundError(name, value, f"at least {low}")


@dataclass(frozen=True)
class JointConfig:
    alpha: float = 0.1
    n: int = 2

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise BoundError("alpha", self.alpha, "in [0, 1]")
        if not 1 <= self.n <= 4:
            raise BoundError("n", self.n, "in 1..4")


def cross_entropy(table, ref: Sequence[int], dense: bool = True) -> LossResult:
    """Summed cross-entropy of the reference tokens. Its gradient is zero
    but at the cells (t, ref[t]), which hold -1 / p[t, ref[t]]; with
    dense=False `grad` holds only those T values, not a T x V table."""
    p = np.asarray(table, dtype=float)
    T, V = p.shape
    if len(ref) != T:
        raise ValueError(
            f"reference length {len(ref)} does not match table length {T}"
        )
    rows = np.arange(T)
    picked = np.maximum(p[rows, ref], LOG_CLAMP)
    value = float(-np.add.reduce(np.log(picked)))
    cells = -1.0 / picked
    if not dense:
        return LossResult(value=value, grad=cells)
    grad = np.zeros((T, V))
    grad[rows, ref] = cells
    return LossResult(value=value, grad=grad)


def in_order_sum(values) -> float:
    """`values` added one by one from 0.0, as np.bincount adds its
    weights; not the built-in sum(), which compensates from Python 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def _bon_grad(p, pairs, active, out=None) -> np.ndarray:
    """The BoN-L1 gradient, 0.0 - 2 * the expected count gradient over the
    `factor_pairs` pairs of the grams where `active` (expected <=
    reference) holds, written into `out` when given."""
    g = expected_count_gradient(p, pairs, active, out)
    g *= 2.0
    return np.subtract(0.0, g, out=g)


def bon_l1(table, ref: Sequence[int], n: int, grad: bool = True) -> LossResult:
    """2(T-n+1-match): the L1 distance between expected and reference bags
    when len(ref) == T, and otherwise 2 sum_g max(E_g - R_g, 0). At n = 2
    the one-hot table of (0, 1, 0, 1) against ref (0, 1) gives 4.0, not the
    L1 distance 2, and that of (0, 1) against (0, 1, 0, 1) gives 0.0, not 2.

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
    # min(expected, reference) in support order: a NaN expected count
    # stays NaN, as with np.minimum
    match = in_order_sum(map(min, model_bag.values(), ref_bag.values()))
    dp = None
    if grad:
        k = len(ref_bag)
        active = (np.fromiter(model_bag.values(), float, k)
                  <= np.fromiter(ref_bag.values(), float, k))
        dp = _bon_grad(p, factor_pairs(p, list(ref_bag)), active)
    # match <= T-n+1 holds exactly; clamp the float rounding residue so
    # the loss (and its [0,1] normalization) cannot go negative. max(x, 0.0)
    # returns x unless 0.0 > x, so a NaN x stays NaN
    value = max(2.0 * (T - n + 1 - match), 0.0)
    return LossResult(value=value, grad=dp, match=match)


@dataclass
class GroupLoss:
    """Normalized BoN losses of a stack of sentences."""

    values: np.ndarray  # one per sentence, 0 for a degenerate one
    value: float  # their sum, added in sentence order
    grad: np.ndarray | None  # stacked like the table; None without grad
    degenerate: int  # sentences shorter than n


def _group_bon_loss(p, ref, n, grad, lengths, out) -> GroupLoss:
    lengths = np.asarray(lengths, dtype=np.intp)
    if len(ref) != p.shape[0] or lengths.sum() != len(ref):
        raise ValueError("a stack needs one reference token per table row")
    ref = np.asarray(ref, dtype=np.intp)
    sent, first, ref_counts = ragged_supports(ref, lengths, n)
    grams = ref[first[:, None] + np.arange(n)]
    starts = np.cumsum(lengths) - lengths
    # one gather of the factors serves the counts and the gradient
    pairs = factor_pairs(p, grams, (starts[sent], lengths[sent]))
    expected = pair_counts(pairs)
    # added in support order, as a running sum would
    match = np.bincount(sent, weights=np.minimum(expected, ref_counts),
                        minlength=len(lengths))
    dp = _bon_grad(p, pairs, expected <= ref_counts, out) if grad else None
    windows = lengths - n + 1
    # bon_l1's value, elementwise: np.maximum keeps a NaN, as max(x, 0.0)
    value = np.maximum(2.0 * (windows - match), 0.0)
    # a degenerate sentence's value and rows are 0, whatever the divisor
    scale = 2.0 * np.maximum(windows, 1)
    values = value / scale
    if dp is not None:
        dp /= np.repeat(scale, lengths)[:, None]
    return GroupLoss(values, in_order_sum(values.tolist()), dp,
                     int((lengths < n).sum()))


def bon_loss(
    table, ref: Sequence[int], n: int, grad: bool = True, lengths=None, out=None
) -> LossResult | GroupLoss:
    """`bon_l1` normalized to [0, 1] by the constant 2(T-n+1); like it, a
    normalized L1 distance only when len(ref) == T.

    With `lengths`, `table` stacks the tables of len(lengths) sentences,
    one after another, and `ref` their references, one token per row:
    the result is a `GroupLoss` whose values and gradient rows equal, bit
    for bit, this function's on each sentence's rows. Every sentence's
    support comes from one ranking of the stack's windows and its counts
    and gradient from one kernel call each. A stack's gradient is written
    into `out`, a C-contiguous float64 array of the table's shape, when
    one is given.
    """
    p = np.asarray(table, dtype=float)
    if lengths is not None:
        return _group_bon_loss(p, ref, n, grad, lengths, out)
    raw = bon_l1(p, ref, n, grad)
    if raw.degenerate:
        return raw
    scale = 2.0 * (p.shape[0] - n + 1)
    raw.value /= scale
    if raw.grad is not None:
        raw.grad /= scale
    return raw


def mix(ce_weight: float, ce, bon):
    """ce_weight * ce + (1 - ce_weight) * bon, the joint loss value. At
    weight 1 (0) the CE (BoN) term is returned as it is: the other term
    may then be None, and no rounding or signed zero is added. Gradient
    tables are mixed by `mix_ce_cells`; on dense tables this function is
    its reference."""
    if ce_weight == 1.0:
        return ce
    if ce_weight == 0.0:
        return bon
    return ce_weight * ce + (1.0 - ce_weight) * bon


def mix_ce_cells(ce_weight: float, ce_cells, ref, bon: np.ndarray) -> np.ndarray:
    """The joint loss gradient: `mix(ce_weight, ce, bon)` of gradient
    tables, written over `bon` and returned, where `ce` is the CE
    gradient given by its values `ce_cells` at the cells (t, ref[t]) and
    zero elsewhere, as `cross_entropy(..., dense=False)` returns it. At
    weight 1 the BoN term is not used and `bon` only holds the result.
    Every entry equals `mix`'s, bit for bit."""
    if ce_weight == 0.0:
        return bon
    rows = np.arange(len(ref))
    if ce_weight == 1.0:
        bon.fill(0.0)
        bon[rows, ref] = ce_cells
        return bon
    bon *= 1.0 - ce_weight
    bon[rows, ref] += ce_weight * ce_cells
    # off the cells `mix` adds (1 - w) * bon to w * 0.0, which turns a
    # product that underflowed to -0.0 into +0.0
    bon += 0.0
    return bon


def joint_loss(table, ref: Sequence[int], cfg: JointConfig) -> LossResult:
    """alpha * cross-entropy + (1 - alpha) * BoN loss. Below alpha 1 the
    gradient is mixed as a training step mixes it, over BoN's table."""
    if cfg.alpha == 1.0:
        return cross_entropy(table, ref)
    ce = cross_entropy(table, ref, dense=False)
    bon = bon_loss(table, ref, cfg.n)
    return LossResult(
        value=mix(cfg.alpha, ce.value, bon.value),
        grad=mix_ce_cells(cfg.alpha, ce.grad, ref, bon.grad),
        match=bon.match,
        degenerate=bon.degenerate,
    )
