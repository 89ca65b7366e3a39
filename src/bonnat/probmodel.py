"""Expected bag-of-ngrams of a table of per-position distributions.

A table is a plain T x V array. One vectorised kernel works over the
W x n x k factor tensor F[t, i, j] = p[t + i, g_j[i]] of k n-grams and
W = T - n + 1 windows: expected counts are products over i summed over
t, gradients are leave-one-out products scattered back onto the table.
The enumeration oracle that checks it lives in `bonnat.gradcheck`.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .ngram import Ngram, NgramBag


def _rows(T: int, n: int) -> np.ndarray:
    """W x n table row t + i of position i of window t; W = T - n + 1."""
    return np.arange(T - n + 1)[:, None] + np.arange(n)


def _factors(p: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """W x n x k factors F[t, i, j] = p[t + i, grams[j, i]]; needs T >= n."""
    return p[_rows(p.shape[0], grams.shape[1])[:, :, None], grams.T]


def _counts(F: np.ndarray) -> np.ndarray:
    """Per-gram expected counts: factors multiplied in i order, window
    products added in t order (a cumulative sum fixes that order, where
    a plain sum may add pairwise)."""
    prod = F[:, 0]
    for i in range(1, F.shape[1]):
        prod = prod * F[:, i]
    return prod.cumsum(axis=0)[-1]


def _leave_one_out(F: np.ndarray) -> np.ndarray:
    """Product of every factor of a window but the i-th, as a prefix
    product times a suffix product, so it stays exact when a factor is
    zero."""
    n = F.shape[1]
    out = np.ones_like(F)
    for i in range(1, n):
        out[:, i] = out[:, i - 1] * F[:, i - 1]
    suffix = np.ones_like(F[:, 0])
    for i in range(n - 2, -1, -1):
        suffix = suffix * F[:, i + 1]
        out[:, i] *= suffix
    return out


def expected_ngram_count(table, g: Ngram) -> float:
    """Sum over windows t of prod_i p(y_{t+i} = g_i); 0 when T < n."""
    p = np.asarray(table, dtype=float)
    if p.shape[0] < len(g):
        return 0.0
    return float(_counts(_factors(p, np.array([g])))[0])


def expected_bag(table, support: Mapping[Ngram, float]) -> NgramBag:
    """Expected counts for the n-grams of a reference bag only.

    The cost is O(T * n * |support|) instead of touching all V^n n-grams.
    """
    p = np.asarray(table, dtype=float)
    if not support:
        return {}
    grams = list(support)
    if p.shape[0] < len(grams[0]):
        return {}
    return dict(zip(grams, _counts(_factors(p, np.array(grams))).tolist()))


def expected_count_gradient(table, grams) -> np.ndarray:
    """d expected_ngram_count / d p(y_t = w), a T x V matrix, summed over
    `grams`: one n-gram or a k x n array of them.

    The result equals, bit for bit, adding one gram's gradient after
    another, each accumulated window by window. The first scatter adds
    each gram's terms in (t, i) order into a per-gram stage, whose slots
    are the gram's distinct tokens at each row; the second adds the
    stages into the table in gram order.
    """
    p = np.asarray(table, dtype=float)
    T, V = p.shape
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    k, n = grams.shape
    if k == 0 or T < n:
        return np.zeros((T, V))
    # slot of position i: the first position of the gram with its token;
    # term (t, i) of gram j goes to stage cell (j, row t + i, slot)
    slot = (grams[:, :, None] == grams[:, None, :]).argmax(axis=2)
    keys = (np.arange(k) * T + _rows(T, n)[:, :, None]) * n + slot.T
    stage = np.bincount(
        keys.ravel(),
        weights=_leave_one_out(_factors(p, grams)).ravel(),
        minlength=k * T * n,
    )
    cells = np.arange(T)[:, None] * V + grams[:, None, :]  # k x T x n
    return np.bincount(cells.ravel(), weights=stage, minlength=T * V).reshape(T, V)
