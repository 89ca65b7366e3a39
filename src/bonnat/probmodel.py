"""Expected bag-of-ngrams of a table of per-position distributions.

A table is a plain T x V array, or a stack of them, one sentence's rows
after another. One vectorised kernel works over (gram, window) pairs:
pair q of n-gram g and the window at row r has factors
F[q, i] = p[r + i, g[i]]. Expected counts are products over i summed
over windows, gradients are leave-one-out products scattered back onto
the table. Each gram has a span of rows, the whole table by default:
one table is the case of one full-table span per gram.
The enumeration oracle that checks it lives in `bonnat.gradcheck`.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .ngram import Ngram, NgramBag


def _windows(p: np.ndarray, k: int, spans, shrink: int) -> tuple:
    """(start, count): the first row of each of the k grams' spans and
    its length less `shrink`, at least 0; with shrink = n - 1, the
    number of its windows. Without `spans` every gram spans the whole
    table from row 0."""
    if spans is None:
        return 0, np.full(k, max(p.shape[0] - shrink, 0), dtype=np.intp)
    start, length = spans
    return (np.asarray(start, dtype=np.intp),
            np.maximum(np.asarray(length, dtype=np.intp) - shrink, 0))


def _ragged(base: np.ndarray, start, count: np.ndarray, step: int) -> np.ndarray:
    """Rows base[j] + step * (start[j] + t) for t = 0 .. count[j] - 1,
    gram 0's first, then gram 1's, and so on: the k x n per-gram `base`
    laid out over count[j] rows from row start[j] on."""
    first = np.cumsum(count) - count
    out = np.repeat(step * (start - first)[:, None] + base, count, axis=0)
    out += np.arange(0, step * len(out), step)[:, None]
    return out


def _factors(p: np.ndarray, grams: np.ndarray, start, count) -> np.ndarray:
    """P x n factors F[q, i] = p[r + i, g[i]] of the (gram g, window at
    row r) pairs, gram j's count[j] windows from row start[j] on."""
    V = p.shape[1]
    return p.take(_ragged(V * np.arange(grams.shape[1]) + grams, start, count, V))


def _products(F: np.ndarray) -> np.ndarray:
    """Window products, factors multiplied in i order."""
    prod = F[..., 0]
    for i in range(1, F.shape[-1]):
        prod = prod * F[..., i]
    return prod


def _leave_one_out(F: np.ndarray) -> np.ndarray:
    """Product of every factor of a window but the i-th, as a prefix
    product times a suffix product, so it stays exact when a factor is
    zero."""
    n = F.shape[-1]
    out = np.ones_like(F)
    for i in range(1, n):
        out[..., i] = out[..., i - 1] * F[..., i - 1]
    suffix = np.ones_like(F[..., 0])
    for i in range(n - 2, -1, -1):
        suffix = suffix * F[..., i + 1]
        out[..., i] *= suffix
    return out


def expected_counts(table, grams, spans=None) -> np.ndarray:
    """Expected count of each n-gram of the k x n array `grams`: the sum
    over the windows of its span of the product of its factors.

    `spans` = (start, length) gives gram j the table rows start[j] ..
    start[j] + length[j] - 1, so one call counts the grams of many
    stacked sentences, each over its own rows; a span shorter than n
    counts 0. Window products are added in window order, by one
    bincount over the (gram, window) pairs.
    """
    p = np.asarray(table, dtype=float)
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    k, n = grams.shape
    start, count = _windows(p, k, spans, n - 1)
    prod = _products(_factors(p, grams, start, count))
    return np.bincount(
        np.arange(k).repeat(count), weights=prod, minlength=k
    )


def expected_ngram_count(table, g: Ngram) -> float:
    """Sum over windows t of prod_i p(y_{t+i} = g_i); 0 when T < n."""
    return float(expected_counts(table, [g])[0])


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
    return dict(zip(grams, expected_counts(p, grams).tolist()))


def expected_count_gradient(table, grams, spans=None, out=None) -> np.ndarray:
    """d expected_ngram_count / d p(y_t = w), a table-shaped float64
    matrix, summed over `grams`: one n-gram or a k x n array of them,
    each over its span of rows as in `expected_counts`. It is written
    into `out`, a C-contiguous float64 array of the table's shape, when
    one is given, and into a new array otherwise.

    The result equals, bit for bit, adding one gram's gradient after
    another, each accumulated window by window. The first scatter adds
    each gram's terms in (t, i) order into a per-gram stage, whose slots
    are the gram's distinct tokens at each row of its span; the second
    adds the stages into the zeroed table in gram order.
    """
    p = np.asarray(table, dtype=float)
    R, V = p.shape
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    k, n = grams.shape
    start, count = _windows(p, k, spans, n - 1)
    _, length = _windows(p, k, spans, 0)
    # slot of position i: the first position of the gram with its token.
    # The stages are n slots per row of each gram's span, stacked, from
    # stage row first[j] on; a slot's table cell is its row's and token's
    slot = (grams[:, :, None] == grams[:, None, :]).argmax(axis=2)
    first = np.cumsum(length) - length
    cells = _ragged(grams, start, length, V)
    # term (t, i) of a gram goes to its stage's row t + i, at its slot
    stage = np.bincount(
        _ragged(n * np.arange(n) + slot, first, count, n).ravel(),
        weights=_leave_one_out(_factors(p, grams, start, count)).ravel(),
        minlength=cells.size,
    )
    if out is None:
        out = np.zeros((R, V))
    else:
        out.fill(0.0)
    np.add.at(out.reshape(-1), cells.ravel(), stage)
    return out
