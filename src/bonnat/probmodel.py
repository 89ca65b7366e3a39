"""Expected bag-of-ngrams of a table of per-position distributions.

A table is a plain T x V array, or a stack of them, one sentence's rows
after another. One vectorised kernel works over (gram, window) pairs:
pair q of n-gram g and the window at row r has factors
F[q, i] = p[r + i, g[i]]. Expected counts are products over i summed
over windows, gradients are leave-one-out products scattered back onto
the table. Each gram has a span of rows, the whole table by default:
one table is the case of one full-table span per gram.

`factor_pairs` gathers a call's factors and their cells once, and a
caller that wants both the counts and the gradient hands the same
pairs to each. The gradient adds every pair's terms straight onto the
zeroed table at those cells, and keeps the bits of the per-window loop
it replaced: where a gram meets a cell twice (it repeats a token) the
terms are summed first in the loop's order, and every term left out, a
merged partner or one of an inactive gram, is +0.0. Adding +0.0 is
exact for any cell that is not -0.0, and a cell never is: it starts at
+0.0, and a sum is -0.0 only when both addends are.
The enumeration oracle that checks it lives in `bonnat.gradcheck`.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .ngram import Ngram, NgramBag


def _ragged(base: np.ndarray, start, count: np.ndarray, step: int) -> np.ndarray:
    """Rows base[j] + step * (start[j] + t) for t = 0 .. count[j] - 1,
    gram 0's first, then gram 1's, and so on: the k x n per-gram `base`
    laid out over count[j] rows from row start[j] on."""
    first = np.cumsum(count) - count
    out = np.repeat(step * (start - first)[:, None] + base, count, axis=0)
    out += np.arange(0, step * len(out), step)[:, None]
    return out


def factor_pairs(table, grams, spans=None) -> tuple:
    """(count, cells, F) of the (gram g, window at row r) pairs of the
    k x n array `grams`, gram j's count[j] windows from the first row of
    its span on (see `expected_counts`), in (gram, window) order:
    cells[q, i] is the flat table index of cell (r + i, g[i]) and
    F[q, i] = p[r + i, g[i]] the factor there, both P x n. Without
    `spans` every gram spans the whole table."""
    p = np.asarray(table, dtype=float)
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    k, n = grams.shape
    R, V = p.shape
    base = V * np.arange(n) + grams
    if spans is None:
        # every gram has the same W windows: _ragged's rows as one rectangle
        W = max(R - n + 1, 0)
        count = np.full(k, W, dtype=np.intp)
        cells = (base[:, None, :] + V * np.arange(W)[:, None]).reshape(k * W, n)
    else:
        start = np.asarray(spans[0], dtype=np.intp)
        count = np.maximum(np.asarray(spans[1], dtype=np.intp) - (n - 1), 0)
        cells = _ragged(base, start, count, V)
    return count, cells, p.take(cells)


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


def expected_counts(table, grams, spans=None, pairs=None) -> np.ndarray:
    """Expected count of each n-gram of the k x n array `grams`: the sum
    over the windows of its span of the product of its factors.

    `spans` = (start, length) gives gram j the table rows start[j] ..
    start[j] + length[j] - 1, so one call counts the grams of many
    stacked sentences, each over its own rows; a span shorter than n
    counts 0. Window products are added in window order, by one
    bincount over the (gram, window) pairs: `factor_pairs(table, grams,
    spans)`, or `pairs` when given.
    """
    count, _, F = factor_pairs(table, grams, spans) if pairs is None else pairs
    k = len(count)
    return np.bincount(np.arange(k).repeat(count), weights=_products(F),
                       minlength=k)


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


def _merge_repeats(terms, grams, count, active) -> None:
    """Pre-add, in place, the leave-one-out terms of each active gram that
    meet at one table cell, which happens where the gram repeats a token:
    the term at position c of window t and the one at position b < c of
    window t + c - b, when g[b] = g[c]. The cell's term of the latest
    position holds their sum, its partners added in descending position
    as the loop over windows adds them, and the partners become +0.0.
    The sum is the loop's sum for the gram and cell, but for the sign of
    a zero, which adding it to a cell that is not -0.0 ignores."""
    n = grams.shape[1]
    first = np.cumsum(count) - count
    for c in range(n - 1, 0, -1):
        for b in range(c - 1, -1, -1):
            d = c - b
            same = (grams[:, b] == grams[:, c]) & active & (count > d)
            j = np.flatnonzero(same)
            if not len(j):
                continue
            # rows t of gram j whose partner window t + d is one of its own
            rows = _ragged(first[j, None], 0, count[j] - d, 1).ravel()
            terms[rows, c] += terms[rows + d, b]
            terms[rows + d, b] = 0.0


def expected_count_gradient(table, grams, spans=None, out=None, pairs=None,
                            active=None) -> np.ndarray:
    """d expected_ngram_count / d p(y_t = w), a table-shaped float64
    matrix, summed over `grams`: one n-gram or a k x n array of them,
    each over its span of rows as in `expected_counts`, and over those
    where the k-long bool mask `active` holds when it is given. It is
    written into `out`, a C-contiguous float64 array of the table's
    shape, when one is given, and into a new array otherwise. The
    (gram, window) pairs are `factor_pairs(table, grams, spans)`, or
    `pairs` when given.

    The result equals, bit for bit, adding one gram's gradient after
    another, each accumulated window by window. One scatter adds every
    pair's leave-one-out terms onto the zeroed table at its factors'
    cells, in (gram, window, i) order. A gram meets a cell at most once
    but where it repeats a token, so those terms are first summed in the
    loop's order into one (`_merge_repeats`); the partners it leaves and
    the terms of inactive grams are +0.0. Adding +0.0 to a cell changes
    no bit, because a cell is never -0.0: it starts at +0.0, and x + y
    is -0.0 only when both are.
    """
    p = np.asarray(table, dtype=float)
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    count, cells, F = factor_pairs(p, grams, spans) if pairs is None else pairs
    terms = _leave_one_out(F)
    if active is None:
        active = np.ones(len(count), dtype=bool)
    else:
        terms[np.repeat(~active, count)] = 0.0
    _merge_repeats(terms, grams, count, active)
    if out is None:
        out = np.zeros(p.shape)
    else:
        out.fill(0.0)
    np.add.at(out.reshape(-1), cells.ravel(), terms.ravel())
    return out
