"""Expected bag-of-ngrams of a table of per-position distributions.

A table is a plain T x V array, or a stack of them, one sentence's rows
after another. The expected count of an n-gram g is the sum over
windows r of the product of its factors p[r + i, g[i]], multiplied in i
order and added in window order.

A whole table counts with `expected_counts` (and `expected_ngram_count`
and `expected_bag`, which call it): factor i of every window of every
gram is one k x W slice of the transposed table, its position columns,
and no index array is built. A stack counts with
`pair_counts(factor_pairs(...))`, and every gradient works over the same
(gram, window) pairs: pair q of n-gram g and the window at row r has
factors F[q, i] = p[r + i, g[i]] at the flat table cells cells[q, i].
Each gram has a span of rows, the whole table by default, and
`factor_pairs` is the one function that reads spans.

`factor_pairs` gathers a call's pairs once, and a caller that wants
both the counts and the gradient hands the same pairs to each. The
gradient always takes pairs, a whole table's as a stack's. It adds
every pair's leave-one-out terms straight onto the zeroed table at
those cells, in (gram, window, position) order, as a loop over the
active grams' windows and positions would; the term of an inactive
gram is +0.0. Adding +0.0 is exact for any cell that is not -0.0, and a
cell never is: it starts at +0.0, and a sum is -0.0 only when both
addends are.
The enumeration oracle that checks it lives in `bonnat.gradcheck`.
"""
from __future__ import annotations

from itertools import chain
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
    k x n array `grams`, in (gram, window) order: cells[q, i] is the flat
    table index of cell (r + i, g[i]) and F[q, i] = p[r + i, g[i]] the
    factor there, both P x n. `spans` = (start, length) gives gram j the
    table rows start[j] .. start[j] + length[j] - 1, so one call covers
    the grams of many stacked sentences, each over its own rows; gram j
    has count[j] windows, none for a span shorter than n. Without `spans`
    every gram spans the whole table. This is the one function that reads
    spans: `pair_counts` and `expected_count_gradient` take its pairs."""
    p = np.asarray(table, dtype=float)
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    k, n = grams.shape
    R, V = p.shape
    if spans is None:
        spans = (np.zeros(k, dtype=np.intp), np.full(k, R))
    start = np.asarray(spans[0], dtype=np.intp)
    count = np.maximum(np.asarray(spans[1], dtype=np.intp) - (n - 1), 0)
    cells = _ragged(V * np.arange(n) + grams, start, count, V)
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


def expected_counts(table, grams) -> np.ndarray:
    """Expected count of each n-gram of the k x n array `grams` over the
    whole table: the sum over its windows of the product of its factors,
    added in window order. Factor i of the W windows of every gram is the
    position column slice p.T[grams[:, i], i:i + W], so no index array is
    built. The in-order running sum of a row ends at the sum bincount
    adds from +0.0; adding +0.0 gives that start's one effect, that a sum
    of -0.0 products is +0.0. These are `pair_counts`' bits over full
    spans but for the sign of a NaN: numpy's multiply loops give NaN * NaN
    either operand's.
    """
    p = np.asarray(table, dtype=float)
    grams = np.array(grams, dtype=np.intp, ndmin=2)
    k, n = grams.shape
    W = p.shape[0] - n + 1
    if W <= 0:
        return np.zeros(k)
    cols = p.T
    # _products' loop over column slices, which a generator would slow
    prod = cols[grams[:, 0], :W]
    for i in range(1, n):
        prod = prod * cols[grams[:, i], i : i + W]
    return np.add.accumulate(prod, axis=1)[:, -1] + 0.0


def pair_counts(pairs) -> np.ndarray:
    """Expected count of each gram of `factor_pairs`' (count, cells, F):
    one bincount of the window products over the (gram, window) pairs,
    added in window order; float64 zeros for a gram with no window."""
    count, _, F = pairs
    k = len(count)
    return np.bincount(np.arange(k).repeat(count), weights=_products(F),
                       minlength=k).astype(float, copy=False)


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
    k, n = len(grams), len(grams[0])
    if p.shape[0] < n:
        return {}
    flat = np.fromiter(chain.from_iterable(grams), np.intp, k * n)
    return dict(zip(grams, expected_counts(p, flat.reshape(k, n)).tolist()))


def expected_count_gradient(table, pairs, active=None, out=None) -> np.ndarray:
    """d expected_ngram_count / d p(y_t = w), a table-shaped float64
    matrix, summed over the (gram, window) `pairs` that `factor_pairs`
    returns, the ones `pair_counts` reads; only over the grams where the
    k-long bool mask `active` holds when it is given. It is written into
    `out`, a C-contiguous float64 array of the table's shape, when one is
    given, and into a new array otherwise.

    The result equals, bit for bit, a loop that adds each active gram's
    terms, window by window and position by position, straight into one
    table from +0.0: one scatter adds every pair's leave-one-out terms
    onto the zeroed table at its factors' cells, in (gram, window, i)
    order, with the terms of inactive grams made +0.0. Adding +0.0 to a
    cell changes no bit, because a cell is never -0.0: it starts at
    +0.0, and x + y is -0.0 only when both are.
    """
    count, cells, F = pairs
    terms = _leave_one_out(F)
    if active is not None:
        terms[np.repeat(~active, count)] = 0.0
    if out is None:
        out = np.zeros(np.shape(table))
    else:
        out.fill(0.0)
    np.add.at(out.reshape(-1), cells.ravel(), terms.ravel())
    return out
