"""The vectorised window-product kernel against the per-window loops it
replaced, kept here as the reference.

The kernel keeps the loops' arithmetic order (factors multiplied in n
order, windows added in t order, gradient terms added straight into one
table in (gram, window, position) order), so values, matches and
gradients must agree exactly, signed zeros included.
"""
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bonnat.gradcheck import oracle_expected_bag
from bonnat.loss import LossResult, bon_loss
from bonnat.ngram import count_ngrams
from bonnat.probmodel import (
    expected_bag,
    expected_count_gradient,
    expected_ngram_count,
    factor_pairs,
)


def loop_count_gradient(p, g, grad=None):
    """d expected count of g / d p, one window at a time, its terms added
    onto `grad` (a new zero table when not given), which it returns."""
    T, V = p.shape
    n = len(g)
    if grad is None:
        grad = np.zeros((T, V))
    if T < n:
        return grad
    for t in range(T - n + 1):
        factors = np.array([p[t + i, g[i]] for i in range(n)])
        # leave-one-out products via prefix/suffix, safe at zero factors
        prefix = np.ones(n)
        suffix = np.ones(n)
        for i in range(1, n):
            prefix[i] = prefix[i - 1] * factors[i - 1]
            suffix[n - 1 - i] = suffix[n - i] * factors[n - i]
        for i in range(n):
            grad[t + i, g[i]] += prefix[i] * suffix[i]
    return grad


def loop_expected_bag(p, support):
    grams = list(support)
    n = len(grams[0])
    T = p.shape[0]
    cols = np.array(grams).T
    offsets = np.arange(n)[:, None]
    totals = np.zeros(len(grams))
    for t in range(T - n + 1):
        totals += p[t + offsets, cols].prod(axis=0)
    return {g: float(v) for g, v in zip(grams, totals)}


def loop_bon_loss(p, ref, n):
    """Normalized BoN-L1 with one gradient call per active n-gram, each
    adding its terms into one table."""
    T, V = p.shape
    if T < n or len(ref) < n:
        return LossResult(value=0.0, grad=np.zeros((T, V)), degenerate=True)
    ref_bag = count_ngrams(ref, n)
    model_bag = loop_expected_bag(p, ref_bag)
    match = 0.0
    acc = np.zeros((T, V))
    for g, ref_count in ref_bag.items():
        expected = model_bag.get(g, 0.0)
        match += min(expected, ref_count)
        if expected <= ref_count:
            loop_count_gradient(p, g, acc)
    grad = 0.0 - 2.0 * acc
    scale = 2.0 * (T - n + 1)
    value = max(0.0, 2.0 * (T - n + 1 - match))
    return LossResult(value=value / scale, grad=grad / scale, match=match)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def bon_cases(draw):
    """A table, a reference of the table's length and an order n.

    Tables are random, or one-hot rows with exact zeros elsewhere; small
    vocabularies make repeated tokens and min() ties common."""
    T = draw(st.integers(1, 32))
    V = draw(st.sampled_from([2, 3, 8, 24, 200]))
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ref = tuple(int(x) for x in rng.integers(0, V, size=T))
    if draw(st.integers(0, 3)) == 0:  # a single distinct n-gram
        ref = ref[:1] * T
    if draw(st.booleans()):
        p = np.zeros((T, V))
        hot = ref if draw(st.booleans()) else rng.integers(0, V, size=T)
        p[np.arange(T), hot] = 1.0
    else:
        raw = rng.random((T, V)) ** draw(st.sampled_from([1, 8]))
        p = raw / raw.sum(axis=1, keepdims=True)
    return p, ref, n


# gram (1, 0) touches cell (2, 0) before gram (0, 0) adds its two terms
# there: summing those two first would give other bits at that cell
_ORDER_RAW = np.random.default_rng(5).random((4, 3))


@settings(max_examples=300, deadline=None)
@given(bon_cases())
@example(case=(_ORDER_RAW / _ORDER_RAW.sum(axis=1, keepdims=True),
               (1, 0, 0, 0), 2))
def test_kernel_equals_loop_reference_exactly(case):
    p, ref, n = case
    got = bon_loss(p, ref, n)
    want = loop_bon_loss(p, ref, n)
    assert same_bits(got.value, want.value)
    assert same_bits(got.match, want.match)
    assert same_bits(got.grad, want.grad)
    assert got.degenerate == want.degenerate
    support = count_ngrams(ref, n)
    if support:
        want_bag = loop_expected_bag(p, support)
        assert expected_bag(p, support) == want_bag
    for g in support:
        assert expected_ngram_count(p, g) == want_bag[g]
        assert same_bits(expected_count_gradient(p, factor_pairs(p, g)),
                         loop_count_gradient(p, g))


@settings(max_examples=300, deadline=None)
@given(bon_cases())
def test_value_only_equals_value_with_gradient(case):
    p, ref, n = case
    full = bon_loss(p, ref, n)
    light = bon_loss(p, ref, n, grad=False)
    assert light.grad is None
    assert same_bits(light.value, full.value)
    assert same_bits(light.match, full.match)
    assert light.degenerate == full.degenerate


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(2, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_kernel_counts_match_enumeration_and_conservation(T, V, n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((T, V)) + 0.05
    p = raw / raw.sum(axis=1, keepdims=True)
    grams = list(itertools.product(range(V), repeat=n))
    bag = expected_bag(p, {g: 1.0 for g in grams})
    if T < n:
        assert bag == {}
        return
    for g in grams:
        assert abs(bag[g] - oracle_expected_bag(p, g)) <= 1e-12 * (T - n + 1)
        assert bag[g] == expected_ngram_count(p, g)
    assert abs(sum(bag.values()) - (T - n + 1)) <= 1e-12 * (T - n + 1)


def test_summed_gradient_over_grams():
    rng = np.random.default_rng(4)
    raw = rng.random((7, 5))
    p = raw / raw.sum(axis=1, keepdims=True)
    grams = [(1, 2), (2, 2), (4, 0)]
    total = np.zeros((7, 5))
    for g in grams:
        loop_count_gradient(p, g, total)
    assert same_bits(expected_count_gradient(p, factor_pairs(p, grams)), total)
    empty = expected_count_gradient(
        p, factor_pairs(p, np.zeros((0, 2), dtype=int)))
    assert same_bits(empty, np.zeros((7, 5)))


def test_repeated_tokens_stacked_equal_per_sentence_loop():
    """Grams that repeat a token at each distance 1..n-1 at n = 4 (x x,
    x y x, x y z x, x y x y and x x x), stacked, with inactive grams
    between active ones: the stacked gradient, written over a NaN-filled
    buffer, is each sentence's loop reference bit for bit."""
    x, y, z = 0, 1, 2
    refs = [
        [3, x, x, 4, 5, 3],
        [x, y, x, 4, 5],
        [x, y, z, x, 4],
        [x, y, x, y, 5],
        [4, x, x, x, 5, x, x, x],
        [y, x, x, x, x, x, y],
    ]
    V, n = 6, 4
    rng = np.random.default_rng(0)
    tables = [rng.random((len(r), V)) ** 2 for r in refs]
    # the last table puts most of each row's mass on x, so x x x x is
    # expected more often than the reference has it: inactive, between
    # the active y x x x and x x x y
    tables[-1][:, x] = 50.0
    tables = [t / t.sum(axis=1, keepdims=True) for t in tables]
    p = np.concatenate(tables)
    lengths = [len(r) for r in refs]
    out = np.full_like(p, np.nan)
    got = bon_loss(p, sum(refs, []), n, lengths=lengths, out=out)
    assert got.grad is out
    start = 0
    for t, r in zip(tables, refs):
        want = loop_bon_loss(t, r, n)
        bag = count_ngrams(r, n)
        expected = loop_expected_bag(t, bag)
        active = [expected[g] <= bag[g] for g in bag]
        if r is refs[-1]:
            assert active == [True, False, True]
        assert same_bits(got.grad[start : start + len(r)], want.grad)
        start += len(r)
