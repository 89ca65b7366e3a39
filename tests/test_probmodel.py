import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bonnat

from bonnat.gradcheck import (
    fd_table_gradient,
    oracle_expected_bag,
    random_table,
    worst_rel_error,
)
from bonnat.ngram import count_ngrams
from bonnat.probmodel import (
    expected_bag,
    expected_count_gradient,
    expected_counts,
    expected_ngram_count,
    factor_pairs,
)


def one_hot_table(sentence, V):
    t = np.zeros((len(sentence), V))
    t[np.arange(len(sentence)), sentence] = 1.0
    return t


def test_uniform_single_window():
    table = np.full((2, 2), 0.5)
    assert expected_ngram_count(table, (0, 1)) == pytest.approx(0.25)


def test_one_hot_reduces_to_discrete_counts():
    sent = (0, 1, 0, 1)
    table = one_hot_table(sent, 2)
    assert expected_ngram_count(table, (0, 1)) == pytest.approx(2.0)
    for g, c in count_ngrams(sent, 2).items():
        assert expected_ngram_count(table, g) == pytest.approx(c)


def test_short_table_gives_zero():
    table = np.full((1, 2), 0.5)
    assert expected_ngram_count(table, (0, 1)) == 0.0
    assert expected_bag(table, {(0, 1): 1.0}) == {}


def test_oracle_one_hot():
    table = one_hot_table((0, 1), 2)
    assert oracle_expected_bag(table, (0, 1)) == pytest.approx(1.0)


def test_oracle_uniform():
    table = np.full((2, 2), 0.5)
    assert oracle_expected_bag(table, (0, 1)) == pytest.approx(0.25)


def test_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        oracle_expected_bag(np.full((12, 6), 1 / 6), (0, 1))


@pytest.mark.parametrize("V,T,n", [(3, 5, 2), (2, 6, 3), (4, 4, 2)])
def test_window_products_match_enumeration(V, T, n):
    rng = np.random.default_rng(42)
    for _ in range(5):
        table = random_table(rng, T, V)
        for g in itertools.product(range(V), repeat=n):
            fast = expected_ngram_count(table, g)
            exact = oracle_expected_bag(table, g)
            assert abs(fast - exact) <= 1e-9 * (T - n + 1)


def test_expected_bag_matches_per_gram_path():
    rng = np.random.default_rng(7)
    table = random_table(rng, 6, 4)
    ref = (1, 2, 1, 2, 3, 1)
    support = count_ngrams(ref, 2)
    bag = expected_bag(table, support)
    assert set(bag) == set(support)
    for g, v in bag.items():
        assert v == pytest.approx(expected_ngram_count(table, g), abs=1e-12)
    assert expected_bag(table, {}) == {}


@pytest.mark.parametrize("V,n", [(2, 1), (3, 2), (5, 3)])
def test_conservation_sum_rule(V, n):
    rng = np.random.default_rng(5)
    for T in range(n, 7):
        table = random_table(rng, T, V)
        total = sum(
            expected_ngram_count(table, g)
            for g in itertools.product(range(V), repeat=n)
        )
        assert abs(total - (T - n + 1)) <= 1e-9


def test_monotone_bound():
    rng = np.random.default_rng(9)
    for _ in range(20):
        table = random_table(rng, 5, 3)
        g = tuple(rng.integers(0, 3, size=2))
        val = expected_ngram_count(table, g)
        assert 0.0 <= val <= 5 - 2 + 1


def test_unigram_gradient_is_indicator():
    rng = np.random.default_rng(1)
    table = random_table(rng, 4, 3)
    grad = expected_count_gradient(table, (2,))
    expected = np.zeros((4, 3))
    expected[:, 2] = 1.0
    assert np.array_equal(grad, expected)


def test_one_hot_gradient():
    table = one_hot_table((0, 1, 2), 3)
    grad = expected_count_gradient(table, (0, 1))
    # only the matching window contributes factors of one
    assert grad[0, 0] == pytest.approx(1.0)
    assert grad[1, 1] == pytest.approx(1.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        table = random_table(rng, 5, 3)
        g = tuple(rng.integers(0, 3, size=n))
        analytic = expected_count_gradient(table, g)
        numeric = fd_table_gradient(lambda p: expected_ngram_count(p, g), table)
        assert worst_rel_error(analytic, numeric) < 1e-6


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12), st.sampled_from([2, 3, 24]), st.integers(1, 4),
    st.integers(1, 8), st.integers(0, 2**32 - 1),
)
def test_spans_equal_one_table_per_gram(R, V, n, k, seed):
    # each gram over its own rows, which may overlap or be shorter than n,
    # gives the counts of its rows as a table, and the gradients of those
    # tables added in gram order, bit for bit
    rng = np.random.default_rng(seed)
    p = random_table(rng, R, V) ** int(rng.integers(1, 9))
    grams = rng.integers(0, V, size=(k, n))
    grams[:, -1] = grams[:, 0]  # a repeated token, for _merge_repeats
    start = rng.integers(0, R, size=k)
    length = rng.integers(0, R - start + 1)
    counts = expected_counts(p, grams, (start, length))
    total = np.zeros((R, V))
    for j, (a, T) in enumerate(zip(start, length)):
        rows = p[a : a + T]
        assert counts[j] == expected_counts(rows, grams[j])[0]
        total[a : a + T] += expected_count_gradient(rows, grams[j])
    got = expected_count_gradient(p, grams, (start, length))
    assert got.tobytes() == total.tobytes()


def nan_as_nan(x):
    """The bytes of float array x with every NaN made np.nan. IEEE 754
    leaves the sign of NaN * NaN to the implementation, and numpy's
    contiguous multiply loop keeps either operand's by element position;
    every other bit is compared."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10), st.sampled_from([2, 3, 24]), st.integers(1, 4),
    st.integers(1, 6), st.integers(0, 2**32 - 1),
    st.sampled_from(["finite", "nan row", "inf cells", "nan and inf", "underflow"]),
)
@example(R=2, V=3, n=3, k=2, seed=0, kind="finite")  # R < n: no window
@example(R=3, V=3, n=3, k=1, seed=1, kind="finite")  # R = n, one gram
@example(R=10, V=3, n=2, k=6, seed=2, kind="nan row")
@example(R=10, V=2, n=3, k=6, seed=3, kind="inf cells")
@example(R=8, V=3, n=4, k=6, seed=5, kind="nan and inf")  # NaN signs differ (x86-64)
@example(R=10, V=3, n=4, k=6, seed=8, kind="underflow")  # a subnormal count
@example(R=10, V=24, n=2, k=6, seed=8, kind="underflow")  # a subnormal count
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_whole_table_pairs_equal_full_spans(R, V, n, k, seed, kind):
    # the default spans are one full span per gram: its pairs equal a
    # per-window loop's, bit for bit, and the one-table entry points'
    # position columns count what those pairs count; some grams repeat a
    # token and some cells hold -0.0, and a table may hold a NaN row, +inf
    # and -inf cells, or factors whose window products underflow to
    # subnormals and zero
    rng = np.random.default_rng(seed)
    p = random_table(rng, R, V)
    if kind == "underflow":
        # factors near 10 ** (-316 / n), so their products straddle the
        # smallest normal, 2.2e-308, and some underflow to zero
        p **= 316 / (n * -np.log10(p).mean())
    p[rng.random(p.shape) < 0.2] = -0.0
    if kind in ("inf cells", "nan and inf"):
        # a zero factor times an inf one is NaN
        cells = rng.choice(p.size, size=min(2, p.size), replace=False)
        p.flat[cells] = [np.inf, -np.inf][: len(cells)]
    if kind in ("nan row", "nan and inf"):
        p[rng.integers(R)] = np.nan
    grams = rng.integers(0, V, size=(k, n))
    grams[::2, -1] = grams[::2, 0]
    spans = (np.zeros(k, dtype=np.intp), np.full(k, R))
    W = max(R - n + 1, 0)
    cells = [[(r + i) * V + g[i] for i in range(n)]
             for g in grams.tolist() for r in range(W)]
    cells = np.array(cells, dtype=np.intp).reshape(-1, n)
    loop = (np.full(k, W, dtype=np.intp), cells, p.flat[cells])
    for got, want in zip(factor_pairs(p, grams), loop):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    want = expected_counts(p, grams, spans)
    got = [expected_ngram_count(p, tuple(g)) for g in grams.tolist()]
    assert nan_as_nan(np.array(got)) == nan_as_nan(want)
    bag = expected_bag(p, dict.fromkeys(map(tuple, grams.tolist()), 1.0))
    if R < n:
        assert bag == {}
    else:
        got = [bag[tuple(g)] for g in grams.tolist()]
        assert nan_as_nan(np.array(got)) == nan_as_nan(want)


@pytest.mark.parametrize("k", [0, 9])
def test_shared_pairs_equal_pairs_built_per_call(k):
    # one call's (gram, window) pairs, given to the counts and to the
    # gradient, give what each call gets from pairs it builds itself; a
    # NaN table stacked beside a finite one, spans shorter than n
    rng = np.random.default_rng(k)
    R, V, n = 14, 3, 3
    p = random_table(rng, R, V)
    p[7:] = np.nan
    grams = rng.integers(0, V, size=(k, n))
    start = np.array([0, 0, 2, 5, 7, 7, 9, 12, 0])[:k]
    length = np.array([7, 2, 5, 0, 7, 1, 5, 2, 14])[:k]
    spans = (start, length)
    pairs = factor_pairs(p, grams, spans)
    want = expected_counts(p, grams, spans)
    assert expected_counts(p, grams, spans, pairs).tobytes() == want.tobytes()
    for active in (None, want <= 0.1):
        want = expected_count_gradient(p, grams, spans, active=active)
        got = expected_count_gradient(p, grams, spans, pairs=pairs, active=active)
        assert got.tobytes() == want.tobytes()
    # an inactive gram adds nothing, as if it were not in the call
    keep = np.isfinite(expected_counts(p, grams, spans))
    kept = expected_count_gradient(p, grams[keep], (start[keep], length[keep]))
    got = expected_count_gradient(p, grams, spans, pairs=pairs, active=keep)
    assert got.tobytes() == kept.tobytes()
    assert np.isfinite(got[:7]).all()


FENCE_PROBE = """
import sys
import bonnat, bonnat.checkpoint, bonnat.corpus, bonnat.evaluate, bonnat.model
assert "bonnat.gradcheck" not in sys.modules, "gradcheck was imported"
assert not hasattr(bonnat.probmodel, "oracle_expected_bag"), "oracle in probmodel"
"""


def test_production_modules_do_not_load_test_only_code():
    # a fresh interpreter: this test session has gradcheck loaded already
    src = Path(bonnat.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FENCE_PROBE],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
