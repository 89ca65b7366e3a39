from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonnat.ngram import count_ngrams, ragged_supports, rank_windows

sentences = st.lists(st.integers(min_value=0, max_value=6), max_size=15)


def test_bigram_counts():
    # "a b a b" with a=0, b=1
    assert count_ngrams((0, 1, 0, 1), 2) == {(0, 1): 2.0, (1, 0): 1.0}


def test_single_window():
    assert count_ngrams((4, 5), 2) == {(4, 5): 1.0}


def test_too_short_gives_empty_bag():
    assert count_ngrams((0,), 2) == {}


def test_zero_order_rejected():
    with pytest.raises(ValueError):
        count_ngrams((0, 1), 0)
    with pytest.raises(ValueError, match="^n-gram order must be at least 1$"):
        ragged_supports(np.array([0, 1]), np.array([2]), 0)


def test_l1_norm_examples():
    assert sum(count_ngrams((0, 1, 0, 1), 2).values()) == 3.0
    assert sum(count_ngrams((0,), 2).values()) == 0.0


@given(sentences, st.integers(min_value=1, max_value=4))
def test_l1_norm_is_window_count(sent, n):
    assert sum(count_ngrams(sent, n).values()) == max(0, len(sent) - n + 1)


@given(sentences)
def test_unigrams_match_token_frequencies(sent):
    bag = count_ngrams(sent, 1)
    assert {g[0]: c for g, c in bag.items()} == dict(Counter(sent))



def supports_as_bags(sents, n):
    """`ragged_supports` of the stacked sentences, as per-sentence lists of
    (n-gram, count) in the order of the arrays."""
    tokens = [t for sent in sents for t in sent]
    sent, start, counts = ragged_supports(
        np.array(tokens, dtype=np.int64), [len(s) for s in sents], n
    )
    bags = [[] for _ in sents]
    for j, a, c in zip(sent.tolist(), start.tolist(), counts.tolist()):
        bags[j].append((tuple(tokens[a : a + n]), c))
    return bags


ragged_groups = st.lists(sentences, min_size=1, max_size=16)
# ids around 2**62, where a code of id * V**k would overflow int64
huge_ids = st.sampled_from([0, 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1])
huge_groups = st.lists(st.lists(huge_ids, max_size=10), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(ragged_groups, st.integers(min_value=1, max_value=4))
def test_ragged_supports_are_count_ngrams_in_order(sents, n):
    want = [list(count_ngrams(sent, n).items()) for sent in sents]
    assert supports_as_bags(sents, n) == want


@settings(max_examples=100, deadline=None)
@given(huge_groups, st.integers(min_value=1, max_value=4))
def test_ragged_supports_with_ids_near_2_62(sents, n):
    want = [list(count_ngrams(sent, n).items()) for sent in sents]
    assert supports_as_bags(sents, n) == want


@settings(max_examples=100, deadline=None)
@given(huge_groups)
def test_rank_windows_orders_windows_by_key_then_tokens(sents):
    tokens = [t for sent in sents for t in sent]
    key = [j for j, sent in enumerate(sents) for _ in sent]
    ranks = rank_windows(np.array(tokens, dtype=np.int64), np.array(key), 4)
    for n, (k, code) in enumerate(ranks, start=1):
        windows = [
            (key[i], *tokens[i : i + n]) for i in range(len(tokens) - n + 1)
        ]
        rank = {w: r for r, w in enumerate(sorted(set(windows)))}
        assert k == len(rank)
        assert code.tolist() == [rank[w] for w in windows]


def test_ragged_supports_skip_short_and_empty_sentences():
    sent, start, counts = ragged_supports(np.array([5, 5, 7, 5, 5]), [1, 0, 4], 2)
    assert sent.tolist() == [2, 2, 2]
    assert start.tolist() == [1, 2, 3]
    assert counts.tolist() == [1.0, 1.0, 1.0]
    sent, start, counts = ragged_supports(np.array([3]), [1], 2)
    assert len(sent) == len(start) == len(counts) == 0


def random_stack(rng, ids, sentences=16):
    return [rng.choice(ids, size=rng.integers(0, 15)).tolist() for _ in range(sentences)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ids, fixed", [
    ([0, 1, 2, 3, 4, 5, 6], []),
    ([2**62 - 1, 2**62, 2**62 + 1], []),
    # 0 and 2**62 alone make sentences * (id range)**n overflow int64
    ([0, 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1], [[0, 2**62, 0, 2**62]]),
], ids=["small", "near-2-62", "far-apart"])
def test_ragged_supports_equal_count_ngrams(ids, fixed, n):
    rng = np.random.default_rng(n)
    sents = fixed + random_stack(rng, ids, 16 - len(fixed))
    assert supports_as_bags(sents, n) == [list(count_ngrams(s, n).items()) for s in sents]


@pytest.mark.parametrize("low, high", [(5, 7), (0, 2**63 - 1)])
@pytest.mark.parametrize("stack", [
    [], [[]], [[], []], [[0]], [[0], [], [1]], [[0, 1], [0]], [[0, 1, 0], [], [1, 1]],
])
def test_ragged_supports_of_empty_and_short_stacks(low, high, stack):
    sents = [[(low, high)[t] for t in sent] for sent in stack]
    tokens = np.array([t for sent in sents for t in sent], dtype=np.int64)
    for n in (1, 2, 3):
        sent, start, counts = ragged_supports(tokens, [len(s) for s in sents], n)
        assert (sent.dtype, start.dtype, counts.dtype) == (np.int64, np.int64, float)
        assert supports_as_bags(sents, n) == [list(count_ngrams(s, n).items()) for s in sents]
