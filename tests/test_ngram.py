from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bonnat.ngram import count_ngrams

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

