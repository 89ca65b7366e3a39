"""Discrete bag-of-ngrams counting over id sequences.

A bag is a plain dict mapping an n-gram (tuple of token ids) to a
positive count. Counts are stored as floats so the same container also
holds expected counts computed from probability tables.
"""
from __future__ import annotations

from typing import Sequence

Ngram = tuple[int, ...]
NgramBag = dict[Ngram, float]


def count_ngrams(sentence: Sequence[int], n: int) -> NgramBag:
    """Occurrence counts of every length-n window; empty when len < n."""
    if n < 1:
        raise ValueError("n-gram order must be at least 1")
    bag: NgramBag = {}
    for t in range(len(sentence) - n + 1):
        g = tuple(sentence[t : t + n])
        bag[g] = bag.get(g, 0.0) + 1.0
    return bag

