"""Discrete bag-of-ngrams counting over id sequences.

A bag is a plain dict mapping an n-gram (tuple of token ids) to a
positive count. Counts are stored as floats so the same container also
holds expected counts computed from probability tables.

Many sentences at once are counted with arrays: `stack` lays them one
after another, and `ragged_supports` sorts every window inside a
sentence by its tokens, stably, and reads each sentence's bag off the
runs, in `count_ngrams`' key order. `rank_windows` ranks the windows of
each order, for BLEU.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np

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


def stack(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The sequences one after another as one token array, and their lengths."""
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    tokens = np.fromiter(chain.from_iterable(seqs), np.int64, int(lengths.sum()))
    return tokens, lengths


def windows_inside(lengths: np.ndarray, n: int) -> np.ndarray:
    """Whether the window of n tokens at each start 0..sum(lengths) - n of
    a stack of sentences with these lengths lies inside one sentence."""
    size = int(lengths.sum())
    # the windows starting at e - n + 1 .. e - 1 run across the sentence
    # end e; entry i + n of `inside` is the window starting at i
    inside = np.ones(size + n, dtype=bool)
    inside[(np.cumsum(lengths)[:, None] + np.arange(1, n)).ravel()] = False
    return inside[n : size + 1]


def rank_windows(
    tokens: np.ndarray, key: np.ndarray, max_n: int
) -> Iterator[tuple[int, np.ndarray]]:
    """For each order n = 1..max_n, (k, code): code[i] in [0, k) ranks
    the pair (key[i], tokens[i : i + n]) among the windows that start at
    i = 0..len(tokens) - n. Windows run across sentence ends; callers
    keep the ones that fit.

    Each order ranks code * size + the next token's rank, so codes stay
    below size**2 (key * size for the first order) whatever the token ids.
    """
    size = len(tokens)
    _, rank = np.unique(tokens, return_inverse=True)
    code = np.asarray(key, dtype=np.int64)
    for n in range(1, max_n + 1):
        grams, code = np.unique(
            code[: size - n + 1] * size + rank[n - 1 :], return_inverse=True
        )
        yield len(grams), code


def ragged_supports(
    tokens: np.ndarray, lengths: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count_ngrams` of every sentence of a stack, as arrays.

    `tokens` holds the sentences one after another, `lengths` their
    lengths. Returns, for each distinct (sentence, n-gram), its sentence,
    the position in `tokens` of its first window and its count (float),
    ordered by sentence and, within one, by first occurrence.
    """
    if n < 1:
        raise ValueError("n-gram order must be at least 1")
    lengths = np.asarray(lengths, dtype=np.int64)
    sent = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.flatnonzero(windows_inside(lengths, n))
    # the stable sort keeps each n-gram's windows in position order, and
    # the sentence does not decrease with position: each (sentence,
    # n-gram) is one run, which starts where the sentence or a token changes
    pos = pos[np.lexsort(tokens[pos + np.arange(n)[:, None]])]
    head = np.ones(len(pos), dtype=bool)
    head[1:] = sent[pos[1:]] != sent[pos[:-1]]
    for j in range(n):
        tok = tokens[pos + j]
        head[1:] |= tok[1:] != tok[:-1]
    heads = np.flatnonzero(head)
    counts = np.diff(heads, append=len(pos))
    by_first = np.argsort(pos[heads])
    start = pos[heads[by_first]]
    return sent[start], start, counts[by_first].astype(float)
