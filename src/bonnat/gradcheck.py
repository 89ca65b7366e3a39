"""Test-only references: the enumeration oracle for expected n-gram
counts and central finite differences for table-level and
parameter-level gradients. Used by the oracle-check and gradcheck
commands and by the test suite; no library module imports this one.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .model import ModelDims, NatModel
from .ngram import Ngram, count_ngrams
from .probmodel import expected_bag

ORACLE_GUARD = 10**7


def oracle_expected_bag(table, g: Ngram) -> float:
    """Exact expectation by enumerating all V^T sequences."""
    p = np.asarray(table, dtype=float)
    T, V = p.shape
    if V**T > ORACLE_GUARD:
        raise ValueError(f"search space {V}^{T} exceeds the enumeration guard")
    n = len(g)
    total = 0.0
    for seq in itertools.product(range(V), repeat=T):
        prob = 1.0
        for t, y in enumerate(seq):
            prob *= p[t, y]
        occurrences = sum(
            1 for t in range(T - n + 1) if seq[t : t + n] == g
        )
        total += prob * occurrences
    return total


def fd_table_gradient(
    fn: Callable[[np.ndarray], float], probs: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Entrywise central differences of a scalar function of the table."""
    grad = np.zeros_like(probs)
    for t in range(probs.shape[0]):
        for w in range(probs.shape[1]):
            bumped = probs.copy()
            bumped[t, w] += step
            plus = fn(bumped)
            bumped[t, w] -= 2 * step
            minus = fn(bumped)
            grad[t, w] = (plus - minus) / (2 * step)
    return grad


def fd_param_gradients(
    fn: Callable[[], float], params: dict[str, np.ndarray], step: float = 1e-4
) -> dict[str, np.ndarray]:
    """Central differences through shared parameter arrays in place."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = fn()
            flat[i] = orig - step
            minus = fn()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2 * step)
        grads[name] = g
    return grads


def worst_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max over entries of |a - b| / max(|a| + |b|, 1e-8)."""
    a = np.asarray(analytic, dtype=float)
    b = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def random_table(rng: np.random.Generator, T: int, V: int) -> np.ndarray:
    """Random strictly positive rows summing to one."""
    raw = rng.random((T, V)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


def min_tie_gap(probs: np.ndarray, ref: Sequence[int], n: int) -> float:
    """Smallest |expected - reference| over the reference support; the
    subgradient of the BoN loss switches branch at zero gap."""
    ref_bag = count_ngrams(ref, n)
    if not ref_bag:
        return float("inf")
    model_bag = expected_bag(probs, ref_bag)
    return min(abs(model_bag.get(g, 0.0) - c) for g, c in ref_bag.items())


def tiny_model(seed: int, vocab: int = 5, d: int = 4, h: int = 8,
               p_max: int = 8, dl_max: int = 2) -> NatModel:
    dims = ModelDims(vocab=vocab, d=d, h=h, p_max=p_max, dl_max=dl_max)
    return NatModel.init(dims, np.random.default_rng(seed))
