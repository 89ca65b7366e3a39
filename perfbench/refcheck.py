"""Correctness checks of a benchmark round, against computations written
here rather than taken from the program.

Every check returns a list of failure messages; an empty list passes.
"""
from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

COUNT_TOL = 1e-12  # relative, window products vs the program
CONSERVATION_TOL = 1e-9  # relative to T - n + 1
TIE_GAP = 1e-3  # |expected - reference| below this is too near a min() switch
GRAD_STEP = 1e-6
GRAD_TOL = 1e-6  # relative, analytic vs central differences
GRAD_ABS_TOL = 1e-9  # rounding of a central difference of an O(1) loss
BLEU_DIGITS_TOL = 5e-7 + 1e-12  # RESULT prints BLEU with six decimals


def ngrams(seq: Sequence[int], n: int) -> list[tuple[int, ...]]:
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def window_count(p: np.ndarray, g: tuple[int, ...]) -> float:
    """Expected count of g: sum over windows of the per-window product."""
    total = 0.0
    for t in range(p.shape[0] - len(g) + 1):
        prod = 1.0
        for i, tok in enumerate(g):
            prod *= float(p[t + i, tok])
        total += prod
    return total


def enumerated_count(p: np.ndarray, g: tuple[int, ...]) -> float:
    """Expected count of g over all V^T output sequences."""
    T, V = p.shape
    total = 0.0
    for seq in itertools.product(range(V), repeat=T):
        prob = math.prod(float(p[t, y]) for t, y in enumerate(seq))
        total += prob * ngrams(seq, len(g)).count(g)
    return total


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_counts(p: np.ndarray, ref: Sequence[int], n: int) -> list[str]:
    """The program's expected counts on the reference support against
    plain window products."""
    from bonnat.probmodel import expected_bag, expected_ngram_count

    support = {g: float(c) for g, c in Counter(ngrams(ref, n)).items()}
    bag = expected_bag(p, support)
    bad = []
    for g in support:
        want = window_count(p, g)
        if not _close(bag.get(g, 0.0), want, COUNT_TOL):
            bad.append(f"expected_bag{g}={bag.get(g)} != window product {want}")
        if not _close(expected_ngram_count(p, g), want, COUNT_TOL):
            bad.append(f"expected_ngram_count{g} != window product {want}")
    return bad


def check_enumeration(rng: np.random.Generator) -> list[str]:
    """The program's expected counts against enumeration on tiny tables."""
    from bonnat.probmodel import expected_bag

    V, T = 3, 5
    bad = []
    for n in (1, 2, 3):
        raw = rng.random((T, V)) + 0.05
        p = raw / raw.sum(axis=1, keepdims=True)
        grams = list(itertools.product(range(V), repeat=n))
        bag = expected_bag(p, {g: 1.0 for g in grams})
        for g in grams:
            want = enumerated_count(p, g)
            if not _close(bag[g], want, COUNT_TOL * 10):
                bad.append(f"n={n} {g}: {bag[g]} != enumeration {want}")
    return bad


def check_conservation(p: np.ndarray, n: int) -> list[str]:
    """Expected counts over all V^n n-grams sum to T - n + 1."""
    from bonnat.probmodel import expected_bag

    T, V = p.shape
    bag = expected_bag(p, {g: 1.0 for g in itertools.product(range(V), repeat=n)})
    total = math.fsum(bag.values())
    want = T - n + 1
    if abs(total - want) > CONSERVATION_TOL * want:
        return [f"n={n}: expected counts sum to {total!r}, not {want}"]
    return []


def tie_gap(p: np.ndarray, ref: Sequence[int], n: int) -> float:
    counts = Counter(ngrams(ref, n))
    if not counts:
        return math.inf
    return min(abs(window_count(p, g) - c) for g, c in counts.items())


def check_gradient(
    loss_fn: Callable[[np.ndarray], object],
    p: np.ndarray,
    entries: Sequence[tuple[int, int]],
    relative_step: bool = False,
) -> list[str]:
    """Analytic gradient of `loss_fn` (a LossResult with .value, .grad)
    against central differences at the given (t, w) entries."""
    grad = loss_fn(p).grad
    bad = []
    for t, w in entries:
        h = GRAD_STEP * p[t, w] if relative_step else GRAD_STEP
        q = p.copy()
        q[t, w] += h
        plus = loss_fn(q).value
        q[t, w] -= 2 * h
        minus = loss_fn(q).value
        fd = (plus - minus) / (2 * h)
        if abs(grad[t, w] - fd) > GRAD_TOL * max(abs(grad[t, w]), abs(fd)) + GRAD_ABS_TOL:
            bad.append(f"d/dp[{t},{w}]: analytic {float(grad[t, w])!r} vs fd {fd!r}")
    return bad


def gradient_entries(
    rng: np.random.Generator, ref: Sequence[int], V: int, k: int
) -> list[tuple[int, int]]:
    """k entries on reference tokens (where the gradients live) and k // 4
    off them (where both gradients must be zero)."""
    T = len(ref)
    on = sorted(set(ref))
    off = [w for w in range(V) if w not in on]
    picks = [(int(rng.integers(T)), on[int(rng.integers(len(on)))]) for _ in range(k)]
    picks += [(t, ref[t]) for t in range(T)]
    if off:
        picks += [
            (int(rng.integers(T)), off[int(rng.integers(len(off)))])
            for _ in range(k // 4)
        ]
    return sorted(set(picks))


def bleu_fractions(
    candidates: Sequence[Sequence[int]],
    references: Sequence[Sequence[int]],
    smooth: bool = False,
) -> tuple[list[Fraction], float]:
    """Exact clipped n-gram precisions (n = 1..4) and the BLEU value."""
    num = [0] * 4
    den = [0] * 4
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    for cand, ref in zip(candidates, references):
        for n in range(1, 5):
            cgrams = Counter(ngrams(cand, n))
            rgrams = Counter(ngrams(ref, n))
            den[n - 1] += sum(cgrams.values())
            num[n - 1] += sum(min(c, rgrams[g]) for g, c in cgrams.items())
    precisions = []
    for n in range(1, 5):
        a, b = num[n - 1], den[n - 1]
        if smooth and n >= 2:
            a, b = a + 1, b + 1
        precisions.append(Fraction(a, b) if b else Fraction(0))
    if c_len == 0 or min(precisions) == 0:
        return precisions, 0.0
    log_bp = min(0.0, 1.0 - r_len / c_len)
    log_mean = math.fsum(math.log(x) for x in precisions) / 4
    return precisions, math.exp(log_bp + log_mean)


def check_bleu(
    reported: float,
    candidates: Sequence[Sequence[int]],
    references: Sequence[Sequence[int]],
) -> list[str]:
    """The eval RESULT BLEU and the program's BLEU function against exact
    fractions computed here."""
    from bonnat.evaluate import bleu

    bad = []
    precisions, value = bleu_fractions(candidates, references)
    if abs(reported - value) > BLEU_DIGITS_TOL:
        bad.append(f"eval RESULT bleu {reported!r} != exact {value!r}")
    score = bleu(candidates, references)
    if score.precisions != [float(x) for x in precisions]:
        bad.append(f"bleu precisions {score.precisions} != exact {precisions}")
    if not _close(score.value, value, 1e-12):
        bad.append(f"bleu value {score.value!r} != exact {value!r}")
    return bad


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def bucket_of(length: int, edges: Sequence[int]) -> int:
    for b, edge in enumerate(sorted(edges)):
        if length <= edge:
            return b
    return len(edges)


def check_eval_csvs(
    out: Path,
    references: Sequence[Sequence[int]],
    sources: Sequence[Sequence[int]],
    decoded_raw: Sequence[Sequence[int]],
    decoded: Sequence[Sequence[int]],
    edges: Sequence[int],
) -> list[str]:
    """length_bucket.csv and removed_tokens.csv against the decoded corpus."""
    bad = []
    rows = read_csv(out / "length_bucket.csv")
    counts = Counter(bucket_of(len(r), edges) for r in references)
    if sum(int(r["count"]) for r in rows) != len(references):
        bad.append("length bucket counts do not sum to the corpus size")
    for b, row in enumerate(rows):
        if int(row["count"]) != counts[b]:
            bad.append(f"bucket {row['bucket']}: count {row['count']} != {counts[b]}")
            continue
        members = [i for i, r in enumerate(references) if bucket_of(len(r), edges) == b]
        if not members:
            if row["bleu"] != "":
                bad.append(f"empty bucket {row['bucket']} has a BLEU")
            continue
        _, want = bleu_fractions(
            [decoded[i] for i in members], [references[i] for i in members], True
        )
        if not _close(float(row["bleu"]), want, 1e-12):
            bad.append(f"bucket {row['bucket']}: bleu {row['bleu']} != exact {want!r}")

    by_bucket = {r["bucket"]: r for r in read_csv(out / "removed_tokens.csv")}
    order = sorted(range(len(sources)), key=lambda i: (len(sources[i]), i))
    halves = {"short": order[: len(order) // 2], "long": order[len(order) // 2 :]}
    for name, idx in halves.items():
        tokens = sum(len(references[i]) for i in idx)
        removed = sum(len(decoded_raw[i]) - len(decoded[i]) for i in idx)
        row = by_bucket[name]
        if (int(row["total_ref_tokens"]), int(row["removed"])) != (tokens, removed):
            bad.append(f"removed tokens {name}: {row} != ({tokens}, {removed})")
    for col in ("total_ref_tokens", "removed"):
        parts = int(by_bucket["short"][col]) + int(by_bucket["long"][col])
        if int(by_bucket["all"][col]) != parts:
            bad.append(f"removed tokens: all.{col} != short + long")
    return bad


def check_correlation_csv(out: Path, subsets: int, subset_size: int) -> list[str]:
    rows = read_csv(out / "correlation.csv")
    bad = []
    if [r["loss"] for r in rows] != ["ce", "bon1", "bon2", "bon3", "bon4"]:
        bad.append(f"correlation losses {[r['loss'] for r in rows]}")
    for r in rows:
        if (int(r["subsets"]), int(r["subset_size"])) != (subsets, subset_size):
            bad.append(f"correlation {r['loss']}: wrong subset shape")
        if r["pearson_r"] == "":
            if not r["error"]:
                bad.append(f"correlation {r['loss']}: no r and no error")
        elif not -1.0 <= float(r["pearson_r"]) <= 1.0:
            bad.append(f"correlation {r['loss']}: r = {r['pearson_r']} outside [-1, 1]")
    return bad
