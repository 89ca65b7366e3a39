"""BLEU, Pearson correlation studies, removed-token accounting and
length-bucket analysis over decoded corpora.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import ParallelPair
from .loss import bon_loss, cross_entropy, in_order_sum
from .model import LengthPredictor, NatModel, decode, postprocess
from .ngram import rank_windows, stack, windows_inside

MAX_BLEU_ORDER = 4
# the BoN orders whose losses correlation_study correlates with BLEU
CORRELATION_ORDERS = (1, 2, 3, 4)


@dataclass
class BleuScore:
    value: float
    precisions: list[float]
    brevity_penalty: float


def bleu(
    candidates: Sequence[Sequence[int]],
    references: Sequence[Sequence[int]],
    smooth: bool = False,
) -> BleuScore:
    """Corpus BLEU with clipped n-gram counts up to MAX_BLEU_ORDER.

    With smooth=True the precisions for n >= 2 get add-one smoothing,
    which keeps small subsets away from hard zeros.

    N-grams are counted corpus-wide with arrays. For each order,
    `rank_windows` ranks every window by its pair and its n tokens, np.bincount
    counts the ranks of each side, and the clipped matches are the sum of
    the elementwise minimum of the two counts.
    """
    if len(candidates) != len(references):
        raise ValueError("candidate and reference lists differ in length")
    if not candidates:
        raise ValueError("empty corpus")
    pairs = len(candidates)
    tokens, lens = stack([*candidates, *references])
    cand_len = int(lens[:pairs].sum())
    ref_len = len(tokens) - cand_len
    # code[i] ranks (pair, the n tokens from position i): a candidate and
    # its reference share the pair's key
    pair = np.repeat(np.arange(2 * pairs) % pairs, lens)
    precisions = []
    orders = rank_windows(tokens, pair, MAX_BLEU_ORDER)
    for n, (k, code) in enumerate(orders, start=1):
        inside = windows_inside(lens, n)
        cand = np.bincount(code[:cand_len][inside[:cand_len]], minlength=k)
        ref = np.bincount(code[cand_len:][inside[cand_len:]], minlength=k)
        num, den = int(np.minimum(cand, ref).sum()), int(cand.sum())
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len)) if cand_len else 0.0
    if cand_len == 0 or 0.0 in precisions:
        return BleuScore(0.0, precisions, bp)
    value = bp * math.exp(in_order_sum(map(math.log, precisions)) / MAX_BLEU_ORDER)
    return BleuScore(value, precisions, bp)


class UndefinedCorrelation(ValueError):
    pass


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length series of size >= 2")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    # a second pass removes the rounding error of the first mean, which
    # outweighs the deviations when the values differ by a few ulps
    dx -= dx.mean()
    dy -= dy.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelation("a series has zero variance")
    return float(dx @ dy) / (sx * sy)


@dataclass
class CorrelationReport:
    loss_name: str
    subsets: int
    subset_size: int
    r: float | None
    error: str | None = None


def _decode_corpus(
    model: NatModel, lp: LengthPredictor, corpus: Sequence[ParallelPair]
) -> tuple[list[tuple[int, ...]], list[int]]:
    outputs = []
    removed = []
    for pair in corpus:
        raw = decode(model, lp, pair.source)
        clean, n_removed = postprocess(raw)
        outputs.append(clean)
        removed.append(n_removed)
    return outputs, removed


def _sentence_loss_table(
    model: NatModel, corpus: Sequence[ParallelPair]
) -> dict[str, list[float]]:
    """Per-sentence losses at T = reference length: length-normalized CE
    plus one BoN loss per order in CORRELATION_ORDERS."""
    table: dict[str, list[float]] = {"ce": []}
    for n in CORRELATION_ORDERS:
        table[f"bon{n}"] = []
    for pair in corpus:
        probs = model.forward(pair.source, len(pair.target)).probs
        ce = cross_entropy(probs, pair.target, dense=False)
        table["ce"].append(ce.value / len(pair.target))
        for n in CORRELATION_ORDERS:
            table[f"bon{n}"].append(
                bon_loss(probs, pair.target, n, grad=False).value
            )
    return table


def correlation_study(
    model: NatModel,
    lp: LengthPredictor,
    corpus: Sequence[ParallelPair],
    subsets: int,
    subset_size: int,
    seed: int,
) -> list[CorrelationReport]:
    """Random disjoint subsets; per subset, decode for BLEU and average
    the per-sentence losses; Pearson r between the two series per loss.

    A loss with zero variance across subsets yields r=None with the
    error recorded; the other losses are still reported.
    """
    need = subsets * subset_size
    if need > len(corpus):
        raise ValueError(
            f"corpus of {len(corpus)} too small for {subsets}x{subset_size}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))[:need]
    loss_names = ["ce"] + [f"bon{n}" for n in CORRELATION_ORDERS]
    series: dict[str, list[float]] = {name: [] for name in loss_names}
    bleus: list[float] = []
    for s in range(subsets):
        idx = order[s * subset_size : (s + 1) * subset_size]
        subset = [corpus[int(i)] for i in idx]
        outputs, _ = _decode_corpus(model, lp, subset)
        bleus.append(bleu(outputs, [p.target for p in subset], smooth=True).value)
        losses = _sentence_loss_table(model, subset)
        for name in loss_names:
            series[name].append(float(np.mean(losses[name])))
    reports = []
    for name in loss_names:
        try:
            r: float | None = pearson(series[name], bleus)
            err = None
        except UndefinedCorrelation as exc:
            r, err = None, str(exc)
        reports.append(
            CorrelationReport(
                loss_name=name,
                subsets=subsets,
                subset_size=subset_size,
                r=r,
                error=err,
            )
        )
    return reports


def split_short_long(
    corpus: Sequence[ParallelPair],
) -> tuple[list[ParallelPair], list[ParallelPair]]:
    """Halves by source length, stable on the original order; the odd
    extra element goes to the long half."""
    if len(corpus) < 2:
        raise ValueError("need at least two pairs to split")
    order = sorted(range(len(corpus)), key=lambda i: (len(corpus[i].source), i))
    cut = len(corpus) // 2
    return [corpus[i] for i in order[:cut]], [corpus[i] for i in order[cut:]]


@dataclass
class RemovedTokenRow:
    bucket: str
    total_ref_tokens: int
    removed: int

    @property
    def pct(self) -> float:
        return 100.0 * self.removed / self.total_ref_tokens if self.total_ref_tokens else 0.0


def removed_token_report(
    model: NatModel, lp: LengthPredictor, corpus: Sequence[ParallelPair]
) -> list[RemovedTokenRow]:
    """Adjacent-repeat removal counts over short / long / all buckets."""
    short, long_ = split_short_long(corpus)
    rows = []
    for name, part in (("short", short), ("long", long_)):
        _, removed = _decode_corpus(model, lp, part)
        rows.append(
            RemovedTokenRow(
                bucket=name,
                total_ref_tokens=sum(len(p.target) for p in part),
                removed=sum(removed),
            )
        )
    rows.append(
        RemovedTokenRow(
            bucket="all",
            total_ref_tokens=rows[0].total_ref_tokens + rows[1].total_ref_tokens,
            removed=rows[0].removed + rows[1].removed,
        )
    )
    return rows


@dataclass
class BucketRow:
    bucket: str
    count: int
    bleu: float | None


def length_bucket_bleu(
    model: NatModel,
    lp: LengthPredictor,
    corpus: Sequence[ParallelPair],
    edges: Sequence[int],
) -> list[BucketRow]:
    """BLEU per reference-length bucket; edges are upper bounds, with a
    final overflow bucket. Empty buckets report count 0 and no BLEU."""
    edges = sorted(edges)
    buckets: list[list[ParallelPair]] = [[] for _ in range(len(edges) + 1)]
    for pair in corpus:
        # the first bucket whose edge is at least the length, else overflow
        buckets[bisect.bisect_left(edges, len(pair.target))].append(pair)
    labels = []
    prev = 0
    for edge in edges:
        labels.append(f"{prev + 1}-{edge}")
        prev = edge
    labels.append(f">{prev}")
    rows = []
    for label, part in zip(labels, buckets):
        if not part:
            rows.append(BucketRow(label, 0, None))
            continue
        outputs, _ = _decode_corpus(model, lp, part)
        score = bleu(outputs, [p.target for p in part], smooth=True)
        rows.append(BucketRow(label, len(part), score.value))
    return rows
