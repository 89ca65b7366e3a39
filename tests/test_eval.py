import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonnat.corpus import ParallelPair, SyntheticTaskSpec, generate_task
from bonnat.evaluate import (
    BleuScore,
    UndefinedCorrelation,
    bleu,
    correlation_study,
    length_bucket_bleu,
    pearson,
    removed_token_report,
    split_short_long,
)
from bonnat.model import ModelDims, TrainConfig, train


def test_bleu_identity_is_one():
    corpus = [(2, 3, 4, 5), (6, 7, 8, 9, 2)]
    assert bleu(corpus, corpus).value == pytest.approx(1.0)


def test_bleu_disjoint_is_zero():
    assert bleu([(2, 3, 4, 5)], [(6, 7, 8, 9)]).value == 0.0


def test_bleu_brevity_penalty():
    score = bleu([(2, 3, 4, 5)], [(2, 3, 4, 5, 6, 7)])
    assert score.brevity_penalty == pytest.approx(np.exp(1 - 6 / 4))
    assert score.value < 1.0


def test_bleu_clipping():
    # candidate repeats a unigram beyond its reference count
    score = bleu([(2, 2, 2, 2)], [(2, 3, 4, 5)])
    assert score.precisions[0] == pytest.approx(1 / 4)


def test_bleu_smoothing_avoids_zero():
    raw = bleu([(2, 3, 4)], [(2, 3, 5)])
    smoothed = bleu([(2, 3, 4)], [(2, 3, 5)], smooth=True)
    assert raw.value == 0.0  # no 3-gram match, unsmoothed log blows up
    assert smoothed.value > 0.0
    disjoint = bleu([(3,)], [(2, 4)], smooth=True)
    assert disjoint.value == 0.0  # unigram precision stays unsmoothed


def test_bleu_input_validation():
    with pytest.raises(ValueError):
        bleu([], [])
    with pytest.raises(ValueError):
        bleu([(2,)], [])


def counter_bleu(candidates, references, smooth=False, max_n=4):
    """Reference corpus BLEU: two Counters of n-gram tuples per sentence
    and order, clipped sentence by sentence."""
    matched = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cand_counts = Counter(
                tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)
            )
            ref_counts = Counter(
                tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)
            )
            totals[n - 1] += max(len(cand) - n + 1, 0)
            matched[n - 1] += sum(
                min(c, ref_counts[g]) for g, c in cand_counts.items()
            )
    precisions = []
    for n in range(1, max_n + 1):
        num, den = matched[n - 1], totals[n - 1]
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    if cand_len == 0 or any(p == 0.0 for p in precisions):
        bp = 0.0 if cand_len == 0 else min(1.0, math.exp(1.0 - ref_len / cand_len))
        return BleuScore(0.0, precisions, bp)
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    value = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuScore(value, precisions, bp)


@st.composite
def bleu_corpora(draw):
    top = draw(st.sampled_from([4, 30, 2**31 - 1]))
    sentence = st.lists(st.integers(0, top), max_size=12).map(tuple)
    pairs = draw(st.integers(1, 40))
    candidates = draw(st.lists(sentence, min_size=pairs, max_size=pairs))
    references = draw(st.lists(sentence, min_size=pairs, max_size=pairs))
    return candidates, references


@settings(max_examples=300, deadline=None)
@given(bleu_corpora(), st.booleans(), st.integers(1, 4))
def test_bleu_equals_counter_reference(corpus, smooth, max_n):
    candidates, references = corpus
    score = bleu(candidates, references, smooth=smooth, max_n=max_n)
    want = counter_bleu(candidates, references, smooth=smooth, max_n=max_n)
    assert score == want
    assert repr(score) == repr(want)  # Python floats, as the CSVs print them


@settings(max_examples=50, deadline=None)
@given(bleu_corpora(), st.booleans())
def test_bleu_with_ids_near_2_62(corpus, smooth):
    # a code of id * V**k would overflow int64 at these ids
    def huge(sents):
        return [tuple(2**63 - 1 - t if t % 2 else 2**62 + t for t in s)
                for s in sents]

    candidates, references = corpus
    score = bleu(huge(candidates), huge(references), smooth=smooth)
    assert score == bleu(candidates, references, smooth=smooth)


def test_pearson_exact_lines():
    assert pearson([1, 2, 3], [3, 5, 7]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)


def test_pearson_hand_computed():
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_zero_variance():
    with pytest.raises(UndefinedCorrelation):
        pearson([1, 1, 1], [1, 2, 3])


@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=12),
    st.sampled_from([-2.0, -0.5, 0.5, 3.0]),
)
def test_pearson_scale_shift_invariance(xs, a):
    ys = list(range(len(xs)))
    try:
        base = pearson(xs, ys)
        scaled = pearson([a * x + 1.0 for x in xs], ys)
    except UndefinedCorrelation:
        # degenerate draws (values collapsing to equal at float
        # granularity, before or after scaling) are out of scope
        return
    assert scaled == pytest.approx(np.sign(a) * base, abs=1e-12)


def test_split_short_long_examples():
    pairs = [
        ParallelPair(tuple(range(2, 2 + n)), tuple(range(2, 2 + n)))
        for n in (5, 2, 9, 3)
    ]
    short, long_ = split_short_long(pairs)
    assert sorted(len(p.source) for p in short) == [2, 3]
    assert sorted(len(p.source) for p in long_) == [5, 9]


def test_split_short_long_odd_extra_to_long():
    pairs = [ParallelPair((2,) * n, (2,) * n) for n in (1, 2, 3, 4, 5)]
    short, long_ = split_short_long(pairs)
    assert len(short) == 2 and len(long_) == 3


def _trained_state(steps=120, seed=4):
    spec = SyntheticTaskSpec(
        kind="copy", vocab_size=10, min_len=2, max_len=8, pairs=300, seed=seed
    )
    corpus = generate_task(spec)
    dims = ModelDims(vocab=10, d=8, h=16, p_max=12, dl_max=2)
    state = train(
        TrainConfig(schedule="ce", steps=steps, batch_size=8, seed=seed),
        corpus,
        dims,
    )
    return state, corpus


def test_correlation_study_deterministic_and_disjoint():
    state, corpus = _trained_state()
    a = correlation_study(state.model, state.lp, corpus, 5, 10, seed=3)
    b = correlation_study(state.model, state.lp, corpus, 5, 10, seed=3)
    assert a == b
    assert len(a) == 5  # ce + bon n=1..4
    assert all(r.subsets == 5 and r.subset_size == 10 for r in a)


def test_correlation_study_needs_enough_corpus():
    state, corpus = _trained_state()
    with pytest.raises(ValueError, match="too small"):
        correlation_study(state.model, state.lp, corpus, 100, 100, seed=0)


def test_correlation_study_surfaces_zero_variance():
    # a fully converged model on a constant-loss corpus can produce a
    # zero-variance series; fake it with a single repeated pair
    state, _ = _trained_state(steps=10)
    pair = ParallelPair((2, 3, 4), (2, 3, 4))
    corpus = [pair] * 40
    reports = correlation_study(state.model, state.lp, corpus, 4, 10, seed=0)
    assert all(r.r is None and r.error for r in reports)


def test_removed_token_report_additive():
    state, corpus = _trained_state()
    rows = removed_token_report(state.model, state.lp, corpus)
    by_bucket = {r.bucket: r for r in rows}
    assert by_bucket["all"].removed == (
        by_bucket["short"].removed + by_bucket["long"].removed
    )
    assert by_bucket["all"].total_ref_tokens == sum(
        len(p.target) for p in corpus
    )


def test_length_bucket_single_bucket_equals_corpus_bleu():
    state, corpus = _trained_state()
    rows = length_bucket_bleu(state.model, state.lp, corpus, edges=[100])
    assert rows[0].count == len(corpus)
    assert rows[1].count == 0 and rows[1].bleu is None
    outputs = []
    from bonnat.evaluate import _decode_corpus

    outputs, _ = _decode_corpus(state.model, state.lp, corpus)
    direct = bleu(outputs, [p.target for p in corpus], smooth=True)
    assert rows[0].bleu == pytest.approx(direct.value)


def test_length_bucket_row_layout():
    state, corpus = _trained_state(steps=10)
    rows = length_bucket_bleu(state.model, state.lp, corpus, edges=[4, 8, 12])
    assert [r.bucket for r in rows] == ["1-4", "5-8", "9-12", ">12"]
    assert sum(r.count for r in rows) == len(corpus)
