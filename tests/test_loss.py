import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonnat.gradcheck import (
    fd_table_gradient,
    min_tie_gap,
    random_table,
    worst_rel_error,
)
from bonnat.loss import (
    JointConfig, bon_l1, bon_loss, cross_entropy, joint_loss, mix, mix_ce_cells,
)
from bonnat.ngram import count_ngrams
from bonnat.probmodel import expected_ngram_count


def one_hot_table(sentence, V):
    t = np.zeros((len(sentence), V))
    t[np.arange(len(sentence)), sentence] = 1.0
    return t


def test_cross_entropy_perfect_match_is_zero():
    ref = (0, 2, 1)
    res = cross_entropy(one_hot_table(ref, 3), ref)
    assert res.value == pytest.approx(0.0)


def test_cross_entropy_uniform_value():
    res = cross_entropy(np.full((3, 4), 0.25), (0, 1, 2))
    assert res.value == pytest.approx(3 * math.log(4))


def test_cross_entropy_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        cross_entropy(np.full((3, 4), 0.25), (0, 1))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(0)
    table = random_table(rng, 4, 5)
    ref = (1, 0, 4, 2)
    res = cross_entropy(table, ref)
    fd = fd_table_gradient(lambda p: cross_entropy(p, ref).value, table)
    assert worst_rel_error(res.grad, fd) < 1e-6


def test_bon_l1_perfect_one_hot():
    ref = (0, 1, 2, 1)
    res = bon_l1(one_hot_table(ref, 3), ref, 2)
    assert res.value == pytest.approx(0.0)
    assert res.match == pytest.approx(3.0)


def test_bon_l1_disjoint_one_hot():
    ref = (0, 0, 0, 0)
    other = (1, 2, 1, 2)
    res = bon_l1(one_hot_table(other, 3), ref, 2)
    assert res.value == pytest.approx(2 * (4 - 2 + 1))
    assert res.match == pytest.approx(0.0)


def test_bon_l1_of_unequal_lengths_is_the_tables_excess():
    # 2 * sum_g max(E_g - R_g, 0); the L1 distance is 2 in both cases
    assert bon_l1(one_hot_table((0, 1, 0, 1), 2), (0, 1), 2).value == 4.0
    assert bon_l1(one_hot_table((0, 1), 2), (0, 1, 0, 1), 2).value == 0.0


def test_bon_hand_computed_case():
    table = np.full((2, 2), 0.5)
    raw = bon_l1(table, (0, 1), 2)
    assert raw.match == pytest.approx(0.25)
    assert raw.value == pytest.approx(1.5)
    assert bon_loss(table, (0, 1), 2).value == pytest.approx(0.75)


def test_bon_loss_endpoints():
    ref = (0, 1, 2)
    assert bon_loss(one_hot_table(ref, 3), ref, 2).value == pytest.approx(0.0)
    assert bon_loss(one_hot_table((1, 0, 1), 3), (2, 2, 2), 2).value == pytest.approx(1.0)


def test_degenerate_short_reference():
    table = np.full((1, 3), 1 / 3)
    res = bon_loss(table, (0,), 2)
    assert res.degenerate
    assert res.value == 0.0
    assert not res.grad.any()


def test_sparse_dense_agreement():
    # off-support n-grams have zero min, so the support-only loss equals
    # the full V^n sum, exactly
    rng = np.random.default_rng(4)
    for V, T, n in [(3, 5, 2), (4, 6, 3), (2, 4, 2)]:
        table = random_table(rng, T, V)
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        sparse = bon_l1(table, ref, n).value
        ref_bag = count_ngrams(ref, n)
        dense_match = 0.0
        for g in itertools.product(range(V), repeat=n):
            dense_match += min(
                expected_ngram_count(table, g), ref_bag.get(g, 0.0)
            )
        assert sparse == 2 * (T - n + 1) - 2 * dense_match


def test_zero_loss_iff_full_match():
    rng = np.random.default_rng(8)
    for _ in range(20):
        table = random_table(rng, 5, 3)
        ref = tuple(int(x) for x in rng.integers(0, 3, size=5))
        res = bon_loss(table, ref, 2)
        assert (res.value == pytest.approx(0.0, abs=1e-12)) == (
            res.match == pytest.approx(5 - 2 + 1, abs=1e-12)
        )


def test_bon_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 20:
        table = random_table(rng, 5, 4)
        ref = tuple(int(x) for x in rng.integers(0, 4, size=5))
        if min_tie_gap(table, ref, 2) < 1e-6:
            continue
        res = bon_loss(table, ref, 2)
        fd = fd_table_gradient(lambda p: bon_loss(p, ref, 2).value, table)
        assert worst_rel_error(res.grad, fd) < 1e-4
        checked += 1


def test_joint_loss_endpoints_bitwise():
    rng = np.random.default_rng(2)
    table = random_table(rng, 4, 3)
    ref = (0, 2, 1, 0)
    ce = cross_entropy(table, ref)
    bon = bon_loss(table, ref, 2)
    at_one = joint_loss(table, ref, JointConfig(alpha=1.0, n=2))
    at_zero = joint_loss(table, ref, JointConfig(alpha=0.0, n=2))
    assert at_one.value == ce.value and np.array_equal(at_one.grad, ce.grad)
    assert at_zero.value == bon.value and np.array_equal(at_zero.grad, bon.grad)
    # between the endpoints, the value and gradient are the dense tables'
    # `mix`, bit for bit. In the second table every other row is subnormal
    # off its target cell, so that some (1 - alpha) * BoN gradient entries
    # round to -0.0, which the mix turns into +0.0
    ref = (0, 2, 1, 0, 2, 3)
    table = random_table(rng, 6, 4)
    subnormal = table.copy()
    subnormal[1::2] = 5e-324
    subnormal[np.arange(6), ref] = table[np.arange(6), ref]
    off_target = np.ones((6, 4), dtype=bool)
    off_target[np.arange(6), ref] = False
    negative_zeros = 0
    for p, alpha, n in itertools.product((table, subnormal), (0.1, 0.5, 0.9),
                                         range(1, 5)):
        ce = cross_entropy(p, ref)
        bon = bon_loss(p, ref, n)
        got = joint_loss(p, ref, JointConfig(alpha=alpha, n=n))
        assert same_bits(got.value, mix(alpha, ce.value, bon.value))
        assert same_bits(got.grad, mix(alpha, ce.grad, bon.grad))
        assert (got.match, got.degenerate) == (bon.match, bon.degenerate)
        scaled = (1.0 - alpha) * bon.grad
        negative_zeros += int((np.signbit(scaled) & (scaled == 0.0) & off_target).sum())
    assert negative_zeros > 0


def test_joint_loss_is_affine_in_alpha():
    rng = np.random.default_rng(6)
    table = random_table(rng, 4, 3)
    ref = (0, 2, 1, 0)
    a = cross_entropy(table, ref).value
    b = bon_loss(table, ref, 2).value
    for alpha in (0.1, 0.5, 0.9):
        res = joint_loss(table, ref, JointConfig(alpha=alpha, n=2))
        assert res.value == pytest.approx(alpha * a + (1 - alpha) * b, abs=1e-12)


def test_bon_loss_range():
    rng = np.random.default_rng(10)
    for _ in range(200):
        T = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        table = random_table(rng, T, V)
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        val = bon_loss(table, ref, n).value
        assert 0.0 <= val <= 1.0


def test_joint_config_validation():
    with pytest.raises(ValueError):
        JointConfig(alpha=1.5)
    with pytest.raises(ValueError):
        JointConfig(n=5)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def bon_groups(draw):
    """A stack of 1-16 sentences' tables, their references and an order n.

    Sentences may be shorter than n. A table is random, peaked, or one-hot
    with exact zeros elsewhere, hot at its reference (every reference
    n-gram is then a min() tie) or elsewhere; small vocabularies and
    single-token references make repeated n-grams and ties common."""
    V = draw(st.sampled_from([2, 3, 24, 200]))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables, refs = [], []
    for _ in range(draw(st.integers(1, 16))):
        T = draw(st.integers(0, 12))
        ref = rng.integers(0, V, size=T)
        if T and draw(st.integers(0, 3)) == 0:  # a single distinct n-gram
            ref[:] = ref[0]
        kind = draw(st.sampled_from(["random", "peaked", "hot-ref", "hot"]))
        if kind.startswith("hot"):
            p = np.zeros((T, V))
            hot = ref if kind == "hot-ref" else rng.integers(0, V, size=T)
            p[np.arange(T), hot] = 1.0
        else:
            raw = rng.random((T, V)) ** (8 if kind == "peaked" else 1)
            p = raw / raw.sum(axis=1, keepdims=True)
        tables.append(p)
        refs.append(ref)
    return np.concatenate(tables), refs, n


@settings(max_examples=300, deadline=None)
@given(bon_groups(), st.booleans())
def test_group_bon_loss_equals_per_sentence_bon_loss(case, grad):
    p, refs, n = case
    lengths = [len(ref) for ref in refs]
    got = bon_loss(p, np.concatenate(refs), n, grad=grad, lengths=lengths)
    starts = np.cumsum(lengths) - lengths
    want = [
        bon_loss(p[a : a + T], tuple(ref.tolist()), n, grad=grad)
        for ref, a, T in zip(refs, starts, lengths)
    ]
    assert same_bits(got.values, [w.value for w in want])
    assert same_bits(got.value, sum(w.value for w in want))
    assert got.degenerate == sum(w.degenerate for w in want)
    if grad:
        assert same_bits(got.grad, np.concatenate([w.grad for w in want]))
    else:
        assert got.grad is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["random", "short", "exact", "repeated", "nan"])
def test_value_only_bon_loss_equals_the_gradient_call(n, case):
    # one sentence: T < n, T = n, a reference of one repeated token, and a
    # NaN table beside the plain case
    rng = np.random.default_rng(n)
    T = {"short": n - 1, "exact": n}.get(case, 9)
    p = random_table(rng, T, 3)
    ref = rng.integers(0, 3, size=T)
    if case == "repeated":
        ref[:] = ref[0]
    if case == "nan":
        p[:] = np.nan
    ref = tuple(ref.tolist())
    got = bon_loss(p, ref, n, grad=False)
    want = bon_loss(p, ref, n, grad=True)
    assert got.grad is None
    assert same_bits(got.value, want.value) and same_bits(got.match, want.match)
    assert got.degenerate == want.degenerate == (case == "short")


def test_group_bon_loss_needs_one_reference_token_per_row():
    p = np.full((5, 3), 1 / 3)
    with pytest.raises(ValueError, match="one reference token per table row"):
        bon_loss(p, np.array([0, 1, 2, 0]), 2, lengths=[2, 2])
    with pytest.raises(ValueError, match="one reference token per table row"):
        bon_loss(p, np.array([0, 1, 2, 0, 1]), 2, lengths=[2, 2])


def test_bon_loss_of_a_nan_table_is_nan():
    assert math.isnan(bon_loss(np.full((3, 4), np.nan), (1, 2, 3), 2).value)


def test_group_bon_loss_keeps_a_nan_sentence_nan_beside_a_finite_one():
    uniform = np.full((4, 4), 0.25)
    p = np.concatenate([np.full((3, 4), np.nan), uniform])
    got = bon_loss(p, np.array([1, 2, 3, 1, 2, 3, 1]), 2, lengths=[3, 4])
    assert math.isnan(got.values[0])
    # the finite sentence keeps its value, bit for bit
    assert same_bits(got.values[1], 0.8125)
    assert same_bits(got.values[1], bon_loss(uniform, (1, 2, 3, 1), 2).value)


@pytest.mark.parametrize("fill, lengths", [(0.25, [1, 2, 1]), (np.nan, [3, 4])])
def test_group_bon_loss_with_no_active_gram_has_float_zero_rows(fill, lengths):
    """No reference n-gram is active when every sentence is shorter than
    n, or when the table is NaN (NaN <= count is false). The gradient is
    then float64 zeros, allocated or written over a NaN buffer."""
    R = sum(lengths)
    p = np.full((R, 4), fill)
    ref = np.arange(R) % 4
    for out in (None, np.full((R, 4), np.nan)):
        got = bon_loss(p, ref, 3, lengths=lengths, out=out)
        assert got.grad.dtype == np.float64
        assert got.grad.tobytes() == np.zeros((R, 4)).tobytes()
        if out is not None:
            assert got.grad is out


@pytest.mark.parametrize("ce_weight", [0.0, 0.1, 0.5, 1.0])
def test_mix_ce_cells_equals_mix(ce_weight):
    rng = np.random.default_rng(2)
    T, V = 6, 5
    table = random_table(rng, T, V)
    ref = rng.integers(0, V, size=T)
    dense = cross_entropy(table, ref)
    cells = cross_entropy(table, ref, dense=False)
    assert cells.value == dense.value
    assert same_bits(cells.grad, dense.grad[np.arange(T), ref])
    bon = rng.normal(size=(T, V))
    # off the target cells (1 - w) * -5e-324 is -0.0 at w = 0.5, which
    # mix turns into +0.0
    col = (ref[0] + 1) % V
    bon[0, col] = -5e-324
    want = mix(ce_weight, dense.grad, bon.copy())
    if ce_weight == 0.5:
        assert np.signbit((1.0 - ce_weight) * bon[0, col])
        assert want[0, col] == 0.0 and not np.signbit(want[0, col])
    # at weight 1 the BoN table is only the output
    buf = np.full((T, V), np.nan) if ce_weight == 1.0 else bon.copy()
    got = mix_ce_cells(ce_weight, cells.grad, ref, buf)
    assert got is buf
    assert same_bits(got, want)
