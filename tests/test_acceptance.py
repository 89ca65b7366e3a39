"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything is seeded;
the training-based criteria (6-9) take a few minutes in total.
"""
import csv
import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bonnat.cli import main as cli_main
from bonnat.corpus import SyntheticTaskSpec, generate_task
from bonnat.evaluate import (
    _decode_corpus,
    bleu,
    correlation_study,
    split_short_long,
)
from bonnat.gradcheck import (
    fd_param_gradients,
    fd_table_gradient,
    min_tie_gap,
    oracle_expected_bag,
    random_table,
    tiny_model,
    worst_rel_error,
)
from bonnat.loss import JointConfig, bon_l1, bon_loss, cross_entropy, joint_loss
from bonnat.model import ModelDims, TrainConfig, train
from bonnat.ngram import count_ngrams
from bonnat.probmodel import expected_ngram_count


RESULT_LINES: list[str] = []


def report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} {detail}"
    print(f"\n{line}")
    # also collected by conftest's terminal-summary hook so the line is
    # visible in a plain `pytest -v` run despite output capture
    RESULT_LINES.append(line)
    assert ok, f"criterion {num} failed: {detail}"


def one_hot_table(sentence, V):
    t = np.zeros((len(sentence), V))
    t[np.arange(len(sentence)), sentence] = 1.0
    return t


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    configs = [(2, 6, 2), (3, 5, 2), (3, 5, 3), (4, 4, 2), (5, 4, 4)]
    worst = 0.0
    for V, T, n in configs:
        assert V**T <= 10**7
        for _ in range(100):
            table = random_table(rng, T, V)
            ref = tuple(int(x) for x in rng.integers(0, V, size=T))
            for g in count_ngrams(ref, n):
                dev = abs(
                    expected_ngram_count(table, g)
                    - oracle_expected_bag(table, g)
                )
                assert dev <= 1e-9 * (T - n + 1)
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 60.0,
        f"max |window - enumeration| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_conservation():
    rng = np.random.default_rng(200)
    tables = 0
    worst = 0.0
    for V in range(2, 6):
        for n in range(1, 4):
            for T in range(n, 7):
                for _ in range(2):
                    table = random_table(rng, T, V)
                    total = sum(
                        expected_ngram_count(table, g)
                        for g in itertools.product(range(V), repeat=n)
                    )
                    dev = abs(total - (T - n + 1))
                    assert dev <= 1e-9
                    worst = max(worst, dev)
                    tables += 1
    report(2, tables >= 100, f"{tables} tables, max deviation {worst:.2e}")


def test_criterion_3_range_and_endpoints():
    rng = np.random.default_rng(300)
    for _ in range(10_000):
        T = int(rng.integers(1, 7))
        V = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        table = random_table(rng, T, V)
        ref = tuple(int(x) for x in rng.integers(0, V, size=int(rng.integers(1, 7))))
        val = bon_loss(table, ref, n).value
        assert 0.0 <= val <= 1.0
    ref = (0, 1, 2, 1)
    assert bon_loss(one_hot_table(ref, 3), ref, 2).value == 0.0
    assert bon_loss(one_hot_table((1, 0, 1, 0), 3), (2, 2, 2, 2), 2).value == 1.0
    table = random_table(rng, 4, 3)
    ce = cross_entropy(table, ref)
    bon = bon_loss(table, ref, 2)
    at1 = joint_loss(table, ref, JointConfig(1.0, 2))
    at0 = joint_loss(table, ref, JointConfig(0.0, 2))
    bitwise = (
        at1.value == ce.value
        and np.array_equal(at1.grad, ce.grad)
        and at0.value == bon.value
        and np.array_equal(at0.grad, bon.grad)
    )
    report(3, bitwise, "10k range checks, endpoint losses bitwise")


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(400)
    worst_loss = 0.0
    probes = 0
    specs = [("bon", 150), ("ce", 40), ("joint", 40)]

    def loss_fn(kind, probs, ref):
        if kind == "ce":
            return cross_entropy(probs, ref)
        if kind == "bon":
            return bon_loss(probs, ref, 2)
        return joint_loss(probs, ref, JointConfig(0.3, 2))

    for kind, trials in specs:
        done = 0
        while done < trials:
            table = random_table(rng, 4, 4)
            ref = tuple(int(x) for x in rng.integers(0, 4, size=4))
            if kind != "ce" and min_tie_gap(table, ref, 2) < 1e-6:
                continue
            res = loss_fn(kind, table, ref)
            fd = fd_table_gradient(lambda p: loss_fn(kind, p, ref).value, table)
            err = worst_rel_error(res.grad, fd)
            assert err < 1e-4, (kind, err)
            worst_loss = max(worst_loss, err)
            done += 1
            probes += 1

    # through the full tiny model
    model = tiny_model(41)
    worst_model = 0.0
    cfg = JointConfig(0.3, 2)
    for seed in range(3):
        r2 = np.random.default_rng(seed)
        source = tuple(int(x) for x in r2.integers(2, 5, size=3))
        ref = tuple(int(x) for x in r2.integers(2, 5, size=3))

        def model_loss():
            probs, _ = model._forward_cache(source, len(ref))
            return joint_loss(probs, ref, cfg).value

        probs, cache = model._forward_cache(source, len(ref))
        analytic = model.backward(cache, joint_loss(probs, ref, cfg).grad)
        numeric = fd_param_gradients(model_loss, model.params, step=1e-4)
        err = max(worst_rel_error(analytic[k], numeric[k]) for k in analytic)
        assert err < 1e-3, err
        worst_model = max(worst_model, err)
        probes += sum(p.size for p in model.params.values())
    elapsed = time.perf_counter() - start
    report(
        4,
        probes >= 200 and elapsed < 120.0,
        f"loss-level worst {worst_loss:.2e}, model-level worst "
        f"{worst_model:.2e}, {probes} probes, {elapsed:.1f}s",
    )


def test_criterion_5_hand_computed_case():
    table = np.full((2, 2), 0.5)
    raw = bon_l1(table, (0, 1), 2)
    norm = bon_loss(table, (0, 1), 2)
    report(
        5,
        raw.value == 1.5 and norm.value == 0.75,
        f"BoN-L1 = {raw.value}, normalized = {norm.value}",
    )


def test_criterion_6_training_sanity():
    start = time.perf_counter()
    spec = SyntheticTaskSpec(
        kind="copy", vocab_size=20, min_len=2, max_len=12, pairs=2000, seed=7
    )
    corpus = generate_task(spec)
    dims = ModelDims(vocab=20, d=16, h=32, p_max=32, dl_max=8)
    config = TrainConfig(schedule="ce", steps=3000, batch_size=16, seed=7)
    state = train(config, corpus, dims)
    outputs, _ = _decode_corpus(state.model, state.lp, corpus)
    score = bleu(outputs, [p.target for p in corpus])
    elapsed = time.perf_counter() - start
    final_ce = np.mean([r["ce_loss"] for r in state.log[-20:]])
    per_token = final_ce / np.mean([len(p.target) for p in corpus])
    report(
        6,
        score.value >= 0.95 and elapsed < 600.0,
        f"copy-task BLEU {score.value:.4f} (CE {per_token:.4f} nats/token), "
        f"{elapsed:.0f}s",
    )


NOISY_DICT = dict(
    kind="dict", vocab_size=16, min_len=2, max_len=16, pairs=1500, seed=11
)


def test_criterion_7_correlation_ordering():
    corpus_noisy = generate_task(SyntheticTaskSpec(**NOISY_DICT, target_noise=0.1))
    corpus_clean = generate_task(SyntheticTaskSpec(**NOISY_DICT))
    dims = ModelDims(vocab=16, d=16, h=32, p_max=32, dl_max=8)
    # deliberately under-trained so decodes are imperfect
    state = train(
        TrainConfig(schedule="ce", steps=300, batch_size=16, seed=11),
        corpus_noisy,
        dims,
    )
    reports = correlation_study(
        state.model, state.lp, corpus_clean, subsets=40, subset_size=30, seed=11
    )
    by_name = {r.loss_name: r for r in reports}
    r_ce = by_name["ce"].r
    r_bon2 = by_name["bon2"].r
    assert r_ce is not None and r_bon2 is not None
    report(
        7,
        abs(r_bon2) > abs(r_ce),
        f"|r| BoN n=2 {abs(r_bon2):.3f} vs CE {abs(r_ce):.3f} "
        f"(signed: {r_bon2:.3f}, {r_ce:.3f})",
    )


NOISY_TASK = dict(
    kind="dict", vocab_size=24, min_len=2, max_len=16, pairs=1500, seed=11
)
SMALL_DIMS = ModelDims(vocab=24, d=6, h=12, p_max=32, dl_max=8)
JOINT_STEPS = 8000
BUCKET_EDGES = (6, 11)


@pytest.fixture(scope="module")
def paired_checkpoints():
    """CE-only and BoN-Joint models trained with equal seeds and budgets
    on the noisy dict task, shared by criteria 8 and 9."""
    noisy = generate_task(SyntheticTaskSpec(**NOISY_TASK, target_noise=0.1))
    states = {}
    for schedule in ("ce", "bon-joint"):
        config = TrainConfig(
            schedule=schedule,
            alpha=0.1,
            n=2,
            lr=0.003,
            steps=JOINT_STEPS,
            batch_size=16,
            seed=11,
        )
        states[schedule] = train(config, noisy, SMALL_DIMS)
    clean = generate_task(SyntheticTaskSpec(**NOISY_TASK))
    return states, clean


def test_criterion_8_removed_tokens(paired_checkpoints):
    from bonnat.evaluate import removed_token_report

    states, clean = paired_checkpoints
    pct = {}
    for schedule, state in states.items():
        rows = removed_token_report(state.model, state.lp, clean)
        pct[schedule] = {r.bucket: r.pct for r in rows}["all"]
    report(
        8,
        pct["bon-joint"] < pct["ce"],
        f"removed tokens: BoN-Joint {pct['bon-joint']:.4f}% "
        f"< CE {pct['ce']:.4f}%",
    )


def test_criterion_9_length_degradation(paired_checkpoints):
    from bonnat.evaluate import length_bucket_bleu

    states, clean = paired_checkpoints
    # clause 1: short/long correlation gap, per loss, on the CE model
    short, long_ = split_short_long(clean)
    gaps = {}
    for name, half in (("short", short), ("long", long_)):
        reports = correlation_study(
            states["ce"].model,
            states["ce"].lp,
            half,
            subsets=20,
            subset_size=18,
            seed=11,
        )
        for r in reports:
            assert r.r is not None, (name, r.loss_name, r.error)
            gaps.setdefault(r.loss_name, {})[name] = abs(r.r)
    gap_ce = gaps["ce"]["short"] - gaps["ce"]["long"]
    gap_bon2 = gaps["bon2"]["short"] - gaps["bon2"]["long"]
    # clause 2: long-bucket BLEU deficit (shortest minus longest bucket)
    deficit = {}
    for schedule, state in states.items():
        rows = length_bucket_bleu(state.model, state.lp, clean, BUCKET_EDGES)
        assert all(r.bleu is not None for r in rows)
        deficit[schedule] = rows[0].bleu - rows[-1].bleu
    report(
        9,
        gap_ce > gap_bon2 and deficit["ce"] > deficit["bon-joint"],
        f"correlation gap CE {gap_ce:+.4f} > BoN n=2 {gap_bon2:+.4f}; "
        f"bucket deficit CE {deficit['ce']:+.4f} > "
        f"BoN-Joint {deficit['bon-joint']:+.4f}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    task = ["--task", "copy", "--vocab", "12", "--min-len", "2", "--max-len",
            "6", "--pairs", "120", "--seed", "5"]

    def sha(p):
        return hashlib.sha256(p.read_bytes()).hexdigest()

    for name in ("a", "b"):
        code = cli_main(
            ["train", *task, "--steps", "60", "--batch", "8",
             "--out", str(tmp_path / name)]
        )
        assert code == 0
        code = cli_main(
            ["eval", *task, "--ckpt", str(tmp_path / name / "checkpoint.bin"),
             "--out", str(tmp_path / f"ev_{name}")]
        )
        assert code == 0
        code = cli_main(
            ["correlate", *task, "--ckpt",
             str(tmp_path / name / "checkpoint.bin"), "--subsets", "3",
             "--subset-size", "10", "--out", str(tmp_path / f"co_{name}")]
        )
        assert code == 0
    capsys.readouterr()
    ok = sha(tmp_path / "a" / "checkpoint.bin") == sha(
        tmp_path / "b" / "checkpoint.bin"
    )
    for rel in ("length_bucket.csv", "removed_tokens.csv"):
        ok = ok and sha(tmp_path / "ev_a" / rel) == sha(tmp_path / "ev_b" / rel)
    ok = ok and sha(tmp_path / "co_a" / "correlation.csv") == sha(
        tmp_path / "co_b" / "correlation.csv"
    )
    # training log: bitwise on everything except the wall-clock column
    with (tmp_path / "a" / "train_log.csv").open() as fa, (
        tmp_path / "b" / "train_log.csv"
    ).open() as fb:
        for ra, rb in zip(csv.DictReader(fa), csv.DictReader(fb)):
            ra.pop("wall_ms")
            rb.pop("wall_ms")
            ok = ok and ra == rb
    report(10, ok, "checkpoints and CSVs bit-identical across reruns")


def reference_corpus_bleu(candidates, references):
    """Independently written corpus BLEU used only as a cross-check:
    exact Fraction precisions, log-space combination."""
    log_sum = 0.0
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    for n in range(1, 5):
        num = 0
        den = 0
        for cand, ref in zip(candidates, references):
            cgrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
            rgrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            den += len(cgrams)
            for g in set(cgrams):
                num += min(cgrams.count(g), rgrams.count(g))
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(float(Fraction(num, den)))
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / 4)


def test_criterion_11_bleu_cross_check():
    candidates = [
        (2, 3, 4, 5, 6),
        (7, 8, 9, 2),
        (2, 2, 3, 3, 4),
        (5, 6, 7),
        (9, 8, 7, 6, 5, 4),
    ]
    references = [
        (2, 3, 4, 5, 6),
        (7, 8, 2, 9),
        (2, 3, 4, 5),
        (5, 6, 7, 8),
        (9, 8, 7, 6, 4, 5),
    ]
    ours = bleu(candidates, references).value
    theirs = reference_corpus_bleu(candidates, references)
    report(11, abs(ours - theirs) < 1e-6, f"{ours:.8f} vs {theirs:.8f}")
