"""Tests of the benchmark itself, at tiny sizes.

Run with `PYTHONPATH=src python -m pytest perfbench -q`.
"""
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
from bonnat.loss import LossResult, bon_loss, cross_entropy  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = run.Workload(
    name="tiny",
    task=("--task", "copy", "--vocab", "8", "--min-len", "3", "--max-len", "6"),
    train_pairs=40, train_noise=0.0, eval_pairs=60,
    train=("--dim", "4", "--hidden", "8", "--schedule", "bon-joint", "--n", "2"),
    n=2, steps=5, buckets="4", subsets=3, subset_size=10, batch=4,
)


def table(rng, T, V):
    raw = rng.random((T, V)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


def test_reference_counts_agree_with_enumeration():
    rng = np.random.default_rng(0)
    p = table(rng, 4, 3)
    for g in [(0,), (1, 2), (2, 2, 0)]:
        assert refcheck.window_count(p, g) == pytest.approx(
            refcheck.enumerated_count(p, g), rel=1e-12
        )


def test_count_checks_pass_on_the_program():
    rng = np.random.default_rng(1)
    assert refcheck.check_enumeration(rng) == []
    p = table(rng, 9, 6)
    ref = (2, 3, 2, 3, 4, 5, 2, 3, 1)
    for n in (1, 2, 3, 4):
        assert refcheck.check_counts(p, ref, n) == []
    for n in (1, 2, 3):
        assert refcheck.check_conservation(p, n) == []


def wrong_gradient(loss_fn, scale=1.01):
    def fn(q):
        res = loss_fn(q)
        return LossResult(res.value, res.grad * scale)
    return fn


@pytest.mark.parametrize("loss", ["bon", "ce"])
def test_gradient_check_passes_and_catches_a_wrong_gradient(loss):
    rng = np.random.default_rng(2)
    ref = (2, 3, 4, 2, 3, 5)
    p = table(rng, len(ref), 7)
    assert refcheck.tie_gap(p, ref, 2) > refcheck.TIE_GAP
    if loss == "bon":
        fn, relative = (lambda q: bon_loss(q, ref, 2)), False
    else:
        fn, relative = (lambda q: cross_entropy(q, ref)), True
    entries = refcheck.gradient_entries(rng, ref, 7, k=12)
    assert refcheck.check_gradient(fn, p, entries, relative) == []
    assert refcheck.check_gradient(wrong_gradient(fn), p, entries, relative)


def test_bleu_check_passes_and_catches_a_wrong_value():
    cands = [(2, 3, 4, 5, 6), (7, 8, 9, 2), (2, 3, 4), (5, 6, 7, 8)]
    refs = [(2, 3, 4, 5, 6), (7, 8, 2, 9), (2, 3, 4, 5), (5, 6, 7, 8)]
    precisions, value = refcheck.bleu_fractions(cands, refs)
    assert [float(x) for x in precisions] == [1, 10 / 12, 6 / 8, 3 / 4]
    assert refcheck.check_bleu(round(value, 6), cands, refs) == []
    assert refcheck.check_bleu(round(value, 6) + 1e-5, cands, refs)
    assert refcheck.bleu_fractions([(2, 3)], [(2, 3, 4, 5)])[1] == 0.0


def test_reference_clock_cancels_a_uniform_slowdown(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.REF_CAL_S)
    clock = run.RefClock()
    assert clock.scale(3.0) == pytest.approx(1.5)


def test_throughput_sums_per_set_medians():
    samples = [(0, 1.0), (1, 3.0), (0, 1.2), (0, 9.0), (1, 3.0)]
    sents = TINY.steps * TINY.batch
    assert run.throughput(TINY, "train", samples) == pytest.approx(2 * sents / 4.2)


def tiny_round(tmp_path, monkeypatch, tracer=None):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.run_rounds(TINY, 3, 0.0, tracer)


def test_tiny_round_passes_every_check(tmp_path, monkeypatch, capsys):
    res = tiny_round(tmp_path, monkeypatch)
    assert (res["rounds"], res["attempted"], res["failed"]) == (1, 3, 0)
    assert run.check_round(TINY, 3, res) == []


def test_round_checks_catch_wrong_outputs(tmp_path, monkeypatch):
    res = tiny_round(tmp_path, monkeypatch)
    res["last"]["eval"]["bleu"] = str(float(res["last"]["eval"]["bleu"]) + 0.01)
    csv_path = tmp_path / "tiny" / "eval" / "removed_tokens.csv"
    lines = csv_path.read_text().splitlines()
    bucket, tokens, removed, pct = lines[-1].split(",")
    lines[-1] = ",".join([bucket, tokens, str(int(removed) + 1), pct])
    csv_path.write_text("\n".join(lines) + "\n")
    bad = run.check_round(TINY, 3, res)
    assert any("RESULT bleu" in msg for msg in bad)
    assert any("all.removed" in msg for msg in bad)


def test_traced_round_reports_every_layer_metric(tmp_path, monkeypatch):
    tracer = Tracer()
    tracer.install()
    try:
        res = tiny_round(tmp_path, monkeypatch, tracer)
    finally:
        tracer.uninstall()
    from bonnat import model

    assert "traced" not in model.NatModel.backward.__name__
    metrics = run.layer_metrics(tracer)
    assert set(metrics) == {m for m, _, _ in run.LAYER_METRICS}
    assert all(value > 0 for value, _ in metrics.values())
    # eval decodes the corpus three times, correlate once per sentence
    calls = 3 * 60 + TINY.subsets * TINY.subset_size
    assert metrics["model.decode_calls"] == (calls, "count")


def test_self_time_excludes_children(monkeypatch):
    # outer starts, inner starts, inner ends, outer ends
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    tracer = Tracer()
    tracer.wrap("outer", tracer.wrap("inner", lambda: None))()
    assert tracer.summary() == {"outer": (1, 8.0), "inner": (1, 2.0)}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "copy-ce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
