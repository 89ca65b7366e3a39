"""Benchmark of the bonnat command line: train -> eval -> correlate.

    python3 perfbench/run.py --workload dict-joint --seed 1 --seconds 40 --trace 0

One closed-loop, single-threaded client in one process. After set-up
(cold imports and corpus generation, timed in fresh interpreters) and a
short untimed warm-up, the benchmark repeats rounds of the three CLI
commands, each called through `bonnat.cli.main`, while another round of
average length still fits in `--seconds` (at least one round). Rounds
cycle through INPUT_SETS sets of inputs, all made from `--seed`.

Times are reported in reference seconds: each wall time is scaled by the
machine's speed at that moment, which `calibrate()` measures just before
and just after it (see README.md). A command's time on one input set is
the median over the rounds that used that set; throughput is sentences
over the summed times of all sets seen. Correctness checks follow the
timed part.

With `--trace 1` the same rounds run with span tracing (see spans.py)
and the per-layer metrics are reported instead of the end-to-end ones.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
INPUT_SETS = 8  # rounds cycle through this many sets of inputs
SEED_STRIDE = 100_003  # round r uses seed + SEED_STRIDE * (r % INPUT_SETS)
REF_CAL_S = 0.015  # calibrate() takes this long at reference speed


@dataclass(frozen=True)
class Workload:
    name: str
    task: tuple[str, ...]  # corpus flags shared by the three commands
    train_pairs: int
    train_noise: float
    eval_pairs: int  # correlate takes the first subsets * subset_size
    train: tuple[str, ...]  # model and objective flags
    n: int
    steps: int
    buckets: str
    subsets: int
    subset_size: int
    batch: int = 16


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's joint objective at desk scale (acceptance criterion 8)
        Workload(
            name="dict-joint",
            task=("--task", "dict", "--vocab", "24", "--min-len", "2",
                  "--max-len", "16"),
            train_pairs=1500, train_noise=0.1, eval_pairs=800,
            train=("--dim", "6", "--hidden", "12", "--schedule", "bon-joint",
                   "--alpha", "0.1", "--n", "2", "--lr", "0.003"),
            n=2, steps=16, buckets="6,11", subsets=4, subset_size=25,
        ),
        # cross-entropy only: BoN is outside the objective (criterion 6)
        Workload(
            name="copy-ce",
            task=("--task", "copy", "--vocab", "20", "--min-len", "2",
                  "--max-len", "12"),
            train_pairs=2000, train_noise=0.0, eval_pairs=800,
            train=("--dim", "16", "--hidden", "32", "--schedule", "ce",
                   "--lr", "0.001"),
            n=2, steps=24, buckets="4,8,12", subsets=5, subset_size=25,
        ),
        # long sentences, large vocabulary, trigrams
        Workload(
            name="long-n3",
            task=("--task", "dict", "--vocab", "200", "--min-len", "16",
                  "--max-len", "30"),
            train_pairs=1000, train_noise=0.0, eval_pairs=500,
            train=("--dim", "16", "--hidden", "32", "--schedule", "bon-joint",
                   "--alpha", "0.1", "--n", "3", "--lr", "0.003"),
            n=3, steps=4, buckets="20,25", subsets=4, subset_size=6,
        ),
    )
}


def commands(w: Workload, seed: int, out: Path) -> dict[str, list[str]]:
    seeds = ("--seed", str(seed), "--data-seed", str(seed))
    ckpt = str(out / "train" / "checkpoint.bin")
    return {
        "train": ["train", *w.task, *seeds, "--pairs", str(w.train_pairs),
                  "--noise", str(w.train_noise), *w.train, "--steps", str(w.steps), "--batch", str(w.batch),
                  "--out", str(out / "train")],
        "eval": ["eval", *w.task, *seeds, "--pairs", str(w.eval_pairs),
                 "--ckpt", ckpt,
                 "--buckets", w.buckets, "--out", str(out / "eval")],
        "correlate": ["correlate", *w.task, *seeds,
                      "--pairs", str(w.subsets * w.subset_size), "--ckpt", ckpt,
                      "--subsets", str(w.subsets),
                      "--subset-size", str(w.subset_size),
                      "--out", str(out / "correlate")],
    }


def sentences(w: Workload, command: str) -> int:
    """Sentences one command processes, the numerator of its throughput."""
    if command == "train":
        return w.steps * w.batch
    if command == "eval":
        return w.eval_pairs
    return w.subsets * w.subset_size


def tiny(w: Workload) -> Workload:
    """The same workload at warm-up size."""
    return Workload(w.name, w.task, train_pairs=20, train_noise=w.train_noise,
                    eval_pairs=20, train=w.train, n=w.n, steps=2,
                    buckets=w.buckets, subsets=2, subset_size=5, batch=4)


SETUP_CHILD = """
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy
import bonnat.cli
from bonnat.corpus import SyntheticTaskSpec, generate_task
for spec in json.loads(sys.argv[2]):
    generate_task(SyntheticTaskSpec(**spec))
print(time.perf_counter() - t0)
"""


def corpus_specs(w: Workload, seed: int) -> list[dict]:
    flags = dict(zip(w.task[::2], w.task[1::2]))
    base = dict(
        kind=flags["--task"], vocab_size=int(flags["--vocab"]),
        min_len=int(flags["--min-len"]), max_len=int(flags["--max-len"]),
        seed=seed,
    )
    return [dict(base, pairs=w.train_pairs, target_noise=w.train_noise),
            dict(base, pairs=w.eval_pairs)]


def calibrate() -> float:
    """Wall time of a fixed computation written here, of the kinds the
    program does: small matrix products and softmaxes, window products
    over a probability table, and n-gram counting."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random((16, 12))
    w = rng.random((12, 24))
    ref = [int(t) for t in rng.integers(0, 24, 16)]
    t0 = time.perf_counter()
    for _ in range(200):
        z = x @ w
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        for a, b in Counter(zip(ref, ref[1:])):
            (p[:-1, a] * p[1:, b]).sum()
        Counter(zip(ref, ref[1:], ref[2:])).most_common()
    return time.perf_counter() - t0


class RefClock:
    """Turns wall times into reference seconds: a wall time is divided by
    the mean of the calibrations just before and just after it, in units
    of REF_CAL_S. The host's speed drifts by up to 2x for seconds at a
    time; the ratio cancels that drift."""

    def __init__(self) -> None:
        self.cal = calibrate()

    def scale(self, wall: float) -> float:
        before, self.cal = self.cal, calibrate()
        return wall * REF_CAL_S / ((before + self.cal) / 2)


def setup_seconds(w: Workload, seed: int) -> float:
    """Median over fresh interpreters of: import numpy and bonnat, then
    generate the training and the evaluation corpus; in reference
    seconds."""
    samples = []
    specs = json.dumps(corpus_specs(w, seed))
    clock = RefClock()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), specs],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(clock.scale(float(done.stdout.split()[-1])))
    return statistics.median(samples)


def input_seed(seed: int, round_: int) -> int:
    return seed + SEED_STRIDE * (round_ % INPUT_SETS)


def run_command(main, argv: list[str]) -> tuple[int, float, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    return code, wall, buf.getvalue()


def result_fields(stdout: str) -> dict[str, str]:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")]
    return dict(re.findall(r"(\S+?)=(\S+)", lines[-1])) if lines else {}


def run_rounds(w: Workload, seed: int, seconds: float, tracer) -> dict:
    """Rounds of train -> eval -> correlate. walls[c] and times[c] hold,
    per command, (input set, wall seconds) and (input set, reference
    seconds)."""
    from bonnat import cli

    names = ["train", "eval", "correlate"]
    mains = {c: cli.main for c in names}
    if tracer is not None:
        mains = {c: tracer.wrap(f"cli.{c}", cli.main) for c in names}
    walls = {c: [] for c in names}
    times = {c: [] for c in names}
    attempted = failed = 0
    hashes: dict[int, set[str]] = {}
    last = {}
    rounds = 0
    clock = RefClock()
    t_start = time.perf_counter()
    while True:
        k = rounds % INPUT_SETS
        argvs = commands(w, input_seed(seed, rounds), OUT / w.name)
        for c in names:
            code, wall, stdout = run_command(mains[c], argvs[c])
            ref_s = clock.scale(wall)
            attempted += 1
            if code != 0:
                failed += 1
                print(f"{c} exited {code}", file=sys.stderr)
                continue
            walls[c].append((k, wall))
            times[c].append((k, ref_s))
            last[c] = result_fields(stdout)
        ckpt = OUT / w.name / "train" / "checkpoint.bin"
        if ckpt.exists():
            hashes.setdefault(k, set()).add(
                hashlib.sha256(ckpt.read_bytes()).hexdigest())
        rounds += 1
        # stop before a round of average length would overrun the budget
        if (time.perf_counter() - t_start) * (rounds + 1) / rounds > seconds:
            break
    return dict(walls=walls, times=times, attempted=attempted, failed=failed,
                hashes=hashes, last=last, rounds=rounds,
                seed=input_seed(seed, rounds - 1))


def throughput(w: Workload, command: str,
               samples: list[tuple[int, float]]) -> float:
    """Sentences per second over one pass through the input sets seen,
    each set's time being the median over the rounds that used it."""
    by_set: dict[int, list[float]] = {}
    for k, t in samples:
        by_set.setdefault(k, []).append(t)
    total = sum(statistics.median(ts) for ts in by_set.values())
    return sentences(w, command) * len(by_set) / total


def check_round(w: Workload, seed: int, res: dict) -> list[str]:
    """Correctness of the last round's outputs (see refcheck.py)."""
    import numpy as np

    import refcheck
    from bonnat import checkpoint
    from bonnat.corpus import SyntheticTaskSpec, generate_task
    from bonnat.loss import bon_loss, cross_entropy
    from bonnat.model import decode, postprocess

    out = OUT / w.name
    bad = []
    for k, found in res["hashes"].items():
        if len(found) != 1:
            bad.append(f"{len(found)} different checkpoints from rounds on input set {k}")
    if set(res["last"]) != {"train", "eval", "correlate"}:
        return bad + ["a command never succeeded"]
    if res["last"]["train"].get("steps") != str(w.steps):
        bad.append(f"train RESULT {res['last']['train']}")
    if len(refcheck.read_csv(out / "train" / "train_log.csv")) != w.steps:
        bad.append("train_log.csv does not have one row per step")

    state, _ = checkpoint.load(out / "train" / "checkpoint.bin")
    pairs = generate_task(SyntheticTaskSpec(**corpus_specs(w, seed)[1]))
    refs = [p.target for p in pairs]
    raw = [decode(state.model, state.lp, p.source) for p in pairs]
    clean = [postprocess(r)[0] for r in raw]
    bad += refcheck.check_bleu(float(res["last"]["eval"]["bleu"]), clean, refs)
    edges = [int(x) for x in w.buckets.split(",")]
    bad += refcheck.check_eval_csvs(
        out / "eval", refs, [p.source for p in pairs], raw, clean, edges
    )
    bad += refcheck.check_correlation_csv(out / "correlate", w.subsets, w.subset_size)

    rng = np.random.default_rng(seed)
    bad += refcheck.check_enumeration(rng)
    V = state.model.dims.vocab
    checked = 0
    for pair in pairs:
        ref = pair.target
        p = state.model.forward(pair.source, len(ref)).probs
        if len(ref) < w.n or refcheck.tie_gap(p, ref, w.n) < refcheck.TIE_GAP:
            continue
        for n in range(1, 5):
            bad += refcheck.check_counts(p, ref, n)
        for n in range(1, 4):
            if V**n <= 50_000:
                bad += refcheck.check_conservation(p, n)
        entries = refcheck.gradient_entries(rng, ref, V, k=24)
        bad += refcheck.check_gradient(lambda q: bon_loss(q, ref, w.n), p, entries)
        bad += refcheck.check_gradient(
            lambda q: cross_entropy(q, ref), p, entries, relative_step=True
        )
        checked += 1
        if checked == 3:
            break
    if checked < 3:
        bad.append(f"only {checked} sentences away from min() ties")
    return bad


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one BLAS/OpenMP thread, set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "bonnat" / "__init__.py").is_file():
        print(f"error: no bonnat sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bonnat import cli

    w = WORKLOADS[args.workload]
    setup_s = setup_seconds(w, args.seed)
    shutil.rmtree(OUT / w.name, ignore_errors=True)

    for argv_ in commands(tiny(w), args.seed, OUT / "warmup").values():
        run_command(cli.main, argv_)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        res = run_rounds(w, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rates = {c: throughput(w, c, ts) for c, ts in res["times"].items() if ts}
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{res['rounds']} rounds, setup {setup_s:.3f} s")
    for c, walls in res["walls"].items():
        if walls:
            print(f"  {c:9s} {rates[c]:.1f} sentences/s "
                  f"({throughput(w, c, walls):.1f} by wall time); wall "
                  + " ".join(f"{x:.3f}" for _, x in walls) + " s")

    bad = check_round(w, res["seed"], res)
    for msg in bad:
        print(f"check failed: {msg}")

    if args.trace:
        metrics = layer_metrics(tracer)
        tracer.write(OUT / w.name / "spans.npz")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for c, rate in rates.items():
            metrics[f"{c}_sent_per_s"] = (rate, "sentences/s")
    print(json.dumps({
        "correct": not bad,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# (metric, span name, kind): kind "us"/"ms" is mean self time per call,
# "calls" is calls in the first round
LAYER_METRICS = [
    ("corpus.generate_ms", "corpus.generate", "ms"),
    ("ngram.count_us", "ngram.count", "us"),
    ("probmodel.count_gradient_us", "probmodel.count_gradient", "us"),
    ("probmodel.count_gradient_calls", "probmodel.count_gradient", "calls"),
    ("probmodel.expected_bag_us", "probmodel.expected_bag", "us"),
    ("loss.bon_us", "loss.bon", "us"),
    ("loss.bon_calls", "loss.bon", "calls"),
    ("loss.ce_us", "loss.ce", "us"),
    ("model.forward_us", "model.forward", "us"),
    ("model.forward_calls", "model.forward", "calls"),
    ("model.backward_us", "model.backward", "us"),
    ("model.length_predictor_us", "model.length_predictor", "us"),
    ("model.adam_us", "model.adam", "us"),
    ("model.decode_us", "model.decode", "us"),
    ("model.decode_calls", "model.decode", "calls"),
    ("model.train_ms", "model.train", "ms"),
    ("evaluate.bleu_us", "evaluate.bleu", "us"),
    ("evaluate.bleu_calls", "evaluate.bleu", "calls"),
    ("evaluate.correlation_study_ms", "evaluate.correlation_study", "ms"),
    ("checkpoint.save_ms", "checkpoint.save", "ms"),
    ("checkpoint.load_ms", "checkpoint.load", "ms"),
    ("cli.train_ms", "cli.train", "ms"),
    ("cli.eval_ms", "cli.eval", "ms"),
    ("cli.correlate_ms", "cli.correlate", "ms"),
]
SCALE = {"us": 1e6, "ms": 1e3}


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    summary = tracer.summary()
    first_round = tracer.summary(ops=3)  # train, eval, correlate
    metrics = {}
    for metric, span, kind in LAYER_METRICS:
        calls, self_s = summary.get(span, (0, 0.0))
        if kind == "calls":
            metrics[metric] = (first_round.get(span, (0, 0.0))[0], "count")
        else:
            metrics[metric] = (self_s / calls * SCALE[kind] if calls else 0.0, kind)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
