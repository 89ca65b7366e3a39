"""Command-line entry point.

Commands: gen-data, train, eval, correlate, oracle-check, gradcheck.
Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
Config files are INI-style key=value sections named after the commands,
plus an optional [common] section whose keys apply to every command
that has the flag; explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import corpus as corpus_mod
from . import evaluate as eval_mod
from .gradcheck import (
    ORACLE_GUARD,
    fd_param_gradients,
    fd_table_gradient,
    min_tie_gap,
    oracle_expected_bag,
    random_table,
    tiny_model,
    worst_rel_error,
)
from .loss import JointConfig, bon_loss, cross_entropy, joint_loss
from .model import (
    SCHEDULES,
    BoundError,
    ModelDims,
    TrainConfig,
    TrainingDiverged,
    train,
)
from .ngram import count_ngrams
from .probmodel import expected_ngram_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageErrors, reported by `main`
    as one line, not a usage block and SystemExit."""

    def error(self, message: str):
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser, out: bool = True) -> None:
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", type=Path, default=Path("."))


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=corpus_mod.TASK_KINDS, default=None)
    p.add_argument("--vocab", type=int, default=16)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--data-seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.0)


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    _add_task_flags(p)
    p.add_argument("--src", type=Path, default=None)
    p.add_argument("--tgt", type=Path, default=None)
    p.add_argument("--vocab-file", type=Path, default=None)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--p-max", type=int, default=32)
    p.add_argument("--dl-max", type=int, default=8)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparser for each command name."""
    parser = _Parser(prog="bonnat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic parallel corpus")
    _add_common(p)
    _add_task_flags(p)

    p = sub.add_parser("train", help="train a model")
    _add_common(p)
    _add_corpus_flags(p)
    _add_model_flags(p)
    p.add_argument("--schedule", choices=SCHEDULES, default="ce")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--ft-steps", type=int, default=500)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--init", type=Path, default=None)

    p = sub.add_parser("eval", help="BLEU and removed-token reports")
    _add_common(p)
    _add_corpus_flags(p)
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--buckets", type=str, default="4,8,12")

    p = sub.add_parser("correlate", help="loss/BLEU correlation study")
    _add_common(p)
    _add_corpus_flags(p)
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--subsets", type=int, default=30)
    p.add_argument("--subset-size", type=int, default=25)
    p.add_argument("--split-length", action="store_true")

    p = sub.add_parser("oracle-check", help="window products vs enumeration")
    _add_common(p, out=False)
    p.add_argument("--vocab", type=int, default=3)
    p.add_argument("--len", type=int, default=5, dest="length")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(p, out=False)
    p.add_argument("--loss", choices=("ce", "bon", "joint"), default="bon")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--vocab", type=int, default=4)
    p.add_argument("--len", type=int, default=4, dest="length")
    p.add_argument("--trials", type=int, default=20)
    return parser, sub.choices


def _config_flags(p: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The long flags a config file may set, named without their dashes."""
    return {
        opt[2:]: a
        for a in p._actions
        for opt in a.option_strings
        if opt.startswith("--") and opt not in ("--help", "--config")
    }


def _apply_config(parser, commands, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    cfg = configparser.ConfigParser()
    if not cfg.read(args.config):
        raise UsageError(f"config file not found: {args.config}")
    flags = _config_flags(commands[args.command])
    # a [common] key applies to the commands that have its flag; it is
    # unknown only if no command has it
    every_flag = set().union(*map(_config_flags, commands.values()))
    values: dict[str, str] = {}
    for section, keys in (("common", every_flag), (args.command, set(flags))):
        if cfg.has_section(section):
            items = {k.replace("_", "-"): v for k, v in cfg.items(section)}
            bad = set(items) - keys
            if bad:
                raise UsageError(f"unknown config keys: {sorted(bad)}")
            values.update((k, v) for k, v in items.items() if k in flags)
    # the file's values become flags ahead of the user's own, which win
    # because argparse keeps the last value
    tokens = []
    for key, val in values.items():
        if flags[key].nargs != 0:
            tokens.append(f"--{key}={val}")
        elif val.lower() not in cfg.BOOLEAN_STATES:  # a switch: --split-length
            raise UsageError(f"--{key}: config value {val!r} is not a boolean")
        elif cfg.BOOLEAN_STATES[val.lower()]:
            tokens.append(f"--{key}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _task_spec(args) -> corpus_mod.SyntheticTaskSpec:
    return corpus_mod.SyntheticTaskSpec(
        kind=args.task,
        vocab_size=args.vocab,
        min_len=args.min_len,
        max_len=args.max_len,
        pairs=args.pairs,
        seed=args.seed if args.data_seed is None else args.data_seed,
        target_noise=args.noise,
    )


def _load_corpus(args) -> tuple[list[corpus_mod.ParallelPair], int]:
    """Corpus from task flags or from src/tgt/vocab files."""
    if args.src is not None or args.tgt is not None:
        if args.src is None or args.tgt is None or args.vocab_file is None:
            raise UsageError("file corpus needs --src, --tgt and --vocab-file")
        vocab = corpus_mod.Vocabulary.load(args.vocab_file)
        pairs = [
            corpus_mod.ParallelPair(
                corpus_mod.encode(s, vocab), corpus_mod.encode(t, vocab)
            )
            for s, t in corpus_mod.read_parallel(args.src, args.tgt)
        ]
        return pairs, vocab.size
    if args.task is None:
        raise UsageError("need either --task or --src/--tgt/--vocab-file")
    spec = _task_spec(args)
    return corpus_mod.generate_task(spec), spec.vocab_size


def _load_checkpoint(path: Path, vocab_size: int):
    """Checkpoint state and header; the corpus ids must fit its vocabulary."""
    if not path.exists():
        raise UsageError(f"missing checkpoint: {path}")
    state, header = ckpt.load(path)
    if vocab_size > state.model.dims.vocab:
        raise UsageError(
            f"corpus vocabulary of {vocab_size} exceeds the vocabulary "
            f"of {state.model.dims.vocab} in {path}"
        )
    return state, header


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_sidecar(path: Path, args, extra: dict) -> None:
    payload = {
        k: str(v) if isinstance(v, Path) else v
        for k, v in vars(args).items()
        if k != "config"
    }
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _result(command: str, **fields) -> None:
    parts = [f"command={command}"] + [f"{k}={v}" for k, v in fields.items()]
    print("RESULT " + " ".join(parts))


def cmd_gen_data(args) -> int:
    if args.task is None:
        raise UsageError("gen-data needs --task")
    spec = _task_spec(args)
    pairs = corpus_mod.generate_task(spec)
    spec_vocab = corpus_mod.task_vocabulary(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    src_lines = [corpus_mod.decode_tokens(p.source, spec_vocab) for p in pairs]
    tgt_lines = [corpus_mod.decode_tokens(p.target, spec_vocab) for p in pairs]
    corpus_mod.write_corpus(src_lines, args.out / "src.txt")
    corpus_mod.write_corpus(tgt_lines, args.out / "tgt.txt")
    spec_vocab.save(args.out / "vocab.txt")
    _result("gen-data", status="ok", pairs=len(pairs), out=args.out)
    return EXIT_OK


def _check_at_least(lows) -> None:
    """Each (flag, value, low) with value < low is a usage error."""
    for flag, value, low in lows:
        if value < low:
            raise UsageError(f"{flag} must be at least {low}, got {value}")


# the argument, and so the --flag, that sets each ModelDims and
# TrainConfig field
_DIMS_ARGS = {"d": "dim", "h": "hidden", "p_max": "p_max", "dl_max": "dl_max"}
_CONFIG_ARGS = {
    "schedule": "schedule", "alpha": "alpha", "n": "n", "lr": "lr",
    "steps": "steps", "ft_steps": "ft_steps", "batch_size": "batch",
    "seed": "seed",
}


def _train_setup(args) -> tuple[TrainConfig, ModelDims]:
    """The config and model dims of the flags, built, and so checked,
    before any work. The dims hold --vocab until `cmd_train` sets the
    loaded corpus's vocabulary."""
    try:
        dims = ModelDims(
            vocab=args.vocab,
            **{f: getattr(args, a) for f, a in _DIMS_ARGS.items()},
        )
        config = TrainConfig(
            **{f: getattr(args, a) for f, a in _CONFIG_ARGS.items()}
        )
        config.validate()
    except BoundError as exc:
        arg = {**_DIMS_ARGS, **_CONFIG_ARGS}[exc.name]
        flag = "--" + arg.replace("_", "-")
        raise UsageError(f"{flag} must be {exc.bound}, got {exc.value}") from None
    return config, dims


def cmd_train(args) -> int:
    config, dims = _train_setup(args)
    pairs, vocab_size = _load_corpus(args)
    init_state = None
    if args.init is not None:
        init_state, _ = _load_checkpoint(args.init, vocab_size)
        dims = init_state.model.dims
    else:
        dims = dataclasses.replace(dims, vocab=vocab_size)
    try:
        state = train(config, pairs, dims, init=init_state)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    args.out.mkdir(parents=True, exist_ok=True)
    ckpt_path = args.out / "checkpoint.bin"
    ckpt.save(ckpt_path, state, seed=args.seed)
    _write_csv(
        args.out / "train_log.csv",
        ["step", "ce_loss", "bon_loss", "joint_loss", "lr", "wall_ms"],
        [
            [r["step"], repr(r["ce_loss"]), repr(r["bon_loss"]),
             repr(r["joint_loss"]), repr(r["lr"]), f"{r['wall_ms']:.3f}"]
            for r in state.log
        ],
    )
    _write_sidecar(
        args.out / "train_meta.json", args,
        {"checkpoint_sha256": _file_hash(ckpt_path),
         "short_sentence_skips": state.short_sentence_skips},
    )
    last = state.log[-1]
    _result(
        "train", status="ok", checkpoint=ckpt_path, steps=state.step,
        ce_loss=f"{last['ce_loss']:.6f}", bon_loss=f"{last['bon_loss']:.6f}",
        short_sentence_skips=state.short_sentence_skips,
    )
    return EXIT_OK


def _bucket_edges(text: str) -> list[int]:
    """The --buckets value: comma-separated, distinct, positive lengths."""
    try:
        edges = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"--buckets {text!r}: edges must be integers") from None
    if any(e < 1 for e in edges) or len(set(edges)) != len(edges):
        raise UsageError(f"--buckets {text!r}: edges must be distinct and positive")
    return edges


def cmd_eval(args) -> int:
    edges = _bucket_edges(args.buckets)
    pairs, vocab_size = _load_corpus(args)
    state, header = _load_checkpoint(args.ckpt, vocab_size)
    outputs, removed = eval_mod._decode_corpus(state.model, state.lp, pairs)
    score = eval_mod.bleu(outputs, [p.target for p in pairs])
    removed_rows = eval_mod.removed_token_report(state.model, state.lp, pairs)
    bucket_rows = eval_mod.length_bucket_bleu(state.model, state.lp, pairs, edges)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        args.out / "length_bucket.csv",
        ["bucket", "count", "bleu"],
        [[r.bucket, r.count, "" if r.bleu is None else repr(r.bleu)]
         for r in bucket_rows],
    )
    _write_csv(
        args.out / "removed_tokens.csv",
        ["bucket", "total_ref_tokens", "removed", "removed_pct"],
        [[r.bucket, r.total_ref_tokens, r.removed, f"{r.pct:.4f}"]
         for r in removed_rows],
    )
    _write_sidecar(
        args.out / "eval_meta.json", args,
        {"checkpoint_sha256": _file_hash(args.ckpt), "ckpt_step": header["step"]},
    )
    overall = removed_rows[-1]
    _result(
        "eval", status="ok", bleu=f"{score.value:.6f}",
        removed_pct=f"{overall.pct:.4f}", out=args.out,
    )
    return EXIT_OK


def cmd_correlate(args) -> int:
    # a Pearson r needs two subsets in each scope
    scopes = 2 if args.split_length else 1
    if args.subsets // scopes < 2:
        split = " with --split-length" if args.split_length else ""
        raise UsageError(
            f"--subsets must be at least {2 * scopes}{split}, got {args.subsets}"
        )
    _check_at_least([("--subset-size", args.subset_size, 1)])
    pairs, vocab_size = _load_corpus(args)
    state, _ = _load_checkpoint(args.ckpt, vocab_size)
    if args.subsets * args.subset_size > len(pairs):
        raise UsageError(
            f"corpus of {len(pairs)} too small for "
            f"{args.subsets}x{args.subset_size}"
        )
    scopes = [("all", pairs, args.subsets)]
    if args.split_length:
        short, long_ = eval_mod.split_short_long(pairs)
        half = args.subsets // 2
        scopes = [("short", short, half), ("long", long_, half)]
    rows = []
    for name, part, n_subsets in scopes:
        reports = eval_mod.correlation_study(
            state.model, state.lp, part, n_subsets, args.subset_size, args.seed
        )
        for rep in reports:
            rows.append([
                rep.loss_name, name, rep.subsets, rep.subset_size,
                "" if rep.r is None else repr(rep.r), rep.error or "",
            ])
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        args.out / "correlation.csv",
        ["loss", "scope", "subsets", "subset_size", "pearson_r", "error"],
        rows,
    )
    _write_sidecar(
        args.out / "correlate_meta.json", args,
        {"checkpoint_sha256": _file_hash(args.ckpt)},
    )
    _result("correlate", status="ok", rows=len(rows), out=args.out)
    return EXIT_OK


def _check_sizes(args, min_vocab: int, windows: bool = True) -> None:
    """Sizes at which every trial checks something; with `windows`, an
    n-gram of order --n must fit in the --len rows."""
    lows = [("--vocab", args.vocab, min_vocab), ("--len", args.length, 1),
            ("--trials", args.trials, 1)]
    if windows:
        lows.append(("--n", args.n, 1))
    _check_at_least(lows)
    if windows and args.n > args.length:
        raise UsageError(f"--n {args.n} exceeds --len {args.length}")


def cmd_oracle_check(args) -> int:
    _check_sizes(args, min_vocab=1)
    V, T, n = args.vocab, args.length, args.n
    if V**T > ORACLE_GUARD:
        raise UsageError(f"search space {V}^{T} exceeds the enumeration guard")
    rng = np.random.default_rng(args.seed)
    max_dev = 0.0
    max_sum_dev = 0.0
    for _ in range(args.trials):
        table = random_table(rng, T, V)
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        for g in count_ngrams(ref, n):
            dev = abs(
                expected_ngram_count(table, g) - oracle_expected_bag(table, g)
            )
            max_dev = max(max_dev, dev)
        total = sum(
            expected_ngram_count(table, g)
            for g in itertools.product(range(V), repeat=n)
        )
        max_sum_dev = max(max_sum_dev, abs(total - (T - n + 1)))
    tol = 1e-9 * (T - n + 1)
    ok = max_dev <= tol and max_sum_dev <= 1e-9
    _result(
        "oracle-check", status="ok" if ok else "fail",
        max_deviation=f"{max_dev:.3e}", max_sum_deviation=f"{max_sum_dev:.3e}",
        trials=args.trials,
    )
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_gradcheck(args) -> int:
    # with one column every reference gram is a tie, which resampling
    # never escapes; CE reads neither --n nor ties
    bon = args.loss != "ce"
    _check_sizes(args, min_vocab=2 if bon else 1, windows=bon)
    rng = np.random.default_rng(args.seed)
    V, T, n = args.vocab, args.length, args.n

    def loss_fn(probs, ref):
        if args.loss == "ce":
            return cross_entropy(probs, ref)
        if args.loss == "bon":
            return bon_loss(probs, ref, n)
        return joint_loss(probs, ref, JointConfig(args.alpha, n))

    worst = 0.0
    resampled = 0
    done = 0
    while done < args.trials:
        table = random_table(rng, T, V)
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        if bon and min_tie_gap(table, ref, n) < 1e-6:
            resampled += 1
            continue
        res = loss_fn(table, ref)
        fd = fd_table_gradient(lambda p: loss_fn(p, ref).value, table)
        worst = max(worst, worst_rel_error(res.grad, fd))
        done += 1

    # parameter-level check through the tiny model; the reference holds an n-gram
    ref_len = max(3, n) if bon else 3
    model = tiny_model(args.seed, vocab=max(V, 4), p_max=max(8, ref_len))
    source = tuple(int(x) for x in rng.integers(2, model.dims.vocab, size=3))
    ref = tuple(int(x) for x in rng.integers(2, model.dims.vocab, size=ref_len))

    def model_loss() -> float:
        probs, _ = model._forward_cache(source, len(ref))
        return loss_fn(probs, ref).value

    probs, cache = model._forward_cache(source, len(ref))
    analytic = model.backward(cache, loss_fn(probs, ref).grad)
    numeric = fd_param_gradients(model_loss, model.params)
    worst_model = max(
        worst_rel_error(analytic[k], numeric[k]) for k in analytic
    )
    loss_tol = 1e-6 if args.loss == "ce" else 1e-4
    ok = worst < loss_tol and worst_model < 1e-3
    _result(
        "gradcheck", status="ok" if ok else "fail", loss=args.loss,
        worst_rel_err=f"{worst:.3e}", worst_model_rel_err=f"{worst_model:.3e}",
        resampled_ties=resampled,
    )
    return EXIT_OK if ok else EXIT_NUMERIC


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "correlate": cmd_correlate,
    "oracle-check": cmd_oracle_check,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _apply_config(parser, commands, argv)
        return COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
