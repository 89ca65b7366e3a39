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
import itertools
import json
import resource
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
from .loss import JointConfig, bon_loss, cross_entropy, in_order_sum, joint_loss
from .model import (
    SCHEDULES,
    BoundError,
    ModelDims,
    TrainConfig,
    TrainingDiverged,
    check_at_least,
    train,
)
from .ngram import count_ngrams
from .probmodel import expected_bag, expected_counts

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


# the argument, and so the --flag, that sets each ModelDims and TrainConfig
# field and takes its default and type; TrainConfig.seed is the common --seed
_DIMS_ARGS = {"d": "dim", "h": "hidden", "p_max": "p_max", "dl_max": "dl_max"}
_CONFIG_ARGS = {
    "schedule": "schedule", "alpha": "alpha", "n": "n", "steps": "steps",
    "ft_steps": "ft_steps", "batch_size": "batch", "lr": "lr",
}


def _add_field_flags(p: argparse.ArgumentParser, cls, args: dict[str, str]) -> None:
    """The --flag of each `cls` field that `args` names, with the field's
    default and that default's type."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name, arg in args.items():
        p.add_argument("--" + arg.replace("_", "-"), type=type(defaults[name]),
                       default=defaults[name],
                       choices=SCHEDULES if name == "schedule" else None)


def _gen_data_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_task_flags(p)


def _train_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_corpus_flags(p)
    _add_field_flags(p, ModelDims, _DIMS_ARGS)
    _add_field_flags(p, TrainConfig, _CONFIG_ARGS)
    p.add_argument("--init", type=Path, default=None)


def _eval_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_corpus_flags(p)
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--buckets", type=str, default="4,8,12")


def _correlate_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_corpus_flags(p)
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--subsets", type=int, default=30)
    p.add_argument("--subset-size", type=int, default=25)
    p.add_argument("--split-length", action="store_true")


def _oracle_check_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, out=False)
    p.add_argument("--vocab", type=int, default=3)
    p.add_argument("--len", type=int, default=5, dest="length")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)


def _gradcheck_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, out=False)
    p.add_argument("--loss", choices=("ce", "bon", "joint"), default="bon")
    _add_field_flags(p, JointConfig, {"n": "n", "alpha": "alpha"})
    p.add_argument("--vocab", type=int, default=4)
    p.add_argument("--len", type=int, default=4, dest="length")
    p.add_argument("--trials", type=int, default=20)


def build_parser(only: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparser for each command name; with `only`,
    for that command alone, which is all a parse that selects it reads."""
    parser = _Parser(prog="bonnat")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_args, _) in COMMANDS.items():
        if only is None or only == name:
            add_args(sub.add_parser(name, help=help_))
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
    values: dict[str, str] = {}
    for section in ("common", args.command):
        if cfg.has_section(section):
            items = {k.replace("_", "-"): v for k, v in cfg.items(section)}
            # a [common] key applies to the commands that have its flag; it
            # is unknown only if no command has it, which takes every
            # command's arguments to tell
            keys = flags if section == args.command else set().union(
                *map(_config_flags, build_parser()[1].values()))
            bad = set(items).difference(keys)
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


def _flag_bound(exc: BoundError) -> BoundError:
    """A ModelDims, TrainConfig or JointConfig field's BoundError, named by its flag."""
    arg = {**_DIMS_ARGS, **_CONFIG_ARGS}[exc.name]
    return BoundError("--" + arg.replace("_", "-"), exc.value, exc.bound)


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
            seed=args.seed, **{f: getattr(args, a) for f, a in _CONFIG_ARGS.items()}
        )
    except BoundError as exc:
        raise _flag_bound(exc) from None
    return config, dims


def cmd_train(args) -> int:
    config, dims = _train_setup(args)
    pairs, vocab_size = _load_corpus(args)
    # `train` takes an --init state's own dims instead
    dims = dataclasses.replace(dims, vocab=vocab_size)
    init_state = None
    if args.init is not None:
        init_state, _ = _load_checkpoint(args.init, vocab_size)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        state = train(config, pairs, dims, init=init_state)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    args.out.mkdir(parents=True, exist_ok=True)
    ckpt_path = args.out / "checkpoint.bin"
    digest = ckpt.save(ckpt_path, state, seed=args.seed)
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
        {"checkpoint_sha256": digest,
         "short_sentence_skips": state.short_sentence_skips,
         "minor_page_faults": faults},
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
    outputs, _ = eval_mod._decode_corpus(state.model, state.lp, pairs)
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
        {"checkpoint_sha256": header["sha256"], "ckpt_step": header["step"]},
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
    check_at_least([("--subset-size", args.subset_size, 1)])
    pairs, vocab_size = _load_corpus(args)
    state, header = _load_checkpoint(args.ckpt, vocab_size)
    state.model.check_lengths([len(p.target) for p in pairs])
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
        {"checkpoint_sha256": header["sha256"]},
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
    check_at_least(lows)
    if windows and args.n > args.length:
        raise UsageError(f"--n {args.n} exceeds --len {args.length}")


def cmd_oracle_check(args) -> int:
    _check_sizes(args, min_vocab=1)
    V, T, n = args.vocab, args.length, args.n
    if V**T > ORACLE_GUARD:
        raise UsageError(f"search space {V}^{T} exceeds the enumeration guard")
    rng = np.random.default_rng(args.seed)
    every_gram = np.array(list(itertools.product(range(V), repeat=n)))
    max_dev = 0.0
    max_sum_dev = 0.0
    for _ in range(args.trials):
        table = random_table(rng, T, V)
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        for g, count in expected_bag(table, count_ngrams(ref, n)).items():
            max_dev = max(max_dev, abs(count - oracle_expected_bag(table, g)))
        total = in_order_sum(expected_counts(table, every_gram).tolist())
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
    if args.loss == "joint":
        try:
            joint = JointConfig(args.alpha, n)
        except BoundError as exc:
            raise _flag_bound(exc) from None

    def loss_fn(probs, ref):
        if args.loss == "ce":
            return cross_entropy(probs, ref)
        if args.loss == "bon":
            return bon_loss(probs, ref, n)
        return joint_loss(probs, ref, joint)

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
        probs, _ = model.forward(source, len(ref))
        return loss_fn(probs, ref).value

    probs, cache = model.forward(source, len(ref))
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


# each command's help line, the function that adds its arguments and
# the one that runs it
COMMANDS = {
    "gen-data": ("write a synthetic parallel corpus", _gen_data_args, cmd_gen_data),
    "train": ("train a model", _train_args, cmd_train),
    "eval": ("BLEU and removed-token reports", _eval_args, cmd_eval),
    "correlate": ("loss/BLEU correlation study", _correlate_args, cmd_correlate),
    "oracle-check": ("window products vs enumeration", _oracle_check_args,
                     cmd_oracle_check),
    "gradcheck": ("finite-difference gradient check", _gradcheck_args,
                  cmd_gradcheck),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # an option first, such as --help, or no command needs every command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser, commands = build_parser(command)
    try:
        args = _apply_config(parser, commands, argv)
        _, _, run = COMMANDS[args.command]
        return run(args)
    except (ValueError, OSError, MemoryError) as exc:
        # Python's own MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
