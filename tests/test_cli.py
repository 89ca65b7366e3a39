import csv
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import bonnat
from bonnat import checkpoint as ckpt
from bonnat import cli, corpus, evaluate
from bonnat.cli import main
from bonnat.model import NatModel

TASK = ["--task", "copy", "--vocab", "12", "--min-len", "2", "--max-len", "6",
        "--pairs", "120"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_data_writes_files(tmp_path, capsys):
    code, out, _ = run(
        ["gen-data", *TASK, "--seed", "5", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert (tmp_path / "src.txt").exists()
    assert (tmp_path / "tgt.txt").exists()
    vocab_lines = (tmp_path / "vocab.txt").read_text().splitlines()
    assert vocab_lines[:2] == ["<pad>", "<unk>"]
    assert out.strip().startswith("RESULT command=gen-data status=ok")


def train_once(tmp_path, capsys, name, extra=()):
    out_dir = tmp_path / name
    code, out, err = run(
        ["train", *TASK, "--steps", "40", "--batch", "8", "--seed", "7",
         "--out", str(out_dir), *extra],
        capsys,
    )
    assert code == 0, err
    return out_dir


def test_train_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    # targets of length 2 are shorter than n = 3: zero BoN loss, counted
    code, out, err = run(
        ["train", *TASK, "--steps", "40", "--batch", "8", "--seed", "7",
         "--n", "3", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0, err
    skips = re.search(r" short_sentence_skips=(\d+)", out)
    assert skips is not None and 0 < int(skips.group(1)) < 40 * 8
    meta = json.loads((out_dir / "train_meta.json").read_text())
    assert meta["checkpoint_sha256"] == sha(out_dir / "checkpoint.bin")
    assert meta["short_sentence_skips"] == int(skips.group(1))
    # the process's minor page faults during `train()`
    faults = meta["minor_page_faults"]
    assert isinstance(faults, int) and faults >= 0
    with (out_dir / "train_log.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert set(rows[0]) == {"step", "ce_loss", "bon_loss", "joint_loss", "lr", "wall_ms"}


def test_train_rerun_is_bit_identical(tmp_path, capsys):
    a = train_once(tmp_path, capsys, "a")
    b = train_once(tmp_path, capsys, "b")
    assert sha(a / "checkpoint.bin") == sha(b / "checkpoint.bin")


def test_bon_ft_without_init_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["train", *TASK, "--schedule", "bon-ft", "--steps", "5",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "source checkpoint" in err


def test_bon_ft_from_checkpoint(tmp_path, capsys):
    base = train_once(tmp_path, capsys, "base")
    code, out, err = run(
        ["train", *TASK, "--schedule", "bon-ft", "--steps", "10", "--batch", "8",
         "--seed", "8", "--init", str(base / "checkpoint.bin"),
         "--out", str(tmp_path / "ft")],
        capsys,
    )
    assert code == 0, err
    assert "steps=50" in out


def test_non_finite_parameter_exits_3(tmp_path, capsys):
    base = train_once(tmp_path, capsys, "base")
    state, meta = ckpt.load(base / "checkpoint.bin")
    state.model.params["w_out"][0, 0] = float("nan")
    ckpt.save(tmp_path / "nan.bin", state, seed=meta["seed"])
    code, out, err = run(
        ["train", *TASK, "--steps", "5", "--batch", "8", "--seed", "8",
         "--init", str(tmp_path / "nan.bin"), "--out", str(tmp_path / "ft")],
        capsys,
    )
    assert code == 3 and out == ""
    assert re.fullmatch(r"error: non-finite loss at step 40, sentence \d+\n", err)
    assert not (tmp_path / "ft").exists()


def no_training(*_, **__):
    raise AssertionError("training ran")


def no_decoding(*_, **__):
    raise AssertionError("decoding ran")


@pytest.mark.parametrize("flags, message", [
    (["--dim", "0"], "--dim must be at least 1, got 0"),
    (["--hidden", "0"], "--hidden must be at least 1, got 0"),
    (["--p-max", "0"], "--p-max must be at least 1, got 0"),
    (["--dl-max", "-1"], "--dl-max must be at least 0, got -1"),
    (["--ft-steps", "-1"], "--ft-steps must be at least 0, got -1"),
    (["--steps", "0"], "--steps must be at least 1, got 0"),
    (["--batch", "0"], "--batch must be at least 1, got 0"),
    (["--lr", "-1"], "--lr must be finite and positive, got -1.0"),
    (["--lr", "0"], "--lr must be finite and positive, got 0.0"),
    (["--lr", "nan"], "--lr must be finite and positive, got nan"),
    (["--lr", "inf"], "--lr must be finite and positive, got inf"),
    (["--alpha", "1.5"], "--alpha must be in [0, 1], got 1.5"),
    (["--alpha", "-0.5"], "--alpha must be in [0, 1], got -0.5"),
    (["--n", "5"], "--n must be in 1..4, got 5"),
    (["--n", "0"], "--n must be in 1..4, got 0"),
])
def test_train_flags_exit_2_before_training(flags, message, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(cli, "_load_corpus", no_training)
    code, out, err = run(
        ["train", *TASK, *flags, "--out", str(tmp_path / "run")], capsys
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_train_target_past_p_max_exits_2_before_training(tmp_path, capsys):
    spec = corpus.SyntheticTaskSpec("copy", 12, 2, 33, 120, seed=0)
    assert max(len(p.target) for p in corpus.generate_task(spec)) == 33
    # one step's batch need not draw the long target: the corpus is checked
    code, out, err = run(
        ["train", *TASK, "--max-len", "33", "--steps", "1",
         "--out", str(tmp_path / "run")], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: target length 33 exceeds position capacity 32\n"
    assert not (tmp_path / "run").exists()


def test_eval_outputs(tmp_path, capsys):
    run_dir = train_once(tmp_path, capsys, "run")
    code, out, err = run(
        ["eval", *TASK, "--seed", "7", "--ckpt", str(run_dir / "checkpoint.bin"),
         "--buckets", "4,8,12", "--out", str(tmp_path / "ev")],
        capsys,
    )
    assert code == 0, err
    assert "bleu=" in out and "removed_pct=" in out
    with (tmp_path / "ev" / "length_bucket.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 3 edges + overflow
    assert (tmp_path / "ev" / "removed_tokens.csv").exists()
    assert (tmp_path / "ev" / "eval_meta.json").exists()


@pytest.mark.parametrize("buckets", ["6,6", "0,4", "-3", "6,x"])
def test_eval_bad_buckets_exit_2_before_decoding(
    buckets, tmp_path, capsys, monkeypatch
):
    run_dir = train_once(tmp_path, capsys, "run")

    def no_decoding(*args):
        raise AssertionError("decoded before the --buckets check")

    monkeypatch.setattr("bonnat.evaluate._decode_corpus", no_decoding)
    code, out, err = run(
        ["eval", *TASK, "--ckpt", str(run_dir / "checkpoint.bin"),
         "--buckets", buckets, "--out", str(tmp_path / "ev")],
        capsys,
    )
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: --buckets [^\n]*\n", err)
    assert not (tmp_path / "ev").exists()


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["eval", *TASK, "--ckpt", str(tmp_path / "nope.bin"),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "missing checkpoint" in err


def truncated(run_dir, path):
    path.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:20])


def cut_inside_a_block(run_dir, path):
    path.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:-8])


def missing_a_block(run_dir, path):
    state, header = ckpt.load(run_dir / "checkpoint.bin")
    del state.lp.params["lp_b"]
    ckpt.save(path, state, seed=header["seed"])


def reshaped(name, shape):
    def damage(run_dir, path):
        state, header = ckpt.load(run_dir / "checkpoint.bin")
        params = state.lp.params if name in state.lp.params else state.model.params
        params[name] = params[name].reshape(shape)
        ckpt.save(path, state, seed=header["seed"])
    return damage


def last_block_ndim_zero(run_dir, path):
    data = bytearray((run_dir / "checkpoint.bin").read_bytes())
    lp_b = ckpt.load(run_dir / "checkpoint.bin")[0].lp.params["lp_b"]
    # the last block, lp_b, ends in its ndim byte, one shape int and its data
    at = len(data) - lp_b.nbytes - 4 - 1
    assert data[at] == 1
    data[at] = 0
    path.write_bytes(data)


def last_block_negative_dim(run_dir, path):
    data = bytearray((run_dir / "checkpoint.bin").read_bytes())
    lp_b = ckpt.load(run_dir / "checkpoint.bin")[0].lp.params["lp_b"]
    # the last block, lp_b, ends in its one shape int and its data
    at = len(data) - lp_b.nbytes - 4
    struct.pack_into("<i", data, at, -struct.unpack_from("<i", data, at)[0])
    path.write_bytes(data)


def trailing_bytes(run_dir, path):
    path.write_bytes((run_dir / "checkpoint.bin").read_bytes() + bytes(64))


def header_d_zero(run_dir, path):
    data = bytearray((run_dir / "checkpoint.bin").read_bytes())
    # magic, then the header's version, V and d
    at = len(ckpt.MAGIC) + 4 + 4
    assert struct.unpack_from("<i", data, at)[0] > 0
    struct.pack_into("<i", data, at, 0)
    path.write_bytes(data)


def extra_block(run_dir, path):
    state, header = ckpt.load(run_dir / "checkpoint.bin")
    state.lp.params["foo"] = state.lp.params["lp_b"]
    ckpt.save(path, state, seed=header["seed"])


def lp_b_twice(run_dir, path):
    data = bytearray((run_dir / "checkpoint.bin").read_bytes())
    lp_b = ckpt.load(run_dir / "checkpoint.bin")[0].lp.params["lp_b"]
    # the last block: name length, name, ndim, one shape int and its data
    data += data[-(2 + 4 + 1 + 4 + lp_b.nbytes):]
    # magic, header, then the block count
    at = len(ckpt.MAGIC) + ckpt._HEADER.size
    struct.pack_into("<I", data, at, struct.unpack_from("<I", data, at)[0] + 1)
    path.write_bytes(data)


def renamed(name, new):
    """Save the model's blocks in their order, block `name` as `new`."""
    def damage(run_dir, path):
        state, header = ckpt.load(run_dir / "checkpoint.bin")
        params = state.model.params
        state.model.params = {new if k == name else k: params[k] for k in params}
        ckpt.save(path, state, seed=header["seed"])
    return damage


def last_block_named_lp_w(run_dir, path):
    data = bytearray((run_dir / "checkpoint.bin").read_bytes())
    lp_b = ckpt.load(run_dir / "checkpoint.bin")[0].lp.params["lp_b"]
    # the last block, lp_b, ends in its name, ndim, one shape int and its data
    at = len(data) - lp_b.nbytes - 4 - 1 - 4
    assert data[at : at + 4] == b"lp_b"
    data[at : at + 4] = b"lp_w"
    path.write_bytes(data)


def swapped(a, b):
    """Save blocks a and b each in the other's place."""
    def damage(run_dir, path):
        state, header = ckpt.load(run_dir / "checkpoint.bin")
        params = state.model.params
        order = [b if k == a else a if k == b else k for k in params]
        state.model.params = {k: params[k] for k in order}
        ckpt.save(path, state, seed=header["seed"])
    return damage


def first_block_name_0xff(run_dir, path):
    data = bytearray((run_dir / "checkpoint.bin").read_bytes())
    # magic, header, block count, then the first block's name length
    at = len(ckpt.MAGIC) + ckpt._HEADER.size + 4 + 2
    data[at] = 0xFF
    path.write_bytes(data)


@pytest.mark.parametrize("damage, kind, detail", [
    (truncated, "truncated", ""),
    (cut_inside_a_block, "truncated", "block 'lp_b' runs past the end of the data"),
    (missing_a_block, "incomplete", "no block lp_b"),
    (reshaped("lp_b", (17, 1)), "mis-shaped",
     "block lp_b has shape (17, 1), the header dims give (17,)"),
    (reshaped("b_out", (1, 12)), "mis-shaped",
     "block b_out has shape (1, 12), the header dims give (12,)"),
    (last_block_ndim_zero, "mis-shaped", "block lp_b has shape (), "),
    (last_block_negative_dim, "malformed", "block 'lp_b' has shape (-17,)"),
    (trailing_bytes, "malformed", "64 bytes after the last block"),
    (header_d_zero, "malformed", "header d must be at least 1, got 0"),
    (first_block_name_0xff, "malformed",
     "the name of block 0 is not UTF-8 ('utf-8' codec can't decode byte 0xff"),
    (extra_block, "malformed",
     "block 10 is 'foo', past the 10 blocks that the header dims give\n"),
    (lp_b_twice, "malformed",
     "block 10 is 'lp_b', past the 10 blocks that the header dims give\n"),
    (renamed("w2", "foo"), "malformed",
     "block 4 is 'foo', where the save order has 'w2'\n"),
    (last_block_named_lp_w, "malformed",
     "block 9 is 'lp_w', where the save order has 'lp_b'\n"),
    (swapped("w1", "b1"), "malformed",
     "block 2 is 'b1', where the save order has 'w1'\n"),
], ids=["truncated", "cut-inside-a-block", "missing-block", "lp_b-17x1",
        "b_out-1xV", "ndim-0", "negative-dim", "trailing-bytes", "header-d-0",
        "name-0xff", "extra-block", "lp_b-twice", "unknown-block",
        "repeated-block", "out-of-order"])
def test_eval_broken_checkpoint_exits_2(tmp_path, capsys, damage, kind, detail):
    broken = tmp_path / "broken.bin"
    damage(train_once(tmp_path, capsys, "run"), broken)
    code, out, err = run(
        ["eval", *TASK, "--ckpt", str(broken), "--out", str(tmp_path / "ev")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {kind} checkpoint {broken}: {detail}")
    assert err.count("\n") == 1
    assert not (tmp_path / "ev").exists()


NO_CORPUS = "need either --task or --src/--tgt/--vocab-file"


@pytest.mark.parametrize("argv, message", [
    (["train", *TASK, "--config", "missing.ini"], "config file not found: missing.ini"),
    (["train", "--src", "src.txt"], "file corpus needs --src, --tgt and --vocab-file"),
    (["train"], NO_CORPUS),
    (["eval", "--ckpt", "x.bin"], NO_CORPUS),
    (["correlate", "--ckpt", "x.bin"], NO_CORPUS),
    (["gen-data"], "gen-data needs --task"),
], ids=["missing-config", "src-alone", "train-no-corpus", "eval-no-corpus",
        "correlate-no-corpus", "gen-data-no-task"])
def test_usage_errors_exit_2_with_one_line(argv, message, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run([*argv, "--out", "out"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_eval_rerun_bit_identical(tmp_path, capsys):
    run_dir = train_once(tmp_path, capsys, "run")
    args = ["eval", *TASK, "--seed", "7", "--ckpt",
            str(run_dir / "checkpoint.bin"), "--out"]
    assert run([*args, str(tmp_path / "e1")], capsys)[0] == 0
    assert run([*args, str(tmp_path / "e2")], capsys)[0] == 0
    for name in ("length_bucket.csv", "removed_tokens.csv"):
        assert sha(tmp_path / "e1" / name) == sha(tmp_path / "e2" / name)


def test_correlate_row_counts(tmp_path, capsys):
    run_dir = train_once(tmp_path, capsys, "run")
    base = ["correlate", *TASK, "--seed", "7",
            "--ckpt", str(run_dir / "checkpoint.bin"),
            "--subsets", "4", "--subset-size", "10"]
    code, _, err = run([*base, "--out", str(tmp_path / "c1")], capsys)
    assert code == 0, err
    with (tmp_path / "c1" / "correlation.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # ce + bon n=1..4
    code, _, err = run(
        [*base, "--split-length", "--out", str(tmp_path / "c2")], capsys
    )
    assert code == 0, err
    with (tmp_path / "c2" / "correlation.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # each loss x {short, long}
    assert {r["scope"] for r in rows} == {"short", "long"}


def test_correlate_insufficient_corpus_exits_2(tmp_path, capsys):
    run_dir = train_once(tmp_path, capsys, "run")
    code, _, err = run(
        ["correlate", *TASK, "--ckpt", str(run_dir / "checkpoint.bin"),
         "--subsets", "100", "--subset-size", "100", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "too small" in err


@pytest.mark.parametrize("flags, message", [
    (["--subsets", "1"], "--subsets must be at least 2, got 1"),
    (["--subsets", "0"], "--subsets must be at least 2, got 0"),
    (["--subsets", "3", "--split-length"],
     "--subsets must be at least 4 with --split-length, got 3"),
    (["--subset-size", "0"], "--subset-size must be at least 1, got 0"),
])
def test_correlate_subset_flags_exit_2_before_reading(flags, message, tmp_path,
                                                      capsys):
    # the checkpoint does not exist: the flags are checked first
    code, out, err = run(
        ["correlate", *TASK, "--ckpt", str(tmp_path / "nope.bin"), *flags,
         "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_correlate_target_past_p_max_exits_2_before_decoding(
    tmp_path, capsys, monkeypatch
):
    run_dir = train_once(tmp_path, capsys, "run",
                         ["--max-len", "4", "--p-max", "4"])
    monkeypatch.setattr(evaluate, "decode", no_decoding)
    # TASK's targets run to 6 tokens, past the checkpoint's 4 positions
    code, out, err = run(
        ["correlate", *TASK, "--ckpt", str(run_dir / "checkpoint.bin"),
         "--subsets", "4", "--subset-size", "10", "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == "error: target length 6 exceeds position capacity 4\n"
    assert not (tmp_path / "c" / "correlation.csv").exists()


@pytest.mark.parametrize("command, extra", [
    ("eval", []),
    ("correlate", ["--subsets", "4", "--subset-size", "10"]),
])
def test_sidecar_digest_is_of_the_loaded_bytes(command, extra, tmp_path, capsys,
                                               monkeypatch):
    path = train_once(tmp_path, capsys, "run") / "checkpoint.bin"
    loaded = sha(path)
    load = ckpt.load

    def load_then_replace(p):
        got = load(p)
        Path(p).write_bytes(b"replaced after loading")
        return got

    monkeypatch.setattr(ckpt, "load", load_then_replace)
    code, _, err = run(
        [command, *TASK, "--ckpt", str(path), *extra, "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 0, err
    meta = json.loads((tmp_path / "o" / f"{command}_meta.json").read_text())
    assert sha(path) != loaded
    assert meta["checkpoint_sha256"] == loaded


def test_correlate_rerun_identical(tmp_path, capsys):
    run_dir = train_once(tmp_path, capsys, "run")
    args = ["correlate", *TASK, "--seed", "7",
            "--ckpt", str(run_dir / "checkpoint.bin"),
            "--subsets", "3", "--subset-size", "10", "--out"]
    assert run([*args, str(tmp_path / "c1")], capsys)[0] == 0
    assert run([*args, str(tmp_path / "c2")], capsys)[0] == 0
    assert sha(tmp_path / "c1" / "correlation.csv") == sha(
        tmp_path / "c2" / "correlation.csv"
    )


def test_oracle_check_passes(capsys):
    code, out, _ = run(
        ["oracle-check", "--vocab", "3", "--len", "5", "--n", "2",
         "--trials", "20"],
        capsys,
    )
    assert code == 0
    assert "max_deviation" in out


def test_oracle_check_unigram(capsys):
    code, _, _ = run(
        ["oracle-check", "--vocab", "3", "--len", "4", "--n", "1",
         "--trials", "5"],
        capsys,
    )
    assert code == 0


def test_oracle_check_guard_exits_2(capsys):
    code, _, err = run(["oracle-check", "--vocab", "6", "--len", "12"], capsys)
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize("loss", ["ce", "bon", "joint"])
def test_gradcheck_passes(loss, capsys):
    code, out, _ = run(
        ["gradcheck", "--loss", loss, "--trials", "5", "--seed", "1"], capsys
    )
    assert code == 0
    assert "worst_rel_err" in out


def no_trials(*_):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("argv, flag", [
    (["oracle-check", "--len", "0"], "--len"),
    (["oracle-check", "--n", "9"], "--n 9 exceeds --len 5\n"),
    (["oracle-check", "--n", "0"], "--n"),
    (["oracle-check", "--vocab", "0"], "--vocab"),
    (["oracle-check", "--trials", "0"], "--trials"),
    (["gradcheck", "--len", "1", "--n", "2", "--vocab", "2"], "--n 2 exceeds --len 1\n"),
    (["gradcheck", "--trials", "0"], "--trials"),
    (["gradcheck", "--len", "0"], "--len"),
    (["gradcheck", "--loss", "ce", "--len", "0"], "--len"),
    (["gradcheck", "--loss", "joint", "--vocab", "1"], "--vocab"),
    (["gradcheck", "--loss", "joint", "--alpha", "2"],
     "--alpha must be in [0, 1], got 2.0\n"),
    (["gradcheck", "--loss", "joint", "--n", "5", "--len", "6"],
     "--n must be in 1..4, got 5\n"),
])
def test_verification_sizes_exit_2_before_any_trial(argv, flag, capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_table", no_trials)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1


@pytest.mark.parametrize("loss", ["bon", "joint"])
def test_gradcheck_one_column_returns(loss):
    # one column makes every reference gram a tie: resampling never ends
    env = {**os.environ, "PYTHONPATH": str(Path(bonnat.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bonnat.cli", "gradcheck", "--vocab", "1",
         "--loss", loss],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --vocab must be at least 2, got 1\n"


def test_gradcheck_model_check_reference_holds_an_ngram(capsys, monkeypatch):
    # at n = 5 the parameter-level check runs at T = 5, not T = 3, where
    # the BoN loss and its gradient would be zero
    lengths = []
    forward = NatModel._forward_cache

    def spy(self, source, T):
        lengths.append(T)
        return forward(self, source, T)

    monkeypatch.setattr(NatModel, "_forward_cache", spy)
    code, out, _ = run(
        ["gradcheck", "--n", "5", "--len", "5", "--vocab", "2", "--trials", "1"],
        capsys,
    )
    assert code == 0 and "status=ok" in out
    assert set(lengths) == {5}


@pytest.mark.parametrize("command", ["oracle-check", "gradcheck"])
def test_verification_commands_have_no_out_flag(command, capsys):
    code, out, err = run([command, "--out", "x"], capsys)
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --out x\n"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[common]\nseed=7\n\n[train]\ntask=copy\nvocab=12\nmin-len=2\n"
        "max-len=6\npairs=120\nsteps=40\nbatch=8\n"
    )
    code, _, err = run(
        ["train", "--config", str(cfg), "--out", str(tmp_path / "r1")], capsys
    )
    assert code == 0, err
    # identical to the all-flags run
    flags = train_once(tmp_path, capsys, "r2")
    assert sha(tmp_path / "r1" / "checkpoint.bin") == sha(flags / "checkpoint.bin")
    # an explicit flag beats the file value
    code, out, err = run(
        ["train", "--config", str(cfg), "--steps", "10",
         "--out", str(tmp_path / "r3")],
        capsys,
    )
    assert code == 0, err
    assert "steps=10" in out


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nbogus-key=1\n")
    code, _, err = run(["train", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_common_config_keys_apply_where_the_command_has_the_flag(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[common]\nseed=7\ntask=copy\nvocab=12\nmin-len=2\nmax-len=6\n"
        "pairs=120\n\n[train]\nsteps=40\nbatch=8\n"
    )
    code, _, err = run(
        ["train", "--config", str(cfg), "--out", str(tmp_path / "r1")], capsys
    )
    assert code == 0, err
    flags = train_once(tmp_path, capsys, "r2")
    assert sha(tmp_path / "r1" / "checkpoint.bin") == sha(flags / "checkpoint.bin")
    # gradcheck has --seed and --vocab but no --task: the rest is skipped
    code, out, err = run(
        ["gradcheck", "--config", str(cfg), "--trials", "2"], capsys
    )
    assert code == 0, err
    code, out2, _ = run(
        ["gradcheck", "--seed", "7", "--vocab", "12", "--trials", "2"], capsys
    )
    assert out == out2


def test_unknown_common_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[common]\nbogus-key=1\n")
    code, _, err = run(["gradcheck", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("command, text, message", [
    ("gradcheck", "[gradcheck]\nloss = foo\n", "argument --loss: invalid choice: 'foo'"),
    ("train", "[train]\nvocab = abc\n", "argument --vocab: invalid int value: 'abc'"),
])
def test_config_value_the_flag_rejects_exits_2(command, text, message, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {message}")


def test_config_keys_are_the_long_flag_names(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[oracle-check]\nlen = 4\nn = 3\ntrials = 3\n")
    code, out, err = run(["oracle-check", "--config", str(cfg)], capsys)
    assert code == 0, err
    assert out == run(["oracle-check", "--len", "4", "--n", "3", "--trials", "3"],
                      capsys)[1]
    # the dest behind --len, and --config itself, are not keys
    for key in ("length = 4", "config = other.ini"):
        cfg.write_text(f"[oracle-check]\n{key}\n")
        code, _, err = run(["oracle-check", "--config", str(cfg)], capsys)
        assert code == 2 and "unknown config keys" in err


def test_config_switch_takes_configparser_booleans(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[correlate]\nsplit-length = maybe\n")
    code, out, err = run(
        ["correlate", "--config", str(cfg), "--ckpt", "x.bin", *TASK], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: --split-length: config value 'maybe' is not a boolean\n"
    run_dir = train_once(tmp_path, capsys, "run")
    base = ["correlate", "--ckpt", str(run_dir / "checkpoint.bin"), *TASK,
            "--subsets", "4", "--subset-size", "10"]
    assert run([*base, "--split-length", "--out", str(tmp_path / "c1")], capsys)[0] == 0
    # a [correlate] value overrides the [common] one
    for name, common, own in (("c2", "off", "on"), ("c3", "on", "no")):
        cfg.write_text(
            f"[common]\nsplit-length = {common}\n[correlate]\nsplit-length = {own}\n"
        )
        code, _, err = run([*base, "--config", str(cfg), "--out", str(tmp_path / name)],
                           capsys)
        assert code == 0, err
    c1, c2, c3 = (
        (tmp_path / name / "correlation.csv").read_text() for name in ("c1", "c2", "c3")
    )
    assert c2 == c1 and c3 != c1
    assert "short" in c1 and "short" not in c3


REQUIRED = {"eval": ["--ckpt", "x.bin"], "correlate": ["--ckpt", "x.bin"]}


@pytest.mark.parametrize(
    "command", ["gen-data", "train", "eval", "correlate", "oracle-check", "gradcheck"]
)
def test_threads_flag_rejected(command, capsys):
    code, out, err = run([command, *REQUIRED.get(command, []), "--threads", "64"],
                         capsys)
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --threads 64\n"


def test_argparse_errors_are_one_line_and_help_exits_0(capsys):
    code, out, err = run([], capsys)
    assert code == 2 and out == ""
    assert err == "error: the following arguments are required: command\n"
    code, _, err = run(["train", "--vocab", "abc"], capsys)
    assert code == 2
    assert err == "error: argument --vocab: invalid int value: 'abc'\n"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--schedule" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gen-data", "--task", "copy", "--vocab", "12", "--seed", "3", "--out", "o"],
    ["train", *TASK, "--dim", "6", "--schedule", "bon-joint", "--alpha", "0.2",
     "--init", "c.bin", "--out", "o"],
    ["eval", *TASK, "--ckpt", "c.bin", "--buckets", "3,5"],
    ["correlate", *TASK, "--ckpt", "c.bin", "--subsets", "4", "--split-length"],
    ["oracle-check", "--len", "4", "--n", "3"],
    ["gradcheck", "--loss", "joint", "--alpha", "0.3", "--n", "3"],
], ids=lambda argv: argv[0])
def test_main_parses_a_command_as_the_full_parser_does(argv, monkeypatch):
    # main fills in only the invoked command's arguments
    seen = []
    help_, add_args, _ = cli.COMMANDS[argv[0]]
    monkeypatch.setitem(cli.COMMANDS, argv[0],
                        (help_, add_args, lambda args: seen.append(args) or 0))
    assert main(argv) == 0
    assert seen == [cli.build_parser()[0].parse_args(argv)]


def full_parser_error(argv):
    with pytest.raises(cli.UsageError) as exc:
        cli.build_parser()[0].parse_args(argv)
    return f"error: {exc.value}\n"


@pytest.mark.parametrize("argv", [[], ["bogus"], ["train", "--bogus"]])
def test_parse_errors_are_the_full_parsers(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == full_parser_error(argv)
    assert err.count("\n") == 1


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == cli.build_parser()[0].format_help()
    for name, (help_, _, _) in cli.COMMANDS.items():
        assert re.search(rf"^ +{name} +{re.escape(help_)}$", out, re.M)
    assert len(cli.COMMANDS) == 6


def test_gen_data_rejects_file_flags_and_writes_the_task(tmp_path, capsys):
    (tmp_path / "s.txt").write_text("a b\n")
    (tmp_path / "v.txt").write_text("<pad>\n<unk>\na\nb\n")
    code, out, err = run(
        ["gen-data", "--task", "copy", "--src", str(tmp_path / "s.txt"),
         "--tgt", str(tmp_path / "s.txt"),
         "--vocab-file", str(tmp_path / "v.txt"), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == (f"error: unrecognized arguments: --src {tmp_path / 's.txt'} "
                   f"--tgt {tmp_path / 's.txt'} --vocab-file {tmp_path / 'v.txt'}\n")
    assert not (tmp_path / "src.txt").exists()
    out = tmp_path / "data"
    assert run(["gen-data", *TASK, "--seed", "5", "--out", str(out)], capsys)[0] == 0
    # the written files read back as the generated task
    vocab = corpus.Vocabulary.load(out / "vocab.txt")
    read = [
        (corpus.encode(s, vocab), corpus.encode(t, vocab))
        for s, t in corpus.read_parallel(out / "src.txt", out / "tgt.txt")
    ]
    spec = corpus.SyntheticTaskSpec("copy", 12, 2, 6, 120, seed=5)
    assert read == [tuple(p) for p in corpus.generate_task(spec)]


@pytest.mark.parametrize("flags, message", [
    (["--vocab", "1000000000000"], "vocab size"),
    (["--min-len", "1", "--max-len", str(2**32 + 1)], "length range"),
    (["--pairs", "0"], "sample count must be positive"),
    (["--noise", "1.0"], "target noise must be in [0, 1)"),
])
def test_gen_data_range_past_32_bits_exits_2(flags, message, tmp_path, capsys):
    # the row's flags come last, so that its --pairs wins
    code, _, err = run(["gen-data", "--task", "copy", "--pairs", "2", *flags,
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")
    assert not (tmp_path / "src.txt").exists()


@pytest.mark.parametrize("command", ["train", "eval", "correlate"])
def test_checkpoint_with_smaller_vocabulary_exits_2(command, tmp_path, capsys):
    small = ["--task", "copy", "--vocab", "6", "--min-len", "2", "--max-len", "6",
             "--pairs", "40"]
    code, _, err = run(
        ["train", *small, "--steps", "5", "--out", str(tmp_path / "v6")], capsys
    )
    assert code == 0, err
    ckpt_flag = "--init" if command == "train" else "--ckpt"
    code, out, err = run(
        [command, *TASK, ckpt_flag, str(tmp_path / "v6" / "checkpoint.bin"),
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: corpus vocabulary of 12") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def write_file_corpus(tmp_path, src, tgt):
    (tmp_path / "src.txt").write_text(src)
    (tmp_path / "tgt.txt").write_text(tgt)
    (tmp_path / "vocab.txt").write_text("<pad>\n<unk>\na\nb\nc\n")
    return ["--src", str(tmp_path / "src.txt"), "--tgt", str(tmp_path / "tgt.txt"),
            "--vocab-file", str(tmp_path / "vocab.txt")]


def test_file_corpus_pairs_lines_by_number(tmp_path, capsys):
    # line 2 is blank on both sides and is skipped
    files = write_file_corpus(tmp_path, "a b\n\nb c\nc a\n", "b a\n\nc b\na c\n")
    code, out, err = run(
        ["train", *files, "--steps", "3", "--batch", "2", "--out", str(tmp_path / "r")],
        capsys,
    )
    assert code == 0, err
    assert "steps=3" in out


def test_file_corpus_blank_line_on_one_side_exits_2(tmp_path, capsys):
    # same line count, blank lines at different positions
    files = write_file_corpus(tmp_path, "a b\n\nb c\nc a\n", "b a\nc b\n\na c\n")
    code, out, err = run(
        ["train", *files, "--steps", "3", "--out", str(tmp_path / "r")], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2 of ") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("vocab, message", [
    ("a\nb\n", "not a vocabulary file: {path}"),
    ("<pad>\n<unk>\na\nb\na\n", "duplicate token in vocabulary"),
], ids=["not-a-vocabulary", "duplicate-token"])
def test_file_corpus_bad_vocabulary_exits_2(vocab, message, tmp_path, capsys):
    files = write_file_corpus(tmp_path, "a b\n", "b a\n")
    (tmp_path / "vocab.txt").write_text(vocab)
    code, out, err = run(
        ["train", *files, "--steps", "3", "--out", str(tmp_path / "r")], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(path=tmp_path / 'vocab.txt')}\n"
    assert not (tmp_path / "r").exists()
