"""Vocabulary handling, corpus file I/O and synthetic parallel tasks."""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

PAD = 0
UNK = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class CorpusError(ValueError):
    pass


class Vocabulary:
    """Closed token vocabulary with contiguous ids and reserved PAD/UNK."""

    def __init__(self, tokens: Iterable[str]):
        self.tokens = [PAD_TOKEN, UNK_TOKEN] + [t for t in tokens]
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise CorpusError("duplicate token in vocabulary")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.index.get(token, UNK)

    def token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def save(self, path: str | Path) -> None:
        # one token per line, line number = id
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if len(lines) < 2 or lines[0] != PAD_TOKEN or lines[1] != UNK_TOKEN:
            raise CorpusError(f"not a vocabulary file: {path}")
        return cls(lines[2:])


class ParallelPair(NamedTuple):
    source: tuple[int, ...]
    target: tuple[int, ...]


def build_vocab(lines: Sequence[Sequence[str]], max_size: int) -> Vocabulary:
    """Keep the most frequent tokens, ties broken by first occurrence."""
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    for line in lines:
        for tok in line:
            counts[tok] += 1
            first_seen.setdefault(tok, len(first_seen))
    if not counts:
        raise CorpusError("empty corpus")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocabulary(ranked[: max(0, max_size - 2)])


def encode(line: Sequence[str], vocab: Vocabulary) -> tuple[int, ...]:
    return tuple(vocab.id(tok) for tok in line)


def decode_tokens(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    return [vocab.token(i) for i in ids]


def read_corpus(path: str | Path) -> list[list[str]]:
    """One sentence per line, tokens separated by single spaces; a blank
    line is an empty sentence, so list index = line number - 1."""
    return [
        line.strip().split(" ") if line.strip() else []
        for line in Path(path).read_text(encoding="utf-8").splitlines()
    ]


def read_parallel(src: str | Path, tgt: str | Path) -> list[tuple[list[str], ...]]:
    """Source and target sentences paired by line number. Lines blank on
    both sides are skipped; a line blank on one side only is an error."""
    lines = itertools.zip_longest(read_corpus(src), read_corpus(tgt), fillvalue=[])
    pairs = list(lines)
    for i, (s, t) in enumerate(pairs, start=1):
        if bool(s) != bool(t):
            raise CorpusError(
                f"line {i} of {tgt if s else src} is blank or missing "
                "but is not in the other file"
            )
    return [(s, t) for s, t in pairs if s]


def write_corpus(lines: Iterable[Sequence[str]], path: str | Path) -> None:
    Path(path).write_text(
        "".join(" ".join(line) + "\n" for line in lines), encoding="utf-8"
    )


TASK_KINDS = ("copy", "reverse", "dict")


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str
    vocab_size: int
    min_len: int
    max_len: int
    pairs: int
    seed: int
    target_noise: float = 0.0

    def validate(self) -> None:
        if self.kind not in TASK_KINDS:
            raise CorpusError(f"unknown task kind: {self.kind!r}")
        if self.vocab_size < 4:
            raise CorpusError("vocab size must be at least 4")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise CorpusError("invalid length range")
        if self.pairs < 1:
            raise CorpusError("sample count must be positive")
        if not 0.0 <= self.target_noise < 1.0:
            raise CorpusError("target noise must be in [0, 1)")


def task_vocabulary(spec: SyntheticTaskSpec) -> Vocabulary:
    return Vocabulary(f"w{i}" for i in range(spec.vocab_size - 2))


def generate_task(spec: SyntheticTaskSpec) -> list[ParallelPair]:
    """Deterministic synthetic parallel corpus for the given seed.

    Sources never contain adjacent duplicate tokens, so repeated-token
    postprocessing is lossless on references.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    lo, hi = 2, spec.vocab_size  # non-reserved ids
    subst = np.arange(lo, hi)
    if spec.kind == "dict":
        subst = rng.permutation(subst)
    pairs = []
    for _ in range(spec.pairs):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = [int(rng.integers(lo, hi))]
        # one call draws the same stream as one call per token: PCG64
        # buffers the 32-bit draws that these small ranges use
        for nxt in rng.integers(lo, hi - 1, size=length - 1).tolist():
            src.append(nxt + (nxt >= src[-1]))
        if spec.kind == "copy":
            tgt = src
        elif spec.kind == "reverse":
            tgt = src[::-1]
        else:
            tgt = subst[np.array(src) - lo].tolist()
        if spec.target_noise > 0.0:
            noise_mask = rng.random(length) < spec.target_noise
            noise_ids = rng.integers(lo, hi, size=length)
            tgt = np.where(noise_mask, noise_ids, tgt).tolist()
        pairs.append(ParallelPair(tuple(src), tuple(tgt)))
    return pairs
