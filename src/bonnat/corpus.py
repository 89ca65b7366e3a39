"""Vocabulary handling, corpus file I/O and synthetic parallel tasks."""
from __future__ import annotations

import itertools
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
# raw PCG64 words drawn per block; each table that a block derives from
# them has one entry per 32-bit half, about 32 KiB
BLOCK_WORDS = 2048
# numpy draws from a range of more than 2^32 values with 64-bit words,
# which generate_task does not reproduce
MAX_RANGE = 2**32


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str
    vocab_size: int
    min_len: int
    max_len: int
    pairs: int
    seed: int
    target_noise: float = 0.0

    def __post_init__(self) -> None:
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
        if self.vocab_size - 2 > MAX_RANGE:
            raise CorpusError(f"vocab size must be at most {MAX_RANGE + 2}")
        if self.max_len - self.min_len + 1 > MAX_RANGE:
            raise CorpusError(f"length range must span at most {MAX_RANGE} values")


def task_vocabulary(spec: SyntheticTaskSpec) -> Vocabulary:
    return Vocabulary(f"w{i}" for i in range(spec.vocab_size - 2))


class _Bounded:
    """numpy's bounded 32-bit draw over `r` values, made from any position
    of a block of 32-bit halves: draw x gives (x*r) >> 32 and is redrawn
    from the next half when (x*r) mod 2^32 < 2^32 mod r."""

    def __init__(self, halves: np.ndarray, r: int):
        self.halves, self.r = halves, r
        ok = (halves.astype(np.uint64) * r & 0xFFFFFFFF) >= 2**32 % r
        # mostly every draw is accepted and draws are consecutive halves;
        # else at[i] is the i-th accepted position (len(halves): past the
        # block) and rank[p] counts the accepted positions before p
        self.at = self.rank = None
        if not ok.all():
            self.at = np.append(np.flatnonzero(ok), len(halves))
            self.rank = np.concatenate(([0], np.cumsum(ok)))

    def end(self, p, c):
        """The position after c draws made from position p: past
        len(halves) when they do not fit in the block."""
        if self.at is None:
            return p + c
        last = self.at.take(self.rank.take(p, mode="clip") + c - 1, mode="clip")
        return np.where(c > 0, last + 1, p)

    def value(self, pos):
        x = self.halves.take(pos, mode="clip").astype(np.uint64)
        return (x * self.r >> 32).astype(np.int64)


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw words, each word's low half first."""
    return words.astype("<u8", copy=False).view("<u4")


def _stream_start(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Words that precede the next raw word, and the position of the next
    32-bit draw in their halves. A half that PCG64 still holds sits in a
    word of its own whose low half counts as spent."""
    state = rng.bit_generator.state
    m = int(state["has_uint32"])
    return np.array([state["uinteger"] << 32] * m, dtype=np.uint64), m


class _Block:
    """For a pair that starts at each position p of a block's halves: its
    length, where its draws lie and where the next pair starts. halves[p]
    of an odd p is the half that PCG64 holds."""

    def __init__(self, spec: SyntheticTaskSpec, words: np.ndarray):
        self.spec, self.words = spec, words
        halves = _halves(words)
        ids = spec.vocab_size - 2
        self.first, self.rest = _Bounded(halves, ids), _Bounded(halves, ids - 1)
        p = np.arange(len(halves) + 1)
        self.length = np.full(len(p), spec.min_len)
        if spec.max_len > spec.min_len:
            length = _Bounded(halves, spec.max_len - spec.min_len + 1)
            p = length.end(p, 1)
            self.length += length.value(p - 1)
        self.first_at = self.first.end(p, 1) - 1
        p = self.first_at + 1
        if ids > 2:
            p = self.rest.end(p, self.length - 1)
        if spec.target_noise > 0.0:
            # random() reads whole words from the next one on. The noise ids
            # follow them, except that the first one is the held half if
            # there is one and it is accepted (`held`).
            self.word = (p + 1) // 2
            self.held = (p % 2 == 1) & (self.first.end(p, 1) == p + 1)
            self.ids_at = 2 * (self.word + self.length)
            p = self.first.end(self.ids_at, self.length - self.held)
        # -1: the pair runs past the block
        self.next_start = np.where(p <= len(halves), p, -1)

    def pairs(self, starts: np.ndarray, subst: np.ndarray | None) -> list[ParallelPair]:
        """The pairs that start at `starts`, one array step per token
        position across the block. Past a pair's length the positions are
        clipped and the values unused."""
        spec, lo = self.spec, 2
        n = self.length[starts]
        t = np.arange(n.max())
        first_at = self.first_at[starts, None]
        draws = np.empty((len(n), len(t)), dtype=np.int64)
        draws[:, :1] = self.first.value(first_at)
        draws[:, 1:] = self.rest.value(self.rest.end(first_at + 1, t[1:]) - 1)
        for c in range(1, len(t)):
            draws[:, c] += draws[:, c] >= draws[:, c - 1]
        src = draws + lo
        if spec.kind == "copy":
            tgt = src
        elif spec.kind == "reverse":
            tgt = np.take_along_axis(src, np.maximum(n[:, None] - 1 - t, 0), axis=1)
        else:
            tgt = subst[draws]
        if spec.target_noise > 0.0:
            word, held = self.word[starts, None], self.held[starts, None]
            u = self.words.take(word + t, mode="clip") >> 11
            at = self.first.end(self.ids_at[starts, None], t + 1 - held) - 1
            at = np.where(held & (t == 0), 2 * word - 1, at)
            noisy = u * 2.0**-53 < spec.target_noise
            tgt = np.where(noisy, self.first.value(at) + lo, tgt)
        return [
            ParallelPair(tuple(s[:k]), tuple(g[:k]))
            for s, g, k in zip(src.tolist(), tgt.tolist(), n.tolist())
        ]


def generate_task(spec: SyntheticTaskSpec) -> list[ParallelPair]:
    """Deterministic synthetic parallel corpus for the given seed.

    Sources never contain adjacent duplicate tokens, so repeated-token
    postprocessing is lossless on references.

    A dict task first permutes the V-2 non-reserved ids. Each pair then
    draws its length from [min_len, max_len], its first token from the V-2
    ids and every later token from the V-3 ids other than its predecessor;
    with target noise, one `random()` and then one noise id per position.
    The stream is read in blocks of raw PCG64 words (`random_raw`) and
    gives exactly the values of one numpy call per draw:
    `per_token_generate` in the tests is the contract. It rests on four
    facts of numpy's stream:

    - a 32-bit draw takes the low half of a word, then its high half; the
      first one takes the half that PCG64 still holds after `permutation`
      (`bit_generator.state["has_uint32"]` and `["uinteger"]`);
    - a bounded draw over r values is (x*r) >> 32, redrawn when
      (x*r) mod 2^32 < 2^32 mod r;
    - a range of one value (min_len == max_len, or V=4 after the first
      token) draws nothing;
    - `random()` takes one whole word, (w >> 11) * 2^-53, and leaves the
      held half in place.
    """
    rng = np.random.default_rng(spec.seed)
    subst = None
    if spec.kind == "dict":
        subst = rng.permutation(np.arange(2, spec.vocab_size))
    words, m = _stream_start(rng)
    # one pair always fits in a fresh block, redraws aside
    fresh = max(BLOCK_WORDS, spec.max_len * (1 + 2 * (spec.target_noise > 0)) + 2)
    pairs: list[ParallelPair] = []
    while len(pairs) < spec.pairs:
        words = np.concatenate((words[m // 2:], rng.bit_generator.random_raw(fresh)))
        m %= 2
        block = _Block(spec, words)
        nxt = block.next_start
        starts = []
        # the one step per pair; a pair that runs past the block starts
        # the next one
        while len(pairs) + len(starts) < spec.pairs and nxt[m] >= 0:
            starts.append(m)
            m = int(nxt[m])
        if starts:
            pairs.extend(block.pairs(np.array(starts), subst))
    return pairs
