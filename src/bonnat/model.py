"""Minimal trainable NAT-style model: position-wise independent outputs
over uniform-copied source embeddings, a length-difference predictor,
and an Adam trainer whose schedules are phases of one CE/BoN objective.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import PAD, ParallelPair
from .loss import (
    LOG_CLAMP, BoundError, JointConfig, bon_loss, check_at_least, cross_entropy, mix,
    mix_ce_cells,
)
from .ngram import stack

SCHEDULES = ("ce", "bon-ft", "bon-joint", "bon-joint-ft")


class CapacityError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, sentence: int):
        super().__init__(f"non-finite loss at step {step}, sentence {sentence}")
        self.step = step
        self.sentence = sentence


@dataclass(frozen=True)
class ModelDims:
    vocab: int
    d: int = 16
    h: int = 32
    p_max: int = 32
    dl_max: int = 8

    def __post_init__(self) -> None:
        check_at_least([("d", self.d, 1), ("h", self.h, 1),
                        ("p_max", self.p_max, 1), ("dl_max", self.dl_max, 0)])


class Forward(NamedTuple):
    """A rows x V table of per-position distributions (T x V for one
    sentence) and the activations that `NatModel.backward` needs."""

    probs: np.ndarray
    cache: dict


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """n x d array whose row i sums, in order, the rows r with idx[r] == i
    (np.add.at into zeros, computed by one faster bincount)."""
    d = rows.shape[1]
    flat = (np.asarray(idx)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def _uniform(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator):
    """One array per name, drawn from U(-0.1, 0.1) in the order of `shapes`."""
    return {k: rng.uniform(-0.1, 0.1, size=shape) for k, shape in shapes.items()}


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in `logits`."""
    # the reductions that .max and .sum call, without their wrappers
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


class NatModel:
    """Two affine+tanh layers position-wise, then a softmax projection."""

    def __init__(self, dims: ModelDims, params: dict[str, np.ndarray]):
        self.dims = dims
        self.params = params

    @staticmethod
    def shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in the order `init` draws them."""
        return {
            "src_emb": (dims.vocab, dims.d), "pos_emb": (dims.p_max, dims.d),
            "w1": (dims.d, dims.h), "b1": (dims.h,),
            "w2": (dims.h, dims.d), "b2": (dims.d,),
            "w_out": (dims.d, dims.vocab), "b_out": (dims.vocab,),
        }

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "NatModel":
        return cls(dims, _uniform(cls.shapes(dims), rng))

    def encoder_states(self, source: Sequence[int]) -> np.ndarray:
        """The source tokens' embedding rows, gathered straight from the
        sequence (a tuple, list or integer array)."""
        return self.params["src_emb"].take(source, axis=0)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def copy_indices(n_src: int, T: int) -> np.ndarray:
        """The source index that each of T target positions copies,
        (arange(T) * n_src) // T, memoized by (n_src, T) as a read-only
        array. The memo holds one entry per distinct (source length,
        target length) pair that reaches it: at most the distinct source
        lengths x p_max entries of at most p_max indices each."""
        if n_src < 1:
            raise ValueError("empty source")
        idx = (np.arange(T) * n_src) // T
        idx.flags.writeable = False
        return idx

    def check_lengths(self, lengths: Sequence[int]) -> None:
        """Every target length must lie in 1..p_max; an empty list passes."""
        if min(lengths, default=1) < 1:
            raise ValueError("target length must be at least 1")
        if max(lengths, default=0) > self.dims.p_max:
            raise CapacityError(f"target length {max(lengths)} exceeds "
                                f"position capacity {self.dims.p_max}")

    def embed(
        self, copied: np.ndarray, pos: np.ndarray | slice,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """The input rows: copied source token embedding plus position.
        `copied` indexes the embedding table, or, when `rows` is given,
        those rows: a sentence's encoder states and its copy indices give
        the same bytes as the table and the copied token ids."""
        table = self.params["src_emb"] if rows is None else rows
        return table.take(copied, axis=0) + self.params["pos_emb"][pos]

    def layers(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The two hidden layers and the logits of embedded input rows x:
        the affine path that training and decoding share. The logits are
        written into `out`, a rows x V float64 array, when one is given."""
        p = self.params
        h1 = x @ p["w1"]
        h1 += p["b1"]
        np.tanh(h1, out=h1)
        h2 = h1 @ p["w2"]
        h2 += p["b2"]
        np.tanh(h2, out=h2)
        logits = np.matmul(h2, p["w_out"], out=out)
        logits += p["b_out"]
        return h1, h2, logits

    def forward_rows(
        self, copied: np.ndarray, pos: np.ndarray | slice, out: np.ndarray | None = None
    ) -> Forward:
        """Row i is the output distribution at position pos[i] given the
        copied source token copied[i]; a training batch passes the rows of
        all its sentences at once. One sentence passes its positions as a
        slice, which indexes the position table without a copy. The
        distributions are computed in `out`, a C-contiguous rows x V
        float64 array, when one is given, and in a new array otherwise."""
        x = self.embed(copied, pos)
        h1, h2, logits = self.layers(x, out)
        probs = _softmax(logits)
        cache = {"copied": copied, "pos": pos, "x": x, "h1": h1, "h2": h2,
                 "probs": probs}
        return Forward(probs, cache)

    def _forward_cache(self, source: Sequence[int], T: int) -> Forward:
        self.check_lengths([T])
        src = np.asarray(source)
        return self.forward_rows(src[self.copy_indices(len(src), T)], slice(0, T))

    def forward(self, source: Sequence[int], T: int) -> Forward:
        return self._forward_cache(source, T)

    def backward(
        self, cache: dict, dprobs: np.ndarray, out: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Parameter gradients given d loss / d probability table, summed
        over the rows of a `forward_rows` cache. The table-shaped
        intermediates, dprobs * probs and then d loss / d logits, are
        computed in `out`, a C-contiguous float64 array of the table's
        shape, when one is given, and in new arrays otherwise; `dprobs`
        is left as it is."""
        p = self.params
        probs, h1, h2, x = cache["probs"], cache["h1"], cache["h2"], cache["x"]
        inner = np.multiply(dprobs, probs, out=out).sum(axis=1, keepdims=True)
        # probs * (dprobs - inner)
        dlogits = np.subtract(dprobs, inner, out=out)
        dlogits *= probs
        grads = {
            "w_out": h2.T @ dlogits,
            "b_out": dlogits.sum(axis=0),
        }
        dh2 = dlogits @ p["w_out"].T
        dz2 = dh2 * (1.0 - h2 * h2)
        grads["w2"] = h1.T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["w2"].T
        dz1 = dh1 * (1.0 - h1 * h1)
        grads["w1"] = x.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        dx = dz1 @ p["w1"].T
        pos = np.arange(len(p["pos_emb"]))[cache["pos"]]
        grads["pos_emb"] = _scatter_rows(pos, dx, len(p["pos_emb"]))
        grads["src_emb"] = _scatter_rows(cache["copied"], dx, len(p["src_emb"]))
        return grads


class LengthPredictor:
    """Softmax classifier over length differences in [-dl_max, dl_max],
    fed the sum of encoder states after an affine map."""

    def __init__(self, dl_max: int, params: dict[str, np.ndarray]):
        self.dl_max = dl_max
        self.params = params

    @staticmethod
    def shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in the order `init` draws them."""
        k = 2 * dims.dl_max + 1
        return {"lp_w": (dims.d, k), "lp_b": (k,)}

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "LengthPredictor":
        return cls(dims.dl_max, _uniform(cls.shapes(dims), rng))

    def logits(self, enc_sum: np.ndarray) -> np.ndarray:
        return enc_sum @ self.params["lp_w"] + self.params["lp_b"]

    def class_probs(self, enc_sum: np.ndarray) -> np.ndarray:
        return _softmax(self.logits(enc_sum))

    def predict_diff(self, enc_sum: np.ndarray) -> int:
        """The most likely difference class, by argmax over the logits:
        softmax keeps their order, so no probabilities are needed."""
        return int(self.logits(enc_sum).argmax()) - self.dl_max

    def loss_and_grads(
        self, enc_sum: np.ndarray, diff
    ) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
        """CE on the clamped difference class; also returns the gradient
        w.r.t. the summed encoder states so it can flow to embeddings.

        `enc_sum` is a G x d stack of sentences with G diffs: the loss
        value and the parameter gradients are sums over the G sentences.
        """
        cls_idx = np.clip(diff, -self.dl_max, self.dl_max) + self.dl_max
        probs = self.class_probs(enc_sum)
        target = np.arange(probs.shape[1]) == cls_idx[:, None]
        picked = (probs * target).sum(axis=1)
        value = float(-np.log(np.maximum(picked, LOG_CLAMP)).sum())
        dlogits = probs - target
        grads = {"lp_w": enc_sum.T @ dlogits, "lp_b": dlogits.sum(axis=0)}
        d_enc_sum = dlogits @ self.params["lp_w"].T
        return value, grads, d_enc_sum


def decode(
    model: NatModel, lp: LengthPredictor, source: Sequence[int]
) -> tuple[int, ...]:
    """Argmax decoding at the predicted length. PAD is never emitted.

    Softmax keeps the order of a row's logits, so the argmax is taken
    over the logits and no probability table is built; exact ties go to
    the lowest id, as over the probabilities."""
    enc = model.encoder_states(source)
    S = len(enc)
    T = S + lp.predict_diff(np.add.reduce(enc, axis=0))
    T = min(max(T, 1), model.dims.p_max)
    # the input rows copy the encoder states, so the table is gathered once
    x = model.embed(model.copy_indices(S, T), slice(0, T), enc)
    _, _, logits = model.layers(x)
    # PAD is column 0 (corpus.PAD). It loses every row's argmax at -inf,
    # which keeps the argmax on contiguous rows; it only wins, as index 0,
    # when every other logit is -inf too, where the argmax over the
    # columns after PAD is their first, token PAD + 1
    logits[:, PAD] = -np.inf
    return tuple([i or PAD + 1 for i in logits.argmax(axis=1).tolist()])


def postprocess(sent: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Collapse each run of adjacent identical tokens to one token."""
    out: list[int] = []
    for tok in sent:
        if not out or out[-1] != tok:
            out.append(tok)
    return tuple(out), len(sent) - len(out)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over one flat float64 vector.

    The constructor copies the parameters of `groups`, dicts of named
    arrays, into one buffer in the dicts' order and replaces each entry
    by a view of it, so the caller's dicts see every update. `m` and `v`
    are buffers of the same size, and a step is one fused update."""

    def __init__(self, *groups: dict[str, np.ndarray], lr=1e-3):
        self.lr = lr
        self.t = 0
        self.names = [k for group in groups for k in group]
        self.flat = np.concatenate(
            [group[k] for group in groups for k in group], axis=None, dtype=float
        )
        off = 0
        for group in groups:
            for k, arr in group.items():
                group[k] = self.flat[off : off + arr.size].reshape(arr.shape)
                off += arr.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, grads: dict[str, np.ndarray], batch_size: int = 1) -> None:
        """One update from `grads`, summed over `batch_size` examples: the
        update uses their mean."""
        self.t += 1
        g = np.concatenate([grads[k] for k in self.names], axis=None)
        g /= batch_size
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * g * g
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        self.flat -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig:
    schedule: str = "ce"
    alpha: float = JointConfig.alpha
    n: int = JointConfig.n
    lr: float = 1e-3
    steps: int = 1000
    ft_steps: int = 500
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        check_at_least([("steps", self.steps, 1), ("ft_steps", self.ft_steps, 0),
                        ("batch_size", self.batch_size, 1)])
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise BoundError("lr", self.lr, "finite and positive")
        JointConfig(self.alpha, self.n)  # bounds check

    def phases(self) -> list[tuple[float, int]]:
        """(CE weight w, steps) of each phase; every phase trains the
        one objective w * CE + (1 - w) * BoN."""
        joint = (self.alpha, self.steps)
        return {
            "ce": [(1.0, self.steps)],
            "bon-ft": [(0.0, self.steps)],
            "bon-joint": [joint],
            "bon-joint-ft": [joint, (0.0, self.ft_steps)],
        }[self.schedule]


@dataclass
class TrainState:
    model: NatModel
    lp: LengthPredictor
    step: int = 0
    short_sentence_skips: int = 0
    log: list[dict] = field(default_factory=list)


class BatchGradients(NamedTuple):
    grads: dict[str, np.ndarray]  # summed over the batch's sentences
    ce: float  # summed loss values
    bon: float
    degenerate: int  # sentences shorter than n
    diverged: int | None  # batch position of the first non-finite sentence


def batch_gradients(
    model: NatModel,
    lp: LengthPredictor,
    pairs: Sequence[ParallelPair],
    ce_weight: float,
    n: int,
    ws: np.ndarray | None = None,
) -> BatchGradients:
    """Gradients of w * CE + (1 - w) * BoN and of the length predictor's
    CE, summed over `pairs`. The model is position-wise, so the batch's
    target positions are the rows of one ragged table, which gets one
    forward, CE, BoN, backward and length-predictor call; the BoN call
    ranks every sentence's reference n-grams at once and runs the count
    and gradient kernels once over all of them. A batch holding a
    non-finite loss returns no gradients and the position of its first
    such sentence. Targets hold 1..p_max tokens, as `train` checks.

    The step's three table-sized arrays, the probabilities, the
    backward pass's intermediates and d loss / d probabilities, are the
    first ΣT rows of the three tables of `ws`, a C-contiguous
    3 x rows x V float64 workspace with at least ΣT rows (ΣT, the
    batch's target tokens), whose contents are overwritten; without
    `ws` the step allocates one. The gradients do not depend on what
    `ws` held before, and none of the returned arrays is a view of it."""
    source, src_len = stack([pair.source for pair in pairs])
    target, tgt_len = stack([pair.target for pair in pairs])
    rows, tgt_start = len(target), np.cumsum(tgt_len) - tgt_len
    src_start = np.cumsum(src_len) - src_len
    # row r is position t of its sentence, copying source index
    # (t * S) // T as `NatModel.copy_indices` does
    pos = np.arange(rows) - np.repeat(tgt_start, tgt_len)
    copy_idx = pos * np.repeat(src_len, tgt_len) // np.repeat(tgt_len, tgt_len)
    copied = source[np.repeat(src_start, tgt_len) + copy_idx]
    if ws is None:
        ws = np.empty((3, rows, model.dims.vocab))
    probs_out, backward_out, dprobs_out = ws[:, :rows]
    probs, cache = model.forward_rows(copied, pos, probs_out)
    ce = cross_entropy(probs, target, dense=False)
    # a phase of CE weight 1 only logs the BoN value
    bon = bon_loss(probs, target, n, grad=ce_weight < 1.0, lengths=tgt_len,
                   out=dprobs_out)
    if not np.isfinite(ce.value) or not np.isfinite(bon.values).all():
        # probabilities are NaN or in [0, 1], so a sentence's clamped CE is
        # non-finite exactly where its gradient at a target cell is
        bad = np.logical_or.reduceat(~np.isfinite(ce.grad), tgt_start)
        bad |= ~np.isfinite(bon.values)
        return BatchGradients({}, ce.value, 0.0, 0, int(bad.argmax()))
    dprobs = mix_ce_cells(ce_weight, ce.grad, target, dprobs_out)
    grads = model.backward(cache, dprobs, backward_out)
    enc_sum = np.add.reduceat(model.encoder_states(source), src_start, axis=0)
    _, lp_grads, d_enc_sum = lp.loss_and_grads(enc_sum, tgt_len - src_len)
    grads.update(lp_grads)
    grads["src_emb"] += _scatter_rows(
        source, np.repeat(d_enc_sum, src_len, axis=0), len(grads["src_emb"])
    )
    return BatchGradients(grads, ce.value, bon.value, bon.degenerate, None)


def train(
    config: TrainConfig,
    corpus: Sequence[ParallelPair],
    dims: ModelDims,
    init: TrainState | None = None,
) -> TrainState:
    """Run the configured schedule and return the final state.

    Losses are averaged over the batch; the length predictor is trained
    jointly with its own cross-entropy at weight 1. An `init` state is
    left as it is: training starts from copies of its parameters and
    continues its step count. A corpus with an empty source or a target
    outside 1..p_max tokens is rejected before the first step, a
    CapacityError if longer.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if not all(pair.source for pair in corpus):
        raise ValueError("empty source")
    if config.schedule == "bon-ft" and init is None:
        raise ValueError("fine-tune requires a source checkpoint")
    rng = np.random.default_rng(config.seed)
    if init is None:
        state = TrainState(
            model=NatModel.init(dims, rng), lp=LengthPredictor.init(dims, rng)
        )
    else:
        state = TrainState(
            model=NatModel(init.model.dims, dict(init.model.params)),
            lp=LengthPredictor(init.lp.dl_max, dict(init.lp.params)),
            step=init.step,
        )
    lengths = [len(pair.target) for pair in corpus]
    state.model.check_lengths(lengths)
    # the state's parameters become views of the optimiser's one buffer
    opt = Adam(state.model.params, state.lp.params, lr=config.lr)
    # every step's tables are row slices of one workspace, so the same
    # memory serves the whole run
    ws = np.empty((3, config.batch_size * max(lengths), state.model.dims.vocab))

    for ce_weight, budget in config.phases():
        for _ in range(budget):
            t0 = time.perf_counter()
            idx = rng.integers(0, len(corpus), size=config.batch_size)
            batch = batch_gradients(
                state.model, state.lp, [corpus[i] for i in idx.tolist()],
                ce_weight, config.n, ws,
            )
            if batch.diverged is not None:
                raise TrainingDiverged(state.step, int(idx[batch.diverged]))
            state.short_sentence_skips += batch.degenerate
            opt.step(batch.grads, config.batch_size)
            state.step += 1
            state.log.append(
                {
                    "step": state.step,
                    "ce_loss": batch.ce / config.batch_size,
                    "bon_loss": batch.bon / config.batch_size,
                    "joint_loss": mix(config.alpha, batch.ce, batch.bon)
                    / config.batch_size,
                    "lr": config.lr,
                    "wall_ms": (time.perf_counter() - t0) * 1e3,
                }
            )
    return state
