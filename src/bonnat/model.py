"""Minimal trainable NAT-style model: position-wise independent outputs
over uniform-copied source embeddings, a length-difference predictor,
and an Adam trainer whose schedules are phases of one CE/BoN objective.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import PAD, ParallelPair
from .loss import JointConfig, bon_loss, cross_entropy, mix

SCHEDULES = ("ce", "bon-ft", "bon-joint", "bon-joint-ft")


class CapacityError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, sentence: int):
        super().__init__(f"non-finite loss at step {step}, sentence {sentence}")
        self.step = step
        self.sentence = sentence


class BoundError(ValueError):
    """A named value outside its bounds."""

    def __init__(self, name: str, value, bound: str):
        super().__init__(f"{name} must be {bound}, got {value}")
        self.name, self.value, self.bound = name, value, bound


def _check_at_least(lows) -> None:
    """Each (name, value, low) with value < low is a BoundError."""
    for name, value, low in lows:
        if value < low:
            raise BoundError(name, value, f"at least {low}")


@dataclass(frozen=True)
class ModelDims:
    vocab: int
    d: int = 16
    h: int = 32
    p_max: int = 32
    dl_max: int = 8

    def __post_init__(self) -> None:
        _check_at_least([("d", self.d, 1), ("h", self.h, 1),
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class NatModel:
    """Two affine+tanh layers position-wise, then a softmax projection."""

    PARAM_NAMES = ("src_emb", "pos_emb", "w1", "b1", "w2", "b2", "w_out", "b_out")

    def __init__(self, dims: ModelDims, params: dict[str, np.ndarray]):
        self.dims = dims
        self.params = params

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "NatModel":
        def u(*shape):
            return rng.uniform(-0.1, 0.1, size=shape)

        params = {
            "src_emb": u(dims.vocab, dims.d),
            "pos_emb": u(dims.p_max, dims.d),
            "w1": u(dims.d, dims.h),
            "b1": u(dims.h),
            "w2": u(dims.h, dims.d),
            "b2": u(dims.d),
            "w_out": u(dims.d, dims.vocab),
            "b_out": u(dims.vocab),
        }
        return cls(dims, params)

    def encoder_states(self, source: Sequence[int]) -> np.ndarray:
        return self.params["src_emb"][np.asarray(source)]

    def copy_indices(self, n_src: int, T: int) -> np.ndarray:
        return (np.arange(T) * n_src) // T

    def check_length(self, T: int) -> None:
        if T < 1:
            raise ValueError("target length must be at least 1")
        if T > self.dims.p_max:
            raise CapacityError(
                f"target length {T} exceeds position capacity {self.dims.p_max}"
            )

    def embed(self, copied: np.ndarray, pos: np.ndarray | slice) -> np.ndarray:
        """The input rows: copied source token embedding plus position."""
        return self.params["src_emb"][copied] + self.params["pos_emb"][pos]

    def layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The two hidden layers and the logits of embedded input rows x:
        the affine path that training and decoding share."""
        p = self.params
        h1 = np.tanh(x @ p["w1"] + p["b1"])
        h2 = np.tanh(h1 @ p["w2"] + p["b2"])
        return h1, h2, h2 @ p["w_out"] + p["b_out"]

    def forward_rows(self, copied: np.ndarray, pos: np.ndarray | slice) -> Forward:
        """Row i is the output distribution at position pos[i] given the
        copied source token copied[i]; rows may come from many sentences.
        One sentence passes its positions as a slice, which indexes the
        position table without a copy."""
        x = self.embed(copied, pos)
        h1, h2, logits = self.layers(x)
        probs = _softmax(logits)
        cache = {"copied": copied, "pos": pos, "x": x, "h1": h1, "h2": h2,
                 "probs": probs}
        return Forward(probs, cache)

    def _forward_cache(self, source: Sequence[int], T: int) -> Forward:
        self.check_length(T)
        src = np.asarray(source)
        return self.forward_rows(src[self.copy_indices(len(src), T)], slice(0, T))

    def forward(self, source: Sequence[int], T: int) -> Forward:
        return self._forward_cache(source, T)

    def backward(self, cache: dict, dprobs: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients given d loss / d probability table, summed
        over the rows of a `forward_rows` cache."""
        p = self.params
        probs, h1, h2, x = cache["probs"], cache["h1"], cache["h2"], cache["x"]
        inner = (dprobs * probs).sum(axis=1, keepdims=True)
        dlogits = probs * (dprobs - inner)
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

    PARAM_NAMES = ("lp_w", "lp_b")

    def __init__(self, dl_max: int, params: dict[str, np.ndarray]):
        self.dl_max = dl_max
        self.params = params

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "LengthPredictor":
        k = 2 * dims.dl_max + 1
        params = {
            "lp_w": rng.uniform(-0.1, 0.1, size=(dims.d, k)),
            "lp_b": rng.uniform(-0.1, 0.1, size=k),
        }
        return cls(dims.dl_max, params)

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
        value = float(-np.log(np.maximum(picked, 1e-12)).sum())
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
    src = np.asarray(source)
    T = len(src) + lp.predict_diff(model.encoder_states(src).sum(axis=0))
    T = min(max(T, 1), model.dims.p_max)
    copied = src[model.copy_indices(len(src), T)]
    _, _, logits = model.layers(model.embed(copied, slice(0, T)))
    # PAD is column 0, so the argmax over the columns after it skips PAD
    return tuple((logits[:, PAD + 1 :].argmax(axis=1) + PAD + 1).tolist())


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
    def __init__(self, params: dict[str, np.ndarray], lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for k, g in grads.items():
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[k] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[k] / (1 - ADAM_BETA2**self.t)
            self.params[k] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainConfig:
    schedule: str = "ce"
    alpha: float = 0.1
    n: int = 2
    lr: float = 1e-3
    steps: int = 1000
    ft_steps: int = 500
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        _check_at_least([("steps", self.steps, 1), ("ft_steps", self.ft_steps, 0),
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


def _copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


GROUP_CELLS = 16384  # table cells (128 KiB of float64) of one row group


def row_groups(lengths: Sequence[int], vocab: int) -> list[range]:
    """Runs of consecutive sentences whose tables (T x vocab each) hold at
    most GROUP_CELLS cells together; a longer sentence is a run of one."""
    groups, start, cells = [], 0, 0
    for i, T in enumerate(lengths):
        if i > start and cells + T * vocab > GROUP_CELLS:
            groups.append(range(start, i))
            start, cells = i, 0
        cells += T * vocab
    groups.append(range(start, len(lengths)))
    return groups


class BatchGradients(NamedTuple):
    grads: dict[str, np.ndarray]  # summed over the batch's sentences
    ce: float  # summed loss values
    bon: float
    degenerate: int  # sentences shorter than n
    diverged: int | None  # batch position of the first non-finite sentence


def _group_gradients(
    model: NatModel,
    lp: LengthPredictor,
    pairs: Sequence[ParallelPair],
    ce_weight: float,
    n: int,
) -> BatchGradients:
    """`batch_gradients` of one row group: its target positions are the
    rows of one ragged table. Its tables are freed on return, so one
    group's tables at a time are alive."""
    tgt_len = np.array([len(pair.target) for pair in pairs])
    src_len = np.array([len(pair.source) for pair in pairs])
    rows, tgt_start = tgt_len.sum(), np.cumsum(tgt_len) - tgt_len
    src_start = np.cumsum(src_len) - src_len
    source = np.fromiter(
        itertools.chain.from_iterable(pair.source for pair in pairs),
        np.intp, src_len.sum(),
    )
    target = np.fromiter(
        itertools.chain.from_iterable(pair.target for pair in pairs),
        np.intp, rows,
    )
    # row r is position t of its sentence, copying source index
    # (t * S) // T as `NatModel.copy_indices` does
    pos = np.arange(rows) - np.repeat(tgt_start, tgt_len)
    copy_idx = pos * np.repeat(src_len, tgt_len) // np.repeat(tgt_len, tgt_len)
    copied = source[np.repeat(src_start, tgt_len) + copy_idx]
    probs, cache = model.forward_rows(copied, pos)
    ce = cross_entropy(probs, target)
    # a phase of CE weight 1 only logs the BoN value
    bon = bon_loss(probs, target, n, grad=ce_weight < 1.0, lengths=tgt_len)
    if not np.isfinite(ce.value) or not np.isfinite(bon.values).all():
        for j, (pair, a, T) in enumerate(zip(pairs, tgt_start, tgt_len)):
            sent_ce = cross_entropy(probs[a : a + T], pair.target)
            if not np.isfinite(sent_ce.value) or not np.isfinite(bon.values[j]):
                return BatchGradients({}, ce.value, 0.0, 0, j)
    grads = model.backward(cache, mix(ce_weight, ce.grad, bon.grad))
    enc_sum = np.add.reduceat(model.encoder_states(source), src_start, axis=0)
    _, lp_grads, d_enc_sum = lp.loss_and_grads(enc_sum, tgt_len - src_len)
    grads.update(lp_grads)
    grads["src_emb"] += _scatter_rows(
        source, np.repeat(d_enc_sum, src_len, axis=0), len(grads["src_emb"])
    )
    return BatchGradients(grads, ce.value, bon.value, bon.degenerate, None)


def batch_gradients(
    model: NatModel,
    lp: LengthPredictor,
    pairs: Sequence[ParallelPair],
    ce_weight: float,
    n: int,
) -> BatchGradients:
    """Gradients of w * CE + (1 - w) * BoN and of the length predictor's
    CE, summed over `pairs`. The model is position-wise, so each row
    group gets one forward, CE, BoN, backward and length-predictor call;
    the group's BoN call ranks every sentence's reference n-grams at once
    and runs the count and gradient kernels once over all of them. Stops
    at the first group holding a non-finite loss and returns the position
    of that sentence."""
    lengths = [len(pair.target) for pair in pairs]
    for T in lengths:
        model.check_length(T)
    grads = {
        k: np.zeros_like(v) for k, v in (*model.params.items(), *lp.params.items())
    }
    ce = bon = 0.0
    degenerate = 0
    for group in row_groups(lengths, model.dims.vocab):
        part = _group_gradients(model, lp, [pairs[i] for i in group], ce_weight, n)
        if part.diverged is not None:
            diverged = group.start + part.diverged
            return BatchGradients(grads, ce, bon, degenerate, diverged)
        for k, g in part.grads.items():
            grads[k] += g
        ce += part.ce
        bon += part.bon
        degenerate += part.degenerate
    return BatchGradients(grads, ce, bon, degenerate, None)


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
    continues its step count.
    """
    config.validate()
    if not corpus:
        raise ValueError("empty training corpus")
    if config.schedule == "bon-ft" and init is None:
        raise ValueError("fine-tune requires a source checkpoint")
    rng = np.random.default_rng(config.seed)
    if init is None:
        state = TrainState(
            model=NatModel.init(dims, rng), lp=LengthPredictor.init(dims, rng)
        )
    else:
        state = TrainState(
            model=NatModel(init.model.dims, _copy_params(init.model.params)),
            lp=LengthPredictor(init.lp.dl_max, _copy_params(init.lp.params)),
            step=init.step,
        )
    params = dict(state.model.params)
    params.update(state.lp.params)
    opt = Adam(params, config.lr)

    for ce_weight, budget in config.phases():
        for _ in range(budget):
            t0 = time.perf_counter()
            idx = rng.integers(0, len(corpus), size=config.batch_size)
            batch = batch_gradients(
                state.model, state.lp, [corpus[i] for i in idx.tolist()],
                ce_weight, config.n,
            )
            if batch.diverged is not None:
                raise TrainingDiverged(state.step, int(idx[batch.diverged]))
            state.short_sentence_skips += batch.degenerate
            grads = batch.grads
            for k in grads:
                grads[k] /= config.batch_size
            opt.step(grads)
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
