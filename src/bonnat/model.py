"""Minimal trainable NAT-style model: position-wise independent outputs
over uniform-copied source embeddings, a length-difference predictor,
and an Adam trainer whose schedules are phases of one CE/BoN objective.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class ModelDims:
    vocab: int
    d: int = 16
    h: int = 32
    p_max: int = 32
    dl_max: int = 8


class Forward(NamedTuple):
    """A T x V table of per-position distributions and the activations
    that `NatModel.backward` needs."""

    probs: np.ndarray
    cache: dict


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

    def _forward_cache(self, source: Sequence[int], T: int) -> Forward:
        if T < 1:
            raise ValueError("target length must be at least 1")
        if T > self.dims.p_max:
            raise CapacityError(
                f"target length {T} exceeds position capacity {self.dims.p_max}"
            )
        p = self.params
        src = np.asarray(source)
        copy_idx = self.copy_indices(len(src), T)
        copied = src[copy_idx]
        x = p["src_emb"][copied] + p["pos_emb"][:T]
        h1 = np.tanh(x @ p["w1"] + p["b1"])
        h2 = np.tanh(h1 @ p["w2"] + p["b2"])
        logits = h2 @ p["w_out"] + p["b_out"]
        probs = _softmax(logits)
        cache = {"copied": copied, "x": x, "h1": h1, "h2": h2, "probs": probs}
        return Forward(probs, cache)

    def forward(self, source: Sequence[int], T: int) -> Forward:
        return self._forward_cache(source, T)

    def backward(self, cache: dict, dprobs: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients given d loss / d probability table."""
        p = self.params
        probs, h1, h2, x = cache["probs"], cache["h1"], cache["h2"], cache["x"]
        T = probs.shape[0]
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
        grads["pos_emb"] = np.zeros_like(p["pos_emb"])
        grads["pos_emb"][:T] = dx
        grads["src_emb"] = np.zeros_like(p["src_emb"])
        np.add.at(grads["src_emb"], cache["copied"], dx)
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

    def class_probs(self, enc_sum: np.ndarray) -> np.ndarray:
        return _softmax(enc_sum @ self.params["lp_w"] + self.params["lp_b"])

    def predict_diff(self, enc_sum: np.ndarray) -> int:
        return int(np.argmax(self.class_probs(enc_sum))) - self.dl_max

    def loss_and_grads(
        self, enc_sum: np.ndarray, diff: int
    ) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
        """CE on the clamped difference class; also returns the gradient
        w.r.t. the summed encoder states so it can flow to embeddings."""
        k = 2 * self.dl_max + 1
        cls_idx = min(max(diff, -self.dl_max), self.dl_max) + self.dl_max
        probs = self.class_probs(enc_sum)
        value = float(-np.log(max(probs[cls_idx], 1e-12)))
        dlogits = probs.copy()
        dlogits[cls_idx] -= 1.0
        grads = {
            "lp_w": np.outer(enc_sum, dlogits),
            "lp_b": dlogits,
        }
        d_enc_sum = self.params["lp_w"] @ dlogits
        return value, grads, d_enc_sum


def decode(
    model: NatModel, lp: LengthPredictor, source: Sequence[int]
) -> tuple[int, ...]:
    """Argmax decoding at the predicted length. PAD is never emitted."""
    enc_sum = model.encoder_states(source).sum(axis=0)
    T = len(source) + lp.predict_diff(enc_sum)
    T = min(max(T, 1), model.dims.p_max)
    probs, _ = model._forward_cache(source, T)
    masked = probs.copy()
    masked[:, PAD] = -1.0
    return tuple(int(i) for i in np.argmax(masked, axis=1))


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
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("step budget and batch size must be positive")
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
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            ce_sum = bon_sum = joint_sum = 0.0
            for sent_id in idx:
                pair = corpus[int(sent_id)]
                probs, cache = state.model._forward_cache(
                    pair.source, len(pair.target)
                )
                ce = cross_entropy(probs, pair.target)
                # a phase of CE weight 1 only logs the BoN value
                bon = bon_loss(probs, pair.target, config.n, grad=ce_weight < 1.0)
                if bon.degenerate:
                    state.short_sentence_skips += 1
                if not np.isfinite(ce.value) or not np.isfinite(bon.value):
                    raise TrainingDiverged(state.step, int(sent_id))
                ce_sum += ce.value
                bon_sum += bon.value
                joint_sum += mix(config.alpha, ce.value, bon.value)
                dprobs = mix(ce_weight, ce.grad, bon.grad)
                for k, g in state.model.backward(cache, dprobs).items():
                    grads[k] += g
                enc_sum = state.model.encoder_states(pair.source).sum(axis=0)
                diff = len(pair.target) - len(pair.source)
                _, lp_grads, d_enc_sum = state.lp.loss_and_grads(enc_sum, diff)
                for k, g in lp_grads.items():
                    grads[k] += g
                np.add.at(grads["src_emb"], np.asarray(pair.source), d_enc_sum)
            for k in grads:
                grads[k] /= config.batch_size
            opt.step(grads)
            state.step += 1
            state.log.append(
                {
                    "step": state.step,
                    "ce_loss": ce_sum / config.batch_size,
                    "bon_loss": bon_sum / config.batch_size,
                    "joint_loss": joint_sum / config.batch_size,
                    "lr": config.lr,
                    "wall_ms": (time.perf_counter() - t0) * 1e3,
                }
            )
    return state
