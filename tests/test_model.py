import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonnat import checkpoint as ckpt
from bonnat import model as model_mod
from bonnat.corpus import PAD, ParallelPair, SyntheticTaskSpec, generate_task
from bonnat.gradcheck import fd_param_gradients, worst_rel_error
from bonnat.loss import JointConfig, bon_loss, cross_entropy, joint_loss, mix
from bonnat.model import (
    Adam,
    BoundError,
    CapacityError,
    LengthPredictor,
    ModelDims,
    NatModel,
    TrainConfig,
    TrainingDiverged,
    batch_gradients,
    decode,
    postprocess,
    train,
)

DIMS = ModelDims(vocab=6, d=4, h=8, p_max=8, dl_max=2)


def fresh(seed=0, dims=DIMS):
    rng = np.random.default_rng(seed)
    return NatModel.init(dims, rng), LengthPredictor.init(dims, rng)


def test_init_draws_each_shape_in_order():
    rng = np.random.default_rng(5)
    model, lp = NatModel.init(DIMS, rng), LengthPredictor.init(DIMS, rng)
    params = {**model.params, **lp.params}
    shapes = {**NatModel.shapes(DIMS), **LengthPredictor.shapes(DIMS)}
    assert [(k, a.shape) for k, a in params.items()] == list(shapes.items())
    # a new name, order, shape or draw would change every trained checkpoint
    digest = hashlib.sha256()
    for k, a in params.items():
        digest.update(k.encode() + repr(a.shape).encode() + a.tobytes())
    assert digest.hexdigest() == (
        "38bdc93146e4fcd0d650429bbc6dc66a903e018fef0d48b9657c9c0fc4f2e57d"
    )


def test_forward_is_deterministic():
    model, _ = fresh()
    a = model.forward((2, 3, 4), 3).probs
    b = model.forward((2, 3, 4), 3).probs
    assert np.array_equal(a, b)


def test_forward_rows_are_distributions():
    model, _ = fresh(3)
    probs = model.forward((2, 5, 3), 4).probs
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert (probs >= 0).all()


def test_fresh_model_is_near_uniform():
    model, _ = fresh(1)
    probs = model.forward((2, 3, 4), 3).probs
    assert probs.max() < 0.5


def test_capacity_error():
    model, _ = fresh()
    with pytest.raises(CapacityError):
        model.forward((2, 3), DIMS.p_max + 1)


def test_uniform_copy_indices():
    model, _ = fresh()
    assert model.copy_indices(3, 3).tolist() == [0, 1, 2]
    assert model.copy_indices(2, 4).tolist() == [0, 0, 1, 1]
    assert model.copy_indices(4, 2).tolist() == [0, 2]
    # memoized by (S, T) as read-only arrays
    for S in range(1, 65):
        for T in range(1, 65):
            idx = model.copy_indices(S, T)
            assert np.array_equal(idx, (np.arange(T) * S) // T)
            assert model.copy_indices(S, T) is idx
            with pytest.raises(ValueError):
                idx[0] = 1


def test_end_to_end_gradients_match_finite_differences():
    model, _ = fresh(11, ModelDims(vocab=5, d=4, h=8, p_max=8, dl_max=2))
    source = (2, 3, 4)
    ref = (3, 2, 4)
    cfg = JointConfig(alpha=0.5, n=2)

    def loss_value():
        probs, _ = model._forward_cache(source, len(ref))
        return joint_loss(probs, ref, cfg).value

    probs, cache = model._forward_cache(source, len(ref))
    analytic = model.backward(cache, joint_loss(probs, ref, cfg).grad)
    numeric = fd_param_gradients(loss_value, model.params, step=1e-4)
    worst = max(worst_rel_error(analytic[k], numeric[k]) for k in analytic)
    assert worst < 1e-3


def test_length_predictor_gradients():
    model, lp = fresh(5)
    source = (2, 3)
    enc_sum = model.encoder_states(source).sum(axis=0, keepdims=True)
    value, grads, _ = lp.loss_and_grads(enc_sum, diff=np.array([1]))
    assert value > 0

    def lp_value():
        return lp.loss_and_grads(
            model.encoder_states(source).sum(axis=0, keepdims=True),
            diff=np.array([1]),
        )[0]

    numeric = fd_param_gradients(lp_value, lp.params, step=1e-5)
    for k in grads:
        assert worst_rel_error(grads[k], numeric[k]) < 1e-4


def test_length_predictor_clamps_out_of_range():
    _, lp = fresh(5)
    value, _, _ = lp.loss_and_grads(np.zeros((1, DIMS.d)), diff=np.array([99]))
    assert np.isfinite(value)


def test_postprocess_examples():
    # "I have to up up start start working" as ids: two duplicated runs
    sent = (0, 1, 2, 3, 3, 4, 4, 5)
    clean, removed = postprocess(sent)
    assert clean == (0, 1, 2, 3, 4, 5)
    assert removed == 2
    assert postprocess((0, 1, 0)) == ((0, 1, 0), 0)
    assert postprocess((7, 7, 7, 7)) == ((7,), 3)
    assert postprocess(()) == ((), 0)


@given(st.lists(st.integers(min_value=0, max_value=4), max_size=20))
def test_postprocess_idempotent(sent):
    once, _ = postprocess(tuple(sent))
    twice, removed = postprocess(once)
    assert twice == once and removed == 0


def test_decode_length_and_ids():
    model, lp = fresh(7)
    rng = np.random.default_rng(0)
    for _ in range(200):
        length = int(rng.integers(1, 7))
        source = tuple(int(x) for x in rng.integers(2, DIMS.vocab, size=length))
        out = decode(model, lp, source)
        assert 1 <= len(out) <= DIMS.p_max
        assert all(0 < i < DIMS.vocab for i in out)  # never PAD


def masked_copy_argmax(probs):
    """Reference argmax: PAD masked out in a copy of the table."""
    masked = probs.copy()
    masked[:, PAD] = -1.0
    return tuple(int(i) for i in np.argmax(masked, axis=1))


def test_decode_skips_pad_and_breaks_ties_like_the_masked_copy(monkeypatch):
    model, lp = fresh(7)
    rng = np.random.default_rng(3)
    for _ in range(100):
        length = int(rng.integers(1, 7))
        source = tuple(int(x) for x in rng.integers(2, DIMS.vocab, size=length))
        out = decode(model, lp, source)
        probs, _ = model._forward_cache(source, len(out))
        assert out == masked_copy_argmax(probs)
        assert all(type(i) is int for i in out)
    # PAD holds every row's maximum; tokens 2 and 4 tie exactly on even rows
    table = np.full((DIMS.p_max, DIMS.vocab), 0.05)
    table[:, PAD] = 0.4
    table[:, 2] = table[:, 4] = 0.2
    table[1::2, 4] = 0.25
    logits = np.log(table)
    monkeypatch.setattr(model, "layers", lambda x: (None, None, logits[: len(x)]))
    out = decode(model, lp, (2, 3, 4))
    assert out == masked_copy_argmax(table[: len(out)])
    assert out == (2, 4, 2, 4, 2, 4, 2, 4)[: len(out)]
    # token 3's logit is one ulp above token 2's: their probabilities round
    # to the same value, and only the logits tell the larger one
    logits = np.full((DIMS.p_max, DIMS.vocab), -5.0)
    logits[:, 2] = 1e-3
    logits[:, 3] = np.nextafter(1e-3, 1.0)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    assert (probs[:, 2] == probs[:, 3]).all()
    out = decode(model, lp, (2, 3, 4))
    assert out == (3,) * len(out)


def reference_layers(params, x):
    """The affine path as it was before its bias adds and tanh ran in
    place: a new array per operation."""
    h1 = np.tanh(x @ params["w1"] + params["b1"])
    h2 = np.tanh(h1 @ params["w2"] + params["b2"])
    logits = h2 @ params["w_out"]
    logits += params["b_out"]
    return h1, h2, logits


def reference_decode(model, lp, source):
    """`decode` as it was before the one-gather, memoized-index rewrite:
    the embedding table gathered twice and the copy index rebuilt."""
    p = model.params
    src = np.asarray(source)
    enc_sum = p["src_emb"][src].sum(axis=0)
    diff = int((enc_sum @ lp.params["lp_w"] + lp.params["lp_b"]).argmax()) - lp.dl_max
    T = min(max(len(src) + diff, 1), model.dims.p_max)
    copied = src[(np.arange(T) * len(src)) // T]
    _, _, logits = reference_layers(p, p["src_emb"][copied] + p["pos_emb"][slice(0, T)])
    return tuple((logits[:, PAD + 1 :].argmax(axis=1) + PAD + 1).tolist())


def reference_forward_cache(model, source, T):
    """`_forward_cache` as it was before the same rewrite."""
    p = model.params
    src = np.asarray(source)
    copied = src[(np.arange(T) * len(src)) // T]
    x = p["src_emb"][copied] + p["pos_emb"][slice(0, T)]
    h1, h2, logits = reference_layers(p, x)
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return {"copied": copied, "pos": slice(0, T), "x": x, "h1": h1, "h2": h2,
            "probs": logits}


@st.composite
def decode_cases(draw):
    """A model and length predictor, scaled x1/x10/x100, and a source of
    1-50 tokens as a tuple, a list and an int64 array. The length bias
    pins the predicted difference to its lowest class with a source no
    longer than dl_max (the length clamps to 1), or to its highest (it
    clamps to p_max whenever S + dl_max exceeds it), or leaves it free."""
    dims = ModelDims(vocab=draw(st.integers(3, 300)), d=draw(st.integers(1, 20)),
                     h=draw(st.integers(1, 40)), p_max=draw(st.integers(1, 40)),
                     dl_max=draw(st.integers(0, 10)))
    model, lp = fresh(draw(st.integers(0, 2**32 - 1)), dims)
    scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    for params in (model.params, lp.params):
        for k in params:
            params[k] *= scale
    bias = draw(st.sampled_from(["low", "high", "free"]))
    if bias == "low" and dims.dl_max >= 1:
        lp.params["lp_b"][0] = 1e9
        S = draw(st.integers(1, dims.dl_max))
    else:
        if bias == "high":
            lp.params["lp_b"][-1] = 1e9
        S = draw(st.integers(1, 50))
    tokens = draw(st.lists(st.integers(0, dims.vocab - 1), min_size=S, max_size=S))
    return model, lp, bias, tokens


@settings(max_examples=300, deadline=None)
@given(decode_cases())
def test_decode_equals_the_reference_byte_for_byte(case):
    model, lp, bias, tokens = case
    want = reference_decode(model, lp, tuple(tokens))
    for source in (tuple(tokens), list(tokens), np.array(tokens, dtype=np.int64)):
        out = decode(model, lp, source)
        assert out == want
        assert all(type(i) is int for i in out)
    if bias == "low" and lp.dl_max >= 1:
        assert len(want) == 1
    elif bias == "high":
        assert len(want) == min(len(tokens) + lp.dl_max, model.dims.p_max)


@settings(max_examples=200, deadline=None)
@given(decode_cases(), st.data())
def test_forward_cache_equals_the_reference_byte_for_byte(case, data):
    model, _, _, tokens = case
    T = data.draw(st.integers(1, model.dims.p_max))
    for source in (tuple(tokens), list(tokens), np.array(tokens, dtype=np.int64)):
        probs, cache = model._forward_cache(source, T)
        want = reference_forward_cache(model, source, T)
        assert probs is cache["probs"]
        assert list(cache) == list(want)
        assert cache["pos"] == want["pos"]
        for k in ("copied", "x", "h1", "h2", "probs"):
            assert cache[k].dtype == want[k].dtype, k
            assert cache[k].shape == want[k].shape, k
            assert cache[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("source", [(), [], np.array([], dtype=np.int64)])
def test_empty_source_is_refused(source):
    model, lp = fresh()
    with pytest.raises(ValueError, match="^empty source$"):
        decode(model, lp, source)
    with pytest.raises(ValueError, match="^empty source$"):
        model.forward(source, 3)


def test_predict_diff_is_the_argmax_class():
    _, lp = fresh(5)
    rng = np.random.default_rng(4)
    for _ in range(200):
        enc_sum = rng.normal(scale=3.0, size=DIMS.d)
        expected = int(np.argmax(lp.class_probs(enc_sum))) - DIMS.dl_max
        assert lp.predict_diff(enc_sum) == expected
    # classes 1 and 3 tie exactly: the lower one wins
    lp.params["lp_w"][:] = 0.0
    lp.params["lp_b"][:] = [0.0, 1.0, 0.5, 1.0, 0.0]
    assert lp.predict_diff(np.ones(DIMS.d)) == 1 - DIMS.dl_max


@pytest.mark.parametrize("field, value, message", [
    ("d", 0, "d must be at least 1, got 0"),
    ("h", 0, "h must be at least 1, got 0"),
    ("p_max", 0, "p_max must be at least 1, got 0"),
    ("dl_max", -1, "dl_max must be at least 0, got -1"),
])
def test_model_dims_check_their_bounds(field, value, message):
    with pytest.raises(BoundError) as exc:
        ModelDims(vocab=6, **{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"lr": -1.0}, "lr must be finite and positive, got -1.0"),
    ({"lr": 0.0}, "lr must be finite and positive, got 0.0"),
    ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
    ({"lr": float("inf")}, "lr must be finite and positive, got inf"),
    ({"ft_steps": -3}, "ft_steps must be at least 0, got -3"),
    ({"steps": 0}, "steps must be at least 1, got 0"),
    ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
])
def test_train_rejects_a_config_out_of_bounds(fields, message):
    config = TrainConfig(schedule="bon-joint-ft", **fields)
    with pytest.raises(BoundError) as exc:
        train(config, small_corpus(), small_dims())
    assert str(exc.value) == message


def small_corpus(pairs=60, seed=1):
    spec = SyntheticTaskSpec(
        kind="copy", vocab_size=10, min_len=2, max_len=5, pairs=pairs, seed=seed
    )
    return generate_task(spec)


def small_dims():
    return ModelDims(vocab=10, d=8, h=16, p_max=8, dl_max=2)


def test_train_reduces_loss():
    config = TrainConfig(schedule="ce", steps=150, batch_size=8, seed=3)
    state = train(config, small_corpus(), small_dims())
    first = np.mean([r["ce_loss"] for r in state.log[:10]])
    last = np.mean([r["ce_loss"] for r in state.log[-10:]])
    assert last < first


def test_train_deterministic():
    config = TrainConfig(schedule="ce", steps=30, batch_size=4, seed=9)
    a = train(config, small_corpus(), small_dims())
    b = train(config, small_corpus(), small_dims())
    for k in a.model.params:
        assert np.array_equal(a.model.params[k], b.model.params[k])
    for k in a.lp.params:
        assert np.array_equal(a.lp.params[k], b.lp.params[k])


def test_joint_alpha_one_matches_ce_schedule():
    corpus = small_corpus()
    dims = small_dims()
    ce = train(TrainConfig(schedule="ce", steps=30, batch_size=4, seed=9), corpus, dims)
    joint = train(
        TrainConfig(schedule="bon-joint", alpha=1.0, steps=30, batch_size=4, seed=9),
        corpus,
        dims,
    )
    for k in ce.model.params:
        assert np.array_equal(ce.model.params[k], joint.model.params[k])


def test_joint_alpha_zero_matches_bon_ft_schedule():
    corpus = small_corpus()
    dims = small_dims()
    base = train(TrainConfig(schedule="ce", steps=30, batch_size=4, seed=3), corpus, dims)
    ft = train(
        TrainConfig(schedule="bon-ft", steps=30, batch_size=4, seed=9),
        corpus,
        dims,
        init=base,
    )
    joint = train(
        TrainConfig(schedule="bon-joint", alpha=0.0, steps=30, batch_size=4, seed=9),
        corpus,
        dims,
        init=base,
    )
    for k in ft.model.params:
        assert np.array_equal(ft.model.params[k], joint.model.params[k])
    for k in ft.lp.params:
        assert np.array_equal(ft.lp.params[k], joint.lp.params[k])
    assert [r["bon_loss"] for r in ft.log] == [r["bon_loss"] for r in joint.log]


def test_bon_ft_requires_checkpoint():
    with pytest.raises(ValueError, match="source checkpoint"):
        train(TrainConfig(schedule="bon-ft", steps=10), small_corpus(), small_dims())


def test_bon_ft_runs_from_state():
    corpus = small_corpus()
    dims = small_dims()
    base = train(TrainConfig(schedule="ce", steps=100, batch_size=8, seed=3), corpus, dims)
    ft = train(
        TrainConfig(schedule="bon-ft", steps=50, batch_size=8, seed=4),
        corpus,
        dims,
        init=base,
    )
    assert ft.step == 150


def test_train_leaves_init_state_unchanged():
    corpus = small_corpus()
    dims = small_dims()
    base = train(TrainConfig(schedule="ce", steps=5, batch_size=4, seed=3), corpus, dims)
    before = {k: v.copy() for k, v in {**base.model.params, **base.lp.params}.items()}
    log_before = [dict(r) for r in base.log]
    ft = train(
        TrainConfig(schedule="bon-ft", steps=5, batch_size=4, seed=4),
        corpus,
        dims,
        init=base,
    )
    assert ft is not base and ft.step == 10 and base.step == 5
    for k, v in {**base.model.params, **base.lp.params}.items():
        assert np.array_equal(v, before[k])
    assert base.log == log_before
    assert not np.array_equal(ft.model.params["w1"], base.model.params["w1"])


@pytest.mark.parametrize("seed", range(4))
def test_train_adam_equals_a_per_block_reference(seed):
    """50 steps of `train` against the same loop with Adam written as one
    update per parameter block and the batch mean taken block by block."""
    rng = np.random.default_rng(seed)
    dims = ModelDims(vocab=10, d=int(rng.integers(1, 9)), h=int(rng.integers(1, 17)),
                     p_max=int(rng.integers(5, 12)), dl_max=int(rng.integers(0, 4)))
    config = TrainConfig(schedule="bon-joint", steps=50, lr=0.01, seed=seed,
                         batch_size=int(rng.integers(1, 9)))
    corpus = small_corpus(seed=seed)
    state = train(config, corpus, dims)

    rng = np.random.default_rng(config.seed)
    model, lp = NatModel.init(dims, rng), LengthPredictor.init(dims, rng)
    params = {**model.params, **lp.params}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2 = model_mod.ADAM_BETA1, model_mod.ADAM_BETA2
    for t in range(1, config.steps + 1):
        idx = rng.integers(0, len(corpus), size=config.batch_size)
        grads = batch_gradients(model, lp, [corpus[i] for i in idx.tolist()],
                                config.alpha, config.n).grads
        for k in grads:
            grads[k] /= config.batch_size
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            params[k] -= config.lr * m_hat / (np.sqrt(v_hat) + model_mod.ADAM_EPS)

    got = {**state.model.params, **state.lp.params}
    assert list(got) == list(params)
    for k in params:
        assert got[k].shape == params[k].shape
        assert got[k].tobytes() == params[k].tobytes(), k


def per_sentence_gradients(model, lp, pairs, ce_weight, n):
    """One forward, backward and length-predictor call per sentence: the
    reference that `batch_gradients` must sum to."""
    grads = {k: np.zeros_like(v) for k, v in {**model.params, **lp.params}.items()}
    ce_sum = bon_sum = 0.0
    for pair in pairs:
        probs, cache = model._forward_cache(pair.source, len(pair.target))
        ce = cross_entropy(probs, pair.target)
        bon = bon_loss(probs, pair.target, n)
        ce_sum += ce.value
        bon_sum += bon.value
        for k, g in model.backward(cache, mix(ce_weight, ce.grad, bon.grad)).items():
            grads[k] += g
        enc_sum = model.encoder_states(pair.source).sum(axis=0, keepdims=True)
        diff = np.array([len(pair.target) - len(pair.source)])
        _, lp_grads, d_enc_sum = lp.loss_and_grads(enc_sum, diff)
        for k, g in lp_grads.items():
            grads[k] += g
        np.add.at(grads["src_emb"], np.asarray(pair.source), d_enc_sum[0])
    return grads, ce_sum, bon_sum


@pytest.mark.parametrize("ce_weight", [1.0, 0.1, 0.0])
def test_batch_gradients_equal_per_sentence_sum(ce_weight):
    dims = ModelDims(vocab=200, d=6, h=12, p_max=32, dl_max=3)
    model, lp = fresh(5, dims)
    rng = np.random.default_rng(11)

    def pair(S, T):
        return ParallelPair(
            tuple(int(x) for x in rng.integers(2, dims.vocab, size=S)),
            tuple(int(x) for x in rng.integers(2, dims.vocab, size=T)),
        )

    # T=1 and T=2 are shorter than n=3; T=p_max; sources longer and
    # shorter than targets, and by more than dl_max
    corpus = [pair(1, 1), pair(4, 2), pair(9, 32), pair(30, 31), pair(5, 12),
              pair(17, 16), pair(2, 1), pair(12, 20)]
    ids = [3, 0, 2, 2, 4, 1, 5, 6, 3, 7, 2, 0, 6, 4, 1, 5]
    pairs = [corpus[i] for i in ids]
    lengths = [len(p.target) for p in pairs]
    got = batch_gradients(model, lp, pairs, ce_weight, 3)
    want, ce_sum, bon_sum = per_sentence_gradients(model, lp, pairs, ce_weight, 3)
    assert got.diverged is None
    assert got.degenerate == sum(T < 3 for T in lengths)
    assert got.ce == pytest.approx(ce_sum, rel=1e-12)
    assert got.bon == pytest.approx(bon_sum, rel=1e-12)
    assert set(got.grads) == set(want)
    for k in want:
        # summed in another order: entries that cancel to near zero are
        # held to the rounding of the gradient's largest entry
        scale = np.abs(want[k]).max()
        np.testing.assert_allclose(
            got.grads[k], want[k], rtol=1e-12, atol=1e-12 * scale, err_msg=k
        )


def test_batch_gradients_is_one_pass_per_step(monkeypatch):
    dims = ModelDims(vocab=200, d=4, h=8, p_max=32, dl_max=3)
    corpus = generate_task(SyntheticTaskSpec("copy", 200, 16, 30, 16, seed=2))
    model, lp = fresh(7, dims)
    # a batch of several 16384-cell (128 KiB) tables
    assert sum(len(p.target) for p in corpus) * dims.vocab > 16384
    calls = {}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(NatModel, "forward_rows")
    spy(NatModel, "backward")
    spy(model_mod, "cross_entropy")
    spy(model_mod, "bon_loss")
    got = batch_gradients(model, lp, corpus, 0.5, 3)
    assert got.diverged is None
    assert calls == {"forward_rows": 1, "cross_entropy": 1, "bon_loss": 1,
                     "backward": 1}
    # a NaN embedding of a token that first occurs in sentence k: the
    # first bad sentence is read from the step's own arrays
    k = 5
    earlier = {t for p in corpus[:k] for t in p.source}
    tok = next(t for t in corpus[k].source if t not in earlier)
    model.params["src_emb"][tok, 0] = np.nan
    calls.clear()
    got = batch_gradients(model, lp, corpus, 0.5, 3)
    assert got.diverged == k and got.grads == {}
    assert calls == {"forward_rows": 1, "cross_entropy": 1, "bon_loss": 1}


@pytest.mark.parametrize("schedule", ["ce", "bon-joint", "bon-joint-ft"])
def test_train_workspace_reuse_is_invisible(schedule):
    """`train` reuses one workspace for every step, here with ΣT changing
    from step to step, in phases of CE weight 1, alpha and 0. Stepping
    `batch_gradients` through the same Adam, once with a fresh workspace
    per step and once with one refilled with NaN between steps, gives
    the same parameters bit for bit."""
    dims = ModelDims(vocab=30, d=5, h=9, p_max=30, dl_max=3)
    corpus = generate_task(SyntheticTaskSpec("dict", 30, 2, 30, 60, seed=4))
    assert {len(p.target) for p in corpus} >= {2, 30}
    config = TrainConfig(schedule=schedule, n=3, lr=0.01, steps=25, ft_steps=15,
                         batch_size=5, seed=6)
    want = train(config, corpus, dims)
    want = {**want.model.params, **want.lp.params}
    ws = np.empty((3, config.batch_size * 30, dims.vocab))
    for shared in (None, ws):
        rng = np.random.default_rng(config.seed)
        model, lp = NatModel.init(dims, rng), LengthPredictor.init(dims, rng)
        opt = Adam(model.params, lp.params, lr=config.lr)
        for ce_weight, budget in config.phases():
            for _ in range(budget):
                idx = rng.integers(0, len(corpus), size=config.batch_size)
                ws.fill(np.nan)
                batch = batch_gradients(model, lp, [corpus[i] for i in idx.tolist()],
                                        ce_weight, config.n, shared)
                opt.step(batch.grads, config.batch_size)
        got = {**model.params, **lp.params}
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), (shared is None, k)


def test_batch_gradients_allocates_less_than_two_tables():
    """A warm long-n3 step (batch 16, targets of 16-30 tokens, V = 200,
    n = 3, w = 0.1) given its workspace allocates, at its peak, less than
    two ΣT x V tables besides it."""
    dims = ModelDims(vocab=200, d=16, h=32, p_max=32, dl_max=8)
    corpus = generate_task(SyntheticTaskSpec("dict", 200, 16, 30, 16, seed=3))
    model, lp = fresh(1, dims)
    rows = sum(len(p.target) for p in corpus)
    ws = np.empty((3, rows, dims.vocab))
    batch_gradients(model, lp, corpus, 0.1, 3, ws)
    tracemalloc.start()
    try:
        batch = batch_gradients(model, lp, corpus, 0.1, 3, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.diverged is None
    table = rows * dims.vocab * 8
    assert peak < 2 * table, peak / table


def test_non_finite_loss_names_the_first_bad_sentence():
    dims = ModelDims(vocab=2000, d=4, h=8, p_max=8, dl_max=2)
    corpus = generate_task(SyntheticTaskSpec("copy", 2000, 4, 8, 60, seed=1))
    base = train(TrainConfig(schedule="ce", steps=2, batch_size=8, seed=3),
                 corpus, dims)
    config = TrainConfig(schedule="ce", steps=5, batch_size=8, seed=4)
    # with an init state the first draw of the seeded generator is the batch
    ids = np.random.default_rng(config.seed).integers(0, len(corpus), size=8)
    batch = [corpus[i] for i in ids]
    # NaN in a token that first occurs in a sentence after the first
    k = 5
    earlier = {t for p in batch[:k] for t in p.source}
    tok = next(t for t in batch[k].source if t not in earlier)
    base.model.params["src_emb"][tok, 0] = np.nan
    with pytest.raises(TrainingDiverged) as exc:
        train(config, corpus, dims, init=base)
    assert (exc.value.step, exc.value.sentence) == (2, int(ids[k]))


@pytest.mark.parametrize("init_p_max", [None, 6])
def test_train_checks_capacity_before_the_first_step(init_p_max, monkeypatch):
    corpus, dims = small_corpus(), small_dims()
    init, p_max = None, dims.p_max
    if init_p_max is not None:  # the init state's dims are the ones checked
        p_max = init_p_max
        init = train(TrainConfig(schedule="ce", steps=1, batch_size=4), corpus,
                     dataclasses.replace(dims, p_max=p_max))

    def no_step(*_):
        raise AssertionError("a step ran")

    monkeypatch.setattr(model_mod, "batch_gradients", no_step)
    config = TrainConfig(schedule="ce", steps=5, batch_size=4)
    too_long = ParallelPair((2, 3, 4), (3,) * (p_max + 1))
    message = f"^target length {p_max + 1} exceeds position capacity {p_max}$"
    with pytest.raises(CapacityError, match=message):
        train(config, [*corpus, too_long], dims, init=init)
    with pytest.raises(ValueError, match="^target length must be at least 1$"):
        train(config, [*corpus, ParallelPair((2, 3), ())], dims, init=init)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        train(TrainConfig(schedule="ce", steps=5), [], small_dims())


def test_checkpoint_round_trip(tmp_path):
    state = train(
        TrainConfig(schedule="ce", steps=10, batch_size=4, seed=2),
        small_corpus(),
        small_dims(),
    )
    path = tmp_path / "model.bin"
    digest = ckpt.save(path, state, seed=2)
    loaded, header = ckpt.load(path)
    assert header["seed"] == 2 and header["step"] == 10
    assert digest == header["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert loaded.model.dims == state.model.dims
    for k in state.model.params:
        assert np.array_equal(loaded.model.params[k], state.model.params[k])
    for k in state.lp.params:
        assert np.array_equal(loaded.lp.params[k], state.lp.params[k])


def test_checkpoint_rejects_unknown_version(tmp_path):
    state = train(
        TrainConfig(schedule="ce", steps=5, batch_size=4, seed=2),
        small_corpus(),
        small_dims(),
    )
    path = tmp_path / "model.bin"
    ckpt.save(path, state, seed=2)
    data = bytearray(path.read_bytes())
    data[len(ckpt.MAGIC)] = 99  # bump the version field
    path.write_bytes(bytes(data))
    with pytest.raises(ckpt.CheckpointError, match="version"):
        ckpt.load(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load(path)


def test_adam_moves_toward_minimum():
    params = {"x": np.array([5.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(300):
        opt.step({"x": 2 * params["x"]})
    assert abs(params["x"][0]) < 0.1
