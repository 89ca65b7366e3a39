import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bonnat import checkpoint as ckpt
from bonnat.corpus import PAD, ParallelPair, SyntheticTaskSpec, generate_task
from bonnat.gradcheck import fd_param_gradients, worst_rel_error
from bonnat.loss import JointConfig, bon_loss, cross_entropy, joint_loss, mix
from bonnat.model import (
    GROUP_CELLS,
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
    row_groups,
    train,
)

DIMS = ModelDims(vocab=6, d=4, h=8, p_max=8, dl_max=2)


def fresh(seed=0, dims=DIMS):
    rng = np.random.default_rng(seed)
    return NatModel.init(dims, rng), LengthPredictor.init(dims, rng)


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
    assert len(row_groups(lengths, dims.vocab)) > 1
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


def test_row_groups_bound_the_table():
    V = 128  # GROUP_CELLS holds 128 rows
    lengths = [30, 60, 80, 200, 1, 1, 126, 1]
    groups = row_groups(lengths, V)
    assert [list(g) for g in groups] == [[0, 1], [2], [3], [4, 5, 6], [7]]
    for g in groups:
        cells = sum(lengths[i] for i in g) * V
        assert cells <= GROUP_CELLS or len(g) == 1


def test_non_finite_loss_names_the_first_bad_sentence():
    dims = ModelDims(vocab=2000, d=4, h=8, p_max=8, dl_max=2)
    corpus = generate_task(SyntheticTaskSpec("copy", 2000, 4, 8, 60, seed=1))
    base = train(TrainConfig(schedule="ce", steps=2, batch_size=8, seed=3),
                 corpus, dims)
    config = TrainConfig(schedule="ce", steps=5, batch_size=8, seed=4)
    # with an init state the first draw of the seeded generator is the batch
    ids = np.random.default_rng(config.seed).integers(0, len(corpus), size=8)
    batch = [corpus[i] for i in ids]
    groups = row_groups([len(p.target) for p in batch], dims.vocab)
    assert len(groups) > 1
    # NaN in a token that first occurs in the last row group's first sentence
    k = groups[-1].start
    earlier = {t for p in batch[:k] for t in p.source}
    tok = next(t for t in batch[k].source if t not in earlier)
    base.model.params["src_emb"][tok, 0] = np.nan
    with pytest.raises(TrainingDiverged) as exc:
        train(config, corpus, dims, init=base)
    assert (exc.value.step, exc.value.sentence) == (2, int(ids[k]))


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
    ckpt.save(path, state, seed=2)
    loaded, header = ckpt.load(path)
    assert header["seed"] == 2 and header["step"] == 10
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
