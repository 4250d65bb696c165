"""The fused sublayers ``autodiff.attention_sublayer`` and
``autodiff.ffn_sublayer`` against their oracle: the same sublayer built
from primitive ops (``TransformerBlock.multi_head`` for attention). The
forward pass must be bitwise equal to the composite and consume the rng
identically; input and parameter gradients must agree within 1e-12."""

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor, grad_check
from tabformer.data import CATEGORICAL, NUMERIC, ColumnSchema, FeatureSchema
from tabformer.errors import ConfigError, NumericError, ShapeError
from tabformer.model import Model, ModelConfig, TransformerBlock
from tabformer.training import balanced_bce

DEFAULT = ModelConfig()
SMALL = ModelConfig(embed_dim=16, n_heads=4, n_blocks=2, ffn_dim=32, dropout=0.1)
T = 10  # nine features and the classification token, as in the benchmark table


def composite_attention(blk, x, rate, rng):
    eps = blk.config.layer_norm_eps
    attn = blk.multi_head(ad.layer_norm(x, blk.ln1_g, blk.ln1_b, eps), rate > 0.0, rng)
    if rate > 0.0:
        attn = ad.dropout(attn, rate, rng, training=True)
    return ad.add(x, attn)


def composite_ffn(blk, x, rate, rng):
    h = ad.layer_norm(x, blk.ln2_g, blk.ln2_b, blk.config.layer_norm_eps)
    h = ad.gelu(ad.add_bias(ad.matmul(h, blk.ffn_w1), blk.ffn_b1))
    out = ad.add_bias(ad.matmul(h, blk.ffn_w2), blk.ffn_b2)
    if rate > 0.0:
        out = ad.dropout(out, rate, rng, training=True)
    return ad.add(x, out)


def fused_attention(blk, x, rate, rng):
    cfg = blk.config
    return ad.attention_sublayer(
        x, blk.ln1_g, blk.ln1_b, blk.w_q, blk.w_k, blk.w_v, blk.w_o,
        cfg.n_heads, cfg.layer_norm_eps, rate, rng,
    )


def fused_ffn(blk, x, rate, rng):
    return ad.ffn_sublayer(
        x, blk.ln2_g, blk.ln2_b, blk.ffn_w1, blk.ffn_b1, blk.ffn_w2, blk.ffn_b2,
        blk.config.layer_norm_eps, rate, rng,
    )


PAIRS = {
    "attention": (composite_attention, fused_attention),
    "ffn": (composite_ffn, fused_ffn),
}


def tile_rows(cfg, kind):
    """Samples per tile of the fused op at ``cfg`` and T tokens."""
    d = cfg.embed_dim
    width = max(d, cfg.n_heads * T) if kind == "attention" else max(d, cfg.ffn_dim)
    return ad._tile_rows(T * width)


def run(op, blk, x0, rate, seed=3):
    """(output, input gradient, parameter gradients, next rng draw) of
    sum(out * w) under a tape."""
    rng = np.random.default_rng(seed) if rate > 0.0 else None
    x = Tensor(x0, requires_grad=True)
    w = Tensor(np.random.default_rng(2).normal(size=x0.shape))
    for p in blk.parameters():
        p.zero_grad()
    with Tape() as tape:
        out = op(blk, x, rate, rng)
        loss = ad.sum_all(ad.mul(out, w))
    tape.backward(loss)
    after = None if rng is None else rng.random()
    return out.data, x.grad, [p.grad.copy() for p in blk.parameters()], after


def block(cfg, seed=0):
    return TransformerBlock(cfg, np.random.default_rng(seed), index=0)


def inputs(shape, seed=1):
    return np.random.default_rng(seed).normal(size=shape)


def assert_matches_composite(kind, cfg, x0, rate):
    composite, fused = PAIRS[kind]
    blk = block(cfg)
    want = run(composite, blk, x0, rate)
    got = run(fused, blk, x0, rate)
    assert np.array_equal(got[0], want[0])
    assert got[3] == want[3]  # the rng is left where the composite leaves it
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    for g, e in zip(got[2], want[2]):
        np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)
    # with no tape the forward pass is the eval-mode path, its own buffers
    rng = np.random.default_rng(3) if rate > 0.0 else None
    assert np.array_equal(fused(blk, Tensor(x0), rate, rng).data, want[0])


@pytest.mark.parametrize("kind", sorted(PAIRS))
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["eval", "train"])
@pytest.mark.parametrize("cfg", [DEFAULT, SMALL], ids=["default", "small"])
def test_fused_op_matches_its_composite(kind, rate, cfg):
    assert_matches_composite(kind, cfg, inputs((150, T, cfg.embed_dim)), rate)


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_tile_boundaries_do_not_change_results(kind):
    tile = tile_rows(DEFAULT, kind)
    assert 1 < tile < 150
    for n in (1, tile - 1, tile, tile + 1, 2 * tile + 1):
        for rate in (0.0, 0.1):
            assert_matches_composite(kind, DEFAULT, inputs((n, T, 64)), rate)


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_unbatched_and_multi_axis_inputs(kind):
    for shape in ((T, 64), (3, 4, T, 64)):
        for rate in (0.0, 0.1):
            assert_matches_composite(kind, DEFAULT, inputs(shape), rate)
    _, fused = PAIRS[kind]
    blk = block(DEFAULT)
    x0 = inputs((T, 64))
    single = fused(blk, Tensor(x0), 0.0, None).data
    assert np.array_equal(single, fused(blk, Tensor(x0[None]), 0.0, None).data[0])


@pytest.mark.parametrize("kind", sorted(PAIRS))
@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["eval", "train"])
def test_grad_check(kind, rate):
    cfg = ModelConfig(embed_dim=4, n_heads=2, n_blocks=1, ffn_dim=6, dropout=rate)
    blk = block(cfg, seed=4)
    _, fused = PAIRS[kind]
    x = Tensor(inputs((3, 3, 4), seed=5), requires_grad=True)
    w = Tensor(inputs((3, 3, 4), seed=6))

    def f():
        rng = np.random.default_rng(7) if rate > 0.0 else None  # the same masks each call
        return ad.sum_all(ad.mul(fused(blk, x, rate, rng), w))

    assert grad_check(f, [x] + blk.parameters()) < 1e-6


def test_one_node_per_sublayer_and_checked_output():
    blk = block(SMALL)
    x = Tensor(inputs((4, 3, 16)), requires_grad=True)
    with Tape() as tape:
        blk.forward(x, training=True, rng=np.random.default_rng(0))
    assert [n.vjp.__qualname__.split(".")[0] for n in tape.nodes] == [
        "attention_sublayer", "ffn_sublayer",
    ]
    blk.ffn_w2.data[...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="ffn_sublayer"):
        blk.forward(x)


def test_bad_arguments_are_rejected():
    blk = block(SMALL)
    x = Tensor(inputs((2, 3, 16)))
    with pytest.raises(ConfigError):
        fused_attention(blk, x, 0.1, None)  # dropout needs an rng
    with pytest.raises(ConfigError):
        fused_ffn(blk, x, 1.0, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        fused_attention(blk, Tensor(inputs((2, 3, 8))), 0.0, None)
    with pytest.raises(ShapeError):
        ad.attention_sublayer(x, blk.ln1_g, blk.ln1_b, blk.w_q, blk.w_k, blk.w_v, blk.w_o, 3)


def test_default_training_step_records_at_most_20_nodes():
    columns = tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(8))
    grp = ColumnSchema("grp", CATEGORICAL, vocabulary=("a", "b", "c", "d"))
    schema = FeatureSchema(columns + (grp,))
    model = Model(DEFAULT, schema, seed=0)
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=(256, 8)), rng.integers(0, 4, size=256)])
    y = (rng.random(256) < 0.3).astype(float)
    with Tape() as tape:
        probs = model.forward_batch(X, training=True, rng=rng)
        loss = balanced_bce(probs, y, (1.0, 2.0))
        tape.backward(loss)
    assert len(tape.nodes) <= 20
