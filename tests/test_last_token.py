"""The last transformer block computes the classification token's row
only. Its oracle is the last row of the full block: outputs and every
gradient within 1e-12, and the dropout rng left in the same state."""

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor, grad_check
from tabformer.data import CATEGORICAL, NUMERIC, ColumnSchema, FeatureSchema
from tabformer.errors import ShapeError
from tabformer.model import Model, ModelConfig, TransformerBlock
from test_fused_sublayers import DEFAULT, SMALL, T, block, inputs, tile_rows

ONE_BLOCK = ModelConfig(embed_dim=16, n_heads=4, n_blocks=1, ffn_dim=32, dropout=0.1)
CONFIGS = {"default": DEFAULT, "small": SMALL, "one-block": ONE_BLOCK}


def last_row(out):
    """out[..., -1:, :] as a recorded op."""
    row = ad.select_row(out, -1)
    return ad.reshape(row, row.shape[:-1] + (1, row.shape[-1]))


def full_last_row(blk, x, training, rng):
    """The oracle: the last token row of the full block."""
    return last_row(blk.forward(x, training, rng))


def last_only(blk, x, training, rng):
    return blk.forward(x, training, rng, last_only=True)


def run_block(op, blk, x0, training):
    """(output, input gradient, parameter gradients, next rng draw) of
    sum(out * w) under a tape."""
    rng = np.random.default_rng(3)
    x = Tensor(x0, requires_grad=True)
    w = Tensor(np.random.default_rng(2).normal(size=x0.shape[:-2] + (1, x0.shape[-1])))
    for p in blk.parameters():
        p.zero_grad()
    with Tape() as tape:
        out = op(blk, x, training, rng)
        tape.backward(ad.sum_all(ad.mul(out, w)))
    return out.data, x.grad, [p.grad.copy() for p in blk.parameters()], rng.random()


def assert_close(got, want):
    assert got[0].shape == want[0].shape
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    for g, e in zip(got[2], want[2]):
        np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)
    assert got[3] == want[3]  # the dropout stream is consumed as by the full block


def batch_sizes(cfg):
    tile = tile_rows(cfg, "attention")
    return (1, tile - 1, tile + 1)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("cfg", [DEFAULT, SMALL], ids=["default", "small"])
def test_last_only_block_matches_the_full_blocks_last_row(cfg, training):
    blk = block(cfg)
    for n in batch_sizes(cfg):
        x0 = inputs((n, T, cfg.embed_dim))
        assert_close(run_block(last_only, blk, x0, training), run_block(full_last_row, blk, x0, training))
        # with no tape the forward pass runs the eval-mode tile buffers
        want = full_last_row(blk, Tensor(x0), False, None).data
        np.testing.assert_allclose(last_only(blk, Tensor(x0), False, None).data, want, rtol=0, atol=1e-12)


def test_unbatched_and_multi_axis_inputs():
    blk = block(SMALL)
    for shape in ((T, 16), (3, 4, T, 16)):
        for training in (False, True):
            x0 = inputs(shape)
            got = run_block(last_only, blk, x0, training)
            assert got[0].shape == shape[:-2] + (1, 16)
            assert_close(got, run_block(full_last_row, blk, x0, training))


def schema():
    columns = tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(8))
    grp = ColumnSchema("grp", CATEGORICAL, vocabulary=("a", "b", "c", "d"))
    return FeatureSchema(columns + (grp,))


def rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(size=(n, 8)), rng.integers(0, 4, size=n)])


def logits_and_gradients(model, X, training):
    rng = np.random.default_rng(5)
    w = Tensor(np.random.default_rng(6).normal(size=(X.shape[0], 1)))
    for p in model.parameters():
        p.zero_grad()
    with Tape() as tape:
        z = model._logits(X, training, rng)
        tape.backward(ad.sum_all(ad.mul(z, w)))
    return z.data, [p.grad.copy() for p in model.parameters()], rng.random()


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_model_logits_match_the_full_path(name, training, monkeypatch):
    cfg = CONFIGS[name]
    model = Model(cfg, schema(), seed=1)
    for n in batch_sizes(cfg):
        X = rows(n)
        got = logits_and_gradients(model, X, training)
        with monkeypatch.context() as m:
            forward = TransformerBlock.forward

            def full(self, x, training=False, rng=None, last_only=False, in_place=False):
                out = forward(self, x, training, rng)  # the allocating full path, whatever in_place says
                return last_row(out) if last_only else out

            m.setattr(TransformerBlock, "forward", full)
            want = logits_and_gradients(model, X, training)
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        for g, e in zip(got[1], want[1]):
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)
        assert got[2] == want[2]


def test_forward_runs_every_block_through_transformer_block_forward(monkeypatch):
    model = Model(DEFAULT, schema(), seed=1)
    calls = []
    forward = TransformerBlock.forward

    def counting(self, x, *args, **kwargs):
        calls.append((x.shape, kwargs.get("last_only", False)))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(TransformerBlock, "forward", counting)
    model.forward_batch(rows(7), training=True, rng=np.random.default_rng(0))
    model.predict_proba(rows(7))
    want = [((7, T, 64), False)] * (DEFAULT.n_blocks - 1) + [((7, T, 64), True)]
    assert calls == want * 2


@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["eval", "train"])
def test_grad_check_last_only(rate):
    cfg = ModelConfig(embed_dim=4, n_heads=2, n_blocks=1, ffn_dim=6, dropout=rate)
    blk = block(cfg, seed=4)
    x = Tensor(inputs((3, 3, 4), seed=5), requires_grad=True)
    w = Tensor(inputs((3, 1, 4), seed=6))

    def f():
        rng = np.random.default_rng(7)  # the same masks each call
        return ad.sum_all(ad.mul(last_only(blk, x, rate > 0.0, rng), w))

    assert grad_check(f, [x] + blk.parameters()) < 1e-6


def test_ffn_mask_tokens_below_the_input_rows_are_rejected():
    blk = block(SMALL)
    x = Tensor(inputs((2, 3, 16)))
    with pytest.raises(ShapeError, match="mask"):
        ad.ffn_sublayer(
            x, blk.ln2_g, blk.ln2_b, blk.ffn_w1, blk.ffn_b1, blk.ffn_w2, blk.ffn_b2,
            rate=0.1, rng=np.random.default_rng(0), mask_tokens=2,
        )
