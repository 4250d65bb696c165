"""An eval forward carries one residual buffer through every block: given
``in_place=True`` and no active tape, the fused sublayers write their
output over x's own buffer. Writing in place must give the bytes of the
call that allocates; under a tape, and for a ``last_only`` attention,
the permission is not used, and no op changes its input unless it is
given the permission."""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor
from tabformer.model import FeatureTokenizer, Model, TransformerBlock
from test_fused_sublayers import DEFAULT, SMALL, T, block, inputs
from test_last_token import rows, schema


def attention(blk, x, rate=0.0, rng=None, last_only=False, in_place=False):
    cfg = blk.config
    return ad.attention_sublayer(
        x, blk.ln1_g, blk.ln1_b, blk.w_q, blk.w_k, blk.w_v, blk.w_o,
        cfg.n_heads, cfg.layer_norm_eps, rate, rng, last_only=last_only, in_place=in_place,
    )


def ffn(blk, x, rate=0.0, rng=None, mask_tokens=None, in_place=False):
    return ad.ffn_sublayer(
        x, blk.ln2_g, blk.ln2_b, blk.ffn_w1, blk.ffn_b1, blk.ffn_w2, blk.ffn_b2,
        blk.config.layer_norm_eps, rate, rng, mask_tokens=mask_tokens, in_place=in_place,
    )


# case -> (op, token rows of x, keyword arguments); the last-token FFN
# runs on the one row a ``last_only`` attention returns
CASES = {
    "attention": (attention, T, {}),
    "ffn": (ffn, T, {}),
    "ffn-last-token": (ffn, 1, {"mask_tokens": T}),
}


def tile(cfg, case, t):
    """Samples per tile of the case's op at ``cfg`` and t token rows."""
    widest = cfg.n_heads * T if case == "attention" else cfg.ffn_dim
    return ad._tile_rows(t * max(cfg.embed_dim, widest))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg", [DEFAULT, SMALL], ids=["default", "small"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_writing_into_x_gives_the_bytes_of_a_fresh_output(case, cfg, workers, monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", workers)
    op, t, kwargs = CASES[case]
    blk = block(cfg)
    rows_per_tile = tile(cfg, case, t)
    assert rows_per_tile > 1
    for n in (1, rows_per_tile - 1, rows_per_tile, rows_per_tile + 1, 2 * rows_per_tile + 1):
        x0 = inputs((n, t, cfg.embed_dim))
        for rate in (0.0, 0.1):
            want = op(blk, Tensor(x0), rate, np.random.default_rng(3), **kwargs).data
            x = Tensor(x0.copy())
            got = op(blk, x, rate, np.random.default_rng(3), in_place=True, **kwargs).data
            assert np.shares_memory(got, x.data)
            assert got.tobytes() == want.tobytes()


def test_in_place_allocates_under_a_tape_and_for_a_last_only_attention():
    blk = block(SMALL)
    x0 = inputs((4, T, 16))
    # case -> (under a tape, op, keyword arguments); a last_only attention
    # returns one row per sample, [n, 1, d]
    cases = {
        "attention-taped": (True, attention, {}),
        "ffn-taped": (True, ffn, {}),
        "attention-last-token": (False, attention, {"last_only": True}),
    }
    for case, (taped, op, kwargs) in cases.items():
        for rate in (0.0, 0.1):
            want = op(blk, Tensor(x0), rate, np.random.default_rng(3), **kwargs).data
            x = Tensor(x0.copy(), requires_grad=taped)
            with Tape() if taped else contextlib.nullcontext():
                got = op(blk, x, rate, np.random.default_rng(3), in_place=True, **kwargs).data
            assert not np.shares_memory(got, x.data), case
            assert x.data.tobytes() == x0.tobytes(), case
            assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
def test_no_op_changes_its_input_unless_given_out(taped, training):
    rate, rng = (0.1, np.random.default_rng(0)) if training else (0.0, None)
    blk = block(SMALL)
    X = rows(9)
    tok = FeatureTokenizer(schema(), 16, np.random.default_rng(1))
    before = [X.tobytes()] + [p.data.tobytes() for p in tok.parameters()]
    x0 = inputs((9, T, 16))
    x = Tensor(x0.copy(), requires_grad=taped)
    calls = [
        lambda: tok.forward_batch(X),
        lambda: attention(blk, x, rate, rng),
        lambda: attention(blk, x, rate, rng, last_only=True),
        lambda: ffn(blk, x, rate, rng),
        lambda: ffn(blk, Tensor(x0[:, -1:].copy()), rate, rng, mask_tokens=T),
        lambda: blk.forward(x, training, rng),
        lambda: blk.forward(x, training, rng, last_only=True),
    ]
    with Tape() if taped else contextlib.nullcontext():
        for call in calls:
            call()
    assert [X.tobytes()] + [p.data.tobytes() for p in tok.parameters()] == before
    assert x.data.tobytes() == x0.tobytes()


def test_warm_eval_predict_allocates_one_residual_buffer(monkeypatch):
    # per-thread tile scratch grows with the thread count, so the bound
    # is for the two threads it was measured with
    monkeypatch.setattr(ad, "_WORKERS", 2)
    model = Model(DEFAULT, schema(), seed=1)
    X = rows(801)
    model.predict_proba(X)  # warm: the helper pool and first-call set-up
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = model.predict_proba(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # measured 11.0 MB; a fresh output per sublayer and the tokenizer's
    # two (n, f, d) temporaries peaked at 18.6 MB
    assert peak < 12.5e6
    forward = TransformerBlock.forward

    def allocating(self, x, training=False, rng=None, last_only=False, in_place=False):
        return forward(self, x, training, rng, last_only)

    monkeypatch.setattr(TransformerBlock, "forward", allocating)
    assert got.tobytes() == model.predict_proba(X).tobytes()
