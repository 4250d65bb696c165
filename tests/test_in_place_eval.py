"""The forward pass carries one residual buffer through every block:
given ``in_place=True``, the fused sublayers write their output over x's
own buffer, with or without an active tape. Writing in place must give
the bytes of the call that allocates and, under a tape, its gradients,
because no vjp reads its op's input. A ``last_only`` attention over more
than one token, whose output is one row, allocates, and no op changes
its input unless it is given the permission."""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor
from tabformer.model import FeatureTokenizer, Model, TransformerBlock
from tabformer.training import balanced_bce
from test_fused_sublayers import DEFAULT, SMALL, T, block, default_step, inputs
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
    return max(1, ad._TILE_ELEMENTS // (t * max(cfg.embed_dim, widest)))


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


def recorded(op, blk, x0, rate, in_place, spoil=False, **kwargs):
    """(output bytes, whether the output shares x's buffer, x's gradient,
    the parameter gradients) of sum(out * w) recorded on a tape. With
    ``spoil`` x's buffer is filled with NaN after the forward pass: the
    output's too when it was written in place, which ``mul`` then reads
    only for w's gradient, and w takes none."""
    x = Tensor(x0.copy(), requires_grad=True)
    for p in blk.parameters():
        p.zero_grad()
    with Tape() as tape:
        out = op(blk, x, rate, np.random.default_rng(3), in_place=in_place, **kwargs)
        w = Tensor(inputs(out.shape, seed=2))
        loss = ad.sum_all(ad.mul(out, w))
    got = (out.data.tobytes(), np.shares_memory(out.data, x.data))
    if spoil:
        x.data.fill(np.nan)
    tape.backward(loss)
    return got + (x.grad.tobytes(), [p.grad.tobytes() for p in blk.parameters()])


def test_in_place_writes_over_x_under_a_tape_at_the_allocating_bits(monkeypatch):
    blk = block(SMALL)
    for workers in (1, 2):
        monkeypatch.setattr(ad, "_WORKERS", workers)
        for case, (op, t, kwargs) in CASES.items():
            x0 = inputs((2 * tile(SMALL, case, t) + 1, t, 16))
            for rate in (0.0, 0.1):
                want = recorded(op, blk, x0, rate, False, **kwargs)
                got = recorded(op, blk, x0, rate, True, **kwargs)
                assert not want[1] and got[1], case
                assert got[0] == want[0] and got[2:] == want[2:], (case, workers, rate)
    # a last_only attention returns one row per sample, [n, 1, d], so
    # with a tape or without it allocates and leaves x as it was
    x0 = inputs((4, T, 16))
    for rate in (0.0, 0.1):
        want = recorded(attention, blk, x0, rate, False, last_only=True)
        assert recorded(attention, blk, x0, rate, True, last_only=True) == want
        x = Tensor(x0.copy())
        got = attention(blk, x, rate, np.random.default_rng(3), last_only=True, in_place=True).data
        assert not np.shares_memory(got, x.data)
        assert x.data.tobytes() == x0.tobytes()
        assert got.tobytes() == want[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_backward_after_x_is_overwritten_gives_the_same_gradients(case, monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 2)
    op, t, kwargs = CASES[case]
    blk = block(SMALL)
    x0 = inputs((2 * tile(SMALL, case, t) + 1, t, 16))
    for rate in (0.0, 0.1):
        want = recorded(op, blk, x0, rate, False, **kwargs)
        assert recorded(op, blk, x0, rate, True, spoil=True, **kwargs)[2:] == want[2:], rate


def test_training_step_backward_never_reads_the_residual_buffer(monkeypatch):
    # the tokenizer's output is the residual buffer every full block
    # writes over; NaN in it after the forward pass changes no gradient
    monkeypatch.setattr(ad, "_WORKERS", 2)
    model = Model(SMALL, schema(), seed=1)
    X, y = rows(37), (np.arange(37) % 3 == 0).astype(float)
    tokens = []
    tokenize = FeatureTokenizer.forward_batch

    def kept(self, X):
        tokens.append(tokenize(self, X))
        return tokens[-1]

    monkeypatch.setattr(FeatureTokenizer, "forward_batch", kept)

    def gradients(spoil):
        for p in model.parameters():
            p.zero_grad()
        with Tape() as tape:
            probs = model.forward_batch(X, training=True, rng=np.random.default_rng(4))
            loss = balanced_bce(probs, y, (1.0, 2.0))
        if spoil:
            tokens[-1].data.fill(np.nan)
        tape.backward(loss)
        return [p.grad.tobytes() for p in model.parameters()]

    assert gradients(spoil=True) == gradients(spoil=False)


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


def test_warm_training_step_carries_one_residual_buffer(monkeypatch):
    # per-thread tile scratch grows with the thread count, so the bound
    # is for the two threads it was measured with
    monkeypatch.setattr(ad, "_WORKERS", 2)
    model, X, y, rng = default_step()

    def step():
        with Tape() as tape:
            loss = balanced_bce(model.forward_batch(X, training=True, rng=rng), y, (1.0, 2.0))
            tape.backward(loss)

    for _ in range(3):  # warm: the helper pool and the vjp workspace
        step()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # measured 30.3 MB; saving attention's q, k, v and context peaked at
    # 42.1-42.5 MB, and a fresh output per sublayer as well at 47.8 MB
    assert peak < 33e6
