"""The training step's kernels that must not move a bit: softmax's
unrolled row reductions against numpy's, the equal tile partition, and
the vjps' per-thread workspace, which must never leak into a result or
into another backward pass."""

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor
from tabformer.model import ModelConfig
from tabformer.training import balanced_bce
from test_fused_sublayers import DEFAULT, T, block, default_step, fused_attention, fused_ffn, inputs


def assert_same_bits(got, want, zero_sign=True):
    """Equal bits, except that a NaN need only be a NaN (its sign bit
    follows the operand order the C compiler picked for numpy) and, with
    ``zero_sign`` off, a zero need only be a zero."""
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    got, want = got[~nan], want[~nan]
    if not zero_sign:
        got, want = got + 0.0, want + 0.0  # -0 + 0 is +0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reduction_inputs(t, seed):
    """Random rows at scales 1e-3..1e3, contiguous and as a tile's
    head-major view of sample-major scores, and rows of special values."""
    rng = np.random.default_rng(seed)
    arrays = []
    for scale in (1e-3, 1.0, 1e3):
        arrays.append(rng.normal(size=(7, 5, t)) * scale)
        arrays.append(np.swapaxes(rng.normal(size=(6, 8, 3, t)) * scale, 0, 1))
    special = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5)
    arrays.append(rng.choice(special, size=(400, t)))
    arrays.append(np.swapaxes(rng.choice(special, size=(50, 4, 2, t)), 0, 1))
    return arrays


@pytest.mark.parametrize("t", range(1, 34))
def test_unrolled_row_reductions_equal_numpys(t):
    # the sum pins numpy's pairwise order: a numpy that changes it fails here
    with np.errstate(invalid="ignore"):
        for x in reduction_inputs(t, seed=t):
            # the sign of a zero maximum depends on numpy's SIMD width; x - 0
            # and x - (-0) have the same exponential, so softmax cannot see it
            assert_same_bits(ad._row_max(x), x.max(axis=-1, keepdims=True), zero_sign=False)
            assert_same_bits(ad._row_sum(x), x.sum(axis=-1, keepdims=True))


def test_softmax_kernels_match_numpys_reductions():
    rng = np.random.default_rng(0)
    for t in (2, 5, 10, 16, 20):
        x = np.swapaxes(rng.normal(size=(9, 4, 3, t)) * 30.0, 0, 1)
        s = np.empty_like(x)
        ad._softmax(x, s)
        want = np.exp(x - x.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        assert np.array_equal(s, want)
        og = rng.normal(size=x.shape)
        g = og * s
        assert np.array_equal(ad._softmax_grad(s, og), (og - g.sum(axis=-1, keepdims=True)) * s)


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 51, 81, 163, 512])
def test_tiles_are_equal_and_cover_the_batch(rows):
    for n in range(0, 600):
        bounds = ad._tile_bounds(n, rows)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        if n == 0:
            assert bounds == [0]
            continue
        assert sizes.min() >= min(n, 2)
        assert sizes.max() - sizes.min() <= 1
        k = len(sizes)
        assert k == 1 or -(-n // (k - 1)) > rows  # no fewer tiles fit the budget
        assert sizes.max() <= rows or k == max(1, n // 2)


def tile_sizes(monkeypatch, run):
    """The sample count of every forward tile ``run`` makes, in order."""
    sizes, ln_rows = [], ad._ln_rows

    def recording(x, *args):
        sizes.append(x.shape[0])
        ln_rows(x, *args)

    monkeypatch.setattr(ad, "_ln_rows", recording)
    run()
    monkeypatch.setattr(ad, "_ln_rows", ln_rows)
    return sorted(sizes)


def test_tile_counts_do_not_depend_on_workers_and_pin_the_default_shapes(monkeypatch):
    small5 = ModelConfig(embed_dim=16, n_heads=4, n_blocks=2, ffn_dim=32)
    cases = {
        # the default attention at 256 samples of 10 tokens (a budget of 81)
        "attention": (DEFAULT, lambda blk: fused_attention(blk, Tensor(inputs((256, T, 64))), 0.0, None),
                      [64] * 4),
        # the last block's FFN, one token a sample (a budget of 512)
        "ffn_t1": (DEFAULT, lambda blk: fused_ffn(blk, Tensor(inputs((256, 1, 64))), 0.0, None), [256]),
        # criterion 07's shape: SMALL at 4 features, 512 samples (a budget of 655)
        "small_attention": (small5, lambda blk: fused_attention(blk, Tensor(inputs((512, 5, 16))), 0.0, None),
                            [512]),
    }
    for name, (cfg, op, want) in cases.items():
        blk = block(cfg)
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr(ad, "_WORKERS", workers)
            seen.append(tile_sizes(monkeypatch, lambda: op(blk)))
        assert seen[0] == seen[1] == want, name


def step_tape(model, X, y, seed):
    """A recorded default-model training step and its loss."""
    with Tape() as tape:
        probs = model.forward_batch(X, training=True, rng=np.random.default_rng(seed))
        loss = balanced_bce(probs, y, (1.0, 2.0))
    return tape, loss


def gradients(model):
    grads = [p.grad.copy() for p in model.parameters()]
    for p in model.parameters():
        p.zero_grad()
    return grads


def test_workspace_reuse_leaves_every_backward_pass_exact(monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 2)
    model, X, y, _ = default_step()
    X, y = X[:100], y[:100]
    for p in model.parameters():
        p.zero_grad()
    want = []
    for seed in (3, 4):  # record, then backward, one tape at a time
        tape, loss = step_tape(model, X, y, seed)
        tape.backward(loss)
        want.append(gradients(model))
    tapes = [step_tape(model, X, y, seed) for seed in (3, 4)]  # both recorded first
    for (tape, loss), expected in zip(tapes, want):
        tape.backward(loss)
        for g, e in zip(gradients(model), expected):
            assert np.array_equal(g, e)
    tape, loss = tapes[0]
    tape.backward(loss)
    tape.backward(loss)
    for g, e in zip(gradients(model), want[0]):
        assert np.array_equal(g, 2.0 * e)


def workspace_calls(monkeypatch):
    """Give this test its own workspace and list every vjp call's
    ``_workspace`` arrays with the buffer they were handed out from, one
    pair per call."""
    monkeypatch.setattr(ad, "_LOCAL", threading.local())
    calls, workspace = [], ad._workspace

    def recording(*shapes):
        arrays = workspace(*shapes)
        calls.append((arrays, ad._LOCAL.buf))
        return arrays

    monkeypatch.setattr(ad, "_workspace", recording)
    return calls


def test_no_returned_gradient_shares_memory_with_the_workspace(monkeypatch):
    calls = workspace_calls(monkeypatch)
    cfg = ModelConfig(dropout=0.1)
    blk = block(cfg)
    x = Tensor(inputs((40, T, 64)), requires_grad=True)
    rng = np.random.default_rng(3)
    with Tape() as tape:
        full = fused_attention(blk, x, 0.1, rng)
        out = fused_ffn(blk, full, 0.1, rng)
        last = ad.attention_sublayer(
            out, blk.ln1_g, blk.ln1_b, blk.w_q, blk.w_k, blk.w_v, blk.w_o,
            cfg.n_heads, cfg.layer_norm_eps, 0.1, rng, last_only=True,
        )
        ad.ffn_sublayer(
            last, blk.ln2_g, blk.ln2_b, blk.ffn_w1, blk.ffn_b1, blk.ffn_w2, blk.ffn_b2,
            cfg.layer_norm_eps, 0.1, rng, mask_tokens=T,
        )
    for _ in range(2):  # the buffer grows on the first pass, not on the second
        for node in tape.nodes:
            returned = [g for g in node.vjp(np.ones_like(node.out.data)) if g is not None]
            for g in returned:
                assert not np.shares_memory(g, ad._LOCAL.buf)
                assert not any(np.shares_memory(g, a) for a in calls[-1][0])
    assert all(np.shares_memory(a, ad._LOCAL.buf) for arrays, _ in calls[-4:] for a in arrays)


def test_takes_within_one_call_never_overlap(monkeypatch):
    calls = workspace_calls(monkeypatch)
    model, X, y, _ = default_step()
    for seed in range(2):  # cold, then warm
        tape, loss = step_tape(model, X[:50], y[:50], seed)
        tape.backward(loss)
    assert len(calls) == 4 * DEFAULT.n_blocks
    for arrays, buf in calls:
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[:i])
        assert all(np.shares_memory(a, buf) for a in arrays)  # cold calls too


def test_a_cold_vjp_call_hands_out_every_array_from_the_buffer(monkeypatch):
    calls = workspace_calls(monkeypatch)
    blk = block(ModelConfig(dropout=0.1))
    for op in (fused_attention, fused_ffn):
        monkeypatch.setattr(ad, "_LOCAL", threading.local())  # cold: no buffer yet
        with Tape() as tape:
            out = op(blk, Tensor(inputs((40, T, 64)), requires_grad=True), 0.1, np.random.default_rng(3))
        (node,) = tape.nodes
        node.vjp(np.ones_like(out.data))
        arrays, buf = calls[-1]
        assert buf is ad._LOCAL.buf and buf.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, buf) for a in arrays)


def test_warm_workspace_is_never_replaced(monkeypatch):
    monkeypatch.setattr(ad, "_LOCAL", threading.local())
    model, X, y, _ = default_step()
    for seed in range(2):
        tape, loss = step_tape(model, X, y, seed)
        tape.backward(loss)
    buf = ad._LOCAL.buf
    # the attention vjp's seven [n, t, d] arrays at 256 samples: 9.18 MB
    assert buf.nbytes == 7 * 256 * T * 64 * 8
    for seed, rows in ((2, 256), (3, 256), (4, 100), (5, 1)):  # a smaller final batch last
        tape, loss = step_tape(model, X[:rows], y[:rows], seed)
        tape.backward(loss)
        assert ad._LOCAL.buf is buf


def test_warm_default_backward_makes_no_full_batch_temporaries(monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 2)
    model, X, y, _ = default_step()
    for seed in range(3):  # the workspace grows to the step's size
        tape, loss = step_tape(model, X, y, seed)
        tape.backward(loss)
    tape, loss = step_tape(model, X, y, 3)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # measured 5.2 to 6.2 MB over 15 warm steps in three runs; 15.3 to
    # 15.4 MB when every vjp made its full-batch temporaries afresh
    assert peak < 6.5e6
