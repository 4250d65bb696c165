"""Tensor engine tests: forward values against independent oracles,
backward rules against central finite differences."""

import inspect
import math

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.errors import ConfigError, NumericError, ShapeError
from tabformer.training import balanced_bce


def tensor(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul


class TestMatmul:
    def test_identity_is_exact(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_hand_computed_product(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[5.0, 6.0], [7.0, 8.0]])
        # dot products by hand: [1*5+2*7, 1*6+2*8; 3*5+4*7, 3*6+4*8]
        assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            ad.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_identity_associativity_bitwise(self):
        rng = np.random.default_rng(3)
        a = tensor(rng.uniform(-2, 2, (4, 5)))
        b = tensor(rng.uniform(-2, 2, (5, 3)))
        via_identity = ad.matmul(ad.matmul(a, tensor(np.eye(5))), b)
        direct = ad.matmul(a, b)
        assert np.array_equal(via_identity.data, direct.data)

    def test_nd_times_2d_equals_one_2d_gemm(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-2, 2, (2, 3, 4, 5))
        w = rng.uniform(-2, 2, (5, 2))
        out = ad.matmul(tensor(a), tensor(w)).data
        assert out.shape == (2, 3, 4, 2)
        assert np.array_equal(out, (a.reshape(-1, 5) @ w).reshape(2, 3, 4, 2))

    def test_nd_leading_axes_must_agree(self):
        with pytest.raises(ShapeError):
            ad.matmul(tensor(np.zeros((2, 3, 4, 5))), tensor(np.zeros((3, 2, 5, 4))))
        with pytest.raises(ShapeError):
            ad.matmul(tensor(np.zeros((4, 5))), tensor(np.zeros((2, 5, 4))))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (3, 4, 5))
        w = rng.uniform(-2, 2, (5, 2))
        batched = ad.matmul(tensor(a), tensor(w)).data
        for i in range(3):
            assert np.allclose(batched[i], a[i] @ w, atol=0, rtol=0)


# ---------------------------------------------------------------------------
# head split / merge


class TestHeads:
    def test_split_is_head_first_view(self):
        x = np.arange(2 * 3 * 8, dtype=np.float64).reshape(2, 3, 8)
        heads = ad.split_heads(tensor(x), 4).data
        assert heads.shape == (4, 2, 3, 2)
        for j in range(4):
            assert np.array_equal(heads[j], x[..., 2 * j : 2 * j + 2])
        assert np.shares_memory(heads, x)

    def test_merge_inverts_split_bitwise(self):
        x = np.random.default_rng(4).normal(size=(5, 6))
        back = ad.merge_heads(ad.split_heads(tensor(x), 3)).data
        assert np.array_equal(back, x)

    def test_split_width_must_divide(self):
        with pytest.raises(ShapeError):
            ad.split_heads(tensor(np.zeros((3, 6))), 4)


# ---------------------------------------------------------------------------
# softmax


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(tensor([[0.0, 0.0]]))
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_overflow_safety(self):
        out = ad.softmax_rows(tensor([[1000.0, 0.0]])).data
        assert out[0, 0] >= 1.0 - 1e-12
        assert out[0, 1] <= 1e-12
        assert np.isfinite(out).all()

    def test_against_direct_evaluation(self):
        # oracle: exp(x_i) / sum_j exp(x_j) evaluated with math.exp
        x = [1.0, 2.0, 3.0]
        denom = sum(math.exp(v) for v in x)
        expected = [math.exp(v) / denom for v in x]
        out = ad.softmax_rows(tensor([x])).data[0]
        assert np.allclose(out, expected, atol=1e-4)
        assert np.allclose(out, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = tensor(rng.uniform(-2, 2, (5, 7)))
            sums = ad.softmax_rows(x).data.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-2, 2, 9)
        perm = rng.permutation(9)
        direct = ad.softmax_rows(tensor([x[perm]])).data[0]
        permuted = ad.softmax_rows(tensor([x])).data[0][perm]
        assert np.allclose(direct, permuted, atol=1e-15)


# ---------------------------------------------------------------------------
# elementwise ops


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_do_not_overflow(self):
        out = ad.sigmoid(tensor([-800.0, 800.0])).data
        assert out[0] == 0.0 and out[1] == 1.0

    def test_gelu_against_erf_oracle(self):
        # oracle: x * 0.5 * (1 + erf(x / sqrt(2))) with math.erf
        expected = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        got = ad.gelu(tensor([1.0])).data[0]
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.8412) < 1e-3

    def test_layer_norm_constant_row(self):
        x = tensor([[3.0, 3.0, 3.0, 3.0]])
        out = ad.layer_norm(x, tensor(np.ones(4)), tensor(np.zeros(4)), eps=1e-5)
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_layer_norm_bad_eps(self):
        x = tensor([[1.0, 2.0]])
        with pytest.raises(ConfigError):
            ad.layer_norm(x, tensor(np.ones(2)), tensor(np.zeros(2)), eps=0.0)

    def test_dropout_eval_is_identity(self):
        x = tensor([[1.0, 2.0, 3.0]])
        assert ad.dropout(x, 0.5, None, training=False) is x

    def test_dropout_train_scales_survivors(self):
        x = tensor(np.ones((100, 100)))
        rng = np.random.default_rng(5)
        out = ad.dropout(x, 0.25, rng, training=True).data
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75)
        # survivor fraction close to 1 - rate
        assert abs((out != 0).mean() - 0.75) < 0.02

    def test_dropout_is_seed_deterministic(self):
        x = tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.5, np.random.default_rng(9), training=True).data
        b = ad.dropout(x, 0.5, np.random.default_rng(9), training=True).data
        assert np.array_equal(a, b)

    def test_scalar_broadcast_allowed_full_broadcast_rejected(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.add(a, tensor(1.5))
        assert np.array_equal(out.data, a.data + 1.5)
        with pytest.raises(ShapeError):
            ad.add(a, tensor([1.0, 2.0]))

    def test_nan_input_is_surfaced(self):
        with pytest.raises(NumericError):
            ad.add(tensor([np.nan]), tensor([1.0]))


# ---------------------------------------------------------------------------
# backward


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tensor([1.0, 2.0, 3.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
        tape.backward(loss)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_sum_gradient(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
        tape.backward(loss)
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_backward_linearity(self):
        rng = np.random.default_rng(2)
        x1 = tensor(rng.uniform(-2, 2, 4), requires_grad=True)
        x2 = tensor(x1.data.copy(), requires_grad=True)

        def losses(x):
            a = ad.sum_all(ad.mul(x, x))
            b = ad.sum_all(ad.gelu(x))
            return a, b

        with ad.Tape() as tape:
            a, b = losses(x1)
            total = ad.add(a, b)
        tape.backward(total)

        with ad.Tape() as tape2:
            a2, b2 = losses(x2)
        tape2.backward(a2)
        tape2.backward(b2)
        assert np.allclose(x1.grad, x2.grad, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_eval_mode_records_nothing(self):
        x = tensor([1.0], requires_grad=True)
        y = ad.mul(x, x)
        with ad.Tape() as tape:
            pass
        assert tape.nodes == []
        assert not tape.tracks(y)


# ---------------------------------------------------------------------------
# grad_check: every differentiable op against central differences


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = tensor([3.0], requires_grad=True)
        err = ad.grad_check(lambda: ad.sum_all(ad.mul(x, x)), [x])
        assert err < 1e-10

    def test_eps_out_of_range(self):
        x = tensor([1.0], requires_grad=True)
        with pytest.raises(ConfigError):
            ad.grad_check(lambda: ad.sum_all(x), [x], eps=1e-2)

    def test_non_scalar_f_rejected(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.grad_check(lambda: ad.mul(x, x), [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_all_ops_composite(self, seed):
        rng = np.random.default_rng(seed)
        a = tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        bias = tensor(rng.uniform(-2, 2, 3), requires_grad=True)
        gain = tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
        shift = tensor(rng.uniform(-1, 1, 4), requires_grad=True)

        def f():
            m = ad.matmul(a, b)                      # 3x3
            m = ad.add_bias(m, bias)
            s = ad.softmax_rows(m)
            g = ad.gelu(ad.matmul(s, ad.transpose(b)))   # 3x4
            ln = ad.layer_norm(g, gain, shift)
            h = ad.sigmoid(ad.sub(ln, ad.mul_scalar(g, 0.5)))
            heads = ad.split_heads(h, 2)                 # (2,3,2)
            gram = ad.matmul(heads, ad.transpose(heads))  # (2,3,3)
            back = ad.merge_heads(ad.matmul(gram, heads))  # 3x4
            row = ad.select_row(back, 1)
            pooled = ad.add(back, back)
            return ad.add(ad.sum_all(ad.mul(row, row)), ad.mean_all(ad.mul(pooled, pooled)))

        err = ad.grad_check(f, [a, b, bias, gain, shift])
        assert err < 1e-4

    def test_batched_matmul_grads(self):
        rng = np.random.default_rng(21)
        a = tensor(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
        w = tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        b3 = tensor(rng.uniform(-2, 2, (2, 3, 3)), requires_grad=True)

        def f():
            y = ad.matmul(a, w)            # (2,3,3)
            z = ad.matmul(y, b3)           # batched x batched
            return ad.sum_all(ad.mul(z, z))

        assert ad.grad_check(f, [a, w, b3]) < 1e-4

    def test_nd_matmul_grads(self):
        rng = np.random.default_rng(22)
        a = tensor(rng.uniform(-2, 2, (2, 3, 4, 5)), requires_grad=True)
        w = tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        b4 = tensor(rng.uniform(-2, 2, (2, 3, 3, 2)), requires_grad=True)

        def f():
            y = ad.matmul(a, w)            # 4-D x 2-D: (2,3,4,3)
            z = ad.matmul(y, b4)           # 4-D x 4-D: (2,3,4,2)
            return ad.sum_all(ad.mul(z, z))

        assert ad.grad_check(f, [a, w, b4]) < 1e-4

    def test_split_merge_round_trip_grads(self):
        rng = np.random.default_rng(23)
        x = tensor(rng.uniform(-2, 2, (2, 3, 6)), requires_grad=True)
        weight = tensor(rng.uniform(-2, 2, (2, 3, 6)))

        def f():
            y = ad.merge_heads(ad.split_heads(x, 3))
            return ad.sum_all(ad.mul(ad.mul(y, y), weight))

        assert ad.grad_check(f, [x]) < 1e-4

    def test_embedding_and_feature_embed_grads(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-2, 2, (5, 3))
        w = tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        table = tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        cls = tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        ids = np.array([0, 5, 2, 2, 1])

        def f():
            toks = ad.feature_embed(x, w, b)               # (5,3,4)
            emb = ad.reshape(ad.embedding_rows(table, ids), (5, 1, 4))
            cls_tok = ad.repeat_token(cls, 5)
            full = ad.concat([toks, emb, cls_tok], axis=-2)  # (5,5,4)
            shuffled = ad.permute_rows(full, np.array([4, 0, 2, 1, 3]))
            return ad.mean_all(ad.mul(shuffled, shuffled))

        assert ad.grad_check(f, [w, b, table, cls]) < 1e-4

    def test_dropout_grad_with_reseeded_mask(self):
        x = tensor(np.linspace(-1.5, 1.5, 12).reshape(3, 4), requires_grad=True)

        def f():
            # deterministic f: the mask is redrawn identically every call
            out = ad.dropout(x, 0.5, np.random.default_rng(77), training=True)
            return ad.sum_all(ad.mul(out, out))

        assert ad.grad_check(f, [x]) < 1e-4

    def test_subsampling_is_seeded(self):
        x = tensor(np.linspace(0.1, 2.0, 50), requires_grad=True)

        def f():
            return ad.sum_all(ad.mul(x, x))

        e1 = ad.grad_check(f, [x], max_coords_per_param=5, rng=np.random.default_rng(1))
        e2 = ad.grad_check(f, [x], max_coords_per_param=5, rng=np.random.default_rng(1))
        assert e1 == e2


# ---------------------------------------------------------------------------
# op shape: what the benchmark's per-op tracing relies on


def _public_ops():
    """Every public function of ``autodiff`` that is not tape plumbing,
    listed the way the benchmark's per-op tracer lists them."""
    return sorted(
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in {"active_tape", "backward", "grad_check"}
    )


def _op_cases():
    """op name -> (call, inputs): ``call(*inputs)`` runs the op once."""
    rng = np.random.default_rng(5)

    def t(*shape):
        return tensor(rng.uniform(0.1, 0.9, shape), requires_grad=True)

    return {
        # the raw left operand is untracked, so its gradient is None
        "matmul": (ad.matmul, [tensor(rng.uniform(size=(2, 3))), t(3, 4)]),
        "transpose": (ad.transpose, [t(2, 3, 4)]),
        "add": (ad.add, [t(2, 3), t(2, 3)]),
        "sub": (ad.sub, [t(2, 3), t(1)]),
        "mul": (ad.mul, [t(1), t(2, 3)]),
        "mul_scalar": (lambda a: ad.mul_scalar(a, 3.0), [t(2, 3)]),
        "add_bias": (ad.add_bias, [t(2, 3, 4), t(4)]),
        "softmax_rows": (ad.softmax_rows, [t(2, 3)]),
        "gelu": (ad.gelu, [t(2, 3)]),
        "sigmoid": (ad.sigmoid, [t(2, 3)]),
        "layer_norm": (ad.layer_norm, [t(2, 3, 4), t(4), t(4)]),
        "dropout": (
            lambda x: ad.dropout(x, 0.5, np.random.default_rng(0), training=True),
            [t(2, 3)],
        ),
        "concat": (lambda a, b: ad.concat([a, b], axis=-2), [t(2, 1, 4), t(2, 3, 4)]),
        "split_heads": (lambda x: ad.split_heads(x, 2), [t(2, 3, 4)]),
        "merge_heads": (ad.merge_heads, [t(2, 2, 3, 2)]),
        "select_row": (lambda x: ad.select_row(x, -1), [t(2, 3, 4)]),
        "permute_rows": (lambda x: ad.permute_rows(x, [2, 0, 1]), [t(2, 3, 4)]),
        "reshape": (lambda x: ad.reshape(x, (3, 2)), [t(2, 3)]),
        "sum_all": (ad.sum_all, [t(2, 3)]),
        "mean_all": (ad.mean_all, [t(2, 3)]),
        "feature_embed": (
            lambda w, b: ad.feature_embed(rng.uniform(size=(5, 3)), w, b),
            [t(3, 4), t(3, 4)],
        ),
        "embedding_rows": (lambda table: ad.embedding_rows(table, [2, 0, 2]), [t(3, 4)]),
        "repeat_token": (lambda v: ad.repeat_token(v, 3), [t(4)]),
        "attention_sublayer": (
            lambda x, g, b, wq, wk, wv, wo: ad.attention_sublayer(
                x, g, b, wq, wk, wv, wo, 2, rate=0.5, rng=np.random.default_rng(0)
            ),
            [t(2, 3, 4), t(4), t(4), t(4, 4), t(4, 4), t(4, 4), t(4, 4)],
        ),
        "ffn_sublayer": (
            lambda x, g, b, w1, b1, w2, b2: ad.ffn_sublayer(
                x, g, b, w1, b1, w2, b2, rate=0.5, rng=np.random.default_rng(0)
            ),
            [t(2, 3, 4), t(4), t(4), t(4, 5), t(5), t(5, 4), t(4)],
        ),
        "balanced_bce": (
            lambda p: balanced_bce(p, np.array([1.0, 0.0, 1.0]), (0.75, 1.5)),
            [t(3)],
        ),
    }


def test_op_cases_cover_every_public_op():
    assert set(_public_ops()) <= set(_op_cases())


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_op_records_one_node_with_an_output_gradient_vjp(name):
    call, inputs = _op_cases()[name]
    with ad.Tape() as tape:
        out = call(*inputs)
    assert len(tape.nodes) == 1
    node = tape.nodes[0]
    assert node.out is out
    assert [id(t) for t in node.inputs] == [id(t) for t in inputs]
    grads = node.vjp(np.ones_like(out.data))
    assert len(grads) == len(inputs)
    for t, g in zip(inputs, grads):
        assert g is None or g.shape == t.shape


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_op_without_tape_records_nothing(name, monkeypatch):
    call, inputs = _op_cases()[name]
    added = []
    monkeypatch.setattr(ad.Tape, "_add", lambda self, *node: added.append(node))
    out = call(*inputs)
    assert isinstance(out, ad.Tensor)
    assert added == []


def test_matmul_gives_no_gradient_to_an_untracked_operand():
    call, inputs = _op_cases()["matmul"]
    with ad.Tape() as tape:
        out = call(*inputs)
    ga, gb = tape.nodes[0].vjp(np.ones_like(out.data))
    assert ga is None
    assert np.array_equal(gb, inputs[0].data.T @ np.ones_like(out.data))
