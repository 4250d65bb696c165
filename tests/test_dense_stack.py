"""The fused ``autodiff.dense_stack`` against its oracle: the same stack
built from primitive ops (``matmul``, ``add_bias``, and ``gelu`` between
each two layers). The forward pass, the input gradient and every
parameter gradient must be bitwise equal to the composite's, for the
stacks the models build: logistic regression, the default MLP and the
transformer's head with and without ``head_hidden``."""

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor
from tabformer.data import NUMERIC, ColumnSchema, FeatureSchema
from tabformer.errors import NumericError, ShapeError
from tabformer.model import LogisticModel, MlpModel, Model, ModelConfig

SCHEMA = FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(9)))


def composite(x, params):
    h = x
    for i, (w, b) in enumerate(zip(params[::2], params[1::2])):
        if i:
            h = ad.gelu(h)
        h = ad.add_bias(ad.matmul(h, w), b)
    return h


def fused(x, params):
    return ad.dense_stack(x, params)


def stack(kind):
    """(input width, flat parameters) of a model's dense stack."""
    if kind == "logistic":
        return 9, LogisticModel(SCHEMA, seed=3).parameters()
    if kind == "mlp":
        return 9, MlpModel(SCHEMA, seed=3).parameters()
    hidden = 16 if kind == "head_hidden" else None
    model = Model(ModelConfig(head_hidden=hidden), SCHEMA, seed=3)
    return 64, model.head


KINDS = ["logistic", "mlp", "head", "head_hidden"]


def run(op, x0, params, tracked):
    """(output, input gradient, parameter gradients) of sum(out * w) under
    a tape. A tracked input is a layer norm's output, as in the head, so
    its gradient is read from the norm's input."""
    for p in params:
        p.zero_grad()
    x = Tensor(x0, requires_grad=tracked)
    with Tape() as tape:
        h = ad.layer_norm(x, Tensor(np.ones(x0.shape[-1])), Tensor(np.zeros(x0.shape[-1]))) if tracked else x
        out = op(h, params)
        w = Tensor(np.random.default_rng(2).normal(size=out.shape))
        loss = ad.sum_all(ad.mul(out, w))
    tape.backward(loss)
    return out.data, x.grad, [p.grad.copy() for p in params]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tracked", [False, True], ids=["raw_input", "tracked_input"])
@pytest.mark.parametrize("shape", [(256,), (37,), (1,), (5, 3)], ids=["256", "37", "1", "3d"])
def test_dense_stack_matches_its_composite(kind, tracked, shape):
    width, params = stack(kind)
    x0 = np.random.default_rng(1).normal(size=shape + (width,))
    want = run(composite, x0, params, tracked)
    got = run(fused, x0, params, tracked)
    assert np.array_equal(got[0], want[0])
    assert (got[1] is None) == (want[1] is None) == (not tracked)
    if tracked:
        assert np.array_equal(got[1], want[1])
    for g, e in zip(got[2], want[2]):
        assert np.array_equal(g, e)
    # with no tape the forward pass keeps no slope: the eval path, its own bits
    eval_out = fused(Tensor(x0), params).data
    assert np.array_equal(eval_out, composite(Tensor(x0), params).data)
    if not tracked:
        assert np.array_equal(eval_out, want[0])


def test_dense_stack_records_one_node_and_gives_a_raw_input_no_gradient():
    width, params = stack("mlp")
    x = Tensor(np.random.default_rng(1).normal(size=(4, width)))
    with Tape() as tape:
        out = fused(x, params)
    assert len(tape.nodes) == 1 and tape.nodes[0].out is out
    grads = tape.nodes[0].vjp(np.ones_like(out.data))
    assert grads[0] is None
    assert [g.shape for g in grads[1:]] == [p.shape for p in params]


@pytest.mark.parametrize(
    "x, shapes",
    [
        pytest.param((5,), [(5, 1), (1,)], id="vector-x"),
        pytest.param((2, 5), [(3, 4), (4,)], id="x-width"),
        pytest.param((2, 5), [(5, 4), (3,)], id="bias-width"),
        pytest.param((2, 5), [(5, 4), (1, 4)], id="bias-matrix"),
        pytest.param((2, 5), [(5, 4), (4,), (3, 2), (2,)], id="hidden-width"),
        pytest.param((2, 5), [(5, 4), (4,), (4, 2), (3,)], id="last-bias"),
    ],
)
def test_mismatched_widths_raise_the_composites_message(x, shapes):
    x, params = Tensor(np.zeros(x)), [Tensor(np.zeros(s)) for s in shapes]
    with pytest.raises(ShapeError) as want:
        composite(x, params)
    with pytest.raises(ShapeError) as got:
        fused(x, params)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "x, shapes, message",
    [
        pytest.param((2, 5), [], "got 0 tensors", id="empty"),
        pytest.param((2, 5), [(5, 4), (4,), (4, 2)], "got 3 tensors", id="odd"),
        pytest.param((2, 3, 5), [(2, 5, 4), (4,)], "2-D weights", id="batched-weight"),
    ],
)
def test_a_malformed_parameter_list_is_a_shape_error(x, shapes, message):
    with pytest.raises(ShapeError, match=message):
        fused(Tensor(np.zeros(x)), [Tensor(np.zeros(s)) for s in shapes])


@pytest.mark.parametrize(
    "where, layer",
    [
        pytest.param("input", "hidden 0", id="input"),
        pytest.param(1, "hidden 0", id="b0"),
        pytest.param(2, "hidden 1", id="w1"),
        pytest.param(4, "output", id="w2"),
        pytest.param(5, "output", id="b2"),
    ],
)
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_value_is_named_by_its_layer(where, layer, value):
    width, params = stack("mlp")  # a fresh model: the edit below does not outlive the test
    x0 = np.random.default_rng(1).normal(size=(6, width))
    (x0 if where == "input" else params[where].data)[0] = value
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=f"^{layer}: dense_stack "):
        fused(Tensor(x0), params)
