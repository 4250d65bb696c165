import gc
import hashlib
import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tensor, grad_check
from tabformer.data import CATEGORICAL, NUMERIC, ColumnSchema, FeatureSchema
from tabformer.errors import ConfigError, DataError, NumericError, ShapeError, from_dict
from tabformer.model import (
    LogisticModel,
    MlpModel,
    Model,
    ModelConfig,
    TransformerBlock,
    attention,
    attention_logits,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from tabformer.seeding import stream_rng
from tabformer.training import TrainConfig, train


def numeric_schema(n):
    return FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(n)))


def mixed_schema():
    return FeatureSchema(
        (
            ColumnSchema("a", NUMERIC),
            ColumnSchema("c1", CATEGORICAL, vocabulary=("u", "v")),
            ColumnSchema("b", NUMERIC),
            ColumnSchema("c2", CATEGORICAL, vocabulary=("p", "q", "r")),
        )
    )


def exact_gelu(a):
    # oracle: a * Phi(a), with Phi from math.erf
    return a * np.vectorize(lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))))(a)


def tiny_config(**kw):
    base = dict(embed_dim=8, n_heads=2, n_blocks=1, ffn_dim=16, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def clone(model):
    twin = Model(model.config, model.schema, model.seed)
    for dst, src in zip(twin.parameters(), model.parameters()):
        dst.data[...] = src.data
    return twin


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=10, n_heads=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)

    def test_positive_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_blocks=0)
        with pytest.raises(ConfigError):
            ModelConfig(head_hidden=0)

    def test_d_k(self):
        assert ModelConfig(embed_dim=64, n_heads=8).d_k == 8

    def test_dict_round_trip(self):
        cfg = ModelConfig(embed_dim=32, n_heads=4, head_hidden=16)
        assert from_dict(ModelConfig, asdict(cfg)) == cfg


class TestTokenizer:
    def test_zero_input_gives_bias_exactly(self):
        model = Model(tiny_config(), numeric_schema(3), seed=1)
        tok = model.tokenizer
        out = tok.forward_batch(np.zeros((1, 3))).data
        assert np.array_equal(out[0, :3], tok.numeric_b.data)

    def test_unit_input_gives_weight_plus_bias(self):
        model = Model(tiny_config(), numeric_schema(3), seed=1)
        tok = model.tokenizer
        out = tok.forward_batch(np.ones((1, 3))).data
        assert np.array_equal(out[0, :3], tok.numeric_w.data + tok.numeric_b.data)

    def test_linearity_in_the_feature_value(self):
        model = Model(tiny_config(), numeric_schema(4), seed=2)
        tok = model.tokenizer
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4))
        t_x = tok.forward_batch(x).data[0, :4]
        t_2x = tok.forward_batch(2 * x).data[0, :4]
        t_0 = tok.forward_batch(np.zeros((1, 4))).data[0, :4]
        assert np.max(np.abs((t_2x - t_0) - 2 * (t_x - t_0))) < 1e-12

    def test_token_count_and_cls_last(self):
        model = Model(tiny_config(), mixed_schema(), seed=3)
        out = model.tokenizer.forward_batch(np.zeros((2, 4))).data
        assert out.shape == (2, 5, 8)
        assert np.array_equal(out[0, 4], model.tokenizer.cls.data)
        assert np.array_equal(out[1, 4], model.tokenizer.cls.data)

    def test_mixed_schema_token_rows_follow_schema_order(self):
        model = Model(tiny_config(), mixed_schema(), seed=4)
        tok = model.tokenizer
        X = np.array([[1.5, 1.0, -2.0, 2.0]])  # cat codes: c1=v, c2=r
        out = tok.forward_batch(X).data[0]
        assert np.allclose(out[0], 1.5 * tok.numeric_w.data[0] + tok.numeric_b.data[0])
        assert np.array_equal(out[1], tok.table.data[1])
        assert np.allclose(out[2], -2.0 * tok.numeric_w.data[1] + tok.numeric_b.data[1])
        assert np.array_equal(out[3], tok.table.data[tok.sizes[0] + 2])

    def test_unk_code_resolves_to_reserved_row(self):
        model = Model(tiny_config(), mixed_schema(), seed=5)
        tok = model.tokenizer
        X = np.array([[0.0, 2.0, 0.0, 3.0]])  # both categorical codes = UNK
        out = tok.forward_batch(X).data[0]
        assert np.array_equal(out[1], tok.table.data[2])
        assert np.array_equal(out[3], tok.table.data[tok.sizes[0] + 3])

    def test_four_parameters_for_every_schema(self):
        # the table holds exactly the per-column draws, so the .bin
        # layout is each column's rows in schema order; no BLAS is
        # involved, so this is exact on any CPU
        d = tiny_config().embed_dim
        model = Model(tiny_config(), mixed_schema(), seed=7)
        tok = model.tokenizer
        rng = stream_rng(7, "init")
        bound = 1.0 / math.sqrt(d)
        assert [p.name for p in tok.parameters()] == [
            "tokenizer.numeric_w", "tokenizer.numeric_b", "tokenizer.table", "tokenizer.cls"
        ]
        assert np.array_equal(tok.numeric_w.data, rng.uniform(-bound, bound, (2, d)))
        assert np.array_equal(tok.numeric_b.data, np.zeros((2, d)))
        per_column = [rng.uniform(-bound, bound, (v, d)) for v in (3, 4)]  # vocabulary + UNK
        assert np.array_equal(tok.table.data, np.concatenate(per_column))
        assert np.array_equal(tok.cls.data, rng.uniform(-bound, bound, d))

        # a kind the schema lacks gets zero rows, and one training step runs
        categorical = FeatureSchema(tuple(
            ColumnSchema(f"c{j}", CATEGORICAL, vocabulary=("u", "v")) for j in range(3)
        ))
        draw = np.random.default_rng(0)
        y = np.tile([0.0, 1.0], 4)
        for schema, X, empty in (
            (numeric_schema(3), draw.normal(size=(8, 3)), ("table",)),
            (categorical, draw.integers(0, 3, (8, 3)).astype(float), ("numeric_w", "numeric_b")),
        ):
            model = Model(tiny_config(), schema, seed=8)
            tok = model.tokenizer
            assert all(getattr(tok, name).data.shape == (0, d) for name in empty)
            cls = tok.cls.data.copy()
            log = train(model, (X, y), (X, y), TrainConfig(max_epochs=1, batch_size=8))
            assert np.isfinite(log.train_losses).all()
            assert not np.array_equal(tok.cls.data, cls)
            assert all(getattr(tok, name).data.shape == (0, d) for name in empty)

    def test_row_length_mismatch(self):
        model = Model(tiny_config(), numeric_schema(3), seed=0)
        with pytest.raises(ShapeError):
            model.tokenizer.forward_batch(np.zeros((1, 4)))

    def test_training_tape_does_not_grow_with_categorical_columns(self):
        def nodes(n_categorical):
            cols = (ColumnSchema("a", NUMERIC), ColumnSchema("b", NUMERIC))
            cols += tuple(
                ColumnSchema(f"c{j}", CATEGORICAL, vocabulary=("u", "v")) for j in range(n_categorical)
            )
            model = Model(tiny_config(dropout=0.1, n_blocks=2), FeatureSchema(cols), seed=6)
            X = np.zeros((4, len(cols)))
            with ad.Tape() as tape:
                model.forward_batch(X, training=True, rng=np.random.default_rng(0))
            return len(tape.nodes)

        assert nodes(1) == nodes(3)


def attention_oracle(q, k, v):
    # independent scalar-loop evaluation, no vectorized shortcuts
    t, d_k = q.shape
    out = np.zeros((t, d_k))
    for i in range(t):
        logits = np.array([float(q[i] @ k[j]) / math.sqrt(d_k) for j in range(t)])
        logits = logits - logits.max()
        w = np.exp(logits)
        w = w / w.sum()
        for j in range(t):
            out[i] += w[j] * v[j]
    return out


class TestAttention:
    def test_single_token_returns_v(self):
        rng = np.random.default_rng(1)
        q, k, v = (Tensor(rng.normal(size=(1, 4))) for _ in range(3))
        assert np.array_equal(attention(q, k, v).data, v.data)

    def test_identical_rows_average_v(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=4)
        q = Tensor(np.tile(row, (3, 1)))
        k = Tensor(np.tile(rng.normal(size=4), (3, 1)))
        v = Tensor(rng.normal(size=(3, 4)))
        out = attention(q, k, v).data
        expect = v.data.mean(axis=0)
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        out = attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.max(np.abs(out - attention_oracle(q, k, v))) < 1e-12

    def test_output_in_convex_hull_of_v(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q, k, v = (rng.normal(size=(5, 6)) for _ in range(3))
            out = attention(Tensor(q), Tensor(k), Tensor(v)).data
            assert np.all(out <= v.max(axis=0) + 1e-12)
            assert np.all(out >= v.min(axis=0) - 1e-12)

    def test_logits_are_exactly_scaled_qkt(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        got = attention_logits(Tensor(q), Tensor(k)).data
        assert np.array_equal(got, (q @ k.T) * (1.0 / math.sqrt(8)))

    def test_scaling_q_k_compensated_in_logits(self):
        # c = 2 keeps every float operation exact, so the compensated
        # path must reproduce the original attention bitwise
        rng = np.random.default_rng(6)
        q = rng.normal(size=(4, 4))
        k = rng.normal(size=(4, 4))
        v = rng.normal(size=(4, 4))
        base = attention(Tensor(q), Tensor(k), Tensor(v)).data
        scaled = ad.mul_scalar(
            ad.matmul(Tensor(2 * q), ad.transpose(Tensor(2 * k))), 0.25 / math.sqrt(4)
        )
        comp = ad.matmul(ad.softmax_rows(scaled), Tensor(v)).data
        assert np.array_equal(base, comp)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))


class TestMultiHead:
    def block(self, cfg, seed=7):
        return TransformerBlock(cfg, np.random.default_rng(seed), index=0)

    def oracle(self, x, blk, cfg):
        q = x @ blk.w_q.data
        k = x @ blk.w_k.data
        v = x @ blk.w_v.data
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * cfg.d_k, (h + 1) * cfg.d_k)
            heads.append(attention_oracle(q[:, sl], k[:, sl], v[:, sl]))
        return np.concatenate(heads, axis=1) @ blk.w_o.data

    def test_matches_per_head_oracle(self):
        cfg = ModelConfig(embed_dim=16, n_heads=4, n_blocks=1, ffn_dim=8, dropout=0.0)
        blk = self.block(cfg)
        x = np.random.default_rng(8).normal(size=(5, 16))
        got = blk.multi_head(Tensor(x)).data
        assert np.max(np.abs(got - self.oracle(x, blk, cfg))) < 1e-12

    def test_single_head_equals_plain_attention(self):
        cfg = ModelConfig(embed_dim=8, n_heads=1, n_blocks=1, ffn_dim=8, dropout=0.0)
        blk = self.block(cfg)
        x = np.random.default_rng(9).normal(size=(4, 8))
        got = blk.multi_head(Tensor(x)).data
        q = Tensor(x @ blk.w_q.data)
        k = Tensor(x @ blk.w_k.data)
        v = Tensor(x @ blk.w_v.data)
        expect = attention(q, k, v).data @ blk.w_o.data
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_identity_projections_average_identical_tokens(self):
        cfg = ModelConfig(embed_dim=8, n_heads=2, n_blocks=1, ffn_dim=8, dropout=0.0)
        blk = self.block(cfg)
        blk.w_v.data[...] = np.eye(8)
        blk.w_o.data[...] = np.eye(8)
        token = np.random.default_rng(10).normal(size=8)
        x = np.tile(token, (3, 1))
        out = blk.multi_head(Tensor(x)).data
        assert np.max(np.abs(out - token)) < 1e-12

    def test_training_mode_matches_per_head_loop_with_same_rng(self):
        # one dropout mask per head, drawn head by head from the same
        # stream: the batched mask must consume it in exactly this order
        cfg = ModelConfig(embed_dim=16, n_heads=4, n_blocks=1, ffn_dim=8, dropout=0.3)
        blk = self.block(cfg)
        x = np.random.default_rng(12).normal(size=(3, 5, 16))
        got = blk.multi_head(Tensor(x), training=True, rng=np.random.default_rng(13)).data
        rng = np.random.default_rng(13)
        q, k, v = x @ blk.w_q.data, x @ blk.w_k.data, x @ blk.w_v.data
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * cfg.d_k, (h + 1) * cfg.d_k)
            logits = q[..., sl] @ np.swapaxes(k[..., sl], -1, -2) / math.sqrt(cfg.d_k)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)
            probs = probs * (rng.random(probs.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            heads.append(probs @ v[..., sl])
        expect = np.concatenate(heads, axis=-1) @ blk.w_o.data
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_batched_equals_per_sample(self):
        cfg = ModelConfig(embed_dim=8, n_heads=2, n_blocks=1, ffn_dim=8, dropout=0.0)
        blk = self.block(cfg)
        x = np.random.default_rng(11).normal(size=(3, 5, 8))
        batched = blk.multi_head(Tensor(x)).data
        for i in range(3):
            single = blk.multi_head(Tensor(x[i])).data
            assert np.max(np.abs(batched[i] - single)) < 1e-14


class TestForward:
    def test_output_in_unit_interval(self):
        model = Model(tiny_config(), numeric_schema(4), seed=12)
        X = np.random.default_rng(0).normal(size=(6, 4)) * 50
        p = model.predict_proba(X)
        assert np.all((p > 0) & (p < 1))

    def test_eval_forward_bitwise_reproducible(self):
        model = Model(tiny_config(n_blocks=2), mixed_schema(), seed=13)
        X = np.array([[0.3, 0.0, -1.2, 2.0], [1.0, 1.0, 0.5, 1.0]])
        assert np.array_equal(model.predict_proba(X), model.predict_proba(X))

    def test_single_row_matches_batch(self):
        model = Model(tiny_config(), numeric_schema(5), seed=14)
        X = np.random.default_rng(1).normal(size=(4, 5))
        batch = model.predict_proba(X)
        singles = np.array([model.forward(row) for row in X])
        assert np.max(np.abs(batch - singles)) < 1e-14

    def test_feature_permutation_equivariance(self):
        model = Model(tiny_config(n_blocks=2), numeric_schema(6), seed=15)
        twin = clone(model)
        a, b = 1, 4
        for p in (twin.tokenizer.numeric_w, twin.tokenizer.numeric_b):
            p.data[[a, b]] = p.data[[b, a]]
        X = np.random.default_rng(2).normal(size=(8, 6))
        X_swap = X.copy()
        X_swap[:, [a, b]] = X[:, [b, a]]
        assert np.max(np.abs(model.predict_proba(X) - twin.predict_proba(X_swap))) < 1e-10

    def test_nan_failure_names_the_block(self):
        model = Model(tiny_config(n_blocks=3), numeric_schema(3), seed=16)
        model.blocks[1].ffn_w2.data[...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="block 1"):
            model.predict_proba(np.ones((1, 3)))

    @pytest.mark.parametrize("where", ["tokenizer", "head"])
    def test_nan_failure_names_the_tokenizer_and_the_head(self, where):
        model = Model(tiny_config(n_blocks=2), numeric_schema(3), seed=16)
        broken = model.tokenizer.numeric_w if where == "tokenizer" else model.head[0]
        broken.data[...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=f"^{where}: "):
            model.predict_proba(np.ones((1, 3)))

    def test_nan_failure_names_the_heads_layer(self):
        model = Model(tiny_config(n_blocks=1, head_hidden=4), numeric_schema(3), seed=16)
        model.head[-2].data[...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^head: output: dense_stack "):
            model.predict_proba(np.ones((1, 3)))

    def test_mlp_nan_failure_names_the_layer(self):
        model = MlpModel(numeric_schema(3), seed=16)
        model.layers[2].data[...] = np.inf  # mlp.w1
        assert model.layers[2].name == "mlp.w1"
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^hidden 1: dense_stack "):
            model.predict_proba(np.ones((1, 3)))

    @pytest.mark.parametrize("kind", ["transformer", "mlp"])
    def test_predict_checks_the_row_width_of_an_empty_table(self, kind):
        schema = numeric_schema(3)
        model = Model(tiny_config(), schema) if kind == "transformer" else MlpModel(schema)
        for X in (np.empty((0, 7)), np.empty((0,)), np.zeros((2, 7))):
            with pytest.raises(ShapeError, match="length 3"):
                model.predict_proba(X)
        assert model.predict_proba(np.empty((0, 3))).shape == (0,)

    @pytest.mark.parametrize("kind", ["transformer", "mlp", "logistic"])
    def test_array_like_rows_score_as_arrays(self, kind):
        config = asdict(tiny_config()) if kind == "transformer" else None
        model = build_model(kind, mixed_schema(), seed=5, config=config)
        rows = [[0.5, 1.0, -2.0, 2.0], [1.5, 0.0, 0.25, 3.0]]
        X = np.array(rows)
        for like in (rows, tuple(map(tuple, rows))):
            assert model.predict_proba(like).tobytes() == model.predict_proba(X).tobytes()
            assert model.forward_batch(like).data.tobytes() == model.forward_batch(X).data.tobytes()
        for bad in ([[0.5, 1.0]], rows[0]):
            for score in (model.predict_proba, model.forward_batch):
                with pytest.raises(ShapeError, match="length 4"):
                    score(bad)

    @pytest.mark.parametrize("kind", ["transformer", "mlp", "logistic"])
    @pytest.mark.parametrize(
        "rows, row, cause",
        [
            ([[0.5, 1.0, -2.0, 2.0], [0.3]], [0.5, 1.0, [2.0], 2.0], "sequence"),
            ([["x", 1.0, 0.25, 2.0]], ["x", 1.0, 0.25, 2.0], "could not convert"),
            ([[0.5, object(), 0.25, 2.0]], [0.5, object(), 0.25, 2.0], "real number"),
        ],
        ids=["ragged", "text", "object"],
    )
    def test_rows_numpy_cannot_read_as_numbers_are_a_shape_error(self, kind, rows, row, cause):
        config = asdict(tiny_config()) if kind == "transformer" else None
        model = build_model(kind, mixed_schema(), seed=5, config=config)
        for score, X in ((model.predict_proba, rows), (model.forward_batch, rows), (model.forward, row)):
            with pytest.raises(ShapeError, match=f"rows of 4 numbers .*{cause}"):
                score(X)

    def test_train_mode_needs_rng_when_dropout_on(self):
        model = Model(tiny_config(dropout=0.2), numeric_schema(3), seed=17)
        with pytest.raises(ConfigError, match="dropout requires an explicit rng"):
            model.forward_batch(np.ones((1, 3)), training=True)

    def test_train_mode_deterministic_given_rng(self):
        model = Model(tiny_config(dropout=0.3), numeric_schema(3), seed=18)
        X = np.random.default_rng(3).normal(size=(4, 3))
        a = model.forward_batch(X, training=True, rng=np.random.default_rng(5)).data
        b = model.forward_batch(X, training=True, rng=np.random.default_rng(5)).data
        c = model.forward_batch(X, training=True, rng=np.random.default_rng(6)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_dropout_train_equals_eval(self):
        model = Model(tiny_config(dropout=0.0), numeric_schema(3), seed=19)
        X = np.random.default_rng(4).normal(size=(4, 3))
        train = model.forward_batch(X, training=True).data
        assert np.array_equal(train, model.predict_proba(X))

    def test_head_hidden_path(self, monkeypatch):
        model = Model(tiny_config(head_hidden=6), numeric_schema(3), seed=20)
        X = np.random.default_rng(5).normal(size=(3, 3))
        p = model.predict_proba(X)
        assert p.shape == (3,) and np.all((p > 0) & (p < 1))
        # the head by hand: layer norm, then affine, GELU, affine, on the
        # classification row that _logits hands the head
        rng = np.random.default_rng(6)
        ln_g, ln_b, w0, b0, w1, b1 = [q.data for q in model.parameters()[-6:]]
        assert (ln_g.shape, w0.shape, w1.shape) == ((8,), (8, 6), (6, 1))
        for q in (ln_g, ln_b, b0, b1):
            q[...] = rng.normal(size=q.shape)
        rows, select_row = [], ad.select_row

        def capture(*args):
            rows.append(select_row(*args))
            return rows[-1]

        monkeypatch.setattr(ad, "select_row", capture)
        z = model._logits(X, False, None).data
        (cls,) = rows
        c = cls.data - cls.data.mean(axis=-1, keepdims=True)
        h = c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5) * ln_g + ln_b
        expected = exact_gelu(h @ w0 + b0) @ w1 + b1
        assert z.shape == (3, 1)
        np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-12)

    def test_whole_model_grad_check(self):
        model = Model(tiny_config(), mixed_schema_six(), seed=21)
        X = np.random.default_rng(6).normal(size=(3, 6))
        X[:, 1] = np.random.default_rng(7).integers(0, 3, size=3)  # cat codes
        X[:, 4] = np.random.default_rng(8).integers(0, 4, size=3)
        y = np.array([1.0, 0.0, 1.0])

        def f():
            p = model.forward_batch(X)
            diff = ad.sub(p, Tensor(y))
            return ad.mean_all(ad.mul(diff, diff))

        err = grad_check(f, model.parameters(), max_coords_per_param=4,
                         rng=np.random.default_rng(9))
        assert err < 1e-4


def mixed_schema_six():
    return FeatureSchema(
        (
            ColumnSchema("n0", NUMERIC),
            ColumnSchema("c0", CATEGORICAL, vocabulary=("a", "b")),
            ColumnSchema("n1", NUMERIC),
            ColumnSchema("n2", NUMERIC),
            ColumnSchema("c1", CATEGORICAL, vocabulary=("x", "y", "z")),
            ColumnSchema("n3", NUMERIC),
        )
    )


class TestBaselines:
    def test_logistic_zero_params_gives_half(self):
        model = LogisticModel(numeric_schema(4), seed=0)
        model.w.data[...] = 0.0
        model.b.data[...] = 0.0
        p = model.predict_proba(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.all(p == 0.5)

    def test_logistic_grad_check(self):
        model = LogisticModel(numeric_schema(3), seed=1)
        X = np.random.default_rng(1).normal(size=(6, 3))
        y = np.random.default_rng(2).integers(0, 2, size=6).astype(float)

        def f():
            p = model.forward_batch(X)
            diff = ad.sub(p, Tensor(y))
            return ad.mean_all(ad.mul(diff, diff))

        assert grad_check(f, model.parameters()) < 1e-6

    def test_mlp_hidden_sizes_validated(self):
        with pytest.raises(ConfigError):
            MlpModel(numeric_schema(3), hidden=(8, 0))

    def test_empty_mlp_degenerates_to_logistic(self):
        schema = numeric_schema(4)
        mlp = MlpModel(schema, hidden=(), seed=9)
        logistic = LogisticModel(schema, seed=9)
        X = np.random.default_rng(3).normal(size=(7, 4))
        assert np.array_equal(mlp.predict_proba(X), logistic.predict_proba(X))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_chunked_predict_equals_one_batch_bitwise(self, kind):
        model = build_model(kind, numeric_schema(9), seed=4)
        X = np.random.default_rng(5).normal(size=(2500, 9))
        assert np.array_equal(model.predict_proba(X), model.forward_batch(X).data)

    def test_mlp_matches_direct_evaluation(self):
        model = MlpModel(numeric_schema(3), hidden=(5, 4), seed=8)
        rng = np.random.default_rng(9)
        w0, b0, w1, b1, w2, b2 = [q.data for q in model.parameters()]
        assert (w0.shape, w1.shape, w2.shape) == ((3, 5), (5, 4), (4, 1))
        for b in (b0, b1, b2):
            b[...] = rng.normal(size=b.shape)
        X = rng.normal(size=(6, 3)) * 2
        expected = exact_gelu(exact_gelu(X @ w0 + b0) @ w1 + b1) @ w2 + b2
        z = model._logits(X, False, None).data
        np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-12)

    def test_mlp_forward_range(self):
        model = MlpModel(numeric_schema(4), hidden=(8, 8), seed=2)
        p = model.predict_proba(np.random.default_rng(4).normal(size=(5, 4)))
        assert np.all((p > 0) & (p < 1))

    def test_build_model_factory(self):
        schema = numeric_schema(3)
        assert build_model("transformer", schema).kind == "transformer"
        assert build_model("logistic", schema).kind == "logistic"
        assert build_model("mlp", schema, config={"hidden": [4]}).kind == "mlp"
        with pytest.raises(ConfigError):
            build_model("forest", schema)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = Model(tiny_config(n_blocks=2), mixed_schema(), seed=22)
        rng = np.random.default_rng(10)
        for p in model.parameters():
            p.data[...] = rng.normal(size=p.data.shape)
        prefix = tmp_path / "ckpt"
        save_checkpoint(model, prefix)
        loaded = load_checkpoint(prefix)
        X = np.array([[0.4, 1.0, -0.7, 0.0], [2.0, 0.0, 0.1, 2.0]])
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))
        assert loaded.config == model.config

    def test_bin_is_flat_little_endian_float64(self, tmp_path):
        model = LogisticModel(numeric_schema(3), seed=23)
        save_checkpoint(model, tmp_path / "lr")
        raw = (tmp_path / "lr.bin").read_bytes()
        assert len(raw) == (3 + 1) * 8
        flat = np.frombuffer(raw, dtype="<f8")
        assert np.array_equal(flat[:3], model.w.data.ravel())
        assert flat[3] == model.b.data[0]

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        import json as _json

        model = LogisticModel(numeric_schema(2), seed=24)
        save_checkpoint(model, tmp_path / "lr")
        doc = _json.loads((tmp_path / "lr.json").read_text())
        doc["schema"]["columns"][0]["name"] = "tampered"
        (tmp_path / "lr.json").write_text(_json.dumps(doc))
        with pytest.raises(DataError, match="fingerprint"):
            load_checkpoint(tmp_path / "lr")

    def test_truncated_parameter_file_rejected(self, tmp_path):
        model = LogisticModel(numeric_schema(2), seed=25)
        save_checkpoint(model, tmp_path / "lr")
        raw = (tmp_path / "lr.bin").read_bytes()
        (tmp_path / "lr.bin").write_bytes(raw[:-8])
        with pytest.raises(DataError, match="parameter"):
            load_checkpoint(tmp_path / "lr")

    def test_load_leaves_no_file_open(self, tmp_path):
        save_checkpoint(Model(tiny_config(), numeric_schema(3), seed=27), tmp_path / "tf")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_checkpoint(tmp_path / "tf")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_manifest_records_the_bin_digest(self, tmp_path):
        save_checkpoint(LogisticModel(numeric_schema(3), seed=28), tmp_path / "lr")
        doc = json.loads((tmp_path / "lr.json").read_text())
        assert doc["bin_sha256"] == hashlib.sha256((tmp_path / "lr.bin").read_bytes()).hexdigest()

    def test_changed_parameter_bytes_rejected(self, tmp_path):
        save_checkpoint(LogisticModel(numeric_schema(3), seed=29), tmp_path / "lr")
        raw = bytearray((tmp_path / "lr.bin").read_bytes())
        raw[-1] ^= 0x80
        (tmp_path / "lr.bin").write_bytes(bytes(raw))
        with pytest.raises(DataError, match="SHA-256"):
            load_checkpoint(tmp_path / "lr")

    def test_manifest_without_digest_loads_bitwise(self, tmp_path):
        model = Model(tiny_config(n_blocks=2), mixed_schema(), seed=30)
        save_checkpoint(model, tmp_path / "old")
        doc = json.loads((tmp_path / "old.json").read_text())
        del doc["bin_sha256"]
        (tmp_path / "old.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        X = np.array([[0.4, 1.0, -0.7, 0.0], [2.0, 0.0, 0.1, 2.0]])
        assert np.array_equal(load_checkpoint(tmp_path / "old").predict_proba(X), model.predict_proba(X))

    def test_parameter_file_of_a_partial_value_rejected(self, tmp_path):
        save_checkpoint(LogisticModel(numeric_schema(2), seed=31), tmp_path / "lr")
        doc = json.loads((tmp_path / "lr.json").read_text())
        del doc["bin_sha256"]
        (tmp_path / "lr.json").write_text(json.dumps(doc))
        raw = (tmp_path / "lr.bin").read_bytes()
        (tmp_path / "lr.bin").write_bytes(raw[:-3])
        with pytest.raises(DataError, match="parameter bytes"):
            load_checkpoint(tmp_path / "lr")

    def test_mlp_round_trip(self, tmp_path):
        model = MlpModel(numeric_schema(3), hidden=(5,), seed=26)
        save_checkpoint(model, tmp_path / "mlp")
        loaded = load_checkpoint(tmp_path / "mlp")
        X = np.random.default_rng(11).normal(size=(4, 3))
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))
        assert loaded.hidden == (5,)
