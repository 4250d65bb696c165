import gc
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Parameter, Tape, Tensor, grad_check
from tabformer.data import (
    GeneratorColumn,
    GeneratorSpec,
    apply_standardizer,
    fit_standardizer,
    generate_synthetic,
    stratified_holdout,
)
from tabformer.errors import ConfigError, DataError, ShapeError, from_dict
from tabformer.model import LogisticModel, MlpModel, Model, ModelConfig
from tabformer.data import CATEGORICAL, ColumnSchema, FeatureSchema, NUMERIC
from tabformer import training
from tabformer.seeding import stream_rng
from tabformer.training import (
    AdamW,
    EarlyStopper,
    TrainConfig,
    TrainLog,
    balanced_bce,
    class_weights,
    train,
)


def numeric_schema(n):
    return FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(n)))


MIXED = FeatureSchema((
    ColumnSchema("a", NUMERIC),
    ColumnSchema("c1", CATEGORICAL, vocabulary=("u", "v", "w")),
    ColumnSchema("b", NUMERIC),
    ColumnSchema("c2", CATEGORICAL, vocabulary=("p", "q")),
))
SMALL = ModelConfig(embed_dim=16, n_heads=4, n_blocks=2, ffn_dim=32, dropout=0.1)
# parameter lists an optimizer is built on: fresh ones per call, so a
# packed list never leaks from one test into the next
PARAMETER_LISTS = {
    "default": lambda: Model(ModelConfig(), MIXED, seed=1).parameters(),
    "small": lambda: Model(SMALL, MIXED, seed=2).parameters(),
    "mlp": lambda: MlpModel(MIXED, seed=3).parameters(),
    "loose": lambda: [Parameter(np.array([1.0, -2.0]), name="w", decay=True),
                      Parameter(np.zeros((0, 3)), name="empty"),
                      Parameter(np.array([[0.5], [4.0]]), name="b")],
}


class LoopAdamW:
    """The per-parameter AdamW update that the flat store replaced, kept
    as the reference that ``AdamW`` must match bit for bit."""

    def __init__(self, params, config):
        self.params = list(params)
        self.config = config
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        cfg = self.config
        self.t += 1
        b1, b2 = cfg.betas
        decay_factor = 1.0 - cfg.lr * cfg.weight_decay
        for i, p in enumerate(self.params):
            g = p.grad
            if p.decay and cfg.weight_decay > 0.0:
                p.data *= decay_factor
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.data -= cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps_adam))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(betas=(0.9, 1.0))
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-0.1)
        # a decay factor 1 - lr * wd at or below 0 would zero or flip every decayed weight
        for lr, wd in ((0.5, 4.0), (0.5, 2.0), (1.0, 1.0)):
            with pytest.raises(ConfigError, match=r"\[0, 1 / lr\)"):
                TrainConfig(lr=lr, weight_decay=wd)
        assert TrainConfig(lr=0.5, weight_decay=1.99).weight_decay == 1.99

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.0003
        assert cfg.betas == (0.9, 0.999)
        assert cfg.weight_decay == 0.001
        assert cfg.batch_size == 256
        assert cfg.max_epochs == 200
        assert cfg.patience == 10

    def test_dict_round_trip(self):
        cfg = TrainConfig(lr=0.01, seed=5)
        assert from_dict(TrainConfig, asdict(cfg)) == cfg


class TestClassWeights:
    def test_balanced_gives_exact_ones(self):
        w0, w1 = class_weights(np.array([0, 1, 0, 1]))
        assert w0 == 1.0 and w1 == 1.0

    def test_ten_percent_prevalence(self):
        labels = np.array([1] * 10 + [0] * 90)
        w0, w1 = class_weights(labels)
        assert w1 == 5.0
        assert w0 == 100.0 / 180.0

    def test_single_class_fold_rejected(self):
        with pytest.raises(DataError):
            class_weights(np.ones(8))
        with pytest.raises(DataError):
            class_weights(np.zeros(8))


class TestBalancedBce:
    def test_unit_weights_equal_plain_bce_bitwise(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.01, 0.99, size=50)
        y = rng.integers(0, 2, size=50).astype(float)
        got = float(balanced_bce(Tensor(p), y, (1.0, 1.0)).data)
        plain = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert got == plain

    def test_hand_value_single_sample(self):
        # y=1, p=0.5, positive share 0.1 -> w1=5, loss = 5 ln 2
        loss = float(balanced_bce(Tensor(np.array([0.5])), np.array([1.0]), (5.0 / 9.0, 5.0)).data)
        assert abs(loss - 5.0 * math.log(2.0)) < 1e-15

    def test_perfect_predictions_near_zero(self):
        p = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0])
        loss = float(balanced_bce(Tensor(p), y, (2.0, 3.0)).data)
        bound = -math.log(1.0 - 1e-7) * (2.0 + 3.0) / 2.0
        assert 0.0 < loss <= bound + 1e-18

    def test_gradient_through_sigmoid(self):
        z = Parameter(np.linspace(-2.0, 2.0, 8), name="z")
        y = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=float)

        def f():
            return balanced_bce(ad.sigmoid(z), y, (0.8, 1.25))

        assert grad_check(f, [z]) < 1e-6

    def test_clamped_region_has_zero_gradient(self):
        p = Parameter(np.array([1e-9, 1.0 - 1e-9, 0.5]), name="p")
        y = np.array([1.0, 0.0, 1.0])
        with Tape() as tape:
            loss = balanced_bce(p, y, (1.0, 1.0))
            tape.backward(loss)
        assert p.grad[0] == 0.0
        assert p.grad[1] == 0.0
        assert p.grad[2] != 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            balanced_bce(Tensor(np.array([0.5, 0.5])), np.array([1.0]), (1.0, 1.0))

    def test_weighting_scales_per_class_terms(self):
        p = np.array([0.3, 0.3])
        y = np.array([1.0, 0.0])
        base_pos = -math.log(0.3)
        base_neg = -math.log(0.7)
        loss = float(balanced_bce(Tensor(p), y, (4.0, 2.0)).data)
        assert abs(loss - (2.0 * base_pos + 4.0 * base_neg) / 2.0) < 1e-15


class TestAdamW:
    def test_zero_gradient_is_pure_decay_bitwise(self):
        cfg = TrainConfig(lr=0.01, weight_decay=0.5)
        p = Parameter(np.array([1.0, -2.0, 0.3]), name="w", decay=True)
        p.zero_grad()
        before = p.data.copy()
        AdamW([p], cfg).step()
        assert np.array_equal(p.data, before * (1.0 - 0.01 * 0.5))

    def test_no_decay_flag_spares_parameter(self):
        cfg = TrainConfig(lr=0.01, weight_decay=0.5)
        p = Parameter(np.array([1.0, -2.0]), name="b", decay=False)
        p.zero_grad()
        before = p.data.copy()
        AdamW([p], cfg).step()
        assert np.array_equal(p.data, before)

    def test_first_step_matches_hand_reference(self):
        cfg = TrainConfig(lr=0.0003, weight_decay=0.0)
        p = Parameter(np.array([0.0]), name="w", decay=True)
        p.zero_grad()
        p.grad[...] = 1.0
        AdamW([p], cfg).step()
        b1, b2 = cfg.betas
        m = (1.0 - b1) * 1.0
        v = (1.0 - b2) * 1.0
        m_hat = m / (1.0 - b1)
        v_hat = v / (1.0 - b2)
        expect = 0.0 - cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps_adam))
        assert p.data[0] == expect
        assert abs(p.data[0] + cfg.lr) < 1e-10  # roughly -lr

    def test_constant_gradient_step_sizes_nonincreasing(self):
        cfg = TrainConfig(lr=0.001, weight_decay=0.0)
        p = Parameter(np.array([0.0]), name="w", decay=True)
        opt = AdamW([p], cfg)
        p.zero_grad()
        p.grad[...] = 2.5
        x0 = p.data[0]
        opt.step()
        x1 = p.data[0]
        opt.step()
        x2 = p.data[0]
        assert abs(x2 - x1) <= abs(x1 - x0) + 1e-12

    def test_one_step_descends_convex_loss(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(32, 4))
        y = (X[:, 0] > 0).astype(float)
        model = LogisticModel(numeric_schema(4), seed=2)
        cfg = TrainConfig(lr=1e-3, weight_decay=0.0)
        opt = AdamW(model.parameters(), cfg)

        def batch_loss():
            return float(balanced_bce(model.forward_batch(X), y, (1.0, 1.0)).data)

        before = batch_loss()
        for p in model.parameters():
            p.zero_grad()
        with Tape() as tape:
            loss = balanced_bce(model.forward_batch(X), y, (1.0, 1.0))
            tape.backward(loss)
        opt.step()
        assert batch_loss() < before

    @pytest.mark.parametrize("kind", sorted(PARAMETER_LISTS))
    def test_store_holds_every_parameter_as_a_view_in_order(self, kind):
        params = PARAMETER_LISTS[kind]()
        rng = np.random.default_rng(4)
        for p in params:
            p.grad[...] = rng.normal(size=p.shape)
        values = [p.data.copy() for p in params]
        grads = [p.grad.copy() for p in params]
        opt = AdamW(params, TrainConfig())
        pos = 0
        for p, value, grad in zip(params, values, grads):
            for view, store, before in ((p.data, opt.data, value), (p.grad, opt.grad, grad)):
                assert view.base is store
                assert p.size == 0 or view.ctypes.data == store.ctypes.data + 8 * pos
                assert view.shape == before.shape and np.array_equal(view, before)
            pos += p.size
        assert opt.data.shape == opt.grad.shape == (pos,)

    @pytest.mark.parametrize("weight_decay", [0.1, 0.0])
    @pytest.mark.parametrize("kind", ["default", "small", "mlp"])
    def test_flat_update_matches_per_parameter_loop_bitwise(self, kind, weight_decay):
        cfg = TrainConfig(lr=0.01, weight_decay=weight_decay)
        loop_params, flat_params = PARAMETER_LISTS[kind](), PARAMETER_LISTS[kind]()
        loop, flat = LoopAdamW(loop_params, cfg), AdamW(flat_params, cfg)
        rng = np.random.default_rng(5)
        for step in range(300):
            for p, q in zip(loop_params, flat_params):
                # every 7th step, and one parameter in 5 on the others, has an all-zero gradient
                zero = step % 7 == 0 or rng.random() < 0.2
                p.grad[...] = q.grad[...] = 0.0 if zero else rng.normal(size=p.shape)
            loop.step()
            flat.step()
        for p, q in zip(loop_params, flat_params):
            assert np.array_equal(p.data, q.data), p.name


class TestEarlyStopper:
    def test_strictly_decreasing_never_stops(self):
        stopper = EarlyStopper(patience=10)
        for epoch in range(1, 201):
            assert not stopper.update(epoch, 1.0 / epoch)
        assert stopper.best_epoch == 200

    def test_flat_sequence_stops_after_patience_plus_one(self):
        stopper = EarlyStopper(patience=10)
        stopped_at = None
        for epoch in range(1, 100):
            if stopper.update(epoch, 1.0):
                stopped_at = epoch
                break
        assert stopped_at == 11
        assert stopper.best_epoch == 1

    def test_improvement_must_beat_tolerance(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(1, 1.0)
        assert not stopper.update(2, 1.0 - 1e-13)  # inside tolerance: no improvement
        assert stopper.update(3, 1.0 - 5e-13)
        assert stopper.best_epoch == 1

    def test_patience_validated(self):
        with pytest.raises(ConfigError):
            EarlyStopper(patience=0)


def standardized_split(spec, n, holdout_seed=3):
    ds = generate_synthetic(spec, n)
    val_mask = stratified_holdout(ds.labels, 0.125, seed=holdout_seed)
    tr, va = ds.subset(np.flatnonzero(~val_mask)), ds.subset(np.flatnonzero(val_mask))
    stats = fit_standardizer(tr.rows, ds.schema)
    return (
        (apply_standardizer(tr.rows, stats), tr.labels.astype(float)),
        (apply_standardizer(va.rows, stats), va.labels.astype(float)),
    )


class TestTrain:
    def tiny_transformer(self, n_features, seed=0):
        cfg = ModelConfig(embed_dim=8, n_heads=2, n_blocks=1, ffn_dim=16, dropout=0.1)
        return Model(cfg, numeric_schema(n_features), seed=seed)

    def test_bitwise_deterministic(self):
        spec = GeneratorSpec(
            columns=tuple(GeneratorColumn(f"x{j}") for j in range(3)),
            weights=(4.0, 0.0, 0.0),
            seed=7,
        )
        train_split, val_split = standardized_split(spec, 80)
        cfg = TrainConfig(lr=0.003, max_epochs=3, batch_size=16, seed=11)
        runs = []
        for _ in range(2):
            model = self.tiny_transformer(3, seed=5)
            log = train(model, train_split, val_split, cfg)
            runs.append(
                (
                    np.concatenate([p.data.ravel() for p in model.parameters()]),
                    tuple(log.train_losses),
                    tuple(log.val_losses),
                )
            )
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_one_epoch_matches_manual_loop_with_partial_batch(self):
        # n=5 with batch_size=4 trains batches of 4 then 1; replicating
        # the loop by hand must land on identical parameters
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 2))
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        X_val = rng.normal(size=(4, 2))
        y_val = np.array([1.0, 0.0, 1.0, 0.0])
        cfg = TrainConfig(lr=0.01, batch_size=4, max_epochs=1, seed=9)

        trained = LogisticModel(numeric_schema(2), seed=3)
        train(trained, (X, y), (X_val, y_val), cfg)

        manual = LogisticModel(numeric_schema(2), seed=3)
        weights = class_weights(y)
        opt = AdamW(manual.parameters(), cfg)
        order = stream_rng(cfg.seed, "shuffle").permutation(5)
        for lo in (0, 4):
            batch = order[lo : lo + 4]
            for p in manual.parameters():
                p.zero_grad()
            with Tape() as tape:
                loss = balanced_bce(manual.forward_batch(X[batch]), y[batch], weights)
                tape.backward(loss)
            opt.step()
        assert np.array_equal(trained.w.data, manual.w.data)
        assert np.array_equal(trained.b.data, manual.b.data)

    def test_step_tape_is_freed_without_cycle_collection(self, monkeypatch):
        tapes = []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", RecordingTape)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 3))
        y = np.array([1.0, 0.0] * 4)
        model = self.tiny_transformer(3, seed=2)
        gc.disable()
        try:
            train(model, (X, y), (X, y), TrainConfig(batch_size=8, max_epochs=1))
            assert len(tapes) == 1
            assert tapes[0]() is None
        finally:
            gc.enable()

    def test_last_step_graph_released_before_validation(self, monkeypatch):
        tapes = []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        def evaluate(*args):
            assert tapes and all(ref() is None for ref in tapes)
            return 1.0

        monkeypatch.setattr(training, "Tape", RecordingTape)
        monkeypatch.setattr(training, "_evaluate_loss", evaluate)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 3))
        y = np.array([1.0, 0.0] * 6)
        model = self.tiny_transformer(3, seed=2)
        gc.disable()
        try:
            train(model, (X, y), (X, y), TrainConfig(batch_size=8, max_epochs=2))
        finally:
            gc.enable()
        assert len(tapes) == 4

    def test_restored_parameters_match_logged_best_epoch(self, monkeypatch):
        # epoch 2 beats epoch 1 by a margin whose float arithmetic sits
        # at the 1e-12 tolerance: the restored parameters must be those
        # of the epoch the log names
        losses = iter([1.137860710573179, 1.137860710572179, 2.0, 2.0])
        snapshots = []

        def evaluate(model, X, y, weights):
            snapshots.append([p.data.copy() for p in model.parameters()])
            return next(losses)

        monkeypatch.setattr(training, "_evaluate_loss", evaluate)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(16, 2))
        y = np.array([0, 1] * 8, dtype=float)
        cfg = TrainConfig(lr=0.05, batch_size=8, max_epochs=4, patience=10, seed=3)
        model = LogisticModel(numeric_schema(2), seed=9)
        log = train(model, (X, y), (X, y), cfg)
        assert log.best_epoch == 2
        for p, saved in zip(model.parameters(), snapshots[1]):
            assert np.array_equal(p.data, saved)
        assert not np.array_equal(snapshots[0][0], snapshots[1][0])

    def test_early_stopping_with_negligible_lr(self):
        # lr=1e-15 keeps the cumulative loss drift across a patience
        # window far below the 1e-12 improvement tolerance, so epoch 1
        # stays best and patience runs out
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10, dtype=float)
        cfg = TrainConfig(lr=1e-15, batch_size=8, max_epochs=50, patience=3, seed=1)
        model = LogisticModel(numeric_schema(2), seed=6)
        log = train(model, (X, y), (X[:8], y[:8]), cfg)
        assert log.stop_reason == "early_stopping"
        assert log.n_epochs == 4  # patience 3 exhausted after epoch 4
        assert log.best_epoch == 1

    def test_max_epochs_stop_reason(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(16, 2))
        y = np.array([0, 1] * 8, dtype=float)
        cfg = TrainConfig(lr=0.01, batch_size=8, max_epochs=4, seed=2)
        model = LogisticModel(numeric_schema(2), seed=7)
        log = train(model, (X, y), (X, y), cfg)
        assert log.stop_reason == "max_epochs"
        assert log.n_epochs == 4

    def test_best_epoch_parameters_restored_bitwise(self):
        spec = GeneratorSpec(
            columns=(GeneratorColumn("x0"), GeneratorColumn("x1")),
            weights=(3.0, 0.0),
            noise_rate=0.2,
            seed=8,
        )
        train_split, val_split = standardized_split(spec, 120)
        cfg = TrainConfig(lr=0.05, batch_size=32, max_epochs=30, patience=5, seed=13)
        model = LogisticModel(numeric_schema(2), seed=8)
        log = train(model, train_split, val_split, cfg)
        assert log.best_val_loss == min(log.val_losses)
        # re-scoring the restored parameters must reproduce the logged
        # best value exactly
        X_val, y_val = val_split
        weights = class_weights(train_split[1])
        re_scored = float(
            balanced_bce(model.forward_batch(X_val), y_val, weights).data
        )
        assert re_scored == log.best_val_loss
        assert log.val_losses[log.best_epoch - 1] == log.best_val_loss

    def test_single_class_fold_raises(self):
        X = np.zeros((6, 2))
        y = np.ones(6)
        model = LogisticModel(numeric_schema(2), seed=0)
        with pytest.raises(DataError):
            train(model, (X, y), (X, y), TrainConfig())

    def test_balanced_weights_reduce_to_plain_bce_training(self):
        # with n_pos == n_neg the computed weights are exactly (1, 1),
        # so training equals training against the unweighted loss
        rng = np.random.default_rng(9)
        X = rng.normal(size=(24, 2))
        y = np.array([0, 1] * 12, dtype=float)
        w0, w1 = class_weights(y)
        assert (w0, w1) == (1.0, 1.0)
        p = rng.uniform(0.05, 0.95, size=24)
        balanced = float(balanced_bce(Tensor(p), y, (w0, w1)).data)
        plain = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert balanced == plain

    def test_separable_data_reaches_high_validation_f1(self):
        # oracle first: with weight 100 the Bayes scorer's F1 at 0.5
        # exceeds 0.99 by Monte-Carlo, so demanding 0.95 of a trained
        # logistic model leaves honest headroom
        spec = GeneratorSpec(columns=(GeneratorColumn("x0"),), weights=(100.0,), seed=21)
        from tabformer.data import bayes_probabilities, generate_table

        _, _, y_mc = generate_table(spec, 20000)
        pred_mc = (bayes_probabilities(spec, 20000) > 0.5).astype(int)
        tp = int(((pred_mc == 1) & (y_mc == 1)).sum())
        fp = int(((pred_mc == 1) & (y_mc == 0)).sum())
        fn = int(((pred_mc == 0) & (y_mc == 1)).sum())
        assert 2 * tp / (2 * tp + fp + fn) > 0.99

        train_split, val_split = standardized_split(spec, 600)
        cfg = TrainConfig(lr=0.01, batch_size=64, max_epochs=60, patience=10, seed=17)
        model = LogisticModel(numeric_schema(1), seed=10)
        train(model, train_split, val_split, cfg)
        X_val, y_val = val_split
        pred = (model.predict_proba(X_val) > 0.5).astype(int)
        tp = int(((pred == 1) & (y_val == 1)).sum())
        fp = int(((pred == 1) & (y_val == 0)).sum())
        fn = int(((pred == 0) & (y_val == 1)).sum())
        assert 2 * tp / (2 * tp + fp + fn) > 0.95

    def test_log_json_fields(self):
        log = TrainLog(train_losses=[1.0, 0.5], val_losses=[1.1, 0.6],
                       best_epoch=2, best_val_loss=0.6, stop_reason="max_epochs")
        import json as _json

        doc = _json.loads(log.to_json())
        assert doc["epochs"] == 2
        assert doc["best_epoch"] == 2
        assert doc["stop_reason"] == "max_epochs"
        assert doc["val_losses"] == [1.1, 0.6]
