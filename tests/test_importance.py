import json

import numpy as np
import pytest

from tabformer.data import (
    ColumnSchema,
    FeatureSchema,
    GeneratorColumn,
    GeneratorSpec,
    NUMERIC,
    apply_standardizer,
    fit_standardizer,
    generate_synthetic,
    stratified_holdout,
)
from tabformer.errors import ConfigError, DataError, ShapeError
from tabformer.importance import permutation_importance
from tabformer.model import LogisticModel
from tabformer.training import TrainConfig, train


def numeric_schema(n):
    return FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(n)))


class FixedLogistic(LogisticModel):
    """Logistic model with caller-chosen weights, no training."""

    def __init__(self, weights, bias=0.0):
        super().__init__(numeric_schema(len(weights)), seed=0)
        self.w.data[:, 0] = weights
        self.b.data[...] = bias


class SpyModel(FixedLogistic):
    def __init__(self, weights):
        super().__init__(weights)
        self.seen = []

    def predict_proba(self, X):
        self.seen.append(X.copy())
        return super().predict_proba(X)


def trained_on_known_dependency(n=600, n_cols=4):
    cols = tuple(GeneratorColumn(f"x{j}") for j in range(n_cols))
    spec = GeneratorSpec(columns=cols, weights=(100.0,) + (0.0,) * (n_cols - 1), seed=40)
    ds = generate_synthetic(spec, n)
    val_mask = stratified_holdout(ds.labels, 0.25, seed=1)
    tr = ds.subset(np.flatnonzero(~val_mask))
    va = ds.subset(np.flatnonzero(val_mask))
    stats = fit_standardizer(tr.rows, ds.schema)
    model = LogisticModel(ds.schema, seed=2)
    cfg = TrainConfig(lr=0.02, batch_size=64, max_epochs=40, patience=8, seed=3)
    train(
        model,
        (apply_standardizer(tr.rows, stats), tr.labels.astype(float)),
        (apply_standardizer(va.rows, stats), va.labels.astype(float)),
        cfg,
    )
    return model, apply_standardizer(va.rows, stats), va.labels


class TestPermutationImportance:
    def test_active_feature_first_nulls_flat(self):
        model, X_val, y_val = trained_on_known_dependency()
        report = permutation_importance(model, X_val, y_val, repeats=5, seed=9)
        top = report.features[0]
        assert top.index == 0
        assert top.rank == 1
        assert top.mean_drop > 0.2
        for f in report.features[1:]:
            assert abs(f.mean_drop) < 0.05

    def test_constant_column_drop_exactly_zero(self):
        model = FixedLogistic([3.0, 0.5, 1.0])
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        X[:, 1] = 2.5  # constant: every permutation is a value no-op
        y = (X[:, 0] > 0).astype(int)
        report = permutation_importance(model, X, y, repeats=4, seed=6)
        const = next(f for f in report.features if f.index == 1)
        assert const.mean_drop == 0.0
        assert const.std_drop == 0.0

    def test_identity_check_forces_all_zero_drops(self):
        model = FixedLogistic([2.0, -1.0])
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        report = permutation_importance(model, X, y, repeats=3, seed=8, identity_check=True)
        assert all(f.mean_drop == 0.0 and f.std_drop == 0.0 for f in report.features)

    def test_single_repeat_has_zero_std(self):
        model = FixedLogistic([2.0, 0.0])
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        report = permutation_importance(model, X, y, repeats=1, seed=10)
        assert all(f.std_drop == 0.0 for f in report.features)

    def test_baseline_matches_confusion_metrics_bitwise(self):
        from tabformer.evaluation import confusion_metrics

        model = FixedLogistic([1.5, -0.5])
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 2))
        y = (rng.random(60) < 0.4).astype(int)
        report = permutation_importance(model, X, y, repeats=2, seed=12)
        preds = (model.predict_proba(X) > 0.5).astype(int)
        assert report.baseline_f1 == confusion_metrics(preds, y).f1

    def test_columns_other_than_target_untouched_and_multiset_preserved(self):
        model = SpyModel([1.0, 1.0, 1.0])
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 3))
        y = (X.sum(axis=1) > 0).astype(int)
        permutation_importance(model, X, y, repeats=2, seed=14)
        # first call is the baseline on the untouched matrix
        assert np.array_equal(model.seen[0], X)
        k = 1
        for j in range(3):
            for _ in range(2):
                seen = model.seen[k]
                k += 1
                for other in range(3):
                    if other == j:
                        assert np.array_equal(np.sort(seen[:, j]), np.sort(X[:, j]))
                    else:
                        assert np.array_equal(seen[:, other], X[:, other])

    def test_deterministic_and_seed_sensitive(self):
        model = FixedLogistic([1.0, 0.3, -0.2])
        rng = np.random.default_rng(15)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=50) > 0).astype(int)
        a = permutation_importance(model, X, y, repeats=3, seed=16).to_json()
        b = permutation_importance(model, X, y, repeats=3, seed=16).to_json()
        c = permutation_importance(model, X, y, repeats=3, seed=17).to_json()
        assert a == b
        assert a != c

    def test_negative_drops_not_clamped(self):
        # model anti-correlated with the label: baseline F1 is ~0 and
        # shuffling the column can only help
        model = FixedLogistic([-5.0])
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 1))
        y = (X[:, 0] > 0).astype(int)
        report = permutation_importance(model, X, y, repeats=3, seed=19)
        assert report.features[0].mean_drop < 0.0

    def test_ranks_are_a_permutation_with_schema_tiebreak(self):
        model = FixedLogistic([0.0, 0.0, 0.0])  # constant 0.5 scores
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 3))
        y = np.array([0, 1] * 15)
        report = permutation_importance(model, X, y, repeats=2, seed=21)
        assert [f.rank for f in report.features] == [1, 2, 3]
        # all drops tie at 0, so rank order falls back to schema order
        assert [f.index for f in report.features] == [0, 1, 2]

    def test_single_class_validation_rejected(self):
        model = FixedLogistic([1.0])
        X = np.random.default_rng(22).normal(size=(10, 1))
        with pytest.raises(DataError):
            permutation_importance(model, X, np.ones(10, dtype=int))

    def test_repeats_validated(self):
        model = FixedLogistic([1.0])
        X = np.random.default_rng(23).normal(size=(10, 1))
        y = np.array([0, 1] * 5)
        with pytest.raises(ConfigError):
            permutation_importance(model, X, y, repeats=0)

    def test_schema_width_mismatch(self):
        model = FixedLogistic([1.0, 2.0])
        X = np.random.default_rng(24).normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        with pytest.raises(ShapeError):
            permutation_importance(model, X, y)

    def test_json_and_csv_rendering(self):
        model = FixedLogistic([2.0, 0.0])
        rng = np.random.default_rng(25)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        report = permutation_importance(model, X, y, repeats=2, seed=26)
        doc = json.loads(report.to_json())
        assert doc["repeats"] == 2
        assert len(doc["features"]) == 2
        csv = report.to_csv(top_n=1)
        lines = csv.strip().splitlines()
        assert lines[0] == "feature,mean_drop"
        assert len(lines) == 2
        assert lines[1].startswith(report.features[0].name + ",")
        # plain names keep the bytes of the hand-joined format
        assert report.to_csv() == "feature,mean_drop\n" + "".join(
            f"{f.name},{f.mean_drop!r}\n" for f in report.features
        )
