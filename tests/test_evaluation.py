import json
import math

import numpy as np
import pytest

from tabformer.cli import main
from tabformer.data import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    Dataset,
    FeatureSchema,
    GeneratorColumn,
    GeneratorSpec,
    bayes_probabilities,
    generate_synthetic,
    generate_table,
    load_csv,
    stratified_k_fold,
    write_csv,
)
from tabformer.errors import ConfigError, DataError, ShapeError
from tabformer.evaluation import (
    VAL_FRACTION,
    CvReport,
    FoldReport,
    MetricSet,
    aggregate_folds,
    auprc,
    confusion_metrics,
    holdout_split,
    pr_curve,
    pr_points_to_csv,
    run_cv,
)
from tabformer.model import LogisticModel, build_model, load_checkpoint
from tabformer.training import TrainConfig, train


def brute_force_counts(pred, labels):
    tp = fp = tn = fn = 0
    for p, y in zip(pred, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


class TestConfusionMetrics:
    def test_hand_counted_case(self):
        # TP=2 FP=1 FN=0 TN=7
        pred = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        m = confusion_metrics(pred, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 0, 7)
        assert m.precision == 2 / 3
        assert m.recall == 1.0
        assert m.f1 == 0.8
        assert m.accuracy == 0.9

    def test_identity_case(self):
        labels = np.array([0, 1, 1, 0, 1])
        m = confusion_metrics(labels, labels)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictions_engage_conventions(self):
        pred = np.zeros(6, dtype=int)
        labels = np.array([0, 1, 0, 1, 0, 1])
        m = confusion_metrics(pred, labels)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 0.5

    def test_randomized_cases_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, 2, size=n)
            labels = rng.integers(0, 2, size=n)
            m = confusion_metrics(pred, labels)
            tp, fp, tn, fn = brute_force_counts(pred, labels)
            assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
            assert m.accuracy == (tp + tn) / n
            expect_p = tp / (tp + fp) if tp + fp else 0.0
            expect_r = tp / (tp + fn) if tp + fn else 0.0
            expect_f1 = (
                2 * expect_p * expect_r / (expect_p + expect_r) if expect_p + expect_r else 0.0
            )
            assert m.precision == expect_p
            assert m.recall == expect_r
            assert m.f1 == expect_f1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_metrics(np.array([1, 0]), np.array([1]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion_metrics(np.array([]), np.array([]))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            confusion_metrics(np.array([2]), np.array([1]))


def brute_force_pr(scores, labels):
    # sweep every distinct score as a threshold (predict positive when
    # score >= threshold), in descending order
    n_pos = int((labels == 1).sum())
    points = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        pred = (scores >= t).astype(int)
        tp = int(((pred == 1) & (labels == 1)).sum())
        fp = int(((pred == 1) & (labels == 0)).sum())
        points.append((tp / n_pos, tp / (tp + fp)))
    return np.array(points)


def tie_group_loop_pr(scores, labels):
    # pr_curve as a loop over tie groups: counts accumulated group by group
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores, sorted_labels = scores[order], labels[order]
    points = [(0.0, 1.0)]
    tp = fp = i = 0
    while i < scores.size:
        j = i
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int((sorted_labels[i:j] == 1).sum())
        fp += int((sorted_labels[i:j] == 0).sum())
        points.append((tp / n_pos, tp / (tp + fp)))
        i = j
    return np.array(points, dtype=np.float64)


class TestPrCurve:
    def test_hand_case(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        labels = np.array([1, 0, 1, 0])
        points = pr_curve(scores, labels)
        expect = np.array([[0.0, 1.0], [0.5, 1.0], [0.5, 0.5], [1.0, 2 / 3], [1.0, 0.5]])
        assert np.allclose(points, expect, atol=1e-15)
        assert abs(auprc(points) - (0.5 * 1.0 + 0.5 * (2 / 3))) < 1e-15

    def test_perfect_ranking_hits_one_one_and_auprc_one(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        points = pr_curve(scores, labels)
        assert any(r == 1.0 and p == 1.0 for r, p in points)
        assert auprc(points) == 1.0

    def test_all_tied_scores_single_point_at_prevalence(self):
        scores = np.full(8, 0.4)
        labels = np.array([1, 0, 0, 1, 0, 0, 0, 0])
        points = pr_curve(scores, labels)
        assert points.shape == (2, 2)
        assert points[1, 0] == 1.0
        assert points[1, 1] == 0.25
        assert auprc(points) == 0.25  # exactly the prevalence

    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 60))
            # grid scores force tie groups
            scores = rng.integers(0, 8, size=n) / 8.0
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            assert np.array_equal(pr_curve(scores, labels), brute_force_pr(scores, labels))

    def test_bitwise_equal_to_the_tie_group_loop(self):
        rng = np.random.default_rng(11)
        for case in range(200):
            n = int(rng.integers(1, 300))
            # even cases on a coarse grid (many ties), odd ones continuous
            scores = rng.integers(0, 6, size=n) / 6.0 if case % 2 == 0 else rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            labels[0] = 1
            if case % 3 == 0:
                labels = labels.astype(float)
            assert np.array_equal(pr_curve(scores, labels), tie_group_loop_pr(scores, labels))

    def test_recall_nondecreasing(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=100)
        labels = rng.integers(0, 2, size=100)
        points = pr_curve(scores, labels)
        assert np.all(np.diff(points[:, 0]) >= 0)

    def test_monotone_transform_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(-32, 32, size=50) / 64.0
        labels = rng.integers(0, 2, size=50)
        labels[0] = 1
        base = pr_curve(scores, labels)
        for transform in (lambda s: 4.0 * s + 2.0, lambda s: s / 8.0 - 1.0):
            assert np.array_equal(pr_curve(transform(scores), labels), base)
        assert auprc(pr_curve(4.0 * scores + 2.0, labels)) == auprc(base)

    def test_zero_positives_rejected(self):
        with pytest.raises(DataError):
            pr_curve(np.array([0.5, 0.4]), np.array([0, 0]))

    def test_nan_scores_rejected(self):
        with pytest.raises(DataError):
            pr_curve(np.array([0.5, np.nan]), np.array([0, 1]))

    def test_random_scores_auprc_near_prevalence(self):
        rng = np.random.default_rng(4)
        prevalence = 0.3
        vals = []
        for _ in range(50):
            labels = (rng.random(500) < prevalence).astype(int)
            scores = rng.random(500)
            vals.append(auprc(pr_curve(scores, labels)))
        assert abs(np.mean(vals) - prevalence) < 0.05

    def test_auprc_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            scores = rng.normal(size=40)
            labels = rng.integers(0, 2, size=40)
            labels[0] = 1
            a = auprc(pr_curve(scores, labels))
            assert 0.0 <= a <= 1.0

    def test_csv_rendering(self):
        points = np.array([[0.0, 1.0], [0.5, 0.75]])
        csv = pr_points_to_csv(points)
        assert csv.splitlines()[0] == "recall,precision"
        assert csv.splitlines()[1] == "0.0,1.0"
        assert csv.splitlines()[2] == "0.5,0.75"


def make_fold(fold, f1, auprc_val):
    m = MetricSet(accuracy=f1, precision=f1, recall=f1, f1=f1, tp=1, fp=0, tn=1, fn=0)
    return FoldReport(fold=fold, threshold=0.5, metrics=m, auprc=auprc_val,
                      pr_points=np.array([[0.0, 1.0], [1.0, 1.0]]))


class TestAggregation:
    def test_mean_and_sample_std(self):
        folds = [make_fold(i, f1, a) for i, (f1, a) in enumerate([(0.8, 0.9), (0.9, 0.7), (1.0, 0.8)])]
        report = aggregate_folds(folds, "fp")
        assert abs(report.means["f1"] - 0.9) < 1e-15
        assert abs(report.stds["f1"] - np.std([0.8, 0.9, 1.0], ddof=1)) < 1e-15
        assert abs(report.means["auprc"] - 0.8) < 1e-15

    def test_recomputable_from_folds(self):
        rng = np.random.default_rng(6)
        folds = [make_fold(i, float(rng.random()), float(rng.random())) for i in range(5)]
        report = aggregate_folds(folds, "fp")
        for name in ("accuracy", "precision", "recall", "f1", "auprc"):
            vals = np.array([f.metric_value(name) for f in folds])
            assert abs(report.means[name] - vals.mean()) < 1e-12
            assert abs(report.stds[name] - vals.std(ddof=1)) < 1e-12

    def test_needs_two_folds(self):
        with pytest.raises(ConfigError):
            aggregate_folds([make_fold(0, 1.0, 1.0)], "fp")

    def test_json_round_trip_structure(self):
        folds = [make_fold(i, 0.5, 0.5) for i in range(2)]
        doc = json.loads(aggregate_folds(folds, "abc").to_json())
        assert doc["k"] == 2
        assert doc["config_fingerprint"] == "abc"
        assert doc["folds"][1]["counts"]["tp"] == 1


def separable_spec(weight=100.0, n_cols=2, seed=31):
    cols = tuple(GeneratorColumn(f"x{j}") for j in range(n_cols))
    weights = tuple([weight] + [0.0] * (n_cols - 1))
    return GeneratorSpec(columns=cols, weights=weights, seed=seed)


SMALL = {"embed_dim": 16, "n_heads": 4, "n_blocks": 2, "ffn_dim": 32, "dropout": 0.1}


def logistic_factory(schema, seed):
    return LogisticModel(schema, seed=seed)


def quick_config(**kw):
    base = dict(lr=0.02, batch_size=64, max_epochs=25, patience=5)
    base.update(kw)
    return TrainConfig(**base)


class TestRunCv:
    def test_partition_property(self):
        spec = separable_spec(weight=2.0)
        ds = generate_synthetic(spec, 100)
        report = run_cv(ds, logistic_factory, quick_config(max_epochs=2), k=5, seed=3)
        total = sum(f.metrics.tp + f.metrics.fp + f.metrics.tn + f.metrics.fn
                    for f in report.folds)
        assert total == 100
        assert len(report.folds) == 5

    def test_deterministic_reruns(self):
        spec = separable_spec(weight=3.0)
        ds = generate_synthetic(spec, 120)
        a = run_cv(ds, logistic_factory, quick_config(max_epochs=3), k=4, seed=7)
        b = run_cv(ds, logistic_factory, quick_config(max_epochs=3), k=4, seed=7)
        assert a.to_json() == b.to_json()

    def test_seed_changes_assignment(self):
        spec = separable_spec(weight=3.0)
        ds = generate_synthetic(spec, 120)
        a = run_cv(ds, logistic_factory, quick_config(max_epochs=2), k=4, seed=7)
        b = run_cv(ds, logistic_factory, quick_config(max_epochs=2), k=4, seed=8)
        assert a.to_json() != b.to_json()

    def test_logistic_on_separable_mean_auprc(self):
        # oracle first: the generator's Bayes scorer must clear the bar
        # by a wide margin before we ask it of a trained model
        spec = separable_spec()
        _, _, y_mc = generate_table(spec, 20000)
        bayes = bayes_probabilities(spec, 20000)
        assert auprc(pr_curve(bayes, y_mc)) > 0.99

        ds = generate_synthetic(spec, 400)
        report = run_cv(ds, logistic_factory, quick_config(), k=5, seed=11)
        assert report.means["auprc"] > 0.95

    def test_fold_reports_carry_train_logs(self):
        spec = separable_spec(weight=2.0)
        ds = generate_synthetic(spec, 100)
        report = run_cv(ds, logistic_factory, quick_config(max_epochs=4), k=5, seed=2)
        for f in report.folds:
            assert f.train_log is not None
            assert f.train_log.n_epochs >= 1

    def test_stratification_error_propagates(self):
        spec = separable_spec(weight=2.0)
        ds = generate_synthetic(spec, 30)
        with pytest.raises(DataError):
            run_cv(ds, logistic_factory, quick_config(), k=25, seed=0)


# ---------------------------------------------------------------------------
# holdout_split


def tagged_dataset(n=203, seed=4):
    """Two numeric columns and a categorical ``row`` column holding each
    row's own index. Standardization leaves categorical values as they
    are, so ``row`` tells which dataset row an output row came from."""
    rng = np.random.default_rng(seed)
    schema = FeatureSchema((
        ColumnSchema("a", NUMERIC),
        ColumnSchema("b", NUMERIC),
        ColumnSchema("row", CATEGORICAL, vocabulary=tuple(str(i) for i in range(n))),
    ))
    rows = np.column_stack([rng.normal(size=n), rng.normal(3.0, 2.0, size=n), np.arange(n)])
    labels = (rng.random(n) < 0.3).astype(np.int64)
    return Dataset(rows=rows, labels=labels, schema=schema)


def row_ids(X):
    return X[:, 2].astype(np.int64)


class TestHoldoutSplit:
    def test_fit_and_validation_rows_partition_the_dataset(self):
        ds = tagged_dataset()
        _, (X_fit, y_fit), (X_val, y_val) = holdout_split(ds, seed=3)
        fit_ids, val_ids = row_ids(X_fit), row_ids(X_val)
        assert not set(fit_ids) & set(val_ids)
        assert np.array_equal(np.sort(np.concatenate([fit_ids, val_ids])), np.arange(ds.n_rows))
        assert y_fit.dtype == y_val.dtype == np.float64
        assert np.array_equal(y_fit, ds.labels[fit_ids])
        assert np.array_equal(y_val, ds.labels[val_ids])

    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_validation_class_counts_are_proportional_within_one(self, seed):
        ds = tagged_dataset(seed=seed)
        _, _, (_, y_val) = holdout_split(ds, seed)
        for cls in (0, 1):
            share = (ds.labels == cls).sum() * VAL_FRACTION
            assert abs((y_val == cls).sum() - share) <= 1

    def test_validation_rows_are_fold_0_of_an_8_fold_deal(self):
        # what `importance --k-folds 8 --fold 0` at train's seed scores
        ds = tagged_dataset()
        _, _, (X_val, _) = holdout_split(ds, seed=5)
        deal = stratified_k_fold(ds.labels, int(round(1 / VAL_FRACTION)), 5)
        assert np.array_equal(row_ids(X_val), deal.fold_indices(0))

    def test_validation_values_do_not_reach_the_fit_rows_or_the_statistics(self):
        ds = tagged_dataset()
        schema, (X_fit, _), (X_val, _) = holdout_split(ds, seed=2)
        rows = ds.rows.copy()
        rows[row_ids(X_val)[0], :2] = (1e6, -1e6)
        spoiled = holdout_split(Dataset(rows=rows, labels=ds.labels, schema=ds.schema), seed=2)
        assert X_fit.tobytes() == spoiled[1][0].tobytes()
        assert schema == spoiled[0]
        assert schema.columns[0].mean is not None
        assert X_val.tobytes() != spoiled[2][0].tobytes()

    def test_train_command_fits_what_holdout_split_gives(self, tmp_path):
        spec = separable_spec(weight=2.0, n_cols=3)
        header, rows, _ = generate_table(spec, 240)
        write_csv(header, rows, tmp_path / "t.csv")
        config = {"model_config": SMALL, "train_config": {"max_epochs": 1, "batch_size": 64}}
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        rc = main([
            "train", "--config", str(tmp_path / "run.json"), "--data", str(tmp_path / "t.csv"),
            "--target", "label", "--seed", "6", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        saved = load_checkpoint(str(tmp_path / "out" / "model"))

        schema, fit, val = holdout_split(load_csv(tmp_path / "t.csv", "label"), 6)
        model = build_model("transformer", schema, seed=6, config=SMALL)
        train(model, fit, val, TrainConfig(seed=6, max_epochs=1, batch_size=64))
        assert saved.schema == model.schema
        for a, b in zip(saved.parameters(), model.parameters(), strict=True):
            assert a.data.tobytes() == b.data.tobytes()
