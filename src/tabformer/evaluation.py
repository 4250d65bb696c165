"""Cross-validation orchestration and classification metrics.

Metric conventions: precision is 0 when nothing is predicted positive,
recall is 0 when there are no positive labels to recover, F1 is 0 when
precision + recall is 0. The PR curve sweeps distinct score values
descending (tied scores enter as one group) behind a (0, 1) anchor, and
AUPRC is the average-precision step sum, never trapezoids.

run_cv keeps the test fold pristine: holdout_split carves the
early-stopping validation subset out of the training portion only (12.5%,
stratified) and fits standardization statistics on the remaining rows.
Per-fold RNG streams derive from seed + fold_index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .data import (
    Dataset,
    apply_standardizer,
    fit_standardizer,
    stratified_holdout,
    stratified_k_fold,
)
from .errors import ConfigError, DataError, ShapeError, json_text
from .training import TrainConfig, TrainLog, train

VAL_FRACTION = 0.125
METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "auprc")


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int


def confusion_metrics(predictions: np.ndarray, labels: np.ndarray) -> MetricSet:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"predictions {predictions.shape} and labels {labels.shape} disagree"
        )
    if predictions.size == 0:
        raise DataError("cannot score an empty prediction set")
    for name, arr in (("predictions", predictions), ("labels", labels)):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} must be 0/1")
    tp = int(((predictions == 1) & (labels == 1)).sum())
    fp = int(((predictions == 1) & (labels == 0)).sum())
    tn = int(((predictions == 0) & (labels == 0)).sum())
    fn = int(((predictions == 0) & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricSet(
        accuracy=(tp + tn) / predictions.size,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def pr_curve(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(recall, precision) rows: the (0, 1) anchor, then one point per
    distinct score value swept descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} and labels {labels.shape} disagree")
    if not np.isfinite(scores).all():
        raise DataError("scores contain non-finite values")
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise DataError("PR curve needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # the last index of each tie group, where the cumulative counts are read
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), scores.size - 1)
    tp = np.cumsum(sorted_labels == 1)[ends]
    fp = np.cumsum(sorted_labels == 0)[ends]
    points = np.empty((ends.size + 1, 2), dtype=np.float64)
    points[0] = (0.0, 1.0)
    points[1:, 0] = tp / n_pos
    points[1:, 1] = tp / (tp + fp)
    return points


def auprc(points: np.ndarray) -> float:
    """Average-precision step sum over the sweep points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
        raise ShapeError(f"expected (m, 2) curve points, got {points.shape}")
    recall = points[:, 0]
    precision = points[:, 1]
    return float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def pr_points_to_csv(points: np.ndarray) -> str:
    lines = ["recall,precision"] + [f"{r!r},{p!r}" for r, p in points.tolist()]
    return "\n".join(lines) + "\n"


@dataclass
class FoldReport:
    fold: int
    threshold: float
    metrics: MetricSet
    auprc: float
    pr_points: np.ndarray
    train_log: Optional[TrainLog] = None

    def metric_value(self, name: str) -> float:
        if name == "auprc":
            return self.auprc
        return getattr(self.metrics, name)

    def to_dict(self) -> dict:
        """The fold's metrics; its PR curve goes to ``fold_<i>_pr.csv`` only."""
        return {
            "fold": self.fold,
            "threshold": self.threshold,
            **{name: self.metric_value(name) for name in METRIC_NAMES},
            "counts": {
                "tp": self.metrics.tp,
                "fp": self.metrics.fp,
                "tn": self.metrics.tn,
                "fn": self.metrics.fn,
            },
        }


@dataclass
class CvReport:
    folds: list
    means: dict
    stds: dict
    config_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "config_fingerprint": self.config_fingerprint,
            "k": len(self.folds),
            "means": dict(self.means),
            "stds": dict(self.stds),
            "folds": [f.to_dict() for f in self.folds],
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def aggregate_folds(folds: Sequence[FoldReport], config_fingerprint: str) -> CvReport:
    """Mean and sample std (divisor k-1) per metric across folds."""
    if len(folds) < 2:
        raise ConfigError("aggregation needs at least 2 folds")
    means = {}
    stds = {}
    for name in METRIC_NAMES:
        vals = np.array([f.metric_value(name) for f in folds], dtype=np.float64)
        means[name] = float(vals.mean())
        stds[name] = float(vals.std(ddof=1))
    return CvReport(folds=list(folds), means=means, stds=stds,
                    config_fingerprint=config_fingerprint)


def _fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def holdout_split(dataset: Dataset, seed: int) -> tuple:
    """The early-stopping split of ``train`` and of every cv fold.

    Returns ``(schema, (X_fit, y_fit), (X_val, y_val))``: the validation
    rows are a stratified ``VAL_FRACTION`` holdout seeded ``seed``, and
    standardization statistics fitted on the other rows only are stamped
    into the schema and applied to both sides. Labels are float64.
    """
    val_mask = stratified_holdout(dataset.labels, VAL_FRACTION, seed)
    fit_rows = dataset.rows[~val_mask]
    schema = fit_standardizer(fit_rows, dataset.schema)
    fit = (apply_standardizer(fit_rows, schema), dataset.labels[~val_mask].astype(np.float64))
    val = (
        apply_standardizer(dataset.rows[val_mask], schema),
        dataset.labels[val_mask].astype(np.float64),
    )
    return schema, fit, val


def run_cv(
    dataset: Dataset,
    model_factory: Callable,
    train_config: TrainConfig,
    k: int = 5,
    threshold: float = 0.5,
    seed: int = 0,
) -> CvReport:
    """Stratified k-fold protocol.

    For fold f: ``holdout_split`` of the other k-1 folds, seeded
    seed + f, gives the early-stopping validation rows and the
    standardization statistics, which also standardize fold f. The model
    trains with streams seeded seed + f, and fold f is scored at
    ``threshold`` (strictly greater).
    """
    assignment = stratified_k_fold(dataset.labels, k, seed)
    folds = []
    sample_model = None
    for f in range(k):
        schema, fit, val = holdout_split(dataset.subset(assignment.other_indices(f)), seed + f)
        model = model_factory(schema, seed + f)
        if sample_model is None:
            sample_model = model
        log = train(model, fit, val, replace(train_config, seed=seed + f))

        test_idx = assignment.fold_indices(f)
        X_test = apply_standardizer(dataset.rows[test_idx], schema)
        y_test = dataset.labels[test_idx]
        probs = model.predict_proba(X_test)
        preds = (probs > threshold).astype(np.int64)
        metrics = confusion_metrics(preds, y_test)
        points = pr_curve(probs, y_test)
        folds.append(
            FoldReport(
                fold=f,
                threshold=threshold,
                metrics=metrics,
                auprc=auprc(points),
                pr_points=points,
                train_log=log,
            )
        )

    fingerprint = _fingerprint(
        {
            "kind": sample_model.kind,
            "model_config": sample_model.config_dict(),
            "train_config": asdict(train_config),
            "k": k,
            "threshold": threshold,
            "seed": seed,
            "schema": dataset.schema.fingerprint(),
        }
    )
    return aggregate_folds(folds, fingerprint)
