"""Permutation feature importance against any frozen model.

Protocol: score once at threshold 0.5 for the baseline F1, then for
each feature shuffle that one column within the held-out set (R
independent repeats), re-score, and report drop = baseline - permuted.
Drops may be negative and are never clamped. The per-feature RNG stream
derives from seed + feature_index, so features can be processed in any
order (or in parallel) without changing results.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, ShapeError, json_text
from .evaluation import confusion_metrics
from .seeding import stream_rng


@dataclass(frozen=True)
class FeatureImportance:
    name: str
    index: int
    mean_drop: float
    std_drop: float
    rank: int


@dataclass
class ImportanceReport:
    baseline_f1: float
    repeats: int
    seed: int
    threshold: float
    features: list  # sorted by rank

    def to_json(self) -> str:
        return json_text(asdict(self))

    def to_csv(self, top_n: Optional[int] = None) -> str:
        """CSV text: a name holding a comma, a quote or a line break is quoted."""
        rows = self.features if top_n is None else self.features[:top_n]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["feature", "mean_drop"])
        writer.writerows([f.name, repr(f.mean_drop)] for f in rows)
        return buf.getvalue()


def _f1_at(model, X: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    preds = (model.predict_proba(X) > threshold).astype(np.int64)
    return confusion_metrics(preds, labels).f1


def permutation_importance(
    model,
    X: np.ndarray,
    labels: np.ndarray,
    repeats: int = 5,
    seed: int = 0,
    threshold: float = 0.5,
    identity_check: bool = False,
) -> ImportanceReport:
    """``X`` is the standardized held-out matrix the model scores
    directly. ``identity_check=True`` replaces every shuffle with the
    identity permutation; all drops must then be exactly zero."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] != labels.shape[0]:
        raise ShapeError(f"rows {X.shape} and labels {labels.shape} disagree")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    n_pos = int((labels == 1).sum())
    if n_pos == 0 or n_pos == labels.shape[0]:
        raise DataError("importance needs a validation set with both classes")
    names = model.schema.names
    if len(names) != X.shape[1]:
        raise ShapeError(
            f"matrix has {X.shape[1]} columns, model schema has {len(names)}"
        )

    baseline = _f1_at(model, X, labels, threshold)
    n = X.shape[0]
    stats = []
    for j, name in enumerate(names):
        rng = stream_rng(seed + j, "importance")
        drops = np.empty(repeats, dtype=np.float64)
        for r in range(repeats):
            perm = np.arange(n) if identity_check else rng.permutation(n)
            permuted = X.copy()
            permuted[:, j] = X[perm, j]
            drops[r] = baseline - _f1_at(model, permuted, labels, threshold)
        stats.append((name, j, float(drops.mean()), float(drops.std())))

    order = sorted(range(len(stats)), key=lambda i: (-stats[i][2], stats[i][1]))
    features = [
        FeatureImportance(
            name=stats[i][0],
            index=stats[i][1],
            mean_drop=stats[i][2],
            std_drop=stats[i][3],
            rank=rank,
        )
        for rank, i in enumerate(order, start=1)
    ]
    return ImportanceReport(
        baseline_f1=baseline,
        repeats=repeats,
        seed=seed,
        threshold=threshold,
        features=features,
    )
