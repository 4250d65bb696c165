"""Committed references for the pipeline's BLAS-free steps, compared
exactly: ``synth``'s CSV bytes, ``stratified_k_fold``'s assignment,
``holdout_split``'s validation rows and ``pr_curve`` on tied scores.
Elsewhere these steps are checked by their properties and by reruns
within one commit, which a fold boundary shifted by one row, or a tie
group of the PR sweep split in two, would pass; these tests fail on
either.

The references were taken with numpy 2.4.6 (Python 3.11). They depend
on numpy's PCG64 streams and its float formatting, not on OpenBLAS:
``synth``'s labels read one matrix-vector product, but only through
``draw < p``, which a last-bit change in p would flip only for a draw
inside that ulp. A change that moves any of them on purpose updates the
reference in the same commit and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np

from tabformer.cli import main
from tabformer.data import (
    CATEGORICAL, NUMERIC, ColumnSchema, Dataset, FeatureSchema, stratified_k_fold,
)
from tabformer.evaluation import holdout_split, pr_curve

# a fixed label vector: 32 positives among 80 rows, in a pattern no seed made
LABELS = np.array([(7 * i) % 5 < 2 for i in range(80)], dtype=np.int64)


def test_synth_csv_bytes(tmp_path):
    spec = {
        "columns": [
            {"name": "age", "kind": "numeric"},
            {"name": "dose", "kind": "numeric", "missing": True},
            {"name": "site", "kind": "categorical", "categories": 3},
            {"name": "asa", "kind": "categorical", "categories": 4, "missing": True},
        ],
        "weights": [1.5, -0.75, 0.5, 0.25],
        "bias": -0.5,
        "noise_rate": 0.05,
        "missing_rate": 0.2,
        "interactions": [{"pair": [0, 1], "weight": 2.0}],
        "seed": 3,
    }
    spec_path, out = tmp_path / "spec.json", tmp_path / "table.csv"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["synth", "--spec", str(spec_path), "--out", str(out), "--n", "500", "--seed", "11"]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "35503643e77e038c9ba69889cdd20692fa6c131c8d8b82c3b5a0d33476708e53"


def test_stratified_k_fold_assignment():
    folds = stratified_k_fold(LABELS, 5, seed=4)
    assert folds.assignment.tolist() == [
        0, 1, 4, 1, 0, 2, 1, 4, 4, 1, 1, 4, 2, 4, 2, 1, 0, 1, 0, 4,
        0, 0, 4, 2, 2, 4, 4, 2, 3, 2, 0, 3, 4, 4, 2, 0, 2, 3, 1, 3,
        4, 0, 1, 1, 0, 3, 1, 1, 3, 0, 2, 4, 1, 3, 0, 3, 2, 0, 0, 3,
        3, 3, 1, 2, 3, 1, 2, 3, 1, 4, 2, 1, 2, 0, 3, 2, 3, 0, 4, 0,
    ]


def test_holdout_split_validation_rows():
    # a categorical column holding each row's index survives standardization
    # untouched, so the validation rows can be read off the returned matrix
    schema = FeatureSchema(
        (
            ColumnSchema("row", CATEGORICAL, vocabulary=tuple(str(i) for i in range(LABELS.size))),
            ColumnSchema("x", NUMERIC),
        )
    )
    rows = np.column_stack([np.arange(LABELS.size), np.linspace(-2.0, 3.0, LABELS.size)])
    _, (X_fit, _), (X_val, y_val) = holdout_split(Dataset(rows, LABELS, schema), seed=9)
    validation = [2, 6, 30, 36, 42, 45, 46, 54, 55, 73]
    assert X_val[:, 0].tolist() == validation
    assert y_val.tolist() == LABELS[validation].tolist()
    assert sorted(X_fit[:, 0].tolist() + X_val[:, 0].tolist()) == list(range(LABELS.size))


def test_pr_curve_on_tied_scores():
    # tie groups at 0.8, 0.6, 0.5 and 0.2, each holding both labels
    scores = np.array([0.5, 0.8, 0.1, 0.6, 0.9, 0.2, 0.8, 0.5, 0.4, 0.7, 0.8, 0.2, 0.6, 0.5])
    labels = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0])
    # (true, false) positives after each group, descending: (1, 0), (3, 1),
    # (3, 2), (4, 3), (5, 5), (6, 5), (7, 6), (7, 7); 7 positives in all
    assert pr_curve(scores, labels).tolist() == [
        [0.0, 1.0], [1 / 7, 1.0], [3 / 7, 3 / 4], [3 / 7, 3 / 5], [4 / 7, 4 / 7],
        [5 / 7, 5 / 10], [6 / 7, 6 / 11], [7 / 7, 7 / 13], [7 / 7, 7 / 14],
    ]
