"""Transformer-based binary classification for tabular data.

A self-contained numpy stack: reverse-mode autodiff, a feature-tokenizer
transformer with logistic and MLP baselines, class-balanced training
with early stopping, stratified cross-validation with threshold-free
PR analysis, and permutation feature importance. Every run is a pure
function of its config and seed.
"""

from .autodiff import Parameter, Tape, Tensor, grad_check
from .data import (
    ColumnSchema,
    Dataset,
    FeatureSchema,
    FoldAssignment,
    GeneratorColumn,
    GeneratorSpec,
    apply_standardizer,
    bayes_probabilities,
    fit_standardizer,
    generate_synthetic,
    generate_table,
    load_csv,
    load_generator_spec,
    standardizer_from_schema,
    stratified_holdout,
    stratified_k_fold,
    write_csv,
)
from .errors import ConfigError, DataError, NumericError, ShapeError
from .evaluation import (
    CvReport,
    FoldReport,
    MetricSet,
    auprc,
    confusion_metrics,
    pr_curve,
    run_cv,
)
from .importance import FeatureImportance, ImportanceReport, permutation_importance
from .model import (
    LogisticModel,
    MlpModel,
    Model,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .seeding import stream_rng
from .training import AdamW, EarlyStopper, TrainConfig, TrainLog, balanced_bce, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ColumnSchema",
    "ConfigError",
    "CvReport",
    "DataError",
    "Dataset",
    "EarlyStopper",
    "FeatureImportance",
    "FeatureSchema",
    "FoldAssignment",
    "FoldReport",
    "GeneratorColumn",
    "GeneratorSpec",
    "ImportanceReport",
    "LogisticModel",
    "MetricSet",
    "MlpModel",
    "Model",
    "ModelConfig",
    "NumericError",
    "Parameter",
    "ShapeError",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainLog",
    "apply_standardizer",
    "auprc",
    "balanced_bce",
    "bayes_probabilities",
    "build_model",
    "confusion_metrics",
    "fit_standardizer",
    "generate_synthetic",
    "generate_table",
    "grad_check",
    "load_checkpoint",
    "load_csv",
    "load_generator_spec",
    "permutation_importance",
    "pr_curve",
    "run_cv",
    "save_checkpoint",
    "standardizer_from_schema",
    "stratified_holdout",
    "stratified_k_fold",
    "stream_rng",
    "train",
    "write_csv",
]
