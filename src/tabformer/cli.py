"""Command-line entry points: synth | cv | train | importance.

Every command is a pure function of (config file, input files, seed);
rerunning with identical inputs produces byte-identical outputs. JSON
configs carry anything nested (model_config, train_config); flags
override scalar config fields. The fully resolved configuration is
echoed to resolved_config.json in the output directory.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .data import (
    apply_standardizer,
    fit_standardizer,
    generate_table,
    load_csv,
    load_generator_spec,
    schema_with_stats,
    standardizer_from_schema,
    stratified_holdout,
    stratified_k_fold,
    write_csv,
)
from .errors import ConfigError, DataError, NumericError, ShapeError, check_field_types, from_dict
from .evaluation import VAL_FRACTION, pr_points_to_csv, run_cv
from .importance import permutation_importance
from .model import MODELS, build_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train


@dataclass
class RunConfig:
    data: Optional[str] = None
    target: Optional[str] = None
    model: str = "transformer"
    model_config: dict = field(default_factory=dict)
    train_config: dict = field(default_factory=dict)
    k_folds: int = 5
    threshold: float = 0.5
    seed: int = 0
    out: str = "out"
    top_n: Optional[int] = None
    repeats: int = 5
    checkpoint: Optional[str] = None
    fold: int = 0
    identity_check: bool = False
    schema_hints: dict = field(default_factory=dict)
    add_missing_indicators: bool = False

    def __post_init__(self):
        check_field_types(self)

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(from_dict)


def _load_config_file(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return RunConfig.from_dict(doc)


_FLAG_FIELDS = (
    "data", "target", "model", "k_folds", "threshold", "seed", "out",
    "top_n", "repeats", "checkpoint", "fold",
)


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Config file first, then explicit flags override."""
    cfg = _load_config_file(getattr(args, "config", None))
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "identity_check", False):
        cfg.identity_check = True
    if cfg.model not in MODELS:
        raise ConfigError(f"unknown model kind {cfg.model!r}")
    if cfg.k_folds < 2:
        raise ConfigError(f"k_folds must be at least 2, got {cfg.k_folds}")
    if not 0.0 < cfg.threshold < 1.0:  # NaN fails this too
        raise ConfigError(f"threshold must lie in (0, 1), got {cfg.threshold}")
    if cfg.top_n is not None and cfg.top_n < 1:
        raise ConfigError(f"top_n must be at least 1, got {cfg.top_n}")
    if not 0 <= cfg.fold < cfg.k_folds:
        raise ConfigError(f"fold must lie in [0, {cfg.k_folds}), got {cfg.fold}")
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required setting {name!r} (flag or config file)")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _echo_config(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    _write_text(
        os.path.join(cfg.out, "resolved_config.json"),
        json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n",
    )


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig.from_dict({"seed": cfg.seed, **cfg.train_config})


def _load_dataset(cfg: RunConfig):
    return load_csv(
        cfg.data,
        cfg.target,
        schema_hints=cfg.schema_hints or None,
        add_missing_indicators=cfg.add_missing_indicators,
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    spec = load_generator_spec(args.spec)
    header, rows, labels = generate_table(spec, args.n, seed=args.seed)
    write_csv(header, rows, args.out)
    print(f"wrote {args.out}: {args.n} rows, prevalence {labels.mean():.4f}")
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "data", "target")
    dataset = _load_dataset(cfg)

    def factory(schema, seed):
        return build_model(cfg.model, schema, seed=seed, config=cfg.model_config)

    report = run_cv(
        dataset,
        factory,
        _train_config(cfg),
        k=cfg.k_folds,
        threshold=cfg.threshold,
        seed=cfg.seed,
    )
    _echo_config(cfg)
    _write_text(os.path.join(cfg.out, "cv_report.json"), report.to_json())
    for fold in report.folds:
        _write_text(
            os.path.join(cfg.out, f"fold_{fold.fold}_pr.csv"),
            pr_points_to_csv(fold.pr_points),
        )
        _write_text(
            os.path.join(cfg.out, f"fold_{fold.fold}_trainlog.json"),
            fold.train_log.to_json() + "\n",
        )
    print(f"{cfg.model} {cfg.k_folds}-fold cross-validation on {cfg.data}")
    for name in ("accuracy", "precision", "recall", "f1", "auprc"):
        print(f"  {name:<10s} {report.means[name]:.4f} ± {report.stds[name]:.4f}")
    print(f"reports in {cfg.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "data", "target")
    dataset = _load_dataset(cfg)
    val_mask = stratified_holdout(dataset.labels, VAL_FRACTION, cfg.seed)
    fit_rows = dataset.rows[~val_mask]
    stats = fit_standardizer(fit_rows, dataset.schema)
    model = build_model(
        cfg.model,
        schema_with_stats(dataset.schema, stats),
        seed=cfg.seed,
        config=cfg.model_config,
    )
    log = train(
        model,
        (apply_standardizer(fit_rows, stats), dataset.labels[~val_mask].astype(float)),
        (
            apply_standardizer(dataset.rows[val_mask], stats),
            dataset.labels[val_mask].astype(float),
        ),
        _train_config(cfg),
    )
    _echo_config(cfg)
    save_checkpoint(model, os.path.join(cfg.out, "model"))
    _write_text(os.path.join(cfg.out, "trainlog.json"), log.to_json() + "\n")
    print(
        f"trained {cfg.model} for {log.n_epochs} epochs "
        f"(best epoch {log.best_epoch}, val loss {log.best_val_loss:.6f}, "
        f"stop: {log.stop_reason})"
    )
    print(f"checkpoint and log in {cfg.out}")
    return 0


def cmd_importance(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "data", "target", "checkpoint")
    model = load_checkpoint(cfg.checkpoint)
    dataset = _load_dataset(cfg)
    if dataset.schema.fingerprint() != model.schema.fingerprint():
        raise DataError(
            "dataset schema does not match the checkpoint's schema fingerprint"
        )
    assignment = stratified_k_fold(dataset.labels, cfg.k_folds, cfg.seed)
    held_out = assignment.fold_indices(cfg.fold)
    stats = standardizer_from_schema(model.schema)
    X_val = apply_standardizer(dataset.rows[held_out], stats)
    y_val = dataset.labels[held_out]
    report = permutation_importance(
        model,
        X_val,
        y_val,
        repeats=cfg.repeats,
        seed=cfg.seed,
        threshold=cfg.threshold,
        identity_check=cfg.identity_check,
    )
    _echo_config(cfg)
    _write_text(os.path.join(cfg.out, "importance.json"), report.to_json())
    _write_text(os.path.join(cfg.out, "importance.csv"), report.to_csv(cfg.top_n))
    shown = report.features[: min(5, len(report.features))]
    print(f"baseline F1 {report.baseline_f1:.4f} on fold {cfg.fold} ({len(y_val)} rows)")
    for f in shown:
        print(f"  {f.rank:>3d}. {f.name:<20s} drop {f.mean_drop:+.4f}")
    print(f"reports in {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabformer",
        description="Tabular transformer classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV from a spec")
    p_synth.add_argument("--spec", required=True, help="generator spec JSON")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--n", type=int, required=True, help="number of rows")
    p_synth.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_synth.set_defaults(func=cmd_synth)

    def add_common(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--data", help="input CSV path")
        p.add_argument("--target", help="label column name")
        p.add_argument("--model", choices=tuple(MODELS))
        p.add_argument("--k-folds", dest="k_folds", type=int)
        p.add_argument("--threshold", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

    p_cv = sub.add_parser("cv", help="stratified k-fold cross-validation")
    add_common(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_train = sub.add_parser("train", help="train one model, save a checkpoint")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_imp = sub.add_parser("importance", help="permutation feature importance")
    add_common(p_imp)
    p_imp.add_argument("--checkpoint", help="checkpoint prefix from `train`")
    p_imp.add_argument("--fold", type=int, help="held-out fold index (default 0)")
    p_imp.add_argument("--repeats", type=int, help="permutation repeats (default 5)")
    p_imp.add_argument("--top-n", dest="top_n", type=int, help="truncate the CSV")
    p_imp.add_argument(
        "--identity-check",
        dest="identity_check",
        action="store_true",
        help="force identity permutations (all drops must be zero)",
    )
    p_imp.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
