"""Command-line entry points: synth | cv | train | importance.

Every command is a pure function of (config file, input files, seed);
rerunning with identical inputs produces byte-identical outputs. JSON
configs carry anything nested (model_config, train_config); flags
override scalar config fields. ``RunConfig`` checks itself, so the
config file must be a valid run config on its own, and the config with
the given flags laid over it is checked again. The fully resolved
configuration is echoed to resolved_config.json in the output
directory; every JSON file is encoded by ``errors.json_text``.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .data import (
    apply_standardizer,
    encode_as,
    generate_table,
    load_csv,
    load_generator_spec,
    stratified_k_fold,
    write_csv,
)
from .errors import (
    ConfigError, DataError, NumericError, ShapeError, check_field_types, from_dict, json_text, read_json,
    write_files,
)
from .evaluation import METRIC_NAMES, holdout_split, pr_points_to_csv, run_cv
from .importance import permutation_importance
from .model import MODELS, build_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train


@dataclass(frozen=True)
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
        if self.model not in MODELS:
            raise ConfigError(f"unknown model kind {self.model!r}")
        if "seed" in self.train_config:
            raise ConfigError("train_config may not set 'seed'; set the top-level 'seed' or pass --seed")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be at least 2, got {self.k_folds}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.top_n is not None and self.top_n < 1:
            raise ConfigError(f"top_n must be at least 1, got {self.top_n}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be at least 1, got {self.repeats}")
        if not 0 <= self.fold < self.k_folds:
            raise ConfigError(f"fold must lie in [0, {self.k_folds}), got {self.fold}")


def _resolve(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults), with every flag that was given
    laid over it: each option named after a RunConfig field defaults to
    None, meaning "not given". RunConfig checks the file, then the result."""
    path = getattr(args, "config", None)
    cfg = RunConfig() if path is None else from_dict(RunConfig, read_json(path, "config"))
    names = {f.name for f in fields(RunConfig)}
    return replace(cfg, **{name: v for name, v in vars(args).items() if name in names and v is not None})


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required setting {name!r} (flag or config file)")


def _write_outputs(cfg: RunConfig, texts: dict) -> None:
    """Write each ``{file name: text}``, and resolved_config.json, into
    ``cfg.out`` with one ``write_files``: every file whole or not at all."""
    texts = {**texts, "resolved_config.json": json_text(asdict(cfg))}
    os.makedirs(cfg.out, exist_ok=True)
    write_files({os.path.join(cfg.out, name): text.encode("utf-8") for name, text in texts.items()})


def _train_config(cfg: RunConfig) -> TrainConfig:
    return from_dict(TrainConfig, {"seed": cfg.seed, **cfg.train_config})


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
    texts = {"cv_report.json": report.to_json()}
    for fold in report.folds:
        texts[f"fold_{fold.fold}_pr.csv"] = pr_points_to_csv(fold.pr_points)
        texts[f"fold_{fold.fold}_trainlog.json"] = fold.train_log.to_json()
    _write_outputs(cfg, texts)
    print(f"{cfg.model} {cfg.k_folds}-fold cross-validation on {cfg.data}")
    for name in METRIC_NAMES:
        print(f"  {name:<10s} {report.means[name]:.4f} ± {report.stds[name]:.4f}")
    print(f"reports in {cfg.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "data", "target")
    schema, fit, val = holdout_split(_load_dataset(cfg), cfg.seed)
    model = build_model(cfg.model, schema, seed=cfg.seed, config=cfg.model_config)
    log = train(model, fit, val, _train_config(cfg))
    _write_outputs(cfg, {"trainlog.json": log.to_json()})
    save_checkpoint(model, os.path.join(cfg.out, "model"))
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
    dataset = encode_as(_load_dataset(cfg), model.schema)
    assignment = stratified_k_fold(dataset.labels, cfg.k_folds, cfg.seed)
    held_out = assignment.fold_indices(cfg.fold)
    X_val = apply_standardizer(dataset.rows[held_out], model.schema)
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
    _write_outputs(cfg, {"importance.json": report.to_json(), "importance.csv": report.to_csv(cfg.top_n)})
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
    p_imp.add_argument("--fold", type=int, help="fold of the --k-folds deal to score (default 0), "
                       "not held out of train's rows; --k-folds 8 --fold 0 at train's seed scores "
                       "train's validation rows")
    p_imp.add_argument("--repeats", type=int, help="permutation repeats (default 5)")
    p_imp.add_argument("--top-n", dest="top_n", type=int, help="truncate the CSV")
    p_imp.add_argument(
        "--identity-check",
        dest="identity_check",
        action="store_const",
        const=True,
        help="force identity permutations (all drops must be zero)",
    )
    p_imp.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the per-op check reports a numeric failure, so numpy's warnings would repeat
        # it; the state is per context, which autodiff's helper threads copy
        with np.errstate(all="ignore"):
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
