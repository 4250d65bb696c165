"""The benchmark's workloads: set-up, the timed ``tabformer`` commands,
the output checks, and the end-to-end metrics.

Every workload runs user-facing commands in-process through
``tabformer.cli.main`` on the shared table ``mix9``, generated from the
workload seed. The commands themselves always use ``--seed 0``, and every
training run sets ``patience`` above ``max_epochs``, so the amount of
work never depends on the numbers the table happens to hold.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tabformer import cli
from tabformer.data import (
    GeneratorColumn,
    GeneratorSpec,
    apply_standardizer,
    bayes_probabilities,
    generate_table,
    load_csv,
    standardizer_from_schema,
    stratified_holdout,
    stratified_k_fold,
    write_csv,
)
from tabformer.evaluation import auprc, pr_curve
from tabformer.model import load_checkpoint

import probes
from spans import (
    CALIBRATION_NOMINAL_S, HostSpeed, Tracer, auprc_gap, auprc_ratio, host_calibration, self_times,
    typical_rate,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

TABLE = "table.csv"
CONFIG = "run.json"
TARGET = "label"
CHECKPOINT = "ckpt/model"
REPRODUCED = ("model.json", "model.bin", "trainlog.json")  # resolved_config.json names its --out
SETUP_REPEATS = 3
NULL_FEATURES = ("x4", "x5", "x6")
NULL_DROP_BOUND = 0.02  # largest |mean_drop| of a null feature over the 20 baseline seeds: 0.0076
COVERAGE_TOLERANCE = 0.05
PREDICT_BATCH = 1024  # the default batch size of Model.predict_proba


def mix9(seed: int) -> GeneratorSpec:
    """8 numeric columns (x7 with 10% missing cells) and one 4-way
    categorical; x0 and x1 drive the label, x4..x6 are null features."""
    columns = tuple(GeneratorColumn(f"x{j}", "numeric", missing=j == 7) for j in range(8))
    columns += (GeneratorColumn("grp", "categorical", categories=4),)
    return GeneratorSpec(
        columns=columns,
        weights=(1.5, -1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.8, 0.6),
        bias=-0.3,
        missing_rate=0.1,
        interactions=(((0, 1), 2.0), ((2, 3), -1.5)),
        seed=seed,
        target=TARGET,
    )


def _common(*extra: str) -> list:
    return ["--data", TABLE, "--target", TARGET, "--config", CONFIG, "--seed", "0", *extra]


class Workload:
    """One benchmark workload. ``commands`` are timed as one set."""

    name = ""
    rows = 0
    nominal_s = 10.0  # seconds one command set takes on the reference machine (2 vCPUs)
    config: dict = {}
    commands: list = []
    expected_steps = 0
    checks_step_coverage = False

    def repeats(self, seconds: float) -> int:
        """Command sets per run: as many as fit in ``seconds`` on the
        reference machine, at least one. The count depends on nothing
        measured, so a faster commit does the same work, not more."""
        return max(1, int(seconds // self.nominal_s))

    def setup(self, seed: int, ctx: dict) -> None:
        """Extra set-up after the table is written. It may append its
        duration to ``ctx["setup_runs"]`` and the steps of a training it
        ran to ``ctx["setup_steps"]``."""

    def after_set(self, seed: int, ctx: dict) -> list:
        """Checks run after each command set that exited cleanly, under
        the end-to-end probes: the predictions they make are timed."""
        return []

    def check(self, seed: int, ctx: dict) -> list:
        """Failures found in the artifacts of one command set."""
        return []

    def finish(self, seed: int, ctx: dict) -> list:
        """One-off checks after the last command set; may set
        ``ctx["auprc_ratio"]``."""
        return []


class Fit(Workload):
    name = "fit"
    rows = 4000
    config = {"train_config": {"max_epochs": 2, "patience": 3}}
    commands = [["train", *_common("--out", "out/fit")]]
    expected_steps = 28
    checks_step_coverage = True  # transformer steps; a baseline's step is mostly loop bookkeeping

    def check(self, seed, ctx):
        log = json.loads(Path("out/fit/trainlog.json").read_text())
        if log["epochs"] != 2 or log["stop_reason"] != "max_epochs":
            return [f"fit: trainlog shows {log['epochs']} epochs, stop {log['stop_reason']!r}"]
        return []

    def after_set(self, seed, ctx):
        """Score the whole table with the model ``train`` saved and with
        its checkpoint read back from disk. The table goes in slices of
        ``predict_proba``'s own batch size, which does the same work as
        one call and gives ``fit`` eight prediction units per set."""
        trained = ctx["captured"]["model"]
        if "X" not in ctx:
            ds = load_csv(TABLE, TARGET)
            ctx["X"] = apply_standardizer(ds.rows, standardizer_from_schema(trained.schema))
            ctx["labels"] = ds.labels
        reloaded = load_checkpoint("out/fit/model")
        X = ctx["X"]
        ctx["p_trained"], p_reloaded = (
            np.concatenate([m.predict_proba(X[lo:lo + PREDICT_BATCH]) for lo in range(0, len(X), PREDICT_BATCH)])
            for m in (trained, reloaded)
        )
        if not np.array_equal(ctx["p_trained"], p_reloaded):
            return ["fit: the reloaded checkpoint does not predict what the trained model did"]
        return []

    def finish(self, seed, ctx):
        labels = ctx["labels"]
        holdout = stratified_holdout(labels, 0.125, 0)
        ctx["auprc_ratio"], ctx["auprc_gap"] = _vs_oracle(
            ctx["p_trained"][holdout], bayes_probabilities(mix9(seed), self.rows, seed)[holdout],
            labels[holdout],
        )
        return []


class Score(Workload):
    name = "score"
    rows = 4000
    nominal_s = 16.0
    config = Fit.config
    commands = [[
        "importance", *_common("--checkpoint", CHECKPOINT, "--k-folds", "5", "--fold", "0",
                               "--repeats", "5", "--out", "out/importance"),
    ]]

    def setup(self, seed, ctx):
        self._train_checkpoint("ckpt", ctx)

    def _train_checkpoint(self, out, ctx):
        """Train the checkpoint with ``tabformer train`` at the fit
        settings, in a child process so that this process's peak memory
        is that of scoring alone."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "checkpoint.py"), *Fit.commands[0][1:-2], "--out", out],
            capture_output=True, text=True, timeout=150,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"checkpoint training failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ctx["setup_runs"].append(elapsed * CALIBRATION_NOMINAL_S / result["calibration_s"])
        ctx["setup_steps"] += result["steps"]

    def check(self, seed, ctx):
        doc = json.loads(Path("out/importance/importance.json").read_text())
        by_rank = sorted(doc["features"], key=lambda f: f["rank"])
        failures = []
        top = {f["name"] for f in by_rank[:2]}
        if top != {"x0", "x1"}:
            failures.append(f"score: top two features are {sorted(top)}, not x0 and x1")
        nulls = {f["name"]: f["mean_drop"] for f in by_rank if f["name"] in NULL_FEATURES}
        ctx["null_drops"] = nulls
        for name, drop in nulls.items():
            if abs(drop) >= NULL_DROP_BOUND:
                failures.append(f"score: null feature {name} drops F1 by {drop:+.4f}")
        return failures

    def finish(self, seed, ctx):
        """Set up once more after the timed part, so that set-up time and
        the training rate of ``score`` are medians over two trainings
        taken apart in time; the second checkpoint must be byte-identical
        to the first."""
        self._train_checkpoint("ckpt_again", ctx)
        failures = []
        if any(Path("ckpt_again", f).read_bytes() != Path("ckpt", f).read_bytes() for f in REPRODUCED):
            failures.append("score: training the checkpoint twice gave different bytes")
        shutil.rmtree("ckpt_again")
        m = load_checkpoint(CHECKPOINT)
        ds = load_csv(TABLE, TARGET)
        holdout = stratified_holdout(ds.labels, 0.125, 0)
        X = apply_standardizer(ds.rows[holdout], standardizer_from_schema(m.schema))
        ctx["auprc_ratio"], ctx["auprc_gap"] = _vs_oracle(
            m.predict_proba(X), bayes_probabilities(mix9(seed), self.rows, seed)[holdout],
            ds.labels[holdout],
        )
        return failures


class CvBaselines(Workload):
    name = "cv-baselines"
    rows = 20000
    config = {"train_config": {"lr": 0.01, "max_epochs": 10, "patience": 11}}
    commands = [
        ["cv", *_common("--model", kind, "--k-folds", "5", "--out", f"out/{kind}")]
        for kind in ("logistic", "mlp")
    ]
    expected_steps = 5500

    def check(self, seed, ctx):
        failures = []
        means = {}
        for kind in ("logistic", "mlp"):
            out = Path("out") / kind
            report = json.loads((out / "cv_report.json").read_text())
            logs = [out / f"fold_{f}_trainlog.json" for f in range(5)]
            curves = [out / f"fold_{f}_pr.csv" for f in range(5)]
            if report["k"] != 5 or len(report["folds"]) != 5 or not all(p.is_file() for p in logs + curves):
                failures.append(f"cv-baselines: {kind} report does not hold 5 folds")
                continue
            for f, path in enumerate(logs):
                log = json.loads(path.read_text())
                if log["epochs"] != 10 or log["stop_reason"] != "max_epochs":
                    failures.append(f"cv-baselines: {kind} fold {f} trained {log['epochs']} epochs")
            means[kind] = report["means"]["auprc"]
        if len(means) < 2:
            return failures
        if "oracle" not in ctx:
            ctx["oracle"] = _oracle_fold_auprc(seed, self.rows)
        oracle = ctx["oracle"]
        if not means["mlp"] > means["logistic"]:
            failures.append(f"cv-baselines: mlp AUPRC {means['mlp']:.4f} does not beat logistic {means['logistic']:.4f}")
        for kind, value in means.items():
            if not value < oracle:
                failures.append(f"cv-baselines: {kind} AUPRC {value:.4f} reaches the oracle's {oracle:.4f}")
        ctx["auprc_ratio"] = statistics.fmean(auprc_ratio(v, oracle) for v in means.values())
        ctx["auprc_gap"] = {kind: auprc_gap(v, oracle) for kind, v in means.items()}
        return failures


WORKLOADS = {w.name: w for w in (Fit(), Score(), CvBaselines())}


def _vs_oracle(model_probs, oracle_probs, labels):
    model_auprc = auprc(pr_curve(model_probs, labels))
    oracle_auprc = auprc(pr_curve(oracle_probs, labels))
    return auprc_ratio(model_auprc, oracle_auprc), auprc_gap(model_auprc, oracle_auprc)


def _oracle_fold_auprc(seed: int, rows: int) -> float:
    """Mean Bayes-oracle AUPRC over the test folds ``cv --seed 0`` uses."""
    _, _, labels = generate_table(mix9(seed), rows, seed)
    p = bayes_probabilities(mix9(seed), rows, seed)
    folds = stratified_k_fold(labels, 5, 0)
    return statistics.fmean(
        auprc(pr_curve(p[folds.fold_indices(f)], labels[folds.fold_indices(f)])) for f in range(5)
    )


# ---------------------------------------------------------------------------
# Running


def write_inputs(workload: Workload, seed: int) -> None:
    header, rows, _ = generate_table(mix9(seed), workload.rows, seed)
    write_csv(header, rows, TABLE)
    Path(CONFIG).write_text(json.dumps(workload.config, sort_keys=True) + "\n")


def tree_hashes(*roots: str) -> dict:
    out = {}
    for root in roots:
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                out[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def run_commands(workload: Workload, tracer: Tracer):
    """One timed command set: (wall seconds, exit codes, artifact hashes,
    start time).

    Garbage left by an earlier set is collected first, so that every set
    starts from the same heap and the peak memory does not depend on how
    many sets ran.
    """
    shutil.rmtree("out", ignore_errors=True)
    gc.collect()
    codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workload.commands:
            try:
                codes.append(tracer.call("cli.main", cli.main, argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception as exc:  # a traceback out of the CLI is a failed run
                traceback.print_exc()
                codes.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    return wall, codes, tree_hashes("out", "ckpt"), t0


def _recorded_hashes(key: str, hashes: dict, store: Path) -> list:
    """Compare with the artifacts of earlier runs of this source tree,
    workload and seed; record them on first sight."""
    doc = json.loads(store.read_text()) if store.is_file() else {}
    seen = doc.get(key)
    if seen is None:
        doc[key] = hashes
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, store)
        return []
    if seen != hashes:
        return ["artifacts differ from an earlier run of the same source and seed"]
    return []


def _rescaled(measure) -> float:
    """Seconds that ``measure()`` returns, at the reference speed given
    by calibrations just before and just after it."""
    before = host_calibration()
    seconds = measure()
    after = host_calibration()
    return seconds * CALIBRATION_NOMINAL_S / ((before + after) / 2)


def _import_seconds() -> float:
    """Median time to import tabformer in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import tabformer; print(time.perf_counter() - t)"
    )

    def once():
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(proc.stdout)

    return statistics.median(_rescaled(once) for _ in range(SETUP_REPEATS))


def _write_seconds(workload: Workload, seed: int) -> float:
    t0 = time.perf_counter()
    write_inputs(workload, seed)
    return time.perf_counter() - t0


def _after_set(workload: Workload, seed: int, ctx: dict, codes: list, tracer=None) -> list:
    """Run the workload's per-set checks if the set exited cleanly, as
    one root span of ``tracer`` when one is given."""
    if any(c != 0 for c in codes):
        return []
    gc.collect()  # as before each command set: fit times predictions here
    try:
        if tracer is None:
            return workload.after_set(seed, ctx)
        return tracer.call("bench.after_set", workload.after_set, seed, ctx)
    except Exception as exc:  # a failed check is a failed command set
        traceback.print_exc()
        return [f"{workload.name}: per-set check raised {type(exc).__name__}: {exc}"]


def run(name: str, seed: int, seconds: float, trace: bool, src_digest: str):
    """Set up, time, check. Returns (metrics, attempted, failed, info)."""
    workload = WORKLOADS[name]
    base = ROOT / ".bench_work"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        import_s = _import_seconds()
        table_s = [_rescaled(lambda: _write_seconds(workload, seed)) for _ in range(SETUP_REPEATS)]
        ctx = {"captured": {}, "setup_runs": [], "setup_steps": []}
        workload.setup(seed, ctx)

        tracer = Tracer()
        reps = []  # (wall, exit codes, artifact hashes, start)
        set_checks = []  # failures of each set's after-set checks
        windows = []  # (tag, first span, end span) of each command set and each after-set check
        probes.install_end_to_end(tracer, ctx["captured"], calibrated=not trace)
        try:
            for _ in range(2 if trace else workload.repeats(seconds)):
                lo = len(tracer.spans)
                reps.append(run_commands(workload, tracer))
                windows.append(("set", lo, len(tracer.spans)))
                lo = len(tracer.spans)
                set_checks.append(_after_set(workload, seed, ctx, reps[-1][1], tracer))
                windows.append(("after_set", lo, len(tracer.spans)))
        finally:
            tracer.restore()
        if trace:
            # the first set warms the heap; compare warm untraced with warm traced
            layer_tracer = Tracer()
            probes.install_layers(layer_tracer, ctx["captured"])
            try:
                reps.append(run_commands(workload, layer_tracer))
            finally:
                layer_tracer.restore()
            set_checks.append(_after_set(workload, seed, ctx, reps[-1][1]))

        key = f"{src_digest}/{name}/{seed}"
        rep_failures = []
        for (_, codes, hashes, _), checks in zip(reps, set_checks):
            problems = [f"exit codes {codes}"] if any(c != 0 for c in codes) else []
            if not problems:
                if hashes != reps[0][2]:
                    problems.append("artifacts differ between command sets of one run")
                problems += _recorded_hashes(key, hashes, base / "artifacts.json")
                try:
                    problems += workload.check(seed, ctx)
                except (OSError, KeyError, ValueError) as exc:
                    problems.append(f"unreadable artifacts: {exc!r}")
            rep_failures.append(problems + checks)

        if all(c == 0 for c in reps[-1][1]):
            try:
                rep_failures[-1] += workload.finish(seed, ctx)
            except Exception as exc:  # e.g. a per-set check that raised left nothing to finish
                traceback.print_exc()
                rep_failures[-1].append(f"{name}: final check raised {type(exc).__name__}: {exc}")

        info = {
            "import_s": import_s,
            "table_s": table_s,
            "setup_runs_s": ctx["setup_runs"],
            "reps_wall_s": [r[0] for r in reps],
            "auprc_gap": ctx.get("auprc_gap"),
            "null_drops": ctx.get("null_drops"),
        }
        if trace:
            metrics, trace_failures = _traced_metrics(workload, reps[-2][0], reps[-1][0], layer_tracer)
            rep_failures[-1] += trace_failures
        else:
            spans = tracer.spans
            speed = HostSpeed(spans)
            steps: dict = {}
            predicts: dict = {}
            if ctx["setup_steps"]:
                steps[("setup", 0)] = ctx["setup_steps"]
            for tag, lo, hi in windows:
                for pooled, found in zip((steps, predicts), probes.unit_samples(spans, lo, hi, tag, speed)):
                    for kind, units in found.items():
                        pooled.setdefault(kind, []).extend(units)
            set_walls = [speed.reference_span(t0, t0 + wall) for wall, _, _, t0 in reps]
            info["calibration_s"] = [speed.local(t0, t0 + wall) for wall, _, _, t0 in reps]
            metrics = {
                "setup_s": import_s + statistics.median(table_s) + statistics.median(ctx["setup_runs"] or [0.0]),
                "wall_s": statistics.median(set_walls),
                "train_rows_per_s": typical_rate(steps) if steps else None,
                "predict_rows_per_s": typical_rate(predicts) if predicts else None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "auprc_ratio": ctx.get("auprc_ratio"),
            }
            info["units"] = {
                what: {f"{tag}/{n}": len(units) for (tag, n), units in pooled.items()}
                for what, pooled in (("steps", steps), ("predicts", predicts))
            }
        info["failures"] = [f for problems in rep_failures for f in problems]
        return metrics, len(reps), sum(bool(p) for p in rep_failures), info
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)


def _traced_metrics(workload: Workload, untraced_wall, traced_wall, layer_tracer):
    """Per-layer metrics of the traced command set, plus its overhead
    against the untraced set run just before it and the coverage checks."""
    spans = layer_tracer.spans
    metrics = probes.layer_metrics(spans, probes.op_names())
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.wall_coverage"] = sum(self_times(spans)) / traced_wall
    failures = []
    if abs(1.0 - metrics["trace.wall_coverage"]) > COVERAGE_TOLERANCE:
        failures.append(f"layer self times cover {metrics['trace.wall_coverage']:.3f} of the traced wall time")
    if workload.expected_steps and metrics["training.steps"] != workload.expected_steps:
        failures.append(f"{metrics['training.steps']} optimizer steps, configured {workload.expected_steps}")
    if workload.checks_step_coverage and metrics["trace.step_coverage"] < 1.0 - COVERAGE_TOLERANCE:
        failures.append(f"module totals cover {metrics['trace.step_coverage']:.3f} of a training step")
    return metrics, failures
