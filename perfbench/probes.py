"""Where the benchmark wraps tabformer, and the per-layer metrics it
derives from the recorded spans.

Each name is wrapped where its caller looks it up: ``cli`` and
``evaluation`` bind ``train``, ``load_csv`` and the data helpers with
``from ... import``, so those module attributes are wrapped rather than
the definitions in ``data`` or ``training``. Model code reaches the ops
as ``ad.<op>``, so the ``autodiff`` module attributes are wrapped. The
first component of every span name is the module it is charged to.
"""

from __future__ import annotations

import inspect
import statistics
import time

from tabformer import autodiff, cli, data, evaluation, importance, model, training

from spans import CALIBRATE, COUNT, END, NAME, PARENT, START, calibrate, percentile, self_times

MODEL_CLASSES = (model.Model, model.LogisticModel, model.MlpModel)
_NOT_OPS = {"active_tape", "backward", "grad_check"}
CALIBRATION_INTERVAL_S = 0.1

DATA_PREP = (
    "stratified_k_fold",
    "stratified_holdout",
    "fit_standardizer",
    "apply_standardizer",
    "schema_with_stats",
    "standardizer_from_schema",
)


def op_names() -> list:
    """Public tensor ops defined in ``tabformer.autodiff``."""
    return sorted(
        name
        for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn)
        and fn.__module__ == autodiff.__name__
        and not name.startswith("_")
        and name not in _NOT_OPS
    )


def _mode(args, kwargs) -> str:
    training_flag = args[2] if len(args) > 2 else kwargs.get("training", False)
    return "model.forward.train" if training_flag else "model.forward.eval"


def _rows(args, kwargs, result) -> int:
    return int(args[1].shape[0])


def _rows_times_epochs(args, kwargs, result) -> int:
    return int(args[1][0].shape[0]) * result.n_epochs


def _tape_nodes(args, kwargs, result) -> int:
    return len(args[0].nodes)


def _labels(args, kwargs, result) -> int:
    return int(args[1].shape[0])


def _op(tracer, fwd_name: str, bwd_name: str, count=None):
    """Span the op's forward call, then wrap the vjp it appended to the
    active tape so the backward pass records a span too."""

    def make(fn):
        forward = tracer.timed(fwd_name, fn, count)

        def op(*args, **kwargs):
            tape = autodiff.active_tape()
            if tape is None:
                return forward(*args, **kwargs)
            before = len(tape.nodes)
            out = forward(*args, **kwargs)
            for node in tape.nodes[before:]:
                if not hasattr(node.vjp, "__wrapped__"):  # inner op got it first
                    node.vjp = tracer.timed(bwd_name, node.vjp)
            return out

        return op

    return make


def _paced(tracer, make):
    """``make`` followed, after each call, by a ``calibrate`` span when
    ``CALIBRATION_INTERVAL_S`` has passed since the last one."""
    last = [float("-inf")]

    def wrap(fn):
        inner = make(fn)

        def call(*args, **kwargs):
            out = inner(*args, **kwargs)
            if time.perf_counter() - last[0] >= CALIBRATION_INTERVAL_S:
                tracer.call(CALIBRATE, calibrate)
                last[0] = time.perf_counter()
            return out

        return call

    return wrap


def install_end_to_end(tracer, captured: dict, calibrated: bool = False) -> None:
    """The few probes the end-to-end metrics need: ``train`` and its
    optimizer steps (the loss counts a step's rows, the validation pass
    separates epochs), ``predict_proba``, and the model ``train`` saved.
    With ``calibrated``, a step or a prediction is followed by a
    ``calibrate`` span at most every ``CALIBRATION_INTERVAL_S``."""
    paced = (lambda make: _paced(tracer, make)) if calibrated else (lambda make: make)
    for owner in (cli, evaluation):
        tracer.patch(owner, "train", lambda fn: tracer.timed("training.train", fn, _rows_times_epochs))
    tracer.patch(training, "balanced_bce", _op(tracer, "training.loss", "training.loss_bwd", _labels))
    tracer.patch(training, "_evaluate_loss", lambda fn: tracer.timed("training.val_eval", fn))
    tracer.patch(training.AdamW, "step", paced(lambda fn: tracer.timed("training.optimizer", fn)))
    for cls in MODEL_CLASSES:
        tracer.patch(cls, "predict_proba", paced(lambda fn: tracer.timed("model.predict", fn, _rows)))

    def keep_model(fn):
        def save(m, prefix):
            captured["model"] = m
            return fn(m, prefix)

        return tracer.timed("model.save_checkpoint", save)

    tracer.patch(cli, "save_checkpoint", keep_model)


def install_layers(tracer, captured: dict) -> None:
    """Every module boundary the per-layer metrics read."""
    install_end_to_end(tracer, captured)
    span = lambda name: (lambda fn: tracer.timed(name, fn))  # noqa: E731
    tracer.patch(cli, "load_csv", span("data.load_csv"))
    tracer.patch(cli, "build_model", span("model.build"))
    tracer.patch(cli, "load_checkpoint", span("model.load_checkpoint"))
    tracer.patch(cli, "run_cv", span("evaluation.run_cv"))
    tracer.patch(cli, "permutation_importance", span("importance.run"))
    for owner in (cli, evaluation):
        for name in DATA_PREP:
            if hasattr(owner, name):
                tracer.patch(owner, name, span("data.prepare"))
    tracer.patch(data.Dataset, "subset", span("data.prepare"))
    tracer.patch(evaluation, "pr_curve", span("evaluation.pr_curve"))
    tracer.patch(evaluation, "auprc", span("evaluation.auprc"))
    tracer.patch(evaluation, "aggregate_folds", span("evaluation.aggregate"))
    for owner in (evaluation, importance):
        tracer.patch(owner, "confusion_metrics", span("evaluation.confusion"))

    for cls in MODEL_CLASSES:
        tracer.patch(cls, "forward_batch", lambda fn: tracer.timed(_mode, fn))
    tracer.patch(model.FeatureTokenizer, "forward_batch", span("model.tokenizer"))
    tracer.patch(model.TransformerBlock, "multi_head", span("model.attention"))
    tracer.patch(model.TransformerBlock, "forward", span("model.block"))

    for name in op_names():
        tracer.patch(autodiff, name, _op(tracer, f"autodiff.op.{name}", f"autodiff.bwd.{name}"))
    tracer.patch(autodiff.Tape, "backward", lambda fn: tracer.timed("autodiff.backward", fn, _tape_nodes))


# ---------------------------------------------------------------------------
# Per-layer metrics


def train_steps(spans, children) -> list:
    """(start, end, covered, rows) per optimizer step inside ``train``.

    A step ends when its optimizer call returns and starts where the
    previous step, the previous validation pass, a calibration span or
    ``train`` itself ended. ``covered`` is the time the step's child spans account for;
    the rest is the loop's own bookkeeping. ``rows`` is the batch the
    step's loss was computed on.
    """
    return [step for i, s in enumerate(spans) if s[NAME] == "training.train"
            for step in _steps_of(spans, children, i)]


def _steps_of(spans, children, train) -> list:
    steps = []
    last, covered, rows = spans[train][START], 0.0, 0
    for c in children.get(train, ()):
        child = spans[c]
        covered += child[END] - child[START]
        if child[NAME] == "training.loss":
            rows = child[COUNT]
        elif child[NAME] == "training.optimizer":
            steps.append((last, child[END], covered, rows))
            last, covered, rows = child[END], 0.0, 0
        elif child[NAME] in ("training.val_eval", CALIBRATE):
            last, covered = child[END], 0.0
    return steps


def unit_samples(spans, lo: int, hi: int, tag, speed) -> tuple:
    """The repeated units of work among ``spans[lo:hi]``: optimizer steps
    and ``predict_proba`` calls, as ``{kind: [(rows, seconds), ...]}``
    each, the seconds rescaled to the reference speed by ``speed``
    (a ``spans.HostSpeed``). A unit's kind is ``(tag, n)`` for the n-th
    root span of the range it runs under, so that units of different
    commands, which do different work, are never pooled."""
    children: dict = {}
    ordinal: dict = {}
    root = {}
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent < lo:
            ordinal[i] = len(ordinal)
            root[i] = i
        else:
            children.setdefault(parent, []).append(i)
            root[i] = root[parent]
    steps: dict = {}
    predicts: dict = {}
    for i in range(lo, hi):
        name = spans[i][NAME]
        kind = (tag, ordinal[root[i]])
        if name == "training.train":
            steps.setdefault(kind, []).extend(
                (r, speed.reference(b, e, e - b)) for b, e, _, r in _steps_of(spans, children, i)
            )
        elif name == "model.predict":
            b, e = spans[i][START], spans[i][END]
            predicts.setdefault(kind, []).append((spans[i][COUNT], speed.reference(b, e, e - b)))
    return steps, predicts


def layer_metrics(spans, ops) -> dict:
    """Per-layer metrics of one traced command set. Metrics of a layer a
    workload does not reach read 0."""
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    parent_name = lambda i: spans[spans[i][PARENT]][NAME] if spans[i][PARENT] >= 0 else ""  # noqa: E731

    def mode_of(i):
        while i >= 0:
            name = spans[i][NAME]
            if name.startswith("model.forward."):
                return name.rsplit(".", 1)[1]
            i = spans[i][PARENT]
        return "eval"

    m = {}
    for op in ops:
        for key in ("op_calls", "fwd_s", "bwd_s"):
            m[f"autodiff.{key}.{op}"] = 0
    for mode in ("train", "eval"):
        for part in ("tokenizer", "attention", "block", "head"):
            m[f"model.{part}_s.{mode}"] = 0.0
    for key in (
        "autodiff.backward_s", "model.save_checkpoint_s", "model.load_checkpoint_s",
        "training.forward_s", "training.loss_s", "training.backward_s",
        "training.optimizer_s", "training.val_eval_s", "data.load_csv_s",
        "data.prepare_s", "evaluation.pr_curve_s", "evaluation.confusion_s",
        "evaluation.predict_s", "importance.predict_s", "cli.self_s",
    ):
        m[key] = 0.0
    m["importance.predict_calls"] = 0
    m["importance.rows_scored"] = 0

    nodes = []
    inclusive = {
        "model.save_checkpoint": "model.save_checkpoint_s",
        "model.load_checkpoint": "model.load_checkpoint_s",
        "training.optimizer": "training.optimizer_s",
        "training.val_eval": "training.val_eval_s",
        "data.load_csv": "data.load_csv_s",
        "evaluation.pr_curve": "evaluation.pr_curve_s",
        "evaluation.confusion": "evaluation.confusion_s",
    }
    for i, s in enumerate(spans):
        name, parent = s[NAME], parent_name(i)
        if name in inclusive:
            m[inclusive[name]] += dur[i]
        if name.startswith("autodiff.op."):
            op = name[len("autodiff.op."):]
            m[f"autodiff.op_calls.{op}"] = m.get(f"autodiff.op_calls.{op}", 0) + 1
            m[f"autodiff.fwd_s.{op}"] = m.get(f"autodiff.fwd_s.{op}", 0.0) + own[i]
        elif name.startswith("autodiff.bwd."):
            op = name[len("autodiff.bwd."):]
            m[f"autodiff.bwd_s.{op}"] = m.get(f"autodiff.bwd_s.{op}", 0.0) + own[i]
        elif name == "autodiff.backward":
            m["autodiff.backward_s"] += dur[i]
            nodes.append(s[COUNT])
            if parent == "training.train":
                m["training.backward_s"] += dur[i]
        elif name == "model.tokenizer":
            m[f"model.tokenizer_s.{mode_of(i)}"] += dur[i]
        elif name == "model.attention":
            m[f"model.attention_s.{mode_of(i)}"] += dur[i]
        elif name == "model.block":
            inner = sum(dur[c] for c in children.get(i, ()) if spans[c][NAME] == "model.attention")
            m[f"model.block_s.{mode_of(i)}"] += dur[i] - inner
        elif name.startswith("model.forward."):
            kids = children.get(i, ())
            if any(spans[c][NAME] == "model.tokenizer" for c in kids):
                inner = sum(dur[c] for c in kids if spans[c][NAME] in ("model.tokenizer", "model.block"))
                m[f"model.head_s.{name.rsplit('.', 1)[1]}"] += dur[i] - inner
            if parent == "training.train":
                m["training.forward_s"] += dur[i]
        elif name == "training.loss" and parent == "training.train":
            m["training.loss_s"] += dur[i]
        elif name == "data.prepare":
            m["data.prepare_s"] += own[i]
        elif name == "model.predict":
            if parent == "evaluation.run_cv":
                m["evaluation.predict_s"] += dur[i]
            elif parent == "importance.run":
                m["importance.predict_s"] += dur[i]
                m["importance.predict_calls"] += 1
                m["importance.rows_scored"] += s[COUNT]
        elif name == "cli.main":
            m["cli.self_s"] += own[i]

    m["autodiff.tape_nodes_per_step"] = statistics.fmean(nodes) if nodes else 0.0
    steps = train_steps(spans, children)
    step_ms = [1e3 * (e - b) for b, e, *_ in steps]
    m["training.steps"] = len(steps)
    m["training.step_ms_p50"] = percentile(step_ms, 0.5) or 0.0
    m["training.step_ms_p90"] = percentile(step_ms, 0.9) or 0.0
    m["trace.step_coverage"] = (
        statistics.median(c / (e - b) for b, e, c, _ in steps) if steps else 0.0
    )
    return m

