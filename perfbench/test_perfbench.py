"""The benchmark's own arithmetic: span self time, the percentile sample
rule, rates, the oracle comparison, step attribution and patching.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probes  # noqa: E402
from spans import (  # noqa: E402
    CALIBRATE,
    CALIBRATION_NOMINAL_S,
    HostSpeed,
    Tracer,
    auprc_gap,
    auprc_ratio,
    percentile,
    rate,
    self_times,
    spread,
    typical_rate,
)


def span(name, start, end, parent=-1, count=0):
    return [name, start, end, parent, count]


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            span("cli.main", 0.0, 10.0),
            span("training.train", 1.0, 9.0, 0),
            span("model.forward.train", 2.0, 5.0, 1),
            span("autodiff.op.matmul", 2.5, 3.0, 2),
        ]
        assert self_times(spans) == pytest.approx([2.0, 5.0, 2.5, 0.5])

    def test_self_times_sum_to_the_root_duration(self):
        spans = [span("a", 0.0, 4.0), span("b", 0.5, 1.5, 0), span("c", 2.0, 3.5, 0), span("d", 2.5, 3.0, 2)]
        assert sum(self_times(spans)) == pytest.approx(4.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_a_child_reaching_outside_counts_only_inside(self):
        spans = [span("a", 0.0, 2.0), span("b", 1.5, 3.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.5)


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.5) == 50
        assert percentile(samples, 0.9) == 90

    def test_needs_ten_samples_beyond(self):
        assert percentile(list(range(100)), 0.9) is not None  # exactly 10 beyond
        assert percentile(list(range(99)), 0.9) is None  # 9 beyond
        assert percentile(list(range(28)), 0.5) == 13
        assert percentile(list(range(28)), 0.9) is None
        assert percentile([], 0.5) is None

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3] * 6, 0.5) == 3


class TestRates:
    def test_rate(self):
        assert rate(6998, 10.0) == pytest.approx(699.8)

    def test_rate_over_no_time_is_an_error(self):
        with pytest.raises(ValueError):
            rate(1, 0.0)

    def test_oracle_comparison(self):
        assert auprc_gap(0.819, 0.921) == pytest.approx(0.102)
        assert auprc_ratio(0.819, 0.921) == pytest.approx(0.819 / 0.921)
        assert auprc_ratio(0.921, 0.921) == 1.0
        with pytest.raises(ValueError):
            auprc_ratio(0.5, 0.0)

    def test_typical_rate_uses_each_kinds_median(self):
        # one stalled unit out of three does not move the median
        steps = {"a": [(256, 1.0), (256, 1.0), (256, 4.0)]}
        assert typical_rate(steps) == pytest.approx(256.0)
        # units of unequal size are compared by rate, not by time
        assert typical_rate({"a": [(100, 1.0), (50, 0.5), (200, 1.0)]}) == pytest.approx(100.0)

    def test_typical_rate_combines_kinds_as_one_stream(self):
        # 300 rows at 100/s and 300 rows at 300/s take 3 s + 1 s
        kinds = {"slow": [(100, 1.0)] * 3, "fast": [(100, 1 / 3)] * 3}
        assert typical_rate(kinds) == pytest.approx(600 / 4.0)
        with pytest.raises(ValueError):
            typical_rate({"a": []})

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert spread(values) == pytest.approx((q3 - q1) / med)


class TestSteps:
    def spans(self):
        # train: 2 steps, a validation pass, 1 step
        return [
            span("training.train", 0.0, 20.0),
            span("model.forward.train", 1.0, 3.0, 0),
            span("training.loss", 3.0, 3.5, 0, 256),
            span("autodiff.backward", 3.5, 5.0, 0, 277),
            span("training.optimizer", 5.0, 6.0, 0),
            span("model.forward.train", 6.5, 8.0, 0),
            span("training.loss", 8.0, 8.0, 0, 100),
            span("training.optimizer", 8.0, 9.0, 0),
            span("training.val_eval", 9.0, 12.0, 0),
            span("model.forward.train", 12.0, 15.0, 0),
            span("training.optimizer", 15.0, 16.0, 0),
        ]

    def test_step_boundaries_and_coverage(self):
        spans = self.spans()
        children = {0: list(range(1, len(spans)))}
        steps = probes.train_steps(spans, children)
        assert [(b, e) for b, e, *_ in steps] == [(0.0, 6.0), (6.0, 9.0), (12.0, 16.0)]
        assert [c for _, _, c, _ in steps] == pytest.approx([5.0, 2.5, 4.0])
        assert [r for *_, r in steps] == [256, 100, 0]  # the last step computed no loss

    def test_unit_samples_keep_commands_apart(self):
        # two commands, each one train call of one step and one prediction
        spans = []
        for k, rows in enumerate((10, 20)):
            t, root = 10.0 * k, len(spans)
            spans += [
                span("cli.main", t, t + 9.0),
                span("training.train", t + 1.0, t + 5.0, root),
                span("training.loss", t + 2.0, t + 3.0, root + 1, rows),
                span("training.optimizer", t + 3.0, t + 4.0, root + 1),
                span("model.predict", t + 6.0, t + 8.0, root, rows),
            ]
        speed = HostSpeed([span(CALIBRATE, t, t + CALIBRATION_NOMINAL_S) for t in range(20)])
        steps, predicts = probes.unit_samples(spans, 0, len(spans), "set", speed)
        assert steps == {("set", 0): [(10, pytest.approx(3.0))], ("set", 1): [(20, pytest.approx(3.0))]}
        assert predicts == {("set", 0): [(10, pytest.approx(2.0))], ("set", 1): [(20, pytest.approx(2.0))]}
        # a range that starts after the first command numbers its roots afresh
        steps, _ = probes.unit_samples(spans, 5, len(spans), "set", speed)
        assert steps == {("set", 0): [(20, pytest.approx(3.0))]}

    def test_layer_metrics_of_a_training_run(self):
        m = probes.layer_metrics(self.spans(), ["matmul"])
        assert m["training.steps"] == 3
        assert m["training.forward_s"] == pytest.approx(6.5)
        assert m["training.backward_s"] == pytest.approx(1.5)
        assert m["training.optimizer_s"] == pytest.approx(3.0)
        assert m["training.val_eval_s"] == pytest.approx(3.0)
        assert m["autodiff.tape_nodes_per_step"] == 277
        assert m["training.step_ms_p90"] == 0.0  # too few samples to report
        assert m["autodiff.op_calls.matmul"] == 0

    def test_model_parts_partition_the_forward_pass(self):
        spans = [
            span("model.predict", 0.0, 10.0, -1, 801),
            span("model.forward.eval", 0.0, 10.0, 0),
            span("model.tokenizer", 0.0, 1.0, 1),
            span("model.block", 1.0, 8.0, 1),
            span("model.attention", 1.0, 5.0, 3),
        ]
        m = probes.layer_metrics(spans, [])
        parts = [m[f"model.{p}_s.eval"] for p in ("tokenizer", "attention", "block", "head")]
        assert parts == pytest.approx([1.0, 4.0, 3.0, 2.0])
        assert sum(parts) == pytest.approx(10.0)


class TestHostSpeed:
    def test_times_are_rescaled_by_the_local_calibration(self):
        # the host ran at half speed from t=10 on
        cal = [span(CALIBRATE, t * 0.5, t * 0.5 + CALIBRATION_NOMINAL_S * (2 if t >= 20 else 1)) for t in range(40)]
        speed = HostSpeed(cal)
        assert speed.reference(2.0, 3.0, 1.0) == pytest.approx(1.0)
        assert speed.reference(15.0, 16.0, 1.0) == pytest.approx(0.5)

    def test_a_span_is_rescaled_piece_by_piece_without_the_calibrations(self):
        n = CALIBRATION_NOMINAL_S
        # one calibration a second, twice as slow from t=10 on; each stretch
        # is rescaled by the calibration that ends it
        cal = [span(CALIBRATE, t, t + n * (2 if t >= 10 else 1)) for t in range(20)]
        speed = HostSpeed(cal, window=0.0, nearest=1)
        full_speed = 4 * (1 - n)  # 5..9, less four calibrations
        half_speed = (1 - n) / 2 + 5 * (1 - 2 * n) / 2  # 9..10 ends at a slow one; 10..15
        assert speed.reference_span(5.0, 15.0) == pytest.approx(full_speed + half_speed)

    def test_the_nearest_samples_stand_in_when_none_are_close(self):
        cal = [span(CALIBRATE, t, t + CALIBRATION_NOMINAL_S * (1 + t)) for t in range(10)]
        speed = HostSpeed(cal, window=0.1, nearest=3)
        # samples at t=8, 9, 7 are nearest to t=20; their median is t=8's
        assert speed.local(20.0, 20.0) == pytest.approx(9 * CALIBRATION_NOMINAL_S)
        with pytest.raises(ValueError):
            HostSpeed([]).local(0.0, 1.0)

    def test_a_step_starts_after_a_calibration_span(self):
        spans = [
            span("training.train", 0.0, 10.0),
            span("training.loss", 1.0, 2.0, 0, 64),
            span("training.optimizer", 2.0, 3.0, 0),
            span(CALIBRATE, 3.0, 3.5, 0),
            span("training.loss", 4.0, 5.0, 0, 64),
            span("training.optimizer", 5.0, 6.0, 0),
        ]
        steps = probes.train_steps(spans, {0: list(range(1, len(spans)))})
        assert [(b, e) for b, e, *_ in steps] == [(0.0, 3.0), (3.5, 6.0)]


class TestTracer:
    def test_patch_records_spans_and_restores(self):
        class Base:
            def f(self, x):
                return x + 1

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.patch(Child, "f", lambda fn: tracer.timed("model.f", fn, lambda a, k, r: r))
        assert Child().f(1) == 2
        assert tracer.spans[0][0] == "model.f" and tracer.spans[0][4] == 2
        tracer.restore()
        assert "f" not in vars(Child)

    def test_nesting_sets_parents(self):
        tracer = Tracer()
        inner = tracer.timed("inner", lambda: None)
        tracer.call("outer", inner)
        assert [s[3] for s in tracer.spans] == [-1, 0]
