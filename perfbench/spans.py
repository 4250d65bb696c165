"""In-memory span recording and the arithmetic the benchmark reports.

A span is one call into a wrapped function: ``[name, start, end,
parent, n]``, where ``parent`` is the index of the enclosing span (-1
for a root) and ``n`` is a count the wrapper attaches, such as rows
scored. Spans are kept in a list while the run lasts and summarised when
it ends. Nothing here imports the program under test.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

NAME, START, END, PARENT, COUNT = range(5)

CALIBRATE = "bench.calibrate"
CALIBRATION_LOOP = 20_000
CALIBRATION_NOMINAL_S = 1.3e-3  # median time of calibrate() inside a run on the reference machine (2 vCPUs)


class Tracer:
    """Wraps attributes so that each call records a span.

    ``patch`` replaces ``owner.attr`` and remembers the original;
    ``restore`` puts every original back, in reverse order.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def timed(self, name, fn, count=None):
        """``fn`` wrapped in a span. ``name`` may be a callable of
        (args, kwargs); ``count`` a callable of (args, kwargs, result)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        return self.timed(name, fn)(*args, **kwargs)

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` with ``make(original)``."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original, own))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def calibrate() -> int:
    """A fixed piece of pure-Python work that does not touch the program
    under test; its time tells how fast the host runs at that moment."""
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return total


def host_calibration(repeats: int = 5) -> float:
    """Median time of ``calibrate()`` over ``repeats`` runs made now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibrate()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """How fast the host ran around a stretch of time, from the
    ``CALIBRATE`` spans recorded between units of work.

    The host this benchmark runs on shares its cores: its speed drifts
    by a fifth or more over seconds to minutes, alike for the program
    and for ``calibrate``. ``reference(b, e, seconds)`` rescales a time
    measured over ``[b, e]`` to the reference machine's nominal speed.
    """

    def __init__(self, spans, window: float = 1.0, nearest: int = 5):
        self.samples = sorted((s[START], s[END] - s[START]) for s in spans if s[NAME] == CALIBRATE)
        self.times = [t for t, _ in self.samples]
        self.window, self.nearest = window, nearest

    def local(self, b: float, e: float) -> float:
        """Median calibration time within ``window`` seconds of
        ``[b, e]``, or over the ``nearest`` samples to its middle when
        fewer lie there."""
        lo = bisect.bisect_left(self.times, b - self.window)
        hi = bisect.bisect_right(self.times, e + self.window)
        if hi - lo < self.nearest:
            mid = (b + e) / 2
            i = bisect.bisect_left(self.times, mid)
            near = self.samples[max(0, i - self.nearest): i + self.nearest]
            picked = sorted(near, key=lambda s: abs(s[0] - mid))[: self.nearest]
        else:
            picked = self.samples[lo:hi]
        if not picked:
            raise ValueError("no calibration samples recorded")
        return statistics.median(d for _, d in picked)

    def reference(self, b: float, e: float, seconds: float) -> float:
        return seconds * CALIBRATION_NOMINAL_S / self.local(b, e)

    def reference_span(self, b: float, e: float) -> float:
        """``[b, e]`` at the reference speed, less the calibration spans
        in it: each stretch between two of them is rescaled by the
        calibration around that stretch, so that a set of commands
        longer than the host's slow spells is rescaled piece by piece."""
        total, at = 0.0, b
        for start, seconds in self.samples[bisect.bisect_left(self.times, b):]:
            if start >= e:
                break
            if start > at:
                total += self.reference(at, start, start - at)
            at = max(at, start + seconds)
        if e > at:
            total += self.reference(at, e, e - at)
        return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans
    cover. Overlapping children are counted once, and a child reaching
    outside its parent counts only inside it."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            a, b = max(spans[c][START], reach), min(spans[c][END], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank q-quantile (0 < q < 1) of ``samples``, or None when
    fewer than ``min_beyond`` samples lie beyond that rank."""
    n = len(samples)
    rank = max(1, math.ceil(q * n - 1e-9))  # q * n can land just above a whole number, as 0.7 * 10 does
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def rate(work: float, seconds: float) -> float:
    """Work per second; a rate over no time is undefined."""
    if seconds <= 0.0:
        raise ValueError(f"rate over a non-positive time {seconds!r}")
    return work / seconds


def typical_rate(samples: dict) -> float:
    """Throughput when every unit of work runs at its kind's median rate.

    ``samples`` maps a kind of unit (one command's optimizer steps, say)
    to ``(work, seconds)`` per unit. Each kind's median of work per
    second stands for all its units, and the kinds are combined as one
    stream: total work over the time each kind's work takes at its
    median rate. A host that stalls the process for a few seconds slows
    a minority of units and leaves the medians where they were.
    """
    work = seconds = 0.0
    for kind, units in samples.items():
        if not units:
            raise ValueError(f"no units of kind {kind!r}")
        kind_work = sum(w for w, _ in units)
        work += kind_work
        seconds += kind_work / statistics.median(rate(w, s) for w, s in units)
    return rate(work, seconds)


def auprc_ratio(model_auprc: float, oracle_auprc: float) -> float:
    """Share of the Bayes-oracle AUPRC that the model reaches."""
    if oracle_auprc <= 0.0:
        raise ValueError(f"oracle AUPRC must be positive, got {oracle_auprc!r}")
    return model_auprc / oracle_auprc


def auprc_gap(model_auprc: float, oracle_auprc: float) -> float:
    """Bayes-oracle AUPRC minus the model's, on the same rows."""
    return oracle_auprc - model_auprc


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
