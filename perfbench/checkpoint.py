"""Train a checkpoint with ``tabformer train`` and report its optimizer
steps.

The score workload runs this in a child process during set-up, so that
the parent's peak memory is that of scoring alone. Arguments are those
of ``tabformer train``; the last line of output is a JSON object whose
``steps`` lists ``[rows, seconds]`` per optimizer step, in seconds at
the reference speed, and ``calibration_s`` is the median calibration
time over the run.
"""

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tabformer import cli  # noqa: E402

import probes  # noqa: E402
from spans import HostSpeed, Tracer  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    probes.install_end_to_end(tracer, {}, calibrated=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", *argv])
    finally:
        tracer.restore()
    if code != 0:
        return code
    speed = HostSpeed(tracer.spans)
    steps, _ = probes.unit_samples(tracer.spans, 0, len(tracer.spans), "setup", speed)
    print(json.dumps({
        "steps": [unit for units in steps.values() for unit in units],
        "calibration_s": statistics.median(d for _, d in speed.samples),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
