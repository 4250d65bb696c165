"""tabformer benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload's commands, repeated as often as
``--seconds`` allows on the reference machine, and reports the medians
of the end-to-end metrics. Their timings are rescaled to the reference
machine's nominal speed by a calibration loop run between units of work
(see ``spans.HostSpeed``); ``peak_rss_mb`` and ``auprc_ratio`` are not
timings. ``--trace 1`` runs the commands twice
untraced and once with every module boundary wrapped, and reports the
per-layer metrics of the traced run. Metric names and units come from
``BENCHMARK.json``. The last line of output is the result object; the
line before it records the environment, the checks and the raw timings.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
_PER_OP = ("autodiff.op_calls.", "autodiff.fwd_s.", "autodiff.bwd_s.")


def source_digest() -> str:
    """sha256 over the package sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tabformer").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return config().decode(), threads()
    return None, None


def environment(src_digest: str) -> dict:
    import numpy
    import scipy

    blas, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
        "commit": _commit(),
        "src_sha256": src_digest,
    }


def _select(computed: dict, declared: list, failed: bool) -> dict:
    """The declared metrics, in declared order. A per-op metric for an op
    that no longer exists reads 0, as does a metric a failed run could
    not measure; any other missing name is a bug."""
    out = {}
    for entry in declared:
        name = entry["name"]
        value = computed.get(name)
        if value is None and (failed or name.startswith(_PER_OP)):
            value = 0
        if value is None:
            raise KeyError(f"benchmark computed no value for metric {name!r}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tabformer" / "__init__.py").is_file():
        print(f"perfbench: no tabformer package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    digest = source_digest()
    env = environment(digest)
    metrics, attempted, failed, info = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), digest
    )
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        info["failures"].append(f"{env['blas_threads']} BLAS threads on {env['nproc']} cpus")
        failed = max(failed, 1)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _select(metrics, declared, failed > 0),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
