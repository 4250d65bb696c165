"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (interquartile distance over the median).

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workloads fit score --seeds 1-10 --out runs.json

Runs are made one after another, each in its own process, exactly as
``BENCHMARK.json``'s command would be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every result and the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"runs": [], "summary": {}}
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record["runs"].append({"workload": workload, "seed": seed, "info": json.loads(lines[-2]), **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items() if not args.trace),
                  flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            row = {"median": med, "n": len(vals)}
            if len(vals) >= 2 and med:
                row["spread"] = spread(vals)
            if bounds.get(name) is not None:
                row["bound"] = bounds[name]
            summary[name] = row
        record["summary"][workload] = summary
        if not args.trace:
            for name, row in summary.items():
                print(f"  {workload:<13s} {name:<20s} median {row['median']:.6g}  "
                      f"spread {row.get('spread', float('nan')):.4f}  bound {row.get('bound')}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
