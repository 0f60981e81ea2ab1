"""Run a workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload batch_drift --seeds 1-10

Runs ``run.py`` once per seed, one after another, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end
metric the median of its values and their interquartile distance as a
share of that median, next to the metric's bound.  A benchmark is
steady when every spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range like 1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            bench["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        spread = stats.spread(series) if len(series) > 1 else float("nan")
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(
            f"{name:<18} median {statistics.median(series):12.4f} {metric['unit']:<4} "
            f"spread {spread:7.4f}  bound {bound:.2f}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
