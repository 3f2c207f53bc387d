"""Repeat benchmark runs over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload merge-deep --seeds 1-10 [--trace 1]
        [--seconds S] [--json summary.json]

Each run is a fresh ``perfbench/run.py`` process. For every metric this
prints the median and quartiles of its values (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    incorrect = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            incorrect.append(seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "incorrect_seeds": incorrect, "metrics": {}}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary["metrics"][name] = {"unit": units[name], "median": median, "q1": q1,
                                    "q3": q3, "spread": spread, "values": vals}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound:<5} " + ("ok" if spread < bound / 3 else
                                    "within bound" if spread <= bound else "WIDE"))
        print(f"{name:34} median {median:<12.6g} {units[name]:<14} spread {spread:7.4f}  "
              f"{verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
