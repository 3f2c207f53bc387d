"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at its smallest size (one cycle), untraced and traced,
each in a fresh process as a benchmark run would be. Checks that:
- each run is correct and prints every declared metric with its unit and
  direction, end-to-end metrics non-zero;
- spans nest (every child lies inside its parent, in the same run) and every
  module in ``tracing.MODULES`` produced at least one span;
- ``layers.json`` maps exactly the declared per-layer metrics onto declared
  end-to-end metrics and workloads;
- a directory holding only BENCHMARK.json and the benchmark files, without
  the forge sources, makes the benchmark exit non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import MODULES  # noqa: E402

SEED = 0
TIMEOUT_S = 300


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(problems: list[str], label: str, proc, declared: list[dict],
                 nonzero: bool) -> None:
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {lines[-6:-1]}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1]
             if line.startswith("  ") and len(line.split()) == 4}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or (nonzero and value == 0):
            problems.append(f"{label}: {m['name']} = {got}")
        if table.get(m["name"], [None])[1:] != [m["unit"], m["better"]]:
            problems.append(f"{label}: {m['name']} not printed with unit and direction")


def check_spans(problems: list[str], workload: str) -> set[str]:
    path = HERE / "out" / f"spans-{workload}-seed{SEED}.jsonl.gz"
    with gzip.open(path, "rt") as fh:
        spans = {s[0]: s for s in map(json.loads, fh)}
    for span_id, parent, name, start, end, run_id in spans.values():
        if end < start:
            problems.append(f"{workload}: span {name} ends before it starts")
        if parent:
            p = spans.get(parent)
            if p is None or p[5] != run_id or not (p[3] <= start and end <= p[4]):
                problems.append(f"{workload}: span {name} is not inside its parent")
    return {s[2].split(".", 1)[0] for s in spans.values()}


def check_layer_map(problems: list[str], bench: dict) -> None:
    doc = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]} | {"ops_failed_ratio"}
    workloads = {w["name"] for w in bench["workloads"]}
    mapped = set()
    for entry in doc["map"]:
        mapped.update(entry["metrics"])
        for name in entry["moves"]:
            if name not in end_to_end:
                problems.append(f"layers.json: unknown end-to-end metric {name}")
        for name in entry["workloads"]:
            if name not in workloads:
                problems.append(f"layers.json: unknown workload {name}")
    if mapped != per_layer:
        problems.append(f"layers.json and BENCHMARK.json disagree on "
                        f"{sorted(mapped ^ per_layer)}")


def check_bare_directory(problems: list[str]) -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run(["--workload", "contribute", "--seed", str(SEED), "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("bare directory: the benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    modules: set[str] = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace {trace}"
            print(f"running {label}", flush=True)
            proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                        "--trace", str(trace)])
            check_result(problems, label, proc, bench[kind], nonzero=not trace)
        modules |= check_spans(problems, workload)
    missing = set(MODULES) - modules
    if missing:
        problems.append(f"no spans from modules {sorted(missing)}")
    check_layer_map(problems, bench)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
