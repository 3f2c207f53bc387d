"""forge benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {contribute,merge-deep} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a forge checkout; it imports forge from ``src/``
there and exits with code 2 when that tree is missing. A run is a fresh
process that repeats its workload's cycle ``max(1, round(S / cycle_seconds))``
times, so the work done depends on ``--seconds`` and never on the speed of
the code under test. ``--trace 0`` reports every end-to-end metric;
``--trace 1`` runs half as many cycle seeds, each once untraced and once
traced, and reports every per-layer metric with the tracing overhead. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
Run files, spans and the content-id record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, pct).

    With eleven samples that is the lowest one; with fewer there is none, and
    the largest sample is reported as the 100th percentile.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    rank = len(ordered) - 10  # 1-based rank; ten samples lie above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def steady_rate(entries: list[tuple[int, float, float]], warmup_cycles: int) -> float:
    """Median rate of the operations after the warm-up cycles."""
    steady = [e for e in entries if e[0] >= warmup_cycles] or entries
    return statistics.median(work / seconds for _, work, seconds in steady)


def run_cycles(workload, plan: list[tuple[int, bool]], workdir: Path, tracer=None):
    """Set up, run and check one cycle per (cycle seed, traced) entry of ``plan``.

    The tracer's wrappers are installed only for traced cycles. Returns the
    recorder and (cycle, traced, setup_s, body_s) for every completed cycle.
    """
    from workloads import Recorder

    rec = Recorder()
    done = []
    for cycle, (cycle_seed, traced) in enumerate(plan):
        rec.cycle = cycle
        cycle_dir = workdir / f"cycle-{cycle}"
        cycle_dir.mkdir(parents=True)
        active = tracer if traced else None
        if active:
            active.run_id = f"{workload.name}/{cycle_seed}"
            active.install()
        try:
            start = time.perf_counter()
            state = workload.setup(rec, cycle_seed, cycle_dir, active)
            mid = time.perf_counter()
            workload.body(rec, state, active)
            end = time.perf_counter()
            workload.check(rec, state)
        except Exception as exc:  # noqa: BLE001 - a broken cycle is a failed operation
            rec.attempted += 1
            rec.fail("cycle", exc)
            continue
        finally:
            if active:
                active.uninstall()
            shutil.rmtree(cycle_dir, ignore_errors=True)
        done.append((cycle, traced, mid - start, end - mid))
    return rec, done


def end_to_end(rec, setup_s: list[float], body_s: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and the details behind them."""
    warmup = 1 if len(body_s) > 1 else 0
    samples = rec.samples
    round_tail, round_pct = tail(samples["merge_round_ms"])
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(body_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_steps_per_s": steady_rate(rec.rates["train_steps"], warmup),
        "distill_iters_per_s": steady_rate(rec.rates["distill_iters"], warmup),
        "merged_avg_acc": statistics.fmean(samples["merged_acc"]),
        "distilled_avg_acc": statistics.fmean(samples["distilled_acc"]),
        "merge_round_ms_p50": statistics.median(samples["merge_round_ms"]),
        "merge_round_ms_tail": round_tail,
        "commit_ms_p50": statistics.median(samples["commit_ms"]),
        "checkout_ms_p50": statistics.median(samples["checkout_ms"]),
        "replay_s": statistics.median(samples["replay_s"]),
    }
    details = {
        "ops_failed_ratio": rec.failed / max(rec.attempted, 1),
        "merge_round_ms_tail_percentile": round_pct,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "warmup_excluded_from_rates": {
            "cycles": warmup,
            **{key: {"work": sum(e[1] for e in entries if e[0] < warmup),
                     "seconds": sum(e[2] for e in entries if e[0] < warmup)}
               for key, entries in rec.rates.items()}},
        "setup_s_per_cycle": setup_s,
        "wall_s_per_cycle": body_s,
    }
    return metrics, details


def source_digest() -> str:
    """SHA-256 over the forge sources, so content ids are compared per version."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "forge").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_content_ids(rec, found: dict) -> dict:
    """Check the final items against earlier runs of the same sources (a mismatch
    is a failed check), record them, and return the ids that other source
    versions recorded for the same keys where they differ."""
    path = OUT / "content_ids.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    version = source_digest()
    mine = known.setdefault(version, {})
    for key, item_id in found.items():
        if key in mine:
            rec.check("content id", mine[key] == item_id,
                      f"{key}: {item_id} but an earlier run of these sources recorded "
                      f"{mine[key]}")
    mine.update(found)
    tmp = OUT / f".content_ids-{os.getpid()}.json"
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return {key: others for key, item_id in found.items()
            if (others := {other: ids[key] for other, ids in known.items()
                           if other != version and ids.get(key, item_id) != item_id})}


def declared_metrics(kind: str) -> list[dict]:
    return json.loads(BENCHMARK.read_text())[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "forge" / "__init__.py").is_file():
        print(f"no forge source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    import tracing

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    cycles = max(1, round(args.seconds / workload.cycle_seconds))
    if args.trace:
        # each cycle seed runs untraced and traced, in alternating order so that
        # neither side always runs second: the pair gives the overhead, and the
        # traced cycle must reproduce the untraced content ids
        plan = [(args.seed * 100 + i, traced) for i in range(max(1, cycles // 2))
                for traced in ((False, True) if i % 2 == 0 else (True, False))]
    else:
        plan = [(args.seed * 100 + i, False) for i in range(cycles)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    result = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "cycles": len(plan), "trace": args.trace, "environment": env}
    try:
        rec, done = run_cycles(workload, plan, workdir, tracer)
        if args.trace:
            steady = [d for d in done if d[0] >= 2] or done  # the first pair warms up
            plain_s = sum(d[3] for d in steady if not d[1])
            traced_s = sum(d[3] for d in steady if d[1])
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.overhead_ratio"] = traced_s / plain_s
            tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
            result["cycles_done"] = done
            declared = declared_metrics("per_layer")
        else:
            metrics, details = end_to_end(rec, [d[2] for d in done], [d[3] for d in done])
            result["details"] = details
            declared = declared_metrics("end_to_end")
        changed = compare_content_ids(rec, rec.content_ids)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(content_ids=rec.content_ids, content_ids_changed_from_other_sources=changed,
                  failures=rec.failures, metrics=metrics)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))

    print(f"# {workload.name} seed {args.seed}: {len(plan)} cycles, environment "
          f"{json.dumps(env, sort_keys=True)}")
    if not args.trace:
        print(f"  {'ops_failed_ratio':<34} {result['details']['ops_failed_ratio']:>14.6g} "
              f"failed/attempted  lower")
    for m in declared:
        print(f"  {m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']:<16} {m['better']}")
    print(f"  content ids: {len(rec.content_ids)} recorded, {len(changed)} differ from "
          f"runs of other forge sources")
    for failure in rec.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
