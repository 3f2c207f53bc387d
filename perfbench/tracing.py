"""In-memory spans around forge's public functions, and the per-layer metrics
computed from them.

A wrapper is installed where the caller looks the name up: module attributes
for functions that callers reach as ``module.name`` or as a global of the
same module, class attributes for methods, and the importing module's own
binding where a module imported a function by name (``forge.registry`` and
``forge.cli`` import ``evaluate_deltas`` that way). Every span records its
id, parent span, name, start, end and run id; spans stay in memory until the
run ends. Nothing here changes what forge computes.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import time
from collections import defaultdict

MODULES = ("numerics", "model", "distill", "merge", "registry", "evaluation",
           "datasets", "cli")

CLI_COMMANDS = ("gen-data", "init", "train-branch", "distill", "commit", "merge",
                "eval", "checkout")


class Tracer:
    """Collects spans (id, parent, name, start, end, run) and counters."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._ids = itertools.count(1)
        self._stack: list[int] = []  # open spans; the workloads call forge from one thread
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.run_id))

    def wrap(self, name, fn, measure=None):
        """Wrapper of ``fn`` that opens a span; ``name`` may be a callable of the
        arguments, and ``measure(args, kwargs, result)`` yields counter updates."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            result = tracer.call(label, fn, *args, **kwargs)
            if measure is not None:
                for key, amount in measure(args, kwargs, result):
                    tracer.counters[key] += amount
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from forge import cli, datasets, distill, evaluation, merge, model, numerics, registry
        from forge.errors import LockHeldError

        p, w = self.patch, self.wrap
        p(numerics.Tensor, "backward", w("numerics.backward", numerics.Tensor.backward))
        p(numerics, "sgd_step", w("numerics.sgd_step", numerics.sgd_step))

        p(model, "encode", w("model.encode", model.encode))
        p(model, "train_plugin", w("model.train_plugin", model.train_plugin))
        p(model, "encode_np", w("model.encode_np", model.encode_np,
                                lambda a, k, r: [("model.encode_np_rows", len(r))]))
        p(model, "cosine_logits_np", w("model.cosine_logits_np", model.cosine_logits_np))

        p(distill, "distill", w("distill.distill", distill.distill,
                                lambda a, k, r: [("distill.iterations", a[3].iterations)]))
        p(distill, "dm_loss", w("distill.dm_loss", distill.dm_loss))
        p(distill, "dsa_augment", w("distill.dsa_augment", distill.dsa_augment))
        p(distill, "eval_distilled", w("distill.eval_distilled", distill.eval_distilled))

        guidance_objective = merge.guidance_objective

        def traced_objective(base, guidance, *args, **kwargs):
            rows = sum(len(distilled.inputs) for distilled, _ in guidance)
            objective = guidance_objective(base, guidance, *args, **kwargs)
            return w("merge.objective", objective,
                     lambda a, k, r: [("merge.guidance_rows", rows)])

        p(merge, "guidance_objective", traced_objective)
        p(merge, "optimize_coefficients", w("merge.optimize", merge.optimize_coefficients))
        p(merge, "fuse", w("merge.fuse", merge.fuse))
        p(merge, "mixture_deltas", w("merge.mixture_deltas", merge.mixture_deltas))

        repo = registry.Repository
        merge_next = repo.merge_next

        def counted_merge_next(self_):
            try:
                return merge_next(self_)
            except LockHeldError:
                self.counters["registry.lock_conflicts"] += 1
                raise

        p(repo, "merge_next", w(lambda r: f"registry.merge_next.{r.strategy}",
                                counted_merge_next))
        for attr in ("merge_records", "load_distilled", "pending", "commit_contribution",
                     "checkout", "replay", "verify_objects"):
            p(repo, attr, w(f"registry.{attr}", getattr(repo, attr)))
        p(repo, "read_object", w("registry.read_object", repo.read_object,
                                 lambda a, k, r: [("registry.read_object_bytes", len(r))]))
        p(repo, "store_object", w("registry.store_object", repo.store_object,
                                  lambda a, k, r: [("registry.store_object_bytes",
                                                    len(a[1]))]))

        p(evaluation, "evaluate_deltas",
          w("evaluation.evaluate_deltas", evaluation.evaluate_deltas))
        p(evaluation, "auc", w("evaluation.auc", evaluation.auc))
        p(registry, "evaluate_deltas",
          w("registry.guidance_metrics", evaluation.evaluate_deltas))
        p(cli, "evaluate_deltas", evaluation.evaluate_deltas)

        p(datasets, "generate_tasks", w("datasets.generate_tasks", datasets.generate_tasks))
        p(datasets, "load_dataset", w("datasets.load_dataset", datasets.load_dataset))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _inside(spans, target: str) -> set[int]:
    """Ids of the spans that run inside a span named ``target``."""
    found, targets = set(), set()
    for span_id, parent, name, *_ in sorted(spans):  # a parent's id is below its children's
        if parent in found or parent in targets:
            found.add(span_id)
        if name == target:
            targets.add(span_id)
    return found


def round_cost_ratio(spans) -> float:
    """Median over merge histories of last-decile over first-decile round time.

    One history is the merge_next spans of one strategy within one run id, in
    start order; a run id holds at most one repository per strategy.
    """
    histories = defaultdict(list)
    for _, _, name, start, end, run in sorted(spans, key=lambda s: s[3]):
        if name.startswith("registry.merge_next."):
            histories[(run, name)].append(end - start)
    ratios = []
    for rounds in histories.values():
        if len(rounds) < 2:
            continue
        k = max(1, len(rounds) // 10)
        ratios.append(statistics.fmean(rounds[-k:]) / statistics.fmean(rounds[:k]))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: totals in ms, call counts, and the derived ratios."""
    spans = tracer.spans
    total_ms = defaultdict(float)
    calls = defaultdict(int)
    child_ms = defaultdict(float)
    for _, parent, name, start, end, _ in spans:
        ms = (end - start) * 1e3
        total_ms[name] += ms
        calls[name] += 1
        child_ms[parent] += ms
    self_ms = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        self_ms[name] += (end - start) * 1e3 - child_ms[span_id]

    in_training = _inside(spans, "model.train_plugin")
    in_distill = _inside(spans, "distill.distill")
    train_steps = sum(1 for s in spans if s[2] == "numerics.sgd_step" and s[0] in in_training)
    distill_encodes = sum(1 for s in spans if s[2] == "model.encode" and s[0] in in_distill)
    counters = tracer.counters
    iterations = counters["distill.iterations"]
    evals = calls["merge.objective"]

    out = {
        "numerics.backward_ms": total_ms["numerics.backward"],
        "numerics.backward_calls": calls["numerics.backward"],
        "numerics.sgd_step_ms": total_ms["numerics.sgd_step"],
        "numerics.sgd_step_calls": calls["numerics.sgd_step"],
        "model.encode_ms": total_ms["model.encode"],
        "model.encode_calls": calls["model.encode"],
        "model.train_plugin_ms": total_ms["model.train_plugin"],
        "model.train_steps": train_steps,
        "model.encode_np_ms": total_ms["model.encode_np"],
        "model.encode_np_calls": calls["model.encode_np"],
        "model.encode_np_rows": counters["model.encode_np_rows"],
        "model.cosine_logits_np_ms": total_ms["model.cosine_logits_np"],
        "distill.distill_ms": total_ms["distill.distill"],
        "distill.iterations": iterations,
        "distill.dm_loss_ms": total_ms["distill.dm_loss"],
        "distill.dsa_augment_ms": total_ms["distill.dsa_augment"],
        "distill.dsa_augment_calls": calls["distill.dsa_augment"],
        "distill.encodes_per_iter": distill_encodes / iterations if iterations else 0.0,
        "distill.eval_distilled_ms": total_ms["distill.eval_distilled"],
        "merge.objective_ms": total_ms["merge.objective"] / evals if evals else 0.0,
        "merge.objective_evals": evals,
        "merge.guidance_rows_per_eval": counters["merge.guidance_rows"] / evals if evals else 0.0,
        "merge.optimize_ms": self_ms["merge.optimize"],
        "merge.fuse_ms": total_ms["merge.fuse"],
        "merge.fuse_calls": calls["merge.fuse"],
        "merge.mixture_deltas_ms": total_ms["merge.mixture_deltas"],
        "registry.merge_next.fusion_ms": total_ms["registry.merge_next.fusion"],
        "registry.merge_next.mixture_ms": total_ms["registry.merge_next.mixture"],
        "registry.round_cost_ratio": round_cost_ratio(spans),
        "registry.merge_records_ms": total_ms["registry.merge_records"],
        "registry.load_distilled_calls": calls["registry.load_distilled"],
        "registry.load_distilled_ms": total_ms["registry.load_distilled"],
        "registry.pending_ms": total_ms["registry.pending"],
        "registry.read_object_calls": calls["registry.read_object"],
        "registry.read_object_bytes": counters["registry.read_object_bytes"],
        "registry.read_object_ms": total_ms["registry.read_object"],
        "registry.store_object_calls": calls["registry.store_object"],
        "registry.store_object_bytes": counters["registry.store_object_bytes"],
        "registry.store_object_ms": total_ms["registry.store_object"],
        "registry.commit_contribution_ms": total_ms["registry.commit_contribution"],
        "registry.guidance_metrics_ms": total_ms["registry.guidance_metrics"],
        "registry.checkout_ms": total_ms["registry.checkout"],
        "registry.replay_ms": total_ms["registry.replay"],
        "registry.verify_objects_ms": total_ms["registry.verify_objects"],
        "registry.lock_conflicts": counters["registry.lock_conflicts"],
        "evaluation.evaluate_deltas_ms": total_ms["evaluation.evaluate_deltas"],
        "evaluation.evaluate_deltas_calls": calls["evaluation.evaluate_deltas"],
        "evaluation.auc_ms": total_ms["evaluation.auc"],
        "datasets.generate_tasks_ms": total_ms["datasets.generate_tasks"],
        "datasets.load_dataset_ms": total_ms["datasets.load_dataset"],
        "datasets.load_dataset_calls": calls["datasets.load_dataset"],
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}_ms"] = total_ms[f"cli.{command}"]
    for module in MODULES:
        out[f"{module}.self_ms"] = sum(ms for name, ms in self_ms.items()
                                       if name.split(".", 1)[0] == module)
    out["trace.spans"] = len(spans)
    return out
