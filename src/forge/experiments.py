"""Experiment harnesses: branch preparation, merge-order ablation, and the
baseline comparison table (single-task tuning, distilled-only, joint
merging with and without distilled guidance, parameter averaging, and both
merging strategies of this package)."""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distill as dst
from . import merge as mrg
from . import model as mdl
from . import numerics as nm
from .datasets import TOY_TASKS, LabeledDataset, TaskSpec, generate_tasks
from .distill import DistillConfig, DistilledDataset
from .evaluation import MetricsReport, evaluate_tasks
from .merge import CoeffOptimConfig
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule, TrainConfig
from .registry import BranchContribution, Repository, check_unused


@dataclass
class BranchArtifacts:
    """Everything one simulated contributor produces for a task."""

    spec: TaskSpec
    train: LabeledDataset
    test: LabeledDataset
    plugin: PluginModule
    distilled: DistilledDataset


def table_for(base: BaseEncoder, spec: TaskSpec) -> LabelEmbeddingTable:
    return LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)


def train_branch(base: BaseEncoder, spec: TaskSpec, train: LabeledDataset,
                 config: TrainConfig, seed: int) -> PluginModule:
    """Single-task adapter training, its rng derived from ``seed`` and the task."""
    return mdl.train_plugin(base, table_for(base, spec), train.inputs, train.labels, config,
                            nm.make_rng(nm.derive_seed("train", spec.name, seed)))


def distill_branch(base: BaseEncoder, spec: TaskSpec, train: LabeledDataset,
                   config: DistillConfig, seed: int) -> DistilledDataset:
    """The task's distilled set, its rng derived from ``seed`` and the task."""
    return dst.distill(spec, train, base, config,
                       nm.make_rng(nm.derive_seed("distill", spec.name, seed)))


def prepare_branch_artifacts(base: BaseEncoder, seed: int,
                             train_cfg: TrainConfig, distill_cfg: DistillConfig,
                             ) -> dict[str, BranchArtifacts]:
    """Generate the toy tasks and each contributor's plugin + distilled set."""
    return {spec.name: BranchArtifacts(spec, train, test,
                                       train_branch(base, spec, train, train_cfg, seed),
                                       distill_branch(base, spec, train, distill_cfg, seed))
            for spec, train, test in generate_tasks(seed)}


def task_tests(artifacts: dict[str, BranchArtifacts]) -> list[tuple[TaskSpec, LabeledDataset]]:
    """Each task's spec and test split, the pairs ``evaluate_tasks`` scores."""
    return [(art.spec, art.test) for art in artifacts.values()]


def head_deltas(repo: Repository) -> dict[int, np.ndarray]:
    """The layer deltas of the item the head of ``repo``'s main ref names."""
    chain = repo.chain()
    return repo.checkout(chain.round, chain).deltas()


def merge_in_order(workdir: Path, base_seed: int, strategy: str,
                   artifacts: dict[str, BranchArtifacts], order: list[str],
                   coeff: CoeffOptimConfig, train: TrainConfig) -> Repository:
    """Fresh repository at ``train``'s settings, commits in the given order, merge everything."""
    repo = Repository.init(workdir, base_seed, strategy, rank=train.rank, alpha=train.alpha,
                           temperature=train.temperature, coeff=coeff)
    for name in order:
        art = artifacts[name]
        repo.commit_contribution(BranchContribution(
            art.spec, art.plugin, art.distilled, author=f"branch-{name}"))
    repo.merge_all()
    return repo


# the desk-scale distillation budget of the experiment harnesses, for each
# [distill] key a config file leaves unset
DISTILL_BUDGET = {"iterations": 500, "ipc": 10, "eval_iterations": 300}
# the smoke-run budgets of ``forge experiment --fast``, by (section, key), over
# any config file
FAST_BUDGET = {("train", "epochs"): 20, ("distill", "iterations"): 100, ("distill", "ipc"): 5,
               ("distill", "eval_iterations"): 150, ("merge", "max_iterations"): 12}


@dataclass
class ExperimentSettings:
    """Desk-scale defaults for the experiment harnesses."""

    seeds: tuple[int, ...] = (1, 2, 3)
    train: TrainConfig = field(default_factory=TrainConfig)
    distill: DistillConfig = field(default_factory=lambda: DistillConfig(**DISTILL_BUDGET))
    coeff: CoeffOptimConfig = field(default_factory=CoeffOptimConfig)


def run_order_experiment(workdir: str | Path, settings: ExperimentSettings,
                         strategies: tuple[str, ...] = ("fusion", "mixture"),
                         orders: list[list[str]] | None = None,
                         ) -> tuple[list[MetricsReport], list[dict]]:
    """Strategy x task-order x seed sweep; returns runs and summary rows."""
    workdir = Path(workdir)
    if orders is None:
        orders = [list(p) for p in itertools.permutations(TOY_TASKS)]
    sweep = [(strategy, order, seed, f"{strategy}-{'_'.join(n[0] for n in order)}-s{seed}")
             for strategy in strategies for order in orders for seed in settings.seeds]
    for *_, tag in sweep:  # refused before any training, not at its Repository.init
        check_unused(workdir / tag)
    runs: list[MetricsReport] = []
    bases = {seed: BaseEncoder.from_seed(seed) for seed in settings.seeds}
    prepared = {seed: prepare_branch_artifacts(bases[seed], seed, settings.train,
                                               settings.distill) for seed in settings.seeds}
    for strategy, order, seed, tag in sweep:
        repo = merge_in_order(workdir / tag, seed, strategy, prepared[seed],
                              order, settings.coeff, settings.train)
        runs.append(evaluate_tasks(bases[seed], head_deltas(repo), task_tests(prepared[seed]),
                                   settings.train.temperature,
                                   MetricsReport(strategy, order, seed)))
    return runs, summarize_orders(runs)


def _summary_row(label: dict, cell: list[dict]) -> dict:
    """``label`` plus the mean and std of the average ACC and AUC of ``cell``'s runs."""
    accs = np.array([r["avg_acc"] for r in cell])
    aucs = np.array([r["avg_auc"] for r in cell])
    return {**label, "avg_acc_mean": float(accs.mean()), "avg_acc_std": float(accs.std()),
            "avg_auc_mean": float(aucs.mean()), "avg_auc_std": float(aucs.std()),
            "seeds": len(cell)}


def summarize_orders(runs: list[MetricsReport]) -> list[dict]:
    return [_summary_row({"strategy": strategy, "order": "->".join(n[0] for n in order)},
                        [r.to_dict() for r in runs
                         if r.strategy == strategy and tuple(r.order) == order])
            for strategy, order in sorted({(r.strategy, tuple(r.order)) for r in runs})]


def _ten_percent_guidance(artifacts: dict[str, BranchArtifacts], base: BaseEncoder,
                          seed: int) -> list:
    """Class-stratified 10% raw sample per task (the no-distillation variant)."""
    guidance = []
    for name, art in artifacts.items():
        rng = nm.make_rng(nm.derive_seed("ten-percent", name, seed))
        rows, labels = [], []
        for cls, idx in enumerate(art.train.class_indices(art.spec.num_classes)):
            take = rng.choice(idx, size=max(1, round(0.1 * idx.size)), replace=False)
            rows.append(art.train.inputs[take])
            labels.extend([cls] * take.size)
        # guidance only needs .inputs/.labels, so a raw subset works here
        sample = LabeledDataset(np.concatenate(rows), np.array(labels))
        guidance.append((sample, table_for(base, art.spec)))
    return guidance


def run_baseline_experiment(workdir: str | Path, settings: ExperimentSettings,
                            order: list[str] | None = None,
                            ) -> tuple[list[dict], list[dict]]:
    """Desk-scale analogue of the main comparison table; returns (runs, summary)."""
    workdir = Path(workdir)
    for seed in settings.seeds:  # refused before any training, not at its Repository.init
        for strategy in ("fusion", "mixture"):
            check_unused(workdir / f"{strategy}-s{seed}")
    order = order or ["B-toy", "M-toy", "L-toy"]
    temperature = settings.train.temperature
    methods = ["single-task tuning", "distilled only", "lorahub w/o distill",
               "lorahub w/ distill", "modelsoup", "fusion", "mixture"]
    runs: list[dict] = []
    for seed in settings.seeds:
        base = BaseEncoder.from_seed(seed)
        artifacts = prepare_branch_artifacts(base, seed, settings.train, settings.distill)
        plugins = [artifacts[n].plugin for n in order]
        distilled_guidance = [(artifacts[n].distilled, table_for(base, artifacts[n].spec))
                              for n in order]
        raw_guidance = _ten_percent_guidance(artifacts, base, seed)

        per_method = {method: MetricsReport(method, order, seed) for method in methods}
        for art in artifacts.values():  # each task scored with its own plugin
            evaluate_tasks(base, art.plugin.layer_deltas(), [(art.spec, art.test)],
                           temperature, per_method["single-task tuning"])
        for name, art in artifacts.items():
            metrics = dst.eval_distilled(
                art.distilled, base, art.spec, art.test, settings.distill,
                nm.make_rng(nm.derive_seed("distilled-eval", name, seed)), settings.train)
            per_method["distilled only"].add(name, metrics["acc"], metrics["auc"])

        # the merged methods: one set of deltas each, scored on every task
        merged = {label: mrg.baseline_lorahub(base, plugins, guidance, settings.coeff,
                                              temperature)[0].layer_deltas()
                  for label, guidance in (("lorahub w/o distill", raw_guidance),
                                          ("lorahub w/ distill", distilled_guidance))}
        merged["modelsoup"] = mrg.baseline_modelsoup(plugins).layer_deltas()
        for strategy in ("fusion", "mixture"):
            merged[strategy] = head_deltas(merge_in_order(
                workdir / f"{strategy}-s{seed}", seed, strategy, artifacts, order,
                settings.coeff, settings.train))
        for method, deltas in merged.items():
            evaluate_tasks(base, deltas, task_tests(artifacts), temperature, per_method[method])
        runs.extend(report.to_dict() for report in per_method.values())

    return runs, [_summary_row({"method": method}, [r for r in runs if r["strategy"] == method])
                  for method in methods]


def write_report(report_dir: str | Path, experiment: str, runs: list,
                 summary: list[dict]) -> Path:
    """Line-delimited records under reports/<experiment>/<timestamp>.jsonl."""
    report_dir = Path(report_dir) / experiment
    report_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = report_dir / f"{stamp}.jsonl"
    docs = [{"kind": "run", **(run.to_dict() if isinstance(run, MetricsReport) else run)}
            for run in runs] + [{"kind": "summary", **row} for row in summary]
    nm.write_file(path, "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs).encode())
    return path


def render_summary(summary: list[dict], label_key: str) -> str:
    """Fixed-width text table of mean +/- std rows."""
    header = f"{'':24s} {'avg ACC':>16s} {'avg AUC':>16s}  seeds"
    lines = [header, "-" * len(header)]
    for row in summary:
        label = row.get(label_key, "?")
        if "order" in row and label_key != "order":
            label = f"{label} {row['order']}"
        acc = f"{row['avg_acc_mean']:.3f} ± {row['avg_acc_std']:.3f}"
        auc_s = f"{row['avg_auc_mean']:.3f} ± {row['avg_auc_std']:.3f}"
        lines.append(f"{label:24s} {acc:>16s} {auc_s:>16s}  {row['seeds']:d}")
    return "\n".join(lines)
