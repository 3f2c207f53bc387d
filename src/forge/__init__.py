"""Collaborative adapter development at desk scale: branch contributors
train low-rank plugin adapters and distilled datasets on private tasks,
then merge them asynchronously into a shared main-branch model."""

from .datasets import LabeledDataset, TaskSpec, generate_tasks, split_by_group
from .distill import DistillConfig, DistilledDataset, DsaParams, eval_distilled
from .distill import distill as distill_dataset
from .evaluation import MetricsReport, accuracy, auc, group_aggregate
from .merge import (
    CoeffOptimConfig,
    ForgeItem,
    MergeCoefficients,
    baseline_lorahub,
    baseline_modelsoup,
    fuse,
    merge_round,
    optimize_coefficients,
)
from .model import (
    BaseEncoder,
    LabelEmbeddingTable,
    LoraAdapter,
    PluginModule,
    TrainConfig,
    encode,
    train_plugin,
)
from .numerics import SgdState, make_rng, sgd_step
from .chain import Chain, Commit
from .registry import BranchContribution, Repository

__version__ = "0.1.0"

__all__ = [
    "BaseEncoder", "BranchContribution", "Chain", "CoeffOptimConfig", "Commit",
    "DistillConfig", "DistilledDataset", "DsaParams", "ForgeItem",
    "LabelEmbeddingTable", "LabeledDataset", "LoraAdapter", "MergeCoefficients",
    "MetricsReport", "PluginModule", "Repository", "SgdState", "TaskSpec",
    "TrainConfig", "accuracy", "auc", "baseline_lorahub", "baseline_modelsoup",
    "distill_dataset", "encode", "eval_distilled", "fuse", "generate_tasks",
    "group_aggregate", "make_rng", "merge_round", "optimize_coefficients",
    "sgd_step", "split_by_group", "train_plugin",
]
