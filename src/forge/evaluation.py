"""Classification metrics: accuracy, rank-statistic AUC, and slide-style
group aggregation (mean of raw outputs within a group, then softmax)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from . import numerics as nm
from .datasets import LabeledDataset, TaskSpec
from .errors import DegenerateInputError, InputError
from .model import BaseEncoder, LabelEmbeddingTable


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise InputError("predictions and labels lengths differ")
    if predictions.size == 0:
        raise InputError("accuracy of an empty set is undefined")
    return float((predictions == labels).mean())


def _tie_averaged_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a run of c tied scores ending at rank e shares the rank e - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney statistic; tied pairs count 0.5."""
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("AUC needs both classes present")
    ranks = _tie_averaged_ranks(np.asarray(scores, dtype=np.float64))
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Binary AUC for 1-D scores; macro one-vs-rest over columns for 2-D.

    For a two-column score matrix the positive-class column is used, which
    equals the macro average in the binary case.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise InputError("scores and labels lengths differ")
    if scores.size == 0:
        raise InputError("AUC of an empty set is undefined")
    if scores.ndim == 1:
        return _binary_auc(scores, labels.astype(bool))
    num_classes = scores.shape[1]
    if num_classes == 2:
        return _binary_auc(scores[:, 1], labels == 1)
    per_class = [_binary_auc(scores[:, c], labels == c) for c in range(num_classes)]
    return float(np.mean(per_class))


def group_aggregate(outputs: np.ndarray, group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean raw outputs per group followed by softmax.

    Returns (group ids in sorted order, [g, c] group probabilities).
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if group_ids is None:
        raise InputError("group_aggregate requires group ids")
    group_ids = np.asarray(group_ids)
    if group_ids.shape[0] != outputs.shape[0]:
        raise InputError("group ids do not match outputs")
    groups, inverse = np.unique(group_ids, return_inverse=True)
    sums = np.zeros((groups.size, outputs.shape[1]), dtype=np.float64)
    np.add.at(sums, inverse, outputs)
    counts = np.bincount(inverse, minlength=groups.size).astype(np.float64)
    means = sums / counts[:, None]
    return groups, nm.softmax(means)


def _group_labels(labels: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    groups, inverse = np.unique(group_ids, return_inverse=True)
    out = np.empty(groups.size, dtype=np.int64)
    for g in range(groups.size):
        members = labels[inverse == g]
        if not np.all(members == members[0]):
            raise InputError(f"group {groups[g]} mixes labels")
        out[g] = members[0]
    return out


def evaluate_logits(logits: np.ndarray, labels: np.ndarray,
                    group_ids: np.ndarray | None = None) -> tuple[float, float]:
    """(accuracy, AUC) from raw logits, group-aggregated when ids are given."""
    if group_ids is not None:
        _, probs = group_aggregate(logits, group_ids)
        labels = _group_labels(np.asarray(labels, dtype=np.int64), group_ids)
    else:
        probs = nm.softmax(logits)
    preds = np.argmax(probs, axis=1)
    return accuracy(preds, labels), auc(probs, labels)


def evaluate_deltas(base: BaseEncoder, deltas: dict[int, np.ndarray] | None,
                    table: LabelEmbeddingTable, data: LabeledDataset,
                    temperature: float) -> tuple[float, float]:
    """Metrics of the encoder (plus per-layer deltas) on one dataset."""
    emb = mdl.encode_np(base, deltas, data.inputs)
    logits = mdl.cosine_logits_np(emb, table, temperature)
    return evaluate_logits(logits, data.labels, data.group_ids)


def evaluate_tasks(base: BaseEncoder, deltas: dict[int, np.ndarray] | None,
                   tasks: list[tuple[TaskSpec, LabeledDataset]], temperature: float,
                   report: MetricsReport) -> MetricsReport:
    """Add each task's metrics of the encoder (plus ``deltas``) to ``report``;
    returns it. ``evaluate_deltas`` is looked up on this module per call."""
    for spec, data in tasks:
        table = LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
        report.add(spec.name, *evaluate_deltas(base, deltas, table, data, temperature))
    return report


@dataclass
class MetricsReport:
    """Per-task and averaged metrics for one pipeline configuration."""

    strategy: str
    order: list[str]
    seed: int
    per_task: dict[str, dict[str, float]] = field(default_factory=dict)

    def add(self, task: str, acc: float, auc_value: float) -> None:
        self.per_task[task] = {"acc": acc, "auc": auc_value}

    @property
    def avg_acc(self) -> float:
        return float(np.mean([m["acc"] for m in self.per_task.values()]))

    @property
    def avg_auc(self) -> float:
        return float(np.mean([m["auc"] for m in self.per_task.values()]))

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "order": list(self.order),
            "seed": self.seed,
            "per_task": self.per_task,
            "avg_acc": self.avg_acc,
            "avg_auc": self.avg_auc,
        }
