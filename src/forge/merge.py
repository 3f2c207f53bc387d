"""Merging strategies for plugin modules plus the coefficient search.

Fusion composes parameters: per layer, new A = w*A_main + w'*A_branch and
new B = w*B_main + w'*B_branch, so the resulting delta B@A carries the
quadratic cross terms of the two modules. Mixture leaves parameters alone
and forms the output as the coefficient-weighted sum of every module's
adapter-path output on top of the frozen base. ``ForgeItem.merged`` is the
one implementation of a round for either strategy; merging and replay both
call it.

Coefficients are found by a derivative-free simplex search over a box,
minimizing cross-entropy on distilled guidance data plus an L1 penalty.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model as mdl
from . import numerics as nm
from .distill import DistilledDataset
from .errors import (
    DegenerateInputError,
    IncompatibleModulesError,
    InputError,
    ParameterError,
)
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule
from .numerics import Tensor

FORGE_ITEM_MAGIC = b"FGI1"
FORGE_ITEM_VERSION = 1

# (distilled set, label table for its task)
GuidanceSet = tuple[DistilledDataset, LabelEmbeddingTable]


@dataclass
class MergeCoefficients:
    w_main: float
    w_branch: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.w_main) and np.isfinite(self.w_branch)):
            raise ParameterError("merge coefficients must be finite")


@dataclass
class CoeffOptimConfig:
    """Derivative-free search budget and regularization."""

    max_iterations: int = 40
    init_value: float = 0.5
    l1_lambda: float = 0.05
    box_min: float = 0.0
    box_max: float = 2.0
    allow_negative: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        # a NaN here makes every merge objective NaN; an infinite box fills
        # the start simplex with inf and NaN
        for name in ("init_value", "l1_lambda", "box_min", "box_max"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.l1_lambda < 0:
            raise ParameterError("l1_lambda must be non-negative")
        if self.box_min >= self.box_max:
            raise ParameterError("empty coefficient box")
        lo, hi = self.bounds()
        if not lo <= self.init_value <= hi:
            # the search starts from init_value and never leaves the box
            raise ParameterError(f"init_value {self.init_value} outside the box [{lo}, {hi}]")

    def bounds(self) -> tuple[float, float]:
        lo = -self.box_max if self.allow_negative else self.box_min
        return lo, self.box_max


def _check_compatible(plugins: Sequence[PluginModule]) -> None:
    first = plugins[0]
    layer_ids = set(first.adapters)
    for other in plugins[1:]:
        if set(other.adapters) != layer_ids:
            raise IncompatibleModulesError(
                f"plugin modules need an adapter on each of layers {sorted(layer_ids)}, "
                f"got {sorted(other.adapters)}")
        for lid in layer_ids:
            a, b = first.adapters[lid], other.adapters[lid]
            if a.rank != b.rank:
                raise IncompatibleModulesError(
                    f"rank mismatch on layer {lid}: {a.rank} vs {b.rank}")
            # compared as float32, the way a stored plugin holds alpha
            if np.float32(a.alpha) != np.float32(b.alpha):
                raise IncompatibleModulesError(
                    f"alpha mismatch on layer {lid}: {a.alpha} vs {b.alpha}")
            if a.a.shape != b.a.shape or a.b.shape != b.b.shape:
                raise IncompatibleModulesError(f"shape mismatch on layer {lid}")


def combine_plugins(plugins: Sequence[PluginModule],
                    weights: Sequence[float]) -> PluginModule:
    """Per layer: A = sum w_k A_k, B = sum w_k B_k; alpha and rank preserved."""
    if not plugins:
        raise InputError("no plugin modules to combine")
    if len(plugins) != len(weights):
        raise InputError("one weight per plugin module required")
    _check_compatible(plugins)
    adapters = {}
    for lid, ref in plugins[0].adapters.items():
        a = np.zeros_like(ref.a.data)
        b = np.zeros_like(ref.b.data)
        for plugin, w in zip(plugins, weights):
            ad = plugin.adapters[lid]
            a += nm.DTYPE(w) * ad.a.data
            b += nm.DTYPE(w) * ad.b.data
        adapters[lid] = mdl.LoraAdapter(lid, Tensor(a), Tensor(b), ref.rank,
                                        ref.alpha, ref.dropout_p)
    return PluginModule(adapters)


def fuse(main: PluginModule, branch: PluginModule,
         coeffs: MergeCoefficients) -> PluginModule:
    """Parameter fusion; the composed delta carries w*w' cross terms."""
    return combine_plugins([main, branch], [coeffs.w_main, coeffs.w_branch])


def mixture_deltas(entries: Sequence[tuple[PluginModule, float]]) -> dict[int, np.ndarray]:
    """Effective per-layer weight delta of a coefficient-weighted mixture."""
    out: dict[int, np.ndarray] = {}
    for plugin, coeff in entries:
        for lid, ad in plugin.adapters.items():
            delta = nm.DTYPE(coeff) * ad.effective_delta()
            out[lid] = out[lid] + delta if lid in out else delta
    return out


@dataclass
class ForgeItem:
    """Main-branch merge state: one fused module, or weighted mixture entries.

    A mixture item's bytes name each entry's plugin by its id, and the item
    keeps those ids in ``plugin_ids``: read from the bytes, handed to
    ``merged``, or taken once here from the plugins. So serializing an item
    never serializes its history again. Both sequences are stored as tuples,
    so an id cannot fall out of step with its entry.
    """

    kind: str  # "fused" | "mixture"
    round: int
    plugin: PluginModule | None = None
    entries: Sequence[tuple[PluginModule, float]] = ()
    plugin_ids: Sequence[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fused", "mixture"):
            raise ParameterError(f"unknown forge item kind {self.kind!r}")
        if self.kind == "fused":
            if self.plugin is None:
                raise ParameterError("fused item needs exactly one plugin module")
        else:
            if self.plugin is not None:
                raise ParameterError("mixture item stores entries, not a plugin")
            if self.round >= 1 and not self.entries:
                raise ParameterError("mixture item must have entries after round 1")
            if not all(np.isfinite(c) for _, c in self.entries):
                raise ParameterError("mixture coefficients must be finite")
            self.entries = tuple(self.entries)
            if self.plugin_ids is None:
                self.plugin_ids = [plugin.content_id() for plugin, _ in self.entries]
            self.plugin_ids = tuple(self.plugin_ids)
            if len(self.plugin_ids) != len(self.entries):
                raise ParameterError("mixture item needs one plugin id per entry")

    @classmethod
    def genesis(cls, strategy: str, base: BaseEncoder, rank: int, alpha: float) -> "ForgeItem":
        if strategy == "fusion":
            return cls("fused", 0, plugin=PluginModule.zero(base, rank, alpha))
        if strategy == "mixture":
            return cls("mixture", 0)
        raise ParameterError(f"unknown strategy {strategy!r}")

    def deltas(self) -> dict[int, np.ndarray] | None:
        if self.kind == "fused":
            return self.plugin.layer_deltas()
        return mixture_deltas(self.entries) if self.entries else None

    def search_deltas(self, branch: PluginModule) -> "LinearDeltas | FactoredDeltas":
        """Per-layer deltas of the next round as functions of (w, w')."""
        if self.kind == "fused":
            return FactoredDeltas([self.plugin, branch])
        return LinearDeltas([self.deltas() or {}, branch.layer_deltas()])

    def merged(self, branch: PluginModule, coeffs: MergeCoefficients,
               branch_id: str | None = None) -> "ForgeItem":
        """The next round's item: fuse the branch into the plugin, or rescale
        the history by w and append the branch at w'.

        Flattened mixture bookkeeping: nested application of the output rule
        gives every previous entry an effective coefficient multiplied by
        this round's w. ``branch_id`` is the branch's content id when the
        caller holds it already, as replay does from the bytes it just
        hash-checked; without it the branch is serialized once to get it.
        """
        if self.kind == "fused":
            return ForgeItem("fused", self.round + 1, plugin=fuse(self.plugin, branch, coeffs))
        entries = [(plugin, coeff * coeffs.w_main) for plugin, coeff in self.entries]
        entries.append((branch, coeffs.w_branch))
        ids = [*self.plugin_ids, branch.content_id() if branch_id is None else branch_id]
        return ForgeItem("mixture", self.round + 1, entries=entries, plugin_ids=ids)

    def to_bytes(self) -> bytes:
        out = [FORGE_ITEM_MAGIC,
               struct.pack("<BBI", FORGE_ITEM_VERSION,
                           0 if self.kind == "fused" else 1, self.round)]
        if self.kind == "fused":
            payload = self.plugin.to_bytes()
            out.append(struct.pack("<I", len(payload)))
            out.append(payload)
        else:
            out.append(struct.pack("<I", len(self.entries)))
            for plugin_id, (_, coeff) in zip(self.plugin_ids, self.entries):
                out.append(bytes.fromhex(plugin_id))
                out.append(struct.pack("<d", float(coeff)))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, buf: bytes,
                   plugin_loader: Callable[[str], PluginModule] | None = None) -> "ForgeItem":
        r = nm.Reader(buf, "forge item")
        r.header(FORGE_ITEM_MAGIC, FORGE_ITEM_VERSION)
        kind_tag, round_no, count = r.unpack("<BII")
        if kind_tag == 0:  # count is the plugin payload size
            plugin = PluginModule.from_bytes(r.take(count))
            r.end()
            return cls("fused", round_no, plugin=plugin)
        if kind_tag != 1:
            raise r.error(f"unknown kind tag {kind_tag}")
        # count is the number of entries
        if plugin_loader is None and count:
            raise r.error("a mixture item needs a plugin loader to resolve ids")
        refs = [r.unpack("<32sd") for _ in range(count)]  # raw plugin id, coefficient
        r.end()
        ids = [raw.hex() for raw, _ in refs]
        return cls("mixture", round_no, plugin_ids=ids,
                   entries=[(plugin_loader(plugin_id), coeff)
                            for plugin_id, (_, coeff) in zip(ids, refs)])


# ---------------------------------------------------------------------------
# coefficient optimization
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(f: Callable[[np.ndarray], float], simplex: np.ndarray,
                 lo: float, hi: float) -> None:
    """Bounded Nelder-Mead from ``simplex`` until the simplex collapses;
    ``f`` ends the search sooner by raising.

    The steps are those of scipy 1.17's ``minimize(method="Nelder-Mead")``
    with bounds: reflect 1, expand 2, contract 0.5, shrink 0.5, every new
    vertex clipped to [lo, hi], the vertices ordered by ``np.argsort`` (which
    need not be stable, so ties fall as they do in scipy), and a stop once
    every vertex lies within 1e-8 of the best and its value within 1e-10.
    Given the same objective, ``f`` sees the same points in the same order.
    """
    sim = np.array(simplex, dtype=np.float64)
    fsim = np.array([f(x) for x in sim])
    n = sim.shape[1]
    while True:
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        if (np.abs(sim[1:] - sim[0]).max() <= 1e-8
                and np.abs(fsim[1:] - fsim[0]).max() <= 1e-10):
            return
        xbar = sim[:-1].sum(axis=0) / n
        worst = sim[-1]
        xr = np.clip(2.0 * xbar - worst, lo, hi)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip(3.0 * xbar - 2.0 * worst, lo, hi)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction, toward the reflection
                xc = np.clip(1.5 * xbar - 0.5 * worst, lo, hi)
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction, toward the worst vertex
                xc = np.clip(0.5 * xbar + 0.5 * worst, lo, hi)
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink every vertex halfway to the best
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = f(sim[j])


def optimize_coefficients(objective: Callable[[np.ndarray], float],
                          config: CoeffOptimConfig,
                          n_vars: int = 2) -> tuple[np.ndarray, float, list[dict]]:
    """Budgeted simplex search over the box; returns the best point seen.

    The trace records every evaluated candidate, in order, and never exceeds
    the budget: the evaluation past it ends the search. The initial point is
    evaluated first, so the result can never be worse than the start; it is
    also the search's first vertex, so the trace holds it twice. Evaluating
    it once would give each round one more step, but would move the
    coefficients and content ids of every stored history, so it stays, in
    the trace and in the budget. The guidance objective keeps the forward
    of each point it has computed, so the second evaluation costs none.
    The best point is the first one with the lowest value.
    """
    lo, hi = config.bounds()
    x0 = np.full(n_vars, config.init_value, dtype=np.float64)
    trace: list[dict] = []

    def evaluate(x: np.ndarray) -> float:
        if len(trace) >= config.max_iterations:
            raise _BudgetExhausted
        value = float(objective(x))
        if np.isnan(value):
            raise InputError("objective returned NaN")
        trace.append({"point": [float(v) for v in x], "value": value})
        return value

    step = 0.35 * (hi - lo) / 2.0
    simplex = np.tile(x0, (n_vars + 1, 1))
    for i in range(n_vars):
        up = x0[i] + step
        simplex[i + 1, i] = up if up <= hi else x0[i] - step
    try:
        evaluate(x0)
        _nelder_mead(evaluate, simplex, lo, hi)
    except _BudgetExhausted:
        pass
    best = min(trace, key=lambda entry: entry["value"])
    return np.array(best["point"]), best["value"], trace


def _weighted_sum(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k w[k] * stack[k]: the one gemm ``np.tensordot(w, stack, 1)`` issues,
    without its shape handling, so the result is bit-identical."""
    return np.dot(w[None], stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


class LinearDeltas:
    """Per-layer deltas linear in the coefficients: sum_k w_k * terms[k][layer].

    A mixture round has two terms: the frozen history and the branch.
    """

    def __init__(self, terms: Sequence[dict[int, np.ndarray]]):
        shapes = {lid: d.shape for term in terms for lid, d in term.items()}
        self._stacks = {lid: np.stack([term.get(lid, np.zeros(shape, nm.DTYPE))
                                       for term in terms])
                        for lid, shape in shapes.items()}

    def layer_delta(self, lid: int, w: np.ndarray) -> np.ndarray | None:
        stack = self._stacks.get(lid)
        return None if stack is None else _weighted_sum(w, stack)

    def project_first(self, x: np.ndarray) -> np.ndarray | None:
        """x @ D_k.T for every term's layer-0 delta, stacked to [k, n, out]."""
        stack = self._stacks.get(0)
        return None if stack is None else x @ stack.transpose(0, 2, 1)

    def first_layer(self, projected: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _weighted_sum(w, projected)


class FactoredDeltas:
    """Per-layer deltas of combined factors: (alpha/r) (sum_k w_k B_k)(sum_k w_k A_k).

    Parameter fusion is the two-module case; the joint search gives every
    module its own coefficient.
    """

    def __init__(self, plugins: Sequence[PluginModule]):
        _check_compatible(plugins)
        self._a, self._b, self._scale = {}, {}, {}
        for lid, ref in plugins[0].adapters.items():
            self._a[lid] = np.stack([p.adapters[lid].a.data for p in plugins])
            self._b[lid] = np.stack([p.adapters[lid].b.data for p in plugins])
            self._scale[lid] = nm.DTYPE(ref.scaling())

    def layer_delta(self, lid: int, w: np.ndarray) -> np.ndarray | None:
        if lid not in self._a:
            return None
        b = _weighted_sum(w, self._b[lid]) * self._scale[lid]
        return b @ _weighted_sum(w, self._a[lid])

    def project_first(self, x: np.ndarray) -> np.ndarray | None:
        """x @ A_k.T for every module's layer-0 factor, stacked to [k, n, r]."""
        return x @ self._a[0].transpose(0, 2, 1) if 0 in self._a else None

    def first_layer(self, projected: np.ndarray, w: np.ndarray) -> np.ndarray:
        b = _weighted_sum(w, self._b[0]) * self._scale[0]
        return _weighted_sum(w, projected) @ b.T


class StackedGuidance:
    """All guidance rows in one batch, with the work fixed within a round done once.

    Built once per round: the stacked rows X, X @ W0.T + b0, the layer-0
    projections of X that ``deltas`` needs, and the normalized label rows of
    every task concatenated into one head, each row masked to its own task's
    columns. A forward pass at coefficients w then costs one tanh, the
    remaining layers with their small deltas formed directly, and one cosine
    head over every row.

    The forward reads w only as float32, so each distinct float32 w is
    computed once per instance and its logits kept, read-only: the search's
    repeated start vertex, points that round to the same float32 near
    convergence, and the accuracies at the chosen point cost no second pass.
    An instance lives for one round, so nothing it keeps goes stale, and it
    keeps at most one array per evaluation.
    """

    def __init__(self, base: BaseEncoder, guidance: Sequence[GuidanceSet],
                 deltas: LinearDeltas | FactoredDeltas, temperature: float):
        if not guidance:
            raise InputError("guidance data required for coefficient optimization")
        x = np.concatenate([np.asarray(data.inputs, dtype=nm.DTYPE) for data, _ in guidance])
        first = base.layers[0]
        self._pre0 = x @ first.weight.data.T + first.bias.data
        self._projected = deltas.project_first(x)
        self._layers = base.layers[1:]
        self._deltas = deltas

        rows = np.concatenate([table.rows.data for _, table in guidance]).astype(np.float64)
        self._head = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).T / temperature
        counts = np.array([len(data.labels) for data, _ in guidance])
        if not counts.all():
            raise InputError("every guidance set needs at least one row")
        classes = np.array([table.num_classes for _, table in guidance])
        task = np.repeat(np.arange(len(guidance)), counts)
        # row i keeps only its own task's columns of the head, padded to the
        # largest class count; padding is -inf, so exp and argmax ignore it
        local = np.arange(classes.max())
        own = local < classes[task, None]
        columns = (np.cumsum(classes) - classes)[task, None] + np.where(own, local, 0)
        self._padding = np.where(own, 0.0, -np.inf)
        self._labels = np.concatenate([data.labels for data, _ in guidance])
        if np.any((self._labels < 0) | (self._labels >= classes[task])):
            raise InputError("guidance label outside its task's classes")
        # flat indices into the row-major [rows, head columns] scores and the
        # [rows, own columns] logits, so one evaluation gathers with take
        rows = np.arange(len(task))
        self._flat_columns = rows[:, None] * self._head.shape[1] + columns
        self._flat_labels = rows * columns.shape[1] + self._labels
        # the loss is a mean over tasks of each task's mean, not a mean over rows
        self._row_weight = 1.0 / (counts[task] * len(guidance))
        self._task_start = np.cumsum(counts) - counts
        self._counts = counts
        self._names = [table.task_name for _, table in guidance]
        self._memo: dict[bytes, np.ndarray] = {}  # float32 bytes of w -> logits

    def logits(self, w: np.ndarray) -> np.ndarray:
        """[rows, most classes of any task] logits of each row's own task;
        columns past that task's class count are -inf. The array is shared
        by every call at the same float32 w, so it is read-only."""
        w = np.asarray(w, dtype=nm.DTYPE)
        key = w.tobytes()
        z = self._memo.get(key)
        if z is None:
            z = self._forward(w)
            z.flags.writeable = False
            self._memo[key] = z
        return z

    def _forward(self, w: np.ndarray) -> np.ndarray:
        """The logits at float32 ``w``, computed."""
        h = self._pre0
        if self._projected is not None:
            h = h + self._deltas.first_layer(self._projected, w)
        for lid, layer in enumerate(self._layers, start=1):
            weight = layer.weight.data
            delta = self._deltas.layer_delta(lid, w)
            if delta is not None:
                weight = weight + delta
            h = np.tanh(h) @ weight.T + layer.bias.data
        e = h.astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", e, e))[:, None]
        if np.any(norms < mdl.NORM_EPS):
            raise DegenerateInputError("zero-norm embedding in cosine head")
        return (e @ self._head).take(self._flat_columns) / norms + self._padding

    def loss(self, w: np.ndarray) -> float:
        """Mean over tasks of the mean cross-entropy of each task's rows."""
        z = self.logits(w)
        # column by column: the same bits as z.max(axis=1), without numpy's
        # per-row reduction over a handful of columns
        zmax = functools.reduce(np.maximum, z.T)
        lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
        return float((lse - z.take(self._flat_labels)) @ self._row_weight)

    def accuracies(self, w: np.ndarray) -> dict[str, float]:
        """Guidance accuracy per task name, rounded to six decimals."""
        hits = self.logits(w).argmax(axis=1) == self._labels
        per_task = np.add.reduceat(hits, self._task_start) / self._counts
        return {name: round(float(acc), 6) for name, acc in zip(self._names, per_task)}


def guidance_objective(base: BaseEncoder, guidance: Sequence[GuidanceSet],
                       deltas: LinearDeltas | FactoredDeltas, l1_lambda: float,
                       temperature: float = mdl.DEFAULT_TEMPERATURE) -> Callable:
    """Mean per-task cross-entropy on distilled sets plus l1 * sum |w|.

    The returned function also carries ``accuracies(w)``, the per-task
    guidance accuracy from the same stacked forward pass. It is a function
    attribute, so wrappers made with ``functools.wraps`` keep it.
    """
    stacked = StackedGuidance(base, guidance, deltas, temperature)

    def objective(w: np.ndarray) -> float:
        return stacked.loss(w) + l1_lambda * float(np.abs(w).sum())

    objective.accuracies = stacked.accuracies
    return objective


@dataclass
class MergeOutcome:
    coefficients: MergeCoefficients
    objective_value: float
    trace: list[dict]
    metrics_pre: dict[str, float]  # guidance accuracy per task at (1, 0)
    metrics_post: dict[str, float]  # and at the chosen coefficients


def merge_round(base: BaseEncoder, item: ForgeItem, branch: PluginModule,
                guidance: Sequence[GuidanceSet], config: CoeffOptimConfig,
                temperature: float = mdl.DEFAULT_TEMPERATURE,
                ) -> tuple[ForgeItem, MergeOutcome]:
    """Search (w, w') for one merge round, then merge the branch into ``item``.

    (1, 0) keeps the main item as it is.
    """
    objective = guidance_objective(base, guidance, item.search_deltas(branch),
                                   config.l1_lambda, temperature)
    best, value, trace = optimize_coefficients(objective, config, n_vars=2)
    coeffs = MergeCoefficients(float(best[0]), float(best[1]))
    outcome = MergeOutcome(coeffs, value, trace, objective.accuracies(np.array([1.0, 0.0])),
                           objective.accuracies(best))
    return item.merged(branch, coeffs), outcome


# ---------------------------------------------------------------------------
# collaborative baselines
# ---------------------------------------------------------------------------


def baseline_modelsoup(plugins: Sequence[PluginModule]) -> PluginModule:
    """Uniform parameter average of the plugin modules."""
    if not plugins:
        raise InputError("model soup needs at least one plugin module")
    return combine_plugins(plugins, [1.0 / len(plugins)] * len(plugins))


def baseline_lorahub(base: BaseEncoder, plugins: Sequence[PluginModule],
                     guidance: Sequence[GuidanceSet], config: CoeffOptimConfig,
                     ) -> tuple[PluginModule, np.ndarray, list[dict]]:
    """One-shot joint optimization of one coefficient per module."""
    if not plugins:
        raise InputError("joint merging needs at least one plugin module")
    objective = guidance_objective(base, guidance, FactoredDeltas(plugins),
                                   config.l1_lambda)
    best, _, trace = optimize_coefficients(objective, config, n_vars=len(plugins))
    merged = combine_plugins(plugins, list(best))
    return merged, best, trace
