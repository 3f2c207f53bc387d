"""Frozen two-layer encoder with a cosine-similarity label head and
attachable low-rank plugin adapters.

The encoder stands in for a large pretrained image tower: weights are drawn
once from a seeded Gaussian and never updated. All task adaptation happens
in rank-r adapter pairs (A, B) attached to every affine layer; the adapter
path adds (alpha/r) * B @ A to the frozen weight. Classification compares
the embedding against frozen per-label rows by cosine similarity.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .errors import (
    DegenerateInputError,
    InputError,
    ParameterError,
    ShapeError,
)
from .numerics import Tensor

ENCODER_DIMS = (256, 64, 32)

NORM_EPS = 1e-12  # a cosine head refuses a row of smaller L2 norm

PLUGIN_MAGIC = b"FGM1"
PLUGIN_VERSION = 1


class BaseEncoder:
    """Stack of affine layers y = x @ W.T + b, W of shape [out, in], with tanh
    between them; parameters frozen."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if not weights or len(weights) != len(biases):
            raise ParameterError("encoder needs at least one layer and one bias per weight")
        self.weights = [np.asarray(w, nm.DTYPE, order="C") for w in weights]
        self.biases = [np.asarray(b, nm.DTYPE, order="C") for b in biases]
        # the weights never change, so encode's contiguous W.T is made once
        self.weights_t = [np.ascontiguousarray(w.T) for w in self.weights]

    @classmethod
    def from_seed(cls, seed: int, dims: tuple[int, ...] = ENCODER_DIMS) -> "BaseEncoder":
        rng = nm.make_rng(nm.derive_seed("base-encoder", seed))
        shapes = list(zip(dims[1:], dims[:-1]))  # (out, in) per layer
        weights = [rng.normal(0.0, 1.0 / np.sqrt(k), size=(d, k)).astype(nm.DTYPE)
                   for d, k in shapes]
        return cls(weights, [np.zeros(d, dtype=nm.DTYPE) for d, _ in shapes])

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[0]

    def layer_dims(self, layer_id: int) -> tuple[int, int]:
        """(out, in) of layer ``layer_id``."""
        return self.weights[layer_id].shape

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(nm.tensor_to_bytes(w))
            h.update(nm.tensor_to_bytes(b))
        return h.hexdigest()


def _label_row(text: str, embed_dim: int) -> np.ndarray:
    """The frozen, read-only row of label ``text``. It depends only on the
    text's seed, so each process draws it once and keeps the seed, not the
    text, however long that is."""
    row = _seeded_row(nm.derive_seed("label-embedding", text), embed_dim)
    if np.linalg.norm(row) < 1e-6:
        raise DegenerateInputError(f"label embedding for {text!r} is degenerate")
    return row


@functools.cache
def _seeded_row(seed: int, embed_dim: int) -> np.ndarray:
    row = nm.make_rng(seed).normal(0.0, 1.0, size=embed_dim).astype(nm.DTYPE)
    row.flags.writeable = False
    return row


class LabelEmbeddingTable:
    """One frozen Gaussian row per label string, keyed by the label text.

    The row depends only on the label, so identical labels in different
    tasks share an embedding, mimicking a frozen text encoder.
    """

    def __init__(self, task_name: str, labels: list[str], embed_dim: int):
        if len(labels) < 2:
            raise ParameterError("a task needs at least two labels")
        if len(set(labels)) != len(labels):
            raise ParameterError("labels must be distinct")
        self.task_name = task_name
        self.labels = list(labels)
        self.rows = np.stack([_label_row(text, embed_dim) for text in labels])  # float32, C order

    @property
    def num_classes(self) -> int:
        return len(self.labels)

    def param_hash(self) -> str:
        h = hashlib.sha256()
        h.update("\x1f".join(self.labels).encode("utf-8"))
        h.update(nm.tensor_to_bytes(self.rows))
        return h.hexdigest()


@dataclass(eq=False)
class LoraAdapter:
    """Rank-r pair for one target layer, r being A's row count: delta = (alpha/r)
    * B @ A. The factors are float32, C-ordered arrays; ``==`` is identity."""

    a: np.ndarray  # [r, in]
    b: np.ndarray  # [out, r]
    alpha: float

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, nm.DTYPE, order="C")
        self.b = np.asarray(self.b, nm.DTYPE, order="C")

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_delta(self) -> np.ndarray:
        """Materialized [out, in] weight delta."""
        return (self.b @ self.a) * nm.DTYPE(self.scaling())


class PluginModule:
    """The commit unit: one adapter per targeted base layer."""

    def __init__(self, adapters: dict[int, LoraAdapter]):
        if not adapters:
            raise ParameterError("plugin module needs at least one adapter")
        self.adapters = dict(sorted(adapters.items()))

    @classmethod
    def build(cls, base: BaseEncoder, rank: int, alpha: float,
              draw: Callable[[int, int], tuple[np.ndarray, np.ndarray]]) -> "PluginModule":
        """One adapter per layer of ``base``, its A and B from ``draw(out, in)``
        once ``_check_adapter`` passes: a bad rank or alpha draws nothing."""
        adapters = {}
        for lid in range(len(base.weights)):
            d, k = _check_adapter(base, lid, rank, alpha)
            adapters[lid] = LoraAdapter(*draw(d, k), float(alpha))
        return cls(adapters)

    @classmethod
    def fresh(cls, base: BaseEncoder, rank: int, alpha: float,
              rng: np.random.Generator) -> "PluginModule":
        """A ~ N(0, 0.02), B = 0, so the initial delta is exactly zero."""
        return cls.build(base, rank, alpha, lambda d, k: (
            rng.normal(0.0, 0.02, size=(rank, k)).astype(nm.DTYPE),
            np.zeros((d, rank), dtype=nm.DTYPE)))

    @classmethod
    def zero(cls, base: BaseEncoder, rank: int, alpha: float) -> "PluginModule":
        """All-zero A and B: the identity element for parameter merging."""
        return cls.build(base, rank, alpha, lambda d, k: (
            np.zeros((rank, k), dtype=nm.DTYPE), np.zeros((d, rank), dtype=nm.DTYPE)))

    def parameters(self) -> list[np.ndarray]:
        """Each adapter's A and B, the arrays ``sgd_step`` updates in place."""
        out = []
        for ad in self.adapters.values():
            out.extend([ad.a, ad.b])
        return out

    def layer_deltas(self) -> dict[int, np.ndarray]:
        return {lid: ad.effective_delta() for lid, ad in self.adapters.items()}

    def to_bytes(self) -> bytes:
        """Canonical parameter-only encoding; the content id hashes this.

        Entries carry (layer_id, r, alpha, A, B); dropout is a setting of
        training (``TrainConfig.dropout_p``), not of the plugin.
        """
        out = [PLUGIN_MAGIC, struct.pack("<BI", PLUGIN_VERSION, len(self.adapters))]
        for lid, ad in self.adapters.items():
            out.append(struct.pack("<IIf", lid, ad.rank, ad.alpha))
            out.append(nm.tensor_to_bytes(ad.a))
            out.append(nm.tensor_to_bytes(ad.b))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "PluginModule":
        r = nm.Reader(buf, "plugin module")
        r.header(PLUGIN_MAGIC, PLUGIN_VERSION)
        (count,) = r.unpack("<I")
        adapters: dict[int, LoraAdapter] = {}
        last = -1
        for _ in range(count):
            lid, rank, alpha = r.unpack("<IIf")
            a, b = r.tensor(2), r.tensor(2)
            if a.shape[0] != rank or b.shape[1] != rank:
                raise r.error("adapter tensor shapes disagree with rank")
            if lid <= last:
                # to_bytes writes layers in increasing order, so any other
                # order, a repeated layer included, is a second encoding
                raise r.error(f"layer {lid} follows layer {last}; layers must increase")
            last = lid
            adapters[lid] = LoraAdapter(a, b, alpha)
        r.end()
        return cls(adapters)

    def content_id(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def _check_adapter(base: BaseEncoder, lid: int, rank: int, alpha: float) -> tuple[int, int]:
    """(out, in) of layer ``lid``, refused unless an adapter of ``rank`` and
    ``alpha`` may sit there."""
    if not 0 <= lid < len(base.weights):
        raise ShapeError(f"adapter targets missing layer {lid}")
    d, k = base.layer_dims(lid)
    # B @ A has rank at most min(out, in), so a larger rank only adds cost;
    # a NaN alpha fails the comparison too
    if not 1 <= rank <= min(d, k) or not 0 < alpha < np.inf:
        raise ParameterError(f"adapter for layer {lid} needs 1 <= rank <= min({d}, {k}) and "
                             f"a finite positive alpha, got rank {rank} and alpha {alpha}")
    return d, k


def check_plugin(base: BaseEncoder, plugin: PluginModule) -> None:
    """Every adapter meets ``_check_adapter``, with A [r, in] and B [out, r]."""
    for lid, ad in plugin.adapters.items():
        d, k = _check_adapter(base, lid, ad.rank, ad.alpha)
        if ad.a.shape != (ad.rank, k) or ad.b.shape != (d, ad.rank):
            raise ShapeError(f"adapter for layer {lid} has shape mismatch")


def encode(base: BaseEncoder, x: Tensor, plugin: PluginModule | None = None,
           training: bool = False, rng: np.random.Generator | None = None,
           dropout_p: float = 0.0) -> Tensor:
    """Batched embedding of [n, input_dim] rows (an [n, h, w] batch is
    flattened per row); an attached plugin adds each adapter's side path on
    top of the frozen layer it targets.

    One tape node covers every layer. Training with an rng and a
    ``dropout_p`` above 0 applies inverted dropout at that rate to each side
    path's input, one mask per adapted layer in forward order.
    The node's backward returns what the caller trains: when ``training``,
    the gradients of ``plugin.parameters()`` in that order; otherwise the
    gradient of ``x``.
    """
    adapters = {}
    if plugin is not None:
        check_plugin(base, plugin)
        adapters = plugin.adapters
    width = math.prod(x.shape[1:]) if x.data.ndim > 1 else x.data.size
    if width != base.input_dim:
        raise ShapeError(f"input dim {width} != encoder input {base.input_dim}")
    h = x.data.reshape(-1, width)
    last = len(base.weights) - 1
    cache = []  # per layer: transposed weight, side-path values, output
    for lid, (wt, bias) in enumerate(zip(base.weights_t, base.biases)):
        y = h @ wt + bias
        side = None
        ad = adapters.get(lid)
        if ad is not None:
            mask = None
            if rng is not None and training and dropout_p > 0.0:
                # 1/keep in float32 or 0: the bits of (r >= p) / keep
                mask = (rng.random(h.shape) >= dropout_p) \
                    * (nm.DTYPE(1.0) / nm.DTYPE(1.0 - dropout_p))
            hp = h if mask is None else h * mask
            at = np.ascontiguousarray(ad.a.T)
            bt = np.ascontiguousarray(ad.b.T)
            q = hp @ at
            scaling = float(ad.scaling())
            y += (q @ bt) * nm.DTYPE(scaling)
            side = (scaling, mask, hp, q, at, bt)
        out = y if lid == last else np.tanh(y, out=y)
        cache.append((wt, side, out))
        h = out

    def backward(g: np.ndarray) -> list[np.ndarray] | np.ndarray:
        grads = []  # (A, B) per adapted layer, last layer first
        for lid in range(last, -1, -1):
            wt, side, out = cache[lid]
            if lid != last:
                g = g * (1.0 - out * out)
            need_input = lid > 0 or not training
            g_in = g @ wt.T if need_input else None
            if side is not None:
                scaling, mask, hp, q, at, bt = side
                gp = g * scaling
                gq = gp @ bt.T
                if training:
                    grads.append(((hp.T @ gq).T, (q.T @ gp).T))
                if need_input:
                    g_hp = gq @ at.T
                    g_in = g_in + (g_hp if mask is None else g_hp * mask)
            g = g_in
        if training:
            return [t for pair in reversed(grads) for t in pair]
        return g.reshape(x.shape)

    return Tensor(h, backward)


def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit L2 norm (norms in float64), and the float32
    inverse norms as a column."""
    a64 = a.astype(np.float64)
    norms = np.sqrt(np.add.reduce(a64 * a64, axis=1))  # np.linalg.norm's sum
    if (norms < NORM_EPS).any():
        raise DegenerateInputError("cannot normalize a zero-norm row")
    inv = (1.0 / norms).astype(nm.DTYPE)[:, None]
    return a * inv, inv


def _label_head(table: LabelEmbeddingTable) -> np.ndarray:
    """The table's rows at unit norm, transposed: [embed_dim, classes]."""
    return np.ascontiguousarray(_unit_rows(table.rows)[0].T)


def _head_loss_grad(e: np.ndarray, rows_t: np.ndarray, scale: float,
                    labels: np.ndarray) -> np.ndarray:
    """The gradient with respect to the [n, d] embeddings ``e`` of the mean
    cross-entropy, at the checked ``labels``, of their cosine logits: the
    cosines of ``e`` at unit norm against a ``_label_head`` times ``scale``.
    The loss value itself is never computed."""
    if e.shape[1] != rows_t.shape[0]:
        raise ShapeError(f"embedding dim {e.shape[1]} != table dim {rows_t.shape[0]}")
    unit, inv = _unit_rows(e)
    probs = nm.softmax((unit @ rows_t) * nm.DTYPE(scale))
    g_unit = (nm.cross_entropy_grad(probs, labels) * scale) @ rows_t.T
    dot = np.add.reduce(unit * g_unit, axis=1, keepdims=True)
    return (g_unit - unit * dot) * inv


# ---------------------------------------------------------------------------
# fast no-gradient path (objective evaluation, metrics)
# ---------------------------------------------------------------------------


def encode_np(base: BaseEncoder, deltas: dict[int, np.ndarray] | None,
              x: np.ndarray) -> np.ndarray:
    """Plain-numpy embedding with per-layer weight deltas folded in."""
    h = np.asarray(x, dtype=nm.DTYPE)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[1] != base.input_dim:
        raise ShapeError(f"input dim {h.shape[1]} != encoder input {base.input_dim}")
    last = len(base.weights) - 1
    for lid, (w, bias) in enumerate(zip(base.weights, base.biases)):
        if deltas and lid in deltas:
            w = w + deltas[lid]
        h = h @ w.T + bias
        if lid != last:
            h = np.tanh(h)
    return h


def cosine_logits_np(embeddings: np.ndarray, table: LabelEmbeddingTable,
                     temperature: float) -> np.ndarray:
    e = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    if np.any(norms < NORM_EPS):
        raise DegenerateInputError("zero-norm embedding in cosine head")
    rows = table.rows.astype(np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return ((e / norms) @ rows.T / temperature).astype(nm.DTYPE)


# ---------------------------------------------------------------------------
# single-task adapter training
# ---------------------------------------------------------------------------


def _flat_views(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A float32 buffer holding ``arrays`` one after another, and a view of
    it in the shape of each."""
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    offsets = np.cumsum([0] + [a.size for a in arrays]).tolist()
    return flat, [flat[i:j].reshape(a.shape) for a, i, j in zip(arrays, offsets, offsets[1:])]


@dataclass
class TrainConfig:
    """Single-task adapter training defaults."""

    epochs: int = 100
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    rank: int = 16
    alpha: float = 16.0
    dropout_p: float = 0.1
    temperature: float = 0.07  # the cosine head's, and its only default

    def __post_init__(self) -> None:
        # a bad value here would train for every step, then write a plugin
        # that is not finite or fail mid-run
        nm.check_ranges(self, at_least_one=("epochs", "batch_size", "rank"),
                        positive=("learning_rate", "alpha", "temperature"),
                        non_negative=("momentum", "weight_decay"))
        if not 0.0 <= self.dropout_p < 1.0:  # NaN fails too
            raise ParameterError(f"dropout_p must lie in [0, 1), got {self.dropout_p!r}")


def train_plugin(base: BaseEncoder, table: LabelEmbeddingTable,
                 inputs: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, rng: np.random.Generator,
                 iterations: int | None = None) -> PluginModule:
    """Train adapters on one task; base and label rows stay frozen.

    ``iterations`` caps the number of SGD steps instead of running full
    epochs (used for distilled-data evaluation). Each step runs ``encode``,
    ``_head_loss_grad`` (the cosine head and the loss as one gradient), one
    ``Tensor.backward`` through ``encode`` and one ``sgd_step`` on a flat
    buffer of the adapters' A and B.
    """
    inputs = np.asarray(inputs, dtype=nm.DTYPE)
    labels = np.asarray(labels, dtype=np.int64)
    n = inputs.shape[0]
    if n == 0:
        raise InputError("cannot train on an empty dataset")
    if labels.shape != (n,):
        raise ShapeError("labels do not match inputs")
    if labels.min() < 0 or labels.max() >= table.num_classes:
        raise InputError(f"labels must lie in [0, {table.num_classes}) for task "
                         f"{table.task_name!r}")
    plugin = PluginModule.fresh(base, config.rank, config.alpha, rng)
    # A and B become views of one buffer, so one pass of sgd_step updates
    # all of them; each step copies the gradients into a buffer of that layout
    params, views = _flat_views(plugin.parameters())
    for ad, a, b in zip(plugin.adapters.values(), views[::2], views[1::2]):
        ad.a, ad.b = a, b
    grads, grad_views = _flat_views(views)
    state = nm.SgdState(config.learning_rate, config.momentum, config.weight_decay)
    head = _label_head(table)
    scale = float(1.0 / config.temperature)

    steps_done = 0
    budget = iterations if iterations is not None else config.epochs * max(1, -(-n // config.batch_size))
    # diverging steps overflow to inf and NaN; the one check after the loop
    # refuses them, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while steps_done < budget:
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                if steps_done >= budget:
                    break
                idx = order[start:start + config.batch_size]
                emb = encode(base, Tensor(inputs[idx]), plugin, training=True, rng=rng,
                             dropout_p=config.dropout_p)
                grad = _head_loss_grad(emb.data, head, scale, labels[idx])
                for view, g in zip(grad_views, emb.backward(grad)):
                    view[...] = g
                nm.sgd_step([params], [grads], state)
                steps_done += 1
    if not np.isfinite(params).all():
        raise ParameterError("training diverged to non-finite plugin weights; lower "
                             "the learning rate or raise the temperature")
    return plugin
