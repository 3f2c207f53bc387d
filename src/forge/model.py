"""Frozen two-layer encoder with a cosine-similarity label head and
attachable low-rank plugin adapters.

The encoder stands in for a large pretrained image tower: weights are drawn
once from a seeded Gaussian and never updated. All task adaptation happens
in rank-r adapter pairs (A, B) attached to every affine layer; the adapter
path adds (alpha/r) * B @ A to the frozen weight. Classification compares
the embedding against frozen per-label rows by cosine similarity.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

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
DEFAULT_TEMPERATURE = 0.07

NORM_EPS = 1e-12  # a cosine head refuses a row of smaller L2 norm

PLUGIN_MAGIC = b"FGM1"
PLUGIN_VERSION = 1


@dataclass
class AffineLayer:
    """y = x @ W.T + b with W of shape [out, in]."""

    weight: Tensor
    bias: Tensor

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


class BaseEncoder:
    """Stack of affine layers with tanh between them; parameters frozen."""

    def __init__(self, layers: list[AffineLayer]):
        if not layers:
            raise ParameterError("encoder needs at least one layer")
        self.layers = layers
        # the weights never change, so encode's contiguous W.T is made once
        self.weights_t = [np.ascontiguousarray(layer.weight.data.T) for layer in layers]

    @classmethod
    def from_seed(cls, seed: int, dims: tuple[int, ...] = ENCODER_DIMS) -> "BaseEncoder":
        rng = nm.make_rng(nm.derive_seed("base-encoder", seed))
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            std = 1.0 / np.sqrt(fan_in)
            w = rng.normal(0.0, std, size=(fan_out, fan_in)).astype(nm.DTYPE)
            b = np.zeros(fan_out, dtype=nm.DTYPE)
            layers.append(AffineLayer(Tensor(w), Tensor(b)))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def embed_dim(self) -> int:
        return self.layers[-1].out_dim

    def layer_dims(self, layer_id: int) -> tuple[int, int]:
        layer = self.layers[layer_id]
        return layer.out_dim, layer.in_dim

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(nm.tensor_to_bytes(layer.weight))
            h.update(nm.tensor_to_bytes(layer.bias))
        return h.hexdigest()


class LabelEmbeddingTable:
    """One frozen Gaussian row per label string, keyed by the label text.

    The row depends only on the label, so identical labels in different
    tasks share an embedding, mimicking a frozen text encoder.
    """

    def __init__(self, task_name: str, labels: list[str], embed_dim: int,
                 drawn: dict[str, np.ndarray] | None = None):
        """``drawn`` maps label text to its row for tables built together at
        one ``embed_dim``: a label met again reuses its row, not a new draw."""
        if len(labels) < 2:
            raise ParameterError("a task needs at least two labels")
        if len(set(labels)) != len(labels):
            raise ParameterError("labels must be distinct")
        self.task_name = task_name
        self.labels = list(labels)
        drawn = {} if drawn is None else drawn
        for text in labels:
            if text not in drawn:
                drawn[text] = self._embed_label(text, embed_dim)
        self.rows = Tensor(np.stack([drawn[text] for text in labels]))

    @staticmethod
    def _embed_label(text: str, embed_dim: int) -> np.ndarray:
        rng = nm.make_rng(nm.derive_seed("label-embedding", text))
        row = rng.normal(0.0, 1.0, size=embed_dim).astype(nm.DTYPE)
        if np.linalg.norm(row) < 1e-6:
            raise DegenerateInputError(f"label embedding for {text!r} is degenerate")
        return row

    @property
    def num_classes(self) -> int:
        return len(self.labels)

    def param_hash(self) -> str:
        h = hashlib.sha256()
        h.update("\x1f".join(self.labels).encode("utf-8"))
        h.update(nm.tensor_to_bytes(self.rows))
        return h.hexdigest()


@dataclass
class LoraAdapter:
    """Rank-r pair for one target layer: delta = (alpha/r) * B @ A."""

    layer_id: int
    a: Tensor  # [r, in]
    b: Tensor  # [out, r]
    rank: int
    alpha: float
    dropout_p: float = 0.0

    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_delta(self) -> np.ndarray:
        """Materialized [out, in] weight delta."""
        return (self.b.data @ self.a.data) * nm.DTYPE(self.scaling())


def init_adapter(layer_id: int, d: int, k: int, r: int, alpha: float,
                 rng: np.random.Generator, dropout_p: float = 0.0) -> LoraAdapter:
    """A ~ N(0, 0.02), B = 0, so the initial delta is exactly zero."""
    if r < 1 or r > min(d, k):
        raise ParameterError(f"rank {r} outside [1, min({d}, {k})]")
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if not 0.0 <= dropout_p < 1.0:
        raise ParameterError("dropout_p must lie in [0, 1)")
    a = rng.normal(0.0, 0.02, size=(r, k)).astype(nm.DTYPE)
    b = np.zeros((d, r), dtype=nm.DTYPE)
    return LoraAdapter(layer_id, Tensor(a), Tensor(b), r, float(alpha), float(dropout_p))


class PluginModule:
    """The commit unit: one adapter per targeted base layer."""

    def __init__(self, adapters: dict[int, LoraAdapter]):
        if not adapters:
            raise ParameterError("plugin module needs at least one adapter")
        self.adapters = dict(sorted(adapters.items()))

    @classmethod
    def fresh(cls, base: BaseEncoder, rank: int, alpha: float,
              rng: np.random.Generator, dropout_p: float = 0.0) -> "PluginModule":
        adapters = {}
        for lid in range(len(base.layers)):
            d, k = base.layer_dims(lid)
            adapters[lid] = init_adapter(lid, d, k, rank, alpha, rng, dropout_p)
        return cls(adapters)

    @classmethod
    def zero(cls, base: BaseEncoder, rank: int, alpha: float) -> "PluginModule":
        """All-zero A and B: the identity element for parameter merging."""
        adapters = {}
        for lid in range(len(base.layers)):
            d, k = base.layer_dims(lid)
            adapters[lid] = LoraAdapter(
                lid, Tensor(np.zeros((rank, k), dtype=nm.DTYPE)),
                Tensor(np.zeros((d, rank), dtype=nm.DTYPE)), rank, float(alpha))
        return cls(adapters)

    def parameters(self) -> list[Tensor]:
        out = []
        for ad in self.adapters.values():
            out.extend([ad.a, ad.b])
        return out

    def layer_deltas(self) -> dict[int, np.ndarray]:
        return {lid: ad.effective_delta() for lid, ad in self.adapters.items()}

    def to_bytes(self) -> bytes:
        """Canonical parameter-only encoding; the content id hashes this.

        Entries carry (layer_id, r, alpha, A, B). Dropout is a training-time
        knob, not part of the committed artifact.
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
            adapters[lid] = LoraAdapter(lid, Tensor(a), Tensor(b), rank, alpha)
        r.end()
        return cls(adapters)

    def content_id(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def check_plugin(base: BaseEncoder, plugin: PluginModule) -> None:
    """Every adapter fits a layer of ``base`` at rank >= 1 and alpha finite > 0."""
    for lid, ad in plugin.adapters.items():
        if lid < 0 or lid >= len(base.layers):
            raise ShapeError(f"adapter targets missing layer {lid}")
        d, k = base.layer_dims(lid)
        if ad.b.shape != (d, ad.rank) or ad.a.shape != (ad.rank, k):
            raise ShapeError(f"adapter for layer {lid} has shape mismatch")
        if ad.rank < 1 or not 0 < ad.alpha < np.inf:  # NaN fails too
            raise ParameterError(f"adapter for layer {lid} needs rank >= 1 and a finite "
                                 f"positive alpha, got rank {ad.rank} and alpha {ad.alpha}")
        if not 0.0 <= ad.dropout_p < 1.0:
            raise ParameterError(f"adapter for layer {lid} has dropout outside [0, 1)")


def encode(base: BaseEncoder, x: Tensor, plugin: PluginModule | None = None,
           training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Batched embedding of [n, input_dim] rows (an [n, h, w] batch is
    flattened per row); an attached plugin adds each adapter's side path on
    top of the frozen layer it targets.

    One tape node covers every layer. Training with an rng applies inverted
    dropout to each side path's input, one mask per layer in forward order.
    The node's backward returns what the caller trains: when ``training``,
    the gradients of ``plugin.parameters()`` in that order; otherwise the
    gradient of ``x``.
    """
    adapters = {}
    if plugin is not None:
        check_plugin(base, plugin)
        adapters = plugin.adapters
    width = int(np.prod(x.shape[1:])) if x.data.ndim > 1 else x.data.size
    if width != base.input_dim:
        raise ShapeError(f"input dim {width} != encoder input {base.input_dim}")
    h = x.data.reshape(-1, width)
    last = len(base.layers) - 1
    cache = []  # per layer: transposed weight, side-path values, output
    for lid, (layer, wt) in enumerate(zip(base.layers, base.weights_t)):
        y = h @ wt + layer.bias.data
        side = None
        ad = adapters.get(lid)
        if ad is not None:
            mask = None
            if rng is not None and training and ad.dropout_p > 0.0:
                mask = (rng.random(h.shape) >= ad.dropout_p).astype(nm.DTYPE) \
                    / nm.DTYPE(1.0 - ad.dropout_p)
            hp = h if mask is None else h * mask
            at = np.ascontiguousarray(ad.a.data.T)
            bt = np.ascontiguousarray(ad.b.data.T)
            q = hp @ at
            scaling = float(ad.scaling())
            y = y + (q @ bt) * nm.DTYPE(scaling)
            side = (scaling, mask, hp, q, at, bt)
        out = y if lid == last else np.tanh(y)
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
    norms = np.linalg.norm(a.astype(np.float64), axis=1)
    if np.any(norms < NORM_EPS):
        raise DegenerateInputError("cannot normalize a zero-norm row")
    inv = (1.0 / norms).astype(nm.DTYPE)[:, None]
    return a * inv, inv


def _label_head(table: LabelEmbeddingTable) -> np.ndarray:
    """The table's rows at unit norm, transposed: [embed_dim, classes]."""
    return np.ascontiguousarray(_unit_rows(table.rows.data)[0].T)


def classify(embedding: Tensor, table: LabelEmbeddingTable,
             temperature: float = DEFAULT_TEMPERATURE) -> Tensor:
    """Cosine similarity against each label row, divided by temperature; one
    tape node whose backward returns the embedding's gradient."""
    return _cosine_head(embedding, _label_head(table), temperature)


def _cosine_head(embedding: Tensor, rows_t: np.ndarray, temperature: float) -> Tensor:
    """``classify`` against a prepared ``_label_head``."""
    single = embedding.data.ndim == 1
    e = embedding.data.reshape(1, -1) if single else embedding.data
    if e.shape[1] != rows_t.shape[0]:
        raise ShapeError(f"embedding dim {e.shape[1]} != table dim {rows_t.shape[0]}")
    unit, inv = _unit_rows(e)
    scale = float(1.0 / temperature)
    logits = (unit @ rows_t) * nm.DTYPE(scale)

    def backward(g: np.ndarray) -> np.ndarray:
        g_unit = (g.reshape(logits.shape) * scale) @ rows_t.T
        dot = np.sum(unit * g_unit, axis=1, keepdims=True)
        return ((g_unit - unit * dot) * inv).reshape(embedding.shape)

    return Tensor(logits.reshape(-1) if single else logits, backward)


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
    last = len(base.layers) - 1
    for lid, layer in enumerate(base.layers):
        w = layer.weight.data
        if deltas and lid in deltas:
            w = w + deltas[lid]
        h = h @ w.T + layer.bias.data
        if lid != last:
            h = np.tanh(h)
    return h


def cosine_logits_np(embeddings: np.ndarray, table: LabelEmbeddingTable,
                     temperature: float = DEFAULT_TEMPERATURE) -> np.ndarray:
    e = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    if np.any(norms < NORM_EPS):
        raise DegenerateInputError("zero-norm embedding in cosine head")
    rows = table.rows.data.astype(np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return ((e / norms) @ rows.T / temperature).astype(nm.DTYPE)


# ---------------------------------------------------------------------------
# single-task adapter training
# ---------------------------------------------------------------------------


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
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self) -> None:
        # a bad value here would train for every step, then write a plugin
        # that is not finite or fail mid-run
        nm.check_ranges(self, at_least_one=("epochs", "batch_size", "rank"),
                        positive=("learning_rate", "alpha", "temperature"),
                        non_negative=("momentum", "weight_decay"))


def train_plugin(base: BaseEncoder, table: LabelEmbeddingTable,
                 inputs: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, rng: np.random.Generator,
                 iterations: int | None = None) -> PluginModule:
    """Train adapters on one task; base and label rows stay frozen.

    ``iterations`` caps the number of SGD steps instead of running full
    epochs (used for distilled-data evaluation).
    """
    inputs = np.asarray(inputs, dtype=nm.DTYPE)
    labels = np.asarray(labels, dtype=np.int64)
    n = inputs.shape[0]
    if n == 0:
        raise InputError("cannot train on an empty dataset")
    if labels.shape != (n,):
        raise ShapeError("labels do not match inputs")
    plugin = PluginModule.fresh(base, config.rank, config.alpha, rng, config.dropout_p)
    params = plugin.parameters()
    state = nm.SgdState(config.learning_rate, config.momentum, config.weight_decay)
    head = _label_head(table)

    steps_done = 0
    budget = iterations if iterations is not None else config.epochs * max(1, -(-n // config.batch_size))
    while steps_done < budget:
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            if steps_done >= budget:
                break
            idx = order[start:start + config.batch_size]
            emb = encode(base, Tensor(inputs[idx]), plugin, training=True, rng=rng)
            logits = _cosine_head(emb, head, config.temperature)
            loss = nm.softmax_cross_entropy(logits, labels[idx])
            nm.sgd_step(params, emb.backward(logits.backward(loss.backward())), state)
            steps_done += 1
    return plugin
