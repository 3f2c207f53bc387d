"""Distribution-matching dataset distillation with siamese augmentation.

Synthetic per-class inputs are optimized so their feature means match the
per-class feature means of real minibatches under a freshly re-initialized
adapter each step. A step augments the real rows and the synthetic set, each
one batch of class-major blocks, with one sampled transform and encodes each
in one call. Every transform is differentiable in the input values, so one
backward chain per step reaches the synthetic pixels.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import evaluation, model as mdl
from . import numerics as nm
from .datasets import LabeledDataset, TaskSpec, pack_str
from .errors import InputError, ShapeError
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule, TrainConfig
from .numerics import Tensor

DISTILLED_MAGIC = b"FGS1"
DISTILLED_VERSION = 1

# the augmentation each step samples, and the batch size of eval_distilled
DSA_MAX_SHIFT = 2
DSA_SCALE_RANGE = (0.8, 1.2)
DSA_NOISE_STD = 0.01
EVAL_BATCH_SIZE = 64


@dataclass
class DsaParams:
    """Transform parameters shared by the real/synthetic batch of one step."""

    flip: bool = False
    shift: tuple[int, int] = (0, 0)
    scale: float = 1.0
    noise_seed: int = 0
    noise_std: float = 0.0

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "DsaParams":
        return cls(
            flip=bool(rng.random() < 0.5),
            shift=(int(rng.integers(-DSA_MAX_SHIFT, DSA_MAX_SHIFT + 1)),
                   int(rng.integers(-DSA_MAX_SHIFT, DSA_MAX_SHIFT + 1))),
            scale=float(rng.uniform(*DSA_SCALE_RANGE)),
            noise_seed=int(rng.integers(0, 2 ** 31)),
            noise_std=DSA_NOISE_STD,
        )

    def noise(self, rows: int, shape: tuple[int, int]) -> np.ndarray:
        """The [rows, h, w] float32 noise of ``noise_seed``. numpy's normal
        stream is prefix-stable, so its first n rows are the noise of any
        n-row batch augmented with these parameters."""
        rng = nm.make_rng(self.noise_seed)
        return rng.normal(0.0, self.noise_std, size=(rows, *shape)).astype(nm.DTYPE)


def dsa_augment(batch: Tensor, params: DsaParams, noise: np.ndarray) -> Tensor:
    """Apply flip, shift, scale and noise, in that order, to [n, h, w]; one
    tape node whose backward returns the batch's gradient through the
    adjoint of the pixel transforms.

    ``noise`` holds at least n rows of ``params.noise``, of which the first n
    are added. A longer draw's first n rows are the bytes of an n-row draw,
    so a caller augmenting several batches with one ``params`` draws once and
    passes rows of that draw.
    """
    if batch.data.ndim != 3:
        raise ShapeError(f"dsa_augment expects [n, h, w], got {batch.shape}")
    n, h, w = batch.shape
    if noise.ndim != 3 or len(noise) < n or noise.shape[1:] != (h, w):
        raise ShapeError(f"noise {noise.shape} does not cover a batch of {batch.shape}")
    dy, dx = params.shift
    dst = (slice(None), slice(max(dy, 0), h + min(dy, 0)), slice(max(dx, 0), w + min(dx, 0)))
    src = (slice(None), slice(max(-dy, 0), h + min(-dy, 0)),
           slice(max(-dx, 0), w + min(-dx, 0)))
    scale = float(params.scale)
    out = batch.data[..., ::-1] if params.flip else batch.data
    if params.shift != (0, 0):  # zero padding at the edges
        shifted = np.zeros_like(batch.data)
        shifted[dst] = out[src]
        out = shifted
    else:
        out = out.copy()
    # out is a fresh array here, so scale and noise go in place
    out *= nm.DTYPE(scale)
    out += noise[:n]

    def backward(g: np.ndarray) -> np.ndarray:
        g = g * scale
        if params.shift != (0, 0):
            full = np.zeros_like(g)
            full[src] = g[dst]
            g = full
        return g[..., ::-1] if params.flip else g

    return Tensor(out, backward)


def _class_means(features, starts) -> tuple[np.ndarray, np.ndarray]:
    """Each class block's mean row, with the bits of its ``mean(axis=0)``, and
    its row count; block c of ``features`` starts at row ``starts[c]``."""
    features, starts = np.asarray(features), np.asarray(starts)
    counts = np.append(starts[1:], len(features)) - starts
    if starts.ndim != 1 or not starts.size or starts[0] != 0 or counts.min() < 1:
        raise InputError(f"class blocks at {starts.tolist()} do not split {len(features)} rows")
    # zero rows pad each block to the longest, and adding 0 keeps a sum's bits
    blocks, width = len(counts), counts.max()
    rows = np.arange(len(features)) + np.repeat(np.arange(blocks) * width - starts, counts)
    padded = np.zeros((blocks * width, features.shape[1]), nm.DTYPE)
    padded[rows] = features
    return padded.reshape(blocks, width, -1).sum(axis=1) / counts[:, None].astype(nm.DTYPE), counts


def dm_loss(real_features: np.ndarray, real_starts, syn_features: Tensor,
            syn_starts) -> np.ndarray:
    """The gradient with respect to ``syn_features`` of the matching loss, the
    sum over classes of || mean real features - mean synthetic features ||^2:
    each synthetic row of class c gets -2 (real mean - synthetic mean) / n_c.
    Each side holds its classes as consecutive row blocks, class c's starting
    at row ``*_starts[c]``; the real features are constants."""
    real_means, _ = _class_means(real_features, real_starts)
    syn_means, counts = _class_means(syn_features.data, syn_starts)
    if len(real_means) != len(syn_means):
        raise InputError("real and synthetic features hold different numbers of classes")
    diffs = real_means - syn_means
    return np.repeat(-(2.0 * diffs) / counts[:, None].astype(nm.DTYPE), counts, axis=0)


@dataclass
class DistillConfig:
    """Distillation schedule; defaults follow the reference protocol. ``rank``
    and ``alpha`` shape the random feature extractor; ``eval_distilled``
    trains and scores with the caller's ``TrainConfig``."""

    iterations: int = 5000
    ipc: int = 20
    syn_lr: float = 1.0
    syn_lr_final: float = 0.1
    dsa_enabled: bool = True
    init_from_real: bool = False
    real_batch_per_class: int = 64
    rank: int = TrainConfig.rank
    alpha: float = TrainConfig.alpha
    eval_iterations: int = 1000

    def __post_init__(self) -> None:
        # refused before the first step, not after every iteration has run
        nm.check_ranges(self, at_least_one=("iterations", "ipc", "real_batch_per_class", "rank",
                                            "eval_iterations"),
                        positive=("syn_lr", "syn_lr_final", "alpha"))


@dataclass(eq=False)
class DistilledDataset:
    """Synthetic stand-in set: ipc items per class, task input shape; ``==``
    is identity, so it never compares arrays."""

    task_name: str
    num_classes: int
    ipc: int
    input_shape: tuple[int, int]
    inputs: np.ndarray  # [num_classes * ipc, h*w] float32, class-major
    labels: np.ndarray  # [num_classes * ipc] int64

    def __post_init__(self) -> None:
        self.inputs = np.ascontiguousarray(self.inputs, dtype=nm.DTYPE)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.check()

    def check(self) -> None:
        """``InputError`` unless the fields still describe a well-formed set."""
        if self.ipc < 1:  # a set with no rows could never guide a merge round
            raise InputError("a distilled set needs at least one item per class")
        if len(self.inputs) != self.num_classes * self.ipc:
            raise InputError("distilled set size must be ipc * classes")
        if self.inputs.shape[1] != int(np.prod(self.input_shape)):
            raise InputError("distilled inputs do not match the task shape")
        if not np.all(np.isfinite(self.inputs)):
            raise InputError("distilled inputs must be finite")
        if self.labels.shape != (len(self.inputs),):
            raise InputError("one label per distilled input required")
        if self.labels.size and not (0 <= self.labels.min() <= self.labels.max()
                                     < self.num_classes):
            raise InputError("distilled labels out of range")

    def to_bytes(self) -> bytes:
        out = [DISTILLED_MAGIC, struct.pack("<B", DISTILLED_VERSION)]
        out.append(pack_str(self.task_name))
        out.append(struct.pack("<III", self.num_classes, self.ipc, len(self.labels)))
        out.append(struct.pack("<II", *self.input_shape))
        out.append(self.labels.astype("<i8").tobytes())
        out.append(nm.tensor_to_bytes(self.inputs))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "DistilledDataset":
        r = nm.Reader(buf, "distilled set")
        r.header(DISTILLED_MAGIC, DISTILLED_VERSION)
        name = r.str()
        num_classes, ipc, n, h, w = r.unpack("<IIIII")
        labels = r.array("<i8", n)
        inputs = r.tensor(2)
        r.end()
        return cls(name, num_classes, ipc, (h, w), inputs, labels)

    def content_id(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def _cosine_lr(step: int, total: int, start: float, final: float) -> float:
    if total <= 1:
        return start
    t = step / (total - 1)
    return final + 0.5 * (start - final) * (1.0 + np.cos(np.pi * t))


def random_feature_plugin(base: BaseEncoder, rank: int, alpha: float,
                          rng: np.random.Generator) -> PluginModule:
    """Adapter with Gaussian A and B: a genuinely random feature extractor.

    Unlike the training init (B = 0, zero delta), both factors are drawn so
    the (alpha/r)*B@A delta has the same scale as the base weights, giving
    the matching loss a distribution of embedding spaces to average over.
    """
    return PluginModule.build(base, rank, alpha, lambda d, k: (  # A is drawn first
        rng.normal(0.0, 1.0 / np.sqrt(k), size=(rank, k)).astype(nm.DTYPE),
        rng.normal(0.0, 1.0 / np.sqrt(rank), size=(d, rank)).astype(nm.DTYPE)))


def distill(spec: TaskSpec, data: LabeledDataset, base: BaseEncoder,
            config: DistillConfig, rng: np.random.Generator) -> DistilledDataset:
    """Synthesize ipc items per class by distribution matching.

    Each step draws a fresh random adapter as the feature extractor and a
    real minibatch per class, applies one shared augmentation to the real
    rows and to the synthetic set, and updates the synthetic set on the
    matching loss. Each side is one batch of class-major blocks, augmented
    and encoded once, so a step runs one backward chain whatever the class
    count. The adapter is never trained.
    """
    num_classes, side = spec.num_classes, spec.input_shape
    class_idx = data.class_indices(num_classes)
    for cls, idx in enumerate(class_idx):
        if idx.size < 1:
            raise InputError(f"class {cls} has no examples to distill from")

    m = num_classes * config.ipc
    if config.init_from_real:
        syn0 = np.concatenate([data.inputs[rng.choice(idx, config.ipc, idx.size < config.ipc)]
                               for idx in class_idx])
    else:
        syn0 = rng.normal(0.0, 1.0, size=(m, spec.flat_dim)).astype(nm.DTYPE)
    syn = Tensor(syn0.reshape(m, *side))  # one leaf: class c holds rows c*ipc..
    syn_starts = np.arange(num_classes) * config.ipc
    real_sizes = [min(config.real_batch_per_class, idx.size) for idx in class_idx]
    real_starts = np.cumsum([0, *real_sizes[:-1]])
    # each block of either side adds the first rows of the step's one noise
    # draw, as it would augmented on its own
    noise_rows = max(config.ipc, *real_sizes)
    real_noise = np.concatenate([np.arange(n) for n in real_sizes])
    syn_noise = np.tile(np.arange(config.ipc), num_classes)
    syn_state = nm.SgdState(learning_rate=config.syn_lr)

    for step in range(config.iterations):
        plugin = random_feature_plugin(base, config.rank, config.alpha, rng)
        params = DsaParams.sample(rng) if config.dsa_enabled else None
        noise = None if params is None else params.noise(noise_rows, side)
        take = np.concatenate([rng.choice(idx, size=n, replace=False)
                               for idx, n in zip(class_idx, real_sizes)])
        real, syn_aug = Tensor(data.inputs[take].reshape(-1, *side)), syn
        if params is not None:
            real = dsa_augment(real, params, noise[real_noise])
            syn_aug = dsa_augment(syn, params, noise[syn_noise])
        real_features = mdl.encode(base, real, plugin).data
        syn_features = mdl.encode(base, syn_aug, plugin)
        # one chain for the one leaf: dm_loss's gradient -> encode -> dsa_augment
        grad = syn_aug.backward(syn_features.backward(
            dm_loss(real_features, real_starts, syn_features, syn_starts)))
        syn_state.learning_rate = _cosine_lr(step, config.iterations,
                                             config.syn_lr, config.syn_lr_final)
        nm.sgd_step([syn.data], [grad], syn_state)

    return DistilledDataset(spec.name, num_classes, config.ipc, tuple(side),
                            syn.data.reshape(m, spec.flat_dim),
                            np.repeat(np.arange(num_classes), config.ipc))


def eval_distilled(distilled: DistilledDataset, base: BaseEncoder, spec: TaskSpec,
                   test: LabeledDataset, config: DistillConfig,
                   rng: np.random.Generator,
                   train: TrainConfig | None = None) -> dict[str, float]:
    """Train a fresh adapter on the distilled set only for
    ``config.eval_iterations`` steps, with ``train``'s optimizer, adapter
    shape and temperature (``TrainConfig()`` if not given) and no dropout,
    then score the test set at that temperature."""
    if distilled.inputs.shape[1] != spec.flat_dim:
        raise InputError("distilled set does not match the task input shape")
    train = train or TrainConfig()
    table = LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
    train_cfg = replace(train, epochs=1, dropout_p=0.0,
                        batch_size=min(EVAL_BATCH_SIZE, len(distilled.inputs)))
    plugin = mdl.train_plugin(base, table, distilled.inputs, distilled.labels,
                              train_cfg, rng, iterations=config.eval_iterations)
    acc, auc_value = evaluation.evaluate_deltas(base, plugin.layer_deltas(), table,
                                                test, train.temperature)
    return {"acc": acc, "auc": auc_value}
