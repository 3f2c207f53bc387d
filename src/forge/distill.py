"""Distribution-matching dataset distillation with siamese augmentation.

Synthetic per-class inputs are optimized so their feature means match the
per-class feature means of real minibatches under a freshly re-initialized
adapter each step. The same sampled transform parameters are applied to the
real and synthetic batch of a step, and every transform is differentiable
in the input values, so gradients reach the synthetic pixels through the
augmentation and the feature extractor.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import evaluation, model as mdl
from . import numerics as nm
from .datasets import LabeledDataset, TaskSpec, pack_str, unpack_str
from .errors import FormatError, InputError, ParameterError, ShapeError
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule, TrainConfig
from .numerics import Tensor

DISTILLED_MAGIC = b"FGS1"
DISTILLED_VERSION = 1


@dataclass
class DsaParams:
    """Transform parameters shared by the real/synthetic batch of one step."""

    flip: bool = False
    shift: tuple[int, int] = (0, 0)
    scale: float = 1.0
    noise_seed: int = 0
    noise_std: float = 0.0

    @classmethod
    def identity(cls) -> "DsaParams":
        return cls()

    @classmethod
    def sample(cls, rng: np.random.Generator, max_shift: int = 2,
               scale_range: tuple[float, float] = (0.8, 1.2),
               noise_std: float = 0.01) -> "DsaParams":
        return cls(
            flip=bool(rng.random() < 0.5),
            shift=(int(rng.integers(-max_shift, max_shift + 1)),
                   int(rng.integers(-max_shift, max_shift + 1))),
            scale=float(rng.uniform(*scale_range)),
            noise_seed=int(rng.integers(0, 2 ** 31)),
            noise_std=noise_std,
        )

    def noise(self, rows: int, shape: tuple[int, int]) -> np.ndarray:
        """The [rows, h, w] float32 noise of ``noise_seed``. numpy's normal
        stream is prefix-stable, so its first n rows are the noise of any
        n-row batch augmented with these parameters."""
        rng = nm.make_rng(self.noise_seed)
        return rng.normal(0.0, self.noise_std, size=(rows, *shape)).astype(nm.DTYPE)


def dsa_augment(batch: Tensor, params: DsaParams,
                noise: np.ndarray | None = None) -> Tensor:
    """Apply flip, shift, scale and noise, in that order, to [n, h, w]; one
    tape node whose backward returns the batch's gradient through the
    adjoint of the pixel transforms. The identity transform returns ``batch``.

    ``noise`` is a ``params.noise(rows, (h, w))`` draw with rows >= n, of
    which the first n rows are added; without it the noise is drawn here.
    Both give the same bytes, so a caller augmenting several batches with
    one ``params`` draws once for the longest batch.
    """
    if batch.data.ndim != 3:
        raise ShapeError(f"dsa_augment expects [n, h, w], got {batch.shape}")
    n, h, w = batch.shape
    if noise is not None and (noise.ndim != 3 or len(noise) < n
                              or noise.shape[1:] != (h, w)):
        raise ShapeError(f"noise {noise.shape} does not cover a batch of {batch.shape}")
    dy, dx = params.shift
    dst = (slice(None), slice(max(dy, 0), h + min(dy, 0)), slice(max(dx, 0), w + min(dx, 0)))
    src = (slice(None), slice(max(-dy, 0), h + min(-dy, 0)),
           slice(max(-dx, 0), w + min(-dx, 0)))
    scale = float(params.scale)
    out = batch.data
    if params.flip:
        out = np.ascontiguousarray(out[..., ::-1])
    if params.shift != (0, 0):  # zero padding at the edges
        shifted = np.zeros_like(out)
        shifted[dst] = out[src]
        out = shifted
    if scale != 1.0:
        out = out * nm.DTYPE(scale)
    if params.noise_std > 0.0:
        if noise is None:
            noise = params.noise(n, (h, w))
        out = out + noise[:n]
    if out is batch.data:
        return batch

    def backward(g: np.ndarray) -> np.ndarray:
        if scale != 1.0:
            g = g * scale
        if params.shift != (0, 0):
            full = np.zeros_like(g)
            full[src] = g[dst]
            g = full
        return g[..., ::-1] if params.flip else g

    return Tensor(out, backward)


def dm_loss(real_features: Mapping[int, np.ndarray],
            syn_features: Mapping[int, Tensor]) -> Tensor:
    """Sum over classes of || mean real features - mean synthetic features ||^2,
    squares summed in float64; one tape node whose backward returns the
    gradients of the synthetic features, in sorted class order. The real
    features are constants."""
    if set(real_features) != set(syn_features):
        raise InputError("real and synthetic batches cover different classes")
    if not real_features:
        raise InputError("no classes to match")
    classes = sorted(real_features)
    syn_shapes = [syn_features[cls].shape for cls in classes]
    diffs = [np.asarray(real_features[cls]).mean(axis=0)
             - syn_features[cls].data.mean(axis=0) for cls in classes]
    value = float(sum(float(np.sum(np.square(d, dtype=np.float64))) for d in diffs))

    def backward(g: np.ndarray) -> list[np.ndarray]:
        factor = 2.0 * float(g)
        return [np.broadcast_to(-(factor * d) / shape[0], shape)
                for shape, d in zip(syn_shapes, diffs)]

    out = Tensor(np.array(value, dtype=nm.DTYPE), backward)
    out._value = value
    return out


@dataclass
class DistillConfig:
    """Distillation schedule; defaults follow the reference protocol."""

    iterations: int = 5000
    ipc: int = 20
    syn_lr: float = 1.0
    syn_lr_final: float = 0.1
    dsa_enabled: bool = True
    init_from_real: bool = False
    real_batch_per_class: int = 64
    max_shift: int = 2
    scale_range: tuple[float, float] = (0.8, 1.2)
    noise_std: float = 0.01
    rank: int = 16
    alpha: float = 16.0
    inner_lr: float = 0.01
    inner_momentum: float = 0.9
    inner_weight_decay: float = 5e-4
    temperature: float = mdl.DEFAULT_TEMPERATURE
    eval_iterations: int = 1000
    eval_batch_size: int = 64

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ParameterError("distillation needs at least one iteration")
        if self.ipc < 1:
            raise ParameterError("ipc must be >= 1")


@dataclass
class DistilledDataset:
    """Synthetic stand-in set: ipc items per class, task input shape."""

    task_name: str
    num_classes: int
    ipc: int
    input_shape: tuple[int, int]
    inputs: np.ndarray  # [num_classes * ipc, h*w] float32, class-major
    labels: np.ndarray  # [num_classes * ipc] int64

    def __post_init__(self) -> None:
        self.inputs = np.ascontiguousarray(self.inputs, dtype=nm.DTYPE)
        self.labels = np.asarray(self.labels, dtype=np.int64)
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
        out.append(nm.tensor_to_bytes(Tensor(self.inputs)))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "DistilledDataset":
        if buf[:4] != DISTILLED_MAGIC:
            raise FormatError("bad distilled-set magic")
        if len(buf) < 5:
            raise FormatError("truncated distilled-set header")
        (version,) = struct.unpack_from("<B", buf, 4)
        if version != DISTILLED_VERSION:
            raise FormatError(f"unsupported distilled-set version {version}")
        offset = 5
        name, offset = unpack_str(buf, offset)
        if len(buf) < offset + 20:
            raise FormatError("truncated distilled-set counts")
        num_classes, ipc, n = struct.unpack_from("<III", buf, offset)
        offset += 12
        shape = struct.unpack_from("<II", buf, offset)
        offset += 8
        if len(buf) < offset + 8 * n:
            raise FormatError("truncated distilled labels")
        labels = np.frombuffer(buf, dtype="<i8", count=n, offset=offset).copy()
        offset += 8 * n
        inputs, offset = nm.tensor_from_bytes(buf, offset)
        if offset != len(buf):
            raise FormatError("trailing bytes after distilled payload")
        return cls(name, num_classes, ipc, tuple(shape), inputs.data, labels)

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
    adapters = {}
    for lid in range(len(base.layers)):
        d, k = base.layer_dims(lid)
        a = rng.normal(0.0, 1.0 / np.sqrt(k), size=(rank, k)).astype(nm.DTYPE)
        b = rng.normal(0.0, 1.0 / np.sqrt(rank), size=(d, rank)).astype(nm.DTYPE)
        adapters[lid] = mdl.LoraAdapter(lid, Tensor(a), Tensor(b), rank, float(alpha))
    return PluginModule(adapters)


def distill(spec: TaskSpec, data: LabeledDataset, base: BaseEncoder,
            config: DistillConfig, rng: np.random.Generator) -> DistilledDataset:
    """Synthesize ipc items per class by distribution matching.

    Each step draws a fresh random adapter as the feature extractor, samples
    a per-class real minibatch and the synthetic set, applies one shared
    augmentation to both sides, and updates the synthetic inputs on the
    matching loss. The adapter is never trained.
    """
    num_classes = spec.num_classes
    side = spec.input_shape
    flat = spec.flat_dim
    class_idx = data.class_indices(num_classes)
    for cls, idx in enumerate(class_idx):
        if idx.size < 1:
            raise InputError(f"class {cls} has no examples to distill from")

    m = num_classes * config.ipc
    if config.init_from_real:
        rows = []
        for idx in class_idx:
            take = rng.choice(idx, size=config.ipc, replace=idx.size < config.ipc)
            rows.append(data.inputs[take])
        syn0 = np.concatenate(rows)
    else:
        syn0 = rng.normal(0.0, 1.0, size=(m, flat)).astype(nm.DTYPE)
    # one leaf per class: the synthetic-set SGD has no momentum, so updating
    # the classes separately is elementwise the same as updating one array
    syn = [Tensor(block.reshape(config.ipc, *side)) for block in np.split(syn0, num_classes)]
    syn_labels = np.repeat(np.arange(num_classes, dtype=np.int64), config.ipc)

    syn_state = nm.SgdState(learning_rate=config.syn_lr)
    # one noise draw per step covers the longest batch, real or synthetic
    noise_rows = max(config.ipc, *(min(config.real_batch_per_class, idx.size)
                                   for idx in class_idx))

    for step in range(config.iterations):
        plugin = random_feature_plugin(base, config.rank, config.alpha, rng)
        step_params = noise = None
        if config.dsa_enabled:
            step_params = DsaParams.sample(rng, config.max_shift,
                                           config.scale_range, config.noise_std)
            if step_params.noise_std > 0.0:
                noise = step_params.noise(noise_rows, side)

        real_features, syn_features, syn_aug = {}, {}, []
        for cls in range(num_classes):
            idx = class_idx[cls]
            take = rng.choice(idx, size=min(config.real_batch_per_class, idx.size),
                              replace=False)
            real = Tensor(data.inputs[take].reshape(-1, *side))
            syn_c = syn[cls]
            if step_params is not None:
                real = dsa_augment(real, step_params, noise)
                syn_c = dsa_augment(syn_c, step_params, noise)
            real_features[cls] = mdl.encode(base, real, plugin).data
            syn_aug.append(syn_c)
            syn_features[cls] = mdl.encode(base, syn_c, plugin)

        # one chain per class's leaf: dm_loss -> encode -> dsa_augment
        loss = dm_loss(real_features, syn_features)
        grads = [aug.backward(feat.backward(g)) for aug, feat, g
                 in zip(syn_aug, syn_features.values(), loss.backward())]
        syn_state.learning_rate = _cosine_lr(step, config.iterations,
                                             config.syn_lr, config.syn_lr_final)
        nm.sgd_step(syn, grads, syn_state)

    return DistilledDataset(spec.name, num_classes, config.ipc, tuple(side),
                            np.concatenate([t.data for t in syn]).reshape(m, flat),
                            syn_labels)


def eval_distilled(distilled: DistilledDataset, base: BaseEncoder, spec: TaskSpec,
                   test: LabeledDataset, config: DistillConfig,
                   rng: np.random.Generator) -> dict[str, float]:
    """Train a fresh adapter on the distilled set only, then score the test set."""
    if distilled.inputs.shape[1] != spec.flat_dim:
        raise InputError("distilled set does not match the task input shape")
    table = LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
    train_cfg = TrainConfig(
        epochs=1, learning_rate=config.inner_lr, momentum=config.inner_momentum,
        weight_decay=config.inner_weight_decay,
        batch_size=min(config.eval_batch_size, len(distilled.inputs)),
        rank=config.rank, alpha=config.alpha, dropout_p=0.0,
        temperature=config.temperature)
    plugin = mdl.train_plugin(base, table, distilled.inputs, distilled.labels,
                              train_cfg, rng, iterations=config.eval_iterations)
    acc, auc_value = evaluation.evaluate_deltas(base, plugin.layer_deltas(), table,
                                                test, config.temperature)
    return {"acc": acc, "auc": auc_value}
