"""Seeded synthetic classification tasks and dataset file I/O.

Three tasks, each defined by one ``TOY_TASKS`` entry, mirror the class
structure of the target benchmark family: a grouped 2-class task (B-toy, 60
slide-like groups of 8), a 3-class task (L-toy, 900 items), and a 2-class
task (M-toy, 600 items). Inputs are 16x16 oriented gratings with per-class
frequency/orientation signatures, flattened to 256-dim float32 rows.
Patterns are procedural rather than blobs so flips and shifts remain
meaningful transforms.

Draw order. Each task has its own seeded generator, and its items are
drawn class by class, each item from one stretch of the standard-normal
stream: its theta, frequency and phase jitters, then its 256 noise values
in row-major pixel order. A B-toy group first draws its base phase, then
its 8 items. Items are built in blocks of consecutive draws, so the block
size never changes a byte; changing this order changes every dataset.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import FormatError, InputError

INPUT_SIDE = 16
INPUT_SHAPE = (INPUT_SIDE, INPUT_SIDE)

DATASET_MAGIC = b"FGD1"
DATASET_VERSION = 1


@dataclass
class TaskSpec:
    name: str
    labels: list[str]
    input_shape: tuple[int, int] = INPUT_SHAPE
    grouped: bool = False

    @property
    def num_classes(self) -> int:
        return len(self.labels)

    @property
    def flat_dim(self) -> int:
        return int(np.prod(self.input_shape))

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": list(self.labels),
                "input_shape": list(self.input_shape), "grouped": self.grouped}

    @classmethod
    def from_dict(cls, d) -> "TaskSpec":
        d = nm.json_fields(d, "task spec", {"name": str, "labels": list, "input_shape": list,
                                            "grouped": bool}, FormatError)
        if not all(isinstance(label, str) for label in d["labels"]):
            raise FormatError(f"task spec {d['name']!r} has a label that is not text")
        shape = d["input_shape"]  # the dataset format stores two uint32s
        if len(shape) != 2 or not all(type(n) is int and 0 < n < 2**32 for n in shape):
            raise FormatError(f"task spec {d['name']!r} needs input_shape as two positive "
                              f"integers")
        return cls(d["name"], list(d["labels"]), tuple(d["input_shape"]), d["grouped"])


@dataclass(eq=False)  # ``==`` is identity, so it never compares arrays
class LabeledDataset:
    inputs: np.ndarray  # [n, flat_dim] float32
    labels: np.ndarray  # [n] int64
    group_ids: np.ndarray | None = None  # [n] int64
    split: str = "train"

    def __post_init__(self) -> None:
        self.inputs = np.ascontiguousarray(self.inputs, dtype=nm.DTYPE)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InputError("inputs and labels lengths differ")
        if self.group_ids is not None:
            self.group_ids = np.asarray(self.group_ids, dtype=np.int64)
            if self.group_ids.shape != self.labels.shape:
                raise InputError("group_ids length differs from labels")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def class_indices(self, num_classes: int) -> list[np.ndarray]:
        return [np.flatnonzero(self.labels == c) for c in range(num_classes)]


# pixel row and column indices of a grating, shared by every item
_YS, _XS = np.meshgrid(np.arange(INPUT_SIDE), np.arange(INPUT_SIDE), indexing="ij")

# an item's standard-normal draws: theta, frequency and phase jitters, then its noise
_DRAWS = 3 + INPUT_SIDE * INPUT_SIDE
# at most this many items per block, so each float64 temporary stays near 64 KB
_BLOCK_ITEMS = 32


@dataclass
class _ClassPattern:
    theta_deg: float
    freq: float
    phase: float
    theta_jitter_deg: float = 4.0
    freq_jitter: float = 0.1
    phase_jitter: float = 0.3


@dataclass(frozen=True)
class ToyTask:
    """One seeded toy task: ``groups_per_class * items_per_group`` items per
    class. With ``group_phase_std`` the task is grouped: each group draws a
    base phase around the class phase, and its split keeps groups whole."""

    labels: tuple[str, ...]
    patterns: tuple[_ClassPattern, ...]  # one per label
    noise_std: float
    groups_per_class: int
    items_per_group: int = 1
    group_phase_std: float | None = None


# Per-class signatures. Phases are class-locked so the tasks stay linearly
# separable in pixel space; difficulty comes mostly from pixel noise rather
# than pattern jitter, which keeps small distilled sets informative while a
# tuned adapter still lands below 1.0 on held-out items.
TOY_TASKS = {
    "B-toy": ToyTask(("coarse grating", "fine grating"),
                     (_ClassPattern(30.0, 1.6, 0.4, phase_jitter=0.25),
                      _ClassPattern(30.0, 3.2, 2.1, phase_jitter=0.25)),
                     noise_std=2.0, groups_per_class=30, items_per_group=8,
                     group_phase_std=0.25),
    "L-toy": ToyTask(("horizontal grating", "diagonal grating", "vertical grating"),
                     (_ClassPattern(0.0, 3.0, 0.9), _ClassPattern(45.0, 3.0, 2.4),
                      _ClassPattern(90.0, 3.0, 4.0)),
                     noise_std=1.5, groups_per_class=300),
    "M-toy": ToyTask(("smooth texture", "speckled texture"),
                     (_ClassPattern(120.0, 1.2, 1.3), _ClassPattern(60.0, 5.0, 3.0)),
                     noise_std=2.2, groups_per_class=300),
}


def _gratings(pattern: _ClassPattern, z: np.ndarray, phase: float | np.ndarray,
              noise_std: float) -> np.ndarray:
    """The flattened float32 rows of the items whose draws are the rows of ``z``.

    Each row of ``z`` holds one item's ``_DRAWS`` standard normals; ``phase``
    is the class phase or one base phase per item. ``Generator.normal(0.0, s)``
    returns ``0.0 + s * z``, so the operations below, in this order, give each
    item the bits it gets when drawn and built on its own.
    """
    theta = np.deg2rad(pattern.theta_deg + (0.0 + pattern.theta_jitter_deg * z[:, 0]))
    freq = pattern.freq + (0.0 + pattern.freq_jitter * z[:, 1])
    phase = phase + (0.0 + pattern.phase_jitter * z[:, 2])
    cos, sin = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
    u = (_XS * cos + _YS * sin) / INPUT_SIDE
    img = np.sin((2.0 * np.pi * freq)[:, None, None] * u + phase[:, None, None])
    img += 0.0 + noise_std * z[:, 3:].reshape(-1, INPUT_SIDE, INPUT_SIDE)
    return img.astype(nm.DTYPE).reshape(len(z), -1)


def _gen_class(rng: np.random.Generator, pattern: _ClassPattern, groups: int,
               per_group: int, noise_std: float,
               group_phase_std: float | None = None) -> np.ndarray:
    """``groups * per_group`` rows of one class, a block of whole groups per draw.

    With ``group_phase_std`` each group first draws a base phase around the
    class phase; without it every item uses the class phase.
    """
    lead = 0 if group_phase_std is None else 1
    per_block = max(1, _BLOCK_ITEMS // per_group)
    rows = []
    for start in range(0, groups, per_block):
        z = rng.standard_normal((min(per_block, groups - start), lead + per_group * _DRAWS))
        phase = pattern.phase
        if lead:
            phase = np.repeat(pattern.phase + (0.0 + group_phase_std * z[:, 0]), per_group)
        rows.append(_gratings(pattern, z[:, lead:].reshape(-1, _DRAWS), phase, noise_std))
    return np.concatenate(rows)


def split_by_group(data: LabeledDataset, train_fraction: float,
                   rng: np.random.Generator) -> tuple[LabeledDataset, LabeledDataset]:
    """Partition whole groups so no group spans both splits."""
    if data.group_ids is None:
        raise InputError("split_by_group requires group_ids")
    groups = np.unique(data.group_ids)
    if groups.size == 1:
        warnings.warn("single-group dataset: the whole set lands in one split")
    order = rng.permutation(groups.size)
    n_train = int(round(groups.size * train_fraction))
    mask = np.isin(data.group_ids, groups[order[:n_train]])
    make = lambda m, tag: LabeledDataset(data.inputs[m], data.labels[m],
                                         data.group_ids[m], split=tag)
    return make(mask, "train"), make(~mask, "test")


def _split_items(data: LabeledDataset, train_fraction: float,
                 rng: np.random.Generator) -> tuple[LabeledDataset, LabeledDataset]:
    n = len(data)
    order = rng.permutation(n)
    n_train = int(round(n * train_fraction))
    tr, te = order[:n_train], order[n_train:]
    make = lambda idx, tag: LabeledDataset(data.inputs[idx], data.labels[idx], None, tag)
    return make(tr, "train"), make(te, "test")


def generate_tasks(seed: int) -> list[tuple[TaskSpec, LabeledDataset, LabeledDataset]]:
    """The ``TOY_TASKS`` as (spec, train, test) triples, 70% of each task's
    items (or groups) in train."""
    out = []
    for name, task in TOY_TASKS.items():
        grouped = task.group_phase_std is not None
        rng = nm.make_rng(nm.derive_seed("task", name, seed))
        classes = len(task.patterns)
        labels = np.repeat(np.arange(classes), task.groups_per_class * task.items_per_group)
        groups = (np.repeat(np.arange(classes * task.groups_per_class), task.items_per_group)
                  if grouped else None)
        # the class blocks are freed once joined, not kept while the next task draws
        data = LabeledDataset(np.concatenate([
            _gen_class(rng, pattern, task.groups_per_class, task.items_per_group,
                       task.noise_std, task.group_phase_std) for pattern in task.patterns]),
            labels, groups, split="all")
        split = split_by_group if grouped else _split_items
        train, test = split(data, 0.7, nm.make_rng(nm.derive_seed("split", name, seed)))
        out.append((TaskSpec(name, list(task.labels), grouped=grouped), train, test))
    return out


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def dataset_to_bytes(spec: TaskSpec, data: LabeledDataset) -> bytes:
    flags = 1 if data.group_ids is not None else 0
    out = [DATASET_MAGIC, struct.pack("<BB", DATASET_VERSION, flags)]
    out.append(pack_str(spec.name))
    out.append(struct.pack("<I", spec.num_classes))
    for label in spec.labels:
        out.append(pack_str(label))
    out.append(struct.pack("<II", *spec.input_shape))
    out.append(pack_str(data.split))
    out.append(struct.pack("<I", len(data)))
    out.append(data.labels.astype("<i8").tobytes())
    if data.group_ids is not None:
        out.append(data.group_ids.astype("<i8").tobytes())
    out.append(nm.tensor_to_bytes(data.inputs))
    return b"".join(out)


def dataset_from_bytes(buf: bytes, artifact: str = "dataset") -> tuple[TaskSpec, LabeledDataset]:
    """The task and rows in ``buf``; a bad file is ``FormatError`` naming ``artifact``."""
    r = nm.Reader(buf, artifact)
    r.header(DATASET_MAGIC, DATASET_VERSION)
    (flags,) = r.unpack("<B")
    name = r.str()
    (num_classes,) = r.unpack("<I")
    labels = [r.str() for _ in range(num_classes)]
    shape = r.unpack("<II")
    split = r.str()
    (n,) = r.unpack("<I")
    y = r.array("<i8", n)
    groups = r.array("<i8", n) if flags & 1 else None
    inputs = r.tensor(2)
    r.end()
    spec = TaskSpec(name, labels, shape, grouped=groups is not None)
    if inputs.shape != (n, spec.flat_dim):
        raise r.error(f"inputs have shape {inputs.shape}, expected {(n, spec.flat_dim)}")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise r.error(f"labels must lie in [0, {num_classes})")
    if not np.isfinite(inputs).all():
        raise r.error("inputs must be finite")
    return spec, LabeledDataset(inputs, y, groups, split)


def save_dataset(path, spec: TaskSpec, data: LabeledDataset) -> None:
    nm.write_file(path, dataset_to_bytes(spec, data))


def load_dataset(path) -> tuple[TaskSpec, LabeledDataset]:
    with open(path, "rb") as fh:
        return dataset_from_bytes(fh.read(), str(path))
