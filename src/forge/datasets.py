"""Seeded synthetic classification tasks and dataset file I/O.

Three tasks mirror the class structure of the target benchmark family:
a grouped 2-class task (B-toy, 60 slide-like groups of 8), a 3-class task
(L-toy, 900 items), and a 2-class task (M-toy, 600 items). Inputs are
16x16 oriented gratings with per-class frequency/orientation signatures,
flattened to 256-dim float32 rows. Patterns are procedural rather than
blobs so flips and shifts remain meaningful transforms.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import FormatError, InputError
from .numerics import Tensor

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


@dataclass
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


def _grating(rng: np.random.Generator, theta: float, freq: float,
             phase: float, noise_std: float) -> np.ndarray:
    """One 16x16 sinusoid grating at the given angle/frequency plus noise."""
    u = (_XS * np.cos(theta) + _YS * np.sin(theta)) / INPUT_SIDE
    img = np.sin(2.0 * np.pi * freq * u + phase)
    img += rng.normal(0.0, noise_std, size=img.shape)
    return img.astype(nm.DTYPE)


@dataclass
class _ClassPattern:
    theta_deg: float
    freq: float
    phase: float
    theta_jitter_deg: float = 4.0
    freq_jitter: float = 0.1
    phase_jitter: float = 0.3


# Per-class signatures. Phases are class-locked so the tasks stay linearly
# separable in pixel space; difficulty comes mostly from pixel noise rather
# than pattern jitter, which keeps small distilled sets informative while a
# tuned adapter still lands below 1.0 on held-out items.
_TASK_PATTERNS: dict[str, list[_ClassPattern]] = {
    "B-toy": [_ClassPattern(30.0, 1.6, 0.4, phase_jitter=0.25),
              _ClassPattern(30.0, 3.2, 2.1, phase_jitter=0.25)],
    "L-toy": [_ClassPattern(0.0, 3.0, 0.9), _ClassPattern(45.0, 3.0, 2.4),
              _ClassPattern(90.0, 3.0, 4.0)],
    "M-toy": [_ClassPattern(120.0, 1.2, 1.3), _ClassPattern(60.0, 5.0, 3.0)],
}

_NOISE_STD = {"B-toy": 2.0, "L-toy": 1.5, "M-toy": 2.2}

TASK_LABELS = {
    "B-toy": ["coarse grating", "fine grating"],
    "L-toy": ["horizontal grating", "diagonal grating", "vertical grating"],
    "M-toy": ["smooth texture", "speckled texture"],
}

# B-toy: 30 groups per class x 8 items; L-toy: 300 per class; M-toy: 300 per class.
_B_GROUPS_PER_CLASS = 30
_B_ITEMS_PER_GROUP = 8
_L_PER_CLASS = 300
_M_PER_CLASS = 300


def _gen_items(rng: np.random.Generator, pattern: _ClassPattern, count: int,
               noise_std: float, base_phase: float | None = None) -> np.ndarray:
    rows = np.empty((count, INPUT_SIDE * INPUT_SIDE), dtype=nm.DTYPE)
    for i in range(count):
        theta = np.deg2rad(pattern.theta_deg + rng.normal(0.0, pattern.theta_jitter_deg))
        freq = pattern.freq + rng.normal(0.0, pattern.freq_jitter)
        phase = pattern.phase if base_phase is None else base_phase
        phase = phase + rng.normal(0.0, pattern.phase_jitter)
        rows[i] = _grating(rng, theta, freq, phase, noise_std).reshape(-1)
    return rows


def _gen_grouped_task(seed: int) -> tuple[TaskSpec, LabeledDataset]:
    spec = TaskSpec("B-toy", TASK_LABELS["B-toy"], grouped=True)
    rng = nm.make_rng(nm.derive_seed("task", "B-toy", seed))
    patterns = _TASK_PATTERNS["B-toy"]
    inputs, labels, groups = [], [], []
    gid = 0
    for cls, pattern in enumerate(patterns):
        for _ in range(_B_GROUPS_PER_CLASS):
            base_phase = pattern.phase + rng.normal(0.0, 0.25)
            rows = _gen_items(rng, pattern, _B_ITEMS_PER_GROUP,
                              _NOISE_STD["B-toy"], base_phase)
            inputs.append(rows)
            labels.extend([cls] * _B_ITEMS_PER_GROUP)
            groups.extend([gid] * _B_ITEMS_PER_GROUP)
            gid += 1
    data = LabeledDataset(np.concatenate(inputs), np.array(labels),
                          np.array(groups), split="all")
    return spec, data


def _gen_flat_task(name: str, per_class: int, seed: int) -> tuple[TaskSpec, LabeledDataset]:
    spec = TaskSpec(name, TASK_LABELS[name])
    rng = nm.make_rng(nm.derive_seed("task", name, seed))
    inputs, labels = [], []
    for cls, pattern in enumerate(_TASK_PATTERNS[name]):
        inputs.append(_gen_items(rng, pattern, per_class, _NOISE_STD[name]))
        labels.extend([cls] * per_class)
    data = LabeledDataset(np.concatenate(inputs), np.array(labels), split="all")
    return spec, data


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
    train_groups = set(groups[order[:n_train]].tolist())
    mask = np.array([g in train_groups for g in data.group_ids])
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
    """The three seeded toy tasks as (spec, train, test) triples."""
    out = []
    spec_b, data_b = _gen_grouped_task(seed)
    rng_b = nm.make_rng(nm.derive_seed("split", "B-toy", seed))
    train_b, test_b = split_by_group(data_b, 0.7, rng_b)
    out.append((spec_b, train_b, test_b))
    for name, per_class in (("L-toy", _L_PER_CLASS), ("M-toy", _M_PER_CLASS)):
        spec, data = _gen_flat_task(name, per_class, seed)
        rng = nm.make_rng(nm.derive_seed("split", name, seed))
        train, test = _split_items(data, 0.7, rng)
        out.append((spec, train, test))
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
    out.append(nm.tensor_to_bytes(Tensor(data.inputs)))
    return b"".join(out)


def dataset_from_bytes(buf: bytes) -> tuple[TaskSpec, LabeledDataset]:
    r = nm.Reader(buf, "dataset")
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
    return spec, LabeledDataset(inputs, y, groups, split)


def save_dataset(path, spec: TaskSpec, data: LabeledDataset) -> None:
    with open(path, "wb") as fh:
        fh.write(dataset_to_bytes(spec, data))


def load_dataset(path) -> tuple[TaskSpec, LabeledDataset]:
    with open(path, "rb") as fh:
        return dataset_from_bytes(fh.read())
