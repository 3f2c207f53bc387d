"""Dense float32 tensors, the gradient hand-off that chains coarse nodes, the
one softmax and the cross-entropy gradient, SGD with momentum, the range
check of training and distillation settings, the wire format, the checked
reader of every JSON document forge reads, the staged write of every file
forge writes, and the one thread that numpy's bundled OpenBLAS runs on.

A node is one fused forward computation with its own analytic backward
(the encoder and the augmentation are built in their own modules as
``Tensor(data, backward)``). A node's backward takes the gradient of its
output and returns the gradients of its inputs; there is no graph and no
gradient state. A loss is no node: training's ``model._head_loss_grad`` and
distillation's ``distill.dm_loss`` return the gradient of their loss with
respect to the features, and the caller chains it through the nodes it built,
handing each result to ``Tensor.backward`` of the tensor it belongs to, and
passes the last result to ``sgd_step``.

A ``Tensor`` is only a node's output or an input handed to a node. The
model's state (encoder weights and biases, adapter factors, label rows) is
plain float32, C-ordered arrays: ``sgd_step`` updates them in place and
``tensor_to_bytes`` writes them.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParameterError, ShapeError

DTYPE = np.float32


# ---------------------------------------------------------------------------
# BLAS
# ---------------------------------------------------------------------------


def _one_thread_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles, as numpy loaded it, set to one
    thread; None where numpy's BLAS is not that OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            lib.scipy_openblas_set_num_threads64_(1)
        except (OSError, AttributeError):
            continue
        return lib
    return None


# on some kernels (Haswell's, Katmai's) the thread count changes the order of
# the float32 sums, and so every content id downstream: forge's BLAS runs on
# one thread, whatever OPENBLAS_NUM_THREADS says. Another BLAS is left as it is
_OPENBLAS = _one_thread_openblas()


def bundled_openblas() -> tuple[str, int]:
    """The core name and thread count of numpy's bundled OpenBLAS, or
    ("unknown", 0) where there is none."""
    if _OPENBLAS is None:
        return "unknown", 0
    return (_OPENBLAS.scipy_openblas_get_corename64_().decode(),
            _OPENBLAS.scipy_openblas_get_num_threads64_())


class Tensor:
    """Dense float32 array plus, on a node's output, that node's backward."""

    __slots__ = ("data", "_backward")

    def __init__(self, data,
                 backward: Callable[[np.ndarray], np.ndarray | list[np.ndarray]] | None = None):
        self.data = np.asarray(data, dtype=DTYPE, order="C")
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self, g: np.ndarray) -> np.ndarray | list[np.ndarray]:
        """Hand ``g``, the gradient of a loss with respect to this tensor, to
        the backward of the node that made the tensor, and return what it
        returns: the gradients of that node's inputs. A leaf was made by no
        node, so it returns ``g`` itself.
        """
        # C order: an F-ordered gradient (np.broadcast_to's, say) would send
        # the node's matmuls down another BLAS path and change float32 bits.
        # A C-ordered float32 gradient is passed on as it is: no node's
        # backward writes into the gradient it is given
        g = np.asarray(g, dtype=DTYPE, order="C").reshape(self.data.shape)
        return g if self._backward is None else self._backward(g)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of [n,c] logits, float32: ``exp(z - lse)`` of their float64
    copy ``z``, ``lse`` being each row's log-sum-exp (plain numpy, no
    gradient)."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.add.reduce(np.exp(z - zmax), axis=1))
    return np.exp(z - lse[:, None]).astype(DTYPE)


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The logits' gradient of the mean cross-entropy at the checked int64
    ``labels``, (softmax - onehot)/n; overwrites the float32 softmax
    ``probs``."""
    n = len(labels)
    probs[np.arange(n), labels] -= 1.0
    return probs * (1.0 / n)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class SgdState:
    """SGD with momentum and coupled weight decay.

    v <- momentum*v + grad + weight_decay*param; param <- param - lr*v.
    """

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocities: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_ranges(self, positive=("learning_rate",), non_negative=("momentum", "weight_decay"))
        if self.momentum >= 1.0:
            raise ParameterError(f"momentum must be < 1, got {self.momentum!r}")


def check_ranges(config, at_least_one: Sequence[str] = (), positive: Sequence[str] = (),
                 non_negative: Sequence[str] = ()) -> None:
    """``ParameterError`` naming the first field of ``config`` outside its
    range: a count >= 1, a finite number > 0 or a finite number >= 0."""
    for names, need, ok in ((at_least_one, ">= 1", lambda v: v >= 1),
                            (positive, "finite and > 0", lambda v: math.isfinite(v) and v > 0),
                            (non_negative, "finite and >= 0",
                             lambda v: math.isfinite(v) and v >= 0)):
        for name in names:
            value = getattr(config, name)
            if not ok(value):
                raise ParameterError(f"{name} must be {need}, got {value!r}")


def sgd_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
             state: SgdState) -> None:
    """Update the float32 arrays ``params`` in place, one gradient each; pass
    the same arrays every step."""
    if len(grads) != len(params):
        raise ShapeError("one gradient per parameter required")
    if not state.velocities:
        state.velocities = [np.zeros_like(p) for p in params]
    if len(state.velocities) != len(params):
        raise ShapeError("velocity buffers do not match the parameter list")
    for p, g, v in zip(params, grads, state.velocities):
        g = np.asarray(g, dtype=DTYPE)
        if g.shape != p.shape or v.shape != p.shape:
            raise ShapeError("gradient/velocity shape does not match parameter")
        v *= DTYPE(state.momentum)
        v += g
        if state.weight_decay:
            v += DTYPE(state.weight_decay) * p
        p -= DTYPE(state.learning_rate) * v


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed gives a bit-identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from string/int parts (order-sensitive)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"FGT1"


def tensor_to_bytes(a: np.ndarray) -> bytes:
    """Header (magic, rank, dims as u32 LE) + row-major float32 LE payload."""
    dims = a.shape
    header = TENSOR_MAGIC + struct.pack("<I", len(dims))
    header += struct.pack(f"<{len(dims)}I", *dims) if dims else b""
    return header + a.astype("<f4").tobytes(order="C")


class Reader:
    """Cursor over the bytes of one artifact; every read is bounds-checked.

    A short read, a string that is not UTF-8, a bad tensor header or a byte
    left after ``end`` raises ``FormatError`` naming ``artifact``. Fields
    are little-endian, as the writers pack them.
    """

    def __init__(self, buf: bytes, artifact: str):
        self.buf = memoryview(buf)
        self.artifact = artifact
        self.pos = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.artifact}: {message}")

    def _advance(self, n: int) -> int:
        """Move past ``n`` bytes and return where they start."""
        start = self.pos
        if n > len(self.buf) - start:
            raise self.error(f"truncated at byte {start}: {n} bytes wanted, "
                             f"{len(self.buf) - start} left")
        self.pos = start + n
        return start

    def header(self, magic: bytes, version: int) -> None:
        """The magic, then a u8 version that must equal ``version``."""
        if self.take(len(magic)) != magic:
            raise self.error("bad magic")
        (got,) = self.unpack("<B")
        if got != version:
            raise self.error(f"unsupported version {got}")

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt)))

    def take(self, n: int) -> bytes:
        return bytes(self.buf[self._advance(n):self.pos])

    def str(self) -> str:
        """A u32 length, then that many bytes of UTF-8."""
        (n,) = self.unpack("<I")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"string before byte {self.pos} is not UTF-8") from exc

    def array(self, dtype: str, n: int) -> np.ndarray:
        """``n`` items of ``dtype``, copied out of the buffer."""
        dtype = np.dtype(dtype)
        start = self._advance(n * dtype.itemsize)
        return np.frombuffer(self.buf[start:self.pos], dtype=dtype).copy()

    def tensor(self, ndim: int | None = None) -> np.ndarray:
        """One ``tensor_to_bytes`` record as a float32 array of rank ``ndim``,
        or of any rank up to 8 when ``ndim`` is None."""
        if self.take(4) != TENSOR_MAGIC:
            raise self.error(f"bad tensor magic before byte {self.pos}")
        (rank,) = self.unpack("<I")
        if rank > 8 if ndim is None else rank != ndim:
            want = "at most 8" if ndim is None else ndim
            raise self.error(f"tensor of rank {rank}, expected {want}")
        dims = self.unpack(f"<{rank}I")
        # Python ints: a product of u32 dims never wraps
        return self.array("<f4", math.prod(dims)).reshape(dims)

    def end(self) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{len(self.buf) - self.pos} trailing bytes")


NUMBER = (int, float)  # a JSON number; a bool is none


def json_fields(doc, what: str, fields: dict, error: type[Exception]) -> dict:
    """``doc`` if it is a dict holding each key of ``fields`` at its type (a
    type or a tuple of types; bool passes only for bool); else ``error``."""
    if not isinstance(doc, dict):
        raise error(f"{what} is not a JSON object")
    for key, kind in fields.items():
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if key not in doc or not isinstance(doc[key], kinds) or \
                isinstance(doc[key], bool) and bool not in kinds:
            raise error(f"{what} needs {key!r} as {' or '.join(k.__name__ for k in kinds)}")
    return doc


def json_object(text: str | bytes, what: str, fields: dict,
                error: type[Exception]) -> dict:
    """The JSON object in ``text``, checked by ``json_fields``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{what} is not JSON: {exc}") from exc
    return json_fields(doc, what, fields, error)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def staged_file(directory, data: bytes) -> Iterator[str]:
    """Every file forge writes: a new ``.tmp-`` file in ``directory`` holding
    all of ``data`` at mode 0644, whatever the umask, yielded to be renamed or
    linked into place and removed on the way out if still there. A process
    crash leaves no file in part; nothing is fsynced, so a power loss may."""
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o644)  # mkstemp creates owner-only files
            fh.write(data)
        yield tmp
    finally:
        with contextlib.suppress(FileNotFoundError):  # renamed into place
            os.unlink(tmp)


def write_file(path, data: bytes) -> None:
    """Replace whatever is at ``path`` with ``data``, staged beside it."""
    with staged_file(os.path.dirname(path) or ".", data) as tmp:
        os.replace(tmp, path)
