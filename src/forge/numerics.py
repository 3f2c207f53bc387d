"""Dense float32 tensors, the gradient hand-off that chains coarse nodes, the
softmax cross-entropy loss, SGD with momentum, and the wire format.

A node is one fused forward computation with its own analytic backward
(the encoder, the cosine head, the augmentation and the matching loss are
built in their own modules as ``Tensor(data, backward)``). A node's backward
takes the gradient of its output and returns the gradients of its inputs;
there is no graph and no gradient state. The caller chains the nodes it
built, handing each result to ``Tensor.backward`` of the tensor it belongs
to, and passes the last result to ``sgd_step``.

Scalar losses keep a float64 copy of their value (``Tensor.item``) so that
finite-difference checks are not drowned by float32 rounding of the loss.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FormatError, ShapeError

DTYPE = np.float32


class Tensor:
    """Dense float32 array plus, on a node's output, that node's backward."""

    __slots__ = ("data", "_backward", "_value")

    def __init__(self, data,
                 backward: Callable[[np.ndarray], np.ndarray | list[np.ndarray]] | None = None):
        self.data = np.asarray(data, dtype=DTYPE, order="C")
        self._backward = backward
        self._value: float | None = None  # float64 value for scalar losses

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return self._value if self._value is not None else float(self.data.reshape(()))

    def backward(self, g: np.ndarray | None = None) -> np.ndarray | list[np.ndarray]:
        """Hand ``g``, the gradient of a loss with respect to this tensor (1
        for a scalar when omitted), to the backward of the node that made the
        tensor, and return what it returns: the gradients of that node's
        inputs. A leaf was made by no node, so it returns ``g`` itself.
        """
        if g is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a gradient requires a scalar output")
            g = np.ones_like(self.data)
        # C order: an F-ordered gradient (np.broadcast_to's, say) would send
        # the node's matmuls down another BLAS path and change float32 bits
        g = np.array(g, dtype=DTYPE, order="C").reshape(self.data.shape)
        return g if self._backward is None else self._backward(g)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable row softmax of an [n,c] array (plain numpy, no gradient)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True)).astype(DTYPE)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean NLL of softmax(logits) at ``labels``; the backward returns the
    logits' gradient, (softmax - onehot)/n."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [n,c] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"labels must lie in [0, {c})")
    z = logits.data.astype(np.float64)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    value = float(np.mean(lse - z[np.arange(n), labels]))
    probs = np.exp(z - lse[:, None]).astype(DTYPE)

    def backward(g: np.ndarray) -> np.ndarray:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return grad * (float(g) / n)

    out = Tensor(np.array(value, dtype=DTYPE), backward)
    out._value = value
    return out


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
        if self.learning_rate <= 0:
            raise ShapeError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ShapeError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ShapeError("weight_decay must be non-negative")


def sgd_step(params: Sequence[Tensor], grads: Sequence[np.ndarray],
             state: SgdState) -> Sequence[Tensor]:
    """One in-place update with one gradient per parameter; pass the same
    param sequence every step."""
    if len(grads) != len(params):
        raise ShapeError("one gradient per parameter required")
    if not state.velocities:
        state.velocities = [np.zeros_like(p.data) for p in params]
    if len(state.velocities) != len(params):
        raise ShapeError("velocity buffers do not match the parameter list")
    for p, g, v in zip(params, grads, state.velocities):
        g = np.asarray(g, dtype=DTYPE)
        if g.shape != p.data.shape or v.shape != p.data.shape:
            raise ShapeError("gradient/velocity shape does not match parameter")
        v *= DTYPE(state.momentum)
        v += g
        if state.weight_decay:
            v += DTYPE(state.weight_decay) * p.data
        p.data -= DTYPE(state.learning_rate) * v
    return params


def finite_difference_grad(f: Callable[[Tensor], float], x: Tensor,
                           eps: float = 1e-2) -> Tensor:
    """Central-difference gradient of a scalar function of one tensor."""
    flat = x.data.reshape(-1)
    grad = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = DTYPE(orig + eps)
        hi_x = flat[i]
        hi = f(x)
        flat[i] = DTYPE(orig - eps)
        lo_x = flat[i]
        lo = f(x)
        flat[i] = orig
        grad[i] = (hi - lo) / (float(hi_x) - float(lo_x))
    return Tensor(grad.reshape(x.data.shape))


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


def tensor_to_bytes(t: Tensor) -> bytes:
    """Header (magic, rank, dims as u32 LE) + row-major float32 LE payload."""
    dims = t.data.shape
    header = TENSOR_MAGIC + struct.pack("<I", len(dims))
    header += struct.pack(f"<{len(dims)}I", *dims) if dims else b""
    return header + t.data.astype("<f4").tobytes(order="C")


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Parse one serialized tensor, returning it and the next offset."""
    if buf[offset:offset + 4] != TENSOR_MAGIC:
        raise FormatError("bad tensor magic")
    offset += 4
    if len(buf) < offset + 4:
        raise FormatError("truncated tensor header")
    (rank,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if rank > 8:
        raise FormatError(f"implausible tensor rank {rank}")
    if len(buf) < offset + 4 * rank:
        raise FormatError("truncated tensor dims")
    dims = struct.unpack_from(f"<{rank}I", buf, offset) if rank else ()
    offset += 4 * rank
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    nbytes = 4 * count
    if len(buf) < offset + nbytes:
        raise FormatError("truncated tensor payload")
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=offset).reshape(dims)
    return Tensor(data.copy()), offset + nbytes
