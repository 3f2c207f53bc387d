"""Dense float32 tensors with analytic gradients for one fixed compute graph.

The op set covers exactly what the pipelines need: affine layers, tanh,
row normalization and cosine heads, softmax cross-entropy, the spatial
transforms used by siamese augmentation, and SGD with momentum. Gradients
accumulate into ``.grad`` buffers; callers zero them between steps. There
is no general autodiff beyond these ops.

Scalar losses keep a float64 copy of their value (``Tensor.item``) so that
finite-difference checks are not drowned by float32 rounding of the loss.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, FormatError, ShapeError

DTYPE = np.float32

_NORM_EPS = 1e-12


class Tensor:
    """Dense float32 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_value")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._value: float | None = None  # float64 value for scalar losses

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return self._value if self._value is not None else float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backprop from this node; grads accumulate into leaf ``.grad``."""
        if seed is None:
            if self.data.size != 1:
                raise ShapeError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, np.asarray(seed, dtype=DTYPE).reshape(self.data.shape))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, delta: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += delta


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of [m,k] and [k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return _node(np.ascontiguousarray(a.data.T), (a,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports broadcasting a [d] bias over [n,d]."""
    if a.shape == b.shape:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g)
            _accumulate(b, g)
        return _node(a.data + b.data, (a, b), backward)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def backward(g: np.ndarray) -> None:
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))
        return _node(a.data + b.data, (a, b), backward)
    raise ShapeError(f"add cannot combine shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub expects equal shapes, got {a.shape} and {b.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * s)

    return _node(a.data * DTYPE(s), (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul expects equal shapes, got {a.shape} and {b.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    new = a.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return _node(np.ascontiguousarray(new), (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim < 1 or not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] out of range for {a.shape}")

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accumulate(a, full)

    return _node(a.data[start:stop].copy(), (a,), backward)


def flip_w(a: Tensor) -> Tensor:
    """Reverse the last (width) axis; a pure reindexing, gradient flows."""

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g[..., ::-1])

    return _node(np.ascontiguousarray(a.data[..., ::-1]), (a,), backward)


def shift2d(a: Tensor, dy: int, dx: int) -> Tensor:
    """Shift [n,h,w] content by (dy, dx) with zero padding at the edges."""
    if a.data.ndim != 3:
        raise ShapeError(f"shift2d expects [n,h,w], got {a.shape}")
    _, h, w = a.shape
    out = np.zeros_like(a.data)
    ys_dst = slice(max(dy, 0), h + min(dy, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_dst = slice(max(dx, 0), w + min(dx, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[:, ys_dst, xs_dst] = a.data[:, ys_src, xs_src]

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[:, ys_src, xs_src] = g[:, ys_dst, xs_dst]
        _accumulate(a, full)

    return _node(out, (a,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (no gradient into the constant)."""
    c = np.asarray(c, dtype=DTYPE)
    if c.shape != a.shape:
        raise ShapeError(f"add_const expects matching shapes, got {a.shape} and {c.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g)

    return _node(a.data + c, (a,), backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(a.shape) >= p).astype(DTYPE) / DTYPE(1.0 - p)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _node(a.data * mask, (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis 0 of an [n,d] tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows expects [n,d], got {a.shape}")
    n = a.shape[0]

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g / n, a.data.shape).astype(DTYPE))

    return _node(a.data.mean(axis=0), (a,), backward)


def sq_sum(a: Tensor) -> Tensor:
    """Sum of squares, accumulated in float64; scalar output."""
    value = float(np.sum(np.square(a.data, dtype=np.float64)))

    def backward(g: np.ndarray) -> None:
        _accumulate(a, (2.0 * float(g)) * a.data)

    out = _node(np.array(value, dtype=DTYPE), (a,), backward)
    out._value = value
    return out


def scalar_sum(terms: Sequence[Tensor]) -> Tensor:
    """Sum scalar tensors, preserving their float64 values."""
    if not terms:
        raise ShapeError("scalar_sum needs at least one term")
    value = float(sum(t.item() for t in terms))

    def backward(g: np.ndarray) -> None:
        for t in terms:
            _accumulate(t, np.asarray(g, dtype=DTYPE).reshape(t.data.shape))

    out = _node(np.array(value, dtype=DTYPE), tuple(terms), backward)
    out._value = value
    return out


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row of [n,d] to unit L2 norm."""
    if a.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows expects [n,d], got {a.shape}")
    norms = np.linalg.norm(a.data.astype(np.float64), axis=1)
    if np.any(norms < _NORM_EPS):
        raise DegenerateInputError("cannot normalize a zero-norm row")
    inv = (1.0 / norms).astype(DTYPE)[:, None]
    out_data = a.data * inv

    def backward(g: np.ndarray) -> None:
        dot = np.sum(out_data * g, axis=1, keepdims=True)
        _accumulate(a, (g - out_data * dot) * inv)

    return _node(out_data, (a,), backward)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable row softmax of an [n,c] array (plain numpy, no gradient)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True)).astype(DTYPE)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean NLL of softmax(logits) at ``labels``; grad is (softmax - onehot)/n."""
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

    def backward(g: np.ndarray) -> None:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        _accumulate(logits, grad * (float(g) / n))

    out = _node(np.array(value, dtype=DTYPE), (logits,), backward)
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


def sgd_step(params: Sequence[Tensor], grads: Sequence[np.ndarray] | None,
             state: SgdState) -> Sequence[Tensor]:
    """One in-place update; pass the same param sequence every step."""
    if grads is None:
        grads = [p.grad for p in params]
    if not state.velocities:
        state.velocities = [np.zeros_like(p.data) for p in params]
    if len(state.velocities) != len(params):
        raise ShapeError("velocity buffers do not match the parameter list")
    for p, g, v in zip(params, grads, state.velocities):
        if g is None:
            g = np.zeros_like(p.data)
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
