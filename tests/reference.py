"""Reference code the tests check forge against, kept out of the package.

- ``classify`` and ``softmax_cross_entropy`` are the cosine head and the
  mean cross-entropy as two tape nodes, each with its own backward. Their
  float32 and float64 operations are those that training's fused
  ``model._head_loss_grad`` runs, in the same order, so the chain
  ``encode`` -> ``classify`` -> ``softmax_cross_entropy`` -> ``sgd_step``
  trains a plugin to the same bytes as ``model.train_plugin``.
- ``dm_loss`` is the matching loss as one tape node, frozen as distillation
  ran it before ``distill.dm_loss`` returned its gradient: its backward at
  g = 1 must give that gradient's bytes.
- ``Loss`` is a scalar loss node: it keeps the loss value in float64, the
  value that finite differences are taken of, and its ``backward()`` with no
  gradient starts the chain at g = 1. Both loss references return one.
- ``finite_difference_grad`` is the central-difference oracle of every
  gradient test, and ``rel_err`` the distance they compare with.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from forge.numerics import DTYPE, Tensor


def rel_err(got, want) -> float:
    """||got - want|| / ||want||, in float64 (the denominator at least 1e-12)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-12)


def finite_difference_grad(f: Callable[[Tensor], float], x: Tensor,
                           eps: float = 1e-2) -> Tensor:
    """Central-difference gradient of a scalar function of one tensor, each
    entry of ``x.data`` perturbed in place and divided by the float32 step
    it actually took."""
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


class Loss(Tensor):
    """A scalar loss node with its float64 value."""

    __slots__ = ("value",)

    def __init__(self, value: float, backward: Callable[[np.ndarray], np.ndarray]):
        super().__init__(np.array(value, dtype=DTYPE), backward)
        self.value = value

    def item(self) -> float:
        return self.value

    def backward(self, g: np.ndarray | None = None) -> np.ndarray:
        return super().backward(np.ones((), DTYPE) if g is None else g)


def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a64 = a.astype(np.float64)
    inv = (1.0 / np.sqrt(np.add.reduce(a64 * a64, axis=1))).astype(DTYPE)[:, None]
    return a * inv, inv


def classify(embedding: Tensor, table, temperature: float) -> Tensor:
    """Cosine similarity of each [n, d] embedding row against each label row,
    divided by ``temperature``; the backward returns the embedding's
    gradient."""
    rows_t = np.ascontiguousarray(_unit_rows(table.rows)[0].T)
    scale = float(1.0 / temperature)
    unit, inv = _unit_rows(embedding.data)

    def backward(g: np.ndarray) -> np.ndarray:
        g_unit = (g * scale) @ rows_t.T
        dot = np.add.reduce(unit * g_unit, axis=1, keepdims=True)
        return (g_unit - unit * dot) * inv

    return Tensor((unit @ rows_t) * DTYPE(scale), backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean NLL of softmax(logits) at ``labels``, its value kept in float64;
    the backward returns the logits' gradient, (softmax - onehot) * g/n."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    z = logits.data.astype(np.float64)
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.add.reduce(np.exp(z - zmax), axis=1))
    probs = np.exp(z - lse[:, None]).astype(DTYPE)
    value = float(np.mean(lse - z[np.arange(n), labels]))

    def backward(g: np.ndarray) -> np.ndarray:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return grad * (float(g) / n)

    return Loss(value, backward)


def _class_means(features: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Each class block's mean row, by sums over zero-padded blocks, and its
    row count; block c starts at row ``starts[c]``."""
    starts = np.asarray(starts)
    counts = np.append(starts[1:], len(features)) - starts
    blocks, width = len(counts), counts.max()
    rows = np.arange(len(features)) + np.repeat(np.arange(blocks) * width - starts, counts)
    padded = np.zeros((blocks * width, features.shape[1]), DTYPE)
    padded[rows] = features
    return padded.reshape(blocks, width, -1).sum(axis=1) / counts[:, None].astype(DTYPE), counts


def dm_loss(real_features: np.ndarray, real_starts, syn_features: Tensor, syn_starts) -> Loss:
    """Sum over classes of || mean real features - mean synthetic features ||^2,
    squares summed in float64; the backward returns the gradient of
    ``syn_features``, the real features being constants."""
    real_means, _ = _class_means(real_features, real_starts)
    syn_means, counts = _class_means(syn_features.data, syn_starts)
    diffs = real_means - syn_means

    def backward(g: np.ndarray) -> np.ndarray:
        factor = 2.0 * float(g)
        return np.repeat(-(factor * diffs) / counts[:, None].astype(DTYPE), counts, axis=0)

    return Loss(float(np.sum(np.square(diffs, dtype=np.float64))), backward)
