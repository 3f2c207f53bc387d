import numpy as np
import pytest

from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.errors import DegenerateInputError, FormatError, ParameterError, ShapeError
from forge.model import BaseEncoder, LabelEmbeddingTable, PluginModule, TrainConfig
from forge.numerics import Tensor
from reference import classify, finite_difference_grad, rel_err, softmax_cross_entropy


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += float(a[i, t]) * float(b[t, j])
    return out


def one_layer_base(weight: np.ndarray, bias: np.ndarray | None = None) -> BaseEncoder:
    weight = np.asarray(weight, dtype=np.float32)
    if bias is None:
        bias = np.zeros(weight.shape[0], dtype=np.float32)
    return BaseEncoder([weight], [bias])


def sq_sum_value(out: Tensor) -> float:
    return float(np.sum(np.square(out.data, dtype=np.float64)))


class TestMatmul:
    """The affine products inside the fused encode node."""

    def test_one_by_one(self):
        out = model.encode(one_layer_base([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == pytest.approx(6.0)

    def test_identity(self):
        rng = nm.make_rng(0)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        out = model.encode(one_layer_base(np.eye(5)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_against_triple_loop_oracle(self):
        rng = nm.make_rng(42)
        x = rng.normal(size=(4, 5)).astype(np.float32)
        w = rng.normal(size=(3, 5)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        out = model.encode(one_layer_base(w, b), Tensor(x))
        assert rel_err(out.data, naive_matmul(x, w.T) + b) < 1e-6

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            model.encode(one_layer_base(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_associativity(self):
        # the side path (x A^T) B^T against x (B A)^T folded into the weight
        rng = nm.make_rng(7)
        for _ in range(20):
            enc = one_layer_base(np.zeros((4, 5)))
            ad = model.LoraAdapter(rng.normal(size=(4, 5)).astype(np.float32),
                                   rng.normal(size=(4, 4)).astype(np.float32), 4.0)
            x = rng.normal(size=(3, 5)).astype(np.float32)
            left = model.encode(enc, Tensor(x), PluginModule({0: ad})).data
            right = model.encode_np(enc, {0: ad.effective_delta()}, x)
            assert rel_err(left, right) < 1e-5

    def test_backward_matches_finite_differences(self):
        rng = nm.make_rng(3)
        enc = one_layer_base(rng.normal(size=(2, 4)), rng.normal(size=2))
        ad = model.LoraAdapter(rng.normal(size=(2, 4)).astype(np.float32),
                               rng.normal(size=(2, 2)).astype(np.float32), 2.0)
        plugin = PluginModule({0: ad})
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        w = rng.normal(size=(3, 2)).astype(np.float32)

        def loss_fn(_):
            return float(np.sum(model.encode(enc, x, plugin).data * w, dtype=np.float64))

        # the input's gradient outside training, the adapter's in training
        g_x = model.encode(enc, x, plugin).backward(w)
        g_a, g_b = model.encode(enc, x, plugin, training=True).backward(w)
        # Tensors over the adapter's own arrays, so each perturbation reaches it
        for t, g in ((x, g_x), (Tensor(ad.a), g_a), (Tensor(ad.b), g_b)):
            fd = finite_difference_grad(loss_fn, t, eps=1e-2)
            assert rel_err(g, fd.data) < 1e-4


class TestSoftmaxCrossEntropy:
    """``nm.softmax`` and ``nm.cross_entropy_grad``, the loss's two parts in
    training, and the reference loss whose value criterion 2 differentiates."""

    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        loss = softmax_cross_entropy(logits, np.array([0, 2]))
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-6)

    def test_saturated_correct_class(self):
        logits = Tensor(np.array([[10.0, -10.0]], dtype=np.float32))
        loss = softmax_cross_entropy(logits, np.array([0]))
        assert loss.item() < 1e-4

    def test_gradient_formula(self):
        rng = nm.make_rng(5)
        z = rng.normal(size=(4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        grad = nm.cross_entropy_grad(nm.softmax(z), labels)
        e = np.exp(z.astype(np.float64))
        onehot = np.eye(3)[labels]
        np.testing.assert_allclose(grad, (e / e.sum(axis=1, keepdims=True) - onehot) / 4,
                                   atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = nm.make_rng(11)
        for _ in range(20):
            z = rng.uniform(-1, 1, size=(4, 3)).astype(np.float32)
            labels = rng.integers(0, 3, size=4)
            grad = nm.cross_entropy_grad(nm.softmax(z), labels)
            fd = finite_difference_grad(
                lambda t: softmax_cross_entropy(t, labels).item(), Tensor(z), eps=2e-2)
            assert rel_err(grad, fd.data) < 1e-4


class TestSgd:
    def test_plain_step(self):
        p = np.array([1.0], dtype=np.float32)
        state = nm.SgdState(learning_rate=0.1)
        nm.sgd_step([p], [np.array([2.0], dtype=np.float32)], state)
        assert p[0] == pytest.approx(0.8)

    def test_momentum_recursion(self):
        # v1 = g; v2 = 0.9*g + g = 1.9*g (wd = 0)
        p = np.array([0.0], dtype=np.float32)
        g = np.array([1.0], dtype=np.float32)
        state = nm.SgdState(learning_rate=0.0009765625, momentum=0.9)
        nm.sgd_step([p], [g], state)
        nm.sgd_step([p], [g], state)
        assert state.velocities[0][0] == pytest.approx(1.9, rel=1e-6)

    def test_momentum_with_weight_decay_hand_recursion(self):
        lr, mom, wd = 0.1, 0.9, 0.01
        p0, g = 1.0, 2.0
        v1 = g + wd * p0
        p1 = p0 - lr * v1
        v2 = mom * v1 + g + wd * p1
        p2 = p1 - lr * v2
        p = np.array([p0], dtype=np.float32)
        state = nm.SgdState(lr, mom, wd)
        nm.sgd_step([p], [np.array([g], dtype=np.float32)], state)
        nm.sgd_step([p], [np.array([g], dtype=np.float32)], state)
        assert p[0] == pytest.approx(p2, rel=1e-5)

    def test_zero_grad_zero_wd_no_change(self):
        p = np.array([3.0], dtype=np.float32)
        state = nm.SgdState(learning_rate=0.5)
        nm.sgd_step([p], [np.zeros(1, dtype=np.float32)], state)
        assert p[0] == 3.0

    def test_plain_arrays_match_the_per_tensor_update(self):
        def tensor_step(params, grads, velocities, lr, momentum, wd):
            """The update as it ran on each parameter Tensor's array: the reference."""
            for p, g, v in zip(params, grads, velocities):
                v *= np.float32(momentum)
                v += np.asarray(g, dtype=np.float32)
                v += np.float32(wd) * p.data
                p.data -= np.float32(lr) * v

        rng = nm.make_rng(61)
        arrays = [rng.normal(size=shape).astype(np.float32)
                  for shape in [(3, 5), (4,), (2, 2, 3), (1, 7)]]
        own, start = list(arrays), [a.copy() for a in arrays]
        ref = [Tensor(a.copy()) for a in arrays]
        ref_velocities = [np.zeros_like(a) for a in arrays]
        state = nm.SgdState(0.05, momentum=0.9, weight_decay=5e-4)
        for _ in range(20):
            grads = [rng.normal(size=a.shape).astype(np.float32) for a in arrays]
            nm.sgd_step(arrays, grads, state)
            tensor_step(ref, grads, ref_velocities, 0.05, 0.9, 5e-4)
        for a, mine, a0, t in zip(arrays, own, start, ref):
            assert a is mine and not np.array_equal(a, a0)  # the caller's arrays, in place
            assert np.array_equal(a, t.data)

    @pytest.mark.parametrize("setting", [
        {"learning_rate": 0.0}, {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"momentum": 1.0}, {"momentum": -0.1}, {"weight_decay": -1e-4},
        {"weight_decay": float("nan")}])
    def test_setting_out_of_range_is_a_parameter_error(self, setting):
        with pytest.raises(ParameterError, match=next(iter(setting))):
            nm.SgdState(**{"learning_rate": 0.1, **setting})


class TestFiniteDifference:
    def test_quadratic(self):
        x = Tensor(np.array([3.0], dtype=np.float32))
        fd = finite_difference_grad(lambda t: float(t.data[0]) ** 2, x, eps=1e-3)
        assert fd.data[0] == pytest.approx(6.0, abs=1e-4)

    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        fd = finite_difference_grad(lambda t: float(t.data.sum(dtype=np.float64)), x)
        np.testing.assert_allclose(fd.data, np.ones((2, 3)), atol=1e-5)

    def test_cross_validates_cross_entropy(self):
        rng = nm.make_rng(23)
        z = rng.uniform(-1, 1, size=(3, 4)).astype(np.float32)
        labels = np.array([1, 3, 0])
        logits = Tensor(z)
        grad = softmax_cross_entropy(logits, labels).backward()
        fd = finite_difference_grad(
            lambda t: softmax_cross_entropy(t, labels).item(), logits, eps=2e-2)
        assert rel_err(grad, fd.data) < 1e-4


class TestElementwiseOps:
    """The behaviours of the former single-op nodes, on the fused nodes."""

    def test_tanh_backward(self):
        # encode's input gradient through the tanh between its two layers
        rng = nm.make_rng(17)
        enc = BaseEncoder.from_seed(17, dims=(6, 5, 4))
        for bias in enc.biases:
            bias[:] = rng.normal(size=bias.shape)
        x = Tensor(rng.uniform(-1, 1, size=(3, 6)).astype(np.float32))
        out = model.encode(enc, x)
        grad = out.backward(2.0 * out.data)
        fd = finite_difference_grad(lambda t: sq_sum_value(model.encode(enc, t)), x,
                                       eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_add_bias_broadcast_backward(self):
        # the bias reaches every row, and the input gradient holds with it
        rng = nm.make_rng(19)
        w = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        enc = one_layer_base(w, b)
        x = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        out = model.encode(enc, x)
        np.testing.assert_array_equal(out.data, x.data @ np.ascontiguousarray(w.T) + b)
        grad = out.backward(2.0 * out.data)
        fd = finite_difference_grad(lambda t: sq_sum_value(model.encode(enc, t)), x,
                                       eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_normalize_rows_backward(self):
        # the reference head's backward, which criterion 2's loss runs through
        rng = nm.make_rng(29)
        table = LabelEmbeddingTable("t", ["one", "two", "three"], 4)
        x = Tensor(rng.uniform(0.2, 1.0, size=(3, 4)).astype(np.float32))
        w = rng.normal(size=(3, 3)).astype(np.float32)
        grad = classify(x, table, 1.0).backward(w)
        fd = finite_difference_grad(
            lambda t: float(np.sum(classify(t, table, 1.0).data * w,
                                   dtype=np.float64)), x, eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_normalize_rows_zero_row_rejected(self):
        table = LabelEmbeddingTable("t", ["one", "two"], 3)
        rows = np.ones((2, 3), dtype=np.float32)
        rows[1] = 0.0
        with pytest.raises(DegenerateInputError):
            model._head_loss_grad(rows, model._label_head(table),
                                  1.0 / TrainConfig.temperature, np.array([0, 1]))

    def test_mean_rows_slice_reshape_backward(self):
        # per-class means of [n, h, w] leaves that encode flattens per row;
        # the loss is symmetric, so each batch takes its turn as the
        # synthetic side, the one dm_loss differentiates
        rng = nm.make_rng(31)
        enc = BaseEncoder.from_seed(31, dims=(6, 4))
        real = Tensor(rng.normal(size=(3, 2, 3)).astype(np.float32))
        syn = Tensor(rng.normal(size=(2, 2, 3)).astype(np.float32))

        def f(fixed, t):
            feat = model.encode(enc, t)
            return feat, dst.dm_loss(model.encode(enc, fixed).data, [0], feat, [0])

        for leaf, fixed in ((real, syn), (syn, real)):
            feat, loss = f(fixed, leaf)
            grad = feat.backward(loss.backward())
            fd = finite_difference_grad(lambda t: f(fixed, t)[1].item(), leaf, eps=1e-2)
            assert rel_err(grad, fd.data) < 1e-4

    def test_flip_and_shift_backward(self):
        rng = nm.make_rng(37)
        x = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        params = dst.DsaParams(flip=True, shift=(1, -1))
        noise = params.noise(2, (4, 4))
        out = dst.dsa_augment(x, params, noise)
        grad = out.backward(2.0 * out.data)
        fd = finite_difference_grad(
            lambda t: sq_sum_value(dst.dsa_augment(t, params, noise)), x, eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_shift_zero_pads(self):
        x = Tensor(np.ones((1, 2, 2), dtype=np.float32))
        params = dst.DsaParams(shift=(1, 0))
        out = dst.dsa_augment(x, params, params.noise(1, (2, 2)))
        np.testing.assert_array_equal(out.data[0], [[0.0, 0.0], [1.0, 1.0]])

    def test_finite_outputs(self):
        rng = nm.make_rng(41)
        enc = BaseEncoder.from_seed(41, dims=(5, 5, 5))
        table = LabelEmbeddingTable("t", [str(i) for i in range(5)], 5)
        x = Tensor(rng.uniform(-1, 1, size=(5, 5)).astype(np.float32))
        y = model.encode(enc, x)
        assert np.all(np.isfinite(y.data))
        grad = model._head_loss_grad(y.data, model._label_head(table),
                                     1.0 / TrainConfig.temperature, np.arange(5))
        assert np.all(np.isfinite(grad))


class TestHandOff:
    """Each backward returns its inputs' gradients for the caller to hand on."""

    def test_node_consumed_twice_gets_both_gradients(self):
        # one augmented batch encoded twice, each encode matched to its own
        # real batch: its backward runs once for each encode, and the two
        # gradients sum
        rng = nm.make_rng(43)
        enc = BaseEncoder.from_seed(43, dims=(6, 4))
        x = Tensor(rng.normal(size=(3, 2, 3)).astype(np.float32))
        real = [model.encode(enc, Tensor(rng.normal(size=(4, 2, 3)).astype(np.float32))).data
                for _ in range(2)]
        params = dst.DsaParams(flip=True, shift=(1, 0), scale=1.1)

        def f(t):
            y = dst.dsa_augment(t, params, params.noise(3, (2, 3)))
            feats = [model.encode(enc, y) for _ in real]
            return y, feats, [dst.dm_loss(r, [0], feat, [0]) for r, feat in zip(real, feats)]

        y, feats, losses = f(x)
        grad = sum(y.backward(feat.backward(loss.backward()))
                   for feat, loss in zip(feats, losses))
        fd = finite_difference_grad(lambda t: sum(loss.item() for loss in f(t)[2]), x,
                                       eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_leaf_returns_its_own_gradient(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        g = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
        got = x.backward(g)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, g)

    def test_c_ordered_float32_gradient_is_handed_on_uncopied(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        g = np.arange(6, dtype=np.float32)
        assert np.shares_memory(x.backward(g), g)


class TestRng:
    def test_same_seed_same_stream(self):
        a = nm.make_rng(123).normal(size=100)
        b = nm.make_rng(123).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_derive_seed_stable_and_distinct(self):
        assert nm.derive_seed("x", 1) == nm.derive_seed("x", 1)
        assert nm.derive_seed("x", 1) != nm.derive_seed("x", 2)
        assert nm.derive_seed("a", "b") != nm.derive_seed("ab")


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = nm.make_rng(53)
        for shape in [(3,), (2, 4), (2, 3, 4), ()]:
            t = rng.normal(size=shape).astype(np.float32)
            buf = nm.tensor_to_bytes(t)
            r = nm.Reader(buf, "tensor")
            back = r.tensor(len(shape))
            r.end()
            assert back.shape == t.shape
            assert back.tobytes() == t.tobytes()

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="tensor magic"):
            nm.Reader(b"NOPE" + b"\x00" * 16, "tensor").tensor()

    def test_truncated_payload(self):
        buf = nm.tensor_to_bytes(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(FormatError, match="truncated"):
            nm.Reader(buf[:-3], "tensor").tensor()
