import numpy as np
import pytest

from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.errors import DegenerateInputError, FormatError, ShapeError
from forge.model import AffineLayer, BaseEncoder, LabelEmbeddingTable, PluginModule
from forge.numerics import Tensor


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


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))) / denom


def one_layer_base(weight: np.ndarray, bias: np.ndarray | None = None) -> BaseEncoder:
    weight = np.asarray(weight, dtype=np.float32)
    if bias is None:
        bias = np.zeros(weight.shape[0], dtype=np.float32)
    return BaseEncoder([AffineLayer(Tensor(weight), Tensor(bias))])


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
            enc = one_layer_base(np.zeros((2, 5)))
            ad = model.LoraAdapter(0, Tensor(rng.normal(size=(4, 5)).astype(np.float32)),
                                   Tensor(rng.normal(size=(2, 4)).astype(np.float32)),
                                   4, 4.0)
            x = rng.normal(size=(3, 5)).astype(np.float32)
            left = model.encode(enc, Tensor(x), PluginModule({0: ad})).data
            right = model.encode_np(enc, {0: ad.effective_delta()}, x)
            assert rel_err(left, right) < 1e-5

    def test_backward_matches_finite_differences(self):
        rng = nm.make_rng(3)
        enc = one_layer_base(rng.normal(size=(2, 4)), rng.normal(size=2))
        ad = model.LoraAdapter(0, Tensor(rng.normal(size=(2, 4)).astype(np.float32)),
                               Tensor(rng.normal(size=(2, 2)).astype(np.float32)), 2, 2.0)
        plugin = PluginModule({0: ad})
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        w = rng.normal(size=(3, 2)).astype(np.float32)

        def loss_fn(_):
            return float(np.sum(model.encode(enc, x, plugin).data * w, dtype=np.float64))

        # the input's gradient outside training, the adapter's in training
        g_x = model.encode(enc, x, plugin).backward(w)
        g_a, g_b = model.encode(enc, x, plugin, training=True).backward(w)
        for t, g in ((x, g_x), (ad.a, g_a), (ad.b, g_b)):
            fd = nm.finite_difference_grad(loss_fn, t, eps=1e-2)
            assert rel_err(g, fd.data) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        loss = nm.softmax_cross_entropy(logits, np.array([0, 2]))
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-6)

    def test_saturated_correct_class(self):
        logits = Tensor(np.array([[10.0, -10.0]], dtype=np.float32))
        loss = nm.softmax_cross_entropy(logits, np.array([0]))
        assert loss.item() < 1e-4

    def test_gradient_formula(self):
        rng = nm.make_rng(5)
        z = rng.normal(size=(4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        grad = nm.softmax_cross_entropy(Tensor(z), labels).backward()
        probs = nm.softmax(z)
        onehot = np.eye(3, dtype=np.float32)[labels]
        np.testing.assert_allclose(grad, (probs - onehot) / 4, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = nm.make_rng(11)
        for _ in range(20):
            z = rng.uniform(-1, 1, size=(4, 3)).astype(np.float32)
            labels = rng.integers(0, 3, size=4)
            logits = Tensor(z)
            grad = nm.softmax_cross_entropy(logits, labels).backward()
            fd = nm.finite_difference_grad(
                lambda t: nm.softmax_cross_entropy(t, labels).item(), logits, eps=2e-2)
            assert rel_err(grad, fd.data) < 1e-4

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            nm.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))
        with pytest.raises(IndexError):
            nm.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([-1]))


class TestSgd:
    def test_plain_step(self):
        p = Tensor(np.array([1.0], dtype=np.float32))
        state = nm.SgdState(learning_rate=0.1)
        nm.sgd_step([p], [np.array([2.0], dtype=np.float32)], state)
        assert p.data[0] == pytest.approx(0.8)

    def test_momentum_recursion(self):
        # v1 = g; v2 = 0.9*g + g = 1.9*g (wd = 0)
        p = Tensor(np.array([0.0], dtype=np.float32))
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
        p = Tensor(np.array([p0], dtype=np.float32))
        state = nm.SgdState(lr, mom, wd)
        nm.sgd_step([p], [np.array([g], dtype=np.float32)], state)
        nm.sgd_step([p], [np.array([g], dtype=np.float32)], state)
        assert p.data[0] == pytest.approx(p2, rel=1e-5)

    def test_zero_grad_zero_wd_no_change(self):
        p = Tensor(np.array([3.0], dtype=np.float32))
        state = nm.SgdState(learning_rate=0.5)
        nm.sgd_step([p], [np.zeros(1, dtype=np.float32)], state)
        assert p.data[0] == 3.0


class TestFiniteDifference:
    def test_quadratic(self):
        x = Tensor(np.array([3.0], dtype=np.float32))
        fd = nm.finite_difference_grad(lambda t: float(t.data[0]) ** 2, x, eps=1e-3)
        assert fd.data[0] == pytest.approx(6.0, abs=1e-4)

    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        fd = nm.finite_difference_grad(lambda t: float(t.data.sum(dtype=np.float64)), x)
        np.testing.assert_allclose(fd.data, np.ones((2, 3)), atol=1e-5)

    def test_cross_validates_cross_entropy(self):
        rng = nm.make_rng(23)
        z = rng.uniform(-1, 1, size=(3, 4)).astype(np.float32)
        labels = np.array([1, 3, 0])
        logits = Tensor(z)
        grad = nm.softmax_cross_entropy(logits, labels).backward()
        fd = nm.finite_difference_grad(
            lambda t: nm.softmax_cross_entropy(t, labels).item(), logits, eps=2e-2)
        assert rel_err(grad, fd.data) < 1e-4


class TestElementwiseOps:
    """The behaviours of the former single-op nodes, on the fused nodes."""

    def test_tanh_backward(self):
        # encode's input gradient through the tanh between its two layers
        rng = nm.make_rng(17)
        enc = BaseEncoder.from_seed(17, dims=(6, 5, 4))
        for layer in enc.layers:
            layer.bias.data[:] = rng.normal(size=layer.bias.shape)
        x = Tensor(rng.uniform(-1, 1, size=(3, 6)).astype(np.float32))
        out = model.encode(enc, x)
        grad = out.backward(2.0 * out.data)
        fd = nm.finite_difference_grad(lambda t: sq_sum_value(model.encode(enc, t)), x,
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
        fd = nm.finite_difference_grad(lambda t: sq_sum_value(model.encode(enc, t)), x,
                                       eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_normalize_rows_backward(self):
        rng = nm.make_rng(29)
        table = LabelEmbeddingTable("t", ["one", "two", "three"], 4)
        x = Tensor(rng.uniform(0.2, 1.0, size=(3, 4)).astype(np.float32))
        w = rng.normal(size=(3, 3)).astype(np.float32)
        grad = model.classify(x, table, 1.0).backward(w)
        fd = nm.finite_difference_grad(
            lambda t: float(np.sum(model.classify(t, table, 1.0).data * w,
                                   dtype=np.float64)), x, eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_normalize_rows_zero_row_rejected(self):
        table = LabelEmbeddingTable("t", ["one", "two"], 3)
        rows = np.ones((2, 3), dtype=np.float32)
        rows[1] = 0.0
        with pytest.raises(DegenerateInputError):
            model.classify(Tensor(rows), table)

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
            return feat, dst.dm_loss({0: model.encode(enc, fixed).data}, {0: feat})

        for leaf, fixed in ((real, syn), (syn, real)):
            feat, loss = f(fixed, leaf)
            (g_feat,) = loss.backward()
            grad = feat.backward(g_feat)
            fd = nm.finite_difference_grad(lambda t: f(fixed, t)[1].item(), leaf, eps=1e-2)
            assert rel_err(grad, fd.data) < 1e-4

    def test_flip_and_shift_backward(self):
        rng = nm.make_rng(37)
        x = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        params = dst.DsaParams(flip=True, shift=(1, -1))
        out = dst.dsa_augment(x, params)
        grad = out.backward(2.0 * out.data)
        fd = nm.finite_difference_grad(
            lambda t: sq_sum_value(dst.dsa_augment(t, params)), x, eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_shift_zero_pads(self):
        x = Tensor(np.ones((1, 2, 2), dtype=np.float32))
        out = dst.dsa_augment(x, dst.DsaParams(shift=(1, 0)))
        np.testing.assert_array_equal(out.data[0], [[0.0, 0.0], [1.0, 1.0]])

    def test_finite_outputs(self):
        rng = nm.make_rng(41)
        enc = BaseEncoder.from_seed(41, dims=(5, 5, 5))
        table = LabelEmbeddingTable("t", [str(i) for i in range(5)], 5)
        x = Tensor(rng.uniform(-1, 1, size=(5, 5)).astype(np.float32))
        y = model.encode(enc, x)
        assert np.all(np.isfinite(y.data))
        loss = nm.softmax_cross_entropy(model.classify(y, table), np.arange(5) % 5)
        assert np.isfinite(loss.item())


class TestHandOff:
    """Each backward returns its inputs' gradients for the caller to hand on."""

    def test_node_consumed_twice_gets_both_gradients(self):
        # one augmented batch encoded once per class: its backward runs once
        # for each encode, and the two gradients sum
        rng = nm.make_rng(43)
        enc = BaseEncoder.from_seed(43, dims=(6, 4))
        x = Tensor(rng.normal(size=(3, 2, 3)).astype(np.float32))
        real = {c: model.encode(enc, Tensor(rng.normal(size=(4, 2, 3)).astype(np.float32))).data
                for c in (0, 1)}
        params = dst.DsaParams(flip=True, shift=(1, 0), scale=1.1)

        def f(t):
            y = dst.dsa_augment(t, params)
            feats = {0: model.encode(enc, y), 1: model.encode(enc, y)}
            return y, feats, dst.dm_loss(real, feats)

        y, feats, loss = f(x)
        grad = sum(y.backward(feats[c].backward(g)) for c, g in zip((0, 1), loss.backward()))
        fd = nm.finite_difference_grad(lambda t: f(t)[2].item(), x, eps=1e-2)
        assert rel_err(grad, fd.data) < 1e-4

    def test_leaf_returns_its_own_gradient(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        g = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
        got = x.backward(g)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, g)


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
            t = Tensor(rng.normal(size=shape).astype(np.float32))
            buf = nm.tensor_to_bytes(t)
            back, offset = nm.tensor_from_bytes(buf)
            assert offset == len(buf)
            assert back.data.shape == t.data.shape
            assert back.data.tobytes() == t.data.tobytes()

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            nm.tensor_from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncated_payload(self):
        buf = nm.tensor_to_bytes(Tensor(np.ones((2, 2), dtype=np.float32)))
        with pytest.raises(FormatError):
            nm.tensor_from_bytes(buf[:-3])
