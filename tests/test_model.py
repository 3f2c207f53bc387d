import numpy as np
import pytest

from forge import model
from forge import numerics as nm
from forge.errors import DegenerateInputError, InputError, ParameterError
from forge.model import (
    AffineLayer,
    BaseEncoder,
    LabelEmbeddingTable,
    PluginModule,
    TrainConfig,
)
from forge.numerics import Tensor


def rel_err(got, want):
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(np.asarray(got, np.float64) - np.asarray(want, np.float64))) / denom


@pytest.fixture(scope="module")
def base():
    return BaseEncoder.from_seed(5)


def one_by_one_base(w0: float) -> BaseEncoder:
    layer = AffineLayer(Tensor(np.array([[w0]], dtype=np.float32)),
                        Tensor(np.zeros(1, dtype=np.float32)))
    return BaseEncoder([layer])


class TestAdapterInit:
    def test_fresh_adapter_has_zero_delta(self, base):
        rng = nm.make_rng(0)
        plugin = PluginModule.fresh(base, rank=16, alpha=16.0, rng=rng)
        for ad in plugin.adapters.values():
            assert np.all(ad.effective_delta() == 0.0)
            assert np.any(ad.a.data != 0.0)

    def test_paper_default_rank_sixteen_accepted(self, base):
        rng = nm.make_rng(1)
        ad = model.init_adapter(0, 64, 256, r=16, alpha=16.0, rng=rng)
        assert ad.rank == 16 and ad.alpha == 16.0

    def test_rank_bound_rejected(self):
        rng = nm.make_rng(2)
        with pytest.raises(ParameterError):
            model.init_adapter(0, 4, 4, r=5, alpha=16.0, rng=rng)


class TestForward:
    def test_zero_delta_plugin_matches_plain_forward(self, base):
        rng = nm.make_rng(3)
        plugin = PluginModule.fresh(base, 16, 16.0, rng)
        x = Tensor(rng.normal(size=(4, base.input_dim)).astype(np.float32))
        with_plugin = model.encode(base, x, plugin).data
        without = model.encode(base, x).data
        np.testing.assert_allclose(with_plugin, without, atol=1e-6)

    def test_one_layer_hand_case(self):
        # W0=1, B=2, A=3, alpha=r: output = (1 + 6) * x
        enc = one_by_one_base(1.0)
        ad = model.LoraAdapter(0, Tensor([[3.0]]), Tensor([[2.0]]), rank=1, alpha=1.0)
        plugin = PluginModule({0: ad})
        out = model.encode(enc, Tensor([[0.5]]), plugin)
        assert out.data[0, 0] == pytest.approx(3.5, rel=1e-6)

    def test_zero_dropout_training_equals_eval(self, base):
        rng = nm.make_rng(4)
        plugin = PluginModule.fresh(base, 8, 8.0, rng, dropout_p=0.0)
        for ad in plugin.adapters.values():
            ad.b.data[:] = rng.normal(size=ad.b.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(3, base.input_dim)).astype(np.float32))
        train_mode = model.encode(base, x, plugin, training=True, rng=nm.make_rng(9)).data
        eval_mode = model.encode(base, x, plugin, training=False).data
        np.testing.assert_array_equal(train_mode, eval_mode)

    def test_alpha_linearity(self):
        # Doubling alpha doubles the adapter path's contribution exactly.
        enc = one_by_one_base(1.0)
        x = Tensor([[1.0]])
        out = {}
        for alpha in (1.0, 2.0):
            ad = model.LoraAdapter(0, Tensor([[3.0]]), Tensor([[2.0]]), 1, alpha)
            out[alpha] = model.encode(enc, x, PluginModule({0: ad})).data[0, 0] - 1.0
        assert out[2.0] == pytest.approx(2 * out[1.0], rel=1e-6)

    def test_encode_np_agrees_with_tape_forward(self, base):
        rng = nm.make_rng(6)
        plugin = PluginModule.fresh(base, 8, 8.0, rng)
        for ad in plugin.adapters.values():
            ad.b.data[:] = rng.normal(size=ad.b.shape).astype(np.float32) * 0.1
        x = rng.normal(size=(5, base.input_dim)).astype(np.float32)
        tape = model.encode(base, Tensor(x), plugin).data
        fast = model.encode_np(base, plugin.layer_deltas(), x)
        np.testing.assert_allclose(tape, fast, atol=2e-5)


class TestEncodeGradients:
    def test_adapter_gradients_match_finite_differences(self, base):
        # every adapter A and B of the two-layer encoder, through encode ->
        # classify -> cross-entropy in training mode with dropout 0.1; the rng
        # is reseeded for each evaluation so the dropout masks stay fixed
        rng = nm.make_rng(2)
        plugin = PluginModule.fresh(base, 2, 4.0, rng, dropout_p=0.1)
        for ad in plugin.adapters.values():
            ad.a.data[:] = rng.normal(0.0, 1.0 / np.sqrt(ad.a.shape[1]), size=ad.a.shape)
            ad.b.data[:] = rng.normal(0.0, 0.3, size=ad.b.shape)
        table = LabelEmbeddingTable("t", ["a", "b", "c"], base.embed_dim)
        x = Tensor(rng.normal(size=(8, base.input_dim)).astype(np.float32))
        labels = np.arange(8) % 3

        def forward():
            emb = model.encode(base, x, plugin, training=True, rng=nm.make_rng(99))
            logits = model.classify(emb, table, 0.5)
            return emb, logits, nm.softmax_cross_entropy(logits, labels)

        def loss():
            return forward()[2]

        def richardson_fd(t, eps=2e-2):
            # cancels the O(eps^2) truncation error of central differences,
            # which float32 rounding keeps from being shrunk through eps alone
            fd = lambda e: nm.finite_difference_grad(lambda _: loss().item(), t, e).data
            return (4.0 * fd(eps) - fd(2.0 * eps)) / 3.0

        params = plugin.parameters()
        emb, logits, out = forward()
        grads = emb.backward(logits.backward(out.backward()))
        assert len(params) == 4
        # in plugin.parameters() order: the four shapes are distinct
        assert [g.shape for g in grads] == [p.shape for p in params]
        for p, g in zip(params, grads):
            assert rel_err(g, richardson_fd(p)) < 1e-4


class TestClassify:
    def test_row_embedding_wins(self, base):
        table = LabelEmbeddingTable("t", ["left", "right", "up"], base.embed_dim)
        for j in range(3):
            logits = model.classify(Tensor(table.rows.data[j].copy()), table)
            assert np.argmax(logits.data, axis=-1) == j

    def test_orthogonal_embedding_ties_break_low(self):
        table = LabelEmbeddingTable.__new__(LabelEmbeddingTable)
        table.task_name = "t"
        table.labels = ["a", "b"]
        table.rows = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32))
        logits = model.classify(Tensor(np.array([0.0, 0.0, 1.0], dtype=np.float32)), table)
        np.testing.assert_allclose(logits.data, 0.0, atol=1e-6)
        assert np.argmax(logits.data, axis=-1) == 0

    def test_two_class_hand_cosines(self):
        table = LabelEmbeddingTable.__new__(LabelEmbeddingTable)
        table.task_name = "t"
        table.labels = ["a", "b"]
        table.rows = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32))
        e = np.array([2.0, 1.0], dtype=np.float32)
        logits = model.classify(Tensor(e), table, temperature=1.0).data
        want = np.array([2.0 / np.sqrt(5.0), 3.0 / np.sqrt(10.0)])
        np.testing.assert_allclose(logits, want, atol=1e-6)

    def test_scale_invariance(self, base):
        rng = nm.make_rng(8)
        table = LabelEmbeddingTable("t", ["one", "two"], base.embed_dim)
        e = rng.normal(size=base.embed_dim).astype(np.float32)
        l1 = model.classify(Tensor(e), table).data
        l2 = model.classify(Tensor(3.7 * e), table).data
        np.testing.assert_allclose(l1, l2, atol=1e-6)
        assert np.argmax(l1, axis=-1) == np.argmax(l2, axis=-1)

    def test_zero_embedding_rejected(self, base):
        table = LabelEmbeddingTable("t", ["one", "two"], base.embed_dim)
        with pytest.raises(DegenerateInputError):
            model.classify(Tensor(np.zeros(base.embed_dim, dtype=np.float32)), table)

    def test_identical_labels_share_rows_across_tasks(self):
        t1 = LabelEmbeddingTable("task1", ["shared label", "other a"], 32)
        t2 = LabelEmbeddingTable("task2", ["shared label", "other b"], 32)
        np.testing.assert_array_equal(t1.rows.data[0], t2.rows.data[0])
        assert not np.array_equal(t1.rows.data[1], t2.rows.data[1])


class TestTrainPlugin:
    def test_defaults_match_reference_settings(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.batch_size == 64
        assert cfg.rank == 16 and cfg.alpha == 16.0
        assert cfg.dropout_p == 0.1

    def test_separable_task_trains_and_base_stays_frozen(self, base):
        rng = nm.make_rng(10)
        n = 60
        x = rng.normal(size=(n, base.input_dim)).astype(np.float32)
        y = (rng.random(n) < 0.5).astype(np.int64)
        x[y == 0, :8] += 2.5
        x[y == 1, 8:16] += 2.5
        table = LabelEmbeddingTable("sep", ["lo", "hi"], base.embed_dim)
        base_hash = base.param_hash()
        table_hash = table.param_hash()
        cfg = TrainConfig(epochs=30, batch_size=16)
        plugin = model.train_plugin(base, table, x, y, cfg, nm.make_rng(11))
        emb = model.encode_np(base, plugin.layer_deltas(), x)
        preds = np.argmax(model.cosine_logits_np(emb, table), axis=-1)
        assert (preds == y).mean() >= 0.95
        assert base.param_hash() == base_hash
        assert table.param_hash() == table_hash
        assert plugin.task_tags == ["sep"]

    def test_empty_dataset_rejected(self, base):
        table = LabelEmbeddingTable("t", ["a", "b"], base.embed_dim)
        with pytest.raises(InputError):
            model.train_plugin(base, table, np.zeros((0, base.input_dim)),
                               np.zeros(0, dtype=np.int64), TrainConfig(epochs=1),
                               nm.make_rng(0))

    def test_training_is_deterministic_given_seed(self, base):
        rng = nm.make_rng(33)
        x = rng.normal(size=(40, base.input_dim)).astype(np.float32)
        y = (rng.random(40) < 0.5).astype(np.int64)
        table = LabelEmbeddingTable("det", ["a", "b"], base.embed_dim)
        cfg = TrainConfig(epochs=5, batch_size=16)
        first = model.train_plugin(base, table, x, y, cfg, nm.make_rng(77))
        second = model.train_plugin(base, table, x, y, cfg, nm.make_rng(77))
        assert first.to_bytes() == second.to_bytes()


class TestPluginSerialization:
    def test_round_trip_and_stable_id(self, base):
        rng = nm.make_rng(12)
        plugin = PluginModule.fresh(base, 4, 8.0, rng, dropout_p=0.1)
        for ad in plugin.adapters.values():
            ad.b.data[:] = rng.normal(size=ad.b.shape).astype(np.float32)
        buf = plugin.to_bytes()
        back = PluginModule.from_bytes(buf)
        assert back.to_bytes() == buf
        assert back.content_id() == plugin.content_id()

    def test_identical_parameters_identical_ids(self, base):
        rng = nm.make_rng(13)
        plugin = PluginModule.fresh(base, 4, 8.0, rng)
        clone = PluginModule.from_bytes(plugin.to_bytes(), task_tags=["different tag"])
        assert clone.content_id() == plugin.content_id()

    def test_tampered_bytes_change_id(self, base):
        plugin = PluginModule.fresh(base, 4, 8.0, nm.make_rng(14))
        buf = bytearray(plugin.to_bytes())
        buf[-1] ^= 0xFF
        assert PluginModule.from_bytes(bytes(buf)).content_id() != plugin.content_id()
