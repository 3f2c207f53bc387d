import numpy as np
import pytest

from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.errors import DegenerateInputError, InputError, ParameterError, ShapeError
from forge.model import (
    BaseEncoder,
    LabelEmbeddingTable,
    PluginModule,
    TrainConfig,
)
from forge.numerics import Tensor
from reference import classify, finite_difference_grad, rel_err, softmax_cross_entropy

TEMPERATURE = TrainConfig.temperature


@pytest.fixture(scope="module")
def base():
    return BaseEncoder.from_seed(5)


def one_by_one_base(w0: float) -> BaseEncoder:
    return BaseEncoder([[[w0]]], [[0.0]])


# every way forge builds a plugin, at (base, rank, alpha)
BUILDERS = {
    "fresh": lambda base, rank, alpha: PluginModule.fresh(base, rank, alpha, nm.make_rng(2)),
    "zero": PluginModule.zero,
    "random features": lambda base, rank, alpha: dst.random_feature_plugin(
        base, rank, alpha, nm.make_rng(2)),
}


class TestAdapterInit:
    def test_fresh_adapter_has_zero_delta(self, base):
        rng = nm.make_rng(0)
        plugin = PluginModule.fresh(base, rank=16, alpha=16.0, rng=rng)
        for ad in plugin.adapters.values():
            assert np.all(ad.effective_delta() == 0.0)
            assert np.any(ad.a != 0.0)

    def test_paper_default_rank_sixteen_accepted(self, base):
        plugin = PluginModule.fresh(base, 16, 16.0, nm.make_rng(1))
        model.check_plugin(base, plugin)
        assert all(ad.rank == 16 and ad.alpha == 16.0 for ad in plugin.adapters.values())

    def test_rank_bound_rejected(self, base):
        # the default encoder's layers are 64 x 256 and 32 x 64, so rank 33
        # fits layer 0 and not layer 1
        for rank in (33, 0, -1):
            for build in BUILDERS.values():
                with pytest.raises(ParameterError):
                    build(base, rank, 16.0)

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf")])
    def test_alpha_rule_rejected(self, base, builder, alpha):
        with pytest.raises(ParameterError):
            BUILDERS[builder](base, 4, alpha)

    def test_check_plugin_refuses_a_rank_above_its_layer(self, base):
        plugin = PluginModule.zero(base, 16, 16.0)
        d, k = base.layer_dims(1)
        ad = plugin.adapters[1]
        ad.a, ad.b = np.zeros((33, k), np.float32), np.zeros((d, 33), np.float32)
        with pytest.raises(ParameterError, match="rank 33"):
            model.check_plugin(base, plugin)


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
        ad = model.LoraAdapter([[3.0]], [[2.0]], alpha=1.0)
        plugin = PluginModule({0: ad})
        out = model.encode(enc, Tensor([[0.5]]), plugin)
        assert out.data[0, 0] == pytest.approx(3.5, rel=1e-6)

    def test_zero_dropout_training_equals_eval(self, base):
        rng = nm.make_rng(4)
        plugin = PluginModule.fresh(base, 8, 8.0, rng)
        for ad in plugin.adapters.values():
            ad.b[:] = rng.normal(size=ad.b.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(3, base.input_dim)).astype(np.float32))
        train_mode = model.encode(base, x, plugin, training=True, rng=nm.make_rng(9),
                                  dropout_p=0.0).data
        eval_mode = model.encode(base, x, plugin, training=False).data
        np.testing.assert_array_equal(train_mode, eval_mode)

    def test_alpha_linearity(self):
        # Doubling alpha doubles the adapter path's contribution exactly.
        enc = one_by_one_base(1.0)
        x = Tensor([[1.0]])
        out = {}
        for alpha in (1.0, 2.0):
            ad = model.LoraAdapter([[3.0]], [[2.0]], alpha)
            out[alpha] = model.encode(enc, x, PluginModule({0: ad})).data[0, 0] - 1.0
        assert out[2.0] == pytest.approx(2 * out[1.0], rel=1e-6)

    def test_encode_np_refuses_rows_of_another_width(self, base):
        with pytest.raises(ShapeError, match="input dim 64"):
            model.encode_np(base, None, np.ones((2, 64), dtype=np.float32))

    def test_encode_np_agrees_with_tape_forward(self, base):
        rng = nm.make_rng(6)
        plugin = PluginModule.fresh(base, 8, 8.0, rng)
        for ad in plugin.adapters.values():
            ad.b[:] = rng.normal(size=ad.b.shape).astype(np.float32) * 0.1
        x = rng.normal(size=(5, base.input_dim)).astype(np.float32)
        tape = model.encode(base, Tensor(x), plugin).data
        fast = model.encode_np(base, plugin.layer_deltas(), x)
        np.testing.assert_allclose(tape, fast, atol=2e-5)


class TestEncodeGradients:
    def test_adapter_gradients_match_finite_differences(self, base):
        # every adapter A and B of the two-layer encoder, as training takes
        # them: encode in training mode with dropout 0.1, then the head and
        # loss of _head_loss_grad; the loss differentiated is the reference
        # chain's. The rng is reseeded for each evaluation so the dropout
        # masks stay fixed
        rng = nm.make_rng(2)
        plugin = PluginModule.fresh(base, 2, 4.0, rng)
        for ad in plugin.adapters.values():
            ad.a[:] = rng.normal(0.0, 1.0 / np.sqrt(ad.a.shape[1]), size=ad.a.shape)
            ad.b[:] = rng.normal(0.0, 0.3, size=ad.b.shape)
        table = LabelEmbeddingTable("t", ["a", "b", "c"], base.embed_dim)
        x = Tensor(rng.normal(size=(8, base.input_dim)).astype(np.float32))
        labels = np.arange(8) % 3

        def embed():
            return model.encode(base, x, plugin, training=True, rng=nm.make_rng(99),
                                dropout_p=0.1)

        def loss():
            return softmax_cross_entropy(classify(embed(), table, 0.5), labels)

        def richardson_fd(t, eps=2e-2):
            # cancels the O(eps^2) truncation error of central differences,
            # which float32 rounding keeps from being shrunk through eps alone
            fd = lambda e: finite_difference_grad(lambda _: loss().item(), t, e).data
            return (4.0 * fd(eps) - fd(2.0 * eps)) / 3.0

        params = plugin.parameters()
        emb = embed()
        grads = emb.backward(model._head_loss_grad(emb.data, model._label_head(table), 2.0,
                                                   labels))
        assert len(params) == 4
        # in plugin.parameters() order: the four shapes are distinct
        assert [g.shape for g in grads] == [p.shape for p in params]
        for p, g in zip(params, grads):
            # a Tensor over the plugin's own float32 array, so each
            # perturbation reaches the adapter
            assert rel_err(g, richardson_fd(Tensor(p))) < 1e-4


class TestClassify:
    """The cosine head that evaluation runs, ``cosine_logits_np``."""

    def test_row_embedding_wins(self, base):
        table = LabelEmbeddingTable("t", ["left", "right", "up"], base.embed_dim)
        logits = model.cosine_logits_np(table.rows, table, TEMPERATURE)
        np.testing.assert_array_equal(np.argmax(logits, axis=-1), [0, 1, 2])

    def test_orthogonal_embedding_ties_break_low(self):
        table = LabelEmbeddingTable.__new__(LabelEmbeddingTable)
        table.task_name = "t"
        table.labels = ["a", "b"]
        table.rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32)
        logits = model.cosine_logits_np(np.array([[0.0, 0.0, 1.0]], dtype=np.float32), table,
                                        TEMPERATURE)
        np.testing.assert_allclose(logits, 0.0, atol=1e-6)
        assert np.argmax(logits, axis=-1) == [0]

    def test_two_class_hand_cosines(self):
        table = LabelEmbeddingTable.__new__(LabelEmbeddingTable)
        table.task_name = "t"
        table.labels = ["a", "b"]
        table.rows = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        e = np.array([[2.0, 1.0]], dtype=np.float32)
        logits = model.cosine_logits_np(e, table, temperature=1.0)
        want = np.array([[2.0 / np.sqrt(5.0), 3.0 / np.sqrt(10.0)]])
        np.testing.assert_allclose(logits, want, atol=1e-6)

    def test_scale_invariance(self, base):
        rng = nm.make_rng(8)
        table = LabelEmbeddingTable("t", ["one", "two"], base.embed_dim)
        e = rng.normal(size=(1, base.embed_dim)).astype(np.float32)
        l1 = model.cosine_logits_np(e, table, TEMPERATURE)
        l2 = model.cosine_logits_np(3.7 * e, table, TEMPERATURE)
        np.testing.assert_allclose(l1, l2, atol=1e-6)
        assert np.argmax(l1, axis=-1) == np.argmax(l2, axis=-1)

    def test_zero_embedding_rejected(self, base):
        # by evaluation's head and by training's
        table = LabelEmbeddingTable("t", ["one", "two"], base.embed_dim)
        zero = np.zeros((1, base.embed_dim), dtype=np.float32)
        with pytest.raises(DegenerateInputError):
            model.cosine_logits_np(zero, table, TEMPERATURE)
        with pytest.raises(DegenerateInputError):
            model._head_loss_grad(zero, model._label_head(table), 1.0 / TEMPERATURE,
                                  np.array([0]))

    def test_identical_labels_share_rows_across_tasks(self):
        t1 = LabelEmbeddingTable("task1", ["shared label", "other a"], 32)
        t2 = LabelEmbeddingTable("task2", ["shared label", "other b"], 32)
        np.testing.assert_array_equal(t1.rows[0], t2.rows[0])
        assert not np.array_equal(t1.rows[1], t2.rows[1])


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

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("batch_size", 0), ("rank", 0), ("learning_rate", 0.0),
        ("learning_rate", float("inf")), ("alpha", float("nan")), ("temperature", 0.0),
        ("momentum", -0.1), ("momentum", float("nan")), ("weight_decay", float("inf")),
        ("dropout_p", -0.1), ("dropout_p", 1.0), ("dropout_p", float("nan"))])
    def test_setting_out_of_range_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            TrainConfig(**{field: value})

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
        preds = np.argmax(model.cosine_logits_np(emb, table, TEMPERATURE), axis=-1)
        assert (preds == y).mean() >= 0.95
        assert base.param_hash() == base_hash
        assert table.param_hash() == table_hash

    @pytest.mark.parametrize("setting", [{"learning_rate": 1e6}, {"temperature": 1e-30}])
    def test_divergent_training_is_refused(self, base, setting):
        rng = nm.make_rng(3)
        x = rng.normal(size=(40, base.input_dim)).astype(np.float32)
        table = LabelEmbeddingTable("t", ["a", "b"], base.embed_dim)
        with pytest.raises(ParameterError, match="non-finite plugin weights"):
            model.train_plugin(base, table, x, np.arange(40) % 2,
                               TrainConfig(epochs=5, batch_size=16, **setting), rng)

    def test_empty_dataset_rejected(self, base):
        table = LabelEmbeddingTable("t", ["a", "b"], base.embed_dim)
        with pytest.raises(InputError):
            model.train_plugin(base, table, np.zeros((0, base.input_dim)),
                               np.zeros(0, dtype=np.int64), TrainConfig(epochs=1),
                               nm.make_rng(0))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_the_table_rejected_before_the_first_step(self, base, bad,
                                                                   monkeypatch):
        table = LabelEmbeddingTable("t", ["a", "b"], base.embed_dim)
        encodes = []
        monkeypatch.setattr(model, "encode", lambda *args, **kwargs: encodes.append(args))
        x = np.ones((3, base.input_dim), dtype=np.float32)
        with pytest.raises(InputError, match=r"labels must lie in \[0, 2\)"):
            model.train_plugin(base, table, x, np.array([0, 1, bad]), TrainConfig(epochs=1),
                               nm.make_rng(0))
        assert encodes == []

    @pytest.mark.parametrize("changes", [
        {}, {"dropout_p": 0.0}, {"momentum": 0.0}, {"weight_decay": 0.0},
        {"iterations": 5}], ids=["defaults", "no dropout", "no momentum",
                                  "no weight decay", "iterations cap"])
    def test_plugin_bytes_match_the_node_chain(self, base, changes):
        # train_plugin's one head-and-loss gradient and flat update against
        # a loop over tape nodes: encode -> the reference classify ->
        # softmax_cross_entropy, each backward handed on by Tensor.backward,
        # then sgd_step on the four arrays; 40 rows in batches of 16
        rng = nm.make_rng(37)
        x = rng.normal(size=(40, base.input_dim)).astype(np.float32)
        y = np.arange(40) % 3
        table = LabelEmbeddingTable("chain", ["a", "b", "c"], base.embed_dim)
        settings = {"epochs": 3, "batch_size": 16, **changes}
        iterations = settings.pop("iterations", None)
        cfg = TrainConfig(**settings)

        rng = nm.make_rng(38)
        plugin = PluginModule.fresh(base, cfg.rank, cfg.alpha, rng)
        params = plugin.parameters()
        state = nm.SgdState(cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        budget = 3 * 3 if iterations is None else iterations
        steps = 0
        while steps < budget:
            order = rng.permutation(40)
            for start in range(0, 40, 16):
                if steps == budget:
                    break
                idx = order[start:start + 16]
                emb = model.encode(base, Tensor(x[idx]), plugin, training=True, rng=rng,
                                   dropout_p=cfg.dropout_p)
                logits = classify(emb, table, cfg.temperature)
                loss = softmax_cross_entropy(logits, y[idx])
                nm.sgd_step(params, emb.backward(logits.backward(loss.backward())), state)
                steps += 1

        trained = model.train_plugin(base, table, x, y, cfg, nm.make_rng(38),
                                     iterations=iterations)
        assert trained.to_bytes() == plugin.to_bytes()

    def test_training_is_deterministic_given_seed(self, base):
        rng = nm.make_rng(33)
        x = rng.normal(size=(40, base.input_dim)).astype(np.float32)
        y = (rng.random(40) < 0.5).astype(np.int64)
        table = LabelEmbeddingTable("det", ["a", "b"], base.embed_dim)
        cfg = TrainConfig(epochs=5, batch_size=16)
        first = model.train_plugin(base, table, x, y, cfg, nm.make_rng(77))
        second = model.train_plugin(base, table, x, y, cfg, nm.make_rng(77))
        assert first.to_bytes() == second.to_bytes()

    def test_a_plugin_and_its_round_trip_copy_train_identically(self, base):
        # dropout is a setting of training, so the bytes, and with them the
        # content id, hold everything a further training step depends on
        rng = nm.make_rng(34)
        x = rng.normal(size=(24, base.input_dim)).astype(np.float32)
        y = np.arange(24) % 2
        table = LabelEmbeddingTable("copy", ["a", "b"], base.embed_dim)
        plugin = model.train_plugin(base, table, x, y,
                                    TrainConfig(epochs=2, batch_size=8, dropout_p=0.1),
                                    nm.make_rng(35))
        copy = PluginModule.from_bytes(plugin.to_bytes())

        def step(p):
            emb = model.encode(base, Tensor(x), p, training=True, rng=nm.make_rng(36),
                               dropout_p=0.1)
            grad = model._head_loss_grad(emb.data, model._label_head(table), 1.0 / TEMPERATURE,
                                         y)
            return [emb.data, *emb.backward(grad)]

        trained, copied = step(plugin), step(copy)
        assert not np.array_equal(trained[0], model.encode(base, Tensor(x), plugin).data)
        for got, want in zip(copied, trained, strict=True):
            np.testing.assert_array_equal(got, want)


class TestPluginSerialization:
    def test_round_trip_and_stable_id(self, base):
        rng = nm.make_rng(12)
        plugin = PluginModule.fresh(base, 4, 8.0, rng)
        for ad in plugin.adapters.values():
            ad.b[:] = rng.normal(size=ad.b.shape).astype(np.float32)
        buf = plugin.to_bytes()
        back = PluginModule.from_bytes(buf)
        assert back.to_bytes() == buf
        assert back.content_id() == plugin.content_id()

    def test_identical_parameters_identical_ids(self, base):
        rng = nm.make_rng(13)
        plugin = PluginModule.fresh(base, 4, 8.0, rng)
        clone = PluginModule.from_bytes(plugin.to_bytes())
        assert clone.content_id() == plugin.content_id()

    def test_tampered_bytes_change_id(self, base):
        plugin = PluginModule.fresh(base, 4, 8.0, nm.make_rng(14))
        buf = bytearray(plugin.to_bytes())
        buf[-1] ^= 0xFF
        assert PluginModule.from_bytes(bytes(buf)).content_id() != plugin.content_id()
