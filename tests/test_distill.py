import numpy as np
import pytest

from forge import datasets as dsets
from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.errors import FormatError, InputError, ParameterError, ShapeError
from forge.numerics import Tensor


def rel_err(got, want):
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(np.asarray(got, np.float64) - np.asarray(want, np.float64))) / denom


@pytest.fixture(scope="module")
def base():
    return model.BaseEncoder.from_seed(21)


@pytest.fixture(scope="module")
def toy_task():
    """Small two-blob task for fast distillation runs."""
    rng = nm.make_rng(100)
    n = 80
    x = rng.normal(size=(n, 256)).astype(np.float32)
    y = np.repeat([0, 1], n // 2).astype(np.int64)
    x[y == 0, :32] += 1.5
    x[y == 1, 32:64] += 1.5
    spec = dsets.TaskSpec("blob-task", ["first blob", "second blob"])
    data = dsets.LabeledDataset(x, y)
    return spec, data


class TestDsaAugment:
    def test_identity_params_are_identity(self):
        rng = nm.make_rng(0)
        x = Tensor(rng.normal(size=(3, 4, 4)).astype(np.float32))
        out = dst.dsa_augment(x, dst.DsaParams.identity())
        np.testing.assert_array_equal(out.data, x.data)

    def test_same_params_same_output(self):
        rng = nm.make_rng(1)
        x = Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32))
        params = dst.DsaParams.sample(nm.make_rng(5))
        a = dst.dsa_augment(x, params).data
        b = dst.dsa_augment(Tensor(x.data.copy()), params).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_matches_finite_differences(self):
        rng = nm.make_rng(2)
        for trial in range(40):  # odd trials pass in a longer noise draw
            x = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)).astype(np.float32))
            params = dst.DsaParams.sample(nm.make_rng(trial // 2))
            noise = params.noise(5, (4, 4)) if trial % 2 else None

            out = dst.dsa_augment(x, params, noise)
            grad = out.backward(2.0 * out.data)  # the gradient of the sum of squares
            fd = nm.finite_difference_grad(
                lambda t: float(np.sum(np.square(dst.dsa_augment(t, params, noise).data,
                                                 dtype=np.float64))), x, eps=1e-2)
            assert rel_err(grad, fd.data) < 1e-4

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("shift", [(0, 0), (2, -1)])
    @pytest.mark.parametrize("scale", [1.0, 0.85])
    def test_passed_noise_is_the_reseeded_draw(self, flip, shift, scale):
        params = dst.DsaParams(flip, shift, scale, noise_seed=77, noise_std=0.01)
        noise = params.noise(64, (16, 16))  # one draw for the longest batch
        rng = nm.make_rng(3)
        for n in (dst.DistillConfig().ipc, 64):
            x = Tensor(rng.normal(size=(n, 16, 16)).astype(np.float32))
            np.testing.assert_array_equal(dst.dsa_augment(x, params, noise).data,
                                          dst.dsa_augment(x, params).data)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (4, 4, 5), (4, 16), (4, 4, 4, 1)])
    def test_noise_not_covering_the_batch_rejected(self, shape):
        x = Tensor(np.ones((4, 4, 4), dtype=np.float32))
        params = dst.DsaParams(noise_seed=1, noise_std=0.01)
        with pytest.raises(ShapeError):
            dst.dsa_augment(x, params, np.zeros(shape, dtype=np.float32))

    def test_flip_is_reindexing(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 4))
        out = dst.dsa_augment(x, dst.DsaParams(flip=True))
        np.testing.assert_array_equal(out.data[0, 0], [3, 2, 1, 0])


class TestDmLoss:
    def test_zero_iff_identical_means(self, base):
        rng = nm.make_rng(3)
        batch = Tensor(rng.normal(size=(6, base.input_dim)).astype(np.float32))
        loss = dst.dm_loss({0: model.encode(base, batch).data},
                           {0: model.encode(base, Tensor(batch.data.copy()))})
        assert loss.item() == pytest.approx(0.0, abs=1e-10)
        # different means as features give exactly ||v||^2
        mu = rng.normal(size=(1, 8)).astype(np.float32)
        v = rng.normal(size=(1, 8)).astype(np.float32)
        loss2 = dst.dm_loss({0: mu}, {0: Tensor(mu + v)})
        assert loss2.item() == pytest.approx(float(np.sum(v.astype(np.float64) ** 2)),
                                             rel=1e-5)
        assert loss2.item() > 0

    def test_nonnegative_on_random_inputs(self, base):
        rng = nm.make_rng(4)
        feature = lambda a: model.encode(base, Tensor(a))
        for _ in range(10):
            real = {0: feature(rng.normal(size=(5, base.input_dim))).data}
            syn = {0: feature(rng.normal(size=(3, base.input_dim)))}
            assert dst.dm_loss(real, syn).item() >= 0.0

    def test_missing_class_rejected(self, base):
        x = model.encode(base, Tensor(np.ones((2, base.input_dim), np.float32)))
        with pytest.raises(InputError):
            dst.dm_loss({0: x.data, 1: x.data}, {0: x})

    def test_gradient_through_encoder_matches_finite_differences(self, base):
        rng = nm.make_rng(5)
        plugin = dst.random_feature_plugin(base, 4, 4.0, rng)
        feature = lambda t: model.encode(base, t, plugin)
        real = {0: feature(Tensor(rng.normal(size=(4, base.input_dim)).astype(np.float32))).data}
        for _ in range(5):
            syn = Tensor(rng.normal(size=(2, base.input_dim)).astype(np.float32))
            feat = feature(syn)
            (g_feat,) = dst.dm_loss(real, {0: feat}).backward()
            grad = feat.backward(g_feat)
            fd = nm.finite_difference_grad(
                lambda t: dst.dm_loss(real, {0: feature(t)}).item(), syn, eps=5e-2)
            assert rel_err(grad, fd.data) < 1e-4

    def test_single_item_step_follows_analytic_gradient(self):
        # identity extractor, no augmentation: grad = 2 (s - mu)
        rng = nm.make_rng(6)
        mu = rng.normal(size=(4, 8)).astype(np.float32)
        s0 = rng.normal(size=(1, 8)).astype(np.float32)
        s = Tensor(s0.copy())
        loss = dst.dm_loss({0: mu}, {0: s})
        lr = 0.25
        nm.sgd_step([s], loss.backward(), nm.SgdState(learning_rate=lr))
        want = s0 - lr * 2.0 * (s0 - mu.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(s.data, want, atol=1e-5)


class TestDistill:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ParameterError):
            dst.DistillConfig(iterations=0)

    def test_zero_ipc_rejected(self):
        with pytest.raises(ParameterError):
            dst.DistillConfig(ipc=0)

    def test_empty_class_rejected(self, base, toy_task):
        spec, data = toy_task
        only_zero = dsets.LabeledDataset(data.inputs[data.labels == 0],
                                         np.zeros((data.labels == 0).sum(), np.int64))
        cfg = dst.DistillConfig(iterations=2, ipc=2)
        with pytest.raises(InputError):
            dst.distill(spec, only_zero, base, cfg, nm.make_rng(0))

    def test_seeded_run_bit_reproducible(self, base, toy_task):
        spec, data = toy_task
        cfg = dst.DistillConfig(iterations=8, ipc=3)
        a = dst.distill(spec, data, base, cfg, nm.make_rng(42))
        b = dst.distill(spec, data, base, cfg, nm.make_rng(42))
        assert a.to_bytes() == b.to_bytes()
        assert a.content_id() == b.content_id()

    def test_each_iteration_steps_only_the_synthetic_set(self, base, toy_task, monkeypatch):
        # the random feature adapter is drawn fresh every iteration and never trained
        spec, data = toy_task
        calls = []
        sgd_step = nm.sgd_step

        def counted(params, *args, **kwargs):
            calls.append(list(params))
            return sgd_step(params, *args, **kwargs)

        monkeypatch.setattr(nm, "sgd_step", counted)
        out = dst.distill(spec, data, base, dst.DistillConfig(iterations=4, ipc=2),
                          nm.make_rng(3))
        # one leaf per class, the same leaves every iteration
        assert len(calls) == 4
        assert all(len(params) == spec.num_classes for params in calls)
        assert len({tuple(map(id, params)) for params in calls}) == 1
        got = np.concatenate([p.data for p in calls[0]]).reshape(out.inputs.shape)
        np.testing.assert_array_equal(got, out.inputs)

    def test_real_data_and_base_untouched(self, base, toy_task):
        spec, data = toy_task
        before_inputs = data.inputs.tobytes()
        before_base = base.param_hash()
        cfg = dst.DistillConfig(iterations=5, ipc=2)
        dst.distill(spec, data, base, cfg, nm.make_rng(1))
        assert data.inputs.tobytes() == before_inputs
        assert base.param_hash() == before_base

    def test_loss_trend_nonincreasing_smoke(self, base, toy_task):
        # first-window vs last-window mean of the matching loss, 10 seeded runs
        spec, data = toy_task
        wins = 0
        for seed in range(10):
            losses = []
            cfg = dst.DistillConfig(iterations=50, ipc=2, dsa_enabled=False)
            rng = nm.make_rng(seed)
            syn = None

            # reuse distill internals through a manual short loop
            num_classes = spec.num_classes
            class_idx = data.class_indices(num_classes)
            syn = [Tensor(rng.normal(0, 1, size=(cfg.ipc, 256)).astype(np.float32))
                   for _ in range(num_classes)]
            state = nm.SgdState(learning_rate=1.0)
            for step in range(cfg.iterations):
                plugin = dst.random_feature_plugin(base, cfg.rank, cfg.alpha, rng)
                feature = lambda t: model.encode(base, t, plugin)
                real_by, syn_by = {}, {}
                for cls in range(num_classes):
                    take = rng.choice(class_idx[cls], size=min(32, class_idx[cls].size),
                                      replace=False)
                    real_by[cls] = feature(Tensor(data.inputs[take])).data
                    syn_by[cls] = feature(syn[cls])
                loss = dst.dm_loss(real_by, syn_by)
                losses.append(loss.item())
                grads = [syn_by[cls].backward(g) for cls, g in enumerate(loss.backward())]
                nm.sgd_step(syn, grads, state)
            first = np.mean(losses[:10])
            last = np.mean(losses[-10:])
            if last <= first:
                wins += 1
        assert wins >= 8

    def test_distilled_set_shape_and_labels(self, base, toy_task):
        spec, data = toy_task
        cfg = dst.DistillConfig(iterations=5, ipc=4)
        out = dst.distill(spec, data, base, cfg, nm.make_rng(2))
        assert out.inputs.shape == (8, 256)
        assert np.array_equal(out.labels, [0, 0, 0, 0, 1, 1, 1, 1])
        assert np.all(np.isfinite(out.inputs))


class TestEvalDistilled:
    def test_verbatim_real_subset_close_to_fewshot_baseline(self, base, toy_task):
        spec, data = toy_task
        rng = nm.make_rng(7)
        ipc = 8
        rows, labels = [], []
        for cls, idx in enumerate(data.class_indices(2)):
            take = rng.choice(idx, size=ipc, replace=False)
            rows.append(data.inputs[take])
            labels.extend([cls] * ipc)
        subset = np.concatenate(rows)
        labels = np.array(labels)
        distilled = dst.DistilledDataset(spec.name, 2, ipc, spec.input_shape,
                                         subset, labels)
        cfg = dst.DistillConfig(iterations=1, ipc=ipc, eval_iterations=200)
        got = dst.eval_distilled(distilled, base, spec, data, cfg, nm.make_rng(8))

        # oracle: run the same training protocol on the same items directly
        table = model.LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
        train_cfg = model.TrainConfig(
            epochs=1, learning_rate=cfg.inner_lr, momentum=cfg.inner_momentum,
            weight_decay=cfg.inner_weight_decay, batch_size=min(cfg.eval_batch_size, 16),
            rank=cfg.rank, alpha=cfg.alpha, dropout_p=0.0)
        plugin = model.train_plugin(base, table, subset, labels, train_cfg,
                                    nm.make_rng(8), iterations=200)
        from forge.evaluation import evaluate_deltas
        want_acc, _ = evaluate_deltas(base, plugin.layer_deltas(), table, data)
        assert got["acc"] == pytest.approx(want_acc, abs=1e-9)

    def test_default_eval_iterations_is_thousand(self):
        assert dst.DistillConfig().eval_iterations == 1000

    def test_default_schedule_constants(self):
        cfg = dst.DistillConfig()
        assert cfg.iterations == 5000
        assert cfg.ipc == 20


class TestDistilledSerialization:
    def test_round_trip(self, base, toy_task):
        spec, data = toy_task
        cfg = dst.DistillConfig(iterations=3, ipc=2)
        out = dst.distill(spec, data, base, cfg, nm.make_rng(9))
        buf = out.to_bytes()
        back = dst.DistilledDataset.from_bytes(buf)
        assert back.to_bytes() == buf
        assert back.content_id() == out.content_id()
        assert back.task_name == spec.name

    def test_truncation_rejected(self, base, toy_task):
        spec, data = toy_task
        cfg = dst.DistillConfig(iterations=2, ipc=2)
        buf = dst.distill(spec, data, base, cfg, nm.make_rng(10)).to_bytes()
        with pytest.raises(FormatError):
            dst.DistilledDataset.from_bytes(buf[:-5])

    def test_version_mismatch_rejected(self, base, toy_task):
        spec, data = toy_task
        cfg = dst.DistillConfig(iterations=2, ipc=2)
        buf = bytearray(dst.distill(spec, data, base, cfg, nm.make_rng(11)).to_bytes())
        buf[4] = 7
        with pytest.raises(FormatError, match="version"):
            dst.DistilledDataset.from_bytes(bytes(buf))
