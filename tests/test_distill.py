import numpy as np
import pytest

from forge import datasets as dsets
from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.errors import FormatError, InputError, ParameterError, ShapeError
from forge.numerics import Tensor
import reference
from reference import finite_difference_grad, rel_err


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
        params = dst.DsaParams()
        out = dst.dsa_augment(x, params, params.noise(3, (4, 4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_same_params_same_output(self):
        rng = nm.make_rng(1)
        x = Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32))
        params = dst.DsaParams.sample(nm.make_rng(5))
        noise = params.noise(2, (6, 6))
        a = dst.dsa_augment(x, params, noise).data
        b = dst.dsa_augment(Tensor(x.data.copy()), params, noise).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_matches_finite_differences(self):
        rng = nm.make_rng(2)
        for trial in range(40):  # odd trials pass in a longer noise draw
            x = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)).astype(np.float32))
            params = dst.DsaParams.sample(nm.make_rng(trial // 2))
            noise = params.noise(5 if trial % 2 else 2, (4, 4))

            out = dst.dsa_augment(x, params, noise)
            grad = out.backward(2.0 * out.data)  # the gradient of the sum of squares
            fd = finite_difference_grad(
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
            np.testing.assert_array_equal(
                dst.dsa_augment(x, params, noise).data,
                dst.dsa_augment(x, params, params.noise(n, (16, 16))).data)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (4, 4, 5), (4, 16), (4, 4, 4, 1)])
    def test_noise_not_covering_the_batch_rejected(self, shape):
        x = Tensor(np.ones((4, 4, 4), dtype=np.float32))
        params = dst.DsaParams(noise_seed=1, noise_std=0.01)
        with pytest.raises(ShapeError):
            dst.dsa_augment(x, params, np.zeros(shape, dtype=np.float32))

    def test_flip_is_reindexing(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 4))
        params = dst.DsaParams(flip=True)
        out = dst.dsa_augment(x, params, params.noise(1, (2, 4)))
        np.testing.assert_array_equal(out.data[0, 0], [3, 2, 1, 0])


class TestDmLoss:
    def test_zero_iff_identical_means(self, base):
        rng = nm.make_rng(3)
        # the loss value is the frozen reference's; dm_loss gives its gradient
        batch = Tensor(rng.normal(size=(6, base.input_dim)).astype(np.float32))
        real = model.encode(base, batch).data
        syn = model.encode(base, Tensor(batch.data.copy()))
        assert reference.dm_loss(real, [0, 2], syn, [0, 2]).item() == \
            pytest.approx(0.0, abs=1e-10)
        assert not np.any(dst.dm_loss(real, [0, 2], syn, [0, 2]))
        # different means as features give exactly the sum of ||v_c||^2
        mu = rng.normal(size=(2, 8)).astype(np.float32)
        v = rng.normal(size=(2, 8)).astype(np.float32)
        loss2 = reference.dm_loss(mu, [0, 1], Tensor(mu + v), [0, 1])
        assert loss2.item() == pytest.approx(float(np.sum(v.astype(np.float64) ** 2)),
                                             rel=1e-5)
        assert loss2.item() > 0

    def test_nonnegative_on_random_inputs(self, base):
        rng = nm.make_rng(4)
        feature = lambda a: model.encode(base, Tensor(a))
        for _ in range(10):
            real = feature(rng.normal(size=(5, base.input_dim))).data
            syn = feature(rng.normal(size=(4, base.input_dim)))
            assert reference.dm_loss(real, [0, 3], syn, [0, 2]).item() >= 0.0

    @pytest.mark.parametrize("real_rows, syn_rows", [
        ((64, 64, 64), (10, 10, 10)), ((64, 10), (3, 5)), ((1, 4), (1, 2))],
        ids=["equal blocks", "unequal blocks", "one-row block"])
    def test_gradient_is_the_frozen_node_backward(self, base, real_rows, syn_rows):
        # distill's per-step gradient: the frozen node's backward at g = 1, bit for bit
        rng = nm.make_rng(sum(real_rows) + sum(syn_rows))
        plugin = dst.random_feature_plugin(base, 4, 4.0, rng)
        rows = lambda n: Tensor(rng.normal(size=(n, base.input_dim)).astype(np.float32))
        real = model.encode(base, rows(sum(real_rows)), plugin).data
        syn = model.encode(base, rows(sum(syn_rows)), plugin)
        real_starts, syn_starts = (np.cumsum([0, *n[:-1]]) for n in (real_rows, syn_rows))
        got = dst.dm_loss(real, real_starts, syn, syn_starts)
        want = reference.dm_loss(real, real_starts, syn, syn_starts).backward()
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.float32
        assert got.shape == want.shape == syn.shape
        assert got.tobytes() == want.tobytes()

    def test_missing_class_rejected(self, base):
        x = model.encode(base, Tensor(np.ones((2, base.input_dim), np.float32)))
        with pytest.raises(InputError):
            dst.dm_loss(x.data, [0, 1], x, [0])

    @pytest.mark.parametrize("starts", [[1], [0, 0], [0, 2], [[0]], []],
                             ids=["not from row 0", "empty block", "block past the end",
                                  "starts not 1-D", "no classes"])
    def test_blocks_that_do_not_split_the_rows_rejected(self, base, starts):
        x = model.encode(base, Tensor(np.ones((2, base.input_dim), np.float32)))
        with pytest.raises(InputError):
            dst.dm_loss(x.data, starts, x, starts)

    def test_gradient_through_encoder_matches_finite_differences(self, base):
        rng = nm.make_rng(5)
        plugin = dst.random_feature_plugin(base, 4, 4.0, rng)
        feature = lambda t: model.encode(base, t, plugin)
        real = feature(Tensor(rng.normal(size=(7, base.input_dim)).astype(np.float32))).data
        for _ in range(5):  # two classes: 4 and 3 real rows, 2 synthetic rows each
            syn = Tensor(rng.normal(size=(4, base.input_dim)).astype(np.float32))
            feat = feature(syn)
            grad = feat.backward(dst.dm_loss(real, [0, 4], feat, [0, 2]))
            fd = finite_difference_grad(
                lambda t: reference.dm_loss(real, [0, 4], feature(t), [0, 2]).item(), syn,
                eps=5e-2)
            assert rel_err(grad, fd.data) < 1e-4

    def test_single_item_step_follows_analytic_gradient(self):
        # identity extractor, no augmentation, one item per class:
        # grad of class c's item = 2 (s_c - mu_c)
        rng = nm.make_rng(6)
        real = rng.normal(size=(7, 8)).astype(np.float32)
        s0 = rng.normal(size=(2, 8)).astype(np.float32)
        s = Tensor(s0.copy())
        grad = dst.dm_loss(real, [0, 4], s, [0, 1])
        lr = 0.25
        nm.sgd_step([s.data], [grad], nm.SgdState(learning_rate=lr))
        mu = np.stack([real[:4].mean(axis=0), real[4:].mean(axis=0)])
        np.testing.assert_allclose(s.data, s0 - lr * 2.0 * (s0 - mu), atol=1e-5)


class TestDistill:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ParameterError):
            dst.DistillConfig(iterations=0)

    def test_zero_ipc_rejected(self):
        with pytest.raises(ParameterError):
            dst.DistillConfig(ipc=0)

    @pytest.mark.parametrize("field, value", [
        ("rank", 0), ("real_batch_per_class", 0), ("alpha", float("nan")), ("alpha", 0.0),
        ("syn_lr", float("nan")), ("syn_lr_final", float("inf")), ("eval_iterations", 0),
        ("eval_iterations", -1)])
    def test_setting_out_of_range_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            dst.DistillConfig(**{field: value})

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
        # one leaf holding every class, the same leaf every iteration
        assert len(calls) == 4
        assert all(len(params) == 1 for params in calls)
        assert len({id(params[0]) for params in calls}) == 1
        np.testing.assert_array_equal(calls[0][0].reshape(out.inputs.shape), out.inputs)

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
        class_idx = data.class_indices(spec.num_classes)
        ipc = 2
        syn_starts = np.arange(spec.num_classes) * ipc
        wins = 0
        for seed in range(10):
            rng = nm.make_rng(seed)
            losses = []
            # distill's step without augmentation, as a manual short loop
            syn = Tensor(rng.normal(0, 1, size=(spec.num_classes * ipc, 256)).astype(np.float32))
            state = nm.SgdState(learning_rate=1.0)
            for step in range(50):
                plugin = dst.random_feature_plugin(base, 16, 16.0, rng)
                takes = [rng.choice(idx, size=min(32, idx.size), replace=False)
                         for idx in class_idx]
                real_starts = np.cumsum([0, *map(len, takes[:-1])])
                real = model.encode(base, Tensor(data.inputs[np.concatenate(takes)]), plugin)
                feat = model.encode(base, syn, plugin)
                losses.append(reference.dm_loss(real.data, real_starts, feat, syn_starts).item())
                grad = dst.dm_loss(real.data, real_starts, feat, syn_starts)
                nm.sgd_step([syn.data], [feat.backward(grad)], state)
            if np.mean(losses[-10:]) <= np.mean(losses[:10]):
                wins += 1
        assert wins >= 8

    def test_distilled_set_shape_and_labels(self, base, toy_task):
        spec, data = toy_task
        cfg = dst.DistillConfig(iterations=5, ipc=4)
        out = dst.distill(spec, data, base, cfg, nm.make_rng(2))
        assert out.inputs.shape == (8, 256)
        assert np.array_equal(out.labels, [0, 0, 0, 0, 1, 1, 1, 1])
        assert np.all(np.isfinite(out.inputs))


def per_class_distill(spec, data, base, config, rng):
    """The distillation step as it ran before it was batched: one synthetic
    leaf per class, and per class one augment and one encode on each side
    and one backward chain. It draws from ``rng`` in the order ``distill``
    does, so the two differ only in float32 rounding. Returns the inputs."""
    side, class_idx = spec.input_shape, data.class_indices(spec.num_classes)
    sizes = [min(config.real_batch_per_class, idx.size) for idx in class_idx]
    if config.init_from_real:
        syn0 = np.concatenate([data.inputs[rng.choice(idx, size=config.ipc,
                                                      replace=idx.size < config.ipc)]
                               for idx in class_idx])
    else:
        syn0 = rng.normal(0.0, 1.0, size=(spec.num_classes * config.ipc,
                                          spec.flat_dim)).astype(np.float32)
    syn = [Tensor(block.reshape(config.ipc, *side))
           for block in np.split(syn0, spec.num_classes)]
    state = nm.SgdState(learning_rate=config.syn_lr)
    for step in range(config.iterations):
        plugin = dst.random_feature_plugin(base, config.rank, config.alpha, rng)
        params = dst.DsaParams.sample(rng) if config.dsa_enabled else None
        noise = None if params is None else params.noise(max(config.ipc, *sizes), side)
        grads = []
        for idx, n, syn_c in zip(class_idx, sizes, syn):
            real = Tensor(data.inputs[rng.choice(idx, size=n, replace=False)].reshape(-1, *side))
            if params is not None:
                real = dst.dsa_augment(real, params, noise)
                syn_c = dst.dsa_augment(syn_c, params, noise)
            feat = model.encode(base, syn_c, plugin)
            d = model.encode(base, real, plugin).data.mean(axis=0) - feat.data.mean(axis=0)
            g = np.broadcast_to(-(2.0 * d) / config.ipc, feat.shape)
            grads.append(syn_c.backward(feat.backward(g)))
        state.learning_rate = dst._cosine_lr(step, config.iterations, config.syn_lr,
                                             config.syn_lr_final)
        nm.sgd_step([t.data for t in syn], grads, state)
    return np.concatenate([t.data for t in syn]).reshape(len(syn0), -1)


@pytest.fixture(scope="module")
def m_toy():
    spec, train, _ = dsets.generate_tasks(1)[2]
    return model.BaseEncoder.from_seed(1), spec, train


class TestBatchedStep:
    """``distill`` runs each step once for all classes; it must agree with
    the per-class step on the configurations whose ids test_content_ids
    pins, and on a long run."""

    CASES = {
        "random-init": dict(iterations=20, ipc=3),
        "init-from-real": dict(iterations=20, ipc=3, init_from_real=True),
        "ipc-above-real-batch": dict(iterations=20, ipc=8, real_batch_per_class=5),
        "short-real-class": dict(iterations=20, ipc=3, real_batch_per_class=16),
        "dsa-off": dict(iterations=20, ipc=3, dsa_enabled=False),
        "500-iterations-ipc-10": dict(iterations=500, ipc=10),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_per_class_step(self, m_toy, case):
        base, spec, train = m_toy
        if case == "short-real-class":  # class 1 has 10 rows, class 0 a full batch
            keep = np.concatenate([np.flatnonzero(train.labels == 0),
                                   np.flatnonzero(train.labels == 1)[:10]])
            train = dsets.LabeledDataset(train.inputs[keep], train.labels[keep])
        config = dst.DistillConfig(**self.CASES[case])
        got = dst.distill(spec, train, base, config, nm.make_rng(12)).inputs
        want = per_class_distill(spec, train, base, config, nm.make_rng(12))
        assert np.max(np.abs(got - want)) <= 1e-5


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
        train = model.TrainConfig(learning_rate=0.02, momentum=0.8, weight_decay=1e-3,
                                  rank=8, alpha=4.0, temperature=0.1)
        got = dst.eval_distilled(distilled, base, spec, data, cfg, nm.make_rng(8), train)

        # oracle: run the same training protocol on the same items directly,
        # with the caller's settings for one epoch of eval_iterations steps
        table = model.LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
        train_cfg = model.TrainConfig(
            epochs=1, learning_rate=0.02, momentum=0.8, weight_decay=1e-3,
            batch_size=min(dst.EVAL_BATCH_SIZE, 16), rank=8, alpha=4.0, dropout_p=0.0,
            temperature=0.1)
        plugin = model.train_plugin(base, table, subset, labels, train_cfg,
                                    nm.make_rng(8), iterations=200)
        from forge.evaluation import evaluate_deltas
        want_acc, _ = evaluate_deltas(base, plugin.layer_deltas(), table, data, 0.1)
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
