import struct

import numpy as np
import pytest

import forge
from forge import merge, model
from forge import numerics as nm
from forge.errors import FormatError, IncompatibleModulesError, InputError, ParameterError
from forge.merge import CoeffOptimConfig, ForgeItem, MergeCoefficients
from forge.model import AffineLayer, BaseEncoder, LoraAdapter, PluginModule
from forge.numerics import Tensor


def scalar_plugin(a: float, b: float, alpha: float = 1.0) -> PluginModule:
    ad = LoraAdapter(0, Tensor([[a]]), Tensor([[b]]), rank=1, alpha=alpha)
    return PluginModule({0: ad})


def scalar_base(w0: float = 1.0) -> BaseEncoder:
    layer = AffineLayer(Tensor(np.array([[w0]], dtype=np.float32)),
                        Tensor(np.zeros(1, dtype=np.float32)))
    return BaseEncoder([layer])


@pytest.fixture(scope="module")
def base():
    return BaseEncoder.from_seed(17)


def random_plugin(base, rng, rank=4, alpha=4.0):
    plugin = PluginModule.fresh(base, rank, alpha, rng)
    for ad in plugin.adapters.values():
        ad.a.data[:] = rng.normal(size=ad.a.shape).astype(np.float32) * 0.2
        ad.b.data[:] = rng.normal(size=ad.b.shape).astype(np.float32) * 0.2
    return plugin


def test_every_exported_name_resolves():
    for name in forge.__all__:
        assert hasattr(forge, name), name


class TestFuse:
    def test_identity_coefficients(self, base):
        rng = nm.make_rng(0)
        main = random_plugin(base, rng)
        branch = random_plugin(base, rng)
        keep_main = merge.fuse(main, branch, MergeCoefficients(1.0, 0.0))
        keep_branch = merge.fuse(main, branch, MergeCoefficients(0.0, 1.0))
        assert keep_main.to_bytes() == main.to_bytes()
        assert keep_branch.to_bytes() == branch.to_bytes()

    def test_one_by_one_hand_case(self):
        # main A=2,B=3 (delta 6); branch A=4,B=5 (delta 20); w=w'=0.5
        # fused A = 3, B = 4, delta = 12
        fused = merge.fuse(scalar_plugin(2, 3), scalar_plugin(4, 5),
                           MergeCoefficients(0.5, 0.5))
        ad = fused.adapters[0]
        assert ad.a.data[0, 0] == pytest.approx(3.0)
        assert ad.b.data[0, 0] == pytest.approx(4.0)
        assert ad.effective_delta()[0, 0] == pytest.approx(12.0)

    def test_rank_mismatch_rejected(self, base):
        rng = nm.make_rng(1)
        a = PluginModule.fresh(base, 4, 4.0, rng)
        b = PluginModule.fresh(base, 8, 8.0, rng)
        with pytest.raises(IncompatibleModulesError):
            merge.fuse(a, b, MergeCoefficients(0.5, 0.5))

    def test_cross_term_law(self, base):
        # fused_delta - (w^2 main + w'^2 branch) == w w' (B_m A_b + B_b A_m) * alpha/r
        rng = nm.make_rng(2)
        for _ in range(100):
            d, k, r = 3, 5, 2
            alpha = 2.0
            mk = lambda: LoraAdapter(
                0, Tensor(rng.normal(size=(r, k)).astype(np.float32)),
                Tensor(rng.normal(size=(d, r)).astype(np.float32)), r, alpha)
            am, ab = mk(), mk()
            w, wp = rng.uniform(0, 2, size=2)
            fused = merge.fuse(PluginModule({0: am}), PluginModule({0: ab}),
                               MergeCoefficients(w, wp))
            got = fused.adapters[0].effective_delta().astype(np.float64)
            got -= w * w * am.effective_delta() + wp * wp * ab.effective_delta()
            want = (w * wp * (alpha / r)) * (
                am.b.data.astype(np.float64) @ ab.a.data.astype(np.float64)
                + ab.b.data.astype(np.float64) @ am.a.data.astype(np.float64))
            assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-9) < 1e-5


class TestMixtureForward:
    """The mixture output rule (``mixture_deltas`` folded in by ``encode_np``)
    against the tape forward ``encode``."""

    def test_single_entry_equals_plain_forward(self, base):
        rng = nm.make_rng(3)
        plugin = random_plugin(base, rng)
        x = rng.normal(size=(4, base.input_dim)).astype(np.float32)
        mixed = model.encode_np(base, merge.mixture_deltas([(plugin, 1.0)]), x)
        plain = model.encode(base, Tensor(x), plugin).data
        np.testing.assert_allclose(mixed, plain, atol=2e-5)

    def test_one_by_one_differs_from_fusion(self):
        # same fixture as fusion: mixture delta 0.5*6 + 0.5*20 = 13, not 12
        enc = scalar_base(0.0)
        deltas = merge.mixture_deltas([(scalar_plugin(2, 3), 0.5), (scalar_plugin(4, 5), 0.5)])
        out = model.encode_np(enc, deltas, np.array([[1.0]], dtype=np.float32))
        assert out[0, 0] == pytest.approx(13.0, rel=1e-6)

    def test_zero_coefficients_equal_base(self, base):
        rng = nm.make_rng(4)
        entries = [(random_plugin(base, rng), 0.0), (random_plugin(base, rng), 0.0)]
        x = rng.normal(size=(3, base.input_dim)).astype(np.float32)
        mixed = model.encode_np(base, merge.mixture_deltas(entries), x)
        plain = model.encode(base, Tensor(x)).data
        np.testing.assert_allclose(mixed, plain, atol=1e-6)

    def test_linearity_in_each_coefficient(self, base):
        rng = nm.make_rng(5)
        p1, p2 = random_plugin(base, rng), random_plugin(base, rng)
        d1 = merge.mixture_deltas([(p1, 0.7), (p2, 0.3)])
        d2 = merge.mixture_deltas([(p1, 1.4), (p2, 0.3)])
        for lid in d1:
            contrib1 = d1[lid] - 0.3 * p2.adapters[lid].effective_delta()
            contrib2 = d2[lid] - 0.3 * p2.adapters[lid].effective_delta()
            np.testing.assert_allclose(contrib2, 2.0 * contrib1, atol=1e-6)

    def test_heterogeneous_ranks_allowed(self, base):
        rng = nm.make_rng(6)
        p1 = PluginModule.fresh(base, 4, 4.0, rng)
        p2 = PluginModule.fresh(base, 8, 8.0, rng)
        x = rng.normal(size=(2, base.input_dim)).astype(np.float32)
        out = model.encode_np(base, merge.mixture_deltas([(p1, 0.5), (p2, 0.5)]), x)
        assert out.shape == (2, base.embed_dim) and np.isfinite(out).all()


class TestCoeffOptimConfig:
    @pytest.mark.parametrize("field, value", [
        ("l1_lambda", float("nan")), ("box_max", float("nan")),
        ("box_min", float("nan")), ("init_value", float("nan")),
        ("box_max", float("inf")), ("box_min", float("-inf")),
        ("init_value", float("inf")), ("init_value", 2.5), ("init_value", -0.1)])
    def test_values_that_break_every_merge_rejected(self, field, value):
        with pytest.raises(ParameterError):
            CoeffOptimConfig(**{field: value})

    def test_init_outside_a_negative_box_rejected(self):
        with pytest.raises(ParameterError):
            CoeffOptimConfig(init_value=-2.5, allow_negative=True)

    @pytest.mark.parametrize("init_value", [-2.0, -0.5, 0.0, 2.0])
    def test_init_anywhere_in_the_box_accepted(self, init_value):
        CoeffOptimConfig(init_value=init_value, allow_negative=True)


class TestOptimizeCoefficients:
    def test_convex_bowl(self):
        objective = lambda w: (w[0] - 0.3) ** 2 + (w[1] - 0.7) ** 2
        best, value, trace = merge.optimize_coefficients(objective, CoeffOptimConfig())
        assert len(trace) <= 40
        assert np.linalg.norm(best - np.array([0.3, 0.7])) < 0.05
        assert trace[0]["point"] == [0.5, 0.5]

    def test_never_worse_than_init(self):
        # adversarial objective: init is the global minimum
        objective = lambda w: float(np.sum((w - 0.5) ** 2)) * -1.0 + 1.0 \
            if False else float(np.sum((w - 0.5) ** 4))
        best, value, _ = merge.optimize_coefficients(objective, CoeffOptimConfig())
        assert value <= objective(np.array([0.5, 0.5])) + 1e-12

    def test_l1_drives_flat_objective_to_zero(self):
        cfg = CoeffOptimConfig(l1_lambda=10.0)
        objective = lambda w: 1.0 + cfg.l1_lambda * float(np.abs(w).sum())
        best, _, _ = merge.optimize_coefficients(objective, cfg)
        assert np.all(np.abs(best) < 0.1)

    def test_respects_box(self):
        seen = []
        objective = lambda w: seen.append(w.copy()) or float(-(w[0] + w[1]))
        best, _, _ = merge.optimize_coefficients(objective, CoeffOptimConfig())
        for w in seen:
            assert np.all(w >= 0.0 - 1e-12) and np.all(w <= 2.0 + 1e-12)

    def test_nan_objective_rejected(self):
        with pytest.raises(InputError):
            merge.optimize_coefficients(lambda w: float("nan"), CoeffOptimConfig())

    def test_budget_respected(self):
        calls = []
        objective = lambda w: calls.append(1) or float(np.sum(w ** 2))
        merge.optimize_coefficients(objective, CoeffOptimConfig(max_iterations=15))
        assert len(calls) <= 15

    def test_budget_is_a_hard_cap_in_higher_dimensions(self):
        # shrink steps evaluate n points at once; the cap must still hold
        for n_vars in (3, 5):
            calls = []
            objective = lambda w: calls.append(1) or float(np.sum((w - 0.1) ** 2))
            _, _, trace = merge.optimize_coefficients(
                objective, CoeffOptimConfig(max_iterations=10), n_vars=n_vars)
            assert len(calls) <= 10
            assert len(trace) == len(calls)

    def test_budget_one_returns_init(self):
        best, value, trace = merge.optimize_coefficients(
            lambda w: float(np.sum(w ** 2)), CoeffOptimConfig(max_iterations=1))
        assert len(trace) == 1
        np.testing.assert_allclose(best, [0.5, 0.5])

    def test_init_at_box_edge_still_searches(self):
        cfg = CoeffOptimConfig(init_value=2.0, max_iterations=30)
        objective = lambda w: float(np.sum((w - 1.0) ** 2))
        best, _, _ = merge.optimize_coefficients(objective, cfg)
        assert np.linalg.norm(best - 1.0) < 0.2


class TestModelSoup:
    def test_average_with_itself_is_identity(self, base):
        plugin = random_plugin(base, nm.make_rng(7))
        soup = merge.baseline_modelsoup([plugin, plugin])
        assert soup.to_bytes() == plugin.to_bytes()

    def test_two_scalar_modules(self):
        soup = merge.baseline_modelsoup([scalar_plugin(2, 3), scalar_plugin(4, 5)])
        assert soup.adapters[0].a.data[0, 0] == pytest.approx(3.0)
        assert soup.adapters[0].b.data[0, 0] == pytest.approx(4.0)

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            merge.baseline_modelsoup([])


def make_guidance(base, rng, labels=("alpha pattern", "beta pattern")):
    from forge.distill import DistilledDataset
    from forge.model import LabelEmbeddingTable

    table = LabelEmbeddingTable("toy", list(labels), base.embed_dim)
    ipc = 4
    inputs = rng.normal(size=(ipc * len(labels), base.input_dim)).astype(np.float32)
    y = np.repeat(np.arange(len(labels)), ipc)
    distilled = DistilledDataset("toy", len(labels), ipc, (16, 16), inputs, y)
    return [(distilled, table)]


def make_guidance_dim(enc, rng, labels=("alpha pattern", "beta pattern")):
    from forge.distill import DistilledDataset
    from forge.model import LabelEmbeddingTable

    table = LabelEmbeddingTable("toy", list(labels), enc.embed_dim)
    inputs = rng.normal(size=(2 * len(labels), enc.input_dim)).astype(np.float32)
    y = np.repeat(np.arange(len(labels)), 2)
    distilled = DistilledDataset("toy", len(labels), 2, (1, enc.input_dim), inputs, y)
    return [(distilled, table)]


class TestLoraHub:
    def test_single_module_weight_one_is_identity(self, base):
        plugin = random_plugin(base, nm.make_rng(8))
        merged = merge.combine_plugins([plugin], [1.0])
        assert merged.to_bytes() == plugin.to_bytes()

    def test_equal_halves_reproduce_fuse(self, base):
        rng = nm.make_rng(9)
        p1, p2 = random_plugin(base, rng), random_plugin(base, rng)
        via_hub = merge.combine_plugins([p1, p2], [0.5, 0.5])
        via_fuse = merge.fuse(p1, p2, MergeCoefficients(0.5, 0.5))
        assert via_hub.to_bytes() == via_fuse.to_bytes()

    def test_joint_optimization_runs(self, base):
        rng = nm.make_rng(10)
        plugins = [random_plugin(base, rng) for _ in range(3)]
        guidance = make_guidance(base, rng)
        merged, weights, trace = merge.baseline_lorahub(
            base, plugins, guidance, CoeffOptimConfig(max_iterations=20))
        assert weights.shape == (3,)
        assert len(trace) <= 20
        assert isinstance(merged, PluginModule)

    def test_empty_guidance_rejected(self, base):
        plugin = random_plugin(base, nm.make_rng(11))
        with pytest.raises(InputError):
            merge.baseline_lorahub(base, [plugin], [], CoeffOptimConfig())


class TestMergeRounds:
    def test_fusion_self_merge_preserves_behavior(self, base):
        rng = nm.make_rng(12)
        plugin = random_plugin(base, rng)
        item = ForgeItem("fused", 1, plugin=plugin)
        guidance = make_guidance(base, rng)
        new_item, outcome = merge.merge_round(
            base, item, plugin, guidance, CoeffOptimConfig())
        assert new_item.round == 2
        w = outcome.coefficients
        # any (w, w') with w + w' = 1 reproduces the module; check behavior
        distilled, table = guidance[0]
        before = model.cosine_logits_np(
            model.encode_np(base, item.plugin.layer_deltas(), distilled.inputs), table)
        after = model.cosine_logits_np(
            model.encode_np(base, new_item.plugin.layer_deltas(), distilled.inputs), table)
        if abs(w.w_main + w.w_branch - 1.0) < 5e-3:
            np.testing.assert_allclose(after, before, atol=1e-4)

    def test_fusion_first_round_recovers_branch(self, base):
        rng = nm.make_rng(13)
        genesis = ForgeItem.genesis("fusion", base, rank=4, alpha=4.0)
        branch = random_plugin(base, rng)
        item = genesis.merged(branch, MergeCoefficients(0.0, 1.0))
        assert item.kind == "fused" and item.round == 1
        assert item.plugin.to_bytes() == branch.to_bytes()

    def test_mixture_first_round_single_entry(self, base):
        rng = nm.make_rng(14)
        genesis = ForgeItem.genesis("mixture", base, rank=4, alpha=4.0)
        branch = random_plugin(base, rng)
        guidance = make_guidance(base, rng)
        new_item, outcome = merge.merge_round(
            base, genesis, branch, guidance, CoeffOptimConfig())
        assert new_item.round == 1
        assert len(new_item.entries) == 1
        assert new_item.entries[0][0] is branch
        assert new_item.entries[0][1] == pytest.approx(outcome.coefficients.w_branch)

    def test_mixture_bookkeeping_hand_expansion(self, base):
        # (0.5, 0.5) then (0.4, 0.6): effective coefficients [0.2, 0.6]
        rng = nm.make_rng(15)
        p1, p2 = random_plugin(base, rng), random_plugin(base, rng)
        genesis = ForgeItem.genesis("mixture", base, rank=4, alpha=4.0)
        item = genesis.merged(p1, MergeCoefficients(0.5, 0.5))
        item = item.merged(p2, MergeCoefficients(0.4, 0.6))
        assert item.kind == "mixture" and item.round == 2
        assert [p for p, _ in item.entries] == [p1, p2]
        assert [c for _, c in item.entries] == pytest.approx([0.2, 0.6])

    def test_mixture_flattened_matches_nested(self, base):
        # flattened coefficients reproduce nested two-term evaluation
        rng = nm.make_rng(16)
        p1, p2 = random_plugin(base, rng), random_plugin(base, rng)
        w1, w1p, w2, w2p = 0.9, 0.8, 0.7, 0.6
        x = rng.normal(size=(5, base.input_dim)).astype(np.float32)
        flat = merge.mixture_deltas([(p1, w1p * w2), (p2, w2p)])
        nested_round1 = merge.mixture_deltas([(p1, w1p)])
        nested = {lid: w2 * d for lid, d in nested_round1.items()}
        for lid, d in merge.mixture_deltas([(p2, w2p)]).items():
            nested[lid] = nested[lid] + d
        out_flat = model.encode_np(base, flat, x)
        out_nested = model.encode_np(base, nested, x)
        assert np.linalg.norm(out_flat - out_nested) / np.linalg.norm(out_nested) < 1e-5

    def test_mixture_round_matches_direct_evaluation(self):
        # single affine layer, where the output rule is exactly linear:
        # new output delta = w * (previous mixture delta) + w' * (branch delta)
        rng = nm.make_rng(17)
        w_base = rng.normal(size=(6, 10)).astype(np.float32)
        enc = BaseEncoder([AffineLayer(Tensor(w_base), Tensor(np.zeros(6, dtype=np.float32)))])
        mk = lambda: PluginModule({0: LoraAdapter(
            0, Tensor(rng.normal(size=(2, 10)).astype(np.float32)),
            Tensor(rng.normal(size=(6, 2)).astype(np.float32)), 2, 2.0)})
        p1, p2 = mk(), mk()
        item = ForgeItem("mixture", 1, entries=[(p1, 0.8)])
        guidance = make_guidance_dim(enc, rng)
        new_item, outcome = merge.merge_round(
            enc, item, p2, guidance, CoeffOptimConfig(max_iterations=10))
        w, wp = outcome.coefficients.w_main, outcome.coefficients.w_branch
        x = rng.normal(size=(4, 10)).astype(np.float32)
        got = model.encode_np(enc, merge.mixture_deltas(new_item.entries), x)
        base_out = model.encode_np(enc, None, x)
        prev = model.encode_np(enc, merge.mixture_deltas(item.entries), x)
        branch_out = model.encode_np(enc, p2.layer_deltas(), x)
        want = base_out + w * (prev - base_out) + wp * (branch_out - base_out)
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-9) < 1e-5

    def test_empty_guidance_rejected(self, base):
        genesis = ForgeItem.genesis("fusion", base, 4, 4.0)
        branch = random_plugin(base, nm.make_rng(18))
        with pytest.raises(InputError):
            merge.merge_round(base, genesis, branch, [], CoeffOptimConfig())


class TestForgeItemSerialization:
    def test_fused_round_trip(self, base):
        plugin = random_plugin(base, nm.make_rng(19))
        item = ForgeItem("fused", 3, plugin=plugin)
        back = ForgeItem.from_bytes(item.to_bytes())
        assert back.kind == "fused" and back.round == 3
        assert back.plugin.to_bytes() == plugin.to_bytes()
        assert back.to_bytes() == item.to_bytes()

    def test_mixture_round_trip_with_loader(self, base):
        rng = nm.make_rng(20)
        p1, p2 = random_plugin(base, rng), random_plugin(base, rng)
        store = {p.content_id(): p for p in (p1, p2)}
        item = ForgeItem("mixture", 2, entries=[(p1, 0.25), (p2, 0.75)])
        back = ForgeItem.from_bytes(item.to_bytes(), store.__getitem__)
        assert [(p.content_id(), c) for p, c in back.entries] == \
               [(p.content_id(), c) for p, c in item.entries]
        assert back.to_bytes() == item.to_bytes()

    def test_invalid_kind_rejected(self):
        with pytest.raises(ParameterError):
            ForgeItem("other", 0)

    def test_unknown_kind_tag_rejected(self):
        # tag 2 with round 0 and no entries would otherwise parse as a mixture
        buf = merge.FORGE_ITEM_MAGIC + struct.pack("<BBII", merge.FORGE_ITEM_VERSION, 2, 0, 0)
        with pytest.raises(FormatError):
            ForgeItem.from_bytes(buf)

    @pytest.mark.parametrize("kind", ["fused", "mixture"])
    def test_trailing_bytes_rejected(self, base, kind):
        plugin = random_plugin(base, nm.make_rng(21))
        if kind == "fused":
            item = ForgeItem("fused", 1, plugin=plugin)
        else:
            item = ForgeItem("mixture", 1, entries=[(plugin, 0.5)])
        with pytest.raises(FormatError):
            ForgeItem.from_bytes(item.to_bytes() + b"\0", lambda _: plugin)

    def test_header_without_count_rejected(self):
        buf = merge.FORGE_ITEM_MAGIC + struct.pack("<BBI", merge.FORGE_ITEM_VERSION, 1, 0)
        assert len(buf) == 10
        with pytest.raises(FormatError):
            ForgeItem.from_bytes(buf)

    def test_mixture_bytes_round_trip_serializes_no_plugin(self, base, monkeypatch):
        rng = nm.make_rng(22)
        plugins = [random_plugin(base, rng) for _ in range(3)]
        store = {p.content_id(): p for p in plugins}
        buf = ForgeItem("mixture", 3, entries=list(zip(plugins, (0.5, 0.25, 1.5)))).to_bytes()

        def no_serialization(self_):
            raise AssertionError("a history plugin was serialized")

        monkeypatch.setattr(PluginModule, "to_bytes", no_serialization)
        back = ForgeItem.from_bytes(buf, store.__getitem__)
        assert back.to_bytes() == buf
        assert back.plugin_ids == tuple(store)
        merged = back.merged(plugins[0], MergeCoefficients(0.5, 0.5), "ab" * 32)
        assert merged.plugin_ids == (*store, "ab" * 32)

    def test_mixture_ids_are_taken_at_construction(self, base):
        rng = nm.make_rng(23)
        p1, p2 = random_plugin(base, rng), random_plugin(base, rng)
        item = ForgeItem("mixture", 1, entries=[(p1, 0.5)])
        assert item.plugin_ids == (p1.content_id(),)
        assert isinstance(item.entries, tuple)
        merged = item.merged(p2, MergeCoefficients(0.5, 0.5))
        assert merged.plugin_ids == (p1.content_id(), p2.content_id())
        with pytest.raises(ParameterError, match="one plugin id per entry"):
            ForgeItem("mixture", 1, entries=[(p1, 0.5)], plugin_ids=[])


def reference_objective(base, guidance, deltas_for, l1_lambda,
                        temperature=model.DEFAULT_TEMPERATURE):
    """The per-task loop the stacked objective replaced: one encode and one
    cosine head per guidance set, then the mean of the per-task means."""
    def objective(w):
        deltas = deltas_for(w)
        losses = []
        for distilled, table in guidance:
            emb = model.encode_np(base, deltas, distilled.inputs)
            z = model.cosine_logits_np(emb, table, temperature).astype(np.float64)
            zmax = z.max(axis=1, keepdims=True)
            lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
            losses.append(float(np.mean(lse - z[np.arange(len(z)), distilled.labels])))
        return float(np.mean(losses)) + l1_lambda * float(np.abs(w).sum())

    return objective


def mixed_guidance(enc, rng):
    """A 2-class task with 5 rows per class and a 3-class task with 2 per class."""
    from forge.distill import DistilledDataset
    from forge.model import LabelEmbeddingTable

    out = []
    for name, labels, ipc in (("two", ["left tone", "right tone"], 5),
                              ("three", ["low", "mid", "high"], 2)):
        table = LabelEmbeddingTable(name, labels, enc.embed_dim)
        inputs = rng.normal(size=(ipc * len(labels), enc.input_dim)).astype(np.float32)
        y = np.repeat(np.arange(len(labels)), ipc)
        out.append((DistilledDataset(name, len(labels), ipc, (1, enc.input_dim), inputs, y),
                    table))
    return out


def as_dataset(distilled):
    from forge.datasets import LabeledDataset

    return LabeledDataset(distilled.inputs, distilled.labels)


ENCODER_DIMS = {"1-layer": (24, 8), "2-layer": (24, 12, 8)}


class TestStackedObjective:
    """The stacked objective against the per-task reference loop."""

    def build(self, depth, seed):
        rng = nm.make_rng(seed)
        enc = BaseEncoder.from_seed(seed, ENCODER_DIMS[depth])
        plugins = [random_plugin(enc, rng, rank=3, alpha=3.0) for _ in range(3)]
        return rng, enc, plugins, mixed_guidance(enc, rng)

    def assert_matches(self, rng, new, old, n_vars):
        for _ in range(12):
            w = rng.uniform(0.0, 2.0, size=n_vars)
            want = old(w)
            assert abs(new(w) - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_fusion_matches_reference(self, depth):
        rng, enc, (main, branch, _), guidance = self.build(depth, 30)
        new = merge.guidance_objective(enc, guidance, merge.FactoredDeltas([main, branch]),
                                       0.05)
        old = reference_objective(enc, guidance, lambda w: merge.fuse(
            main, branch, MergeCoefficients(w[0], w[1])).layer_deltas(), 0.05)
        self.assert_matches(rng, new, old, 2)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_mixture_matches_reference(self, depth):
        rng, enc, (p1, p2, branch), guidance = self.build(depth, 31)
        main = merge.mixture_deltas([(p1, 0.6), (p2, 1.3)])
        new = merge.guidance_objective(
            enc, guidance, merge.LinearDeltas([main, branch.layer_deltas()]), 0.05)

        def deltas_for(w):
            return merge.mixture_deltas([(p1, 0.6 * w[0]), (p2, 1.3 * w[0]),
                                         (branch, w[1])])

        self.assert_matches(rng, new, reference_objective(enc, guidance, deltas_for, 0.05),
                            2)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_joint_matches_reference(self, depth):
        rng, enc, plugins, guidance = self.build(depth, 32)
        new = merge.guidance_objective(enc, guidance, merge.FactoredDeltas(plugins), 0.05)
        old = reference_objective(
            enc, guidance, lambda w: merge.combine_plugins(plugins, list(w)).layer_deltas(),
            0.05)
        self.assert_matches(rng, new, old, 3)

    def test_tasks_weigh_equally_whatever_their_row_counts(self):
        # the mean over all ten rows differs from the mean of the two task
        # means; the objective must give the latter
        rng, enc, plugins, guidance = self.build("2-layer", 33)
        new = merge.guidance_objective(enc, guidance, merge.FactoredDeltas(plugins), 0.0)
        w = np.array([0.4, 1.1, 0.7])
        deltas = merge.combine_plugins(plugins, list(w)).layer_deltas()
        per_row, per_task = [], []
        for distilled, table in guidance:
            one = reference_objective(enc, [(distilled, table)], lambda _: deltas, 0.0)(w)
            per_task.append(one)
            per_row.extend([one] * len(distilled.labels))
        assert new(w) == pytest.approx(np.mean(per_task), rel=1e-6)
        assert abs(np.mean(per_row) - np.mean(per_task)) > 1e-3

    def test_temperature_reaches_the_head(self):
        rng, enc, plugins, guidance = self.build("2-layer", 34)
        deltas_for = lambda w: merge.combine_plugins(plugins, list(w)).layer_deltas()
        w = np.array([0.9, 0.2, 1.4])
        for temperature in (0.07, 0.5):
            new = merge.guidance_objective(enc, guidance, merge.FactoredDeltas(plugins),
                                           0.05, temperature)
            old = reference_objective(enc, guidance, deltas_for, 0.05, temperature)
            assert new(w) == pytest.approx(old(w), rel=1e-6)

    def test_zero_norm_embedding_rejected(self):
        from forge.errors import DegenerateInputError

        enc = scalar_base(1.0)
        guidance = make_guidance_dim(enc, nm.make_rng(35))
        guidance[0][0].inputs[:] = 0.0
        objective = merge.guidance_objective(
            enc, guidance, merge.LinearDeltas([{}, {0: np.zeros((1, 1), np.float32)}]), 0.0)
        with pytest.raises(DegenerateInputError):
            objective(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_its_task_rejected(self, label):
        from forge.datasets import LabeledDataset

        rng, enc, plugins, guidance = self.build("1-layer", 38)
        distilled, table = guidance[0]  # two classes, next to a three-class task
        raw = LabeledDataset(distilled.inputs, distilled.labels.copy())
        raw.labels[0] = label
        with pytest.raises(InputError):
            merge.guidance_objective(enc, [(raw, table), guidance[1]],
                                     merge.FactoredDeltas(plugins), 0.0)

    def test_empty_guidance_set_rejected(self):
        from forge.datasets import LabeledDataset

        rng, enc, plugins, guidance = self.build("1-layer", 39)
        empty = LabeledDataset(np.zeros((0, enc.input_dim)), np.zeros(0))
        with pytest.raises(InputError):
            merge.guidance_objective(enc, [guidance[0], (empty, guidance[1][1])],
                                     merge.FactoredDeltas(plugins), 0.0)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_round_metrics_equal_evaluate_deltas(self, depth, strategy):
        from forge.evaluation import evaluate_deltas

        rng, enc, (p1, p2, branch), guidance = self.build(depth, 36)
        if strategy == "fusion":
            item = ForgeItem("fused", 2, plugin=merge.fuse(p1, p2, MergeCoefficients(0.7, 0.9)))
        else:
            item = ForgeItem("mixture", 2, entries=[(p1, 0.7), (p2, 0.9)])
        new_item, outcome = merge.merge_round(
            enc, item, branch, guidance, CoeffOptimConfig(max_iterations=12))
        for metrics, state in ((outcome.metrics_pre, item),
                               (outcome.metrics_post, new_item)):
            want = {table.task_name: round(evaluate_deltas(
                enc, state.deltas(), table, as_dataset(distilled))[0], 6)
                for distilled, table in guidance}
            assert metrics == want

    def test_first_mixture_round_metrics_use_the_bare_base(self):
        from forge.evaluation import evaluate_deltas

        rng, enc, (_, _, branch), guidance = self.build("2-layer", 37)
        genesis = ForgeItem.genesis("mixture", enc, rank=3, alpha=3.0)
        _, outcome = merge.merge_round(enc, genesis, branch, guidance,
                                       CoeffOptimConfig(max_iterations=6))
        assert outcome.metrics_pre == {
            table.task_name: round(evaluate_deltas(enc, None, table,
                                                   as_dataset(distilled))[0], 6)
            for distilled, table in guidance}


class TensordotLinearDeltas(merge.LinearDeltas):
    """The tensordot formulas the lean evaluation replaced."""

    def layer_delta(self, lid, w):
        stack = self._stacks.get(lid)
        return None if stack is None else np.tensordot(w, stack, axes=1)

    def first_layer(self, projected, w):
        return np.tensordot(w, projected, axes=1)


class TensordotFactoredDeltas(merge.FactoredDeltas):
    """The tensordot formulas the lean evaluation replaced."""

    def layer_delta(self, lid, w):
        if lid not in self._a:
            return None
        b = np.tensordot(w, self._b[lid], axes=1) * self._scale[lid]
        return b @ np.tensordot(w, self._a[lid], axes=1)

    def first_layer(self, projected, w):
        b = np.tensordot(w, self._b[0], axes=1) * self._scale[0]
        return np.tensordot(w, projected, axes=1) @ b.T


class TakeAlongAxisGuidance(merge.StackedGuidance):
    """The stacked pass with the take_along_axis and fancy-index gathers the
    lean evaluation replaced."""

    def __init__(self, base, guidance, deltas, temperature):
        super().__init__(base, guidance, deltas, temperature)
        classes = np.array([table.num_classes for _, table in guidance])
        counts = np.array([len(data.labels) for data, _ in guidance])
        task = np.repeat(np.arange(len(guidance)), counts)
        local = np.arange(classes.max())
        own = local < classes[task, None]
        self._columns = (np.cumsum(classes) - classes)[task, None] + np.where(own, local, 0)
        self._rows = np.arange(len(task))

    def logits(self, w):
        w = np.asarray(w, dtype=nm.DTYPE)
        h = self._pre0
        if self._projected is not None:
            h = h + self._deltas.first_layer(self._projected, w)
        for lid, layer in enumerate(self._layers, start=1):
            weight = layer.weight.data
            delta = self._deltas.layer_delta(lid, w)
            if delta is not None:
                weight = weight + delta
            h = np.tanh(h) @ weight.T + layer.bias.data
        e = h.astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", e, e))[:, None]
        logits = np.take_along_axis(e @ self._head, self._columns, axis=1)
        return logits / norms + self._padding

    def loss(self, w):
        z = self.logits(w)
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        return float((lse - z[self._rows, self._labels]) @ self._row_weight)


class TestLeanEvaluation:
    """One evaluation gives the same bits as the formulas it replaced."""

    def assert_identical(self, enc, guidance, lean, reference, n_vars, seed):
        new = merge.StackedGuidance(enc, guidance, lean, 0.07)
        old = TakeAlongAxisGuidance(enc, guidance, reference, 0.07)
        rng = nm.make_rng(seed)
        for w in [np.array([1.0] + [0.0] * (n_vars - 1)),
                  *rng.uniform(0.0, 2.0, size=(40, n_vars))]:
            assert new.loss(w) == old.loss(w)
            assert new.accuracies(w) == old.accuracies(w)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_fusion(self, depth):
        rng, enc, (main, branch, _), guidance = TestStackedObjective().build(depth, 40)
        self.assert_identical(enc, guidance, merge.FactoredDeltas([main, branch]),
                              TensordotFactoredDeltas([main, branch]), 2, 41)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_mixture(self, depth):
        rng, enc, (p1, p2, branch), guidance = TestStackedObjective().build(depth, 42)
        terms = [merge.mixture_deltas([(p1, 0.6), (p2, 1.3)]), branch.layer_deltas()]
        self.assert_identical(enc, guidance, merge.LinearDeltas(terms),
                              TensordotLinearDeltas(terms), 2, 43)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_first_mixture_round(self, depth):
        rng, enc, (_, _, branch), guidance = TestStackedObjective().build(depth, 44)
        terms = [{}, branch.layer_deltas()]
        self.assert_identical(enc, guidance, merge.LinearDeltas(terms),
                              TensordotLinearDeltas(terms), 2, 45)

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_joint(self, depth):
        rng, enc, plugins, guidance = TestStackedObjective().build(depth, 46)
        self.assert_identical(enc, guidance, merge.FactoredDeltas(plugins),
                              TensordotFactoredDeltas(plugins), 3, 47)


class MemoFreeGuidance(merge.StackedGuidance):
    """The stacked pass without its kept forwards: every call computes the
    logits, and the loss takes its row maximum with ``max(axis=1)``."""

    def logits(self, w):
        return self._forward(np.asarray(w, dtype=nm.DTYPE))

    def loss(self, w):
        z = self.logits(w)
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        return float((lse - z.take(self._flat_labels)) @ self._row_weight)


def float32_keys(points):
    return {np.asarray(p, dtype=np.float32).tobytes() for p in points}


ROUND_KINDS = ["fusion", "mixture", "first mixture"]


class TestForwardMemo:
    """A round computes one forward per distinct float32 point and ends, to
    the bit, where a search computing every evaluation would."""

    def round_case(self, kind, depth, seed):
        rng, enc, (p1, p2, branch), guidance = TestStackedObjective().build(depth, seed)
        if kind == "fusion":
            item = ForgeItem("fused", 2, plugin=merge.fuse(p1, p2, MergeCoefficients(0.7, 0.9)))
        elif kind == "mixture":
            item = ForgeItem("mixture", 2, entries=[(p1, 0.7), (p2, 0.9)])
        else:
            item = ForgeItem.genesis("mixture", enc, rank=3, alpha=3.0)
        return enc, item, branch, guidance

    @pytest.mark.parametrize("seed", [52, 62, 64])
    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    @pytest.mark.parametrize("kind", ROUND_KINDS)
    def test_round_equals_memo_free(self, monkeypatch, kind, depth, seed):
        enc, item, branch, guidance = self.round_case(kind, depth, seed)
        new_item, new = merge.merge_round(enc, item, branch, guidance, CoeffOptimConfig())
        monkeypatch.setattr(merge, "StackedGuidance", MemoFreeGuidance)
        old_item, old = merge.merge_round(enc, item, branch, guidance, CoeffOptimConfig())
        assert new == old  # coefficients, objective, trace and both metrics
        assert new_item.to_bytes() == old_item.to_bytes()

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    def test_joint_baseline_equals_memo_free(self, monkeypatch, depth):
        rng, enc, plugins, guidance = TestStackedObjective().build(depth, 53)
        merged, best, trace = merge.baseline_lorahub(enc, plugins, guidance,
                                                     CoeffOptimConfig())
        monkeypatch.setattr(merge, "StackedGuidance", MemoFreeGuidance)
        old_merged, old_best, old_trace = merge.baseline_lorahub(enc, plugins, guidance,
                                                                 CoeffOptimConfig())
        assert len(best) == 3
        assert best.tolist() == old_best.tolist()
        assert trace == old_trace
        assert merged.to_bytes() == old_merged.to_bytes()

    # the first three searches meet points that differ in float64 but not in
    # float32; the last two, on a smaller box, evaluate (1, 0) themselves
    @pytest.mark.parametrize("kind, depth, seed, box_max", [
        ("fusion", "2-layer", 61, 2.0), ("mixture", "1-layer", 62, 2.0),
        ("first mixture", "2-layer", 64, 2.0), ("fusion", "2-layer", 56, 1.0),
        ("mixture", "1-layer", 63, 1.0)])
    def test_one_forward_per_distinct_float32_point(self, monkeypatch, kind, depth, seed,
                                                    box_max):
        enc, item, branch, guidance = self.round_case(kind, depth, seed)
        forwards = []
        forward = merge.StackedGuidance._forward

        def counted(self, w):
            forwards.append(w.tobytes())
            return forward(self, w)

        monkeypatch.setattr(merge.StackedGuidance, "_forward", counted)
        _, outcome = merge.merge_round(enc, item, branch, guidance,
                                       CoeffOptimConfig(box_max=box_max))
        points = float32_keys(entry["point"] for entry in outcome.trace)
        # the trace's distinct points, then (1, 0) for metrics_pre unless the
        # search evaluated it; metrics_post reads the best point's forward
        assert forwards[:len(points)] == list(dict.fromkeys(
            np.asarray(entry["point"], dtype=np.float32).tobytes()
            for entry in outcome.trace))
        assert len(forwards) == len(points | float32_keys([[1.0, 0.0]]))
        assert len(points) < len(outcome.trace)  # the start vertex at least repeats
        if box_max < 2.0:
            assert [1.0, 0.0] in [entry["point"] for entry in outcome.trace]
        else:
            assert len(points) < len({tuple(entry["point"]) for entry in outcome.trace})

    def test_kept_logits_are_read_only_and_shared_per_float32_point(self):
        rng, enc, plugins, guidance = TestStackedObjective().build("1-layer", 55)
        stacked = merge.StackedGuidance(enc, guidance, merge.FactoredDeltas(plugins), 0.07)
        w = np.array([0.3, 0.9, 1.2])
        z = stacked.logits(w)
        assert stacked.logits(w + 1e-12) is z  # another float64, the same float32
        assert stacked.logits(w + 1e-3) is not z
        with pytest.raises(ValueError, match="read-only"):
            z[0, 0] = 0.0


def scipy_optimize_coefficients(minimize, objective, config, n_vars=2):
    """``optimize_coefficients`` as it was when scipy's Nelder-Mead ran the
    search: the reference the search in forge must match point for point."""
    lo, hi = config.bounds()
    x0 = np.full(n_vars, config.init_value, dtype=np.float64)
    trace = []
    best = {"x": x0.copy(), "value": None}

    def wrapped(x):
        if len(trace) >= config.max_iterations:
            raise merge._BudgetExhausted
        x = np.clip(x, lo, hi)
        value = float(objective(x))
        if np.isnan(value):
            raise InputError("objective returned NaN")
        trace.append({"point": [float(v) for v in x], "value": value})
        if best["value"] is None or value < best["value"]:
            best["x"] = x.copy()
            best["value"] = value
        return value

    wrapped(x0)
    if config.max_iterations > 1:
        step = 0.35 * (hi - lo) / 2.0
        simplex = np.tile(x0, (n_vars + 1, 1))
        for i in range(n_vars):
            up = x0[i] + step
            simplex[i + 1, i] = up if up <= hi else x0[i] - step
        try:
            minimize(wrapped, x0, method="Nelder-Mead", bounds=[(lo, hi)] * n_vars,
                     options={"maxfev": config.max_iterations - 1,
                              "initial_simplex": simplex,
                              "xatol": 1e-8, "fatol": 1e-10})
        except merge._BudgetExhausted:
            pass
    return best["x"], float(best["value"]), trace


def random_search_case(seed):
    """A seeded box, budget, start point and objective: a bowl whose centre
    may lie outside the box, its plateaus, a rugged bowl, a slope into a
    corner, or a constant where every vertex ties."""
    rng = np.random.default_rng(seed)
    n_vars = int(rng.integers(2, 6))
    hi = float(rng.uniform(0.5, 3.0))
    box_min = hi - float(rng.uniform(0.2, 4.0))
    allow_negative = bool(rng.random() < 0.3)
    lo = -hi if allow_negative else box_min
    config = CoeffOptimConfig(max_iterations=int(rng.integers(1, 80)),
                              init_value=float(rng.choice([lo, hi, rng.uniform(lo, hi)])),
                              box_min=box_min, box_max=hi, allow_negative=allow_negative)
    assert config.bounds() == (lo, hi)
    centre = rng.uniform(lo - 0.5, hi + 0.5, size=n_vars)
    scale = rng.uniform(0.2, 3.0, size=n_vars)
    kind = ("bowl", "plateau", "rugged", "slope", "ties")[seed % 5]

    def objective(w):
        bowl = float(scale @ (w - centre) ** 2) + 0.05 * float(np.abs(w).sum())
        if kind == "plateau":
            return float(np.floor(bowl * 4.0) / 4.0)
        if kind == "rugged":
            return bowl + 0.3 * float(np.sin(9.0 * w).sum())
        if kind == "slope":
            return float(scale @ w)
        return 1.0 if kind == "ties" else bowl

    return objective, config, n_vars


class TestMatchesScipy:
    """The search evaluates the points scipy 1.17's bounded Nelder-Mead did,
    in the same order, and picks the same best point."""

    @pytest.fixture(scope="class")
    def minimize(self):
        return pytest.importorskip("scipy.optimize").minimize

    def assert_same(self, minimize, objective, config, n_vars):
        best, value, trace = merge.optimize_coefficients(objective, config, n_vars)
        want_best, want_value, want_trace = scipy_optimize_coefficients(
            minimize, objective, config, n_vars)
        assert trace == want_trace
        assert np.array_equal(best, want_best) and value == want_value
        return trace

    def test_random_objectives(self, minimize):
        stopped_early = []
        for seed in range(600):
            objective, config, n_vars = random_search_case(seed)
            trace = self.assert_same(minimize, objective, config, n_vars)
            stopped_early.append(len(trace) < config.max_iterations)
        # the cases end both ways: by converging and by the budget
        assert 0 < sum(stopped_early) < len(stopped_early)

    def test_kinked_objectives_run_to_the_tolerances(self, minimize):
        # at a kink the values stay apart while the simplex collapses onto
        # it, so the value tolerance decides when these searches stop
        converged = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n_vars = int(rng.integers(2, 4))
            centre = rng.uniform(0.2, 1.8, size=n_vars)
            scale = rng.uniform(0.2, 3.0, size=n_vars)
            config = CoeffOptimConfig(max_iterations=250)
            trace = self.assert_same(minimize, lambda w: float(scale @ np.abs(w - centre)),
                                     config, n_vars)
            converged += len(trace) < config.max_iterations
        assert converged > 0

    @pytest.mark.parametrize("depth", sorted(ENCODER_DIMS))
    @pytest.mark.parametrize("kind", ["fusion", "mixture", "first-mixture-round", "joint"])
    def test_guidance_objectives(self, minimize, kind, depth):
        for seed in (50, 51):
            rng, enc, (p1, p2, branch), guidance = TestStackedObjective().build(depth, seed)
            if kind == "fusion":
                deltas = merge.FactoredDeltas([p1, branch])
            elif kind == "mixture":
                deltas = merge.LinearDeltas([merge.mixture_deltas([(p1, 0.6), (p2, 1.3)]),
                                             branch.layer_deltas()])
            elif kind == "first-mixture-round":
                deltas = merge.LinearDeltas([{}, branch.layer_deltas()])
            else:
                deltas = merge.FactoredDeltas([p1, p2, branch])
            objective = merge.guidance_objective(enc, guidance, deltas, 0.05)
            n_vars = 3 if kind == "joint" else 2
            self.assert_same(minimize, objective, CoeffOptimConfig(), n_vars)
