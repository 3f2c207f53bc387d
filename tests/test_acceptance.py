"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Shared branch preparation (training + distillation for
3 seeds) is timed inside criterion 4's budget; later criteria measure
their own marginal work.
"""

import time

import numpy as np
import pytest

from forge import datasets as dsets
from forge import distill as dst
from forge import evaluation as ev
from forge import experiments as xp
from forge import merge as mrg
from forge import model as mdl
from forge import numerics as nm
from forge.merge import CoeffOptimConfig, MergeCoefficients
from forge.model import LoraAdapter, PluginModule
from forge.numerics import Tensor
from forge.registry import BranchContribution, Repository
import reference
from reference import classify, finite_difference_grad, rel_err, softmax_cross_entropy

SEEDS = (1, 2, 3)


def report(line: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {line} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, line
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget:.0f}s"


# ---------------------------------------------------------------------------
# shared pipeline state (built once, used by criteria 4, 5, 6, 9)
# ---------------------------------------------------------------------------


class PipelineState:
    def __init__(self):
        self.train_cfg = mdl.TrainConfig()  # reference defaults, 100 epochs
        self.distill_cfg = dst.DistillConfig(iterations=500, ipc=10,
                                             eval_iterations=300)
        self.coeff_cfg = CoeffOptimConfig()
        self.prep_seconds = 0.0
        self.by_seed: dict[int, dict] = {}

    def prepare(self):
        start = time.time()
        for seed in SEEDS:
            base = mdl.BaseEncoder.from_seed(seed)
            artifacts = xp.prepare_branch_artifacts(base, seed, self.train_cfg,
                                                    self.distill_cfg)
            upper, distilled_only = {}, {}
            for name, art in artifacts.items():
                table = xp.table_for(base, art.spec)
                acc, auc_value = ev.evaluate_deltas(
                    base, art.plugin.layer_deltas(), table, art.test, self.train_cfg.temperature)
                upper[name] = acc
                metrics = dst.eval_distilled(
                    art.distilled, base, art.spec, art.test, self.distill_cfg,
                    nm.make_rng(nm.derive_seed("distilled-eval", name, seed)))
                distilled_only[name] = metrics["acc"]
            self.by_seed[seed] = {"base": base, "artifacts": artifacts,
                                  "upper": upper, "distilled_only": distilled_only}
        self.prep_seconds = time.time() - start


@pytest.fixture(scope="module")
def pipeline():
    state = PipelineState()
    state.prepare()
    return state


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_merge_algebra():
    start = time.time()
    rng = nm.make_rng(1001)
    base = mdl.BaseEncoder.from_seed(7)
    ok = True

    main = PluginModule.fresh(base, 4, 4.0, rng)
    branch = PluginModule.fresh(base, 4, 4.0, rng)
    for p in (main, branch):
        for ad in p.adapters.values():
            ad.a[:] = rng.normal(size=ad.a.shape).astype(np.float32)
            ad.b[:] = rng.normal(size=ad.b.shape).astype(np.float32)
    ok &= mrg.fuse(main, branch, MergeCoefficients(1.0, 0.0)).to_bytes() == main.to_bytes()
    ok &= mrg.fuse(main, branch, MergeCoefficients(0.0, 1.0)).to_bytes() == branch.to_bytes()

    # 1x1 fixture: fused delta 12, mixture delta 13
    sp = lambda a, b: PluginModule({0: LoraAdapter([[float(a)]], [[float(b)]], 1.0)})
    fused = mrg.fuse(sp(2, 3), sp(4, 5), MergeCoefficients(0.5, 0.5))
    ok &= abs(fused.adapters[0].effective_delta()[0, 0] - 12.0) < 1e-6
    mix = mrg.mixture_deltas([(sp(2, 3), 0.5), (sp(4, 5), 0.5)])
    ok &= abs(mix[0][0, 0] - 13.0) < 1e-6

    # cross-term law on 100 random instances
    for _ in range(100):
        d, k, r, alpha = 3, 5, 2, 2.0
        mk = lambda: LoraAdapter(rng.normal(size=(r, k)).astype(np.float32),
                                 rng.normal(size=(d, r)).astype(np.float32), alpha)
        am, ab = mk(), mk()
        w, wp = rng.uniform(0, 2, size=2)
        got = mrg.fuse(PluginModule({0: am}), PluginModule({0: ab}),
                       MergeCoefficients(w, wp)).adapters[0].effective_delta()
        got = got.astype(np.float64) - w * w * am.effective_delta() \
            - wp * wp * ab.effective_delta()
        want = (w * wp * alpha / r) * (
            am.b.astype(np.float64) @ ab.a.astype(np.float64)
            + ab.b.astype(np.float64) @ am.a.astype(np.float64))
        ok &= rel_err(got, want) < 1e-5
    report("criterion 1: merge algebra (identities, 12 vs 13 fixture, cross-term law)",
           ok, time.time() - start, 1.0)


def test_criterion_2_gradient_checks():
    start = time.time()
    rng = nm.make_rng(2002)
    base = mdl.BaseEncoder.from_seed(7)
    ok = True

    # cross-entropy w.r.t. logits, on the reference loss whose value the
    # cosine head's check below differentiates
    for _ in range(20):
        z = Tensor(rng.uniform(-1, 1, size=(4, 3)).astype(np.float32))
        labels = rng.integers(0, 3, size=4)
        grad = softmax_cross_entropy(z, labels).backward()
        fd = finite_difference_grad(
            lambda t: softmax_cross_entropy(t, labels).item(), z, eps=2e-2)
        ok &= rel_err(grad, fd.data) < 1e-4

    # cosine head: training's _head_loss_grad, the gradient of the CE of the
    # cosine logits w.r.t. the embedding, against the float64 loss of the
    # reference head. Checked at temperature 0.5: the backward path is
    # identical at any temperature (one linear scale), while sharper settings
    # make the central-difference oracle itself ill-conditioned in float32.
    table = mdl.LabelEmbeddingTable("probe", ["one pattern", "two pattern"], 8)
    head = mdl._label_head(table)
    for _ in range(20):
        e = Tensor(rng.uniform(-1, 1, size=(3, 8)).astype(np.float32) + 0.2)
        labels = rng.integers(0, 2, size=3)
        grad = mdl._head_loss_grad(e.data, head, 1.0 / 0.5, labels)
        fd = finite_difference_grad(
            lambda t: softmax_cross_entropy(classify(t, table, 0.5), labels).item(), e,
            eps=5e-3)
        ok &= rel_err(grad, fd.data) < 1e-4

    # DSA transforms
    for trial in range(20):
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)).astype(np.float32))
        params = dst.DsaParams.sample(nm.make_rng(trial))
        noise = params.noise(2, (4, 4))
        out = dst.dsa_augment(x, params, noise)
        grad = out.backward(2.0 * out.data)  # the gradient of the sum of squares
        fd = finite_difference_grad(
            lambda t: float(np.sum(np.square(dst.dsa_augment(t, params, noise).data,
                                             dtype=np.float64))), x, eps=1e-2)
        ok &= rel_err(grad, fd.data) < 1e-4

    # matching loss w.r.t. synthetic inputs through the adapter feature path:
    # dm_loss's gradient against the float64 value of the frozen reference node
    for trial in range(20):
        plugin = dst.random_feature_plugin(base, 4, 4.0, rng)
        feature = lambda t: mdl.encode(base, t, plugin)
        real = feature(Tensor(rng.normal(size=(4, base.input_dim)).astype(np.float32))).data
        syn = Tensor(rng.normal(size=(2, base.input_dim)).astype(np.float32))
        feat = feature(syn)
        grad = feat.backward(dst.dm_loss(real, [0], feat, [0]))
        fd = finite_difference_grad(
            lambda t: reference.dm_loss(real, [0], feature(t), [0]).item(), syn, eps=5e-2)
        ok &= rel_err(grad, fd.data) < 1e-4

    report("criterion 2: analytic gradients match finite differences (4 x 20 fixtures)",
           ok, time.time() - start, 10.0)


def test_criterion_3_metric_oracles():
    start = time.time()
    rng = nm.make_rng(3003)
    ok = True

    def brute_force(scores, positives):
        pos = np.flatnonzero(positives)
        neg = np.flatnonzero(~positives)
        total = 0.0
        for i in pos:
            for j in neg:
                total += 1.0 if scores[i] > scores[j] else (
                    0.5 if scores[i] == scores[j] else 0.0)
        return total / (len(pos) * len(neg))

    for _ in range(50):
        n = int(rng.integers(10, 201))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ok &= ev.auc(scores, labels) == brute_force(scores, labels.astype(bool))

    # grouped aggregation against hand-computed mean-then-softmax
    logits = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, -1.0],
                       [0.5, 0.5], [-0.5, 1.5]])
    groups = np.array([0, 0, 0, 1, 1])
    _, probs = ev.group_aggregate(logits, groups)
    for g, idx in ((0, [0, 1, 2]), (1, [3, 4])):
        mean = logits[idx].mean(axis=0)
        e = np.exp(mean - mean.max())
        ok &= np.allclose(probs[g], e / e.sum(), atol=1e-6)
    report("criterion 3: AUC pair-counting oracle (50 fixtures) and grouped softmax",
           ok, time.time() - start, 5.0)


def test_criterion_4_distillation_efficacy(pipeline):
    start = time.time()
    ok = True
    detail = []
    for seed in SEEDS:
        state = pipeline.by_seed[seed]
        for name in state["artifacts"]:
            upper = state["upper"][name]
            dist = state["distilled_only"][name]
            ok &= upper >= 0.9
            ok &= dist >= 0.9 * upper
            detail.append(f"{name}@s{seed}: UB {upper:.3f} distilled {dist:.3f}")
    elapsed = pipeline.prep_seconds + (time.time() - start)
    print("\n  " + "\n  ".join(detail))
    report("criterion 4: distilled-only reaches >=90% of the single-task upper bound",
           ok, elapsed, 180.0)


@pytest.fixture(scope="module")
def merged_repos(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("merge-efficacy")
    start = time.time()
    out = {}
    order = ["B-toy", "M-toy", "L-toy"]
    for seed in SEEDS:
        state = pipeline.by_seed[seed]
        per_strategy = {}
        for strategy in ("fusion", "mixture"):
            repo = xp.merge_in_order(root / f"{strategy}-s{seed}", seed, strategy,
                                     state["artifacts"], order, pipeline.coeff_cfg,
                                     pipeline.train_cfg)
            report_obj = ev.evaluate_tasks(
                state["base"], xp.head_deltas(repo), xp.task_tests(state["artifacts"]),
                pipeline.train_cfg.temperature, ev.MetricsReport(strategy, order, seed))
            per_strategy[strategy] = (repo, report_obj)
        out[seed] = per_strategy
    return out, time.time() - start


def test_criterion_5_merging_efficacy(pipeline, merged_repos):
    repos, build_seconds = merged_repos
    start = time.time()
    ok = True
    detail = []
    for seed in SEEDS:
        state = pipeline.by_seed[seed]
        artifacts = state["artifacts"]
        mixture_report = repos[seed]["mixture"][1]
        fusion_repo, fusion_report = repos[seed]["fusion"]

        distilled_avg = float(np.mean(list(state["distilled_only"].values())))
        soup = mrg.baseline_modelsoup([a.plugin for a in artifacts.values()])
        soup_report = ev.evaluate_tasks(
            state["base"], soup.layer_deltas(), xp.task_tests(artifacts),
            pipeline.train_cfg.temperature, ev.MetricsReport("modelsoup", [], seed))
        base_report = ev.evaluate_tasks(
            state["base"], None, xp.task_tests(artifacts), pipeline.train_cfg.temperature,
            ev.MetricsReport("base", [], seed))

        ok &= mixture_report.avg_acc >= distilled_avg - 0.05
        ok &= mixture_report.avg_acc >= soup_report.avg_acc
        ok &= fusion_repo.chain().round == 3
        for name in artifacts:
            ok &= fusion_report.per_task[name]["acc"] > base_report.per_task[name]["acc"]
        detail.append(
            f"s{seed}: mixture {mixture_report.avg_acc:.3f} "
            f"distilled-avg {distilled_avg:.3f} soup {soup_report.avg_acc:.3f} "
            f"fusion {fusion_report.avg_acc:.3f} base {base_report.avg_acc:.3f}")
    elapsed = build_seconds + (time.time() - start)
    print("\n  " + "\n  ".join(detail))
    report("criterion 5: mixture within 0.05 of distilled-only and >= soup; "
           "fusion beats base everywhere", ok, elapsed, 300.0)


def test_criterion_6_order_robustness(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("order-robustness")
    start = time.time()
    import itertools

    task_names = ["B-toy", "L-toy", "M-toy"]
    order_means = []
    for order in itertools.permutations(task_names):
        accs = []
        for seed in SEEDS:
            state = pipeline.by_seed[seed]
            tag = f"mix-{'_'.join(n[0] for n in order)}-s{seed}"
            repo = xp.merge_in_order(root / tag, seed, "mixture",
                                     state["artifacts"], list(order),
                                     pipeline.coeff_cfg, pipeline.train_cfg)
            rep = ev.evaluate_tasks(
                state["base"], xp.head_deltas(repo), xp.task_tests(state["artifacts"]),
                pipeline.train_cfg.temperature, ev.MetricsReport("mixture", list(order), seed))
            accs.append(rep.avg_acc)
        order_means.append(float(np.mean(accs)))
    spread = max(order_means) - min(order_means)
    ok = spread <= 0.05
    print(f"\n  per-order mixture means: {[round(m, 3) for m in order_means]} "
          f"spread {spread:.4f}")
    report("criterion 6: mixture 3-task average range over all 6 orders <= 0.05",
           ok, time.time() - start, 600.0)


def test_criterion_7_coefficient_optimizer():
    start = time.time()
    objective = lambda w: float((w[0] - 0.3) ** 2 + (w[1] - 0.7) ** 2)
    best, value, trace = mrg.optimize_coefficients(objective, CoeffOptimConfig())
    ok = len(trace) <= 40
    ok &= float(np.linalg.norm(best - np.array([0.3, 0.7]))) < 0.05
    ok &= value <= objective(np.array([0.5, 0.5])) + 1e-12
    ok &= trace[0]["point"] == [0.5, 0.5]
    report("criterion 7: bowl minimizer within 0.05 in <= 40 evals, never worse "
           "than init", ok, time.time() - start, 1.0)


def test_criterion_8_registry_properties(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry-interleavings")
    start = time.time()
    rng = nm.make_rng(8008)
    rank, alpha = 2, 2.0
    base_seed = 55
    base = mdl.BaseEncoder.from_seed(base_seed)

    contribs = []
    for i in range(4):
        crng = nm.make_rng(nm.derive_seed("c8", i))
        plugin = PluginModule.fresh(base, rank, alpha, crng)
        for ad in plugin.adapters.values():
            ad.b[:] = crng.normal(size=ad.b.shape).astype(np.float32) * 0.1
        task = dsets.TaskSpec(f"task-{i}", [f"t{i} neg", f"t{i} pos"])
        inputs = crng.normal(size=(4, task.flat_dim)).astype(np.float32)
        distilled = dst.DistilledDataset(task.name, 2, 2, task.input_shape,
                                         inputs, np.array([0, 0, 1, 1]))
        contribs.append(BranchContribution(task, plugin, distilled,
                                           author=f"worker-{i}"))

    coeff = CoeffOptimConfig(max_iterations=8)
    store_signature = None
    ok = True
    for trial in range(200):
        repo = Repository.init(root / f"r{trial:03d}", base_seed, "mixture",
                               rank=rank, alpha=alpha, coeff=coeff)
        order = rng.permutation(4)
        for idx in order:
            repo.commit_contribution(contribs[idx])
        signature = tuple(repo.all_object_ids())
        if store_signature is None:
            store_signature = signature
        ok &= signature == store_signature
        repo.merge_all()
        replayed = repo.replay()  # raises on any drift from the live item
        ok &= replayed.round == 4
    report("criterion 8: 200 interleavings give identical stores and exact replay",
           ok, time.time() - start, 60.0)


def test_criterion_9_frozen_base_and_privacy(pipeline, merged_repos):
    start = time.time()
    repos, _ = merged_repos
    ok = True

    for seed in SEEDS:
        state = pipeline.by_seed[seed]
        # the pipeline (training, distillation, merging) ran against this base;
        # regenerating from the seed must give the same parameters
        fresh = mdl.BaseEncoder.from_seed(seed)
        ok &= state["base"].param_hash() == fresh.param_hash()
        for art in state["artifacts"].values():
            table = xp.table_for(state["base"], art.spec)
            fresh_table = xp.table_for(fresh, art.spec)
            ok &= table.param_hash() == fresh_table.param_hash()

    # no raw training example bytes in any stored object
    scanned = 0
    for seed in SEEDS:
        needles = []
        for art in pipeline.by_seed[seed]["artifacts"].values():
            for row in art.train.inputs:
                needles.append(row.tobytes())
        for strategy in ("fusion", "mixture"):
            repo = repos[seed][strategy][0]
            for object_id in repo.all_object_ids():
                haystack = repo.read_object(object_id)
                scanned += 1
                for needle in needles:
                    if needle in haystack:
                        ok = False
    print(f"\n  scanned {scanned} stored objects against raw example payloads")
    report("criterion 9: frozen base/label hashes stable; no raw bytes in store",
           ok, time.time() - start, 120.0)
