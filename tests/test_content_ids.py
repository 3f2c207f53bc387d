"""Content ids of seeded training, distillation and merge runs.

The training id was recorded before the encoder, cosine head, augmentation
and matching loss became fused tape nodes; any change to the float32
operation order of a forward or backward pass moves it. The distilled ids
were re-recorded when a distillation step began to augment and encode every
class at once: the encoder's input-gradient matmul then runs over all
classes' synthetic rows in one call, and BLAS rounds its rows differently
than over one class's rows, so the ids moved while the random stream stayed
the same (tests/test_distill.py checks the batched step against the
per-class one). The ipc-above-real-batch id did not move. The merge ids were
recorded while scipy's Nelder-Mead ran the coefficient search; any change to
the search's steps, its order of evaluations or the guidance objective moves
them.

The values were recorded on x86-64 with numpy's bundled OpenBLAS; a BLAS
whose kernels sum in another order gives other ids for the same code."""

import numpy as np
import pytest

from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.datasets import LabeledDataset, generate_tasks
from forge.distill import DistilledDataset
from forge.registry import BranchContribution, Repository

PLUGIN_ID = "214802c97d622080ba68e2bdb10ac714b55d134ad0431727426af0ceb3f03309"
DISTILLED_IDS = {
    False: "5ebbf5ffa3b895c690fb306e661bc2492d95319a760a3b5090da5caabcf14c11",
    True: "69d898fb24f4ebad282e446f2e275b962e6825bb92f4a6771ccfb28b101782c5",
}
# each case stresses one way the class blocks of a step differ in length;
# ipc-above-real-batch (8-row synthetic blocks) kept its id, recorded before
# a step drew its augmentation noise once, through the batched step
EDGE_DISTILLED_IDS = {
    "ipc-above-real-batch": "9ae2b44194f511756f0e23a7687e8ea1a41a1fbbb5e18ef193fd16b07d0e7b19",
    "short-real-class": "d3d263d9fb4d7823601cd6d723edaa242a615bb6a5b2946408c2d879fb23a641",
    "dsa-off": "9e823fbb82425b70b8259c737beb767a55f5e9d02591d81bbad8d72b5578b459",
}

# each round's merge commit id, then the final item id, of a three-round
# history merged with the default 40-evaluation coefficient search
MERGE_IDS = {
    "fusion": (["06ab5983464ae5bcc6ecdd59da42c48f190a7820a1ab2b32ea7737fa42283d30",
                "50ffef951875649d959d5d037aedf3d7f972053bfdd21dfbfc5a1d65e1f955b5",
                "e6fdb17c4fb4e9d22c6729b405e005721f490c60f7a73eebfb8420eeb92872a5"],
               "c217e7618724c052c2d855488362140fb5e3f139464139ce895d5f1cb160b454"),
    "mixture": (["7170b94f60761a60ec6a15305b0752bd083c02fbfba96b85ab03ca17a559d1f3",
                 "56a2bd582caa58787ec02ab8661a408438cab9eab0449233ff7a52267c5ba60b",
                 "92f73d4844e5960253ba7082555e15deefebf816b3afcc9126828457ff7672d7"],
                "10ebcc15595559fb32971aeec82d1c191d414689953fd024b4275c67b6285600"),
}


@pytest.fixture(scope="module")
def m_toy():
    spec, train, _ = generate_tasks(1)[2]
    assert spec.name == "M-toy"
    return model.BaseEncoder.from_seed(1), spec, train


def test_seeded_train_plugin_id(m_toy):
    base, spec, train = m_toy
    table = model.LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
    config = model.TrainConfig(epochs=2, dropout_p=0.1)
    plugin = model.train_plugin(base, table, train.inputs, train.labels, config,
                                nm.make_rng(11))
    assert plugin.content_id() == PLUGIN_ID


@pytest.mark.parametrize("init_from_real", [False, True])
def test_seeded_distill_id(m_toy, init_from_real):
    base, spec, train = m_toy
    config = dst.DistillConfig(iterations=20, ipc=3, dsa_enabled=True,
                               init_from_real=init_from_real)
    distilled = dst.distill(spec, train, base, config, nm.make_rng(12))
    assert np.all(np.isfinite(distilled.inputs))
    assert distilled.content_id() == DISTILLED_IDS[init_from_real]


@pytest.mark.parametrize("case", sorted(EDGE_DISTILLED_IDS))
def test_seeded_distill_id_edge_cases(m_toy, case):
    base, spec, train = m_toy
    if case == "ipc-above-real-batch":  # the synthetic batch is the longer one
        config = dst.DistillConfig(iterations=20, ipc=8, real_batch_per_class=5)
    elif case == "short-real-class":  # class 1 has 10 rows, class 0 a full batch
        keep = np.concatenate([np.flatnonzero(train.labels == 0),
                               np.flatnonzero(train.labels == 1)[:10]])
        train = LabeledDataset(train.inputs[keep], train.labels[keep])
        config = dst.DistillConfig(iterations=20, ipc=3, real_batch_per_class=16)
    else:
        config = dst.DistillConfig(iterations=20, ipc=3, dsa_enabled=False)
    distilled = dst.distill(spec, train, base, config, nm.make_rng(12))
    assert distilled.content_id() == EDGE_DISTILLED_IDS[case]


@pytest.fixture(scope="module")
def history_contributions():
    """One seeded plugin per toy task, each with four training rows per class
    as its distilled set, all on the base encoder of seed 13."""
    base = model.BaseEncoder.from_seed(13)
    out = []
    for k, (spec, train, _) in enumerate(generate_tasks(1)):
        table = model.LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
        config = model.TrainConfig(epochs=2, rank=4, alpha=4.0)
        plugin = model.train_plugin(base, table, train.inputs, train.labels, config,
                                    nm.make_rng(20 + k))
        keep = np.concatenate([np.flatnonzero(train.labels == c)[:4]
                               for c in range(spec.num_classes)])
        distilled = DistilledDataset(spec.name, spec.num_classes, 4, spec.input_shape,
                                     train.inputs[keep], train.labels[keep])
        out.append(BranchContribution(spec, plugin, distilled, author=f"branch-{k}"))
    return out


@pytest.mark.parametrize("strategy", sorted(MERGE_IDS))
def test_seeded_merge_history_ids(tmp_path, history_contributions, strategy):
    repo = Repository.init(tmp_path / "repo", 13, strategy, rank=4, alpha=4.0)
    assert repo.coeff_config().max_iterations == 40
    for contribution in history_contributions:
        repo.commit_contribution(contribution)
    records = repo.merge_all()
    # every round leaves the start point, so the ids pin the search's steps
    assert all((r["w_main"], r["w_branch"]) != (0.5, 0.5) for r in records)
    commit_ids, item_id = MERGE_IDS[strategy]
    assert [r["commit_id"] for r in records] == commit_ids
    assert records[-1]["item_id"] == item_id
