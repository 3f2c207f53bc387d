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
whose kernels sum in another order gives other ids for the same code. There
are two pin sets, picked by the core name that OpenBLAS reports: the AVX-512
tier (SkylakeX, the set every other or unknown core is held to) and the AVX2
tier (Haswell, which Zen shares). The AVX2 sets were recorded with
OPENBLAS_CORETYPE=Haswell and numpy's AVX-512 dispatch targets disabled
through NPY_DISABLE_CPU_FEATURES, on one OpenBLAS thread and on two to four;
OPENBLAS_CORETYPE=Zen, and Haswell with numpy's AVX-512 loops on, gave the
same ids."""

import ctypes
from pathlib import Path

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

# each plugin builder's content id at rank 16 on the base encoder of seed 5,
# from an rng of seed 0: the draws are the builders' own, in their order
# (fresh: A per layer; random features: A, then B, per layer). No BLAS call
# makes them, so one set holds on every tier
BUILDER_IDS = {
    "fresh": "86e16759262b3de05c69c0f8c9ea400a8dc6f4b45723512a825cb43abc9a4a6b",
    "zero": "57154546e4093b51e9c1d561c9157612c700dd68ac054ae05f04eb1034f55773",
    "random features": "a1086af034ec6fe65828ef724bdaa2c34899b9a7e823b75fcda7d2b4e3a0671f",
}

AVX2_CORES = {"Haswell", "Zen"}
# the AVX2 tier's pins for two or more OpenBLAS threads (False) and for one
# (True): on Haswell's kernels, unlike SkylakeX's, one thread rounds some
# products differently
AVX2_PINS = {
    False: ("a590b4e1ed9cb49eb33f05f6c41d8057b475c19c6c8995ccdfab331226ce5906",
            {False: "db9497881fe064f335dfedf109b8d0befc9aa8e596545dc6726855929c3d1abc",
             True: "4a82894b27edfd3213fe14e12078a5232246fd1d546d69e0834384330a50a593"},
            {"ipc-above-real-batch":
                 "5afb65dfa36e3db8df61e7291f361da65179b6870c94e5921723654585da6665",
             "short-real-class":
                 "25f38233ef8e31ed125ecb894e8aae43cf26f7f54d23a26d5a1e356f46b47647",
             "dsa-off": "67b88adf5a19b73d943774983a12faf6ffaf2b2fdaccece75109da06bde57879"},
            {"fusion": (["2fc050c9c433c6d76747d0505356865c0dd0589d701c6c711fe9b1e8cbef60bd",
                         "52a83eb073ae198ade0181a22ce0d82481ed48cea61cf1d0d67dba751f51681f",
                         "49d59755c4536bf843cbbb609654cb8fb93f4bea274d9845be486dc216390fb4"],
                        "0a7364a09e39fddb4afacfede7d8962eff836302fe1c9725e7db41273ee62721"),
             "mixture": (["ba644e6b2507dd0683ec40b3eeb78757630c7c2b8d6c816134420275087850a4",
                          "b6ad7b00e1e49bfd35d1c21ad9beb9fbaa8142b1e1df3cf507c40cf6bcd46780",
                          "dcc8a293715d13c5d8497574d2b92aca80cc3c5f2b73a7eee27345b4d78da9e3"],
                         "31815b4067c8fda1c5d379555e1048021d9c3d62f0c25873bc7ee04db0e4e62e")}),
    True: ("422834b740d64aa8e794b10102e3b9a0a00af3200b286ed863e1bc681188dd27",
           {False: "35069ca08849d201433c1ee87ff451b6a24374fab4f25edb2be1480f255d89b6",
            True: "b2c27b173df6de68aa858b2f097cd5cb79247f4f7cdaceeadef9be57e3314b7f"},
           {"ipc-above-real-batch":
                "5afb65dfa36e3db8df61e7291f361da65179b6870c94e5921723654585da6665",
            "short-real-class":
                "25f38233ef8e31ed125ecb894e8aae43cf26f7f54d23a26d5a1e356f46b47647",
            "dsa-off": "4bc0e34d15ad5c40ced55a8d53d906779c35785e4fddea963a1e548c039e3c89"},
           {"fusion": (["3ab17d0f81c26cce74bbb0768d2a3257ced1698fcfb94354ce0fab1550693b22",
                        "eb3383a862f9b358a742dcb313eb8ffceef9a118c93a518b409acfc0ad3be86d",
                        "1538b39ba49f4965914df5102a8cfba2c06e2220411102a88b514ca77da3c2b6"],
                       "45db04b17768d6de351c33db156df1f900ddaf13d55b4d7947c8ab1654fd72b0"),
            "mixture": (["ca35a36c08e4c4442c0197289915e37f5f2b150838f5a080b3b89b549a1fb32d",
                         "83d75595144708678f949b036064d42b70d6bda6d16fbd32112f87167a67f49e",
                         "eb2e560f5061206fa14c058936f7f4b242cf4474e3a67852e5d25c1e011e088b"],
                        "513a3835fa8471b6fc83bb33a17aa4ae7669b9135639f41a2664822b84e1046e")}),
}


def bundled_openblas() -> tuple[str, int]:
    """The core name and thread count of numpy's bundled OpenBLAS, read as
    CI's "BLAS build and core" step reads them, or ("unknown", 0)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            corename = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return corename().decode(), threads()
    return "unknown", 0


CORE, THREADS = bundled_openblas()
if CORE in AVX2_CORES:
    PLUGIN_ID, DISTILLED_IDS, EDGE_DISTILLED_IDS, MERGE_IDS = AVX2_PINS[THREADS == 1]


@pytest.mark.parametrize("builder", sorted(BUILDER_IDS))
def test_plugin_builder_ids(builder):
    base, rng = model.BaseEncoder.from_seed(5), nm.make_rng(0)
    plugin = {"fresh": lambda: model.PluginModule.fresh(base, 16, 16.0, rng),
              "zero": lambda: model.PluginModule.zero(base, 16, 16.0),
              "random features": lambda: dst.random_feature_plugin(base, 16, 16.0, rng),
              }[builder]()
    assert plugin.content_id() == BUILDER_IDS[builder]


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
