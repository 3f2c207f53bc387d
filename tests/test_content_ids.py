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
are three pin sets, picked by the core name that OpenBLAS reports: the
AVX-512 tier (SkylakeX, the set every other or unknown core is held to), the
AVX2 tier (Haswell, which Zen shares) and the SSE tier (Katmai). The AVX2
sets were recorded with OPENBLAS_CORETYPE=Haswell and numpy's AVX-512
dispatch targets disabled through NPY_DISABLE_CPU_FEATURES, on one OpenBLAS
thread and on two to four; OPENBLAS_CORETYPE=Zen, and Haswell with numpy's
AVX-512 loops on, gave the same ids.

The SSE sets were recorded with OPENBLAS_CORETYPE=Prescott, which numpy
2.4's bundled OpenBLAS 0.3.31 reports as Katmai (as it does Core2, Penryn
and Dunnington), and with every numpy dispatch target disabled (X86_V3,
X86_V4, AVX512_ICL and AVX512_SPR on numpy 2.4), so numpy runs its baseline
loops as a CPU without AVX2 would. They were checked on one OpenBLAS thread
and on two; OpenBLAS caps the count at the CPU count, and the two-CPU
recording host allowed no more. With numpy's X86_V3 loops on, the same
kernels give other ids, which are not pinned, and the Nehalem kernels
(OPENBLAS_CORETYPE=Nehalem, Atom or Barcelona) give others again."""

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
SSE_CORES = {"Katmai"}
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

# the SSE tier's distilled ids, the same on one thread and on two
SSE_DISTILLED_IDS = {
    False: "b15b3013b6e097cfc88837978ded4ce819be03f00b88a4ace188e3abb8c6cdae",
    True: "a5a0efa5281cca3f59cda8afc09d0834a1ac660feadba8db2bd89e52eb7d4ef2",
}
SSE_EDGE_DISTILLED_IDS = {
    "ipc-above-real-batch": "2de192b961ebe9b7d4715dd931c91d0b7bff5b2f89a3d0cc700759caad09b6bb",
    "short-real-class": "1798c420d90aa78c7985476abcdbd453c546fcec8fa5f1d552f8bc15d85cf030",
    "dsa-off": "4d78b46dfadf44abb42623ae10d575c6b38d9eb60529f61d8e871597890fc614",
}
# the SSE tier's pins for two OpenBLAS threads (False) and for one (True)
SSE_PINS = {
    False: ("cb174e337d5c1da86def0105de1a8c3243dcdeae10c588fb8512fb2cec02d45d",
            SSE_DISTILLED_IDS, SSE_EDGE_DISTILLED_IDS,
            {"fusion": (["cb160b93734ccd0ba04489a8b99a4bb50650d3e9a666ab0e0e27a551e2b270a4",
                         "23d4a0d56cc852028d7275b8d980160995d87dc872750e0c19bf29712f12def8",
                         "09c575872ac94c54b0899468fb32c7cd6099e9b53ddcce28acf1867f096a6dd1"],
                        "bad407177b534ec2435991b45f829d13b89295e7b046326276ac81310b823886"),
             "mixture": (["eda5d3764a60b6ceb3f957056f55433640d95c6bb39f2e8840e67c08c0291795",
                          "b839b40ba5192d076ee7540af34164ec27df8bbb1c28a45e9c38913ef9a75346",
                          "94cdeb600d30765b60d5c2c2dd8fd025213335b9088deff001e59bac0055407a"],
                         "a47b126b527cf1c8dd7d10a214f7a3905cc79e5ef447d94cefde461be2906d86")}),
    True: ("b004957b86d4af95c291405b18bde037d7741725359ab9041b7d5b4c81af16af",
           SSE_DISTILLED_IDS, SSE_EDGE_DISTILLED_IDS,
           {"fusion": (["cb160b93734ccd0ba04489a8b99a4bb50650d3e9a666ab0e0e27a551e2b270a4",
                        "d821a4f5446c5e5ce065910a29c71902623f830322a0f8adcd42021c41e2a291",
                        "de3611f9ae5e8fbe06e67df48a28a0c9efa8eea2f9881f4dd33a3ce161a3e414"],
                       "7531bc4f6265d234ea500414022501cfb836ec3abc0d16cf4f97a3c35abaca61"),
            "mixture": (["eda5d3764a60b6ceb3f957056f55433640d95c6bb39f2e8840e67c08c0291795",
                         "a4f7a1b5a63bc7ff2138f9c01387a46b240ff3e0ba8eead9db4556920a32cde0",
                         "439f7481297cb0513e9ce87ade3074168a49ddec95928730e687b0c48ee963c8"],
                        "535050dc4f475071da52aaac12a3e62acd6fe4bbb7fa2c89dddeeefddb91aa9b")}),
}

# each tier's pins by the core names that pick them; any other core is held
# to the AVX-512 set above
TIER_PINS = {**dict.fromkeys(AVX2_CORES, AVX2_PINS), **dict.fromkeys(SSE_CORES, SSE_PINS)}


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
if CORE in TIER_PINS:
    PLUGIN_ID, DISTILLED_IDS, EDGE_DISTILLED_IDS, MERGE_IDS = TIER_PINS[CORE][THREADS == 1]


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
