"""Content ids of seeded training, distillation and merge runs.

Any change to the float32 operation order of a forward or backward pass
moves the training and distilled ids, and any change to the coefficient
search's steps, its order of evaluations or the guidance objective moves the
merge ids.

The ids also depend on the BLAS kernels that computed them, so PINS holds
them per kernel family of numpy's bundled OpenBLAS, keyed by the core name
that OpenBLAS reports; each pinned test reads the row of this run's core.
Forcing each of 20 OPENBLAS_CORETYPE values on x86-64 (numpy 2.4.6, OpenBLAS
0.3.31) reported only five names, one row each: SkylakeX (also Cooperlake and
SapphireRapids), Haswell (Zen), Sandybridge (Bulldozer, Piledriver,
Steamroller, Excavator), Nehalem (Atom, Barcelona, Bobcat) and Katmai
(Prescott, Core2, Penryn, Dunnington, Opteron, Opteron_SSE3). Each row was
recorded with the numpy dispatch targets a CPU of that class runs: SkylakeX
with all of them, Haswell without the AVX-512 ones, the other three with none
(numpy's baseline loops). With more targets on, those kernels give other ids.

A core that PINS lacks, "unknown" included, fails each pinned test with one
message that names the core and prints the ids this run computed: recording a
family is copying them into a new row."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.datasets import LabeledDataset, generate_tasks
from forge.distill import DistilledDataset
from forge.registry import BranchContribution, Repository

# each kernel family's ids: the trained plugin, the distilled sets (two
# initialisations, then three edge cases), then each round's merge commit and
# the final item of a three-round history merged with the default
# 40-evaluation coefficient search
PINS = {
    "SkylakeX": {
        "train": "214802c97d622080ba68e2bdb10ac714b55d134ad0431727426af0ceb3f03309",
        "random-init": "5ebbf5ffa3b895c690fb306e661bc2492d95319a760a3b5090da5caabcf14c11",
        "init-from-real": "69d898fb24f4ebad282e446f2e275b962e6825bb92f4a6771ccfb28b101782c5",
        "dsa-off": "9e823fbb82425b70b8259c737beb767a55f5e9d02591d81bbad8d72b5578b459",
        "ipc-above-real-batch": "9ae2b44194f511756f0e23a7687e8ea1a41a1fbbb5e18ef193fd16b07d0e7b19",
        "short-real-class": "d3d263d9fb4d7823601cd6d723edaa242a615bb6a5b2946408c2d879fb23a641",
        "fusion 1": "06ab5983464ae5bcc6ecdd59da42c48f190a7820a1ab2b32ea7737fa42283d30",
        "fusion 2": "50ffef951875649d959d5d037aedf3d7f972053bfdd21dfbfc5a1d65e1f955b5",
        "fusion 3": "e6fdb17c4fb4e9d22c6729b405e005721f490c60f7a73eebfb8420eeb92872a5",
        "fusion item": "c217e7618724c052c2d855488362140fb5e3f139464139ce895d5f1cb160b454",
        "mixture 1": "7170b94f60761a60ec6a15305b0752bd083c02fbfba96b85ab03ca17a559d1f3",
        "mixture 2": "56a2bd582caa58787ec02ab8661a408438cab9eab0449233ff7a52267c5ba60b",
        "mixture 3": "92f73d4844e5960253ba7082555e15deefebf816b3afcc9126828457ff7672d7",
        "mixture item": "10ebcc15595559fb32971aeec82d1c191d414689953fd024b4275c67b6285600",
    },
    "Haswell": {
        "train": "422834b740d64aa8e794b10102e3b9a0a00af3200b286ed863e1bc681188dd27",
        "random-init": "35069ca08849d201433c1ee87ff451b6a24374fab4f25edb2be1480f255d89b6",
        "init-from-real": "b2c27b173df6de68aa858b2f097cd5cb79247f4f7cdaceeadef9be57e3314b7f",
        "dsa-off": "4bc0e34d15ad5c40ced55a8d53d906779c35785e4fddea963a1e548c039e3c89",
        "ipc-above-real-batch": "5afb65dfa36e3db8df61e7291f361da65179b6870c94e5921723654585da6665",
        "short-real-class": "25f38233ef8e31ed125ecb894e8aae43cf26f7f54d23a26d5a1e356f46b47647",
        "fusion 1": "3ab17d0f81c26cce74bbb0768d2a3257ced1698fcfb94354ce0fab1550693b22",
        "fusion 2": "eb3383a862f9b358a742dcb313eb8ffceef9a118c93a518b409acfc0ad3be86d",
        "fusion 3": "1538b39ba49f4965914df5102a8cfba2c06e2220411102a88b514ca77da3c2b6",
        "fusion item": "45db04b17768d6de351c33db156df1f900ddaf13d55b4d7947c8ab1654fd72b0",
        "mixture 1": "ca35a36c08e4c4442c0197289915e37f5f2b150838f5a080b3b89b549a1fb32d",
        "mixture 2": "83d75595144708678f949b036064d42b70d6bda6d16fbd32112f87167a67f49e",
        "mixture 3": "eb2e560f5061206fa14c058936f7f4b242cf4474e3a67852e5d25c1e011e088b",
        "mixture item": "513a3835fa8471b6fc83bb33a17aa4ae7669b9135639f41a2664822b84e1046e",
    },
    "Sandybridge": {
        "train": "12ee356e63fe06a3624f01fe6070d3c984f2d6b13d59bb474c09ec5749db5815",
        "random-init": "37f152113ddd962f78cc6e68547a36c2923d43bf51f35fb6f2b0cd146a634715",
        "init-from-real": "8b2a9d46f4bb4e171b43a293b6ff156eded42da12f768865a02e9cffe175e8d8",
        "dsa-off": "054295d9ef7bb190b9a9a3645cf54255cc776ef735bd0c16782b74d964463e48",
        "ipc-above-real-batch": "5c5ebe2553a0c2ed86280d3e68b5209f3b8e1db6e8ad3de918b3cdab80da331b",
        "short-real-class": "221e05310146901c82bc864ef385b8e3dd92dae66ab7990c7d64342925317bb3",
        "fusion 1": "65bd553649e8e46a0f12e34e6d3f45b9dde9c9c1d24a4839f449318aa683dfaf",
        "fusion 2": "487f94297a6cdfc585500fbe676cf70acf9121b0fbe03fb61a74cbb18ca3f7a4",
        "fusion 3": "a3a4dc192a9396da64905bde355df084970a79f5182066cd48127e0ff992567d",
        "fusion item": "c8e0700bcf5aead4f83c1c838da59c0f611bfd62ffd650e200fb2b084f8b9a48",
        "mixture 1": "d48913546b4d23135f55d721fb949f1fd9942a67fba8ae6f4463f42d7f07cde3",
        "mixture 2": "5fadfe6ebfa0eb00aa96d83a1ce107cf623829684740b50b68ac8162861d8468",
        "mixture 3": "d4726700086844a0c1c290b201a0cd93017cd994c2b60749887600db1d9db40f",
        "mixture item": "5651c7f5d97fbb3a666b8204f6c71138876fa63ada4c646c1321ad1f8cb3803a",
    },
    "Nehalem": {
        "train": "12ee356e63fe06a3624f01fe6070d3c984f2d6b13d59bb474c09ec5749db5815",
        "random-init": "37f152113ddd962f78cc6e68547a36c2923d43bf51f35fb6f2b0cd146a634715",
        "init-from-real": "8b2a9d46f4bb4e171b43a293b6ff156eded42da12f768865a02e9cffe175e8d8",
        "dsa-off": "054295d9ef7bb190b9a9a3645cf54255cc776ef735bd0c16782b74d964463e48",
        "ipc-above-real-batch": "5c5ebe2553a0c2ed86280d3e68b5209f3b8e1db6e8ad3de918b3cdab80da331b",
        "short-real-class": "221e05310146901c82bc864ef385b8e3dd92dae66ab7990c7d64342925317bb3",
        "fusion 1": "65bd553649e8e46a0f12e34e6d3f45b9dde9c9c1d24a4839f449318aa683dfaf",
        "fusion 2": "a5cab17f7ef28ce39bcd65be5bdbdea9641ea62b53140f052ec05b145a8ea84e",
        "fusion 3": "a2b331f71514eada1efcbec33ceca2a598c21309db342434e7e321cc6e14fed9",
        "fusion item": "adb2497791dc8017b9ed1eb27e63f89dda29e2f2cbaabb8fbcac565cb0cbb1f5",
        "mixture 1": "d48913546b4d23135f55d721fb949f1fd9942a67fba8ae6f4463f42d7f07cde3",
        "mixture 2": "5cf725bd3eb1afe968833c2c1a33c0268f81ac4182ad0fc2e972530e2ad0432d",
        "mixture 3": "2528261b51c538dc40b65c3be28a6456c7564b26198eec9ebc03f36f826ac72b",
        "mixture item": "1562fbd4f969f9351f2b0086fca563f313f5191d7fa12f4fa6ea796f1f7c73aa",
    },
    "Katmai": {
        "train": "b004957b86d4af95c291405b18bde037d7741725359ab9041b7d5b4c81af16af",
        "random-init": "b15b3013b6e097cfc88837978ded4ce819be03f00b88a4ace188e3abb8c6cdae",
        "init-from-real": "a5a0efa5281cca3f59cda8afc09d0834a1ac660feadba8db2bd89e52eb7d4ef2",
        "dsa-off": "4d78b46dfadf44abb42623ae10d575c6b38d9eb60529f61d8e871597890fc614",
        "ipc-above-real-batch": "2de192b961ebe9b7d4715dd931c91d0b7bff5b2f89a3d0cc700759caad09b6bb",
        "short-real-class": "1798c420d90aa78c7985476abcdbd453c546fcec8fa5f1d552f8bc15d85cf030",
        "fusion 1": "cb160b93734ccd0ba04489a8b99a4bb50650d3e9a666ab0e0e27a551e2b270a4",
        "fusion 2": "d821a4f5446c5e5ce065910a29c71902623f830322a0f8adcd42021c41e2a291",
        "fusion 3": "de3611f9ae5e8fbe06e67df48a28a0c9efa8eea2f9881f4dd33a3ce161a3e414",
        "fusion item": "7531bc4f6265d234ea500414022501cfb836ec3abc0d16cf4f97a3c35abaca61",
        "mixture 1": "eda5d3764a60b6ceb3f957056f55433640d95c6bb39f2e8840e67c08c0291795",
        "mixture 2": "a4f7a1b5a63bc7ff2138f9c01387a46b240ff3e0ba8eead9db4556920a32cde0",
        "mixture 3": "439f7481297cb0513e9ce87ade3074168a49ddec95928730e687b0c48ee963c8",
        "mixture item": "535050dc4f475071da52aaac12a3e62acd6fe4bbb7fa2c89dddeeefddb91aa9b",
    },
}

# each plugin builder's content id at rank 16 on the base encoder of seed 5,
# from an rng of seed 0: the draws are the builders' own, in their order
# (fresh: A per layer; random features: A, then B, per layer). No BLAS call
# makes them, so one set holds on every kernel
BUILDER_IDS = {
    "fresh": "86e16759262b3de05c69c0f8c9ea400a8dc6f4b45723512a825cb43abc9a4a6b",
    "zero": "57154546e4093b51e9c1d561c9157612c700dd68ac054ae05f04eb1034f55773",
    "random features": "a1086af034ec6fe65828ef724bdaa2c34899b9a7e823b75fcda7d2b4e3a0671f",
}


CORE = nm.bundled_openblas()[0]


def pinned(got: dict[str, str], core: str = CORE) -> dict[str, str]:
    """The ids that PINS holds for the cases of ``got`` on OpenBLAS core
    ``core``; fails the test, printing ``got``, when PINS has no row for
    ``core``."""
    if core not in PINS:
        pytest.fail(f"no pinned ids for OpenBLAS core {core!r}; this run computed {got}",
                    pytrace=False)
    return {case: PINS[core][case] for case in got}


@pytest.mark.parametrize("core", ["Pentium", "unknown"])
def test_a_core_without_pins_fails_by_name(core):
    got = {"train": "0" * 64}
    with pytest.raises(pytest.fail.Exception) as failure:
        pinned(got, core)
    assert str(failure.value) == \
        f"no pinned ids for OpenBLAS core '{core}'; this run computed {got}"


@pytest.mark.parametrize("builder", sorted(BUILDER_IDS))
def test_plugin_builder_ids(builder):
    base, rng = model.BaseEncoder.from_seed(5), nm.make_rng(0)
    plugin = {"fresh": lambda: model.PluginModule.fresh(base, 16, 16.0, rng),
              "zero": lambda: model.PluginModule.zero(base, 16, 16.0),
              "random features": lambda: dst.random_feature_plugin(base, 16, 16.0, rng),
              }[builder]()
    assert plugin.content_id() == BUILDER_IDS[builder]


def m_toy_inputs():
    spec, train, _ = generate_tasks(1)[2]
    assert spec.name == "M-toy"
    return model.BaseEncoder.from_seed(1), spec, train


@pytest.fixture(scope="module")
def m_toy():
    return m_toy_inputs()


def seeded_train_id(base, spec, train) -> str:
    table = model.LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim)
    config = model.TrainConfig(epochs=2, dropout_p=0.1)
    plugin = model.train_plugin(base, table, train.inputs, train.labels, config,
                                nm.make_rng(11))
    return plugin.content_id()


def test_seeded_train_plugin_id(m_toy):
    got = {"train": seeded_train_id(*m_toy)}
    assert got == pinned(got)


def test_forge_runs_openblas_on_one_thread():
    if CORE == "unknown":
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    assert nm.bundled_openblas()[1] == 1


def test_thread_setting_moves_no_id():
    # Haswell's kernel sums in another order on two threads than on one, so
    # two threads gave another training id (a590b4e1...) until forge set one
    umath = np._core._multiarray_umath
    if not (CORE != "unknown" and umath.__cpu_features__["AVX2"]
            and umath.__cpu_features__["FMA3"]):
        pytest.skip("no bundled OpenBLAS, or a CPU without AVX2 and FMA3, which "
                    "OpenBLAS's Haswell kernel needs")
    avx512 = [t for t in umath.__cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
    tests, src = Path(__file__).parent, Path(model.__file__).parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="2",
               NPY_DISABLE_CPU_FEATURES=" ".join(avx512),
               PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    script = ("import test_content_ids as t; from forge import numerics as nm; "
              "print(t.seeded_train_id(*t.m_toy_inputs()), *nm.bundled_openblas())")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out == [PINS["Haswell"]["train"], "Haswell", "1"]


@pytest.mark.parametrize("init_from_real", [False, True])
def test_seeded_distill_id(m_toy, init_from_real):
    base, spec, train = m_toy
    config = dst.DistillConfig(iterations=20, ipc=3, dsa_enabled=True,
                               init_from_real=init_from_real)
    distilled = dst.distill(spec, train, base, config, nm.make_rng(12))
    assert np.all(np.isfinite(distilled.inputs))
    got = {"init-from-real" if init_from_real else "random-init": distilled.content_id()}
    assert got == pinned(got)


# each case stresses one way the class blocks of a step differ in length
@pytest.mark.parametrize("case", ["dsa-off", "ipc-above-real-batch", "short-real-class"])
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
    got = {case: distilled.content_id()}
    assert got == pinned(got)


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


@pytest.mark.parametrize("strategy", ["fusion", "mixture"])
def test_seeded_merge_history_ids(tmp_path, history_contributions, strategy):
    repo = Repository.init(tmp_path / "repo", 13, strategy, rank=4, alpha=4.0)
    assert repo.coeff_config().max_iterations == 40
    for contribution in history_contributions:
        repo.commit_contribution(contribution)
    records = repo.merge_all()
    # every round leaves the start point, so the ids pin the search's steps
    assert all((r["w_main"], r["w_branch"]) != (0.5, 0.5) for r in records)
    got = {f"{strategy} {k}": r["commit_id"] for k, r in enumerate(records, 1)}
    got[f"{strategy} item"] = records[-1]["item_id"]
    assert got == pinned(got)
