"""Content ids of seeded training and distillation runs, pinned to values
recorded before the encoder, cosine head, augmentation and matching loss
became fused tape nodes. Any change to the float32 operation order of a
forward or backward pass moves these ids.

The values were recorded on x86-64 with numpy's bundled OpenBLAS; a BLAS
whose kernels sum in another order gives other ids for the same code."""

import numpy as np
import pytest

from forge import distill as dst
from forge import model
from forge import numerics as nm
from forge.datasets import generate_tasks

PLUGIN_ID = "214802c97d622080ba68e2bdb10ac714b55d134ad0431727426af0ceb3f03309"
DISTILLED_IDS = {
    False: "3e90d2c17a5f67745ed0c6bde4187e978709dba1a0d9db800e62423995006c55",
    True: "b4a1c7f10a2f95ebfe7b92a69ce7910a653c6c97cb15b6b64a778184939358af",
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
