"""Seeded mutation tests of the five binary artifact formats (tensor, plugin
``.fgm``, distilled ``.fgd``, dataset ``.fgd`` and forge item): a parser
given any bytes returns an artifact or raises a ``ForgeError``, and the
commands that read those files exit 2 with nothing queued."""

import json
import struct

import numpy as np
import pytest

from forge import datasets as dsets
from forge import numerics as nm
from forge.cli import main
from forge.datasets import LabeledDataset, TaskSpec
from forge.distill import DistilledDataset
from forge.errors import ForgeError, FormatError, IntegrityError
from forge.merge import ForgeItem
from forge.model import BaseEncoder, LoraAdapter, PluginModule
from forge.numerics import Tensor

SEED = 5


def small_plugin(seed):
    rng = nm.make_rng(seed)
    adapters = {lid: LoraAdapter(lid, Tensor(rng.normal(size=(2, k))),
                                 Tensor(rng.normal(size=(d, 2))), 2, 4.0)
                for lid, (d, k) in enumerate([(4, 3), (2, 4)])}
    return PluginModule(adapters)


PLUGINS = {p.content_id(): p for p in (small_plugin(1), small_plugin(2))}


def load_plugin(plugin_id):
    """As the registry resolves a mixture entry: a missing id is an IntegrityError."""
    if plugin_id not in PLUGINS:
        raise IntegrityError(f"missing object {plugin_id}")
    return PLUGINS[plugin_id]


def parse_tensor(buf):
    r = nm.Reader(buf, "tensor")
    data = r.tensor()
    r.end()
    return data


SPEC = TaskSpec("tiny", ["left", "right"], (2, 3), grouped=True)
DATASET = LabeledDataset(nm.make_rng(3).normal(size=(3, 6)), [0, 1, 1], [7, 7, 9])
DISTILLED = DistilledDataset("tiny", 2, 1, (2, 3), nm.make_rng(4).normal(size=(2, 6)), [0, 1])
mixture_entries = [(p, c) for p, c in zip(PLUGINS.values(), (0.25, 1.5))]

# name: (bytes, parse, serialize)
FORMATS = {
    "tensor": (nm.tensor_to_bytes(Tensor(nm.make_rng(6).normal(size=(2, 3)))),
               parse_tensor, lambda data: nm.tensor_to_bytes(Tensor(data))),
    "plugin": (small_plugin(1).to_bytes(), PluginModule.from_bytes, PluginModule.to_bytes),
    "distilled set": (DISTILLED.to_bytes(), DistilledDataset.from_bytes,
                      DistilledDataset.to_bytes),
    "dataset": (dsets.dataset_to_bytes(SPEC, DATASET), dsets.dataset_from_bytes,
                lambda parsed: dsets.dataset_to_bytes(*parsed)),
    "fused item": (ForgeItem("fused", 2, plugin=small_plugin(2)).to_bytes(),
                   ForgeItem.from_bytes, ForgeItem.to_bytes),
    "mixture item": (ForgeItem("mixture", 2, entries=mixture_entries).to_bytes(),
                     lambda buf: ForgeItem.from_bytes(buf, load_plugin), ForgeItem.to_bytes),
}


@pytest.mark.parametrize("name", FORMATS)
def test_round_trip(name):
    buf, parse, serialize = FORMATS[name]
    assert serialize(parse(buf)) == buf


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation_and_trailing_byte_is_a_format_error(name):
    buf, parse, _ = FORMATS[name]
    for cut in range(len(buf)):
        with pytest.raises(FormatError):
            parse(buf[:cut])
    with pytest.raises(FormatError, match="trailing"):
        parse(buf + b"\0")


@pytest.mark.parametrize("name", FORMATS)
def test_byte_flips_raise_only_forge_errors(name):
    buf, parse, _ = FORMATS[name]
    rng = nm.make_rng(nm.derive_seed("flips", name))
    refused = 0
    for _ in range(300):
        mutated = bytearray(buf)
        for i in rng.choice(len(buf), size=int(rng.integers(1, 4)), replace=False):
            mutated[i] ^= int(rng.integers(1, 256))
        try:
            parse(bytes(mutated))
        except ForgeError:
            refused += 1
    assert refused > 0


# -- the crashes the hand-written parsers let through --------------------------


def plugin_with_1d_b():
    a = np.ones((2, 3), dtype=np.float32)
    return PluginModule({0: LoraAdapter(0, Tensor(a), Tensor(np.ones(2)), 2, 4.0)}).to_bytes()


def plugin_with_layers(plugin, layer_ids):
    """``plugin``'s adapter entries written in the order of ``layer_ids``."""
    singles = [PluginModule({lid: plugin.adapters[lid]}).to_bytes() for lid in layer_ids]
    entries = [single[9:] for single in singles]  # after magic, u8 version and u32 count
    return singles[0][:5] + struct.pack("<I", len(entries)) + b"".join(entries)


def distilled_with_bad_name(distilled):
    buf = distilled.to_bytes()
    name = distilled.task_name.encode()
    assert buf[9:9 + len(name)] == name  # magic, version, u32 length
    return buf[:9] + b"\xff" + buf[10:]


def dataset_with_overflowing_dims(spec, data):
    """Input dims whose product is past int64, so a wrapped product is negative."""
    buf = dsets.dataset_to_bytes(spec, data)
    dims_at = len(buf) - data.inputs.nbytes - 8
    assert struct.unpack_from("<II", buf, dims_at) == data.inputs.shape
    return buf[:dims_at] + struct.pack("<II", 2 ** 32 - 1, 2 ** 32 - 1) + buf[dims_at + 8:]


def test_one_dimensional_factor_is_a_format_error():
    with pytest.raises(FormatError, match="rank 1"):
        PluginModule.from_bytes(plugin_with_1d_b())


def test_repeated_layer_id_is_a_format_error():
    with pytest.raises(FormatError, match="layer 0 follows layer 0"):
        PluginModule.from_bytes(plugin_with_layers(small_plugin(1), [0, 0]))


def test_layers_out_of_order_are_a_format_error():
    # the same adapters in the other order would parse to the same plugin,
    # which to_bytes writes in increasing order: a second encoding of it
    plugin = small_plugin(1)
    assert plugin_with_layers(plugin, [0, 1]) == plugin.to_bytes()
    with pytest.raises(FormatError, match="layer 0 follows layer 1"):
        PluginModule.from_bytes(plugin_with_layers(plugin, [1, 0]))


def test_non_utf8_name_is_a_format_error():
    with pytest.raises(FormatError, match="UTF-8"):
        DistilledDataset.from_bytes(distilled_with_bad_name(DISTILLED))


def test_overflowing_tensor_dims_are_a_format_error():
    with pytest.raises(FormatError, match="truncated"):
        dsets.dataset_from_bytes(dataset_with_overflowing_dims(SPEC, DATASET))


# -- the same files through the command line -----------------------------------


@pytest.fixture(scope="module")
def task(tmp_path_factory):
    """A data directory with one two-class task, plus a plugin and a
    distilled set that commit to a fresh mixture repository."""
    data = tmp_path_factory.mktemp("data")
    spec = TaskSpec("tiny", ["left", "right"])
    rng = nm.make_rng(8)
    rows = LabeledDataset(rng.normal(size=(4, spec.flat_dim)), [0, 1, 0, 1])
    (data / "tiny").mkdir()
    for split in ("train", "test"):
        dsets.save_dataset(data / "tiny" / f"{split}.fgd", spec, rows)
    (data / "manifest.json").write_text(json.dumps({"tasks": {"tiny": spec.to_dict()}}))
    plugin = PluginModule.fresh(BaseEncoder.from_seed(SEED), 2, 4.0, rng)
    distilled = DistilledDataset("tiny", 2, 1, spec.input_shape,
                                 rng.normal(size=(2, spec.flat_dim)), [0, 1])
    return data, spec, rows, plugin, distilled


def repo_files(repo):
    return {p.relative_to(repo).as_posix(): p.read_bytes()
            for p in sorted(repo.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("bad", ["1-D B factor", "repeated layer", "reversed layers",
                                 "non-UTF-8 task name"])
def test_commit_of_a_malformed_file_is_two_and_queues_nothing(tmp_path, task, bad):
    data, _, _, plugin, distilled = task
    repo = tmp_path / "repo"
    assert main(["--seed", str(SEED), "init", "--strategy", "mixture", str(repo)]) == 0
    files = {"plugin": plugin.to_bytes(), "distilled": distilled.to_bytes()}
    good = dict(files)
    if bad == "1-D B factor":
        files["plugin"] = plugin_with_1d_b()
    elif bad == "repeated layer":
        files["plugin"] = plugin_with_layers(plugin, [0, 0])
    elif bad == "reversed layers":
        files["plugin"] = plugin_with_layers(plugin, sorted(plugin.adapters, reverse=True))
    else:
        files["distilled"] = distilled_with_bad_name(distilled)

    def commit(contents):
        for kind, buf in contents.items():
            (tmp_path / kind).write_bytes(buf)
        return main(["commit", str(repo), "--plugin", str(tmp_path / "plugin"),
                     "--distilled", str(tmp_path / "distilled"), "--task", "tiny",
                     "--data", str(data)])

    before = repo_files(repo)
    assert commit(files) == 2
    assert repo_files(repo) == before
    assert commit(good) == 0  # the same repository takes the well-formed pair
    assert len(list((repo / "queue").glob("*.json"))) == 1


def test_train_branch_on_overflowing_dims_is_two(tmp_path, task):
    data, spec, rows, _, _ = task
    out = tmp_path / "plugin.fgm"
    argv = ["--seed", str(SEED), "train-branch", "--task", "tiny", "--out", str(out),
            "--epochs", "1", "--data"]
    assert main([*argv, str(data)]) == 0
    out.unlink()
    bad = tmp_path / "bad"
    (bad / "tiny").mkdir(parents=True)
    (bad / "manifest.json").write_bytes((data / "manifest.json").read_bytes())
    (bad / "tiny" / "test.fgd").write_bytes((data / "tiny" / "test.fgd").read_bytes())
    (bad / "tiny" / "train.fgd").write_bytes(dataset_with_overflowing_dims(spec, rows))
    assert main([*argv, str(bad)]) == 2
    assert not out.exists()
