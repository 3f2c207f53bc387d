"""Seeded mutation tests of the text inputs forge reads: ``forge.json``,
``refs/main``, queue entries, the payloads of merge and contribution commits,
plugin sidecars, the dataset manifest and the INI run config.

Each mutated file goes through the commands that read it, in-process
through ``cli.main``. No command may exit 3 or print a traceback. A refusal
(exit 2, or 1 for the INI file) leaves every byte of the repository as it
was. Exit 0 is allowed only when the mutated document still holds every
field forge reads at its type (``SCHEMAS``, written out here apart from
forge's own readers), or, for the INI file, when the repository it made can
merge.
"""

import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from forge import datasets as dsets
from forge import numerics as nm
from forge.cli import main
from forge.datasets import LabeledDataset, TaskSpec
from forge.distill import DistilledDataset
from forge.model import BaseEncoder, PluginModule
from forge.registry import Repository

SEED = 5
INI = "[adapter]\nrank = 2\nalpha = 4.0\n[train]\ntemperature = 0.07\n" \
      "[merge]\nmax_iterations = 3\ninit_value = 0.5\n[run]\nseed = 5\nauthor = ann\n"
NUMBER = (int, float)
TASK = {"name": str, "labels": [str], "input_shape": list, "grouped": bool}
# what forge reads of each document; "?" marks an optional key, [t] a list of t
SCHEMAS = {
    "forge.json": {"format": int, "temperature": NUMBER,
                   "coeff": {"max_iterations": int, "init_value": NUMBER, "l1_lambda": NUMBER,
                             "box_min": NUMBER, "box_max": NUMBER, "allow_negative?": bool}},
    "refs/main": {"genesis": str, "head": str, "consumed?": {"commit_id": str, "seq": int}},
    "queue/000002.json": {"commit_id": str},
    "merge payload": {"round": int, "task": TASK, "plugin_id": str, "distilled_id": str,
                      "w_main": NUMBER, "w_branch": NUMBER, "item_id": str},
    "contribution payload": {"task": TASK, "plugin_id": str, "distilled_id": str},
    "p.fgm.meta.json": {"id": str, "config": dict},
    "manifest.json": {"tasks": dict},
}
WRONG = [None, True, 7, 0.5, "x", [], {}]  # one value of each JSON type


def typed(value, schema) -> bool:
    if isinstance(schema, dict):
        return isinstance(value, dict) and all(
            typed(value[key.rstrip("?")], kind) if key.rstrip("?") in value
            else key.endswith("?") for key, kind in schema.items())
    if isinstance(schema, list):
        return isinstance(value, list) and all(typed(v, schema[0]) for v in value)
    kinds = schema if isinstance(schema, tuple) else (schema,)
    return isinstance(value, kinds) and not (isinstance(value, bool) and bool not in kinds)


def parses_typed(buf: bytes, schema) -> bool:
    try:
        return typed(json.loads(buf), schema)
    except ValueError:
        return False


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def leaf_paths(doc, path=()):
    """Paths to every non-container value of ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else None
    if items is None:
        yield path
        return
    for key, value in items:
        yield from leaf_paths(value, (*path, key))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value=None, drop=False):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def byte_mutations(buf: bytes, rng, flips: int):
    """(label, bytes): truncations at several offsets and seeded byte flips."""
    for cut in sorted({0, 1, len(buf) // 2, len(buf) - 1, *rng.integers(2, len(buf), 3)}):
        yield f"cut at {cut}", buf[:cut]
    for _ in range(flips):
        flipped = bytearray(buf)
        at = int(rng.integers(len(buf)))
        flipped[at] ^= int(rng.integers(1, 256))
        yield f"flip at {at}", bytes(flipped)


def mutations(buf: bytes, name: str):
    """(label, bytes): ``byte_mutations``, NaN and Infinity for numbers, and
    each top-level key (and each key of a payload's task spec) dropped or
    given a value of another JSON type."""
    rng = nm.make_rng(nm.derive_seed("text mutations", name))
    yield from byte_mutations(buf, rng, 8)
    doc = json.loads(buf)
    # run_config is init's record of the run; forge never reads it back
    numbers = [p for p in leaf_paths(doc)
               if json_type(value_at(doc, p)) == "number" and "run_config" not in p]
    for path in numbers:
        yield f"{path} = NaN", json.dumps(replaced(doc, path, math.nan)).encode()
    if numbers:
        path = numbers[int(rng.integers(len(numbers)))]
        yield f"{path} = -Infinity", json.dumps(replaced(doc, path, -math.inf)).encode()
    keys = [(key,) for key in doc]
    if isinstance(doc.get("task"), dict):
        keys += [("task", key) for key in doc["task"]]
    for path in keys:
        yield f"drop {path}", json.dumps(replaced(doc, path, drop=True)).encode()
        have = json_type(value_at(doc, path))
        wrong = [v for v in WRONG if json_type(v) != have]
        value = wrong[int(rng.integers(len(wrong)))]
        yield f"{path} = {value!r}", json.dumps(replaced(doc, path, value)).encode()
    for other in ([doc], "text", {}):
        yield f"document {other!r:.20}", json.dumps(other).encode()


def files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A data directory with one task, a contribution with its sidecar, and
    a fusion repository made from ``INI`` that has merged one contribution
    and queued another."""
    root = tmp_path_factory.mktemp("world")
    data = root / "data"
    spec = TaskSpec("tiny", ["left", "right"])
    rng = nm.make_rng(8)
    rows = LabeledDataset(rng.normal(size=(4, spec.flat_dim)), [0, 1, 0, 1])
    (data / "tiny").mkdir(parents=True)
    for split in ("train", "test"):
        dsets.save_dataset(data / "tiny" / f"{split}.fgd", spec, rows)
    (data / "manifest.json").write_text(json.dumps(
        {"seed": SEED, "tasks": {"tiny": spec.to_dict()}}, indent=2, sort_keys=True))
    (root / "run.ini").write_text(INI)
    base = BaseEncoder.from_seed(SEED)
    for i in range(3):
        plugin = PluginModule.fresh(base, 2, 4.0, rng)
        for ad in plugin.adapters.values():
            ad.b[:] = rng.normal(size=ad.b.shape) * 0.1
        (root / f"p{i}.fgm").write_bytes(plugin.to_bytes())
        (root / f"p{i}.fgm.meta.json").write_text(json.dumps(
            {"id": plugin.content_id(), "task": "tiny", "config": {"run": {"seed": i}}},
            indent=2, sort_keys=True))
        (root / f"d{i}.fgd").write_bytes(DistilledDataset(
            "tiny", 2, 1, spec.input_shape, rng.normal(size=(2, spec.flat_dim)),
            [0, 1]).to_bytes())
    repo = root / "repo"
    assert main(["--config", str(root / "run.ini"), "init", "--strategy", "fusion",
                 str(repo)]) == 0
    for i in range(2):
        assert main(commit_argv(root, repo, i)) == 0
    assert main(["merge", str(repo), "--next"]) == 0
    return root


def commit_argv(root, repo, i):
    return ["commit", str(repo), "--plugin", str(root / f"p{i}.fgm"),
            "--distilled", str(root / f"d{i}.fgd"), "--task", "tiny",
            "--data", str(root / "data")]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err, argv
    assert code in (0, 2), (argv, code, out.err)
    return code


def head_commit(repo) -> dict:
    head = json.loads((repo / "refs" / "main").read_text())["head"]
    return json.loads((repo / "objects" / head[:2] / head[2:]).read_text())


def queued_commit(repo) -> dict:
    commit = json.loads((repo / "queue" / "000002.json").read_text())["commit_id"]
    return json.loads((repo / "objects" / commit[:2] / commit[2:]).read_text())


def document(repo, name) -> bytes:
    """The bytes of the document ``name``: a file, or the payload of the ref's
    head (a merge payload) or of the queued commit (a contribution payload)."""
    if name.endswith(" payload"):
        commit = head_commit(repo) if name == "merge payload" else queued_commit(repo)
        return json.dumps(commit["payload"], sort_keys=True).encode()
    return (repo / name).read_bytes()


def write_document(repo, name, buf):
    """Make ``buf`` the document ``name`` of ``repo``. A payload goes into a
    commit stored at its hash, which the ref's head or the queued entry then
    names, so bytes that are no JSON object make a commit that is none; returns
    that commit's id."""
    if not name.endswith(" payload"):
        (repo / name).write_bytes(buf)
        return
    commit = head_commit(repo) if name == "merge payload" else queued_commit(repo)
    data = b'{"author":"x","kind":"%s","parent":"%s","payload":%s}' % (
        commit["kind"].encode(), commit["parent"].encode(), buf)
    commit_id = hashlib.sha256(data).hexdigest()
    (repo / "objects" / commit_id[:2]).mkdir(exist_ok=True)
    (repo / "objects" / commit_id[:2] / commit_id[2:]).write_bytes(data)
    if name == "merge payload":
        ref = json.loads((repo / "refs" / "main").read_text())
        (repo / "refs" / "main").write_text(json.dumps({**ref, "head": commit_id}))
    else:
        (repo / "queue" / "000002.json").write_text(json.dumps({"commit_id": commit_id}))
    return commit_id


def check_repository_document(world, tmp_path, capsys, name, label, buf):
    repo = tmp_path / "repo"
    shutil.rmtree(repo, ignore_errors=True)
    shutil.copytree(world / "repo", repo)
    write_document(repo, name, buf)
    commands = [["checkout", str(repo), "--round", "1", "--out", str(tmp_path / "item.fgi")],
                ["eval", str(repo), "--tasks", "tiny", "--data", str(world / "data")],
                commit_argv(world, repo, 2), ["merge", str(repo), "--all"]]
    if name.startswith("queue/") or name == "contribution payload":
        commands = commands[-1:]
    elif name == "merge payload":  # commit reads no merge commit
        commands = [argv for argv in commands if argv[0] != "commit"]
    well_typed = parses_typed(buf, SCHEMAS[name])
    for argv in commands:
        before = files(repo)
        code = run(argv, capsys)
        assert code == 2 or well_typed, (label, argv)
        if code == 2:
            assert files(repo) == before, (label, argv)


@pytest.mark.parametrize("name", ["forge.json", "refs/main", "queue/000002.json",
                                  "merge payload", "contribution payload"])
def test_repository_documents(world, tmp_path, capsys, name):
    buf = document(world / "repo", name)
    for label, mutated in mutations(buf, name):
        check_repository_document(world, tmp_path, capsys, name, label, mutated)


def test_documents_that_exited_three(world, tmp_path, capsys):
    """forge.json with an unknown coeff key, without its strategy, or with a
    rank or alpha its fusion history was not made with; queue entries that
    are not a contribution's; and merge and contribution payloads without a
    key forge reads or with one at another type."""
    repo = world / "repo"
    config = json.loads((repo / "forge.json").read_text())
    ref = json.loads((repo / "refs" / "main").read_text())
    genesis = ref["genesis"]
    commit = json.loads((repo / "queue" / "000002.json").read_text())["commit_id"]
    payload = queued_commit(repo)["payload"]
    cases = [("forge.json", {**config, "coeff": {**config["coeff"], "bogus": 1}}),
             ("forge.json", {k: v for k, v in config.items() if k != "strategy"}),
             ("forge.json", {**config, "rank": 3}), ("forge.json", {**config, "alpha": 5.0}),
             ("merge payload", {}), ("merge payload", {"round": 1}),
             ("merge payload", {**head_commit(repo)["payload"], "plugin_id": 7}),
             ("contribution payload", {}), ("contribution payload", {**payload, "task": {}})]
    for doc in ("not json", [commit], {}):
        cases.append(("queue/000002.json", doc))
    for object_id in (payload["plugin_id"], payload["distilled_id"], genesis, ref["head"]):
        cases.append(("queue/000002.json", {"commit_id": object_id, "timestamp": 1.0}))
    for name, doc in cases:
        check_repository_document(world, tmp_path, capsys, name, f"{name}: {doc}",
                                  json.dumps(doc).encode())
    # a task that is no task spec is refused naming the commit that holds it
    named = tmp_path / "named"
    shutil.copytree(repo, named)
    commit_id = write_document(named, "contribution payload",
                               json.dumps({**payload, "task": {}}).encode())
    assert main(["merge", str(named), "--all"]) == 2
    assert f"contribution commit {commit_id}" in capsys.readouterr().err


def edited_copy(world, path, **edits):
    """A copy of the world's repository at ``path`` with ``edits`` made to
    its forge.json."""
    shutil.copytree(world / "repo", path)
    config = json.loads((path / "forge.json").read_text())
    (path / "forge.json").write_text(json.dumps({**config, **edits}))
    return path


def history(repo):
    """The main ref and the id of every stored object."""
    ref = json.loads((repo / "refs" / "main").read_text())
    return ref, sorted(p.parent.name + p.name for p in (repo / "objects").glob("*/*"))


def write_plugin(path, rank, alpha, seed):
    plugin = PluginModule.fresh(BaseEncoder.from_seed(SEED), rank, alpha, nm.make_rng(seed))
    for ad in plugin.adapters.values():
        ad.b[:] = nm.make_rng(seed + 1).normal(size=ad.b.shape) * 0.1
    path.write_bytes(plugin.to_bytes())


def with_plugin(argv, path):
    argv[argv.index("--plugin") + 1] = str(path)
    return argv


def test_edited_base_seed_changes_nothing(world, tmp_path, capsys):
    """The genesis commit records the encoder's seed and hash, and forge.json's
    ``base_seed`` is not read: merge, eval, commit and checkout of a copy
    with it edited print and store what the clean copy does."""
    repo = edited_copy(world, tmp_path / "repo", base_seed=SEED + 1)
    clean = edited_copy(world, tmp_path / "clean")
    printed = []
    for root in (repo, clean):
        for argv in (["merge", str(root), "--all"],
                     ["eval", str(root), "--tasks", "tiny", "--data", str(world / "data")],
                     commit_argv(world, root, 2),
                     ["checkout", str(root), "--round", "1",
                      "--out", str(tmp_path / "item.fgi")]):
            assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out.replace(str(root), "<repo>"))
    assert printed[0] == printed[1]
    assert history(repo) == history(clean)


def test_edited_rank_and_alpha_admit_no_plugin_of_that_rank(world, tmp_path, capsys):
    """A fusion plugin is checked against the genesis item's own plugin: one
    of the rank and alpha edited into forge.json is refused at commit, and
    the repository's own rank still merges to the clean copy's ids."""
    repo = edited_copy(world, tmp_path / "repo", rank=3, alpha=6.0)
    clean = edited_copy(world, tmp_path / "clean")
    write_plugin(tmp_path / "r3.fgm", 3, 6.0, seed=11)
    before = files(repo)
    assert run(with_plugin(commit_argv(world, repo, 2), tmp_path / "r3.fgm"), capsys) == 2
    assert files(repo) == before
    for root in (repo, clean):
        assert run(commit_argv(world, root, 2), capsys) == 0
        assert run(["merge", str(root), "--all"], capsys) == 0
    assert history(repo) == history(clean)


def test_edited_strategy_does_not_enter_a_fusion_history(world, tmp_path, capsys):
    """Every merge commit of a fusion history records "fusion", whatever
    forge.json says."""
    repo = edited_copy(world, tmp_path / "repo", strategy="mixture")
    clean = edited_copy(world, tmp_path / "clean")
    for root in (repo, clean):
        assert run(commit_argv(world, root, 2), capsys) == 0
        assert run(["merge", str(root), "--all"], capsys) == 0
    payloads = Repository(repo).chain().merges
    assert [p["strategy"] for p in payloads] == ["fusion"] * 3
    assert history(repo) == history(clean)


def test_edited_strategy_does_not_hold_a_mixture_to_one_rank(world, tmp_path, capsys):
    """A mixture history takes plugins of any rank, whatever forge.json says."""
    write_plugin(tmp_path / "r3.fgm", 3, 6.0, seed=11)
    histories = []
    for name, edits in (("repo", {"strategy": "fusion"}), ("clean", {})):
        root = tmp_path / name
        assert main(["--config", str(world / "run.ini"), "init", "--strategy", "mixture",
                     str(root)]) == 0
        config = json.loads((root / "forge.json").read_text())
        (root / "forge.json").write_text(json.dumps({**config, **edits}))
        assert run(commit_argv(world, root, 0), capsys) == 0
        assert run(with_plugin(commit_argv(world, root, 1), tmp_path / "r3.fgm"), capsys) == 0
        assert run(["merge", str(root), "--all"], capsys) == 0
        histories.append(history(root))
    assert histories[0] == histories[1]
    assert Repository(tmp_path / "repo").chain().round == 2


@pytest.mark.parametrize("damage", ["file as shard", "directory as object"])
@pytest.mark.parametrize("command", ["commit", "merge"])
def test_an_object_path_that_cannot_be_written_is_two(world, tmp_path, capsys, command,
                                                      damage):
    """A file where the shard directory of an object to store belongs, or a
    directory where the object belongs, is refused naming that object, and
    neither the ref nor the queue moves."""
    def argv(root):
        return commit_argv(world, root, 2) if command == "commit" else \
            ["merge", str(root), "--all"]

    clean = edited_copy(world, tmp_path / "clean")
    shards = {p.name for p in (clean / "objects").iterdir()}
    stored = history(clean)[1]
    assert run(argv(clean), capsys) == 0
    new = [i for i in history(clean)[1] if i not in stored]
    repo = edited_copy(world, tmp_path / "repo")
    if damage == "file as shard":
        blocked = [i for i in new if i[:2] not in shards]
        assert blocked, "every new object lands in a shard that exists"
        (repo / "objects" / blocked[0][:2]).write_text("not a shard")
    else:
        blocked = new
        (repo / "objects" / blocked[0][:2] / blocked[0][2:]).mkdir(parents=True)

    def pointers():
        return {k: v for k, v in files(repo).items() if k.startswith(("refs/", "queue/"))}

    before = pointers()
    assert main(argv(repo)) == 2
    assert blocked[0] in capsys.readouterr().err
    assert pointers() == before


def test_plugin_sidecar(world, tmp_path, capsys):
    shutil.copy(world / "p2.fgm", tmp_path / "p2.fgm")
    for label, mutated in mutations((world / "p2.fgm.meta.json").read_bytes(), "sidecar"):
        repo = tmp_path / "repo"
        shutil.rmtree(repo, ignore_errors=True)
        shutil.copytree(world / "repo", repo)
        (tmp_path / "p2.fgm.meta.json").write_bytes(mutated)
        before = files(repo)
        argv = with_plugin(commit_argv(world, repo, 2), tmp_path / "p2.fgm")
        code = run(argv, capsys)
        assert code == 2 or parses_typed(mutated, SCHEMAS["p.fgm.meta.json"]), label
        if code == 2:
            assert files(repo) == before, label


def test_dataset_manifest(world, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(world / "data", data)
    out = tmp_path / "plugin.fgm"
    for label, mutated in mutations((data / "manifest.json").read_bytes(), "manifest"):
        (data / "manifest.json").write_bytes(mutated)
        code = run(["--config", str(world / "run.ini"), "train-branch", "--task", "tiny",
                    "--data", str(data), "--out", str(out), "--epochs", "1"], capsys)
        assert code == 2 or parses_typed(mutated, SCHEMAS["manifest.json"]), label
        assert out.exists() == (code == 0), label
        out.unlink(missing_ok=True)


def ini_mutations():
    buf = INI.encode()
    rng = nm.make_rng(nm.derive_seed("text mutations", "ini"))
    for label, mutated in byte_mutations(buf, rng, 12):
        yield label, mutated, None
    for key, value in (("rank", "0"), ("alpha", "nan"), ("temperature", "0"),
                       ("temperature", "inf"), ("init_value", "5")):
        lines = [f"{key} = {value}" if line.startswith(key + " ") else line
                 for line in INI.splitlines()]
        yield f"{key} = {value}", "\n".join(lines).encode(), 2
    yield "no section header", b"rank = 2\n" + buf, 1
    yield "repeated key", buf + b"seed = 6\n", 1
    yield "repeated section", buf + b"[adapter]\ndropout = 0.2\n", 1
    yield "a line without =", buf + b"seed\n", 1
    yield "not UTF-8", buf.replace(b"ann", b"\xff\xfe"), 1


def test_ini_run_config(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    for i, (label, mutated, expect) in enumerate(ini_mutations()):
        ini.write_bytes(mutated)
        repo = tmp_path / f"repo{i}"
        code = main(["--config", str(ini), "init", "--strategy", "fusion", str(repo)])
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err, label
        assert code in (0, 1, 2), (label, code, out.err)
        assert expect is None or code == expect, (label, code, out.err)
        assert repo.exists() == (code == 0), label
        if code == 0:  # a repository that opens can merge
            temperature = json.loads((repo / "forge.json").read_text())["temperature"]
            assert np.isfinite(temperature) and temperature > 0, label
            # the fusion genesis item fixes the rank and alpha of every plugin
            for ad in Repository(repo).current_item().plugin.adapters.values():
                assert ad.rank >= 1 and np.isfinite(ad.alpha) and ad.alpha > 0, label
