"""Every state a process crash can leave in the middle of a forge operation.

The method is that of Pillai et al., "All File Systems Are Not Created
Equal" (OSDI 2014): record a trace of the writes an operation makes, build
each state a crash could leave on a copy of the files as they were before the
operation, and check that forge recovers from every one of them.

The trace is taken by wrapping forge's one staged write
(``numerics.staged_file``), the merge-log append and ``os.rename`` (which
only ``init`` calls), and by snapshotting the files after each step. No
forge operation removes a queue entry. The states are every prefix of the
trace, each staged file present but not yet renamed (or, for a queue
entry, linked and not yet removed), and a merge log whose last line is cut in
half. Nothing in forge is fsynced, so the reorderings a power loss allows are
not among them.

On each state the repository must open and replay. The interrupted command is
rerun if its commit point was not reached (the queue link for a commit, the
ref write for a merge, the rename of ``forge.json`` into place for an init),
then every queued contribution is merged, and the ref, each merge commit id
and each item id must equal those of the run that did not crash, and the
merge log must still parse.
"""

import contextlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from forge import datasets as dsets
from forge import numerics as nm
from forge.cli import main
from forge.datasets import LabeledDataset, TaskSpec
from forge.distill import DistilledDataset
from forge.merge import CoeffOptimConfig
from forge.model import PluginModule
from forge.errors import ConflictError, InputError
from forge.registry import BranchContribution, Repository

SEED = 7
RANK, ALPHA = 4, 4.0
LOG = "log/merges.jsonl"
TASKS = [("alpha", ["a0", "a1"]), ("beta", ["b0", "b1", "b2"]), ("gamma", ["g0", "g1"])]


def make_repo(path, strategy):
    return Repository.init(path, SEED, strategy, rank=RANK, alpha=ALPHA,
                           coeff=CoeffOptimConfig(max_iterations=6))


def contributions(repo) -> list[BranchContribution]:
    out = []
    for name, labels in TASKS:
        rng = nm.make_rng(nm.derive_seed("crash", name))
        plugin = PluginModule.fresh(repo.base, RANK, ALPHA, rng)
        for ad in plugin.adapters.values():
            ad.b[:] = rng.normal(size=ad.b.shape).astype(np.float32) * 0.1
        task = TaskSpec(name, labels)
        inputs = rng.normal(size=(2 * len(labels), task.flat_dim)).astype(np.float32)
        distilled = DistilledDataset(name, len(labels), 2, task.input_shape, inputs,
                                     np.repeat(np.arange(len(labels)), 2))
        out.append(BranchContribution(task, plugin, distilled))
    return out


def history(path: Path, strategy: str):
    """A repository that has merged the first of ``contributions`` and queues
    the second, and the three contributions."""
    repo = make_repo(path, strategy)
    made = contributions(repo)
    repo.commit_contribution(made[0])
    repo.merge_next()
    repo.commit_contribution(made[1])
    return repo, made


def snapshot(root: Path) -> dict:
    """Each directory (as None) and file (as its bytes) under ``root``."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def build(root: Path, state: dict) -> Path:
    """``state`` made anew at ``root``."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    for rel, data in sorted(state.items()):
        if data is None:
            (root / rel).mkdir(parents=True, exist_ok=True)
        else:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
    return root


def torn(state: dict) -> dict:
    """``state`` with the last line of its merge log cut in half."""
    log = state[LOG]
    start = log.rstrip(b"\n").rfind(b"\n") + 1
    return {**state, LOG: log[:start + (len(log) - start) // 2]}


def crash_states(root: Path, operation):
    """Run ``operation()`` on the files under ``root``. Returns each distinct
    state a process crash in it can leave there, the state before it first
    and the state after it last, and what it returned."""
    states = [snapshot(root)]
    take = lambda: states.append(snapshot(root))  # noqa: E731
    staged, append, rename = nm.staged_file, Repository._append_merge_record, os.rename

    @contextlib.contextmanager
    def staged_file(directory, data):
        with staged(directory, data) as tmp:
            take()  # staged, neither renamed nor linked
            yield tmp
            take()  # renamed, or linked with the staged file still there
        take()

    def append_merge_record(self, record):
        append(self, record)
        take()
        states.insert(-1, torn(states[-1]))  # died halfway through the line

    def renamed(src, dst):
        rename(src, dst)
        take()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nm, "staged_file", staged_file)
        mp.setattr(Repository, "_append_merge_record", append_merge_record)
        mp.setattr(os, "rename", renamed)
        result = operation()
    take()
    return list({frozenset(s.items()): s for s in states}.values()), result


def opened(root: Path) -> Repository:
    """The repository at ``root``, which must open and replay, and in which no
    ``.tmp-`` file passes for an object or a queue entry."""
    repo = Repository(root)
    repo.replay()
    ids = repo.all_object_ids()
    assert all(re.fullmatch("[0-9a-f]{64}", object_id) for object_id in ids)
    assert repo.verify_objects() == len(ids)
    for doc in repo.pending():
        assert repo.read_commit(doc["commit_id"]).kind == "contribution"
    return repo


def outcome(repo: Repository) -> dict:
    """What every recovered run must share with the clean one: the ref, each
    merge commit's id and item id from genesis on, nothing pending, and a
    merge log that parses and ends with the last round."""
    ref = repo._read_ref()
    chain, commit_id = [], ref["head"]
    while commit_id != ref["genesis"]:
        commit = repo.read_commit(commit_id)
        chain.append((commit_id, commit.payload["item_id"]))
        commit_id = commit.parent
    return {"ref": ref, "chain": chain[::-1], "pending": repo.pending(),
            "last_logged_round": repo.merge_records()[-1]["round"]}


@pytest.mark.parametrize("strategy", ["fusion", "mixture"])
def test_every_crash_state_of_a_commit_recovers(tmp_path, strategy):
    repo, (_, _, third) = history(tmp_path / "run", strategy)
    states, commit = crash_states(repo.root, lambda: repo.commit_contribution(third))
    repo.merge_all()
    clean = outcome(repo)
    # before; each of four writes (plugin, distilled set, commit, queue entry)
    # staged and done; the queue entry linked beside its staged file
    assert len(clean["chain"]) == 3 and len(states) == 10
    for state in states:
        repo = opened(build(tmp_path / "state", state))
        if commit.id not in [doc["commit_id"] for doc in repo.pending()]:
            repo.commit_contribution(third)
        repo.merge_all()
        assert outcome(repo) == clean


@pytest.mark.parametrize("strategy", ["fusion", "mixture"])
def test_every_crash_state_of_a_merge_round_recovers(tmp_path, strategy):
    repo, (_, _, third) = history(tmp_path / "run", strategy)
    repo.commit_contribution(third)
    states, record = crash_states(repo.root, repo.merge_next)
    repo.merge_all()
    clean = outcome(repo)
    # before; item, commit and ref each staged and done; the log line torn
    # and whole. The round's queue entry stays, at the ref's cursor.
    assert record["round"] == 2 and len(clean["chain"]) == 3 and len(states) == 9
    assert sum(LOG in s and not s[LOG].endswith(b"\n") for s in states) == 1
    for state in states:
        repo = opened(build(tmp_path / "state", state))
        if repo.chain().round < record["round"]:
            repo.merge_next()
        repo.merge_all()
        assert outcome(repo) == clean


@pytest.mark.parametrize("existing", [False, True], ids=["new path", "empty directory"])
def test_every_crash_state_of_init_leaves_no_repository_or_a_whole_one(tmp_path, existing):
    """A repository that exists is whole. A new path is made by one rename of
    the ``.tmp-`` directory it was built in, so wherever no repository exists
    init can run again. An empty directory already there is kept, and the
    repository's entries are renamed into it, ``forge.json`` last: a crash
    among those renames leaves no repository and a directory that init
    refuses as not empty."""
    work = tmp_path / "run"
    (work / "repo" if existing else work).mkdir(parents=True)
    states, repo = crash_states(work, lambda: make_repo(work / "repo", "fusion"))
    first = contributions(repo)[0]

    def finish(repo):
        repo.commit_contribution(first)
        repo.merge_all()
        return outcome(repo)

    clean = finish(repo)
    # before; forge.json, the genesis item, its commit and the ref each staged
    # and done in the .tmp- directory; then that directory renamed into place,
    # or each of its six entries renamed into the empty directory and the
    # .tmp- directory removed
    assert len(states) == (16 if existing else 10)
    refused = 0
    for state in states:
        root = build(tmp_path / "state", state)
        if not (root / "repo" / "forge.json").exists():
            with pytest.raises(InputError, match="no repository"):
                Repository(root / "repo")
            try:
                make_repo(root / "repo", "fusion")
            except ConflictError:  # the renames of objects/ .. locks/ into the directory
                refused += 1
                continue
        assert finish(opened(root / "repo")) == clean
    assert refused == (5 if existing else 0)


def test_every_crash_state_of_an_artifact_write_is_refused_or_true(tmp_path):
    """A crash while ``train-branch`` replaces a plugin and its sidecar leaves
    a pair that ``commit`` refuses, with exit 2 and nothing stored, or one it
    records with the settings of the run that made those plugin bytes."""
    work = tmp_path / "run"
    spec = TaskSpec("tiny", ["left", "right"])
    rng = nm.make_rng(3)
    (work / "data" / "tiny").mkdir(parents=True)
    for split in ("train", "test"):
        dsets.save_dataset(work / "data" / "tiny" / f"{split}.fgd", spec,
                           LabeledDataset(rng.normal(size=(6, spec.flat_dim)), [0, 1] * 3))
    (work / "data" / "manifest.json").write_text(json.dumps({"tasks": {"tiny": spec.to_dict()}}))
    (work / "d.fgd").write_bytes(DistilledDataset(
        "tiny", 2, 1, spec.input_shape, rng.normal(size=(2, spec.flat_dim)), [0, 1]).to_bytes())
    blank = make_repo(tmp_path / "blank", "mixture").root

    def train(root, epochs):
        assert main(["--seed", str(SEED), "train-branch", "--task", "tiny", "--data",
                     str(root / "data"), "--out", str(root / "p.fgm"),
                     "--epochs", str(epochs)]) == 0

    def commit(root):
        """``forge commit`` of the pair under ``root`` to a new copy of ``blank``."""
        trial = tmp_path / "trial"
        shutil.rmtree(trial, ignore_errors=True)
        shutil.copytree(blank, trial)
        code = main(["commit", str(trial), "--plugin", str(root / "p.fgm"), "--distilled",
                     str(root / "d.fgd"), "--task", "tiny", "--data", str(root / "data")])
        return code, Repository(trial)

    def sidecar(root):
        return json.loads((root / "p.fgm.meta.json").read_text())["config"]

    train(work, 1)
    made_by = {(work / "p.fgm").read_bytes(): sidecar(work)}
    states, _ = crash_states(work, lambda: train(work, 2))
    new = (work / "p.fgm").read_bytes()
    made_by[new] = sidecar(work)
    # each sidecar records the --epochs its run trained for
    assert [config["train"]["epochs"] for config in made_by.values()] == [1, 2]
    code, repo = commit(work)
    assert code == 0
    repo.merge_all()
    clean = outcome(repo)
    refused = 0
    for state in states:
        root = build(tmp_path / "state", state)
        code, repo = commit(root)
        if code == 2:
            refused += 1
            assert snapshot(repo.root) == snapshot(blank)
        else:
            assert code == 0
            (doc,) = repo.pending()
            meta = repo.read_commit(doc["commit_id"]).payload["training_meta"]
            assert meta == made_by[(root / "p.fgm").read_bytes()]
        if (root / "p.fgm").read_bytes() != new:
            train(root, 2)
        code, repo = commit(root)
        assert code == 0
        repo.merge_all()
        assert outcome(repo) == clean
    assert refused == 2  # the new sidecar beside the old plugin, with and without its stage
