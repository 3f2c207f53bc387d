import argparse
import hashlib
import json
import os
import sys
import threading
from collections import Counter
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from forge import merge, model
from forge import numerics as nm
from forge.cli import main
from forge.datasets import LabeledDataset, TaskSpec, save_dataset
from forge.distill import DistilledDataset
from forge.errors import (
    ConflictError,
    InputError,
    IntegrityError,
    LockHeldError,
    NothingToMergeError,
    ValidationError,
)
from forge.merge import CoeffOptimConfig
from forge.model import PluginModule
from forge.registry import QUEUE_ENTRY_NAME, BranchContribution, Repository

SEED = 99
RANK, ALPHA = 4, 4.0


def fast_coeff():
    return CoeffOptimConfig(max_iterations=8)


def make_repo(path, strategy="mixture", seed=SEED):
    return Repository.init(path, seed, strategy, rank=RANK, alpha=ALPHA,
                           coeff=fast_coeff())


def make_contribution(base, name, labels, author="alice", seed=0):
    rng = nm.make_rng(nm.derive_seed("contrib", name, seed))
    plugin = PluginModule.fresh(base, RANK, ALPHA, rng)
    for ad in plugin.adapters.values():
        ad.b[:] = rng.normal(size=ad.b.shape).astype(np.float32) * 0.1
    task = TaskSpec(name, list(labels))
    ipc = 3
    inputs = rng.normal(size=(ipc * len(labels), task.flat_dim)).astype(np.float32)
    y = np.repeat(np.arange(len(labels)), ipc)
    distilled = DistilledDataset(name, len(labels), ipc, task.input_shape, inputs, y)
    return BranchContribution(task, plugin, distilled, author=author)


class TestInit:
    def test_fresh_repo_behaves_as_base_only(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        item = repo.current_item()
        assert item.round == 0
        assert item.deltas() is None or all(
            np.all(d == 0) for d in item.deltas().values())

    def test_same_seed_same_base_hash(self, tmp_path):
        r1 = make_repo(tmp_path / "a")
        r2 = make_repo(tmp_path / "b")
        assert r1.base.param_hash() == r2.base.param_hash()

    def test_init_over_existing_rejected(self, tmp_path):
        make_repo(tmp_path / "repo")
        with pytest.raises(ConflictError):
            make_repo(tmp_path / "repo")

    def test_init_under_a_file_rejected(self, tmp_path):
        (tmp_path / "runs").write_text("not a directory")
        with pytest.raises(ConflictError, match="runs exists and is not a directory"):
            make_repo(tmp_path / "runs" / "repo")

    def test_coeff_config_round_trips(self, tmp_path):
        coeff = CoeffOptimConfig(max_iterations=7, init_value=0.25, l1_lambda=0.0,
                                 box_min=-1.0, box_max=3.0)
        Repository.init(tmp_path / "repo", SEED, "fusion", rank=RANK, alpha=ALPHA,
                        coeff=coeff)
        assert Repository(tmp_path / "repo").coeff_config() == coeff

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_earlier_allow_negative_reads_as_the_box_it_searched(self, tmp_path, strategy):
        # forge.json written by earlier code holds coeff's allow_negative: false
        # searched [box_min, box_max], true [-box_max, box_max] whatever box_min said
        def merged(name, box_min=0.0, allow_negative=None):
            root = tmp_path / name
            repo = Repository.init(root, SEED, strategy, rank=RANK, alpha=ALPHA,
                                   coeff=CoeffOptimConfig(max_iterations=8, box_min=box_min))
            if allow_negative is not None:
                config = json.loads((root / "forge.json").read_text())
                config["coeff"]["allow_negative"] = allow_negative
                (root / "forge.json").write_text(json.dumps(config))
                repo = Repository(root)
            for seed, task in enumerate(("t1", "t2")):
                repo.commit_contribution(make_contribution(repo.base, task, ["a", "b"],
                                                           seed=seed))
            return [(record["commit_id"], record["item_id"]) for record in repo.merge_all()]

        zero, minus_two = merged("box_min 0"), merged("box_min -2", box_min=-2.0)
        assert zero != minus_two  # the two boxes search apart
        assert merged("false", allow_negative=False) == zero
        assert merged("true", allow_negative=True) == minus_two
        assert Repository(tmp_path / "true").coeff_config().box_min == -2.0

    # the default encoder's layers are 64 x 256 and 32 x 64: no plugin on it
    # has rank 33
    @pytest.mark.parametrize("setting", [{"rank": 0}, {"rank": -1}, {"temperature": 0.0},
                                         {"alpha": float("nan")}, {"strategy": "soup"},
                                         {"rank": 33}, {"strategy": "fusion", "rank": 33}],
                             ids=["rank 0", "rank -1", "temperature 0", "alpha NaN",
                                  "strategy soup", "rank 33", "fusion rank 33"])
    def test_init_refuses_what_could_not_merge_and_creates_nothing(self, tmp_path, setting):
        kwargs = {"strategy": "mixture", "rank": RANK, "alpha": ALPHA, **setting}
        with pytest.raises(InputError):
            Repository.init(tmp_path / "repo", SEED, kwargs.pop("strategy"), coeff=fast_coeff(),
                            **kwargs)
        assert not (tmp_path / "repo").exists()

    def test_fusion_genesis_is_zero_plugin(self, tmp_path):
        repo = make_repo(tmp_path / "repo", strategy="fusion")
        item = repo.current_item()
        assert item.kind == "fused"
        for delta in item.deltas().values():
            assert np.all(delta == 0)


class TestCommit:
    def test_duplicate_contribution_deduplicates_objects(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["red grating", "blue grating"])
        c1 = repo.commit_contribution(contrib)
        n_objects = len(repo.all_object_ids())
        c2 = repo.commit_contribution(contrib)
        assert c1.id == c2.id
        assert len(repo.all_object_ids()) == n_objects
        assert len(repo.pending()) == 2

    def test_tampered_object_detected(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["red grating", "blue grating"])
        commit = repo.commit_contribution(contrib)
        plugin_id = commit.payload["plugin_id"]
        target = Path(repo._object_file(plugin_id))
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            repo.read_object(plugin_id)

    def test_heterogeneous_class_counts_accepted(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        repo.commit_contribution(
            make_contribution(repo.base, "two", ["a pattern", "b pattern"]))
        repo.commit_contribution(
            make_contribution(repo.base, "three", ["x", "y", "z"]))
        assert len(repo.pending()) == 2

    def test_mismatched_distilled_rejected(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        bad = DistilledDataset("other-task", contrib.distilled.num_classes,
                               contrib.distilled.ipc, contrib.distilled.input_shape,
                               contrib.distilled.inputs, contrib.distilled.labels)
        contrib.distilled = bad
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)

    def test_missing_artifact_is_integrity_error(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        with pytest.raises(IntegrityError):
            repo.read_object("0" * 64)

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_lost_genesis_item_is_no_refused_contribution(self, tmp_path, strategy, capsys):
        """A repository that lost its genesis item reports that object, not the
        contribution, through the library and through ``forge commit`` (exit
        2); nothing is stored or queued."""
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        contrib = make_contribution(repo.base, "t1", ["t1 a", "t1 b"])
        item_id = repo.read_commit(repo._read_ref()["genesis"]).payload["item_id"]
        Path(repo._object_file(item_id)).unlink()
        stored = repo.all_object_ids()
        with pytest.raises(IntegrityError, match=f"^missing object {item_id}$"):
            repo.commit_contribution(contrib)
        (tmp_path / "p.fgm").write_bytes(contrib.plugin.to_bytes())
        (tmp_path / "d.fgd").write_bytes(contrib.distilled.to_bytes())
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_text(
            json.dumps({"tasks": {"t1": contrib.task.to_dict()}}))
        assert main(["commit", str(repo.root), "--plugin", str(tmp_path / "p.fgm"),
                     "--distilled", str(tmp_path / "d.fgd"), "--task", "t1",
                     "--data", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err == f"error: missing object {item_id}\n"
        assert repo.all_object_ids() == stored
        assert repo.pending() == []

    def test_fusion_repo_rejects_rank_mismatch_at_commit(self, tmp_path):
        repo = make_repo(tmp_path / "repo", strategy="fusion")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        other = PluginModule.fresh(repo.base, RANK * 2, ALPHA, nm.make_rng(0))
        contrib.plugin = other
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_plugin_skipping_a_layer_is_refused_by_fusion_only(self, tmp_path, strategy):
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        partial = make_contribution(repo.base, "t1", ["red", "blue"])
        del partial.plugin.adapters[1]
        if strategy == "fusion":
            # fuse needs both layers; queued, it would fail every later merge
            with pytest.raises(ValidationError, match="each of layers"):
                repo.commit_contribution(partial)
        else:
            repo.commit_contribution(partial)
        repo.commit_contribution(make_contribution(repo.base, "t2", ["green", "grey"], seed=1))
        repo.merge_all()
        assert repo.pending() == []
        assert repo.chain().round == (1 if strategy == "fusion" else 2)

    def test_mixture_repo_accepts_heterogeneous_ranks(self, tmp_path):
        repo = make_repo(tmp_path / "repo", strategy="mixture")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        contrib.plugin = PluginModule.fresh(repo.base, RANK * 2, ALPHA, nm.make_rng(0))
        repo.commit_contribution(contrib)
        repo.merge_next()
        assert repo.chain().round == 1

    @pytest.mark.parametrize("factor,bad", [("a", np.nan), ("b", np.inf)])
    def test_non_finite_plugin_refused_before_storing(self, tmp_path, factor, bad):
        repo = make_repo(tmp_path / "repo")
        before = repo.all_object_ids()
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        getattr(contrib.plugin.adapters[1], factor)[0, 0] = bad
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)
        assert repo.all_object_ids() == before
        assert repo.pending() == []

    @pytest.mark.parametrize("strategy,bad", [("fusion", {"alpha": ALPHA * 2}),
                                              ("mixture", {"alpha": float("nan")}),
                                              ("mixture", {"alpha": -ALPHA}),
                                              ("mixture", {"rank": 0}),
                                              ("mixture", {"rank": 33})])
    def test_bad_alpha_or_rank_refused_and_the_queue_still_merges(self, tmp_path,
                                                                  strategy, bad):
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        before = repo.all_object_ids()
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        for lid, ad in contrib.plugin.adapters.items():
            ad.alpha = bad.get("alpha", ad.alpha)
            if "rank" in bad:
                # rank 33 fits layer 0 (64 x 256), not layer 1 (32 x 64)
                r, (d, k) = bad["rank"], repo.base.layer_dims(lid)
                ad.a = nm.make_rng(lid).normal(0.0, 0.02, size=(r, k)).astype(np.float32)
                ad.b = np.full((d, r), 0.01, np.float32)
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)
        assert repo.all_object_ids() == before
        assert repo.pending() == []
        repo.commit_contribution(make_contribution(repo.base, "t2", ["red", "blue"]))
        assert repo.merge_next()["round"] == 1
        assert repo.pending() == []

    def test_commit_failing_to_write_its_queue_doc_blocks_nothing(self, tmp_path,
                                                                   monkeypatch):
        import json

        repo = make_repo(tmp_path / "repo")
        dumps = json.dumps

        def failing_for_queue_docs(obj, *args, **kwargs):
            if isinstance(obj, dict) and set(obj) == {"commit_id", "timestamp"}:
                raise OSError("killed while writing the queue entry")
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", failing_for_queue_docs)
        with pytest.raises(OSError):
            repo.commit_contribution(make_contribution(repo.base, "t1", ["red", "blue"]))
        monkeypatch.setattr(json, "dumps", dumps)
        assert list((repo.root / "queue").iterdir()) == []
        assert repo.pending() == []
        assert repo.merge_all() == []
        commit = repo.commit_contribution(make_contribution(repo.base, "t2", ["red", "blue"]))
        assert [doc["commit_id"] for doc in repo.pending()] == [commit.id]
        assert [r["contribution_commit"] for r in repo.merge_all()] == [commit.id]
        assert repo.pending() == []

    def test_commit_to_a_malformed_ref_stores_nothing(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        (repo.root / "refs" / "main").write_text("[]")
        before = repo.all_object_ids()
        with pytest.raises(IntegrityError):
            repo.commit_contribution(make_contribution(repo.base, "t1", ["a", "b"]))
        assert repo.all_object_ids() == before
        assert list((repo.root / "queue").iterdir()) == []  # pending() needs a readable ref

    def test_negative_distilled_label_refused_before_storing(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        before = repo.all_object_ids()
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        contrib.distilled.labels[0] = -1
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)
        assert repo.all_object_ids() == before
        assert repo.pending() == []

    @pytest.mark.parametrize("labels", [["red"], ["red", "blue", "red"]],
                             ids=["one label", "repeated label"])
    def test_task_without_two_distinct_labels_refused_before_storing(self, tmp_path, labels):
        repo = make_repo(tmp_path / "repo")
        before = repo.all_object_ids()
        with pytest.raises(ValidationError):
            repo.commit_contribution(make_contribution(repo.base, "t1", labels))
        assert repo.all_object_ids() == before
        assert repo.pending() == []

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    @pytest.mark.parametrize("damage", ["zero row", "other width", "no items"])
    def test_distilled_set_no_merge_can_score_refused_and_the_queue_still_merges(
            self, tmp_path, strategy, damage):
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        before = repo.all_object_ids()
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        if damage == "zero row":
            # zero biases and bias-free adapters embed a zero row to zero at any
            # coefficients, so queued it would fail every later merge
            contrib.distilled.inputs[0] = 0.0
        elif damage == "other width":  # an 8x8 task against the 256-wide encoder
            contrib.task = TaskSpec("t1", ["red", "blue"], (8, 8))
            contrib.distilled = DistilledDataset("t1", 2, 1, (8, 8), np.ones((2, 64)), [0, 1])
        else:  # a set with no rows cannot guide any later round
            d = contrib.distilled
            d.ipc, d.inputs, d.labels = 0, d.inputs[:0], d.labels[:0]
        match = {"zero row": "zero-norm", "other width": "input dim 64", "no items": "one item"}
        with pytest.raises(ValidationError, match=match[damage]):
            repo.commit_contribution(contrib)
        assert repo.all_object_ids() == before
        assert repo.pending() == []
        repo.commit_contribution(make_contribution(repo.base, "t2", ["green", "grey"], seed=1))
        assert repo.merge_next()["round"] == 1
        assert repo.pending() == []

    def test_distilled_set_with_negative_label_cannot_be_built(self):
        with pytest.raises(InputError):
            DistilledDataset("t", 2, 1, (1, 3), np.zeros((2, 3)), np.array([0, -1]))

    def test_init_over_file_is_conflict(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.raises(ConflictError):
            make_repo(target)


class TestMerge:
    def test_single_mixture_merge(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        repo.commit_contribution(contrib)
        record = repo.merge_next()
        assert record["round"] == 1
        item = repo.current_item()
        assert item.kind == "mixture"
        assert len(item.entries) == 1
        assert item.entries[0][0].content_id() == contrib.plugin.content_id()
        assert item.entries[0][1] == pytest.approx(record["w_branch"])
        assert repo.pending() == []

    def test_empty_queue_raises(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        with pytest.raises(NothingToMergeError):
            repo.merge_next()

    def test_fifo_order(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        for name in ("first", "second", "third"):
            repo.commit_contribution(
                make_contribution(repo.base, name, [f"{name} a", f"{name} b"]))
        records = repo.merge_all()
        assert [r["task"]["name"] for r in records] == ["first", "second", "third"]

    def test_guidance_ids_are_the_distinct_distilled_ids_in_merge_order(
            self, tmp_path, monkeypatch):
        repo = make_repo(tmp_path / "repo")
        first = make_contribution(repo.base, "t1", ["t1 a", "t1 b"])
        second = make_contribution(repo.base, "t2", ["t2 a", "t2 b"])
        ids = [repo.commit_contribution(c).payload["distilled_id"]
               for c in (first, second, first)]
        hashed = []
        content_id = DistilledDataset.content_id
        monkeypatch.setattr(DistilledDataset, "content_id",
                            lambda self: hashed.append(1) or content_id(self))
        records = repo.merge_all()
        assert [r["guidance_ids"] for r in records] == [ids[:1], ids[:2], ids[:2]]
        assert hashed == []  # the ids come from the main ref, not from re-hashing

    def test_round_reads_only_what_changed(self, tmp_path, monkeypatch):
        repo = make_repo(tmp_path / "repo")
        specs = [("t1", ["red", "blue"]), ("t2", ["red", "green", "blue"]),
                 ("t3", ["green", "grey"]), ("t4", ["blue", "grey", "white"])]
        for i, (name, labels) in enumerate(specs):
            repo.commit_contribution(make_contribution(repo.base, name, labels, seed=i))

        def no_log_parse(self_):
            raise AssertionError("merge_next parsed the merge log")

        queue_reads = []

        def counted(read):
            def counted_read(self_, *args, **kwargs):
                if self_.parent.name == "queue":
                    queue_reads.append(self_.name)
                return read(self_, *args, **kwargs)
            return counted_read

        monkeypatch.setattr(Repository, "merge_records", no_log_parse)
        for name in ("read_text", "read_bytes"):
            monkeypatch.setattr(Path, name, counted(getattr(Path, name)))
        model._seeded_row.cache_clear()
        for round_no, (name, labels) in enumerate(specs, start=1):
            queue_reads.clear()
            assert repo.merge_next()["round"] == round_no
            assert queue_reads == [f"{round_no:06d}.json"]
            texts = {text for _, ls in specs[:round_no] for text in ls}
            # no text is drawn twice in the process, across rounds too
            assert model._seeded_row.cache_info().misses == len(texts)

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_merge_reads_the_ref_once(self, tmp_path, strategy, monkeypatch):
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        for i, name in enumerate(("t1", "t2")):
            repo.commit_contribution(make_contribution(repo.base, name, [f"{name} a", "b"],
                                                       seed=i))
        read_ref, reads = Repository._read_ref, []
        monkeypatch.setattr(Repository, "_read_ref",
                            lambda self_: reads.append(1) or read_ref(self_))
        for round_no in (1, 2):
            reads.clear()
            # freshly opened, so the base check has not run yet
            assert Repository(repo.root).merge_next()["round"] == round_no
            assert len(reads) == 1

    def test_merged_contribution_committed_again_merges_again(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        first = repo.commit_contribution(contrib)
        repo.merge_next()
        assert repo.pending() == []
        again = repo.commit_contribution(contrib)
        assert again.id == first.id
        assert [r["round"] for r in repo.merge_all()] == [2]
        assert repo.pending() == []

    def test_enqueue_reading_the_ref_before_listing_loses_no_commit(self, tmp_path,
                                                                     monkeypatch):
        """An ``_enqueue`` that reads the ref, lets a round merge the
        contribution, and only then lists ``queue/`` still numbers the second
        commit of it past the merged entry, which stays: it merges as round 2."""
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["t1 a", "t1 b"])
        repo.commit_contribution(contrib)
        queue = repo.root / "queue"

        def ref_first_enqueue(self_, doc):
            consumed = self_._read_ref().get("consumed")
            assert Repository(repo.root).merge_next()["round"] == 1
            listed = [int(p.stem) for p in queue.iterdir() if QUEUE_ENTRY_NAME.fullmatch(p.name)]
            seq = max([*listed, consumed["seq"] if consumed else 0]) + 1
            (queue / f"{seq:06d}.json").write_text(json.dumps(doc))

        monkeypatch.setattr(Repository, "_enqueue", ref_first_enqueue)
        repo.commit_contribution(contrib)
        assert [r["round"] for r in repo.merge_all()] == [2]
        assert repo.pending() == []
        repo.replay()

    def test_commit_after_merged_entries_are_deleted_by_hand_merges(self, tmp_path):
        """The cursor, not the merged entries, numbers a new entry past them."""
        repo = make_repo(tmp_path / "repo")
        for i, name in enumerate(("t1", "t2")):
            repo.commit_contribution(make_contribution(repo.base, name, [f"{name} a", "b"],
                                                       seed=i))
        repo.merge_all()
        queue = repo.root / "queue"
        assert sorted(p.name for p in queue.iterdir()) == ["000001.json", "000002.json"]
        for path in queue.iterdir():
            path.unlink()
        third = repo.commit_contribution(make_contribution(repo.base, "t3", ["t3 a", "b"]))
        assert [p.name for p in queue.iterdir()] == ["000003.json"]
        assert [r["contribution_commit"] for r in repo.merge_all()] == [third.id]
        assert repo.chain().round == 3
        repo.replay()

    def test_a_round_between_enqueues_reads_loses_no_commit(self, tmp_path, monkeypatch):
        """A merge round that runs between ``_enqueue``'s queue listing and its
        ref read, whichever it makes first, while the contribution it merges
        is committed again: the second commit still merges as round 2."""
        repo = make_repo(tmp_path / "repo")
        contrib = make_contribution(repo.base, "t1", ["t1 a", "t1 b"])
        repo.commit_contribution(contrib)
        enqueue, inside = Repository._enqueue, []
        monkeypatch.setattr(Repository, "_enqueue",
                            lambda self_, doc: inside.append(1) or enqueue(self_, doc))
        for name in ("queued_paths", "_read_ref"):
            def read_then_merge(self_, *args, read=getattr(Repository, name)):
                out = read(self_, *args)
                if inside:  # the first of _enqueue's two reads has returned
                    inside.clear()
                    assert Repository(repo.root).merge_next()["round"] == 1
                return out
            monkeypatch.setattr(Repository, name, read_then_merge)
        repo.commit_contribution(contrib)
        assert not inside  # the round ran
        assert [r["round"] for r in repo.merge_all()] == [2]
        assert repo.chain().round == 2
        assert repo.pending() == []
        repo.replay()

    def test_merge_does_not_mutate_stored_artifacts(self, tmp_path):
        repo = make_repo(tmp_path / "repo", strategy="fusion")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        commit = repo.commit_contribution(contrib)
        before = repo.read_object(commit.payload["plugin_id"])
        repo.merge_next()
        after = repo.read_object(commit.payload["plugin_id"])
        assert before == after

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_merge_runs_no_per_task_encoder_pass(self, tmp_path, monkeypatch, strategy):
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        for i, name in enumerate(("t1", "t2", "t3")):
            repo.commit_contribution(make_contribution(
                repo.base, name, [f"{name} a", f"{name} b"], seed=i))
        calls = []
        encode_np = model.encode_np
        monkeypatch.setattr(model, "encode_np",
                            lambda *a, **k: calls.append(1) or encode_np(*a, **k))
        repo.merge_all()
        assert repo.chain().round == 3
        assert calls == []

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_search_scores_at_the_repository_temperature(self, tmp_path, strategy):
        from test_merge import reference_objective

        repo = Repository.init(tmp_path / "repo", SEED, strategy, rank=RANK, alpha=ALPHA,
                               temperature=0.2, coeff=fast_coeff())
        contribs = [make_contribution(repo.base, name, [f"{name} a", f"{name} b", "c"],
                                      seed=i) for i, name in enumerate(("t1", "t2"))]
        for contrib in contribs:
            repo.commit_contribution(contrib)
        repo.merge_all()
        record = repo.merge_records()[1]
        item, branch = repo.checkout(1), contribs[1].plugin
        guidance = [(c.distilled, model.LabelEmbeddingTable(c.task.name, c.task.labels,
                                                            repo.base.embed_dim))
                    for c in contribs]

        def deltas_for(w):
            if strategy == "fusion":
                return merge.fuse(item.plugin, branch,
                                  merge.MergeCoefficients(w[0], w[1])).layer_deltas()
            return merge.mixture_deltas([(p, c * w[0]) for p, c in item.entries]
                                        + [(branch, w[1])])

        w = np.array([record["w_main"], record["w_branch"]])
        l1 = repo.coeff_config().l1_lambda
        at = {t: reference_objective(repo.base, guidance, deltas_for, l1, t)(w)
              for t in (0.2, model.TrainConfig.temperature)}
        assert record["objective"] == pytest.approx(at[0.2], rel=1e-6)
        assert abs(record["objective"] - at[model.TrainConfig.temperature]) > 1e-3

    def test_queue_entry_naming_no_contribution_is_refused(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        commit = repo.commit_contribution(make_contribution(repo.base, "t1", ["a", "b"]))
        entry = repo.root / "queue" / "000001.json"
        for object_id in (commit.payload["plugin_id"], commit.payload["distilled_id"],
                          repo._read_ref()["genesis"]):
            entry.write_text(json.dumps({"commit_id": object_id}))
            with pytest.raises(IntegrityError, match=object_id):
                repo.merge_next()
        assert repo.chain().round == 0

    def test_lock_conflict(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        repo.commit_contribution(make_contribution(repo.base, "t1", ["red", "blue"]))
        with repo._main_lock():
            other = Repository(tmp_path / "repo")
            with pytest.raises(LockHeldError):
                other.merge_next()


class TestHistory:
    def queued(self, path, strategy):
        """A repository with the three contributions of ``prepare`` queued."""
        repo = make_repo(path, strategy=strategy)
        for i, name in enumerate(("t1", "t2", "t3")):
            repo.commit_contribution(make_contribution(
                repo.base, name, [f"{name} a", f"{name} b"], seed=i))
        return repo

    def prepare(self, tmp_path, strategy):
        repo = self.queued(tmp_path / f"repo-{strategy}", strategy)
        repo.merge_all()
        return repo

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_replay_reproduces_live_item(self, tmp_path, strategy):
        repo = self.prepare(tmp_path, strategy)
        item = repo.replay()
        head = repo.read_commit(repo._read_ref()["head"]).payload
        assert hashlib.sha256(item.to_bytes()).hexdigest() == head["item_id"]
        assert item.to_bytes() == repo.current_item().to_bytes()

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_checkout_rounds(self, tmp_path, strategy):
        repo = self.prepare(tmp_path, strategy)
        zero = repo.checkout(0)
        assert zero.round == 0
        current = repo.checkout(repo.chain().round)
        assert current.to_bytes() == repo.current_item().to_bytes()
        mid = repo.checkout(1)
        assert mid.round == 1
        records = repo.merge_records()
        assert hashlib.sha256(mid.to_bytes()).hexdigest() == records[0]["item_id"]

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_ref_write_failure_leaves_a_repository_that_recovers(
            self, tmp_path, strategy, monkeypatch):
        clean = self.prepare(tmp_path / "clean", strategy)
        repo = make_repo(tmp_path / "crashed", strategy=strategy)
        for i, name in enumerate(("t1", "t2", "t3")):
            repo.commit_contribution(make_contribution(
                repo.base, name, [f"{name} a", f"{name} b"], seed=i))
        repo.merge_next()
        write_ref = Repository._write_ref
        calls = []

        def failing_once(self_, doc):
            calls.append(doc)
            if len(calls) == 1:
                raise OSError("disk full")
            return write_ref(self_, doc)

        monkeypatch.setattr(Repository, "_write_ref", failing_once)
        with pytest.raises(OSError):
            repo.merge_next()
        assert [r["round"] for r in repo.merge_records()] == [1]
        assert repo.chain().round == 1
        with pytest.raises(InputError):
            repo.checkout(2)  # round 2 never committed
        repo.merge_all()
        records = repo.merge_records()
        assert [r["round"] for r in records] == [1, 2, 3]
        repo.replay()
        # the same merge commits and items as a history that never failed
        want = clean.merge_records()
        assert [r["commit_id"] for r in records] == [r["commit_id"] for r in want]
        assert [r["item_id"] for r in records] == [r["item_id"] for r in want]
        assert repo._read_ref() == clean._read_ref()

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_record_append_failure_loses_only_the_record(
            self, tmp_path, strategy, monkeypatch):
        clean = self.prepare(tmp_path / "clean", strategy)
        repo = self.queued(tmp_path / "crashed", strategy)
        repo.merge_next()
        append = Repository._append_merge_record
        failed = []

        def failing_once(self_, record):
            if not failed:
                failed.append(record["round"])
                raise OSError("disk full")
            return append(self_, record)

        monkeypatch.setattr(Repository, "_append_merge_record", failing_once)
        with pytest.raises(OSError):
            repo.merge_next()
        assert failed == [2]
        assert repo.chain().round == 2  # the ref write committed the round
        repo.replay()
        assert [r["round"] for r in repo.merge_all()] == [3]  # round 2 not merged again
        assert repo.pending() == []
        repo.replay()
        ref = repo._read_ref()
        assert ref == clean._read_ref()
        assert repo.chain() == clean.chain()
        assert repo.all_object_ids() == clean.all_object_ids()

        def logged(records):
            return [{k: v for k, v in r.items() if k != "timestamp"} for r in records]

        assert logged(repo.merge_records()) == logged(
            r for r in clean.merge_records() if r["round"] != 2)  # lacks only round 2

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_history_needs_no_merge_log(self, tmp_path, strategy, monkeypatch):
        clean = self.prepare(tmp_path / "clean", strategy)
        want = [r["item_id"] for r in clean.merge_records()]
        repo = self.queued(tmp_path / "nolog", strategy)
        repo.merge_next()
        repo.merge_next()
        (repo.root / "log" / "merges.jsonl").unlink()

        def no_log_parse(self_):
            raise AssertionError("the merge log was parsed")

        monkeypatch.setattr(Repository, "merge_records", no_log_parse)
        repo.merge_next()
        assert repo._read_ref() == clean._read_ref()
        assert hashlib.sha256(repo.replay().to_bytes()).hexdigest() == want[-1]
        for round_no, item_id in enumerate(want, start=1):
            assert hashlib.sha256(repo.checkout(round_no).to_bytes()).hexdigest() == item_id

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_checkout_replays_from_the_genesis_item_without_an_encoder(
            self, tmp_path, strategy, monkeypatch):
        repo = self.prepare(tmp_path, strategy)
        genesis = repo.read_commit(repo._read_ref()["genesis"]).payload["item_id"]
        want = [genesis, *(r["item_id"] for r in repo.merge_records())]
        # the history is the chain's: rank and alpha edited afterwards do not matter
        config = json.loads((repo.root / "forge.json").read_text())
        (repo.root / "forge.json").write_text(json.dumps({**config, "rank": RANK + 1,
                                                          "alpha": ALPHA * 3}))

        def no_encoder(*args, **kwargs):
            raise AssertionError("an encoder was built")

        monkeypatch.setattr(model.BaseEncoder, "from_seed", no_encoder)
        reopened = Repository(repo.root)
        for round_no, item_id in enumerate(want):
            got = reopened.checkout(round_no).to_bytes()
            assert hashlib.sha256(got).hexdigest() == item_id
        assert hashlib.sha256(reopened.replay().to_bytes()).hexdigest() == want[-1]

    def test_mixture_checkout_serializes_no_history_plugin(self, tmp_path, monkeypatch):
        repo = self.queued(tmp_path / "repo", "mixture")
        repo.commit_contribution(make_contribution(repo.base, "t4", ["t4 a", "t4 b"], seed=3))
        repo.merge_all()
        want = repo.current_item().to_bytes()
        to_bytes, calls = PluginModule.to_bytes, []
        monkeypatch.setattr(PluginModule, "to_bytes",
                            lambda self_: calls.append(1) or to_bytes(self_))
        reopened = Repository(repo.root)
        item = reopened.checkout(4)
        assert calls == []  # the stored item names its plugins by id
        assert item.to_bytes() == want
        replayed = reopened.replay()
        # at most one plugin serialization per round; each round's plugin id
        # is the one its commit names, and that object was just hash-checked
        assert len(calls) <= 4
        assert replayed.to_bytes() == want

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_commit_naming_another_stored_item_is_refused_by_replay_only(
            self, tmp_path, strategy):
        """Round 2's merge commit forged to name round 1's stored item, with
        its round-3 child re-stored over it: replay re-derives round 2 and
        refuses it; checkout returns the stored item the commit names."""
        repo = self.prepare(tmp_path, strategy)
        ref = repo._read_ref()
        third = repo.read_commit(ref["head"])
        second = repo.read_commit(third.parent)
        first_id, second_id = repo.chain().merges[0]["item_id"], second.payload["item_id"]
        forged = repo._append_commit(second.parent, second.author, "merge",
                                     {**second.payload, "item_id": first_id})
        child = repo._append_commit(forged.id, third.author, "merge", third.payload)
        repo._write_ref({**ref, "head": child.id})
        reopened = Repository(repo.root)
        with pytest.raises(IntegrityError, match=f"^replay of round 2 produced {second_id}, "
                                                 f"its commit says {first_id}$"):
            reopened.replay()
        item = reopened.checkout(2)
        assert hashlib.sha256(item.to_bytes()).hexdigest() == first_id
        assert item.round == 1

    @pytest.mark.parametrize("damage", ["deleted", "directory", "flipped byte"])
    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_damaged_history_plugin_is_refused_naming_its_id(self, tmp_path, strategy,
                                                             damage):
        repo = self.prepare(tmp_path, strategy)
        plugin_id = repo.merge_records()[0]["plugin_id"]  # in every later mixture item
        target = Path(repo._object_file(plugin_id))
        raw = bytearray(target.read_bytes())
        target.unlink()
        if damage == "directory":
            target.mkdir()
        elif damage == "flipped byte":
            raw[len(raw) // 2] ^= 0x01
            target.write_bytes(bytes(raw))
        reopened = Repository(repo.root)
        with pytest.raises(IntegrityError, match=plugin_id):
            reopened.read_object(plugin_id)
        with pytest.raises(IntegrityError, match=plugin_id):
            reopened.replay()
        if damage != "deleted":  # verify_objects re-hashes only what is stored
            with pytest.raises(IntegrityError, match=plugin_id):
                reopened.verify_objects()

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_damaged_past_item_is_refused_naming_its_round(self, tmp_path, strategy):
        """``replay`` hash-checks each round's stored item, not just its presence."""
        repo = self.prepare(tmp_path, strategy)
        item_id = repo.merge_records()[0]["item_id"]
        target = Path(repo._object_file(item_id))
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        target.unlink()
        target.write_bytes(bytes(raw))
        reopened = Repository(repo.root)
        for read in (reopened.replay, lambda: reopened.checkout(1)):
            with pytest.raises(IntegrityError,
                               match=f"^round 1's item {item_id} fails its hash check$"):
                read()
        assert reopened.checkout(2).round == 2

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_deleted_past_item_is_refused_naming_its_round(self, tmp_path, strategy):
        repo = self.prepare(tmp_path, strategy)
        item_id = repo.merge_records()[0]["item_id"]
        Path(repo._object_file(item_id)).unlink()
        reopened = Repository(repo.root)
        for replay in (reopened.replay, lambda: reopened.checkout(1)):
            with pytest.raises(IntegrityError, match=f"round 1's item {item_id}"):
                replay()
        out = tmp_path / "round1.fgi"
        assert main(["checkout", str(repo.root), "--round", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert reopened.checkout(0).round == 0
        assert reopened.current_item().round == 3  # the head item is still stored

    def test_genesis_that_is_no_genesis_commit_is_refused(self, tmp_path):
        repo = self.prepare(tmp_path, "mixture")
        ref = repo._read_ref()
        repo._write_ref({**ref, "genesis": ref["head"]})
        with pytest.raises(IntegrityError, match="no genesis commit"):
            Repository(repo.root).checkout(0)

    def test_replay_reads_the_ref_once(self, tmp_path):
        repo = self.queued(tmp_path / "repo", "fusion")
        repo.merge_next()
        repo.merge_next()
        before = repo.read_commit(repo._read_ref()["head"]).payload
        other = Repository(repo.root)
        load_plugin = repo.load_plugin

        def merging_meanwhile(object_id):
            if other.chain().round == 2:
                other.merge_next()  # commits round 3 while the replay runs
            return load_plugin(object_id)

        repo.load_plugin = merging_meanwhile
        item = repo.replay()
        assert repo.chain().round == 3
        assert hashlib.sha256(item.to_bytes()).hexdigest() == before["item_id"]

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_each_command_reads_the_ref_once_and_each_commit_at_most_once(
            self, tmp_path, strategy, monkeypatch, capsys):
        repo = self.prepare(tmp_path, strategy)
        repo.commit_contribution(make_contribution(repo.base, "t4", ["t4 a", "t4 b"], seed=3))
        data, rng = tmp_path / "data", nm.make_rng(5)
        tasks = {name: TaskSpec(name, [f"{name} a", f"{name} b"]) for name in ("t1", "t2")}
        for name, spec in tasks.items():
            (data / name).mkdir(parents=True)
            save_dataset(data / name / "test.fgd", spec,
                         LabeledDataset(rng.normal(size=(4, spec.flat_dim)), [0, 1, 0, 1]))
        (data / "manifest.json").write_text(
            json.dumps({"tasks": {name: spec.to_dict() for name, spec in tasks.items()}}))
        commits = set()
        for object_id in repo.all_object_ids():
            with suppress(IntegrityError):  # no commit
                commits.add(repo.read_commit(object_id).id)
        root = str(repo.root)

        def evaluate(*flags):
            assert main(["eval", root, "--tasks", "t1,t2", "--data", str(data), *flags]) == 0

        commands = {f"checkout({r})": lambda r=r: Repository(root).checkout(r)
                    for r in range(4)}
        commands.update({
            "replay": lambda: Repository(root).replay(),
            "forge eval": evaluate,
            "forge eval --round 2": lambda: evaluate("--round", "2"),
            "merge_next": lambda: Repository(root).merge_next(),  # last: it adds a round
        })
        read_object, read_ref, reads = Repository.read_object, Repository._read_ref, []
        monkeypatch.setattr(Repository, "read_object",
                            lambda self_, object_id: reads.append(object_id) or
                            read_object(self_, object_id))
        monkeypatch.setattr(Repository, "_read_ref",
                            lambda self_: reads.append("ref") or read_ref(self_))
        # the item a command reads and the round it is of: a fusion item holds
        # its plugin, a mixture item reads each of its plugins once
        item_round = {f"checkout({r})": r for r in range(4)}
        item_round.update({"forge eval": 3, "forge eval --round 2": 2})
        plugins = [p["plugin_id"] for p in repo.chain().merges]
        for name, command in commands.items():
            reads.clear()
            command()
            assert reads.count("ref") == 1, name
            assert set(Counter(r for r in reads if r in commits).values()) == {1}, name
            if name in item_round:
                want = plugins[:item_round[name]] if strategy == "mixture" else []
                assert sorted(r for r in reads if r in plugins) == sorted(want), name
        assert capsys.readouterr().out.count("average: ACC") == 2
        assert Repository(root).chain().round == 4

    @pytest.mark.parametrize("tamper", ["head=contribution", "head=merge without parent"])
    def test_ref_that_disagrees_with_the_chain_is_refused(self, tmp_path, tamper):
        repo = self.prepare(tmp_path, "fusion")
        ref_path = repo.root / "refs" / "main"
        ref = json.loads(ref_path.read_text())
        if tamper == "head=contribution":
            ref["head"] = ref["consumed"]["commit_id"]
        else:  # the head's payload, in a merge commit that names no parent
            payload = repo.read_commit(ref["head"]).payload
            ref["head"] = repo._append_commit(None, "registry", "merge", payload).id
        ref_path.write_text(json.dumps(ref, sort_keys=True))
        for round_no in (0, 1):
            with pytest.raises(IntegrityError):
                repo.checkout(round_no)
        with pytest.raises(IntegrityError):
            repo.replay()

    def test_missing_merge_commit_is_refused(self, tmp_path):
        repo = self.prepare(tmp_path, "mixture")
        middle = repo.read_commit(repo._read_ref()["head"]).parent
        Path(repo._object_file(middle)).unlink()
        with pytest.raises(IntegrityError):
            repo.checkout(1)
        with pytest.raises(IntegrityError):
            repo.replay()

    @pytest.mark.parametrize("round_no", [2, 3])
    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_queue_unlink_failure_never_merges_twice(
            self, tmp_path, strategy, round_no, monkeypatch):
        """No round unlinks its queue entry, so none can fail to: after round
        ``round_no`` its entry stays in ``queue/``, ``pending()`` leaves it out,
        and a freshly opened repository merges only the rest."""
        clean = self.prepare(tmp_path / "clean", strategy)
        repo = self.queued(tmp_path / "kept", strategy)
        for _ in range(round_no - 1):
            repo.merge_next()
        unlink, unlinked = os.unlink, []
        monkeypatch.setattr(os, "unlink", lambda path, *args, **kwargs: unlinked.append(
            Path(path)) or unlink(path, *args, **kwargs))
        assert repo.merge_next()["round"] == round_no
        assert [p for p in unlinked if p.parent.name == "queue"] == []
        assert (repo.root / "queue" / f"{round_no:06d}.json").is_file()
        assert [doc["seq"] for doc in repo.pending()] == list(range(round_no + 1, 4))
        assert [r["round"] for r in Repository(repo.root).merge_all()] == \
            list(range(round_no + 1, 4))
        assert repo.pending() == []
        records = repo.merge_records()
        assert [r["round"] for r in records] == [1, 2, 3]
        repo.replay()
        want = clean.merge_records()
        assert [r["commit_id"] for r in records] == [r["commit_id"] for r in want]
        assert [r["item_id"] for r in records] == [r["item_id"] for r in want]
        assert repo._read_ref() == clean._read_ref()

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_queue_left_by_unlinking_code_merges_to_the_clean_history(self, tmp_path,
                                                                       strategy):
        """Code that unlinked each merged entry after its ref write left a queue
        of the unmerged entries and, after a crash between the two, the
        consumed one at its head. The cursor skips that one."""
        clean = self.prepare(tmp_path / "clean", strategy)
        repo = self.queued(tmp_path / "unlinking", strategy)
        repo.merge_next()
        repo.merge_next()
        (repo.root / "queue" / "000001.json").unlink()
        assert repo.queue_head()["seq"] == 3
        assert [r["round"] for r in Repository(repo.root).merge_all()] == [3]
        repo.replay()
        records, want = repo.merge_records(), clean.merge_records()
        assert [r["commit_id"] for r in records] == [r["commit_id"] for r in want]
        assert [r["item_id"] for r in records] == [r["item_id"] for r in want]
        assert repo._read_ref() == clean._read_ref()

    def check_malformed_ref_is_refused(self, tmp_path, strategy, damage):
        """``merge --all`` and ``checkout`` exit 2 on a damaged ref and change no byte."""
        from forge.cli import main

        repo = self.queued(tmp_path / "repo", strategy)
        repo.merge_next()
        ref_path = repo.root / "refs" / "main"
        ref_path.write_text(damage(json.loads(ref_path.read_text())))

        def files():
            return {p: p.read_bytes() for p in sorted(repo.root.rglob("*")) if p.is_file()}

        before = files()
        out = tmp_path / "item.fgi"
        assert main(["merge", str(repo.root), "--all"]) == 2
        assert main(["checkout", str(repo.root), "--round", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert files() == before

    @pytest.mark.parametrize("guidance", ["flipped label", "[1]"])
    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_ref_written_by_earlier_code_merges_by_the_chain(self, tmp_path, strategy,
                                                             guidance):
        """A ref written by earlier code also copies the head's ``item_id`` and
        ``round`` and the guidance list out of the chain. It still opens, its
        copies steer no round (a label text flipped in the list moved round
        2's coefficients when rounds read it), and the next ref write drops
        them."""
        clean = self.prepare(tmp_path / "clean", strategy)
        repo = self.queued(tmp_path / "repo", strategy)
        repo.merge_next()
        ref = repo._read_ref()
        (merged,) = repo.chain().merges
        assert merged["task"]["labels"] == ["t1 a", "t1 b"]
        flipped = {**merged["task"], "labels": ["t1 a", "t1 c"]}
        listing = [{"distilled_id": merged["distilled_id"], "task": flipped}] \
            if guidance == "flipped label" else [1]
        repo._write_ref({**ref, "item_id": merged["item_id"], "round": 1, "guidance": listing})
        want = clean.merge_records()
        record = repo.merge_next()
        assert (record["w_main"], record["w_branch"]) == (want[1]["w_main"], want[1]["w_branch"])
        assert set(repo._read_ref()) == {"genesis", "head", "consumed"}
        repo.merge_all()
        records = repo.merge_records()
        assert [r["commit_id"] for r in records] == [r["commit_id"] for r in want]
        assert [r["item_id"] for r in records] == [r["item_id"] for r in want]
        assert repo._read_ref() == clean._read_ref()
        assert repo.all_object_ids() == clean.all_object_ids()

    @pytest.mark.parametrize("damage", [
        lambda doc: json.dumps(doc)[:-1],
        lambda doc: json.dumps([doc])], ids=["not JSON", "JSON list"])
    def test_malformed_ref_exits_two_and_changes_nothing(self, tmp_path, damage):
        self.check_malformed_ref_is_refused(tmp_path, "fusion", damage)

    def test_checkout_out_of_range(self, tmp_path):
        repo = self.prepare(tmp_path, "mixture")
        for round_no in (99, 4, -1):
            with pytest.raises(InputError):
                repo.checkout(round_no)

    def test_store_objects_all_verify(self, tmp_path):
        repo = self.prepare(tmp_path, "mixture")
        assert repo.verify_objects() > 0

    def test_commit_ids_independent_of_order(self, tmp_path):
        specs = [("t1", ["a1", "b1"]), ("t2", ["a2", "b2"]), ("t3", ["a3", "b3"])]
        stores = []
        for tag, order in (("fwd", [0, 1, 2]), ("rev", [2, 1, 0])):
            repo = make_repo(tmp_path / tag)
            contribs = [make_contribution(repo.base, n, ls, seed=i)
                        for i, (n, ls) in enumerate(specs)]
            for i in order:
                repo.commit_contribution(contribs[i])
            stores.append(tuple(repo.all_object_ids()))
        assert stores[0] == stores[1]

    def test_threaded_commits_do_not_corrupt_store(self, tmp_path):
        import threading

        repo = make_repo(tmp_path / "repo")
        contribs = [make_contribution(repo.base, f"t{i}", [f"t{i} a", f"t{i} b"],
                                      seed=i) for i in range(4)]
        errors = []

        def worker(contribution):
            try:
                Repository(tmp_path / "repo").commit_contribution(contribution)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c,)) for c in contribs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(repo.pending()) == 4
        assert repo.verify_objects() > 0
        repo.merge_all()
        repo.replay()


class TestObjectStore:
    def test_threads_storing_identical_bytes(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        n_threads, trials = 8, 30
        errors = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(trials):
                data = f"object of trial {trial}".encode() * 64
                barrier = threading.Barrier(n_threads)

                def worker():
                    try:
                        barrier.wait(timeout=10)
                        repo.store_object(data)
                    except Exception as exc:  # noqa: BLE001 - collected and asserted
                        errors.append(exc)

                threads = [threading.Thread(target=worker) for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert repo.read_object(hashlib.sha256(data).hexdigest()) == data
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert list((repo.root / "objects").rglob(".tmp-*")) == []
        assert repo.verify_objects() == len(repo.all_object_ids())

    def test_ids_that_name_no_stored_object_are_integrity_errors(self, tmp_path):
        import os

        repo = make_repo(tmp_path / "repo")
        objects = repo.root / "objects"
        (objects / "zz").write_bytes(b"a shard that is a file")
        (objects / "ff").mkdir()
        os.mkfifo(objects / "ff" / ("f" * 62))
        os.symlink("e" * 62, objects / "ff" / ("e" * 62))  # a link to itself
        for object_id in ("0" * 64, "", "a", "ff", "zz" + "0" * 62, "f" * 64, "ff" + "e" * 62,
                          "\0" * 64):
            with pytest.raises(IntegrityError, match="missing object"):
                repo.read_object(object_id)

    def test_temp_files_in_a_shard_are_no_objects(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        before = repo.all_object_ids()
        shard = Path(repo._object_file(before[0])).parent
        (shard / ".tmp-abc123").write_bytes(b"an unfinished write")
        assert repo.all_object_ids() == before == sorted(before)
        assert repo.verify_objects() == len(before)

    @pytest.mark.parametrize("site", ["store_object", "_write_ref", "_enqueue", "checkout --out",
                                      "_write_artifact"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, site):
        """A write whose rename (or, for a queue entry, whose link) fails
        leaves every file as it was, a target it would replace included."""
        import os

        from forge import cli
        from forge.config import RunConfig

        repo = make_repo(tmp_path / "repo")
        (tmp_path / "item.fgi").write_bytes(b"an earlier checkout")
        (tmp_path / "p.fgm").write_bytes(b"an earlier plugin")
        (tmp_path / "p.fgm.meta.json").write_bytes(b"its sidecar")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "link" if site == "_enqueue" else "replace", refuse)
        write = {
            "store_object": lambda: repo.store_object(b"never lands"),
            "_write_ref": lambda: repo._write_ref({**repo._read_ref(), "head": "0" * 64}),
            "_enqueue": lambda: repo._enqueue({"commit_id": "0" * 64}),
            "checkout --out": lambda: cli._cmd_checkout(argparse.Namespace(
                repo=str(repo.root), round=0, out=str(tmp_path / "item.fgi")), RunConfig()),
            "_write_artifact": lambda: cli._write_artifact(str(tmp_path / "p.fgm"),
                                                           b"a new plugin", "t", RunConfig()),
        }[site]
        with pytest.raises(OSError, match="disk full"):
            write()
        assert list(tmp_path.rglob(".tmp-*")) == []
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
