import hashlib
import sys
import threading

import numpy as np
import pytest

from forge import merge, model
from forge import numerics as nm
from forge.datasets import TaskSpec
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
from forge.registry import BranchContribution, Repository

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
        ad.b.data[:] = rng.normal(size=ad.b.shape).astype(np.float32) * 0.1
    plugin.task_tags = [name]
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

    def test_coeff_config_round_trips(self, tmp_path):
        coeff = CoeffOptimConfig(max_iterations=7, init_value=0.25, l1_lambda=0.0,
                                 box_min=-1.0, box_max=3.0, allow_negative=True)
        Repository.init(tmp_path / "repo", SEED, "fusion", rank=RANK, alpha=ALPHA,
                        coeff=coeff)
        assert Repository(tmp_path / "repo").coeff_config() == coeff

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
        target = repo._object_path(plugin_id)
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

    def test_fusion_repo_rejects_rank_mismatch_at_commit(self, tmp_path):
        repo = make_repo(tmp_path / "repo", strategy="fusion")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        other = PluginModule.fresh(repo.base, RANK * 2, ALPHA, nm.make_rng(0))
        contrib.plugin = other
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)

    def test_mixture_repo_accepts_heterogeneous_ranks(self, tmp_path):
        repo = make_repo(tmp_path / "repo", strategy="mixture")
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        contrib.plugin = PluginModule.fresh(repo.base, RANK * 2, ALPHA, nm.make_rng(0))
        repo.commit_contribution(contrib)
        repo.merge_next()
        assert repo.current_round() == 1

    @pytest.mark.parametrize("factor,bad", [("a", np.nan), ("b", np.inf)])
    def test_non_finite_plugin_refused_before_storing(self, tmp_path, factor, bad):
        repo = make_repo(tmp_path / "repo")
        before = repo.all_object_ids()
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        getattr(contrib.plugin.adapters[1], factor).data[0, 0] = bad
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)
        assert repo.all_object_ids() == before
        assert repo.pending() == []

    @pytest.mark.parametrize("strategy,bad", [("fusion", {"alpha": ALPHA * 2}),
                                              ("mixture", {"alpha": float("nan")}),
                                              ("mixture", {"alpha": -ALPHA}),
                                              ("mixture", {"rank": 0})])
    def test_bad_alpha_or_rank_refused_and_the_queue_still_merges(self, tmp_path,
                                                                  strategy, bad):
        repo = make_repo(tmp_path / "repo", strategy=strategy)
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        for lid, ad in contrib.plugin.adapters.items():
            ad.alpha = bad.get("alpha", ad.alpha)
            if "rank" in bad:
                d, k = repo.base.layer_dims(lid)
                ad.rank, ad.a, ad.b = 0, nm.Tensor(np.zeros((0, k))), nm.Tensor(np.zeros((d, 0)))
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)
        assert repo.pending() == []
        repo.commit_contribution(make_contribution(repo.base, "t2", ["red", "blue"]))
        assert repo.merge_next()["round"] == 1
        assert repo.pending() == []

    def test_negative_distilled_label_refused_before_storing(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        before = repo.all_object_ids()
        contrib = make_contribution(repo.base, "t1", ["red", "blue"])
        contrib.distilled.labels[0] = -1
        with pytest.raises(ValidationError):
            repo.commit_contribution(contrib)
        assert repo.all_object_ids() == before
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
        from pathlib import Path

        repo = make_repo(tmp_path / "repo")
        specs = [("t1", ["red", "blue"]), ("t2", ["red", "green", "blue"]),
                 ("t3", ["green", "grey"]), ("t4", ["blue", "grey", "white"])]
        for i, (name, labels) in enumerate(specs):
            repo.commit_contribution(make_contribution(repo.base, name, labels, seed=i))

        def no_log_parse(self_):
            raise AssertionError("merge_next parsed the merge log")

        queue_reads, drawn = [], []
        read_text = Path.read_text
        embed = model.LabelEmbeddingTable._embed_label

        def counted_read(self_, *args, **kwargs):
            if self_.parent.name == "queue":
                queue_reads.append(self_.name)
            return read_text(self_, *args, **kwargs)

        monkeypatch.setattr(Repository, "merge_records", no_log_parse)
        monkeypatch.setattr(Path, "read_text", counted_read)
        monkeypatch.setattr(model.LabelEmbeddingTable, "_embed_label", staticmethod(
            lambda text, dim: drawn.append(text) or embed(text, dim)))
        for round_no, (name, labels) in enumerate(specs, start=1):
            queue_reads.clear()
            drawn.clear()
            assert repo.merge_next()["round"] == round_no
            assert queue_reads == [f"{round_no:06d}.json"]
            texts = [text for _, ls in specs[:round_no] for text in ls]
            assert drawn == list(dict.fromkeys(texts))  # one draw per distinct text

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
        assert repo.current_round() == 3
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
              for t in (0.2, model.DEFAULT_TEMPERATURE)}
        assert record["objective"] == pytest.approx(at[0.2], rel=1e-6)
        assert abs(record["objective"] - at[model.DEFAULT_TEMPERATURE]) > 1e-3

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
        assert hashlib.sha256(item.to_bytes()).hexdigest() == repo._read_ref()["item_id"]

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_checkout_rounds(self, tmp_path, strategy):
        repo = self.prepare(tmp_path, strategy)
        zero = repo.checkout(0)
        assert zero.round == 0
        current = repo.checkout(repo.current_round())
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
        assert repo.current_round() == 1
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
        assert repo.current_round() == 2  # the ref write committed the round
        repo.replay()
        assert [r["round"] for r in repo.merge_all()] == [3]  # round 2 not merged again
        assert repo.pending() == []
        repo.replay()
        ref = repo._read_ref()
        assert ref == clean._read_ref()
        assert repo._merge_payloads(ref) == clean._merge_payloads(ref)
        assert repo.all_object_ids() == clean.all_object_ids()

        def logged(records):
            return [{k: v for k, v in r.items() if k != "timestamp"} for r in records]

        assert logged(repo.merge_records()) == logged(
            r for r in clean.merge_records() if r["round"] != 2)  # lacks only round 2

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_history_needs_no_merge_log(self, tmp_path, strategy, monkeypatch):
        import json

        clean = self.prepare(tmp_path / "clean", strategy)
        want = [r["item_id"] for r in clean.merge_records()]
        repo = self.queued(tmp_path / "nolog", strategy)
        repo.merge_next()
        repo.merge_next()
        (repo.root / "log" / "merges.jsonl").unlink()
        ref_path = repo.root / "refs" / "main"
        old = json.loads(ref_path.read_text())
        del old["guidance"]  # the list then comes from the merge commits alone
        ref_path.write_text(json.dumps(old, sort_keys=True))

        def no_log_parse(self_):
            raise AssertionError("the merge log was parsed")

        monkeypatch.setattr(Repository, "merge_records", no_log_parse)
        repo.merge_next()
        assert repo._read_ref() == clean._read_ref()
        assert hashlib.sha256(repo.replay().to_bytes()).hexdigest() == want[-1]
        for round_no, item_id in enumerate(want, start=1):
            assert hashlib.sha256(repo.checkout(round_no).to_bytes()).hexdigest() == item_id

    def test_replay_reads_the_ref_once(self, tmp_path):
        repo = self.queued(tmp_path / "repo", "fusion")
        repo.merge_next()
        repo.merge_next()
        before = repo._read_ref()
        other = Repository(repo.root)
        load_plugin = repo.load_plugin

        def merging_meanwhile(object_id):
            if other.current_round() == 2:
                other.merge_next()  # commits round 3 while the replay runs
            return load_plugin(object_id)

        repo.load_plugin = merging_meanwhile
        item = repo.replay()
        assert repo.current_round() == 3
        assert hashlib.sha256(item.to_bytes()).hexdigest() == before["item_id"]

    @pytest.mark.parametrize("tamper", ["round+1", "round-1", "head=contribution"])
    def test_ref_that_disagrees_with_the_chain_is_refused(self, tmp_path, tamper):
        import json

        repo = self.prepare(tmp_path, "fusion")
        ref_path = repo.root / "refs" / "main"
        ref = json.loads(ref_path.read_text())
        if tamper == "head=contribution":
            ref["head"] = ref["consumed"]["commit_id"]
        else:
            ref["round"] += 1 if tamper == "round+1" else -1
        ref_path.write_text(json.dumps(ref, sort_keys=True))
        for round_no in (0, 1):
            with pytest.raises(IntegrityError):
                repo.checkout(round_no)
        with pytest.raises(IntegrityError):
            repo.replay()

    def test_missing_merge_commit_is_refused(self, tmp_path):
        repo = self.prepare(tmp_path, "mixture")
        middle = repo.read_commit(repo._read_ref()["head"]).parent
        repo._object_path(middle).unlink()
        with pytest.raises(IntegrityError):
            repo.checkout(1)
        with pytest.raises(IntegrityError):
            repo.replay()

    @pytest.mark.parametrize("failing_round", [2, 3])
    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_queue_unlink_failure_never_merges_twice(
            self, tmp_path, strategy, failing_round, monkeypatch):
        from pathlib import Path

        clean = self.prepare(tmp_path / "clean", strategy)
        repo = make_repo(tmp_path / "crashed", strategy=strategy)
        for i, name in enumerate(("t1", "t2", "t3")):
            repo.commit_contribution(make_contribution(
                repo.base, name, [f"{name} a", f"{name} b"], seed=i))
        for _ in range(failing_round - 1):
            repo.merge_next()
        unlink = Path.unlink
        failed = []

        def failing_once(self_, *args, **kwargs):
            if self_.parent.name == "queue" and not failed:
                failed.append(self_.name)
                raise OSError("I/O error")
            return unlink(self_, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", failing_once)
        with pytest.raises(OSError):
            repo.merge_next()
        assert repo.current_round() == failing_round  # the round committed
        assert failed == [f"{failing_round:06d}.json"]  # and its entry is still queued
        repo.merge_all()
        assert repo.pending() == []
        records = repo.merge_records()
        assert [r["round"] for r in records] == [1, 2, 3]
        repo.replay()
        want = clean.merge_records()
        assert [r["commit_id"] for r in records] == [r["commit_id"] for r in want]
        assert [r["item_id"] for r in records] == [r["item_id"] for r in want]
        assert repo._read_ref() == clean._read_ref()

    @pytest.mark.parametrize("strategy", ["fusion", "mixture"])
    def test_ref_without_guidance_list_is_upgraded(self, tmp_path, strategy):
        import json

        clean = self.prepare(tmp_path / "clean", strategy)
        repo = make_repo(tmp_path / "old", strategy=strategy)
        for i, name in enumerate(("t1", "t2", "t3")):
            repo.commit_contribution(make_contribution(
                repo.base, name, [f"{name} a", f"{name} b"], seed=i))
        repo.merge_next()
        repo.merge_next()
        ref_path = repo.root / "refs" / "main"
        old = json.loads(ref_path.read_text())
        del old["guidance"]  # as a forge from before the list was kept wrote it
        ref_path.write_text(json.dumps(old, sort_keys=True))
        repo.merge_next()
        records = repo.merge_records()
        want = clean.merge_records()
        for key in ("commit_id", "item_id", "guidance_ids"):
            assert [r[key] for r in records] == [r[key] for r in want]
        assert repo._read_ref() == clean._read_ref()

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

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os

        repo = make_repo(tmp_path / "repo")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            repo.store_object(b"never lands")
        assert list((repo.root / "objects").rglob(".tmp-*")) == []
        assert hashlib.sha256(b"never lands").hexdigest() not in repo.all_object_ids()
