"""Content-addressed local registry for collaborative model development.

Branch contributors commit plugin modules and distilled datasets; merges
fold the oldest pending contribution into the main branch, guided by the
union of distilled sets seen in prior merge rounds plus the incoming one.

Storage model: artifacts and commits live under ``objects/`` keyed by the
SHA-256 of their bytes, so concurrent writes are idempotent and raw task
data never enters the repository. The merge commits, hash-chained from the
main ref's head to genesis, are the history; the merge log is a record of
it. Timestamps live in queue entries and the log, never inside hashed
objects, which keeps replay stable. Merges serialize on an advisory lock;
commits do not.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import merge as mrg
from .datasets import TaskSpec
from .distill import DistilledDataset
from .errors import (
    ConflictError,
    InputError,
    IntegrityError,
    LockHeldError,
    NothingToMergeError,
    ValidationError,
)
from .evaluation import evaluate_deltas  # noqa: F401 - perfbench/tracing.py patches this name
from .merge import CoeffOptimConfig, ForgeItem, GuidanceSet
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule

REPO_FORMAT_VERSION = 1


def _canonical_json(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class Commit:
    """Hash-chained record; the id never covers timestamps."""

    id: str
    parent: str | None
    author: str
    kind: str  # "genesis" | "contribution" | "merge"
    payload: dict
    timestamp: float | None = None

    @staticmethod
    def compute_id(parent: str | None, author: str, kind: str, payload: dict) -> str:
        body = _canonical_json({"parent": parent, "author": author,
                                "kind": kind, "payload": payload})
        return hashlib.sha256(body).hexdigest()

    def to_bytes(self) -> bytes:
        return _canonical_json({"parent": self.parent, "author": self.author,
                                "kind": self.kind, "payload": self.payload})

    @classmethod
    def from_bytes(cls, buf: bytes, timestamp: float | None = None) -> "Commit":
        doc = json.loads(buf.decode("utf-8"))
        commit_id = cls.compute_id(doc["parent"], doc["author"], doc["kind"], doc["payload"])
        return cls(commit_id, doc["parent"], doc["author"], doc["kind"],
                   doc["payload"], timestamp)


@dataclass
class BranchContribution:
    """What one contributor pushes: task spec, plugin, distilled data."""

    task: TaskSpec
    plugin: PluginModule
    distilled: DistilledDataset
    author: str = "anon"
    training_meta: dict = field(default_factory=dict)


class Repository:
    """On-disk registry rooted at ``root``; open an existing one directly."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        config_path = self.root / "forge.json"
        if not config_path.is_file():
            raise InputError(f"no repository at {self.root}")
        self.config = json.loads(config_path.read_text())
        if self.config.get("format") != REPO_FORMAT_VERSION:
            raise InputError("unsupported repository format")
        self._base: BaseEncoder | None = None

    # -- creation ----------------------------------------------------------

    @classmethod
    def init(cls, path: str | Path, base_seed: int, strategy: str,
             rank: int = 16, alpha: float = 16.0, temperature: float = 0.07,
             coeff: CoeffOptimConfig | None = None,
             extra_config: dict | None = None) -> "Repository":
        path = Path(path)
        if path.exists() and not path.is_dir():
            raise ConflictError(f"{path} exists and is not a directory")
        if path.is_dir() and any(path.iterdir()):
            raise ConflictError(f"{path} already exists and is not empty")
        if strategy not in ("fusion", "mixture"):
            raise InputError(f"unknown strategy {strategy!r}")
        coeff = coeff or CoeffOptimConfig()
        for sub in ("objects", "refs", "log", "queue", "locks"):
            (path / sub).mkdir(parents=True, exist_ok=True)
        config = {
            "format": REPO_FORMAT_VERSION,
            "base_seed": int(base_seed),
            "strategy": strategy,
            "rank": int(rank),
            "alpha": float(alpha),
            "temperature": float(temperature),
            "coeff": asdict(coeff),
        }
        if extra_config:
            config["run_config"] = extra_config
        (path / "forge.json").write_text(json.dumps(config, indent=2, sort_keys=True))
        repo = cls(path)
        base = repo.base
        genesis_item = ForgeItem.genesis(strategy, base, rank, alpha)
        item_id = repo.store_object(genesis_item.to_bytes())
        genesis_commit = repo._append_commit(None, "registry", "genesis", {
            "base_seed": int(base_seed), "strategy": strategy,
            "base_hash": base.param_hash(), "item_id": item_id,
        })
        repo._write_ref({"item_id": item_id, "round": 0, "genesis": genesis_commit.id,
                         "head": genesis_commit.id, "guidance": []})
        return repo

    # -- basics ------------------------------------------------------------

    @property
    def base(self) -> BaseEncoder:
        if self._base is None:
            self._base = BaseEncoder.from_seed(self.config["base_seed"])
        return self._base

    @property
    def strategy(self) -> str:
        return self.config["strategy"]

    def coeff_config(self) -> CoeffOptimConfig:
        return CoeffOptimConfig(**self.config["coeff"])

    # -- object store ------------------------------------------------------

    def _object_path(self, object_id: str) -> Path:
        return self.root / "objects" / object_id[:2] / object_id[2:]

    def store_object(self, data: bytes) -> str:
        object_id = hashlib.sha256(data).hexdigest()
        target = self._object_path(object_id)
        if target.exists():
            return object_id
        target.parent.mkdir(parents=True, exist_ok=True)
        # one temp file per writer, so threads storing the same bytes never
        # share a name; all_object_ids skips the .tmp- prefix
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=target.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), 0o644)  # mkstemp creates owner-only files
                fh.write(data)
            os.replace(tmp, target)  # atomic; concurrent writers race benignly
        except BaseException:
            os.unlink(tmp)
            raise
        return object_id

    def read_object(self, object_id: str) -> bytes:
        target = self._object_path(object_id)
        if not target.is_file():
            raise IntegrityError(f"missing object {object_id}")
        data = target.read_bytes()
        if hashlib.sha256(data).hexdigest() != object_id:
            raise IntegrityError(f"object {object_id} fails its hash check")
        return data

    def all_object_ids(self) -> list[str]:
        out = []
        objects = self.root / "objects"
        for shard in sorted(objects.iterdir()) if objects.is_dir() else []:
            if shard.is_dir():
                out.extend(shard.name + p.name for p in sorted(shard.iterdir())
                           if not p.name.startswith(".tmp-"))
        return out

    def load_plugin(self, object_id: str) -> PluginModule:
        return PluginModule.from_bytes(self.read_object(object_id))

    def load_distilled(self, object_id: str) -> DistilledDataset:
        return DistilledDataset.from_bytes(self.read_object(object_id))

    # -- commit chain ------------------------------------------------------

    def _read_ref(self) -> dict:
        ref = self.root / "refs" / "main"
        if not ref.is_file():
            raise IntegrityError("missing main ref")
        return json.loads(ref.read_text())

    def _write_ref(self, doc: dict) -> None:
        ref = self.root / "refs" / "main"
        tmp = ref.parent / ".tmp-main"
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, ref)

    def _append_commit(self, parent: str | None, author: str, kind: str,
                       payload: dict) -> Commit:
        commit_id = Commit.compute_id(parent, author, kind, payload)
        commit = Commit(commit_id, parent, author, kind, payload, time.time())
        self.store_object(commit.to_bytes())
        return commit

    def read_commit(self, commit_id: str) -> Commit:
        return Commit.from_bytes(self.read_object(commit_id))

    def _merge_payloads(self, ref: dict) -> list[dict]:
        """The payloads of the merge commits from genesis to ``ref``'s head,
        oldest first; each commit is hash-checked on its way."""
        payloads, commit_id = [], ref["head"]
        while commit_id != ref["genesis"]:
            commit = self.read_commit(commit_id)
            if commit.kind != "merge":
                raise IntegrityError(f"commit {commit_id} on the main chain is no merge")
            payloads.append(commit.payload)
            commit_id = commit.parent
        payloads.reverse()
        if [p["round"] for p in payloads] != list(range(1, ref["round"] + 1)):
            raise IntegrityError(f"the main chain does not run rounds 1..{ref['round']}")
        return payloads

    # -- contributions -----------------------------------------------------

    def _validate_contribution(self, contribution: BranchContribution) -> None:
        task = contribution.task
        if task.num_classes < 2:
            raise ValidationError("task needs at least two classes")
        if len(set(task.labels)) != len(task.labels):
            raise ValidationError("task labels must be distinct")
        base = self.base
        for lid, ad in contribution.plugin.adapters.items():
            if lid < 0 or lid >= len(base.layers):
                raise ValidationError(f"plugin targets missing layer {lid}")
            d, k = base.layer_dims(lid)
            if ad.b.shape != (d, ad.rank) or ad.a.shape != (ad.rank, k):
                raise ValidationError(f"plugin shape mismatch on layer {lid}")
            if not (np.isfinite(ad.a.data).all() and np.isfinite(ad.b.data).all()):
                # a NaN or Inf weight would make every later merge objective NaN
                raise ValidationError(f"plugin weights on layer {lid} are not finite")
            if ad.rank < 1 or not (np.isfinite(ad.alpha) and ad.alpha > 0):
                # every later merge would scale this adapter by alpha/rank
                raise ValidationError(
                    f"plugin on layer {lid} needs rank >= 1 and a finite positive "
                    f"alpha, got rank {ad.rank} and alpha {ad.alpha}")
            if self.strategy == "fusion" and ad.rank != self.config["rank"]:
                # parameter fusion needs rank-aligned factors; reject now
                # rather than poisoning the head of the merge queue
                raise ValidationError(
                    f"fusion repository expects rank {self.config['rank']}, "
                    f"got {ad.rank} on layer {lid}")
            if self.strategy == "fusion" and \
                    np.float32(ad.alpha) != np.float32(self.config["alpha"]):
                # and alpha-aligned ones, compared as a stored plugin holds alpha
                raise ValidationError(
                    f"fusion repository expects alpha {self.config['alpha']}, "
                    f"got {ad.alpha} on layer {lid}")
        distilled = contribution.distilled
        if distilled.task_name != task.name:
            raise ValidationError("distilled set was built for a different task")
        if distilled.num_classes != task.num_classes:
            raise ValidationError("distilled class count does not match the task")
        if distilled.inputs.shape[1] != task.flat_dim:
            raise ValidationError("distilled inputs do not match the task shape")
        if not np.isfinite(distilled.inputs).all():
            raise ValidationError("distilled inputs are not finite")
        labels = distilled.labels
        if labels.shape != (len(distilled.inputs),):
            raise ValidationError("one distilled label per distilled input required")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= task.num_classes:
            raise ValidationError("distilled labels out of range")

    def _next_queue_path(self) -> Path:
        """A new queue file whose number no entry of this repository had, so
        the ref's consumed entry names one enqueue and never a later one."""
        queue = self.root / "queue"
        while True:
            existing = [int(p.stem) for p in queue.glob("*.json")]
            # read after listing: a merge writes the ref naming its entry
            # before it unlinks that entry, so the entry shows in one of them
            consumed = self._read_ref().get("consumed")
            seq = max([*existing, consumed["seq"] if consumed else 0]) + 1
            candidate = queue / f"{seq:06d}.json"
            try:
                fd = os.open(candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return candidate

    def commit_contribution(self, contribution: BranchContribution) -> Commit:
        """Store artifacts content-addressed and queue the commit (FIFO).

        Contributions are developed against the repo genesis, not against
        each other, so their parent is the genesis commit; this keeps commit
        ids (and the object store) independent of commit interleaving.
        """
        self._validate_contribution(contribution)
        plugin_id = self.store_object(contribution.plugin.to_bytes())
        distilled_id = self.store_object(contribution.distilled.to_bytes())
        payload = {
            "task": contribution.task.to_dict(),
            "plugin_id": plugin_id,
            "distilled_id": distilled_id,
            "training_meta": contribution.training_meta,
        }
        genesis = self._read_ref()["genesis"]
        commit = self._append_commit(genesis, contribution.author, "contribution", payload)
        entry = self._next_queue_path()
        entry.write_text(json.dumps({"commit_id": commit.id,
                                     "timestamp": commit.timestamp}))
        return commit

    @staticmethod
    def _queue_doc(path: Path) -> dict:
        doc = json.loads(path.read_text())
        doc["seq"] = int(path.stem)
        return doc

    def pending(self) -> list[dict]:
        return [self._queue_doc(path) for path in sorted((self.root / "queue").glob("*.json"))]

    def queue_head(self) -> dict | None:
        """The oldest queued entry, or None; no other queue file is read."""
        path = min((self.root / "queue").glob("*.json"), default=None)
        return None if path is None else self._queue_doc(path)

    def _unlink_queued(self, entry: dict) -> None:
        (self.root / "queue" / f"{entry['seq']:06d}.json").unlink()

    # -- merging -----------------------------------------------------------

    @contextmanager
    def _main_lock(self):
        lock_path = self.root / "locks" / "main.lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError as exc:
                raise LockHeldError(
                    "main branch is locked by another merge; retry shortly") from exc
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def merge_records(self) -> list[dict]:
        log = self.root / "log" / "merges.jsonl"
        if not log.is_file():
            return []
        return [json.loads(line) for line in log.read_text().splitlines() if line]

    def _append_merge_record(self, record: dict) -> None:
        log = self.root / "log" / "merges.jsonl"
        with open(log, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _guidance_from(self, listing: list[dict]) -> list[GuidanceSet]:
        """The distilled set and label table of each guidance list entry."""
        drawn: dict[str, np.ndarray] = {}  # label text -> row, one draw per text
        out = []
        for doc in listing:
            task = TaskSpec.from_dict(doc["task"])
            out.append((self.load_distilled(doc["distilled_id"]),
                        LabelEmbeddingTable(task.name, task.labels, self.base.embed_dim,
                                            drawn)))
        return out

    def current_item(self) -> ForgeItem:
        ref = self._read_ref()
        return ForgeItem.from_bytes(self.read_object(ref["item_id"]), self.load_plugin)

    def current_round(self) -> int:
        return int(self._read_ref()["round"])

    def merge_next(self) -> dict:
        """Merge the oldest queued contribution into the main branch.

        A round reads the main ref, the queue head, the contribution, the
        current item and the guidance sets the ref lists (a ref without the
        list gets it from the merge commits). The ref write commits the round;
        a merge failing after it loses at most the round's log record.
        """
        with self._main_lock():
            ref = self._read_ref()
            entry = self.queue_head()
            if entry is not None and _consumed(entry) == ref.get("consumed"):
                # its round committed, then the merge failed before this unlink
                self._unlink_queued(entry)
                entry = self.queue_head()
            if entry is None:
                raise NothingToMergeError("contribution queue is empty")
            commit = self.read_commit(entry["commit_id"])
            payload = commit.payload
            branch = self.load_plugin(payload["plugin_id"])
            prior = ref["guidance"] if "guidance" in ref else self._merge_payloads(ref)
            listing = _guidance_list([*prior, payload])
            new_item, outcome = mrg.merge_round(self.base, self.current_item(), branch,
                                                self._guidance_from(listing),
                                                self.coeff_config(),
                                                self.config["temperature"])
            item_id = self.store_object(new_item.to_bytes())
            merge_commit = self._append_commit(ref["head"], "registry", "merge", {
                "round": new_item.round,
                "strategy": self.strategy,
                "task": payload["task"],
                "contribution_commit": commit.id,
                "plugin_id": payload["plugin_id"],
                "distilled_id": payload["distilled_id"],
                "w_main": outcome.coefficients.w_main,
                "w_branch": outcome.coefficients.w_branch,
                "objective": outcome.objective_value,
                "item_id": item_id,
            })
            record = {**merge_commit.payload,
                      "commit_id": merge_commit.id,
                      "trace": outcome.trace,
                      "guidance_ids": [doc["distilled_id"] for doc in listing],
                      "metrics_pre": outcome.metrics_pre,
                      "metrics_post": outcome.metrics_post,
                      "timestamp": time.time()}
            self._write_ref({**ref, "item_id": item_id, "round": new_item.round,
                             "head": merge_commit.id, "guidance": listing,
                             "consumed": _consumed(entry)})
            self._append_merge_record(record)
            self._unlink_queued(entry)
            return record

    def merge_all(self) -> list[dict]:
        out = []
        while self.queue_head() is not None:
            try:
                out.append(self.merge_next())
            except NothingToMergeError:  # the head was the entry of a committed round
                break
        return out

    # -- history -----------------------------------------------------------

    def checkout(self, round_no: int, ref: dict | None = None) -> ForgeItem:
        """Rebuild the forge item as of ``round_no`` by replaying the merge
        commit chain of ``ref`` (the main ref, read now if not given) from
        genesis; each round's item must match the id its commit records."""
        ref = self._read_ref() if ref is None else ref
        payloads = self._merge_payloads(ref)
        if round_no < 0 or round_no > len(payloads):
            raise InputError(f"round {round_no} outside [0, {len(payloads)}]")
        item = ForgeItem.genesis(self.strategy, self.base,
                                 self.config["rank"], self.config["alpha"])
        for payload in payloads[:round_no]:
            branch = self.load_plugin(payload["plugin_id"])
            item = item.merged(branch, mrg.MergeCoefficients(payload["w_main"],
                                                             payload["w_branch"]))
            expect = payload["item_id"]
            got = hashlib.sha256(item.to_bytes()).hexdigest()
            if got != expect:
                raise IntegrityError(
                    f"replay of round {item.round} produced {got}, its commit says {expect}")
        return item

    def replay(self) -> ForgeItem:
        """Replay the main ref's whole merge commit chain and check it reaches
        the ref's item; a merge committing meanwhile does not matter."""
        ref = self._read_ref()
        item = self.checkout(ref["round"], ref)
        if hashlib.sha256(item.to_bytes()).hexdigest() != ref["item_id"]:
            raise IntegrityError("replayed item does not match the main ref")
        return item

    def verify_objects(self) -> int:
        """Re-hash every stored object; returns the count checked."""
        ids = self.all_object_ids()
        for object_id in ids:
            self.read_object(object_id)
        return len(ids)


def _consumed(entry: dict) -> dict:
    """How the main ref names the queue entry a round merged."""
    return {"commit_id": entry["commit_id"], "seq": entry["seq"]}


def _guidance_list(docs: list[dict]) -> list[dict]:
    """Distinct distilled ids in first-merge order, each with its task spec."""
    tasks: dict[str, dict] = {}
    for doc in docs:
        tasks.setdefault(doc["distilled_id"], doc["task"])
    return [{"distilled_id": distilled_id, "task": task} for distilled_id, task in tasks.items()]
