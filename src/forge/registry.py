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
import math
import os
import re
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import merge as mrg
from . import model as mdl
from .datasets import TaskSpec
from .distill import DistilledDataset
from .errors import (
    ConflictError,
    ForgeError,
    InputError,
    IntegrityError,
    LockHeldError,
    NothingToMergeError,
    ValidationError,
)
from .evaluation import evaluate_deltas  # noqa: F401 - perfbench/tracing.py patches this name
from .merge import CoeffOptimConfig, ForgeItem, GuidanceSet
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule
from .numerics import NUMBER, json_fields, json_object

REPO_FORMAT_VERSION = 1
# the fields forge reads from each JSON document it writes, at their types
CONFIG_KEYS = {"format": int, "base_seed": int, "strategy": str, "rank": int,
               "alpha": NUMBER, "temperature": NUMBER, "coeff": dict}
COEFF_KEYS = {"max_iterations": int, "init_value": NUMBER, "l1_lambda": NUMBER,
              "box_min": NUMBER, "box_max": NUMBER, "allow_negative": bool}
REF_KEYS = {"item_id": str, "round": int, "genesis": str, "head": str, "guidance": list}
GUIDANCE_KEYS = {"distilled_id": str, "task": dict}
CONSUMED_KEYS = {"commit_id": str, "seq": int}
COMMIT_KEYS = {"parent": (str, type(None)), "author": str, "kind": str, "payload": dict}
GENESIS_KEYS = {"base_hash": str, "item_id": str}

# the names _enqueue gives, f"{seq:06d}.json", and no others
QUEUE_ENTRY_NAME = re.compile(r"([0-9]{6}|[1-9][0-9]{6,})\.json")


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

    def to_bytes(self) -> bytes:
        return _canonical_json({"parent": self.parent, "author": self.author,
                                "kind": self.kind, "payload": self.payload})

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Commit":
        commit_id = hashlib.sha256(buf).hexdigest()
        doc = json_object(buf, f"commit {commit_id}", COMMIT_KEYS, IntegrityError)
        return cls(commit_id, doc["parent"], doc["author"], doc["kind"], doc["payload"])


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
        self.config = _check_config(json_object(config_path.read_bytes(), str(config_path),
                                                CONFIG_KEYS, InputError))
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
        config = {
            "format": REPO_FORMAT_VERSION,
            "base_seed": int(base_seed),
            "strategy": strategy,
            "rank": int(rank),
            "alpha": float(alpha),
            "temperature": float(temperature),
            "coeff": asdict(coeff or CoeffOptimConfig()),
        }
        if extra_config:
            config["run_config"] = extra_config
        _check_config(config)  # refuse before the first directory exists
        for sub in ("objects", "refs", "log", "queue", "locks"):
            (path / sub).mkdir(parents=True, exist_ok=True)
        (path / "forge.json").write_text(json.dumps(config, indent=2, sort_keys=True))
        repo = cls(path)
        # built unchecked: the genesis commit that records its hash comes next
        repo._base = base = BaseEncoder.from_seed(base_seed)
        item_id = repo.store_object(ForgeItem.genesis(strategy, base, rank, alpha).to_bytes())
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
        """The encoder of ``base_seed``, refused unless the genesis commit records it."""
        if self._base is None:
            base = BaseEncoder.from_seed(self.config["base_seed"])
            if base.param_hash() != self._genesis()["base_hash"]:
                raise IntegrityError(f"base_seed {self.config['base_seed']} does not build "
                                     f"the encoder this repository was made with")
            self._base = base
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
        doc = json_object(ref.read_bytes(), "main ref", REF_KEYS, IntegrityError)
        if "consumed" in doc:
            json_fields(doc["consumed"], "main ref's consumed entry", CONSUMED_KEYS,
                        IntegrityError)
        for entry in doc["guidance"]:
            TaskSpec.from_dict(json_fields(entry, "main ref's guidance entry",
                                           GUIDANCE_KEYS, IntegrityError)["task"])
        return doc

    def _write_ref(self, doc: dict) -> None:
        ref = self.root / "refs" / "main"
        tmp = ref.parent / ".tmp-main"
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, ref)

    def _append_commit(self, parent: str | None, author: str, kind: str,
                       payload: dict) -> Commit:
        commit = Commit("", parent, author, kind, payload, time.time())
        commit.id = self.store_object(commit.to_bytes())
        return commit

    def read_commit(self, commit_id: str) -> Commit:
        return Commit.from_bytes(self.read_object(commit_id))

    def _genesis(self, ref: dict | None = None) -> dict:
        """The payload of ``ref``'s genesis commit, refused unless it is one."""
        commit = self.read_commit((ref or self._read_ref())["genesis"])
        if commit.kind != "genesis":
            raise IntegrityError(f"commit {commit.id} is no genesis commit")
        return json_fields(commit.payload, f"genesis commit {commit.id}", GENESIS_KEYS,
                           IntegrityError)

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
        """``ValidationError`` unless every later merge can use ``contribution``:
        its weights are finite, its distilled set fits its task, and it passes
        the rules of the label table, ``encode``, fusion, the distilled set and
        the search's cosine head, which scores the set under its own plugin."""
        task, plugin, distilled = contribution.task, contribution.plugin, contribution.distilled
        if (distilled.task_name, distilled.num_classes, distilled.inputs.shape[1:]) != \
                (task.name, task.num_classes, (task.flat_dim,)):
            raise ValidationError(f"distilled set for {distilled.task_name!r} does not match "
                                  f"the name, class count and width of task {task.name!r}")
        if not all(np.isfinite(t.data).all() for t in plugin.parameters()):
            # a NaN or Inf weight would make every later merge objective NaN
            raise ValidationError("plugin weights are not finite")
        base = self.base
        try:
            mdl.check_plugin(base, plugin)
            if self.strategy == "fusion":
                mrg._check_compatible([PluginModule.zero(base, self.config["rank"],
                                                         self.config["alpha"]), plugin])
            distilled.check()
            mdl.cosine_logits_np(mdl.encode_np(base, plugin.layer_deltas(), distilled.inputs),
                                 LabelEmbeddingTable(task.name, task.labels, base.embed_dim))
        except ForgeError as exc:
            raise ValidationError(f"contribution refused: {exc}") from exc

    def _enqueue(self, doc: dict) -> None:
        """Queue ``doc`` under a number no entry of this repository had, so
        the ref's consumed entry names one enqueue and never a later one.

        The doc is written in full before it takes its number: a commit that
        dies on the way leaves at most a ``.tmp-`` file, never an empty entry
        at the head of the queue.
        """
        queue = self.root / "queue"
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=queue)
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), 0o644)  # mkstemp creates owner-only files
                fh.write(json.dumps(doc))
            while True:
                existing = [int(p.stem) for p in self.queued_paths()]
                # read after listing: a merge writes the ref naming its entry
                # before it unlinks that entry, so the entry shows in one of them
                consumed = self._read_ref().get("consumed")
                seq = max([*existing, consumed["seq"] if consumed else 0]) + 1
                try:
                    os.link(tmp, queue / f"{seq:06d}.json")
                    return
                except FileExistsError:
                    continue
        finally:
            os.unlink(tmp)

    def commit_contribution(self, contribution: BranchContribution) -> Commit:
        """Store artifacts content-addressed and queue the commit (FIFO).

        Contributions are developed against the repo genesis, not against
        each other, so their parent is the genesis commit; this keeps commit
        ids (and the object store) independent of commit interleaving.
        """
        self._validate_contribution(contribution)
        genesis = self._read_ref()["genesis"]  # a bad ref refuses before any store
        plugin_id = self.store_object(contribution.plugin.to_bytes())
        distilled_id = self.store_object(contribution.distilled.to_bytes())
        payload = {
            "task": contribution.task.to_dict(),
            "plugin_id": plugin_id,
            "distilled_id": distilled_id,
            "training_meta": contribution.training_meta,
        }
        commit = self._append_commit(genesis, contribution.author, "contribution", payload)
        self._enqueue({"commit_id": commit.id, "timestamp": commit.timestamp})
        return commit

    @staticmethod
    def _queue_doc(path: Path) -> dict:
        doc = json_object(path.read_bytes(), f"queue entry {path.name}",
                          {"commit_id": str}, IntegrityError)
        doc["seq"] = int(path.stem)
        return doc

    def queued_paths(self) -> list[Path]:
        """The queue's entries, oldest first: the files named by their number
        as ``_enqueue`` names them, in the order of that number. Nothing else
        in ``queue/`` is an entry, so a stray file neither blocks nor joins
        the queue."""
        paths = (self.root / "queue").iterdir()
        return sorted((p for p in paths if QUEUE_ENTRY_NAME.fullmatch(p.name)),
                      key=lambda p: int(p.stem))

    def pending(self) -> list[dict]:
        return [self._queue_doc(path) for path in self.queued_paths()]

    def queue_head(self) -> dict | None:
        """The oldest queued entry, or None; no other queue file is read."""
        paths = self.queued_paths()
        return self._queue_doc(paths[0]) if paths else None

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
        current item and the guidance sets the ref lists. The ref write
        commits the round; a merge failing after it loses at most the round's
        log record.
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
            if commit.kind != "contribution":
                raise IntegrityError(f"queue entry {entry['seq']:06d} names {commit.kind} "
                                     f"commit {commit.id}, not a contribution")
            payload = commit.payload
            branch = self.load_plugin(payload["plugin_id"])
            listing = _guidance_list([*ref["guidance"], payload])
            item = ForgeItem.from_bytes(self.read_object(ref["item_id"]), self.load_plugin)
            new_item, outcome = mrg.merge_round(self.base, item, branch,
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
        while True:
            try:
                out.append(self.merge_next())
            except NothingToMergeError:
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
        item = ForgeItem.from_bytes(self.read_object(self._genesis(ref)["item_id"]),
                                    self.load_plugin)
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


def _check_config(config: dict) -> dict:
    """``config`` if a repository holding it can merge, else ``InputError``."""
    for key, need, ok in (
            ("format", REPO_FORMAT_VERSION, config["format"] == REPO_FORMAT_VERSION),
            ("strategy", "fusion or mixture", config["strategy"] in ("fusion", "mixture")),
            ("rank", ">= 1", config["rank"] >= 1),
            *((key, "finite and > 0", math.isfinite(config[key]) and config[key] > 0)
              for key in ("alpha", "temperature"))):
        if not ok:
            raise InputError(f"repository {key} must be {need}, got {config[key]!r}")
    try:
        CoeffOptimConfig(**json_fields(config["coeff"], "coeff", COEFF_KEYS, InputError))
    except TypeError as exc:  # a key CoeffOptimConfig does not have
        raise InputError(f"coeff: {exc}") from exc
    return config


def _consumed(entry: dict) -> dict:
    """How the main ref names the queue entry a round merged."""
    return {"commit_id": entry["commit_id"], "seq": entry["seq"]}


def _guidance_list(docs: list[dict]) -> list[dict]:
    """Distinct distilled ids in first-merge order, each with its task spec."""
    tasks: dict[str, dict] = {}
    for doc in docs:
        tasks.setdefault(doc["distilled_id"], doc["task"])
    return [{"distilled_id": distilled_id, "task": task} for distilled_id, task in tasks.items()]
