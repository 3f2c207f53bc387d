"""Content-addressed local registry for collaborative model development.

Branch contributors commit plugin modules and distilled datasets; merges
fold the oldest pending contribution into the main branch, guided by the
union of distilled sets seen in prior merge rounds plus the incoming one.

Storage model: artifacts and commits live under ``objects/`` keyed by the
SHA-256 of their bytes, so concurrent writes are idempotent and raw task
data never enters the repository. The merge commits, hash-chained from the
main ref's head to genesis, are the history; the merge log is a record of
it. Timestamps live in queue entries and the log, never inside hashed
objects, which keeps replay stable. No queue entry is ever removed: the
queue is the entries numbered past the main ref's consumed one. Merges
serialize on an advisory lock; commits do not.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import math
import os
import re
import shutil
import stat
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import merge as mrg
from . import model as mdl
from . import numerics as nm
from .chain import Chain, Commit, hash_checked, parse_ref, read_genesis
from .datasets import TaskSpec
from .distill import DistilledDataset
from .errors import (
    ConflictError,
    ForgeError,
    InputError,
    IntegrityError,
    LockHeldError,
    NothingToMergeError,
    ParameterError,
    ValidationError,
)
from .evaluation import evaluate_deltas  # noqa: F401 - perfbench/tracing.py patches this name
from .merge import CoeffOptimConfig, ForgeItem, GuidanceSet
from .model import BaseEncoder, LabelEmbeddingTable, PluginModule, TrainConfig
from .numerics import NUMBER, json_fields, json_object

REPO_FORMAT_VERSION = 1
REPO_DIRS = ("objects", "refs", "log", "queue", "locks")
# the fields forge reads from each JSON document it writes, at their types;
# forge.json written by earlier code also holds base_seed, strategy, rank and
# alpha, which the genesis commit fixes and nothing reads from forge.json
CONFIG_KEYS = {"format": int, "temperature": NUMBER, "coeff": dict}
COEFF_KEYS = {f.name: {int: int, float: NUMBER}[type(f.default)]
              for f in fields(CoeffOptimConfig)}
# what os.open raises when a path names no file: missing, under a shard that
# is no directory, or through a symlink loop
NO_PATH_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)

# the names _enqueue gives, f"{seq:06d}.json", and no others
QUEUE_ENTRY_NAME = re.compile(r"([0-9]{6}|[1-9][0-9]{6,})\.json")


@dataclass
class BranchContribution:
    """What one contributor pushes: task spec, plugin, distilled data."""

    task: TaskSpec
    plugin: PluginModule
    distilled: DistilledDataset
    author: str = "anon"
    training_meta: dict = field(default_factory=dict)


def check_unused(path: Path) -> None:
    """Refuse a path ``Repository.init`` may not create a repository at. The
    ``.tmp-`` leftovers of a crashed write do not count as content."""
    if path.is_dir() and any(not p.name.startswith(".tmp-") for p in path.iterdir()):
        raise ConflictError(f"{path} already exists and is not empty")
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise ConflictError(f"{nearest} exists and is not a directory")


class Repository:
    """On-disk registry rooted at ``root``; open an existing one directly."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        config_path = self.root / "forge.json"
        if not config_path.is_file():
            raise InputError(f"no repository at {self.root}")
        self.config = _check_config(json_object(config_path.read_bytes(), str(config_path),
                                                CONFIG_KEYS, InputError))
        self._objects = os.path.join(self.root, "objects")
        self._base: BaseEncoder | None = None

    # -- creation ----------------------------------------------------------

    @classmethod
    def init(cls, path: str | Path, base_seed: int, strategy: str,
             rank: int = TrainConfig.rank, alpha: float = TrainConfig.alpha,
             temperature: float = TrainConfig.temperature,
             coeff: CoeffOptimConfig | None = None,
             extra_config: dict | None = None) -> "Repository":
        path = Path(path)
        check_unused(path)
        config = {
            "format": REPO_FORMAT_VERSION,
            "temperature": float(temperature),
            "coeff": asdict(coeff or CoeffOptimConfig()),
        }
        if extra_config:
            config["run_config"] = extra_config
        _check_config(config)  # refuse before the first directory exists
        base = BaseEncoder.from_seed(base_seed)
        try:
            item = ForgeItem.genesis(strategy, base, rank, alpha)
        except ParameterError as exc:
            raise InputError(f"cannot make a repository: {exc}") from exc
        # built whole in a .tmp- directory and moved into place, forge.json last,
        # so a crash leaves no repository or a whole one. A directory already
        # there is kept (it may be a mount point or a working directory): the
        # repository is built inside it and each entry renamed out.
        target = path.resolve()
        inside = target.is_dir()
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".tmp-", dir=target if inside else target.parent)
        try:
            os.chmod(staging, 0o755)  # mkdtemp creates an owner-only directory
            for sub in REPO_DIRS:
                os.mkdir(os.path.join(staging, sub))
            nm.write_file(os.path.join(staging, "forge.json"),
                          json.dumps(config, indent=2, sort_keys=True).encode())
            repo = cls(staging)
            repo._base = base  # unchecked: the genesis commit that records its hash comes next
            item_id = repo.store_object(item.to_bytes())
            genesis_commit = repo._append_commit(None, "registry", "genesis", {
                "base_seed": int(base_seed), "strategy": strategy,
                "base_hash": base.param_hash(), "item_id": item_id,
            })
            repo._write_ref({"genesis": genesis_commit.id, "head": genesis_commit.id})
            try:
                if inside:
                    for name in (*REPO_DIRS, "forge.json"):
                        os.rename(os.path.join(staging, name), target / name)
                    os.rmdir(staging)
                else:
                    os.rename(staging, target)
            except OSError as exc:  # filled or made a file since check_unused
                raise ConflictError(f"cannot create a repository at {path}: {exc}") from exc
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        repo = cls(path)
        repo._base = base
        return repo

    # -- basics ------------------------------------------------------------

    @property
    def base(self) -> BaseEncoder:
        """The encoder of the genesis commit's ``base_seed``, refused unless
        it has the hash that commit records."""
        return self.base_of()

    def base_of(self, genesis: dict | None = None) -> BaseEncoder:
        """``base``, built from the genesis payload ``genesis`` (a ``Chain``'s,
        or the main ref's, read now if not given)."""
        if self._base is None:
            genesis = genesis or read_genesis(self.read_commit, self._read_ref())
            base = BaseEncoder.from_seed(genesis["base_seed"])
            if base.param_hash() != genesis["base_hash"]:
                raise IntegrityError(f"base_seed {genesis['base_seed']} does not build "
                                     f"the encoder this repository was made with")
            self._base = base
        return self._base

    @property
    def strategy(self) -> str:
        """The strategy the genesis commit records; only the ref and the
        genesis commit are read."""
        return read_genesis(self.read_commit, self._read_ref())["strategy"]

    def coeff_config(self) -> CoeffOptimConfig:
        return CoeffOptimConfig(**self.config["coeff"])

    # -- object store ------------------------------------------------------

    def _object_file(self, object_id: str) -> str:
        return f"{self._objects}/{object_id[:2]}/{object_id[2:]}"

    def _is_stored(self, object_id: str) -> bool:
        """Whether a regular file stands under ``object_id``: one stat and no
        hash check, which ``verify_objects`` does for every stored file."""
        try:
            return stat.S_ISREG(os.stat(self._object_file(object_id)).st_mode)
        except OSError as exc:
            if exc.errno not in NO_PATH_ERRNOS:
                raise
            return False

    def store_object(self, data: bytes) -> str:
        """Store ``data`` under its SHA-256 id and return the id. A file
        where the object's shard directory belongs, or a directory where
        the object belongs, is ``IntegrityError`` naming the object."""
        object_id = hashlib.sha256(data).hexdigest()
        if self._is_stored(object_id):
            return object_id
        target = self._object_file(object_id)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            # one temp file per writer, so concurrent writers of the same
            # bytes race benignly; all_object_ids skips the .tmp- prefix
            nm.write_file(target, data)
        except (FileExistsError, NotADirectoryError, IsADirectoryError) as exc:
            raise IntegrityError(f"cannot store object {object_id}: {exc}") from exc
        return object_id

    def read_object(self, object_id: str) -> bytes:
        """The bytes stored under ``object_id``, refused unless they hash to it.

        One open of a string path. A missing file, anything but a regular
        file in its place, and an id that names no path (a shard that is no
        directory, a symlink loop, a NUL byte) are the same ``IntegrityError``.
        O_NONBLOCK makes a FIFO in an object's place refused, not waited on.
        """
        try:
            fd = os.open(self._object_file(object_id), os.O_RDONLY | os.O_NONBLOCK)
        except (OSError, ValueError) as exc:
            if isinstance(exc, OSError) and exc.errno not in NO_PATH_ERRNOS:
                raise
            raise IntegrityError(f"missing object {object_id}") from exc
        try:
            info = os.fstat(fd)
            # a short read can only fail the hash check, never pass it
            data = os.read(fd, info.st_size) if stat.S_ISREG(info.st_mode) else None
        finally:
            os.close(fd)
        if data is None:
            raise IntegrityError(f"missing object {object_id}")
        return hash_checked(data, object_id)

    def all_object_ids(self) -> list[str]:
        """The id of every stored object, sorted; the ``.tmp-`` files of
        unfinished writes are none."""
        try:
            with os.scandir(self._objects) as it:
                shards = sorted((e.name, e.path) for e in it if e.is_dir())
        except (FileNotFoundError, NotADirectoryError):
            return []
        out = []
        for name, path in shards:
            with os.scandir(path) as it:
                out.extend(sorted(name + e.name for e in it if not e.name.startswith(".tmp-")))
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
        return parse_ref(ref.read_bytes())

    def _write_ref(self, doc: dict) -> None:
        nm.write_file(self.root / "refs" / "main", json.dumps(doc, sort_keys=True).encode())

    def _append_commit(self, parent: str | None, author: str, kind: str,
                       payload: dict) -> Commit:
        commit = Commit("", parent, author, kind, payload, time.time())
        commit.id = self.store_object(commit.to_bytes())
        return commit

    def read_commit(self, commit_id: str) -> Commit:
        return Commit.from_bytes(self.read_object(commit_id), commit_id)

    def chain(self) -> Chain:
        """The history the main ref names, read now: each commit read and
        hash-checked once."""
        return Chain.read(self.read_commit, self._read_ref())

    # -- contributions -----------------------------------------------------

    def _validate_contribution(self, contribution: BranchContribution,
                               genesis: dict) -> None:
        """``ValidationError`` unless every later merge can use ``contribution``:
        its weights are finite, its distilled set fits its task, and it passes
        the rules of the label table, ``encode``, the ``check_branch`` of the
        genesis payload ``genesis``'s item (fusion's), the distilled set and the
        cosine head at the repository's temperature, scoring the set under its own plugin."""
        task, plugin, distilled = contribution.task, contribution.plugin, contribution.distilled
        if (distilled.task_name, distilled.num_classes, distilled.inputs.shape[1:]) != \
                (task.name, task.num_classes, (task.flat_dim,)):
            raise ValidationError(f"distilled set for {distilled.task_name!r} does not match "
                                  f"the name, class count and width of task {task.name!r}")
        if not all(np.isfinite(a).all() for a in plugin.parameters()):
            # a NaN or Inf weight would make every later merge objective NaN
            raise ValidationError("plugin weights are not finite")
        base = self.base_of(genesis)
        # read outside the try: a lost genesis item is the store's fault, not the contribution's
        genesis_item = self._stored_item(genesis)
        try:
            mdl.check_plugin(base, plugin)
            genesis_item.check_branch(plugin)
            distilled.check()
            mdl.cosine_logits_np(mdl.encode_np(base, plugin.layer_deltas(), distilled.inputs),
                                 LabelEmbeddingTable(task.name, task.labels, base.embed_dim),
                                 self.config["temperature"])
        except ForgeError as exc:
            raise ValidationError(f"contribution refused: {exc}") from exc

    def _enqueue(self, doc: dict) -> None:
        """Queue ``doc`` under a number past every entry and past the main
        ref's cursor. No entry is ever removed, so a round merging meanwhile
        cannot hand a merged entry's number to a new one.

        The doc is written in full before it takes its number: a commit that
        dies on the way leaves at most a ``.tmp-`` file, never an empty entry
        at the head of the queue.
        """
        queue = self.root / "queue"
        with nm.staged_file(queue, json.dumps(doc).encode()) as tmp:
            while True:
                ref = self._read_ref()
                seq = max([_cursor(ref), *(int(p.stem) for p in self.queued_paths(ref))]) + 1
                with suppress(FileExistsError):  # taken meanwhile: number it again
                    os.link(tmp, queue / f"{seq:06d}.json")  # never over an entry
                    return

    def commit_contribution(self, contribution: BranchContribution) -> Commit:
        """Store artifacts content-addressed and queue the commit (FIFO).

        Contributions are developed against the repo genesis, not against
        each other, so their parent is the genesis commit; this keeps commit
        ids (and the object store) independent of commit interleaving.
        """
        ref = self._read_ref()  # a bad ref refuses before any store
        self._validate_contribution(contribution, read_genesis(self.read_commit, ref))
        plugin_id = self.store_object(contribution.plugin.to_bytes())
        distilled_id = self.store_object(contribution.distilled.to_bytes())
        payload = {
            "task": contribution.task.to_dict(),
            "plugin_id": plugin_id,
            "distilled_id": distilled_id,
            "training_meta": contribution.training_meta,
        }
        commit = self._append_commit(ref["genesis"], contribution.author, "contribution",
                                     payload)
        self._enqueue({"commit_id": commit.id, "timestamp": commit.timestamp})
        return commit

    @staticmethod
    def _queue_doc(path: Path) -> dict:
        doc = json_object(path.read_bytes(), f"queue entry {path.name}",
                          {"commit_id": str}, IntegrityError)
        doc["seq"] = int(path.stem)
        return doc

    def queued_paths(self, ref: dict | None = None) -> list[Path]:
        """The queue, oldest first: the files named by their number as
        ``_enqueue`` names them, numbered past the cursor of ``ref`` (the main
        ref, read now if not given). Those at or below it have merged. Nothing
        else in ``queue/`` is an entry: a stray neither blocks nor joins."""
        cursor = _cursor(self._read_ref() if ref is None else ref)
        paths = (p for p in (self.root / "queue").iterdir()
                 if QUEUE_ENTRY_NAME.fullmatch(p.name) and int(p.stem) > cursor)
        return sorted(paths, key=lambda p: int(p.stem))

    def pending(self) -> list[dict]:
        return [self._queue_doc(path) for path in self.queued_paths()]

    def queue_head(self, ref: dict | None = None) -> dict | None:
        """The oldest entry past ``ref``'s cursor, or None; no other is read."""
        paths = self.queued_paths(ref)
        return self._queue_doc(paths[0]) if paths else None

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
        """Each round's record, in order; a line a crash cut short is skipped."""
        log = self.root / "log" / "merges.jsonl"
        if not log.is_file():
            return []
        records = []
        for line in log.read_text().splitlines():
            with suppress(ValueError):  # blank, or torn by a crash mid-append
                records.append(json.loads(line))
        return records

    def _append_merge_record(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        with open(self.root / "log" / "merges.jsonl", "ab+") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
            if fh.read(1) not in (b"", b"\n"):  # a torn last line stays a line of its own
                line = b"\n" + line
            fh.write(line)

    def _guidance_from(self, payloads: list[dict]) -> dict[str, GuidanceSet]:
        """Each distinct distilled id's set and label table, in first-merge order."""
        out = {}
        for doc in payloads:  # checked by Commit.checked_payload
            distilled_id, task = doc["distilled_id"], doc["task"]
            if distilled_id not in out:
                out[distilled_id] = (self.load_distilled(distilled_id), LabelEmbeddingTable(
                    task["name"], task["labels"], self.base.embed_dim))
        return out

    def _item_bytes(self, payload: dict) -> bytes:
        """The stored bytes of the item the genesis or merge payload
        ``payload`` names, hash-checked; a merge payload's item that is
        missing or damaged is refused naming its round."""
        item_id = payload["item_id"]
        try:
            return self.read_object(item_id)
        except IntegrityError as exc:
            if "round" not in payload:  # the genesis item: read_object's report stands
                raise
            problem = ("fails its hash check" if self._is_stored(item_id)
                       else "is missing from the object store")
            raise IntegrityError(f"round {payload['round']}'s item {item_id} {problem}") from exc

    def _stored_item(self, payload: dict) -> ForgeItem:
        """The item ``payload`` names, as stored; a mixture's plugins are read too."""
        return ForgeItem.from_bytes(self._item_bytes(payload), self.load_plugin)

    def current_item(self, chain: Chain | None = None) -> ForgeItem:
        """The item the head of ``chain`` (the main ref's, read now if not
        given) names."""
        chain = self.chain() if chain is None else chain
        return self._stored_item(chain.head)

    def merge_next(self) -> dict:
        """Merge the oldest queued contribution into the main branch.

        A round reads the main ref, the queue head, the contribution, the
        ref's ``Chain`` (the current item, the guidance list, the encoder and
        the strategy), the current item and the guidance sets. The ref write
        commits the round; a merge failing after it loses at most the round's
        log record.
        """
        with self._main_lock():
            ref = self._read_ref()
            entry = self.queue_head(ref)
            if entry is None:
                raise NothingToMergeError("contribution queue is empty")
            commit = self.read_commit(entry["commit_id"])
            payload = commit.checked_payload("contribution")
            branch = self.load_plugin(payload["plugin_id"])
            chain = Chain.read(self.read_commit, ref)
            base = self.base_of(chain.genesis)
            item = self._stored_item(chain.head)
            guidance = self._guidance_from([*chain.merges, payload])
            new_item, outcome = mrg.merge_round(base, item, branch, list(guidance.values()),
                                                self.coeff_config(),
                                                self.config["temperature"])
            item_id = self.store_object(new_item.to_bytes())
            merge_commit = self._append_commit(ref["head"], "registry", "merge", {
                "round": new_item.round,
                "strategy": chain.strategy,
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
                      "guidance_ids": list(guidance),
                      "metrics_pre": outcome.metrics_pre,
                      "metrics_post": outcome.metrics_post,
                      "timestamp": time.time()}
            self._write_ref({"genesis": ref["genesis"], "head": merge_commit.id,
                             "consumed": {"commit_id": commit.id, "seq": entry["seq"]}})
            self._append_merge_record(record)
            return record

    def merge_all(self) -> list[dict]:
        out = []
        while True:
            try:
                out.append(self.merge_next())
            except NothingToMergeError:
                return out

    # -- history -----------------------------------------------------------

    def checkout(self, round_no: int, chain: Chain | None = None) -> ForgeItem:
        """The stored item that round ``round_no``'s commit in ``chain`` (the
        main ref's, read now if not given) names, round 0's being the genesis
        item. It is read and hash-checked, not re-derived: ``replay`` proves
        that the merge algebra gives it."""
        chain = self.chain() if chain is None else chain
        if round_no < 0 or round_no > chain.round:
            raise InputError(f"round {round_no} outside [0, {chain.round}]")
        return self._stored_item((chain.genesis, *chain.merges)[round_no])

    def replay(self) -> ForgeItem:
        """Re-derive every round of the main ref's chain from the genesis item
        with the merge algebra and return the last; each round's item must
        match the id its commit records and be stored whole under it. A merge
        committing meanwhile does not matter."""
        chain = self.chain()
        item = self._stored_item(chain.genesis)
        for payload in chain.merges:
            branch = self.load_plugin(payload["plugin_id"])
            item = item.merged(branch, mrg.MergeCoefficients(payload["w_main"],
                                                             payload["w_branch"]),
                               payload["plugin_id"])  # the id load_plugin just checked
            expect = payload["item_id"]
            got = hashlib.sha256(item.to_bytes()).hexdigest()
            if got != expect:
                raise IntegrityError(
                    f"replay of round {item.round} produced {got}, its commit says {expect}")
            self._item_bytes(payload)
        return item

    def verify_objects(self) -> int:
        """Re-hash every stored object; returns the count checked."""
        ids = self.all_object_ids()
        for object_id in ids:
            self.read_object(object_id)
        return len(ids)


def _check_config(config: dict) -> dict:
    """``config`` if a repository holding it can merge, else ``InputError``."""
    temperature = config["temperature"]
    for key, need, ok in (
            ("format", REPO_FORMAT_VERSION, config["format"] == REPO_FORMAT_VERSION),
            ("temperature", "finite and > 0", math.isfinite(temperature) and temperature > 0)):
        if not ok:
            raise InputError(f"repository {key} must be {need}, got {config[key]!r}")
    coeff = json_fields(config["coeff"], "coeff", COEFF_KEYS, InputError)
    if "allow_negative" in coeff:  # written by earlier code; true searched [-box_max, box_max]
        json_fields(coeff, "coeff", {"allow_negative": bool}, InputError)
        if coeff.pop("allow_negative"):
            coeff["box_min"] = -coeff["box_max"]
    try:
        CoeffOptimConfig(**coeff)
    except TypeError as exc:  # a key CoeffOptimConfig does not have
        raise InputError(f"coeff: {exc}") from exc
    return config


def _cursor(ref: dict) -> int:
    """The number of the last queue entry ``ref``'s history merged, or 0."""
    return ref["consumed"]["seq"] if "consumed" in ref else 0
