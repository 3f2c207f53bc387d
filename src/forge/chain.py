"""A repository's history: its commits, the main ref that names their head,
and ``Chain``, the one reader of them.

A commit's id is the SHA-256 of its canonical bytes, which never cover a
timestamp. The merge commits, each naming the one before it as its parent,
run from the main ref's head back to the genesis commit. ``Chain.read``
walks them once, hash-checking each commit as it reads it, and keeps every
payload, so a command or a merge round reads its history once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from .datasets import TaskSpec
from .errors import FormatError, IntegrityError
from .numerics import NUMBER, json_fields, json_object

# refs/main written by earlier code also holds item_id, round and guidance,
# copies of the chain's facts that nothing reads and the next round drops
REF_KEYS = {"genesis": str, "head": str}
CONSUMED_KEYS = {"commit_id": str, "seq": int}
COMMIT_KEYS = {"parent": (str, type(None)), "author": str, "kind": str, "payload": dict}
GENESIS_KEYS = {"base_seed": int, "strategy": str, "base_hash": str, "item_id": str}
CONTRIBUTION_KEYS = {"task": dict, "plugin_id": str, "distilled_id": str}
MERGE_KEYS = {**CONTRIBUTION_KEYS, "round": int, "w_main": NUMBER, "w_branch": NUMBER,
              "item_id": str}
PAYLOAD_KEYS = {"genesis": GENESIS_KEYS, "contribution": CONTRIBUTION_KEYS, "merge": MERGE_KEYS}


def hash_checked(data: bytes, object_id: str) -> bytes:
    """``data``, refused unless its SHA-256 is ``object_id``."""
    if hashlib.sha256(data).hexdigest() != object_id:
        raise IntegrityError(f"object {object_id} fails its hash check")
    return data


def parse_ref(buf: bytes) -> dict:
    """The main ref ``buf`` holds: the genesis and head commit ids and, once a
    round has merged, the queue entry it consumed."""
    doc = json_object(buf, "main ref", REF_KEYS, IntegrityError)
    if "consumed" in doc:
        json_fields(doc["consumed"], "main ref's consumed entry", CONSUMED_KEYS, IntegrityError)
    return doc


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
        return json.dumps({"parent": self.parent, "author": self.author, "kind": self.kind,
                           "payload": self.payload},
                          sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, buf: bytes, commit_id: str) -> "Commit":
        """The commit ``buf`` holds; ``commit_id`` is the hash of ``buf``,
        which the caller has just checked."""
        doc = json_object(buf, f"commit {commit_id}", COMMIT_KEYS, IntegrityError)
        return cls(commit_id, doc["parent"], doc["author"], doc["kind"], doc["payload"])

    def checked_payload(self, kind: str) -> dict:
        """The payload, refused unless this is a ``kind`` commit, with a parent
        unless a genesis, whose payload holds ``PAYLOAD_KEYS[kind]`` at their
        types and, past genesis, a task spec under ``task``."""
        if self.kind != kind or (self.parent is None) != (kind == "genesis"):
            raise IntegrityError(f"commit {self.id} is no {kind} commit")
        payload = json_fields(self.payload, f"{kind} commit {self.id}", PAYLOAD_KEYS[kind],
                              IntegrityError)
        if kind != "genesis":
            try:
                TaskSpec.from_dict(payload["task"])
            except FormatError as exc:
                raise IntegrityError(f"{kind} commit {self.id}: {exc}") from exc
        return payload


ReadCommit = Callable[[str], Commit]


def read_genesis(read_commit: ReadCommit, ref: dict) -> dict:
    """The payload of ``ref``'s genesis commit, refused unless it is one; a
    read that does not grow with the history."""
    return read_commit(ref["genesis"]).checked_payload("genesis")


@dataclass(frozen=True)
class Chain:
    """The history the main ref ``ref`` names: its genesis payload and its
    merge payloads, oldest first, each commit read and hash-checked once."""

    ref: dict
    genesis: dict
    merges: tuple[dict, ...]

    @classmethod
    def read(cls, read_commit: ReadCommit, ref: dict) -> "Chain":
        """Walk from ``ref``'s head to its genesis through ``read_commit``,
        which returns the hash-checked commit an id names."""
        merges, commit_id = [], ref["head"]
        while commit_id != ref["genesis"]:
            commit = read_commit(commit_id)
            merges.append(commit.checked_payload("merge"))
            commit_id = commit.parent
        merges.reverse()
        if [p["round"] for p in merges] != list(range(1, len(merges) + 1)):
            raise IntegrityError(f"the main chain does not run rounds 1..{len(merges)}")
        return cls(ref, read_genesis(read_commit, ref), tuple(merges))

    @property
    def head(self) -> dict:
        """The head commit's payload, which names the current item."""
        return self.merges[-1] if self.merges else self.genesis

    @property
    def round(self) -> int:
        return len(self.merges)

    @property
    def strategy(self) -> str:
        """The strategy the genesis commit records."""
        return self.genesis["strategy"]
