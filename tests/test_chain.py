"""``forge.chain`` on its own: ``Chain.read`` over a dict of commit bytes,
with no repository, refuses each broken history with the text a repository
command prints for it."""

import hashlib
from collections import Counter

import pytest

from forge.chain import Chain, Commit, hash_checked, read_genesis
from forge.datasets import TaskSpec
from forge.errors import IntegrityError

GENESIS = {"base_seed": 7, "strategy": "mixture", "base_hash": "b" * 64, "item_id": "0" * 64}


def merge_payload(round_no):
    return {"round": round_no, "strategy": "mixture",
            "task": TaskSpec(f"t{round_no}", [f"t{round_no} a", "b"]).to_dict(),
            "plugin_id": f"{round_no:064x}", "distilled_id": f"{round_no + 100:064x}",
            "w_main": 1.0, "w_branch": 0.5, "item_id": f"{round_no + 200:064x}"}


def put(store, parent, kind, payload):
    """Store a commit in ``store`` under the hash of its bytes; returns the id."""
    data = Commit("", parent, "registry", kind, payload).to_bytes()
    commit_id = hashlib.sha256(data).hexdigest()
    store[commit_id] = data
    return commit_id


def history(rounds=(1, 2, 3)):
    """A store holding a genesis commit and a merge commit per round of
    ``rounds``, each the parent of the next, and the ref naming them."""
    store = {}
    genesis = head = put(store, None, "genesis", GENESIS)
    for round_no in rounds:
        head = put(store, head, "merge", merge_payload(round_no))
    return store, {"genesis": genesis, "head": head}


def reader(store, reads=None):
    """``read_commit`` over ``store``, hash-checking as a repository does;
    each id read is counted in ``reads``."""
    def read_commit(commit_id):
        if reads is not None:
            reads[commit_id] += 1
        return Commit.from_bytes(hash_checked(store[commit_id], commit_id), commit_id)
    return read_commit


def test_one_walk_reads_each_commit_once():
    store, ref = history()
    reads = Counter()
    chain = Chain.read(reader(store, reads), ref)
    assert reads == Counter(dict.fromkeys(store, 1))
    assert chain.ref == ref
    assert chain.genesis == GENESIS
    assert chain.merges == tuple(merge_payload(r) for r in (1, 2, 3))
    assert (chain.round, chain.head, chain.strategy) == (3, merge_payload(3), "mixture")


def test_a_genesis_head_is_round_zero():
    store, ref = history(rounds=())
    chain = Chain.read(reader(store), ref)
    assert (chain.round, chain.merges, chain.head) == (0, (), GENESIS)


def test_read_genesis_reads_only_the_genesis():
    store, ref = history()
    reads = Counter()
    assert read_genesis(reader(store, reads), ref) == GENESIS
    assert reads == Counter({ref["genesis"]: 1})


def test_a_skipped_round_is_refused():
    store, ref = history(rounds=(1, 3))
    with pytest.raises(IntegrityError, match=r"^the main chain does not run rounds 1\.\.2$"):
        Chain.read(reader(store), ref)


def test_a_contribution_commit_as_head_is_refused():
    store, ref = history()
    contribution = {key: merge_payload(1)[key] for key in ("task", "plugin_id", "distilled_id")}
    head = put(store, ref["genesis"], "contribution", contribution)
    with pytest.raises(IntegrityError, match=f"^commit {head} is no merge commit$"):
        Chain.read(reader(store), {**ref, "head": head})


def test_a_merge_without_a_parent_is_refused():
    store, ref = history()
    head = put(store, None, "merge", merge_payload(1))
    with pytest.raises(IntegrityError, match=f"^commit {head} is no merge commit$"):
        Chain.read(reader(store), {**ref, "head": head})


def test_a_genesis_as_head_is_refused():
    """A head that is another history's genesis commit is no merge commit, and
    a genesis id that names a merge commit is no genesis commit."""
    store, ref = history()
    other = put(store, None, "genesis", {**GENESIS, "base_seed": 8})
    with pytest.raises(IntegrityError, match=f"^commit {other} is no merge commit$"):
        Chain.read(reader(store), {**ref, "head": other})
    with pytest.raises(IntegrityError, match=f"^commit {ref['head']} is no genesis commit$"):
        Chain.read(reader(store), {**ref, "genesis": ref["head"]})


def test_a_flipped_byte_is_refused_naming_its_commit():
    store, ref = history()
    middle = Commit.from_bytes(store[ref["head"]], ref["head"]).parent
    flipped = bytearray(store[middle])
    flipped[len(flipped) // 2] ^= 0x01
    store[middle] = bytes(flipped)
    with pytest.raises(IntegrityError, match=f"^object {middle} fails its hash check$"):
        Chain.read(reader(store), ref)

