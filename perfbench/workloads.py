"""The benchmark workloads.

Each workload runs as a sequence of cycles in one process, with one closed-loop
caller. A cycle has an untimed set-up, a timed body and output checks; its
inputs come only from the cycle seed. Contributors and operators act through
``forge.cli.main``, as they would from a shell; the audits use the library.
Operations are recorded into a ``Recorder`` wherever the workload performs
them, so every end-to-end metric is measured from real operations of the kind
it names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from forge import cli
from forge import datasets as ds
from forge import distill as dst
from forge import evaluation as ev
from forge import numerics as nm
from forge.datasets import LabeledDataset, TaskSpec
from forge.distill import DistillConfig, DistilledDataset
from forge.model import BaseEncoder, LabelEmbeddingTable, TrainConfig
from forge.registry import Repository
from tracing import CLI_COMMANDS

STRATEGIES = ("fusion", "mixture")
TASKS = ("B-toy", "L-toy", "M-toy")


class CheckFailed(Exception):
    """An output of forge did not match what the benchmark expects."""


@dataclass
class Recorder:
    """Operations attempted and failed, timing samples and work rates.

    A failed operation adds no sample, so it counts as missing every timing.
    Rate entries carry their cycle index so warm-up cycles can be left out.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    rates: dict[str, list[tuple[int, float, float]]] = field(default_factory=dict)
    content_ids: dict[str, str] = field(default_factory=dict)
    cycle: int = 0

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def rate(self, key: str, work: float, seconds: float) -> None:
        self.rates.setdefault(key, []).append((self.cycle, work, seconds))

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"cycle {self.cycle}: {what}: {type(exc).__name__}: {exc}")

    def timed(self, what: str, fn, *args):
        """Run one operation; returns (result, seconds), or (None, None) on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            self.fail(what, exc)
            return None, None
        return result, time.perf_counter() - start

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, CheckFailed(detail))


# ---------------------------------------------------------------------------
# helpers shared by the workloads
# ---------------------------------------------------------------------------


def run_cli(tracer, argv: list[str]) -> str:
    """``forge.cli.main`` in-process; returns stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(argv)
        else:
            command = next(a for a in argv if a in CLI_COMMANDS)
            code = tracer.call(f"cli.{command}", cli.main, argv)
    if code != 0:
        raise RuntimeError(f"forge {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


@dataclass
class Forge:
    """The ``forge`` command of one cycle; each call is a timed operation that
    returns (stdout, seconds), or (None, None) when it fails."""

    rec: Recorder
    tracer: object
    seed: int
    config: Path | None = None

    def __call__(self, *argv: str, author: str | None = None):
        flags = ["--seed", str(self.seed)]
        if self.config is not None:
            flags += ["--config", str(self.config)]
        if author is not None:
            flags += ["--author", author]
        return self.rec.timed(argv[0], run_cli, self.tracer, [*flags, *argv])


def write_config(path: Path, sections: dict[str, dict]) -> Path:
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()))
    return path


def check_merge_records(rec: Recorder, repo: Repository, records: list[dict]) -> None:
    """Each round's search stays in budget and never ends worse than its start."""
    budget = repo.config["coeff"]["max_iterations"]
    for record in records:
        trace = record["trace"]
        rec.check("search budget", 1 <= len(trace) <= budget,
                  f"round {record['round']} evaluated {len(trace)} points, budget {budget}")
        rec.check("search monotone", bool(trace) and record["objective"] <= trace[0]["value"],
                  f"round {record['round']} best {record['objective']} worse than start")


def check_history(rec: Recorder, repo: Repository, key: str) -> None:
    """Replay against the main ref, verify every object, keep the content id."""
    def audit():
        item = repo.replay()
        return item, repo.verify_objects()

    result, seconds = rec.timed("replay", audit)
    if result is None:
        return
    item, checked = result
    rec.sample("replay_s", seconds)
    stored = sum(1 for p in (repo.root / "objects").glob("*/*") if not p.name.startswith("."))
    rec.check("verify_objects", checked == stored, f"checked {checked} of {stored} objects")
    item_id = hashlib.sha256(item.to_bytes()).hexdigest()
    if key in rec.content_ids:  # the same cycle seed ran before in this run
        rec.check("content id", rec.content_ids[key] == item_id,
                  f"{key}: {item_id}, earlier in this run {rec.content_ids[key]}")
    rec.content_ids[key] = item_id


def checkout(rec: Recorder, forge: Forge, repo_dir: Path, rounds, out_dir: Path) -> dict:
    """``forge checkout`` of each round; returns the files written, by round."""
    files = {}
    for r in rounds:
        path = out_dir / f"{repo_dir.name}-round-{r}.fgi"
        _, seconds = forge("checkout", str(repo_dir), "--round", str(r), "--out", str(path))
        if seconds is not None:
            rec.sample("checkout_ms", seconds * 1e3)
            files[r] = path
    return files


def check_checkouts(rec: Recorder, repo: Repository, files: dict) -> None:
    records = repo.merge_records()
    for r, path in files.items():
        rec.check("checkout output", hashlib.sha256(path.read_bytes()).hexdigest()
                  == records[r - 1]["item_id"], f"round {r} file does not match the log")


def check_eval(rec: Recorder, repo: Repository, printed: str | None,
               tests: list[tuple[TaskSpec, LabeledDataset]], round_no: int | None = None):
    """``forge eval`` prints three decimals: recompute its average from the
    item it evaluated, compare, and keep the full-precision value."""
    item = repo.current_item() if round_no is None else repo.checkout(round_no)
    deltas, base = item.deltas(), repo.base
    acc = float(np.mean([ev.evaluate_deltas(
        base, deltas, LabelEmbeddingTable(spec.name, spec.labels, base.embed_dim), test,
        repo.config["temperature"])[0] for spec, test in tests]))
    lines = [line for line in (printed or "").splitlines() if line.startswith("average:")]
    rec.check("eval output", len(lines) == 1 and abs(float(lines[0].split()[2]) - acc) < 6e-4,
              f"printed {lines}, recomputed {acc:.4f}")
    rec.sample("merged_acc", acc)


def score_distilled(rec: Recorder, base: BaseEncoder, distilled_path: Path, spec: TaskSpec,
                    test: LabeledDataset, eval_iterations: int, seed: int) -> None:
    """Train a fresh adapter on the distilled set alone and score the test set."""
    def score():
        distilled = DistilledDataset.from_bytes(distilled_path.read_bytes())
        rng = nm.make_rng(nm.derive_seed("perfbench-eval-distilled", spec.name, seed))
        return dst.eval_distilled(distilled, base, spec, test,
                                  DistillConfig(eval_iterations=eval_iterations), rng)

    scores, _ = rec.timed("eval_distilled", score)
    if scores is not None:
        rec.sample("distilled_acc", scores["acc"])


def load_tasks(data: Path) -> dict[str, tuple[TaskSpec, LabeledDataset, LabeledDataset]]:
    out = {}
    for task in TASKS:
        spec, train = ds.load_dataset(data / task / "train.fgd")
        _, test = ds.load_dataset(data / task / "test.fgd")
        out[task] = (spec, train, test)
    return out


@dataclass
class Contributor:
    """One contributor: a task of its own, its data directory and artifacts."""

    spec: TaskSpec
    data: Path
    plugin: Path
    distilled: Path
    author: str


def train_and_distill(rec: Recorder, forge: Forge, c: Contributor, n_train: int,
                      epochs: int, ipc: int, iters: int) -> None:
    """``forge train-branch`` and ``forge distill`` for one contributor, with rates."""
    _, seconds = forge("train-branch", "--task", c.spec.name, "--data", str(c.data),
                       "--out", str(c.plugin), "--epochs", str(epochs))
    if seconds is not None:
        steps = epochs * math.ceil(n_train / TrainConfig().batch_size)
        rec.rate("train_steps", steps, seconds)
    _, seconds = forge("distill", "--task", c.spec.name, "--data", str(c.data),
                       "--out", str(c.distilled), "--ipc", str(ipc), "--iters", str(iters))
    if seconds is not None:
        rec.rate("distill_iters", iters, seconds)


def contributors(rec: Recorder, forge: Forge, work: Path, count: int, epochs: int,
                 iters: int, ipc: int, eval_iterations: int):
    """``forge gen-data``, then ``count`` contributors, each with its own task name
    and half of a toy task's training set in a private data directory, running
    train-branch and distill; the first contributor of each toy task also scores
    its distilled set. Returns the contributors and the toy tasks."""
    data, private = work / "data", work / "private"
    forge("gen-data", "--out", str(data))
    tasks = load_tasks(data)
    out, manifest = [], {}
    for k in range(count):
        spec0, train0, test0 = tasks[TASKS[k % len(TASKS)]]
        spec = TaskSpec(f"{spec0.name}-{k:02d}", spec0.labels, spec0.input_shape,
                        spec0.grouped)
        rng = nm.make_rng(nm.derive_seed("perfbench-contributor", forge.seed, k))
        take = np.sort(rng.choice(len(train0), size=len(train0) // 2, replace=False))
        task_dir = private / spec.name
        task_dir.mkdir(parents=True)
        for split, rows in (("train", take), ("test", np.arange(16))):
            source = train0 if split == "train" else test0
            groups = None if source.group_ids is None else source.group_ids[rows]
            ds.save_dataset(task_dir / f"{split}.fgd", spec, LabeledDataset(
                source.inputs[rows], source.labels[rows], groups, split))
        manifest[spec.name] = spec.to_dict()
        out.append(Contributor(spec, private, work / f"{spec.name}.fgm",
                               work / f"{spec.name}.fgd", f"contributor-{k:02d}"))
    (private / "manifest.json").write_text(json.dumps({"tasks": manifest}))
    base = BaseEncoder.from_seed(forge.seed)
    for k, c in enumerate(out):
        spec0, train0, test0 = tasks[TASKS[k % len(TASKS)]]
        train_and_distill(rec, forge, c, len(train0) // 2, epochs, ipc, iters)
        if k < len(TASKS):
            score_distilled(rec, base, c.distilled, spec0, test0, eval_iterations, forge.seed)
    return out, tasks


def commit(forge: Forge, repo_dir: Path, c: Contributor):
    return forge("commit", str(repo_dir), "--plugin", str(c.plugin),
                 "--distilled", str(c.distilled), "--task", c.spec.name,
                 "--data", str(c.data), author=c.author)


# distilled sets of a few iterations stay informative when they start from real rows
FEW_ITERATIONS = {"distill": {"init_from_real": "true"}}


# ---------------------------------------------------------------------------
# contribute: the README pipeline
# ---------------------------------------------------------------------------


class Contribute:
    """gen-data, init of a fusion and a mixture repository, train-branch /
    distill / commit to both per task, merge --all, eval, checkout of every
    round, and eval_distilled per task."""

    name = "contribute"
    cycle_seconds = 3.4
    epochs = 20
    ipc = 10
    iters = 150
    eval_iterations = 100

    def setup(self, rec, seed, workdir, tracer):
        # the tasks gen-data must write, used to check its output
        return {"seed": seed, "workdir": workdir, "expected": ds.generate_tasks(seed),
                "base": BaseEncoder.from_seed(seed)}

    def body(self, rec, state, tracer):
        forge = Forge(rec, tracer, state["seed"])
        work = state["workdir"]
        data = work / "data"
        repos = {s: work / s for s in STRATEGIES}
        forge("gen-data", "--out", str(data))
        for strategy, repo_dir in repos.items():
            forge("init", "--strategy", strategy, str(repo_dir))
        for spec, train, _ in state["expected"]:
            c = Contributor(spec, data, work / f"{spec.name}.fgm", work / f"{spec.name}.fgd",
                            f"branch-{spec.name}")
            train_and_distill(rec, forge, c, len(train), self.epochs, self.ipc, self.iters)
            for repo_dir in repos.values():
                _, seconds = commit(forge, repo_dir, c)
                if seconds is not None:
                    rec.sample("commit_ms", seconds * 1e3)
        state["merge_start"], state["eval_out"], state["checkouts"] = {}, {}, {}
        for strategy, repo_dir in repos.items():
            state["merge_start"][strategy] = time.time()
            forge("merge", str(repo_dir), "--all")
            state["eval_out"][strategy], _ = forge(
                "eval", str(repo_dir), "--tasks", ",".join(TASKS), "--data", str(data))
            state["checkouts"][strategy] = checkout(rec, forge, repo_dir,
                                                    range(1, len(TASKS) + 1), work)
        for spec, _, _ in state["expected"]:
            spec_, test = ds.load_dataset(data / spec.name / "test.fgd")
            score_distilled(rec, state["base"], work / f"{spec.name}.fgd", spec_, test,
                            self.eval_iterations, state["seed"])

    def check(self, rec, state):
        work = state["workdir"]
        for spec, train, test in state["expected"]:
            for split, want in (("train", train), ("test", test)):
                got_spec, got = ds.load_dataset(work / "data" / spec.name / f"{split}.fgd")
                rec.check("gen-data output", got_spec.to_dict() == spec.to_dict()
                          and np.array_equal(got.inputs, want.inputs)
                          and np.array_equal(got.labels, want.labels),
                          f"{spec.name}/{split} differs from generate_tasks")
        tests = [(spec, test) for spec, _, test in state["expected"]]
        for strategy in STRATEGIES:
            repo = Repository(work / strategy)
            records = repo.merge_records()
            rec.check("merge rounds", [r["round"] for r in records] == [1, 2, 3],
                      f"{strategy} rounds {[r['round'] for r in records]}")
            check_merge_records(rec, repo, records)
            # merge --all logs a timestamp as each round completes
            previous = state["merge_start"][strategy]
            for record in records:
                rec.sample("merge_round_ms", (record["timestamp"] - previous) * 1e3)
                previous = record["timestamp"]
            check_checkouts(rec, repo, state["checkouts"][strategy])
            check_eval(rec, repo, state["eval_out"][strategy], tests)
            check_history(rec, repo, f"{self.name}/{state['seed']}/{strategy}")


# ---------------------------------------------------------------------------
# merge-deep: one merge --next at a time over a deep history
# ---------------------------------------------------------------------------


class MergeDeep:
    """Set-up: ``depth`` contributors each train and distill a task of their own
    and commit it to a fresh fusion and a fresh mixture repository. The body
    runs ``forge merge --next`` round by round on both; the checks replay and
    verify both and check out every round."""

    name = "merge-deep"
    cycle_seconds = 7.2
    depth = 24
    epochs = 5
    iters = 8
    ipc = 10
    eval_iterations = 50

    def setup(self, rec, seed, workdir, tracer):
        forge = Forge(rec, tracer, seed, write_config(workdir / "run.ini", FEW_ITERATIONS))
        people, tasks = contributors(rec, forge, workdir, self.depth, self.epochs,
                                     self.iters, self.ipc, self.eval_iterations)
        repos = {s: workdir / s for s in STRATEGIES}
        for strategy, repo_dir in repos.items():
            forge("init", "--strategy", strategy, str(repo_dir))
            for c in people:
                _, seconds = commit(forge, repo_dir, c)
                if seconds is not None:
                    rec.sample("commit_ms", seconds * 1e3)
        return {"seed": seed, "workdir": workdir, "forge": forge, "repos": repos,
                "tasks": tasks}

    def body(self, rec, state, tracer):
        for _ in range(self.depth):
            for repo_dir in state["repos"].values():
                _, seconds = state["forge"]("merge", str(repo_dir), "--next")
                if seconds is not None:
                    rec.sample("merge_round_ms", seconds * 1e3)

    def check(self, rec, state):
        forge, work = state["forge"], state["workdir"]
        tests = [(spec, test) for spec, _, test in state["tasks"].values()]
        for strategy, repo_dir in state["repos"].items():
            repo = Repository(repo_dir)
            records = repo.merge_records()
            rec.check("merge rounds", [r["round"] for r in records]
                      == list(range(1, self.depth + 1)), f"{strategy} rounds")
            check_merge_records(rec, repo, records)
            check_history(rec, repo, f"{self.name}/{state['seed']}/{strategy}")
            files = checkout(rec, forge, repo_dir, range(1, self.depth + 1), work)
            check_checkouts(rec, repo, files)
            printed, _ = forge("eval", str(repo_dir), "--tasks", ",".join(TASKS),
                               "--data", str(work / "data"))
            check_eval(rec, repo, printed, tests)


WORKLOADS = {w.name: w for w in (Contribute(), MergeDeep())}
