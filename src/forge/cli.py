"""Operator command surface.

    forge gen-data --seed S --out DIR
    forge init --strategy {fusion|mixture} --seed S REPO
    forge train-branch --task T --data DIR --out plugin.fgm
    forge distill --task T --data DIR --ipc N --iters E --out distilled.fgd
    forge commit REPO --plugin P --distilled D --task T --data DIR
    forge merge REPO [--all | --next]
    forge eval REPO --tasks A,B --data DIR [--round K]
    forge experiment {orders|baselines} WORKDIR [--fast]
    forge checkout REPO --round K --out item.fgi

Exit codes: 0 success or an empty queue; 1 usage; 2 any other ForgeError or a
path that cannot be opened; 3 a merge lock held by another merge, or a
runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import datasets as dsets
from . import experiments as xp
from . import model as mdl
from . import numerics as nm
from .config import RunConfig, SEED_ENV_VAR
from .distill import DistilledDataset
from .errors import (
    ForgeError,
    FormatError,
    InputError,
    LockHeldError,
    NothingToMergeError,
    UsageError,
    ValidationError,
)
from .evaluation import MetricsReport, evaluate_tasks
from .evaluation import evaluate_deltas  # noqa: F401 - perfbench/tracing.py patches this name
from .model import PluginModule
from .registry import BranchContribution, Repository


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built on the first call and reused by every later
    call in the process: a parse leaves the parser as it found it."""
    # global flags work both before and after the subcommand; the SUPPRESS
    # defaults stop the subparser from clobbering values parsed at top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="INI config file; flags override it")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"global seed (or {SEED_ENV_VAR})")
    common.add_argument("--author", default=argparse.SUPPRESS,
                        help="contributor tag for commits")

    parser = argparse.ArgumentParser(
        prog="forge",
        description="asynchronous adapter merging with distilled-data guidance")
    parser.set_defaults(config=None, seed=None, author=None)
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--seed", type=int, help=f"global seed (or {SEED_ENV_VAR})")
    parser.add_argument("--author", help="contributor tag for commits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_arguments(name, sub.add_parser(name, parents=[common],
                                            help=_COMMANDS[name][1]))
    return parser


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    if command == "gen-data":
        p.add_argument("--out", required=True)
    elif command == "init":
        p.add_argument("repo")
        p.add_argument("--strategy", choices=("fusion", "mixture"), required=True)
    elif command == "train-branch":
        p.add_argument("--task", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--epochs", type=int)
    elif command == "distill":
        p.add_argument("--task", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--ipc", type=int)
        p.add_argument("--iters", type=int)
    elif command == "commit":
        p.add_argument("repo")
        p.add_argument("--plugin", required=True)
        p.add_argument("--distilled", required=True)
        p.add_argument("--task", required=True)
        p.add_argument("--data", required=True)
    elif command == "merge":
        p.add_argument("repo")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--all", action="store_true")
        group.add_argument("--next", action="store_true")
    elif command == "eval":
        p.add_argument("repo")
        p.add_argument("--tasks", required=True, help="comma-separated task names")
        p.add_argument("--data", required=True)
        p.add_argument("--round", type=int, default=None)
    elif command == "experiment":
        p.add_argument("kind", choices=("orders", "baselines"))
        p.add_argument("workdir")
        p.add_argument("--seeds", type=int, default=3, help="number of seeds")
        p.add_argument("--fast", action="store_true", help="smoke-run budgets over --config: " +
                       ", ".join(f"[{s}] {k} {v}" for (s, k), v in xp.FAST_BUDGET.items()))
    elif command == "checkout":
        p.add_argument("repo")
        p.add_argument("--round", type=int, required=True)
        p.add_argument("--out", required=True)


def _load_run_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    config.apply_env()
    if args.seed is not None:
        config.set("run", "seed", args.seed)
    if args.author is not None:
        config.set("run", "author", args.author)
    return config


def _task_spec(data_dir: str, task: str) -> dsets.TaskSpec:
    """``task``'s spec as the manifest of ``data_dir`` gives it."""
    manifest = Path(data_dir) / "manifest.json"
    tasks = nm.json_object(manifest.read_bytes(), str(manifest), {"tasks": dict},
                           InputError)["tasks"]
    if task not in tasks:
        raise InputError(f"unknown task {task!r}; have {sorted(tasks)}")
    spec = dsets.TaskSpec.from_dict(tasks[task])
    if spec.name != task:
        raise FormatError(f"{manifest} lists task {task!r} as {spec.name!r}")
    return spec


def _load_split(data_dir: str, task: str, split: str) -> tuple[dsets.TaskSpec,
                                                              dsets.LabeledDataset]:
    """``task``'s spec and its ``split`` rows; the split file must hold the
    task as the manifest gives it."""
    spec = _task_spec(data_dir, task)
    path = Path(data_dir) / task / f"{split}.fgd"
    file_spec, rows = dsets.load_dataset(path)
    if file_spec != spec:
        raise FormatError(f"{path} does not hold task {task!r} as manifest.json gives it")
    return spec, rows


def _write_artifact(out_path: str, data: bytes, task: str, config: RunConfig) -> str:
    """Write the ``.meta.json`` sidecar of ``data``, then ``data``; returns the
    content id, the sha256 of ``data``. A crash between the two leaves a
    sidecar whose id the old artifact does not have, which ``commit`` refuses."""
    artifact_id = hashlib.sha256(data).hexdigest()
    meta = {"id": artifact_id, "task": task, "config": config.effective()}
    nm.write_file(out_path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True).encode())
    nm.write_file(out_path, data)
    return artifact_id


def _cmd_gen_data(args, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed
    tasks = dsets.generate_tasks(seed)
    manifest = {"seed": seed, "config": config.effective(), "tasks": {}}
    for spec, train, test in tasks:
        task_dir = out / spec.name
        task_dir.mkdir(exist_ok=True)
        dsets.save_dataset(task_dir / "train.fgd", spec, train)
        dsets.save_dataset(task_dir / "test.fgd", spec, test)
        manifest["tasks"][spec.name] = spec.to_dict()
        print(f"{spec.name}: {len(train)} train / {len(test)} test items")
    nm.write_file(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode())
    return 0


def _cmd_init(args, config: RunConfig) -> int:
    repo = Repository.init(args.repo, config.seed, args.strategy,
                           rank=config.get("adapter", "rank"),
                           alpha=config.get("adapter", "alpha"),
                           temperature=config.get("train", "temperature"),
                           coeff=config.coeff_config(),
                           extra_config=config.effective())
    print(f"initialized {args.strategy} repository at {repo.root}")
    return 0


def _cmd_train_branch(args, config: RunConfig) -> int:
    spec, train = _load_split(args.data, args.task, "train")
    if args.epochs is not None:
        config.set("train", "epochs", args.epochs)
    plugin = xp.train_branch(mdl.BaseEncoder.from_seed(config.seed), spec, train,
                             config.train_config(), config.seed)
    plugin_id = _write_artifact(args.out, plugin.to_bytes(), spec.name, config)
    print(f"trained plugin {plugin_id[:12]} for {spec.name} -> {args.out}")
    return 0


def _cmd_distill(args, config: RunConfig) -> int:
    spec, train = _load_split(args.data, args.task, "train")
    for key, value in (("ipc", args.ipc), ("iterations", args.iters)):
        if value is not None:
            config.set("distill", key, value)
    distilled = xp.distill_branch(mdl.BaseEncoder.from_seed(config.seed), spec, train,
                                  config.distill_config(), config.seed)
    _write_artifact(args.out, distilled.to_bytes(), spec.name, config)
    print(f"distilled {distilled.ipc}/class for {spec.name} -> {args.out}")
    return 0


def _training_meta(meta_path: Path, plugin: bytes, config: RunConfig) -> dict:
    """The ``config`` of the sidecar of the plugin whose bytes are ``plugin``,
    refused unless the sidecar's ``id`` is their sha256; this run's effective
    config when there is no sidecar."""
    if not meta_path.is_file():
        return config.effective()
    meta = nm.json_object(meta_path.read_bytes(), str(meta_path), {"id": str, "config": dict},
                          ValidationError)
    plugin_id = hashlib.sha256(plugin).hexdigest()
    if meta["id"] != plugin_id:
        raise ValidationError(f"{meta_path} names plugin {meta['id']!r}, not {plugin_id}")
    return meta["config"]


def _cmd_commit(args, config: RunConfig) -> int:
    repo = Repository(args.repo)
    spec = _task_spec(args.data, args.task)
    plugin_bytes = Path(args.plugin).read_bytes()
    plugin = PluginModule.from_bytes(plugin_bytes)
    distilled = DistilledDataset.from_bytes(Path(args.distilled).read_bytes())
    commit = repo.commit_contribution(BranchContribution(
        spec, plugin, distilled, author=config.author,
        training_meta=_training_meta(Path(args.plugin + ".meta.json"), plugin_bytes, config)))
    # counted, not parsed: a bad earlier entry is the next merge's to report
    queued = len(repo.queued_paths())
    print(f"committed {commit.id[:12]} for {spec.name} ({queued} pending)")
    return 0


def _cmd_merge(args, config: RunConfig) -> int:
    """Merge the next round (``--next``) or every queued one, printing each
    round as it commits; a drain's error names the queue entry it stopped on."""
    repo = Repository(args.repo)
    merged = 0
    while not (args.next and merged):
        try:
            record = repo.merge_next()
        except NothingToMergeError:
            break
        except ForgeError as exc:
            entry = None if args.next else repo.queue_head()  # an unreadable one names itself
            if entry is None:
                raise
            raise type(exc)(f"stopped at queue entry {entry['seq']} (contribution commit "
                            f"{entry['commit_id']}): {exc}") from exc
        print(f"round {record['round']}: merged {record['task']['name']} "
              f"(w={record['w_main']:.3f}, w'={record['w_branch']:.3f}, "
              f"objective {record['objective']:.4f})", flush=True)
        merged += 1
    if not merged:
        print("nothing to merge")
    return 0


def _cmd_eval(args, config: RunConfig) -> int:
    tasks = args.tasks.split(",")
    if len(set(tasks)) < len(tasks):  # the average would count a repeated task once
        raise UsageError(f"--tasks names a task more than once: {args.tasks}")
    repo = Repository(args.repo)
    chain = repo.chain()  # the one read of the history this command makes
    item = repo.checkout(chain.round if args.round is None else args.round, chain)
    # every split is read before any is scored, so a bad one leaves no output
    splits = [_load_split(args.data, task, "test") for task in tasks]
    report = evaluate_tasks(repo.base_of(chain.genesis), item.deltas(), splits,
                            repo.config["temperature"],
                            MetricsReport(chain.strategy, tasks, config.seed))
    for task, metrics in report.per_task.items():
        print(f"{task}: ACC {metrics['acc']:.3f}  AUC {metrics['auc']:.3f}")
    print(f"average: ACC {report.avg_acc:.3f}  AUC {report.avg_auc:.3f} "
          f"(round {item.round})")
    return 0


def _cmd_experiment(args, config: RunConfig) -> int:
    if args.seeds < 1:  # no seed would leave a report of no rows, or of NaN ones
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    # the experiments' distill budget where the file is silent, then --fast's
    # budgets over everything; the settings are then built once, from config
    for key, value in xp.DISTILL_BUDGET.items():
        if ("distill", key) not in config.given:
            config.set("distill", key, value)
    for (section, key), value in xp.FAST_BUDGET.items() if args.fast else ():
        config.set(section, key, value)
    settings = xp.ExperimentSettings(tuple(range(1, args.seeds + 1)), config.train_config(),
                                     config.distill_config(), config.coeff_config())
    workdir = Path(args.workdir)
    if args.kind == "orders":
        runs, summary = xp.run_order_experiment(workdir / "runs", settings)
        label_key = "strategy"
    else:
        runs, summary = xp.run_baseline_experiment(workdir / "runs", settings)
        label_key = "method"
    path = xp.write_report(workdir / "reports", args.kind, runs, summary)
    print(xp.render_summary(summary, label_key))
    print(f"report written to {path}")
    return 0


def _cmd_checkout(args, config: RunConfig) -> int:
    repo = Repository(args.repo)
    item = repo.checkout(args.round)
    nm.write_file(args.out, item.to_bytes())
    print(f"checked out round {args.round} -> {args.out}")
    return 0


_COMMANDS = {  # name: (handler, help), in the order help lists them
    "gen-data": (_cmd_gen_data, "write the seeded synthetic tasks"),
    "init": (_cmd_init, "create a repository"),
    "train-branch": (_cmd_train_branch, "train a plugin module on one task"),
    "distill": (_cmd_distill, "distill one task's training data"),
    "commit": (_cmd_commit, "push a plugin + distilled set"),
    "merge": (_cmd_merge, "merge pending contributions"),
    "eval": (_cmd_eval, "evaluate the main branch on tasks"),
    "experiment": (_cmd_experiment, "run a comparison experiment"),
    "checkout": (_cmd_checkout, "materialize a historical forge item"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # None parses sys.argv[1:]
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _load_run_config(args)
        return _COMMANDS[args.command][0](args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NothingToMergeError:
        print("nothing to merge")
        return 0
    except LockHeldError as exc:  # another merge holds the lock: retry, not a bad input
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except (ForgeError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:  # a bad input or path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
