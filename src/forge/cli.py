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

Exit codes: 0 success, 1 usage, 2 validation/integrity, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datasets as dsets
from . import distill as dst
from . import experiments as xp
from . import model as mdl
from . import numerics as nm
from .config import RunConfig, SEED_ENV_VAR
from .distill import DistilledDataset
from .errors import (
    ConflictError,
    DegenerateInputError,
    FormatError,
    IncompatibleModulesError,
    InputError,
    IntegrityError,
    NothingToMergeError,
    ParameterError,
    ShapeError,
    UsageError,
    ValidationError,
)
from .evaluation import MetricsReport, evaluate_deltas
from .model import PluginModule
from .registry import BranchContribution, Repository

_VALIDATION_ERRORS = (ValidationError, IntegrityError, FormatError, InputError, ParameterError,
                      ShapeError, ConflictError, IncompatibleModulesError, DegenerateInputError)


_GLOBAL_VALUE_FLAGS = ("--config", "--seed", "--author")


def _named_command(argv: list[str]) -> str | None:
    """The subcommand of ``argv`` when only global flags with their values
    come before it; None otherwise (help, unknown flags or commands)."""
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _GLOBAL_VALUE_FLAGS:
            i += 2
        elif arg.partition("=")[0] in _GLOBAL_VALUE_FLAGS:  # --seed=3
            i += 1
        else:
            return arg if arg in _COMMANDS else None
    return None


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one with only ``command``'s subparser: the same
    parse, help and errors for a line that names that command."""
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
    # the metavar keeps every command in the usage line of a one-command parser
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
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
        p.add_argument("--fast", action="store_true",
                       help="reduced budgets for smoke runs")
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


def _load_task(data_dir: str, task: str) -> tuple[dsets.TaskSpec, dsets.LabeledDataset,
                                                  dsets.LabeledDataset]:
    root = Path(data_dir)
    manifest = root / "manifest.json"
    if not manifest.is_file():
        raise InputError(f"no dataset manifest under {root}")
    doc = nm.json_object(manifest.read_bytes(), str(manifest), {"tasks": dict}, InputError)
    if task not in doc["tasks"]:
        raise InputError(f"unknown task {task!r}; have {sorted(doc['tasks'])}")
    spec_train, train = dsets.load_dataset(root / task / "train.fgd")
    spec_test, test = dsets.load_dataset(root / task / "test.fgd")
    if spec_train.to_dict() != spec_test.to_dict():
        raise FormatError(f"train/test specs disagree for {task}")
    return spec_train, train, test


def _write_sidecar(out_path: Path, artifact_id: str, task: str,
                   config: RunConfig) -> None:
    meta = {"id": artifact_id, "task": task, "config": config.effective()}
    Path(str(out_path) + ".meta.json").write_text(json.dumps(meta, indent=2,
                                                             sort_keys=True))


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
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
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
    spec, train, _ = _load_task(args.data, args.task)
    overrides = {} if args.epochs is None else {"epochs": args.epochs}
    train_cfg = config.train_config(**overrides)
    base = mdl.BaseEncoder.from_seed(config.seed)
    rng = nm.make_rng(nm.derive_seed("train", spec.name, config.seed))
    plugin = xp.train_branch(base, spec, train, train_cfg, rng)
    Path(args.out).write_bytes(plugin.to_bytes())
    _write_sidecar(Path(args.out), plugin.content_id(), spec.name, config)
    print(f"trained plugin {plugin.content_id()[:12]} for {spec.name} -> {args.out}")
    return 0


def _cmd_distill(args, config: RunConfig) -> int:
    spec, train, _ = _load_task(args.data, args.task)
    overrides = {}
    if args.ipc is not None:
        overrides["ipc"] = args.ipc
    if args.iters is not None:
        overrides["iterations"] = args.iters
    distill_cfg = config.distill_config(**overrides)
    base = mdl.BaseEncoder.from_seed(config.seed)
    rng = nm.make_rng(nm.derive_seed("distill", spec.name, config.seed))
    distilled = dst.distill(spec, train, base, distill_cfg, rng)
    Path(args.out).write_bytes(distilled.to_bytes())
    _write_sidecar(Path(args.out), distilled.content_id(), spec.name, config)
    print(f"distilled {distilled.ipc}/class for {spec.name} -> {args.out}")
    return 0


def _training_meta(meta_path: Path, config: RunConfig) -> dict:
    """The ``config`` of a plugin's sidecar, or this run's effective config without one."""
    if not meta_path.is_file():
        return config.effective()
    return nm.json_object(meta_path.read_bytes(), str(meta_path), {"config": dict},
                          ValidationError)["config"]


def _cmd_commit(args, config: RunConfig) -> int:
    repo = Repository(args.repo)
    spec, _, _ = _load_task(args.data, args.task)
    plugin = PluginModule.from_bytes(Path(args.plugin).read_bytes())
    distilled = DistilledDataset.from_bytes(Path(args.distilled).read_bytes())
    commit = repo.commit_contribution(BranchContribution(
        spec, plugin, distilled, author=config.author,
        training_meta=_training_meta(Path(args.plugin + ".meta.json"), config)))
    # counted, not parsed: a bad earlier entry is the next merge's to report
    queued = len(repo.queued_paths())
    print(f"committed {commit.id[:12]} for {spec.name} ({queued} pending)")
    return 0


def _cmd_merge(args, config: RunConfig) -> int:
    repo = Repository(args.repo)
    if repo.queue_head() is None:
        print("nothing to merge")
        return 0
    records = repo.merge_all() if (args.all or not args.next) else [repo.merge_next()]
    for record in records:
        print(f"round {record['round']}: merged {record['task']['name']} "
              f"(w={record['w_main']:.3f}, w'={record['w_branch']:.3f}, "
              f"objective {record['objective']:.4f})")
    return 0


def _cmd_eval(args, config: RunConfig) -> int:
    repo = Repository(args.repo)
    item = repo.current_item() if args.round is None else repo.checkout(args.round)
    deltas = item.deltas()
    report = MetricsReport(repo.strategy, args.tasks.split(","), config.seed)
    for task in args.tasks.split(","):
        spec, _, test = _load_task(args.data, task)
        table = mdl.LabelEmbeddingTable(spec.name, spec.labels, repo.base.embed_dim)
        acc, auc_value = evaluate_deltas(repo.base, deltas, table, test,
                                         repo.config["temperature"])
        report.add(task, acc, auc_value)
        print(f"{task}: ACC {acc:.3f}  AUC {auc_value:.3f}")
    print(f"average: ACC {report.avg_acc:.3f}  AUC {report.avg_auc:.3f} "
          f"(round {item.round})")
    return 0


def _cmd_experiment(args, config: RunConfig) -> int:
    seeds = tuple(range(1, args.seeds + 1))
    if args.fast:
        settings = xp.ExperimentSettings(
            seeds=seeds,
            train=config.train_config(epochs=20),
            distill=config.distill_config(iterations=100, ipc=5, eval_iterations=150),
            coeff=config.coeff_config(max_iterations=12))
    else:
        settings = xp.ExperimentSettings(
            seeds=seeds,
            train=config.train_config(),
            distill=config.distill_config(iterations=500, ipc=10,
                                          eval_iterations=300),
            coeff=config.coeff_config())
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
    Path(args.out).write_bytes(item.to_bytes())
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
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(_named_command(argv))
    try:
        args = parser.parse_args(argv)
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
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
