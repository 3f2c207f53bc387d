import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from forge import cli, errors
from forge.cli import main
from forge.config import DEFAULTS, RunConfig
from forge.distill import DistillConfig
from forge.errors import UsageError
from forge.merge import CoeffOptimConfig
from forge.model import TrainConfig
from forge.registry import Repository


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["--seed", "5", "gen-data", "--out", str(out)]) == 0
    return out


def forge_error_classes() -> list[type]:
    """Every subclass of ForgeError, at any depth, in definition order."""
    found, todo = [], [errors.ForgeError]
    while todo:
        for sub in todo.pop(0).__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


# the code main gives each error a command raises; a new ForgeError subclass
# fails test_exit_code_of_each_error until it is placed here
EXIT_CODES = {
    errors.ShapeError: 2, errors.ParameterError: 2, errors.DegenerateInputError: 2,
    errors.InputError: 2, errors.FormatError: 2, errors.IncompatibleModulesError: 2,
    errors.ValidationError: 2, errors.IntegrityError: 2, errors.ConflictError: 2,
    errors.NothingToMergeError: 0, errors.LockHeldError: 3, errors.UsageError: 1,
    FileNotFoundError: 2, FileExistsError: 2, IsADirectoryError: 2, NotADirectoryError: 2,
    PermissionError: 2, RuntimeError: 3,
}


def parse(parser, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits (help or error); the
    parsed values of one that does not."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err
    return vars(args)


class TestParser:
    """``main`` parses every line with one parser, built on its first call in
    the process; help, errors and parsed values must be those of a freshly
    built parser, whatever that parser parsed before."""

    EXITING = [["--help"], ["-h", "init"], ["frobnicate"], [], ["--seed", "3"],
               ["init", "r"], ["--seed", "x", "merge", "r"], ["merge", "r", "--bogus"],
               ["merge", "r", "--all", "--next"], ["--config", "--seed", "eval"],
               ["--seed", "3", "commit", "--help"], ["--author=a", "checkout", "--help"]]
    HELP = [[name, "--help"] for name in cli._COMMANDS]
    VALUES = ["--seed", "4", "merge", "--author", "ann", "repo", "--next"]

    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", EXITING + HELP)
    def test_help_and_errors_match_the_full_parser(self, argv, capsys):
        fresh = parse(cli._build_parser.__wrapped__(), argv, capsys)
        assert isinstance(fresh, tuple)  # the line exits
        for _ in range(3):
            assert parse(cli._build_parser(), argv, capsys) == fresh

    def test_parsed_values_match_the_full_parser(self, capsys):
        fresh = parse(cli._build_parser.__wrapped__(), self.VALUES, capsys)
        assert fresh["seed"] == 4 and fresh["author"] == "ann" and fresh["next"]
        for _ in range(3):
            assert parse(cli._build_parser(), self.VALUES, capsys) == fresh

    def test_one_parser_reused_in_both_orders(self, capsys):
        lines = self.EXITING + self.HELP + [self.VALUES]
        fresh = [parse(cli._build_parser.__wrapped__(), argv, capsys) for argv in lines]
        reused = cli._build_parser()
        for _ in range(3):
            for order in (slice(None), slice(None, None, -1)):
                for argv, want in zip(lines[order], fresh[order]):
                    assert parse(reused, argv, capsys) == want, argv


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        config = RunConfig()
        assert config.get("distill", "ipc") == 20
        assert config.get("distill", "iterations") == 5000
        assert config.get("distill", "eval_iterations") == 1000
        assert config.get("merge", "max_iterations") == 40
        assert config.get("merge", "init_value") == 0.5
        assert config.get("adapter", "rank") == 16

    def test_defaults_are_the_dataclass_defaults(self):
        config = RunConfig()
        assert config.train_config() == TrainConfig()
        assert config.distill_config() == DistillConfig()
        assert config.coeff_config() == CoeffOptimConfig()

    def test_effective_defaults_serialize_unchanged(self):
        # sidecars carry this object into each contribution commit's hashed
        # training_meta, so a changed byte changes every commit id
        assert json.dumps(RunConfig().effective(), sort_keys=True) == (
            '{"adapter": {"alpha": 16.0, "dropout": 0.1, "rank": 16}, "distill": '
            '{"dsa": true, "eval_iterations": 1000, "init_from_real": false, "ipc": 20, '
            '"iterations": 5000, "syn_lr": 1.0, "syn_lr_final": 0.1}, "merge": '
            '{"box_max": 2.0, "box_min": 0.0, "init_value": 0.5, '
            '"l1_lambda": 0.05, "max_iterations": 40}, "run": {"author": "anon", "seed": 0}, '
            '"train": {"batch_size": 64, "epochs": 100, "learning_rate": 0.01, '
            '"momentum": 0.9, "temperature": 0.07, "weight_decay": 0.0005}}')

    def test_each_key_sets_its_field(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[adapter]\nrank = 4\nalpha = 2\ndropout = 0.3\n"
                        "[train]\nlearning_rate = 0.03\ntemperature = 0.2\n"
                        "[distill]\ndsa = no\nipc = 3\n[merge]\nbox_max = 1.5\n")
        config = RunConfig.from_file(path)
        assert config.train_config() == TrainConfig(rank=4, alpha=2.0, dropout_p=0.3,
                                                    learning_rate=0.03, temperature=0.2)
        assert config.distill_config() == DistillConfig(rank=4, alpha=2.0, dsa_enabled=False,
                                                        ipc=3)
        assert config.coeff_config() == CoeffOptimConfig(box_max=1.5)

    def test_distill_config_ignores_the_train_section(self):
        config = RunConfig()
        config.set("train", "temperature", -1.0)
        assert config.distill_config() == DistillConfig()
        with pytest.raises(errors.ParameterError, match="temperature"):
            config.train_config()

    def test_file_round_trip_and_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nepochs = 7\n[run]\nseed = 123\n")
        config = RunConfig.from_file(path)
        assert config.get("train", "epochs") == 7
        assert config.seed == 123

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nnot_a_knob = 1\n")
        with pytest.raises(UsageError):
            RunConfig.from_file(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(UsageError):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nepochs = 3\n",
                                      "[DEFAULT]\nepochs = 3\n[distill]\nipc = 2\n"],
                             ids=["alone", "with a section"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser's own reading would set nothing from the first file
        # and blame the second's epochs on [distill]
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(UsageError, match=r"^unknown config section \[DEFAULT\]$"):
            RunConfig.from_file(path)
        assert main(["--config", str(path), "gen-data", "--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("FORGE_SEED", "77")
        config = RunConfig()
        config.apply_env()
        assert config.seed == 77

    @pytest.mark.parametrize("section, key, value, expected", [
        ("distill", "dsa", "maybe", "a boolean"), ("train", "epochs", "1.5", "an integer"),
        ("train", "momentum", "high", "a number")], ids=["bool", "int", "float"])
    def test_bad_value_rejected(self, tmp_path, section, key, value, expected):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(UsageError) as caught:
            RunConfig.from_file(path)
        assert str(caught.value) == f"[{section}] {key}: expected {expected}, got {value!r}"

    @pytest.mark.parametrize("text", [
        b"epochs = 7\n", b"[train]\nepochs = 7\nepochs = 8\n",
        b"[train]\nepochs = 7\n[train]\nmomentum = 0.5\n", b"[train]\nepochs\n",
        b"[run]\nauthor = \xff\n",
    ], ids=["no section header", "repeated key", "repeated section", "key without =",
            "not UTF-8"])
    def test_malformed_file_is_a_usage_error(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_bytes(text)
        with pytest.raises(UsageError):
            RunConfig.from_file(path)
        out = tmp_path / "data"
        assert main(["--config", str(path), "gen-data", "--out", str(out)]) == 1
        assert not out.exists()


class TestPipeline:
    def test_full_scripted_pipeline(self, tmp_path, data_dir, capsys):
        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0

        for task in ("B-toy", "L-toy", "M-toy"):
            plugin = tmp_path / f"{task}.fgm"
            distilled = tmp_path / f"{task}.fgd"
            assert main(["--seed", "5", "train-branch", "--task", task,
                         "--data", str(data_dir), "--out", str(plugin),
                         "--epochs", "12"]) == 0
            plugin_id = hashlib.sha256(plugin.read_bytes()).hexdigest()
            assert f"trained plugin {plugin_id[:12]} " in capsys.readouterr().out
            assert main(["--seed", "5", "distill", "--task", task,
                         "--data", str(data_dir), "--out", str(distilled),
                         "--ipc", "4", "--iters", "40"]) == 0
            assert plugin.is_file() and distilled.is_file()
            for path in (plugin, distilled):  # the sidecar names the file's content id
                meta = json.loads(Path(f"{path}.meta.json").read_text())
                assert meta["id"] == hashlib.sha256(path.read_bytes()).hexdigest()
                assert meta["task"] == task
                assert meta["config"]["run"]["seed"] == 5
            assert main(["--seed", "5", "--author", f"branch-{task}", "commit",
                         str(repo), "--plugin", str(plugin),
                         "--distilled", str(distilled), "--task", task,
                         "--data", str(data_dir)]) == 0

        assert main(["merge", str(repo), "--all"]) == 0
        out = capsys.readouterr().out
        assert "round 3" in out

        assert main(["--seed", "5", "eval", str(repo), "--tasks",
                     "B-toy,L-toy,M-toy", "--data", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "average: ACC" in out

        item_path = tmp_path / "item.fgi"
        assert main(["checkout", str(repo), "--round", "1",
                     "--out", str(item_path)]) == 0
        assert item_path.is_file()

        # historical evaluation via --round, and flags after the subcommand
        assert main(["eval", str(repo), "--seed", "5", "--tasks", "B-toy",
                     "--data", str(data_dir), "--round", "1"]) == 0
        out = capsys.readouterr().out
        assert "round 1" in out

    def test_sidecars_record_the_flags_that_ran(self, tmp_path, data_dir):
        """--epochs, --ipc and --iters reach the effective configuration that
        each sidecar and the contribution commit record."""
        repo = tmp_path / "repo"
        plugin, distilled = tmp_path / "p.fgm", tmp_path / "d.fgd"
        assert main(["--seed", "5", "init", "--strategy", "fusion", str(repo)]) == 0
        assert main(["--seed", "5", "train-branch", "--task", "M-toy", "--data",
                     str(data_dir), "--out", str(plugin), "--epochs", "2"]) == 0
        assert main(["--seed", "5", "distill", "--task", "M-toy", "--data", str(data_dir),
                     "--out", str(distilled), "--ipc", "2", "--iters", "3"]) == 0
        plugin_meta = json.loads(Path(f"{plugin}.meta.json").read_text())["config"]
        distilled_meta = json.loads(Path(f"{distilled}.meta.json").read_text())["config"]
        assert plugin_meta["train"]["epochs"] == 2
        assert (distilled_meta["distill"]["ipc"], distilled_meta["distill"]["iterations"]) == \
            (2, 3)
        assert main(["commit", str(repo), "--plugin", str(plugin), "--distilled",
                     str(distilled), "--task", "M-toy", "--data", str(data_dir)]) == 0
        (entry,) = Repository(repo).pending()
        assert Repository(repo).read_commit(entry["commit_id"]).payload["training_meta"] == \
            plugin_meta

    def test_pipeline_runs_with_scipy_unimportable(self, tmp_path, data_dir):
        # the same init, commits, merges and checkout in this process and in
        # one where importing scipy fails must store the same items
        artifacts = []
        for task in ("B-toy", "M-toy"):
            plugin, distilled = tmp_path / f"{task}.fgm", tmp_path / f"{task}.fgd"
            assert main(["--seed", "5", "train-branch", "--task", task, "--data",
                         str(data_dir), "--out", str(plugin), "--epochs", "3"]) == 0
            assert main(["--seed", "5", "distill", "--task", task, "--data", str(data_dir),
                         "--out", str(distilled), "--ipc", "2", "--iters", "10"]) == 0
            artifacts.append((task, plugin, distilled))

        def commands(repo):
            return [["--seed", "5", "init", "--strategy", "fusion", str(repo)],
                    *[["commit", str(repo), "--plugin", str(plugin), "--distilled",
                       str(distilled), "--task", task, "--data", str(data_dir)]
                      for task, plugin, distilled in artifacts],
                    ["merge", str(repo), "--all"],
                    ["checkout", str(repo), "--round", "1", "--out", str(repo) + ".fgi"]]

        def item_ids(repo):
            opened = Repository(repo)
            head = opened.read_commit(opened._read_ref()["head"]).payload
            return head["round"], head["item_id"], Path(str(repo) + ".fgi").read_bytes()

        assert [main(argv) for argv in commands(tmp_path / "here")] == [0] * 5
        script = ("import json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from forge.cli import main\n"
                  "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script,
                              json.dumps(commands(tmp_path / "there"))],
                             env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout.splitlines()[-1]) == [0] * 5
        assert item_ids(tmp_path / "there") == item_ids(tmp_path / "here")
        assert item_ids(tmp_path / "here")[0] == 2

        imported = subprocess.run(
            [sys.executable, "-c", "import sys, forge.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert imported.stdout.strip() == "[]"

    def test_merge_empty_queue_is_notice_not_error(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        assert main(["--seed", "3", "init", "--strategy", "fusion", str(repo)]) == 0
        assert main(["merge", str(repo)]) == 0
        assert "nothing to merge" in capsys.readouterr().out

    def test_eval_is_idempotent_on_repo_state(self, tmp_path, data_dir):
        repo = tmp_path / "repo"
        main(["--seed", "5", "init", "--strategy", "mixture", str(repo)])
        before = sorted(p.relative_to(repo).as_posix()
                        for p in repo.rglob("*") if p.is_file())
        main(["--seed", "5", "eval", str(repo), "--tasks", "B-toy",
              "--data", str(data_dir)])
        after = sorted(p.relative_to(repo).as_posix()
                       for p in repo.rglob("*") if p.is_file())
        assert before == after


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["definitely-not-a-command"]) == 1
        assert main(["init"]) == 1  # missing required arguments

    def test_validation_error_is_two(self, tmp_path, data_dir):
        repo = tmp_path / "repo"
        main(["--seed", "5", "init", "--strategy", "mixture", str(repo)])
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 2
        bogus = tmp_path / "bogus.fgm"
        bogus.write_bytes(b"not a plugin")
        distilled = tmp_path / "d.fgd"
        distilled.write_bytes(b"junk")
        assert main(["commit", str(repo), "--plugin", str(bogus),
                     "--distilled", str(distilled), "--task", "B-toy",
                     "--data", str(data_dir)]) == 2

    def test_divergent_training_is_two_and_writes_nothing(self, tmp_path, data_dir, capsys):
        config, out = tmp_path / "lr.ini", tmp_path / "nan.fgm"
        config.write_text("[train]\nlearning_rate = 1e6\n")
        assert main(["--config", str(config), "--seed", "3", "train-branch", "--task",
                     "M-toy", "--data", str(data_dir), "--out", str(out), "--epochs", "2"]) == 2
        assert sorted(tmp_path.iterdir()) == [config]
        assert capsys.readouterr().err == (
            "error: training diverged to non-finite plugin weights; lower the learning "
            "rate or raise the temperature\n")

    def test_poison_contribution_is_two_and_queues_nothing(self, tmp_path, data_dir, capsys):
        import numpy as np

        from forge import numerics as nm
        from forge.datasets import load_dataset
        from forge.distill import DistilledDataset
        from forge.model import BaseEncoder, PluginModule

        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        spec, _ = load_dataset(data_dir / "B-toy" / "train.fgd")
        plugin = PluginModule.fresh(BaseEncoder.from_seed(5), 16, 16.0, nm.make_rng(0))
        (tmp_path / "ok.fgm").write_bytes(plugin.to_bytes())
        plugin.adapters[0].b[3, 2] = np.nan
        (tmp_path / "nan.fgm").write_bytes(plugin.to_bytes())
        distilled = DistilledDataset(spec.name, spec.num_classes, 1, spec.input_shape,
                                     np.zeros((spec.num_classes, spec.flat_dim)),
                                     np.arange(spec.num_classes))
        (tmp_path / "d.fgd").write_bytes(distilled.to_bytes())
        distilled.ipc = 0  # no item per class: no merge round could ever score it
        distilled.inputs, distilled.labels = distilled.inputs[:0], distilled.labels[:0]
        (tmp_path / "empty.fgd").write_bytes(distilled.to_bytes())
        objects_before = sorted((repo / "objects").rglob("*"))
        for plugin_name, distilled_name, error in [("nan.fgm", "d.fgd", "not finite"),
                                                   ("ok.fgm", "empty.fgd", "one item")]:
            assert main(["commit", str(repo), "--plugin", str(tmp_path / plugin_name),
                         "--distilled", str(tmp_path / distilled_name), "--task", "B-toy",
                         "--data", str(data_dir)]) == 2
            assert error in capsys.readouterr().err
            assert sorted((repo / "objects").rglob("*")) == objects_before
            assert list((repo / "queue").iterdir()) == []

    @pytest.mark.parametrize("sidecar", ["not json {", '{"id": "x", "task": "B-toy"}',
                                         '["config"]', '{"config": 3}'])
    def test_malformed_plugin_sidecar_is_two_and_queues_nothing(self, tmp_path, data_dir,
                                                                sidecar, capsys):
        import numpy as np

        from forge import numerics as nm
        from forge.datasets import load_dataset
        from forge.distill import DistilledDataset
        from forge.model import BaseEncoder, PluginModule

        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        spec, _ = load_dataset(data_dir / "B-toy" / "train.fgd")
        plugin = PluginModule.fresh(BaseEncoder.from_seed(5), 16, 16.0, nm.make_rng(0))
        plugin_path = tmp_path / "p.fgm"
        plugin_path.write_bytes(plugin.to_bytes())
        (tmp_path / "p.fgm.meta.json").write_text(sidecar)
        distilled = DistilledDataset(spec.name, spec.num_classes, 1, spec.input_shape,
                                     np.ones((spec.num_classes, spec.flat_dim)),
                                     np.arange(spec.num_classes))
        distilled_path = tmp_path / "d.fgd"
        distilled_path.write_bytes(distilled.to_bytes())
        assert main(["commit", str(repo), "--plugin", str(plugin_path),
                     "--distilled", str(distilled_path), "--task", "B-toy",
                     "--data", str(data_dir)]) == 2
        assert "p.fgm.meta.json" in capsys.readouterr().err
        assert list((repo / "queue").iterdir()) == []

    def test_sidecar_of_another_plugin_is_two_and_stores_nothing(self, tmp_path, data_dir,
                                                                 capsys):
        """A plugin whose bytes are not the ones its sidecar's id names, as a
        rerun that died between its two writes could leave, is refused."""
        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        for name, epochs in (("a", "1"), ("b", "2")):
            assert main(["--seed", "5", "train-branch", "--task", "M-toy", "--data",
                         str(data_dir), "--out", str(tmp_path / f"{name}.fgm"),
                         "--epochs", epochs]) == 0
        assert main(["--seed", "5", "distill", "--task", "M-toy", "--data", str(data_dir),
                     "--out", str(tmp_path / "d.fgd"), "--ipc", "1", "--iters", "2"]) == 0
        shutil.copy(tmp_path / "b.fgm", tmp_path / "a.fgm")
        objects_before = sorted((repo / "objects").rglob("*"))
        capsys.readouterr()
        assert main(["commit", str(repo), "--plugin", str(tmp_path / "a.fgm"),
                     "--distilled", str(tmp_path / "d.fgd"), "--task", "M-toy",
                     "--data", str(data_dir)]) == 2
        assert "a.fgm.meta.json names plugin" in capsys.readouterr().err
        assert sorted((repo / "objects").rglob("*")) == objects_before
        assert list((repo / "queue").iterdir()) == []

    @pytest.mark.parametrize("manifest", ["not json {", '{"seed": 5}', '{"tasks": 3}',
                                          '["tasks"]'])
    def test_malformed_dataset_manifest_is_two(self, tmp_path, data_dir, manifest, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "manifest.json").write_text(manifest)
        out = tmp_path / "plugin.fgm"
        assert main(["--seed", "5", "train-branch", "--task", "M-toy", "--data", str(data),
                     "--out", str(out), "--epochs", "1"]) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train-branch", "--epochs", "1"],
                                         ["distill", "--ipc", "2", "--iters", "2"]])
    def test_out_of_range_label_in_data_file_is_two(self, tmp_path, data_dir, command):
        import shutil

        from forge import datasets as dsets

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        spec, train = dsets.load_dataset(data / "M-toy" / "train.fgd")
        train.labels[0] = 7
        dsets.save_dataset(data / "M-toy" / "train.fgd", spec, train)
        out = tmp_path / "artifact"
        assert main(["--seed", "5", command[0], "--task", "M-toy", "--data", str(data),
                     "--out", str(out), *command[1:]]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-branch", "eval"])
    def test_zero_row_in_a_data_file_is_two(self, tmp_path, data_dir, command, capsys):
        import shutil

        from forge import datasets as dsets

        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        split = "train" if command == "train-branch" else "test"
        spec, rows = dsets.load_dataset(data / "M-toy" / f"{split}.fgd")
        rows.inputs[0] = 0.0  # embeds to zero under the frozen encoder and a fresh plugin
        dsets.save_dataset(data / "M-toy" / f"{split}.fgd", spec, rows)
        out = tmp_path / "plugin.fgm"
        if command == "train-branch":
            argv = ["train-branch", "--task", "M-toy", "--data", str(data), "--out", str(out),
                    "--epochs", "1"]
        else:
            assert main(["--seed", "5", "init", "--strategy", "mixture",
                         str(tmp_path / "repo")]) == 0
            argv = ["eval", str(tmp_path / "repo"), "--tasks", "M-toy", "--data", str(data)]
        capsys.readouterr()
        assert main(["--seed", "5", *argv]) == 2
        assert "zero-norm" in capsys.readouterr().err
        assert not out.exists()

    def test_fusion_repository_at_an_alpha_float32_cannot_hold(self, tmp_path, data_dir):
        """16.1 is stored as the nearest float32, so an exact comparison with
        the repository's alpha would refuse every plugin trained at it."""
        ini = tmp_path / "alpha.ini"
        ini.write_text("[adapter]\nalpha = 16.1\n[merge]\nmax_iterations = 3\n[run]\nseed = 5\n")
        repo = tmp_path / "repo"
        common = ["--config", str(ini)]
        assert main([*common, "init", "--strategy", "fusion", str(repo)]) == 0
        assert main([*common, "train-branch", "--task", "M-toy", "--data", str(data_dir),
                     "--out", str(tmp_path / "p.fgm"), "--epochs", "1"]) == 0
        assert main([*common, "distill", "--task", "M-toy", "--data", str(data_dir),
                     "--out", str(tmp_path / "d.fgd"), "--ipc", "1", "--iters", "2"]) == 0
        assert main([*common, "commit", str(repo), "--plugin", str(tmp_path / "p.fgm"),
                     "--distilled", str(tmp_path / "d.fgd"), "--task", "M-toy",
                     "--data", str(data_dir)]) == 0
        assert main([*common, "merge", str(repo), "--all"]) == 0
        assert Repository(repo).chain().round == 1
        assert main(["checkout", str(repo), "--round", "1",
                     "--out", str(tmp_path / "item.fgi")]) == 0

    @pytest.mark.parametrize("config", ["not json {", '["format"]'])
    def test_repository_config_not_an_object_is_two(self, tmp_path, config, capsys):
        repo = tmp_path / "repo"
        assert main(["--seed", "3", "init", "--strategy", "fusion", str(repo)]) == 0
        (repo / "forge.json").write_text(config)
        assert main(["merge", str(repo)]) == 2
        assert "forge.json" in capsys.readouterr().err

    def test_init_with_nan_l1_lambda_is_two_and_creates_nothing(self, tmp_path):
        ini = tmp_path / "nan.ini"
        ini.write_text("[merge]\nl1_lambda = nan\n")
        repo = tmp_path / "repo"
        assert main(["--config", str(ini), "init", "--strategy", "fusion", str(repo)]) == 2
        assert not repo.exists()

    def test_init_of_the_empty_working_directory_builds_in_it(self, tmp_path, monkeypatch):
        here = tmp_path / "here"
        here.mkdir()
        inode = here.stat().st_ino
        monkeypatch.chdir(here)
        assert main(["--seed", "3", "init", "--strategy", "fusion", "."]) == 0
        assert here.stat().st_ino == inode  # the directory a shell may sit in is kept
        assert sorted(os.listdir(".")) == ["forge.json", "locks", "log", "objects",
                                           "queue", "refs"]
        Repository(".").replay()

    @pytest.mark.parametrize("setting", ["[adapter]\nrank = 0\n", "[train]\ntemperature = 0\n",
                                         "[adapter]\nalpha = inf\n"],
                             ids=["rank 0", "temperature 0", "alpha inf"])
    def test_init_of_a_repository_that_could_not_merge_is_two_and_creates_nothing(
            self, tmp_path, setting, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(setting)
        repo = tmp_path / "repo"
        assert main(["--config", str(ini), "init", "--strategy", "fusion", str(repo)]) == 2
        assert setting.split()[1] in capsys.readouterr().err
        assert not repo.exists()

    @pytest.mark.parametrize("command, setting", [
        ("distill", "[adapter]\nrank = 0\n"), ("train-branch", "[train]\ntemperature = 0\n"),
        ("distill", "[distill]\nsyn_lr = nan\n"), ("distill", "[adapter]\nalpha = nan\n"),
        ("train-branch", "[train]\nlearning_rate = inf\n")],
        ids=["distill rank 0", "train temperature 0", "distill syn_lr nan",
             "distill alpha nan", "train learning_rate inf"])
    def test_bad_setting_is_two_before_the_first_step(self, tmp_path, data_dir, command,
                                                      setting, monkeypatch, capsys):
        from forge import model

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(model, "encode", no_step)
        ini = tmp_path / "bad.ini"
        ini.write_text(setting)
        out = tmp_path / "artifact"
        assert main(["--config", str(ini), "--seed", "5", command, "--task", "M-toy",
                     "--data", str(data_dir), "--out", str(out)]) == 2
        assert setting.split()[1] in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def mixture_repo_and_commit_argv(tmp_path, data_dir):
        """A fresh mixture repository, and the argv of a commit of a fresh
        plugin with a one-item-per-class distilled set of B-toy to it."""
        import numpy as np

        from forge import numerics as nm
        from forge.datasets import load_dataset
        from forge.distill import DistilledDataset
        from forge.model import BaseEncoder, PluginModule

        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        spec, _ = load_dataset(data_dir / "B-toy" / "train.fgd")
        plugin = PluginModule.fresh(BaseEncoder.from_seed(5), 16, 16.0, nm.make_rng(0))
        (tmp_path / "p.fgm").write_bytes(plugin.to_bytes())
        (tmp_path / "d.fgd").write_bytes(DistilledDataset(
            spec.name, spec.num_classes, 1, spec.input_shape,
            np.ones((spec.num_classes, spec.flat_dim)), np.arange(spec.num_classes)).to_bytes())
        return repo, ["commit", str(repo), "--plugin", str(tmp_path / "p.fgm"), "--distilled",
                      str(tmp_path / "d.fgd"), "--task", "B-toy", "--data", str(data_dir)]

    def test_commit_behind_a_malformed_queue_entry_is_zero(self, tmp_path, data_dir, capsys):
        repo, argv = self.mixture_repo_and_commit_argv(tmp_path, data_dir)
        assert main(argv) == 0
        (repo / "queue" / "000001.json").write_text("{")
        capsys.readouterr()
        assert main(argv) == 0
        assert "(2 pending)" in capsys.readouterr().out
        assert sorted(p.name for p in (repo / "queue").iterdir()) == ["000001.json",
                                                                       "000002.json"]
        assert main(["merge", str(repo)]) == 2
        assert "000001.json" in capsys.readouterr().err

    def test_drain_stopped_by_a_lost_object_reports_the_rounds_it_merged(self, tmp_path,
                                                                          data_dir, capsys):
        from forge import numerics as nm
        from forge.model import BaseEncoder, PluginModule

        repo, argv = self.mixture_repo_and_commit_argv(tmp_path, data_dir)
        commits, plugins = [], []
        for seed in (1, 2, 3):  # three contributions, each with its own plugin object
            plugin = PluginModule.fresh(BaseEncoder.from_seed(5), 16, 16.0, nm.make_rng(seed))
            (tmp_path / "p.fgm").write_bytes(plugin.to_bytes())
            assert main(argv) == 0
            commits.append(capsys.readouterr().out.split()[1])
            plugins.append(hashlib.sha256(plugin.to_bytes()).hexdigest())
        (repo / "objects" / plugins[2][:2] / plugins[2][2:]).unlink()
        assert main(["merge", str(repo), "--all"]) == 2
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in out.splitlines()] == ["round 1", "round 2"]
        assert err.startswith("error: stopped at queue entry 3 (contribution commit "
                              f"{commits[2]}") and plugins[2] in err
        assert Repository(repo).chain().round == 2

    def test_stray_queue_file_is_no_entry_and_entries_merge_by_number(self, tmp_path,
                                                                      data_dir, capsys):
        repo, argv = self.mixture_repo_and_commit_argv(tmp_path, data_dir)
        # names _enqueue never gives, so none is an entry
        strays = [repo / "queue" / name for name in ("notes.json", "7.json", "0000008.json")]
        for stray in strays:
            stray.write_text("kept by hand")
        capsys.readouterr()
        committed = []
        for author in ("first", "second"):
            assert main(["--author", author, *argv]) == 0
            out = capsys.readouterr().out
            assert f"({len(committed) + 1} pending)" in out
            committed.append(out.split()[1])
            if author == "first":  # the next entry is 1000000, which sorts first as a string
                (repo / "queue" / "000001.json").rename(repo / "queue" / "999999.json")
        assert sorted(p.name for p in (repo / "queue").iterdir()) == [
            "0000008.json", "1000000.json", "7.json", "999999.json", "notes.json"]
        assert main(["merge", str(repo), "--all"]) == 0
        merged = [json.loads(line)["contribution_commit"][:12]
                  for line in (repo / "log" / "merges.jsonl").read_text().splitlines()]
        assert merged == committed
        # each merged entry stays, at or below the main ref's cursor
        assert sorted((repo / "queue").iterdir()) == sorted(
            [*strays, repo / "queue" / "999999.json", repo / "queue" / "1000000.json"])
        assert all(stray.read_text() == "kept by hand" for stray in strays)

    def test_runtime_error_is_three(self, tmp_path):
        # missing repo directory surfaces as a validation-or-runtime failure
        code = main(["merge", str(tmp_path / "missing-repo")])
        assert code in (2, 3)

    def test_ipc_default_matches_reference(self):
        assert DEFAULTS["distill"]["ipc"] == 20

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nwhatever = 3\n")
        assert main(["--config", str(bad), "gen-data", "--out",
                     str(tmp_path / "x")]) == 1

    def test_gen_data_into_a_regular_file_is_two_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "occupied"
        out.write_text("kept")
        assert main(["--seed", "3", "gen-data", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert out.read_text() == "kept"
        assert [p.name for p in tmp_path.iterdir()] == ["occupied"]

    def test_allow_negative_is_no_config_key(self, tmp_path, capsys):
        # the search box is [box_min, box_max]; a symmetric box is box_min = -box_max
        bad = tmp_path / "bad.ini"
        bad.write_text("[merge]\nallow_negative = true\n")
        assert main(["--config", str(bad), "init", "--strategy", "mixture",
                     str(tmp_path / "repo")]) == 1
        assert "unknown config key [merge] allow_negative" in capsys.readouterr().err
        assert not (tmp_path / "repo").exists()

    @pytest.mark.parametrize("error", [*forge_error_classes(), FileNotFoundError,
                                       FileExistsError, IsADirectoryError, NotADirectoryError,
                                       PermissionError, RuntimeError],
                             ids=lambda error: error.__name__)
    def test_exit_code_of_each_error(self, error, monkeypatch):
        def fail(args, config):
            raise error("raised by the command")

        assert error in EXIT_CODES, f"give {error.__name__} its exit code in EXIT_CODES"
        monkeypatch.setitem(cli._COMMANDS, "merge", (fail, "merge pending contributions"))
        assert main(["merge", "repo"]) == EXIT_CODES[error]

    @staticmethod
    def data_copy(tmp_path, data_dir, *ignore):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data, ignore=shutil.ignore_patterns(*ignore))
        return data

    @pytest.mark.parametrize("command", [["train-branch", "--epochs", "1"],
                                         ["distill", "--ipc", "2", "--iters", "2"]])
    def test_train_and_distill_need_no_test_split(self, tmp_path, data_dir, command):
        data = self.data_copy(tmp_path, data_dir, "test.fgd")
        out = tmp_path / "artifact"
        assert main(["--seed", "5", command[0], "--task", "M-toy", "--data", str(data),
                     "--out", str(out), *command[1:]]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["train-branch", "distill", "eval"])
    def test_split_with_a_nan_pixel_is_two_before_any_step(self, tmp_path, data_dir, command,
                                                           capsys, monkeypatch):
        import numpy as np

        from forge import datasets as dsets
        from forge import numerics as nm

        data = self.data_copy(tmp_path, data_dir)
        split = data / "M-toy" / ("test.fgd" if command == "eval" else "train.fgd")
        spec, rows = dsets.load_dataset(split)
        rows.inputs[3, 17] = np.nan
        dsets.save_dataset(split, spec, rows)
        out = tmp_path / "artifact"
        argv = {"train-branch": ["train-branch", "--task", "M-toy", "--out", str(out)],
                "distill": ["distill", "--task", "M-toy", "--out", str(out), "--iters", "300"],
                "eval": ["eval", str(tmp_path / "repo"), "--tasks", "M-toy"]}[command]
        if command == "eval":
            assert main(["--seed", "5", "init", "--strategy", "mixture",
                         str(tmp_path / "repo")]) == 0
        steps = []
        monkeypatch.setattr(nm, "sgd_step", lambda *args: steps.append(args))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["--seed", "5", *argv, "--data", str(data)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {split}: inputs must be finite\n"
        assert steps == [] and sorted(tmp_path.rglob("*")) == before

    def test_commit_needs_only_the_manifest(self, tmp_path, data_dir):
        repo, argv = self.mixture_repo_and_commit_argv(tmp_path, data_dir)
        assert main(argv) == 0
        manifest_only = self.data_copy(tmp_path, data_dir, "*.fgd")
        argv[argv.index("--data") + 1] = str(manifest_only)
        assert main(argv) == 0
        queued = [json.loads(p.read_text())["commit_id"]
                  for p in sorted((repo / "queue").iterdir())]
        assert len(queued) == 2 and queued[0] == queued[1]

    @pytest.mark.parametrize("field, value", [("input_shape", ["a", "b"]),
                                              ("input_shape", [784]), ("input_shape", [0, 28]),
                                              ("input_shape", [True, 28]), ("labels", [1, 2])])
    def test_commit_refuses_a_malformed_manifest_entry(self, tmp_path, data_dir, field,
                                                       value, capsys):
        repo, argv = self.mixture_repo_and_commit_argv(tmp_path, data_dir)
        data = self.data_copy(tmp_path, data_dir, "*.fgd")
        doc = json.loads((data / "manifest.json").read_text())
        doc["tasks"]["B-toy"][field] = value
        (data / "manifest.json").write_text(json.dumps(doc))
        argv[argv.index("--data") + 1] = str(data)
        capsys.readouterr()
        assert main(argv) == 2
        assert "task spec 'B-toy'" in capsys.readouterr().err
        assert list((repo / "queue").iterdir()) == []

    def test_eval_without_its_test_split_is_two(self, tmp_path, data_dir, capsys):
        data = self.data_copy(tmp_path, data_dir, "test.fgd")
        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        capsys.readouterr()
        assert main(["eval", str(repo), "--tasks", "M-toy", "--data", str(data)]) == 2
        assert "test.fgd" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-branch", "eval"])
    def test_split_files_whose_labels_differ_from_the_manifest_are_two(
            self, tmp_path, data_dir, command, capsys):
        from forge import datasets as dsets

        data = self.data_copy(tmp_path, data_dir)
        for split in ("train", "test"):  # the two files agree with each other
            spec, rows = dsets.load_dataset(data / "M-toy" / f"{split}.fgd")
            spec.labels.reverse()
            dsets.save_dataset(data / "M-toy" / f"{split}.fgd", spec, rows)
        out = tmp_path / "plugin.fgm"
        if command == "train-branch":
            argv = ["train-branch", "--task", "M-toy", "--out", str(out), "--epochs", "1"]
        else:
            assert main(["--seed", "5", "init", "--strategy", "mixture",
                         str(tmp_path / "repo")]) == 0
            argv = ["eval", str(tmp_path / "repo"), "--tasks", "M-toy"]
        capsys.readouterr()
        assert main(["--seed", "5", *argv, "--data", str(data)]) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tasks", ["M-toy,M-toy", "B-toy,M-toy,B-toy"])
    def test_eval_of_a_task_named_twice_is_one_before_any_split_is_read(
            self, tmp_path, data_dir, capsys, monkeypatch, tasks):
        from forge import datasets as dsets

        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        loads = []
        load_dataset = dsets.load_dataset
        monkeypatch.setattr(dsets, "load_dataset",
                            lambda path: loads.append(path) or load_dataset(path))
        capsys.readouterr()
        assert main(["eval", str(repo), "--tasks", tasks, "--data", str(data_dir)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "more than once" in out.err
        assert loads == []

    @pytest.mark.parametrize("tasks", ["M-toy,", "M-toy,Z-toy"])
    def test_eval_with_an_unknown_task_prints_no_score(self, tmp_path, data_dir, capsys, tasks):
        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        capsys.readouterr()
        assert main(["eval", str(repo), "--tasks", tasks, "--data", str(data_dir)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "unknown task" in out.err

    def test_manifest_entry_under_another_tasks_name_is_two(self, tmp_path, data_dir, capsys):
        # the report keys its scores by the spec's name, so two names for one
        # task would be scored as one
        data = self.data_copy(tmp_path, data_dir)
        shutil.copytree(data / "M-toy", data / "X-toy")
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["tasks"]["X-toy"] = manifest["tasks"]["M-toy"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        capsys.readouterr()
        assert main(["eval", str(repo), "--tasks", "X-toy,M-toy", "--data", str(data)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "lists task 'X-toy' as 'M-toy'" in out.err
