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
from forge.errors import UsageError


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
    FileNotFoundError: 2, IsADirectoryError: 2, NotADirectoryError: 2, PermissionError: 2,
    RuntimeError: 3,
}


def parse_exit(parser, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits (help or error)."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParser:
    """``main`` builds only the subparser of the command it is given; help,
    errors and parsed values must be those of the full parser."""

    EXITING = [["--help"], ["-h", "init"], ["frobnicate"], [], ["--seed", "3"],
               ["init", "r"], ["--seed", "x", "merge", "r"], ["merge", "r", "--bogus"],
               ["merge", "r", "--all", "--next"], ["--config", "--seed", "eval"],
               ["--seed", "3", "commit", "--help"], ["--author=a", "checkout", "--help"]]

    @pytest.mark.parametrize("argv", EXITING + [[name, "--help"] for name in
                                                cli._COMMANDS])
    def test_help_and_errors_match_the_full_parser(self, argv, capsys):
        lazy = parse_exit(cli._build_parser(cli._named_command(argv)), argv, capsys)
        assert lazy == parse_exit(cli._build_parser(), argv, capsys)

    def test_parsed_values_match_the_full_parser(self):
        argv = ["--seed", "4", "merge", "--author", "ann", "repo", "--next"]
        lazy = cli._build_parser(cli._named_command(argv)).parse_args(argv)
        assert vars(lazy) == vars(cli._build_parser().parse_args(argv))

    def test_command_found_past_global_flags_only(self):
        assert cli._named_command(["--seed", "3", "--config", "c.ini", "merge", "r"]) == "merge"
        assert cli._named_command(["--author=a", "eval"]) == "eval"
        assert cli._named_command(["--seed", "init", "x"]) is None
        assert cli._named_command(["-h", "init"]) is None
        assert cli._named_command(["--se", "3", "init"]) is None
        assert cli._named_command(["frobnicate"]) is None


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        config = RunConfig()
        assert config.get("distill", "ipc") == 20
        assert config.get("distill", "iterations") == 5000
        assert config.get("distill", "eval_iterations") == 1000
        assert config.get("merge", "max_iterations") == 40
        assert config.get("merge", "init_value") == 0.5
        assert config.get("adapter", "rank") == 16

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

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("FORGE_SEED", "77")
        config = RunConfig()
        config.apply_env()
        assert config.seed == 77

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[distill]\ndsa = maybe\n")
        with pytest.raises(UsageError):
            RunConfig.from_file(path)

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
            assert main(["--seed", "5", "distill", "--task", task,
                         "--data", str(data_dir), "--out", str(distilled),
                         "--ipc", "4", "--iters", "40"]) == 0
            assert plugin.is_file() and distilled.is_file()
            meta = json.loads((tmp_path / f"{task}.fgm.meta.json").read_text())
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
            ref = json.loads((repo / "refs" / "main").read_text())
            return ref["round"], ref["item_id"], Path(str(repo) + ".fgi").read_bytes()

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

    def test_poison_contribution_is_two_and_queues_nothing(self, tmp_path, data_dir):
        import numpy as np

        from forge import numerics as nm
        from forge.datasets import load_dataset
        from forge.distill import DistilledDataset
        from forge.model import BaseEncoder, PluginModule

        repo = tmp_path / "repo"
        assert main(["--seed", "5", "init", "--strategy", "mixture", str(repo)]) == 0
        spec, _ = load_dataset(data_dir / "B-toy" / "train.fgd")
        plugin = PluginModule.fresh(BaseEncoder.from_seed(5), 16, 16.0, nm.make_rng(0))
        plugin.adapters[0].b.data[3, 2] = np.nan
        plugin_path = tmp_path / "nan.fgm"
        plugin_path.write_bytes(plugin.to_bytes())
        distilled = DistilledDataset(spec.name, spec.num_classes, 1, spec.input_shape,
                                     np.zeros((spec.num_classes, spec.flat_dim)),
                                     np.arange(spec.num_classes))
        distilled_path = tmp_path / "d.fgd"
        distilled_path.write_bytes(distilled.to_bytes())
        objects_before = sorted((repo / "objects").rglob("*"))
        assert main(["commit", str(repo), "--plugin", str(plugin_path),
                     "--distilled", str(distilled_path), "--task", "B-toy",
                     "--data", str(data_dir)]) == 2
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
        assert json.loads((repo / "refs" / "main").read_text())["round"] == 1
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

    def test_stray_queue_file_is_no_entry_and_entries_merge_by_number(self, tmp_path,
                                                                      data_dir, capsys):
        repo, argv = self.mixture_repo_and_commit_argv(tmp_path, data_dir)
        # names _enqueue never gives, so merging could not unlink them by number
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
        assert sorted((repo / "queue").iterdir()) == sorted(strays)
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

    @pytest.mark.parametrize("error", [*forge_error_classes(), FileNotFoundError,
                                       IsADirectoryError, NotADirectoryError,
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
