import json

import pytest

from forge import cli
from forge.cli import main
from forge.config import DEFAULTS, RunConfig
from forge.errors import UsageError


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["--seed", "5", "gen-data", "--out", str(out)]) == 0
    return out


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
