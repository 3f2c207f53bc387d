import hashlib
import json

import pytest

from forge import evaluation
from forge import experiments as xp
from forge import merge as mrg
from forge import model as mdl
from forge.cli import main
from forge.distill import DistillConfig
from forge.merge import CoeffOptimConfig
from forge.model import TrainConfig
from forge.registry import Repository


@pytest.fixture(scope="module")
def fast_settings():
    return xp.ExperimentSettings(
        seeds=(1,),
        train=TrainConfig(epochs=10),
        distill=DistillConfig(iterations=40, ipc=3, eval_iterations=80),
        coeff=CoeffOptimConfig(max_iterations=10))


class TestOrderExperiment:
    def test_matrix_shape_and_summary(self, tmp_path, fast_settings):
        orders = [["B-toy", "L-toy", "M-toy"], ["M-toy", "L-toy", "B-toy"]]
        runs, summary = xp.run_order_experiment(tmp_path, fast_settings,
                                                strategies=("mixture",),
                                                orders=orders)
        assert len(runs) == 2  # 1 strategy x 2 orders x 1 seed
        assert len(summary) == 2
        for row in summary:
            assert 0.0 <= row["avg_acc_mean"] <= 1.0
            assert row["seeds"] == 1
        for report in runs:
            assert set(report.per_task) == {"B-toy", "L-toy", "M-toy"}

    def test_two_strategies_three_orders_three_seeds_bookkeeping(self, tmp_path):
        # 2 strategies x 3 orders x 3 seeds = 18 runs, 6 summary rows
        settings = xp.ExperimentSettings(
            seeds=(1, 2, 3),
            train=TrainConfig(epochs=4),
            distill=DistillConfig(iterations=10, ipc=2, eval_iterations=20),
            coeff=CoeffOptimConfig(max_iterations=6))
        orders = [["B-toy", "L-toy", "M-toy"], ["L-toy", "M-toy", "B-toy"],
                  ["M-toy", "B-toy", "L-toy"]]
        runs, summary = xp.run_order_experiment(tmp_path, settings, orders=orders)
        assert len(runs) == 18
        assert len(summary) == 6
        assert all(row["seeds"] == 3 for row in summary)

    def test_report_file_round_trips(self, tmp_path, fast_settings):
        orders = [["B-toy", "L-toy", "M-toy"]]
        runs, summary = xp.run_order_experiment(tmp_path / "runs", fast_settings,
                                                strategies=("mixture",),
                                                orders=orders)
        path = xp.write_report(tmp_path / "reports", "orders", runs, summary)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {line["kind"] for line in lines}
        assert kinds == {"run", "summary"}

    def test_render_summary_is_table(self, fast_settings):
        summary = [{"strategy": "mixture", "order": "B->L->M",
                    "avg_acc_mean": 0.9, "avg_acc_std": 0.01,
                    "avg_auc_mean": 0.95, "avg_auc_std": 0.02, "seeds": 3}]
        text = xp.render_summary(summary, "strategy")
        assert "mixture" in text and "0.900" in text


class TestBaselineExperiment:
    def test_all_methods_present(self, tmp_path, fast_settings):
        runs, summary = xp.run_baseline_experiment(tmp_path, fast_settings)
        methods = [row["method"] for row in summary]
        assert methods == ["single-task tuning", "distilled only",
                           "lorahub w/o distill", "lorahub w/ distill",
                           "modelsoup", "fusion", "mixture"]
        assert len(runs) == 7  # 7 methods x 1 seed
        by_method = {r["strategy"]: r for r in runs}
        # single-task tuning should be at least as strong as plain averaging
        assert by_method["single-task tuning"]["avg_acc"] >= \
            by_method["modelsoup"]["avg_acc"] - 0.05

    def test_one_temperature_throughout(self, tmp_path, monkeypatch):
        # the training temperature also creates the repositories, drives every
        # coefficient search (LoRAHub's and each merge round's) and scores
        seen = []

        def spy(original):
            def wrapped(*args):
                seen.append(args[-1])
                return original(*args)
            return wrapped

        monkeypatch.setattr(mrg, "guidance_objective", spy(mrg.guidance_objective))
        # every scoring, distilled-only's included, goes through the evaluation module
        monkeypatch.setattr(evaluation, "evaluate_deltas", spy(evaluation.evaluate_deltas))
        settings = xp.ExperimentSettings(
            seeds=(1,), train=TrainConfig(epochs=2, temperature=0.2),
            distill=DistillConfig(iterations=4, ipc=2, eval_iterations=8),
            coeff=CoeffOptimConfig(max_iterations=4))
        xp.run_baseline_experiment(tmp_path, settings)
        for strategy in ("fusion", "mixture"):
            config = json.loads((tmp_path / f"{strategy}-s1" / "forge.json").read_text())
            assert config["temperature"] == 0.2
        # 2 LoRAHub searches and 3 rounds per repository; 3 tasks scored by
        # each of the 7 methods
        assert len(seen) == 2 + 2 * 3 + 3 * 7
        assert set(seen) == {0.2}

    def test_distilled_only_trains_and_scores_with_the_train_settings(self, tmp_path,
                                                                       monkeypatch):
        # only TrainConfig names a learning rate and a temperature; the
        # distilled-only row's adapter trains and scores with them
        trained, scored = [], []
        train_plugin, evaluate_deltas = mdl.train_plugin, evaluation.evaluate_deltas

        def spy_train(*args, iterations=None):
            if iterations is not None:  # eval_distilled's capped run
                trained.append(args[4])
            return train_plugin(*args, iterations=iterations)

        def spy_evaluate(*args):
            scored.append(args[-1])
            return evaluate_deltas(*args)

        monkeypatch.setattr(mdl, "train_plugin", spy_train)
        monkeypatch.setattr(evaluation, "evaluate_deltas", spy_evaluate)
        settings = xp.ExperimentSettings(
            seeds=(1,), train=TrainConfig(epochs=2, learning_rate=0.05, temperature=0.2),
            distill=DistillConfig(iterations=4, ipc=2, eval_iterations=8),
            coeff=CoeffOptimConfig(max_iterations=4))
        xp.run_baseline_experiment(tmp_path, settings)
        assert [(c.learning_rate, c.temperature) for c in trained] == [(0.05, 0.2)] * 3
        # 3 tasks scored by each of the 7 methods, all at the training temperature
        assert scored == [0.2] * 21


def test_cli_pipeline_and_harness_give_the_same_results(tmp_path, capsys):
    # the commands an operator runs and the harness the experiments run share
    # their seed rules, merge and scoring: same artifacts, items and scores
    seed, order = 3, ["B-toy", "L-toy", "M-toy"]
    data = tmp_path / "data"
    assert main(["--seed", str(seed), "gen-data", "--out", str(data)]) == 0
    cli_ids = {}
    for task in order:
        plugin, distilled = tmp_path / f"{task}.fgm", tmp_path / f"{task}.fgd"
        assert main(["--seed", str(seed), "train-branch", "--task", task, "--data", str(data),
                     "--out", str(plugin), "--epochs", "10"]) == 0
        assert main(["--seed", str(seed), "distill", "--task", task, "--data", str(data),
                     "--out", str(distilled), "--ipc", "2", "--iters", "20"]) == 0
        cli_ids[task] = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                              for path in (plugin, distilled))
    base = mdl.BaseEncoder.from_seed(seed)
    artifacts = xp.prepare_branch_artifacts(base, seed, TrainConfig(epochs=10),
                                            DistillConfig(ipc=2, iterations=20))
    assert {name: (hashlib.sha256(art.plugin.to_bytes()).hexdigest(),
                   hashlib.sha256(art.distilled.to_bytes()).hexdigest())
            for name, art in artifacts.items()} == cli_ids

    for strategy in ("fusion", "mixture"):
        repo = tmp_path / strategy
        assert main(["--seed", str(seed), "init", "--strategy", strategy, str(repo)]) == 0
        for task in order:
            assert main(["commit", str(repo), "--plugin", str(tmp_path / f"{task}.fgm"),
                         "--distilled", str(tmp_path / f"{task}.fgd"), "--task", task,
                         "--data", str(data)]) == 0
        assert main(["merge", str(repo), "--all"]) == 0
        capsys.readouterr()
        assert main(["eval", str(repo), "--tasks", ",".join(order), "--data", str(data)]) == 0
        (average,) = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("average:")]

        harness = xp.merge_in_order(tmp_path / f"{strategy}-harness", seed, strategy,
                                    artifacts, order, CoeffOptimConfig(), TrainConfig(epochs=10))
        report = evaluation.evaluate_tasks(base, xp.head_deltas(harness),
                                           xp.task_tests(artifacts), TrainConfig().temperature,
                                           evaluation.MetricsReport(strategy, order, seed))
        records = Repository(repo).merge_records()
        assert [r["item_id"] for r in records] == \
            [r["item_id"] for r in harness.merge_records()]
        assert records[-1]["round"] == 3
        assert any(r["w_branch"] != 0 for r in records)  # not two base models compared
        assert average == f"average: ACC {report.avg_acc:.3f}  AUC {report.avg_auc:.3f} (round 3)"


class TestExperimentCli:
    def test_orders_fast(self, tmp_path, capsys):
        code = main(["experiment", "orders", str(tmp_path / "exp"),
                     "--seeds", "1", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mixture" in out and "fusion" in out
        reports = list((tmp_path / "exp" / "reports" / "orders").glob("*.jsonl"))
        assert len(reports) == 1

    def test_orders_and_baselines_share_a_workdir(self, tmp_path):
        # their repositories have different names, and each kind reports
        # under its own directory
        for kind in ("orders", "baselines"):
            assert main(["experiment", kind, str(tmp_path / "exp"), "--seeds", "1",
                         "--fast"]) == 0
        for kind in ("orders", "baselines"):
            assert len(list((tmp_path / "exp" / "reports" / kind).glob("*.jsonl"))) == 1

    # the last repository each kind creates, as an earlier run of it leaves it
    @pytest.mark.parametrize("kind, used", [("orders", "runs/mixture-M_L_B-s1"),
                                            ("baselines", "runs/mixture-s1")],
                             ids=["orders", "baselines"])
    @pytest.mark.parametrize("runs_is_a_file", [False, True], ids=["used", "file"])
    def test_used_workdir_refused_before_any_training(self, tmp_path, capsys, monkeypatch,
                                                      kind, used, runs_is_a_file):
        steps = []
        monkeypatch.setattr(mdl, "train_plugin", lambda *args, **kwargs: steps.append(args))
        exp = tmp_path / "exp"
        if runs_is_a_file:
            exp.mkdir()
            (exp / "runs").write_text("not a directory")
            expected = "runs exists and is not a directory"
        else:
            (exp / used).mkdir(parents=True)
            (exp / used / "forge.json").write_text("{}")
            expected = f"{used} already exists and is not empty"
        assert main(["experiment", kind, str(exp), "--seeds", "1", "--fast"]) == 2
        assert expected in capsys.readouterr().err
        assert steps == []
        assert not (exp / "reports").exists()

    # --config sets a [distill] key the experiments give their own budget,
    # and --fast, a flag, overrides the file
    @pytest.mark.parametrize("fast, budget", [(False, (3, 500, 300)), (True, (5, 100, 150))],
                             ids=["file", "fast"])
    def test_config_file_sets_the_distill_budget_and_fast_overrides_it(self, tmp_path,
                                                                       monkeypatch, fast,
                                                                       budget):
        seen = []
        monkeypatch.setattr(xp, "run_baseline_experiment",
                            lambda workdir, settings: seen.append(settings.distill) or ([], []))
        (tmp_path / "run.ini").write_text("[distill]\nipc = 3\n")
        argv = ["--config", str(tmp_path / "run.ini"), "experiment", "baselines",
                str(tmp_path / "exp"), "--seeds", "1"]
        assert main(argv + ["--fast"] * fast) == 0
        assert [(d.ipc, d.iterations, d.eval_iterations) for d in seen] == [budget]

    def test_fast_help_lists_every_fast_budget_entry(self, capsys):
        assert main(["experiment", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps its help
        for (section, key), value in xp.FAST_BUDGET.items():
            assert f"[{section}] {key} {value}" in text

    @pytest.mark.parametrize("kind, seeds", [("orders", "0"), ("baselines", "-2")])
    def test_fewer_than_one_seed_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys,
                                                                      kind, seeds):
        assert main(["experiment", kind, str(tmp_path / "exp"), "--seeds", seeds,
                     "--fast"]) == 1
        assert "--seeds must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()
