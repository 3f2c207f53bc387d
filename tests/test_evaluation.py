import numpy as np
import pytest

from forge import datasets as dsets
from forge import evaluation as ev
from forge import experiments as xp
from forge import model
from forge import numerics as nm
from forge.errors import DegenerateInputError, InputError


def brute_force_auc(scores, positives):
    """O(n^2) pair counting; ties count one half."""
    pos = np.flatnonzero(positives)
    neg = np.flatnonzero(~positives)
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_tie_ranks(scores):
    """Tie-averaged 1-based ranks by walking each run of equal sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    return ranks


class TestAccuracy:
    def test_all_correct(self):
        assert ev.accuracy(np.array([1, 0, 2]), np.array([1, 0, 2])) == 1.0

    def test_half_correct(self):
        assert ev.accuracy(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0])) == 0.5

    def test_hand_count_five_of_seven(self):
        preds = np.array([0, 1, 1, 0, 1, 0, 1])
        labels = np.array([0, 1, 1, 0, 1, 1, 0])
        assert ev.accuracy(preds, labels) == pytest.approx(5 / 7)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ev.accuracy(np.array([]), np.array([]))


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert ev.auc(scores, labels) == 1.0

    def test_all_ties_half(self):
        scores = np.ones(6)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert ev.auc(scores, labels) == 0.5

    def test_hand_fixture(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert ev.auc(scores, labels) == pytest.approx(0.75)

    def test_matches_brute_force_with_ties(self):
        rng = nm.make_rng(0)
        for trial in range(50):
            n = int(rng.integers(5, 201))
            scores = np.round(rng.random(n), 2)  # quantized to force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = ev.auc(scores, labels)
            want = brute_force_auc(scores, labels.astype(bool))
            assert got == pytest.approx(want, abs=1e-12)

    def test_tie_ranks_equal_the_run_walk(self):
        rng = nm.make_rng(2)
        for trial in range(300):
            n = int(rng.integers(1, 300))
            scores = rng.normal(size=n)
            if trial % 2:
                scores = np.round(scores, 1)  # many ties
            assert np.array_equal(ev._tie_averaged_ranks(scores), loop_tie_ranks(scores))

    def test_monotone_transform_invariance(self):
        rng = nm.make_rng(1)
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        base_value = ev.auc(scores, labels)
        assert ev.auc(np.exp(scores * 3), labels) == pytest.approx(base_value)
        assert ev.auc(scores * 100 - 5, labels) == pytest.approx(base_value)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            ev.auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_multiclass_macro_matches_brute_force(self):
        rng = nm.make_rng(2)
        for _ in range(10):
            n = 60
            probs = rng.random((n, 3))
            probs /= probs.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            got = ev.auc(probs, labels)
            want = np.mean([brute_force_auc(probs[:, c], labels == c) for c in range(3)])
            assert got == pytest.approx(want, abs=1e-12)

    def test_binary_two_column_uses_positive_class(self):
        rng = nm.make_rng(3)
        p1 = rng.random(40)
        probs = np.stack([1 - p1, p1], axis=1)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        assert ev.auc(probs, labels) == pytest.approx(ev.auc(p1, labels))

    def test_item_permutation_invariance(self):
        rng = nm.make_rng(6)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        preds = rng.integers(0, 2, size=50)
        perm = rng.permutation(50)
        assert ev.auc(scores[perm], labels[perm]) == pytest.approx(ev.auc(scores, labels))
        assert ev.accuracy(preds[perm], labels[perm]) == pytest.approx(
            ev.accuracy(preds, labels))


class TestGroupAggregate:
    def test_singleton_groups_equal_item_softmax(self):
        rng = nm.make_rng(4)
        logits = rng.normal(size=(5, 3))
        groups, probs = ev.group_aggregate(logits, np.arange(5))
        np.testing.assert_allclose(probs, nm.softmax(logits), atol=1e-7)

    def test_opposite_outputs_cancel_to_uniform(self):
        o = np.array([1.0, -2.0, 0.5])
        logits = np.stack([o, -o])
        _, probs = ev.group_aggregate(logits, np.array([7, 7]))
        np.testing.assert_allclose(probs[0], np.ones(3) / 3, atol=1e-7)

    def test_three_item_hand_fixture(self):
        logits = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, -1.0]])
        _, probs = ev.group_aggregate(logits, np.array([0, 0, 0]))
        mean = logits.mean(axis=0)
        want = np.exp(mean - mean.max())
        want /= want.sum()
        np.testing.assert_allclose(probs[0], want, atol=1e-7)

    def test_all_singletons_equal_ungrouped_metrics(self):
        rng = nm.make_rng(5)
        logits = rng.normal(size=(30, 2))
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        acc_g, auc_g = ev.evaluate_logits(logits, labels, np.arange(30))
        acc_u, auc_u = ev.evaluate_logits(logits, labels, None)
        assert acc_g == pytest.approx(acc_u)
        assert auc_g == pytest.approx(auc_u)

    def test_missing_groups_rejected(self):
        with pytest.raises(InputError):
            ev.group_aggregate(np.zeros((3, 2)), None)

    def test_mixed_label_group_rejected(self):
        logits = np.zeros((2, 2))
        with pytest.raises(InputError):
            ev.evaluate_logits(logits, np.array([0, 1]), np.array([5, 5]))


def division_softmax(logits: np.ndarray) -> np.ndarray:
    """The division form of the row softmax: the exponentials of the
    max-shifted float64 logits over their sum, cast to float32."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


class TestOneSoftmax:
    @pytest.mark.parametrize("task", ["B-toy", "M-toy"], ids=["grouped", "ungrouped"])
    def test_trained_logits_score_as_with_the_division_softmax(self, task, monkeypatch):
        # seed 3's toy task, trained for 20 epochs, scored on its test split
        base = model.BaseEncoder.from_seed(3)
        spec, train, test = next(t for t in dsets.generate_tasks(3) if t[0].name == task)
        assert (test.group_ids is not None) == (task == "B-toy")
        plugin = xp.train_branch(base, spec, train, model.TrainConfig(epochs=20), 3)
        logits = model.cosine_logits_np(model.encode_np(base, plugin.layer_deltas(), test.inputs),
                                        xp.table_for(base, spec), model.TrainConfig.temperature)
        got = ev.evaluate_logits(logits, test.labels, test.group_ids)
        monkeypatch.setattr(nm, "softmax", division_softmax)
        assert got == ev.evaluate_logits(logits, test.labels, test.group_ids)
