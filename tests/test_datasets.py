import re

import numpy as np
import pytest

from forge import datasets as ds
from forge import numerics as nm
from forge.errors import FormatError, InputError


@pytest.fixture(scope="module")
def tasks():
    return ds.generate_tasks(7)


def _per_item_grating(rng, theta, freq, phase, noise_std):
    """One grating, drawn and built on its own: the reference for the block build."""
    u = (ds._XS * np.cos(theta) + ds._YS * np.sin(theta)) / ds.INPUT_SIDE
    img = np.sin(2.0 * np.pi * freq * u + phase)
    img += rng.normal(0.0, noise_std, size=img.shape)
    return img.astype(nm.DTYPE)


def _per_item_rows(rng, pattern, count, noise_std, base_phase=None):
    rows = np.empty((count, ds.INPUT_SIDE * ds.INPUT_SIDE), dtype=nm.DTYPE)
    for i in range(count):
        theta = np.deg2rad(pattern.theta_deg + rng.normal(0.0, pattern.theta_jitter_deg))
        freq = pattern.freq + rng.normal(0.0, pattern.freq_jitter)
        phase = pattern.phase if base_phase is None else base_phase
        phase = phase + rng.normal(0.0, pattern.phase_jitter)
        rows[i] = _per_item_grating(rng, theta, freq, phase, noise_std).reshape(-1)
    return rows


def _per_item_tasks(seed):
    """``generate_tasks`` built one item at a time, as (name, train, test) triples."""
    out = []
    rng = nm.make_rng(nm.derive_seed("task", "B-toy", seed))
    inputs, labels, groups = [], [], []
    for cls, pattern in enumerate(ds.TOY_TASKS["B-toy"].patterns):
        for _ in range(30):
            base_phase = pattern.phase + rng.normal(0.0, 0.25)
            inputs.append(_per_item_rows(rng, pattern, 8, 2.0, base_phase))
            labels.extend([cls] * 8)
            groups.extend([len(groups) // 8] * 8)
    labels, groups = np.array(labels), np.array(groups)
    split = nm.make_rng(nm.derive_seed("split", "B-toy", seed))
    order = split.permutation(60)
    train_groups = set(np.arange(60)[order[:42]].tolist())
    mask = np.array([g in train_groups for g in groups])
    inputs = np.concatenate(inputs)
    out.append(("B-toy", *(ds.LabeledDataset(inputs[m], labels[m], groups[m])
                           for m in (mask, ~mask))))
    for name, noise_std in (("L-toy", 1.5), ("M-toy", 2.2)):
        rng = nm.make_rng(nm.derive_seed("task", name, seed))
        patterns = ds.TOY_TASKS[name].patterns
        inputs = np.concatenate([_per_item_rows(rng, p, 300, noise_std) for p in patterns])
        labels = np.repeat(np.arange(len(patterns)), 300)
        order = nm.make_rng(nm.derive_seed("split", name, seed)).permutation(len(labels))
        n_train = round(len(labels) * 0.7)
        out.append((name, *(ds.LabeledDataset(inputs[idx], labels[idx])
                            for idx in (order[:n_train], order[n_train:]))))
    return out


class TestGeneration:
    def test_same_seed_byte_identical(self):
        a = ds.generate_tasks(3)
        b = ds.generate_tasks(3)
        for (_, tr1, te1), (_, tr2, te2) in zip(a, b):
            assert tr1.inputs.tobytes() == tr2.inputs.tobytes()
            assert te1.inputs.tobytes() == te2.inputs.tobytes()
            assert np.array_equal(tr1.labels, tr2.labels)

    def test_blocks_give_the_per_item_reference_bits(self):
        """Every dataset byte of a block-built task is the per-item build's."""
        for seed in [*range(40), 4101, 6001]:
            for (spec, tr, te), (name, ref_tr, ref_te) in zip(ds.generate_tasks(seed),
                                                              _per_item_tasks(seed)):
                assert spec.name == name
                for got, want in ((tr, ref_tr), (te, ref_te)):
                    assert got.inputs.tobytes() == want.inputs.tobytes(), (seed, name)
                    assert np.array_equal(got.labels, want.labels)
                    if want.group_ids is None:
                        assert got.group_ids is None
                    else:
                        assert np.array_equal(got.group_ids, want.group_ids)

    def test_class_structure_mirrors_reference_tasks(self, tasks):
        specs = [spec for spec, _, _ in tasks]
        assert [s.num_classes for s in specs] == [2, 3, 2]
        assert [s.name for s in specs] == ["B-toy", "L-toy", "M-toy"]

    def test_documented_counts_exact(self, tasks):
        by_name = {spec.name: (spec, tr, te) for spec, tr, te in tasks}
        spec_b, tr_b, te_b = by_name["B-toy"]
        total_b = len(tr_b) + len(te_b)
        assert total_b == 60 * 8
        all_groups = np.concatenate([tr_b.group_ids, te_b.group_ids])
        all_labels = np.concatenate([tr_b.labels, te_b.labels])
        assert len(np.unique(all_groups)) == 60
        for g in np.unique(all_groups):
            assert (all_groups == g).sum() == 8
        assert (all_labels == 0).sum() == 240 and (all_labels == 1).sum() == 240
        _, tr_l, te_l = by_name["L-toy"]
        labels_l = np.concatenate([tr_l.labels, te_l.labels])
        assert len(labels_l) == 900
        assert all((labels_l == c).sum() == 300 for c in range(3))
        _, tr_m, te_m = by_name["M-toy"]
        labels_m = np.concatenate([tr_m.labels, te_m.labels])
        assert len(labels_m) == 600
        assert all((labels_m == c).sum() == 300 for c in range(2))

    def test_linear_probe_separates_each_task(self, tasks):
        for spec, train, test in tasks:
            x = np.concatenate([train.inputs, np.ones((len(train), 1), np.float32)], axis=1)
            y = np.eye(spec.num_classes, dtype=np.float32)[train.labels]
            w, *_ = np.linalg.lstsq(x, y, rcond=None)
            xt = np.concatenate([test.inputs, np.ones((len(test), 1), np.float32)], axis=1)
            acc = float(((xt @ w).argmax(1) == test.labels).mean())
            assert acc > 0.8, f"{spec.name} probe accuracy {acc}"

    def test_inputs_finite_and_shaped(self, tasks):
        for spec, train, test in tasks:
            assert train.inputs.shape[1] == spec.flat_dim
            assert np.all(np.isfinite(train.inputs))
            assert np.all(np.isfinite(test.inputs))


class TestGroupSplit:
    def test_no_group_spans_both_splits(self, tasks):
        _, train, test = tasks[0]
        assert set(train.group_ids.tolist()).isdisjoint(test.group_ids.tolist())

    def test_fraction_of_groups(self):
        _, *splits = ds.generate_tasks(11)[0]
        data = ds.LabeledDataset(*(np.concatenate([getattr(s, field) for s in splits])
                                   for field in ("inputs", "labels", "group_ids")))
        train, test = ds.split_by_group(data, 0.7, nm.make_rng(0))
        n_train_groups = len(np.unique(train.group_ids))
        assert n_train_groups == round(60 * 0.7)

    def test_missing_group_ids_rejected(self):
        data = ds.LabeledDataset(np.zeros((4, 4), np.float32), np.zeros(4, np.int64))
        with pytest.raises(InputError):
            ds.split_by_group(data, 0.7, nm.make_rng(0))

    def test_single_group_warns_and_lands_in_one_split(self):
        data = ds.LabeledDataset(np.zeros((4, 4), np.float32), np.zeros(4, np.int64),
                                 np.zeros(4, np.int64))
        with pytest.warns(UserWarning):
            train, test = ds.split_by_group(data, 0.7, nm.make_rng(0))
        assert (len(train) == 4 and len(test) == 0) or (len(train) == 0 and len(test) == 4)


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path, tasks):
        for spec, train, _ in tasks:
            path = tmp_path / f"{spec.name}.fgd"
            ds.save_dataset(path, spec, train)
            spec2, data2 = ds.load_dataset(path)
            assert spec2 == spec
            assert data2.inputs.tobytes() == train.inputs.tobytes()
            assert np.array_equal(data2.labels, train.labels)
            if train.group_ids is not None:
                assert np.array_equal(data2.group_ids, train.group_ids)
            assert ds.dataset_to_bytes(spec2, data2) == ds.dataset_to_bytes(spec, train)

    def test_truncated_rejected(self, tasks):
        spec, train, _ = tasks[1]
        buf = ds.dataset_to_bytes(spec, train)
        with pytest.raises(FormatError):
            ds.dataset_from_bytes(buf[: len(buf) // 2])

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError):
            ds.dataset_from_bytes(b"JUNKJUNKJUNK")

    def test_version_mismatch_message(self, tasks):
        spec, train, _ = tasks[1]
        buf = bytearray(ds.dataset_to_bytes(spec, train))
        buf[4] = 9
        with pytest.raises(FormatError, match="version"):
            ds.dataset_from_bytes(bytes(buf))

    @pytest.mark.parametrize("bad_label", [2, 7, -1])
    def test_label_outside_classes_rejected(self, tasks, bad_label):
        spec, train, _ = tasks[2]
        labels = train.labels.copy()
        labels[5] = bad_label
        buf = ds.dataset_to_bytes(spec, ds.LabeledDataset(train.inputs, labels))
        with pytest.raises(FormatError, match="labels"):
            ds.dataset_from_bytes(buf)

    def test_input_width_other_than_shape_rejected(self, tasks):
        spec, train, _ = tasks[2]
        narrow = ds.LabeledDataset(train.inputs[:, :200], train.labels)
        with pytest.raises(FormatError, match="shape"):
            ds.dataset_from_bytes(ds.dataset_to_bytes(spec, narrow))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_naming_the_file(self, tmp_path, tasks, bad):
        spec, train, _ = tasks[2]
        inputs = train.inputs.copy()
        inputs[4, 100] = bad
        path = tmp_path / "train.fgd"
        ds.save_dataset(path, spec, ds.LabeledDataset(inputs, train.labels))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: inputs must be finite$"):
            ds.load_dataset(path)
