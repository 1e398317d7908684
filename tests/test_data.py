"""Tests for dataset generation, batching, splits, and CIFAR-10 file loading."""
from __future__ import annotations

import numpy as np
import pytest

from prunekit.data import (
    BLOBS,
    SHAPES,
    LabeledDataset,
    batches,
    generate_synthetic,
    load_cifar10,
    split,
)
from prunekit.errors import (
    CorruptFile,
    EmptyDataset,
    InvalidConfig,
    LabelOutOfRange,
    MissingFile,
)

# Standard, publicly documented CIFAR-10 channel statistics; restated here so the
# loader's normalisation is checked against an independent computation.
CIFAR_MEAN = np.array([0.4914, 0.4822, 0.4465])
CIFAR_STD = np.array([0.2470, 0.2435, 0.2616])


# -- LabeledDataset container ---------------------------------------------------------


class TestLabeledDataset:
    def test_coerces_dtypes(self):
        ds = LabeledDataset(
            inputs=np.zeros((3, 1, 2, 2), dtype=np.float64),
            labels=np.array([0, 1, 0], dtype=np.int32),
            classes=2,
        )
        assert ds.inputs.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert ds.inputs.flags["C_CONTIGUOUS"]
        assert len(ds) == 3
        assert not ds.dense

    def test_dense_flag_for_pixel_labels(self):
        ds = LabeledDataset(
            inputs=np.zeros((2, 1, 4, 4)), labels=np.zeros((2, 4, 4), dtype=np.int64), classes=1
        )
        assert ds.dense

    def test_count_mismatch_rejected(self):
        with pytest.raises(InvalidConfig):
            LabeledDataset(inputs=np.zeros((3, 1, 2, 2)), labels=np.zeros(2, dtype=np.int64), classes=2)

    def test_label_above_range_rejected(self):
        with pytest.raises(LabelOutOfRange):
            LabeledDataset(inputs=np.zeros((2, 1, 2, 2)), labels=np.array([0, 2]), classes=2)

    def test_negative_label_rejected(self):
        with pytest.raises(LabelOutOfRange):
            LabeledDataset(inputs=np.zeros((2, 1, 2, 2)), labels=np.array([0, -1]), classes=2)

    def test_fingerprint_sensitive_to_values_and_classes(self):
        base = LabeledDataset(inputs=np.zeros((2, 1, 2, 2)), labels=np.array([0, 1]), classes=2)
        same = LabeledDataset(inputs=np.zeros((2, 1, 2, 2)), labels=np.array([0, 1]), classes=2)
        bumped = LabeledDataset(inputs=np.ones((2, 1, 2, 2)), labels=np.array([0, 1]), classes=2)
        wider = LabeledDataset(inputs=np.zeros((2, 1, 2, 2)), labels=np.array([0, 1]), classes=3)
        assert base.fingerprint() == same.fingerprint()
        assert len(base.fingerprint()) == 64
        assert base.fingerprint() != bumped.fingerprint()
        assert base.fingerprint() != wider.fingerprint()

    def test_take_selects_rows_and_renames(self):
        inputs = np.arange(8, dtype=np.float32).reshape(4, 1, 2, 1)
        ds = LabeledDataset(inputs=inputs, labels=np.array([0, 1, 2, 3]), classes=4, name="orig")
        sub = ds.take(np.array([2, 0]), name="sub")
        assert sub.name == "sub"
        assert list(sub.labels) == [2, 0]
        np.testing.assert_array_equal(sub.inputs, inputs[[2, 0]])
        assert ds.take(np.array([1])).name == "orig"


# -- synthetic generators -------------------------------------------------------------


class TestBlobs:
    def test_shape_and_metadata(self):
        ds = generate_synthetic(BLOBS, 12, seed=5)
        assert ds.inputs.shape == (12, 3, 32, 32)
        assert ds.labels.shape == (12,)
        assert ds.classes == 4
        assert ds.name == BLOBS
        assert not ds.dense
        assert set(np.unique(ds.labels)) <= {0, 1, 2, 3}

    def test_custom_size(self):
        ds = generate_synthetic(BLOBS, 4, seed=0, size=16)
        assert ds.inputs.shape == (4, 3, 16, 16)

    def test_deterministic_by_seed(self):
        a = generate_synthetic(BLOBS, 10, seed=7)
        b = generate_synthetic(BLOBS, 10, seed=7)
        c = generate_synthetic(BLOBS, 10, seed=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_quadrant_of_brightest_pixel_predicts_label(self):
        # The class is defined by which quadrant holds the blob, so a trivial
        # argmax probe on the channel-summed image should recover the label
        # almost always despite the additive noise.
        ds = generate_synthetic(BLOBS, 200, seed=11)
        size = ds.inputs.shape[-1]
        hits = 0
        for i in range(len(ds)):
            energy = ds.inputs[i].sum(axis=0)
            y, x = np.unravel_index(np.argmax(energy), energy.shape)
            quadrant = 2 * int(y >= size // 2) + int(x >= size // 2)
            hits += quadrant == int(ds.labels[i])
        assert hits >= 180

    def test_all_classes_present(self):
        ds = generate_synthetic(BLOBS, 64, seed=0)
        assert set(np.unique(ds.labels)) == {0, 1, 2, 3}


class TestShapes:
    def test_shape_and_metadata(self):
        ds = generate_synthetic(SHAPES, 6, seed=3)
        assert ds.inputs.shape == (6, 3, 64, 64)
        assert ds.labels.shape == (6, 64, 64)
        assert ds.classes == 3
        assert ds.name == SHAPES
        assert ds.dense
        assert set(np.unique(ds.labels)) <= {0, 1, 2}

    def test_custom_size(self):
        ds = generate_synthetic(SHAPES, 2, seed=0, size=32)
        assert ds.inputs.shape == (2, 3, 32, 32)
        assert ds.labels.shape == (2, 32, 32)

    def test_deterministic_by_seed(self):
        a = generate_synthetic(SHAPES, 5, seed=2)
        b = generate_synthetic(SHAPES, 5, seed=2)
        c = generate_synthetic(SHAPES, 5, seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_frame_too_small_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic(SHAPES, 1, size=4)

    def test_every_scene_has_foreground(self):
        ds = generate_synthetic(SHAPES, 20, seed=9)
        for i in range(len(ds)):
            assert (ds.labels[i] > 0).any()

    def test_labels_match_painted_colors(self):
        # Labels come from the same geometry that painted the pixels, so the
        # dominant channel under each label class must be the one its painter
        # used: squares (1) are bright in channel 0, disks (2) in channel 1,
        # and background (0) is zero-mean noise.
        ds = generate_synthetic(SHAPES, 20, seed=1)
        square_px = ds.labels == 1
        disk_px = ds.labels == 2
        bg_px = ds.labels == 0
        assert square_px.any() and disk_px.any()
        per_channel = ds.inputs.transpose(1, 0, 2, 3)  # (3, n, h, w)
        sq = per_channel[:, square_px].mean(axis=1)
        dk = per_channel[:, disk_px].mean(axis=1)
        bg = per_channel[:, bg_px].mean(axis=1)
        assert sq[0] > 0.5 and sq[0] > sq[1] and sq[0] > sq[2]
        assert dk[1] > 0.5 and dk[1] > dk[0] and dk[1] > dk[2]
        assert np.all(np.abs(bg) < 0.05)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidConfig):
        generate_synthetic("images-of-cats", 4)


# -- split ----------------------------------------------------------------------------


class TestSplit:
    @staticmethod
    def tagged(n):
        # Row i's pixel value is i, so provenance survives shuffling.
        inputs = np.arange(n, dtype=np.float32).reshape(n, 1, 1, 1)
        return LabeledDataset(inputs=inputs, labels=np.zeros(n, dtype=np.int64), classes=1)

    def test_partition_is_disjoint_and_complete(self):
        ds = self.tagged(10)
        a, b = split(ds, 0.8, seed=4)
        assert len(a) == 8 and len(b) == 2
        ids = np.concatenate([a.inputs.ravel(), b.inputs.ravel()])
        assert sorted(ids.astype(int).tolist()) == list(range(10))
        assert a.name.endswith(":a") and b.name.endswith(":b")

    def test_deterministic_by_seed(self):
        ds = self.tagged(30)
        a1, _ = split(ds, 0.5, seed=3)
        a2, _ = split(ds, 0.5, seed=3)
        a3, _ = split(ds, 0.5, seed=5)
        assert a1.fingerprint() == a2.fingerprint()
        assert a1.fingerprint() != a3.fingerprint()

    def test_split_shuffles(self):
        ds = self.tagged(40)
        a, _ = split(ds, 0.5, seed=0)
        assert sorted(a.inputs.ravel().astype(int).tolist()) != a.inputs.ravel().astype(int).tolist()

    def test_empty_rejected(self):
        empty = LabeledDataset(
            inputs=np.zeros((0, 1, 1, 1)), labels=np.zeros(0, dtype=np.int64), classes=1
        )
        with pytest.raises(EmptyDataset):
            split(empty, 0.5)


# -- batches --------------------------------------------------------------------------


class TestBatches:
    @staticmethod
    def tagged(n):
        inputs = np.arange(n, dtype=np.float32).reshape(n, 1, 1, 1)
        labels = np.arange(n, dtype=np.int64)
        return LabeledDataset(inputs=inputs, labels=labels, classes=n)

    def test_sizes_keep_short_tail(self):
        ds = self.tagged(10)
        sizes = [x.shape[0] for x, _ in batches(ds, 3, seed=0, epoch=0)]
        assert sizes == [3, 3, 3, 1]

    def test_each_sample_exactly_once(self):
        ds = self.tagged(11)
        seen = np.concatenate([y for _, y in batches(ds, 4, seed=2, epoch=1)])
        assert sorted(seen.tolist()) == list(range(11))

    def test_inputs_track_labels(self):
        ds = self.tagged(9)
        for x, y in batches(ds, 2, seed=5, epoch=3):
            np.testing.assert_array_equal(x.ravel().astype(int), y)

    def test_order_is_pure_function_of_seed_and_epoch(self):
        ds = self.tagged(32)
        runs = [
            np.concatenate([y for _, y in batches(ds, 8, seed=1, epoch=2)]) for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])
        other_epoch = np.concatenate([y for _, y in batches(ds, 8, seed=1, epoch=3)])
        other_seed = np.concatenate([y for _, y in batches(ds, 8, seed=9, epoch=2)])
        assert not np.array_equal(runs[0], other_epoch)
        assert not np.array_equal(runs[0], other_seed)

    def test_unshuffled_order_is_identity(self):
        ds = self.tagged(7)
        seen = np.concatenate([y for _, y in batches(ds, 3, shuffle=False)])
        assert seen.tolist() == list(range(7))

    def test_empty_rejected(self):
        empty = LabeledDataset(
            inputs=np.zeros((0, 1, 1, 1)), labels=np.zeros(0, dtype=np.int64), classes=1
        )
        with pytest.raises(EmptyDataset):
            next(batches(empty, 2))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(InvalidConfig):
            next(batches(self.tagged(4), 0))


# -- CIFAR-10 binary loader -----------------------------------------------------------


def write_cifar_dir(root, per_file=4, seed=0, pixel_byte=None):
    """Create a fake CIFAR-10 binary layout; returns labels per file in order."""
    rng = np.random.default_rng(seed)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    all_labels = {}
    for name in names:
        labels = rng.integers(0, 10, size=per_file, dtype=np.uint8)
        if pixel_byte is None:
            pixels = rng.integers(0, 256, size=(per_file, 3072), dtype=np.uint8)
        else:
            pixels = np.full((per_file, 3072), pixel_byte, dtype=np.uint8)
        records = np.concatenate([labels[:, None], pixels], axis=1)
        (root / name).write_bytes(records.tobytes())
        all_labels[name] = labels.astype(np.int64)
    return all_labels


class TestCifar:
    def test_shapes_and_label_order(self, tmp_path):
        labels = write_cifar_dir(tmp_path, per_file=4)
        train, test = load_cifar10(tmp_path)
        assert train.inputs.shape == (20, 3, 32, 32)
        assert test.inputs.shape == (4, 3, 32, 32)
        assert train.classes == 10 and test.classes == 10
        expected_train = np.concatenate(
            [labels[f"data_batch_{i}.bin"] for i in range(1, 6)]
        )
        np.testing.assert_array_equal(train.labels, expected_train)
        np.testing.assert_array_equal(test.labels, labels["test_batch.bin"])

    def test_normalisation_matches_public_statistics(self, tmp_path):
        write_cifar_dir(tmp_path, per_file=2, pixel_byte=128)
        train, _ = load_cifar10(tmp_path)
        expected = (128 / 255.0 - CIFAR_MEAN) / CIFAR_STD
        got = train.inputs.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(got, expected, rtol=1e-5)

    def test_missing_batch_file(self, tmp_path):
        write_cifar_dir(tmp_path)
        (tmp_path / "data_batch_3.bin").unlink()
        with pytest.raises(MissingFile):
            load_cifar10(tmp_path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        write_cifar_dir(tmp_path)
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CorruptFile):
            load_cifar10(tmp_path)

    def test_label_byte_out_of_range(self, tmp_path):
        write_cifar_dir(tmp_path, per_file=2)
        record = bytes([11]) + bytes(3072)
        (tmp_path / "test_batch.bin").write_bytes(record)
        with pytest.raises(LabelOutOfRange):
            load_cifar10(tmp_path)
