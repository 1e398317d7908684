"""Datasets: deterministic synthetic generators, CIFAR-10 loading, batching.

Everything here is reproducible from a seed: generators derive all randomness
from ``numpy``'s seeded generators, and batch shuffling is a pure function of
(seed, epoch), so interrupted training can replay the exact same batch
sequence after a restore.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CorruptFile, EmptyDataset, InvalidConfig, LabelOutOfRange, MissingFile

BLOBS = "blobs-classify"
SHAPES = "shapes-segment"

# Standard per-channel statistics for CIFAR-10 normalisation.
_CIFAR_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
_CIFAR_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)
_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


@dataclass
class LabeledDataset:
    """Channels-first float32 inputs with integer labels.

    ``labels`` is ``(n,)`` for classification or ``(n, h, w)`` for dense
    per-pixel targets.
    """

    inputs: np.ndarray
    labels: np.ndarray
    classes: int
    name: str = ""

    def __post_init__(self) -> None:
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InvalidConfig(
                f"{self.inputs.shape[0]} inputs but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise LabelOutOfRange(
                f"labels outside [0, {self.classes}): "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def dense(self) -> bool:
        return self.labels.ndim > 1

    def fingerprint(self) -> str:
        """Content hash covering values, shapes and dtypes."""
        h = hashlib.sha256()
        for arr in (self.inputs, self.labels):
            h.update(str(arr.shape).encode())
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
        h.update(str(self.classes).encode())
        return h.hexdigest()

    def take(self, indices: np.ndarray, name: str | None = None) -> "LabeledDataset":
        return LabeledDataset(
            inputs=self.inputs[indices],
            labels=self.labels[indices],
            classes=self.classes,
            name=self.name if name is None else name,
        )


def split(dataset: LabeledDataset, fraction: float, seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic shuffled split; the first part holds ``fraction``."""
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    cut = int(round(n * fraction))
    perm = np.random.default_rng(seed).permutation(n)
    return (
        dataset.take(perm[:cut], name=dataset.name + ":a"),
        dataset.take(perm[cut:], name=dataset.name + ":b"),
    )


def batches(
    dataset: LabeledDataset, batch_size: int, seed: int = 0, epoch: int = 0, shuffle: bool = True
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(inputs, labels)`` batches; the final short batch is kept.

    The shuffle order depends only on ``(seed, epoch)``, never on generator
    state, so epoch k of a resumed run sees exactly the batches the original
    run would have.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("cannot batch an empty dataset")
    if batch_size < 1:
        raise InvalidConfig(f"batch size must be >= 1, got {batch_size}")
    order = (
        np.random.default_rng((seed, epoch)).permutation(n) if shuffle else np.arange(n)
    )
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield dataset.inputs[idx], dataset.labels[idx]


# -- synthetic generators ----------------------------------------------------------


def generate_synthetic(kind: str, n: int, seed: int = 0, size: int | None = None) -> LabeledDataset:
    """Procedurally generated, perfectly labeled datasets.

    ``blobs-classify``: 3-channel images containing one soft Gaussian blob;
    the class is the quadrant holding the blob centre, while the blob colour
    varies freely (so channels carry redundant evidence). ``shapes-segment``:
    scenes of axis-aligned squares (class 1) and disks (class 2) on a noise
    background (class 0), with pixel-exact label maps straight from the
    generating geometry.
    """
    if kind == BLOBS:
        return _blobs(n, 32 if size is None else size, seed)
    if kind == SHAPES:
        return _shapes(n, 64 if size is None else size, seed)
    raise InvalidConfig(f"unknown synthetic dataset {kind!r}")


def _blobs(n: int, size: int, seed: int) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    quarter, three_q = size / 4.0, 3.0 * size / 4.0
    centers = np.array(
        [[quarter, quarter], [quarter, three_q], [three_q, quarter], [three_q, three_q]]
    )
    labels = rng.integers(0, 4, size=n)
    jitter = rng.uniform(-size / 10.0, size / 10.0, size=(n, 2))
    radii = rng.uniform(size / 8.0, size / 5.0, size=n)
    colors = rng.uniform(0.35, 1.0, size=(n, 3))
    noise = rng.normal(0.0, 0.12, size=(n, 3, size, size))

    inputs = np.empty((n, 3, size, size), dtype=np.float32)
    for i in range(n):
        cy, cx = centers[labels[i]] + jitter[i]
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        blob = np.exp(-d2 / (2.0 * radii[i] ** 2))
        inputs[i] = colors[i][:, None, None] * blob + noise[i]
    return LabeledDataset(inputs=inputs, labels=labels, classes=4, name=BLOBS)


def _shapes(n: int, size: int, seed: int) -> LabeledDataset:
    if size < 8:
        raise InvalidConfig(f"segmentation scenes need size >= 8, got {size}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    inputs = rng.normal(0.0, 0.10, size=(n, 3, size, size)).astype(np.float32)
    labels = np.zeros((n, size, size), dtype=np.int64)
    # Largest half-extent that still leaves the shape fully inside the frame.
    hi = min(12, size // 2 - 1)
    lo = min(5, hi - 1)
    for i in range(n):
        for _ in range(int(rng.integers(2, 5))):
            is_disk = bool(rng.random() < 0.5)
            half = int(rng.integers(lo, hi))
            cy = int(rng.integers(half, size - half))
            cx = int(rng.integers(half, size - half))
            if is_disk:
                mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half ** 2
            else:
                mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
            base = rng.uniform(0.55, 0.95)
            off = rng.uniform(0.05, 0.35, size=2)
            # Disks lean on channel 1, squares on channel 0; channel 2 is
            # common noise floor, so shape class is recoverable from colour
            # and outline jointly.
            color = np.array(
                [off[0], base, off[1]] if is_disk else [base, off[0], off[1]],
                dtype=np.float32,
            )
            inputs[i][:, mask] = color[:, None] + rng.normal(
                0.0, 0.05, size=(3, int(mask.sum()))
            ).astype(np.float32)
            labels[i][mask] = 2 if is_disk else 1
    return LabeledDataset(inputs=inputs, labels=labels, classes=3, name=SHAPES)


# -- CIFAR-10 ------------------------------------------------------------------------


def load_cifar10(root: str | Path) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the binary-format CIFAR-10 archive from ``root``.

    Expects ``data_batch_1.bin`` ... ``data_batch_5.bin`` and
    ``test_batch.bin``, each a sequence of 3073-byte records (label byte then
    a 3x32x32 pixel block). Inputs are scaled to [0, 1] and normalised by the
    standard per-channel statistics.
    """
    root = Path(root)
    train_parts = [_read_cifar_file(root / f"data_batch_{i}.bin") for i in range(1, 6)]
    test_x, test_y = _read_cifar_file(root / "test_batch.bin")
    train_x = np.concatenate([p[0] for p in train_parts])
    train_y = np.concatenate([p[1] for p in train_parts])
    return (
        LabeledDataset(inputs=train_x, labels=train_y, classes=10, name="cifar10:train"),
        LabeledDataset(inputs=test_x, labels=test_y, classes=10, name="cifar10:test"),
    )


def _read_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    if not path.exists():
        raise MissingFile(f"missing dataset file {path}")
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % _CIFAR_RECORD != 0:
        raise CorruptFile(
            f"{path} holds {raw.size} bytes, not a multiple of {_CIFAR_RECORD}"
        )
    records = raw.reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max() >= 10:
        raise LabelOutOfRange(f"{path} contains a label byte >= 10")
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    pixels = (pixels - _CIFAR_MEAN[:, None, None]) / _CIFAR_STD[:, None, None]
    return pixels, labels
