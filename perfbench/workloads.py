"""The benchmark's workloads: configs, generated inputs and output checks.

Each workload is one ``prunekit.workflow.run`` (train with relaxed gates,
cut on a threshold schedule, rewrite, recover, fold). Its datasets are
generated from the workload seed and passed in as ``train_set``/``test_set``,
so the workflow receives only generated inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prunekit.data import BLOBS, SHAPES, LabeledDataset, generate_synthetic, split
from prunekit.graph import TensorShape
from prunekit.objective import ObjectiveConfig
from prunekit.optim import OptimConfig
from prunekit.workflow import StepSpec, WorkflowConfig, ramp_steps

RAMP = (0.01, 0.1, 0.25, 0.4, 0.5)

# A cut's rewrite must reproduce the masked network to this fraction of the
# largest reference output magnitude.
RESIDUAL_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    model_args: dict
    dataset: str
    image_size: int
    train_samples: int
    test_samples: int
    batch_size: int
    steps: tuple[StepSpec, ...]
    objective: ObjectiveConfig
    steepness: float = 4.0
    # Workflows per end-to-end run, each on its own seed.
    repeats: int = 1
    # Classification: the unpruned (post-warm-up) score must reach
    # ``score_floor`` and the last score may trail it by ``max_drop``.
    # Segmentation: the last score must reach ``score_floor``.
    score_floor: float = 0.0
    max_drop: float | None = None

    def make_data(self, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
        n = self.train_samples + self.test_samples
        full = generate_synthetic(self.dataset, n, seed=seed, size=self.image_size)
        return split(full, self.train_samples / n, seed=seed)

    def config(self, seed: int, out_dir: str | None) -> WorkflowConfig:
        return WorkflowConfig(
            model=self.model,
            model_args=dict(self.model_args),
            dataset=self.dataset,
            dataset_size=self.train_samples + self.test_samples,
            seed=seed,
            batch_size=self.batch_size,
            steps=list(self.steps),
            objective=self.objective,
            optimizer=OptimConfig(kind="adam", lr=3e-3),
            steepness=self.steepness,
            gate_jitter=0.02,
            min_keep=1,
            out_dir=out_dir,
        )

    def entry_shape(self) -> TensorShape:
        """Shape of one training batch."""
        return TensorShape(self.batch_size, 3, (self.image_size, self.image_size))


def check_outputs(w: Workload, scores: list[float], losses: list[float],
                  residuals: list[float]) -> list[str]:
    """Problems with one workflow's outputs; empty when they are correct."""
    problems = []
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append("a training loss is not finite")
    cuts = sum(1 for s in w.steps if s.prune)
    if len(residuals) != cuts:
        problems.append(f"{len(residuals)} rewrite checks for {cuts} cuts")
    worst = max(residuals, default=0.0)
    if not worst <= RESIDUAL_TOLERANCE:
        problems.append(f"rewrite residual {worst:.3e} of output magnitude exceeds {RESIDUAL_TOLERANCE}")
    if not scores:
        problems.append("no test score")
    elif w.max_drop is not None:
        if scores[0] < w.score_floor:
            problems.append(f"unpruned score {scores[0]:.4f} < {w.score_floor}")
        if scores[-1] < scores[0] - w.max_drop:
            problems.append(f"score fell from {scores[0]:.4f} to {scores[-1]:.4f}")
    elif scores[-1] < w.score_floor:
        problems.append(f"final score {scores[-1]:.4f} < {w.score_floor}")
    return problems


SEGMENT_STEPS = (
    (StepSpec(prune=False, epochs=2),)
    + (StepSpec(prune=False, epochs=1),) * 10
    + (StepSpec(prune=True, threshold=0.5, epochs=4),)
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="classify-ramp",
            model="resnet8",
            model_args={"width": 16, "classes": 4},
            dataset=BLOBS,
            image_size=32,
            train_samples=224,
            test_samples=112,
            batch_size=32,
            steps=tuple(ramp_steps(RAMP, warmup_epochs=6, epochs_per_step=2, final_epochs=4)),
            objective=ObjectiveConfig(mode="flops", target=0.45, mu="auto", lam="auto"),
            steepness=10.0,
            repeats=2,
            score_floor=0.95,
            max_drop=0.02,
        ),
        Workload(
            name="segment-sparsity",
            model="unet-small",
            model_args={"width": 8, "classes": 3, "depth": 3},
            dataset=SHAPES,
            image_size=32,
            train_samples=128,
            test_samples=32,
            batch_size=16,
            steps=SEGMENT_STEPS,
            objective=ObjectiveConfig(
                mode="sparsity", target=0.35, mu=0.3,
                lam=[(0, 0.02), (5, 0.5), (9, 2.0), (11, 0.05)],
            ),
            score_floor=0.90,
        ),
        Workload(
            name="small-deep",
            model="resnet18",
            model_args={"width": 16, "classes": 4, "input_size": 8},
            dataset=BLOBS,
            image_size=8,
            train_samples=640,
            test_samples=160,
            batch_size=8,
            steps=tuple(ramp_steps(RAMP, warmup_epochs=2, epochs_per_step=1, final_epochs=3)),
            objective=ObjectiveConfig(mode="flops", target=0.3, mu="auto", lam="auto"),
            score_floor=0.95,
            max_drop=0.02,
        ),
    )
}


def workflow_seed(seed: int, repeat: int) -> int:
    """Seed of the data and the workflow of the ``repeat``-th workflow in a
    run; the first uses ``seed`` itself."""
    if repeat == 0:
        return seed
    return int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0])
