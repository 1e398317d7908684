"""Multi-step train/prune/recover orchestration.

A workflow is a sequence of steps, each optionally pruning at a threshold,
training for some epochs, and measuring test performance. The threshold ramp
must be non-decreasing: early steps remove only channels whose gates have
clearly collapsed, later steps cut closer to the decision boundary while
intermediate training lets the network recover.

Structure fractions are always reported against the *original* model's totals
(captured before the first rewrite), so they keep meaning "fraction of the
network we started from" across physical rewrites. Checkpoints carry weights,
gates, optimizer slots, RNG state and the serialized graph; a restored run
continues bit-for-bit where the original would have gone.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import graphio
from .accounting import structure_measures
from .data import (
    BLOBS,
    SHAPES,
    LabeledDataset,
    batches,
    generate_synthetic,
    split,
)
from .engine import Weights, forward, init_weights, trainable_params
from .errors import InvalidConfig, RewriteMismatch
from .graph import Graph, TensorShape, infer_shapes
from .models import build_reference_model
from .objective import ObjectiveConfig, confusion_counts, mean_iou, total_loss
from .optim import OptimConfig, Optimizer, load_checkpoint, save_checkpoint
from .pruner import FOLD_PRODUCER, fold_gates, rewrite, threshold_masks, verify_equivalence
from .relax import GateSet, init_gates, snapshot, export_snapshot
from .subgraph import Coloring, identify_subgraphs

DEFAULT_THRESHOLD_RAMP = (0.01, 0.1, 0.25, 0.4, 0.5)

# A rewrite must reproduce the masked model to within this fraction of the
# largest masked output over the verification probes (of 1.0 when that output
# is all zero), or the run stops.
REWRITE_RTOL = 1e-4

METRIC_COLUMNS = (
    "step",
    "epoch",
    "iteration",
    "phase",
    "task_loss",
    "pressure_term",
    "stiffening_term",
    "total_loss",
    "sigma_p",
    "sigma_q",
    "score",
    "seconds",
)


@dataclass
class StepSpec:
    """One workflow step: optional prune, optional training, optional test."""

    prune: bool = False
    train: bool = True
    test: bool = True
    threshold: float | None = None
    epochs: int = 1
    lr: float | None = None

    def __post_init__(self) -> None:
        if self.prune and self.threshold is None:
            raise InvalidConfig("a pruning step needs a threshold")
        if self.threshold is not None and not (0.0 <= self.threshold < 1.0):
            raise InvalidConfig(f"threshold must lie in [0, 1), got {self.threshold}")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be non-negative")


def ramp_steps(
    thresholds: Sequence[float] = DEFAULT_THRESHOLD_RAMP,
    warmup_epochs: int = 2,
    epochs_per_step: int = 2,
    final_epochs: int | None = None,
) -> list[StepSpec]:
    """A standard schedule: warm-up, then one prune+recover step per threshold."""
    steps = [StepSpec(prune=False, epochs=warmup_epochs)]
    for i, tau in enumerate(thresholds):
        last = i == len(thresholds) - 1
        steps.append(
            StepSpec(
                prune=True,
                threshold=float(tau),
                epochs=final_epochs if (last and final_epochs is not None) else epochs_per_step,
            )
        )
    return steps


@dataclass
class WorkflowConfig:
    model: str = "resnet8"
    model_args: dict = field(default_factory=dict)
    dataset: str = BLOBS
    dataset_size: int = 2000
    train_fraction: float = 0.8
    seed: int = 0
    batch_size: int = 64
    steps: list[StepSpec] = field(default_factory=ramp_steps)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    steepness: float = 4.0
    stiffening_sd: float = 1.0
    gate_jitter: float = 0.02
    min_keep: int = 0
    fold_mode: str = FOLD_PRODUCER
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise InvalidConfig("workflow needs at least one step")
        ramp = [s.threshold for s in self.steps if s.prune]
        for a, b in zip(ramp, ramp[1:]):
            if b < a:
                raise InvalidConfig(
                    f"prune thresholds must be non-decreasing, got {a} then {b}"
                )
        if self.batch_size < 1:
            raise InvalidConfig("batch size must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "WorkflowConfig":
        raw = dict(raw)
        if "steps" in raw:
            raw["steps"] = [
                s if isinstance(s, StepSpec) else StepSpec(**s) for s in raw["steps"]
            ]
        if "objective" in raw and not isinstance(raw["objective"], ObjectiveConfig):
            obj = dict(raw["objective"])
            for key in ("mu", "lam"):
                if isinstance(obj.get(key), list):
                    obj[key] = [(int(s), float(v)) for s, v in obj[key]]
            raw["objective"] = ObjectiveConfig(**obj)
        if "optimizer" in raw and not isinstance(raw["optimizer"], OptimConfig):
            raw["optimizer"] = OptimConfig(**raw["optimizer"])
        unknown = set(raw) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "WorkflowConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise InvalidConfig(f"{path} does not hold a mapping")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = asdict(self)
        return out


@dataclass
class WorkflowResult:
    graph: Graph
    weights: Weights  # gains folded in; ready to run without gates
    gates: GateSet | None  # pre-fold gates (None when nothing was prunable)
    coloring: Coloring
    shapes: dict[str, TensorShape]
    baseline: tuple[float, float]
    scores: list[tuple[int, float]]
    metrics_path: Path | None
    out_dir: Path | None
    resolved_mu: float | None = None
    resolved_lam: float | None = None


def evaluate(
    graph: Graph,
    weights: Weights,
    dataset: LabeledDataset,
    *,
    coloring: Coloring | None = None,
    gates: GateSet | None = None,
    batch_size: int = 256,
) -> float:
    """Test score in evaluation mode: top-1 accuracy for classification,
    mean IoU (over classes that occur) for dense labels."""
    dense = dataset.dense
    inter = p_count = t_count = None
    hits = 0
    for bx, by in batches(dataset, batch_size, shuffle=False):
        out = forward(graph, weights, bx, coloring=coloring, gates=gates, training=False).output
        pred = np.argmax(out, axis=1)
        if dense:
            i, p, t = confusion_counts(pred, by, dataset.classes)
            inter = i if inter is None else inter + i
            p_count = p if p_count is None else p_count + p
            t_count = t if t_count is None else t_count + t
        else:
            hits += int(np.count_nonzero(pred == by))
    if dense:
        return mean_iou(inter, p_count, t_count)
    return hits / len(dataset)


class _MetricsWriter:
    """Row writer for ``metrics.csv``; each row is appended and the file
    closed again, so a run that stops with an error leaves every row it
    wrote and no open handle.

    A run that resumes at step ``resume_step`` keeps the rows that earlier
    steps wrote and drops those of ``resume_step`` onwards, which the resumed
    run writes again; any other run starts the file afresh.
    """

    def __init__(self, path: Path | None, resume_step: int | None):
        self.path = path
        if path is None:
            return
        kept: list[list[str]] = []
        if resume_step is not None and path.exists():
            with open(path, newline="") as fh:
                kept = [
                    [row.get(col, "") for col in METRIC_COLUMNS]
                    for row in csv.DictReader(fh)
                    if int(row["step"]) < resume_step
                ]
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(METRIC_COLUMNS)
            out.writerows(kept)

    def write(self, **row) -> None:
        if self.path is not None:
            with open(self.path, "a", newline="") as fh:
                csv.writer(fh).writerow([row.get(col, "") for col in METRIC_COLUMNS])


def _load_data(config: WorkflowConfig) -> tuple[LabeledDataset, LabeledDataset]:
    full = generate_synthetic(config.dataset, config.dataset_size, seed=config.seed)
    return split(full, config.train_fraction, seed=config.seed)


def run(
    config: WorkflowConfig,
    train_set: LabeledDataset | None = None,
    test_set: LabeledDataset | None = None,
    resume_from: str | Path | None = None,
) -> WorkflowResult:
    """Execute a workflow end to end (or continue one from a checkpoint).

    Writes, when an output directory is configured: ``metrics.csv`` (one row
    per training iteration / prune / test), a checkpoint and prune report per
    step, the final rewritten graph, folded weights and a gate snapshot.
    """
    if train_set is None or test_set is None:
        train_set, test_set = _load_data(config)

    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    in_channels = train_set.inputs.shape[1]
    spatial = train_set.inputs.shape[2:]
    entry_shape = TensorShape(1, in_channels, tuple(int(d) for d in spatial))

    rng = np.random.default_rng(config.seed)
    start_step = 0
    global_epoch = 0
    resolved_mu: float | None = None
    resolved_lam: float | None = None
    scores: list[tuple[int, float]] = []

    if resume_from is None:
        graph = build_reference_model(config.model, **config.model_args)
        shapes = infer_shapes(graph, entry_shape)
        coloring = identify_subgraphs(graph, shapes)
        weights = init_weights(graph, shapes, rng)
        gates = init_gates(
            coloring,
            steepness=config.steepness,
            stiffening_sd=config.stiffening_sd,
            jitter=config.gate_jitter,
            rng=rng,
        )
        optimizer = Optimizer(config.optimizer)
        base_report = structure_measures(graph, coloring, None, shapes)
        baseline = (base_report.total_params, base_report.total_flops)
    else:
        ckpt = load_checkpoint(resume_from)
        graph = ckpt.graph
        weights = ckpt.weights
        gates = ckpt.gates
        shapes = infer_shapes(graph, entry_shape)
        coloring = identify_subgraphs(graph, shapes)
        optimizer = Optimizer(config.optimizer)
        if ckpt.opt_state is not None:
            optimizer.load_state_dict(ckpt.opt_state)
        if ckpt.rng_state is not None:
            rng.bit_generator.state = ckpt.rng_state
        meta = ckpt.meta
        start_step = int(meta["next_step"])
        global_epoch = int(meta["global_epoch"])
        baseline = (float(meta["baseline"][0]), float(meta["baseline"][1]))
        resolved_mu = meta.get("resolved_mu")
        resolved_lam = meta.get("resolved_lam")
        scores = [(int(s), float(v)) for s, v in meta.get("scores", [])]

    metrics = _MetricsWriter(
        out_dir / "metrics.csv" if out_dir else None,
        resume_step=start_step if resume_from is not None else None,
    )

    def current_objective() -> ObjectiveConfig:
        if isinstance(config.objective.mu, str) or isinstance(config.objective.lam, str):
            if resolved_mu is None:
                # Warm-up: pressure off until the loss scale is known.
                return config.objective.resolved(0.0, 0.0)
            return config.objective.resolved(resolved_mu, resolved_lam)
        return config.objective

    first_train_step = next(
        (i for i, s in enumerate(config.steps) if s.train and s.epochs > 0), None
    )

    for step_index in range(start_step, len(config.steps)):
        spec = config.steps[step_index]
        step_t0 = time.perf_counter()

        if spec.prune and gates is not None and gates.values:
            masks = threshold_masks(gates, spec.threshold, config.min_keep)
            result = rewrite(graph, coloring, weights, gates, masks, shapes)
            verify_shape = TensorShape(2, entry_shape.channels, entry_shape.spatial)
            residual = verify_equivalence(
                graph, coloring, weights, gates, masks, result,
                verify_shape, probes=4, seed=config.seed,
            )
            bound = REWRITE_RTOL * (result.report.output_max or 1.0)
            if not residual <= bound:  # a NaN residual fails too
                raise RewriteMismatch(
                    f"step {step_index}: rewritten model differs from the masked model by "
                    f"{residual:.3e}, above {bound:.3e} ({REWRITE_RTOL:g} of the largest "
                    f"masked output, {result.report.output_max:.3e})"
                )
            graph, weights = result.graph, result.weights
            coloring, gates, shapes = result.coloring, result.gates, result.shapes
            # Moment estimates refer to parameter axes that may no longer
            # exist, so the optimizer restarts after every rewrite.
            optimizer = Optimizer(config.optimizer)
            report = structure_measures(graph, coloring, None, shapes, baseline=baseline)
            if out_dir is not None:
                with open(out_dir / f"prune_step_{step_index:02d}.txt", "w") as fh:
                    fh.write(result.report.to_text())
            metrics.write(
                step=step_index, epoch=global_epoch, iteration=0, phase="prune",
                sigma_p=f"{report.sigma_p:.6f}", sigma_q=f"{report.sigma_q:.6f}",
                score=f"{residual:.3e}", seconds=f"{time.perf_counter() - step_t0:.3f}",
            )

        if spec.train and spec.epochs > 0:
            obj = current_objective()
            for _ in range(spec.epochs):
                epoch_losses: list[float] = []
                iteration = 0
                for bx, by in batches(train_set, config.batch_size, config.seed, global_epoch):
                    t0 = time.perf_counter()
                    breakdown, grads, _ = total_loss(
                        graph, weights, bx, by,
                        coloring=coloring, gates=gates, shapes=shapes,
                        objective=obj, step=step_index, baseline=baseline,
                    )
                    optimizer.step(trainable_params(weights, gates), grads, lr=spec.lr)
                    epoch_losses.append(breakdown.task_loss)
                    metrics.write(
                        step=step_index, epoch=global_epoch, iteration=iteration,
                        phase="train",
                        task_loss=f"{breakdown.task_loss:.6f}",
                        pressure_term=f"{breakdown.pressure_term:.6f}",
                        stiffening_term=f"{breakdown.stiffening_term:.6f}",
                        total_loss=f"{breakdown.total:.6f}",
                        sigma_p=f"{breakdown.sigma_p:.6f}",
                        sigma_q=f"{breakdown.sigma_q:.6f}",
                        seconds=f"{time.perf_counter() - t0:.3f}",
                    )
                    iteration += 1
                global_epoch += 1
            if step_index == first_train_step and resolved_mu is None and epoch_losses:
                # Scale both pressure terms to the task loss level reached by
                # the warm-up, so neither drowns the other from the start.
                scale = float(np.mean(epoch_losses))
                resolved_mu = scale
                resolved_lam = scale

        if spec.test:
            score = evaluate(
                graph, weights, test_set,
                coloring=coloring, gates=gates, batch_size=max(config.batch_size, 128),
            )
            scores.append((step_index, score))
            report = structure_measures(graph, coloring, gates, shapes, baseline=baseline)
            metrics.write(
                step=step_index, epoch=global_epoch, iteration=0, phase="test",
                sigma_p=f"{report.sigma_p:.6f}", sigma_q=f"{report.sigma_q:.6f}",
                score=f"{score:.6f}", seconds=f"{time.perf_counter() - step_t0:.3f}",
            )

        if out_dir is not None:
            save_checkpoint(
                out_dir / f"step_{step_index:02d}.npz",
                graph=graph, weights=weights, gates=gates,
                optimizer=optimizer, rng=rng,
                meta={
                    "next_step": step_index + 1,
                    "global_epoch": global_epoch,
                    "baseline": list(baseline),
                    "resolved_mu": resolved_mu,
                    "resolved_lam": resolved_lam,
                    "scores": [[s, v] for s, v in scores],
                    "config": json.loads(json.dumps(config.to_dict(), default=str)),
                },
            )

    final_weights = weights
    if gates is not None and gates.values:
        final_weights = fold_gates(graph, coloring, gates, weights, mode=config.fold_mode)
    if out_dir is not None:
        graphio.save(graph, str(out_dir / "final_graph.txt"))
        save_checkpoint(
            out_dir / "final_model.npz", graph=graph, weights=final_weights,
            meta={"folded": True, "baseline": list(baseline)},
        )
        if gates is not None and gates.values:
            extras = {
                gid: {"width": int(arr.size)} for gid, arr in snapshot(gates).items()
            }
            (out_dir / "gates_snapshot.txt").write_text(export_snapshot(gates, extras))

    return WorkflowResult(
        graph=graph,
        weights=final_weights,
        gates=gates,
        coloring=coloring,
        shapes=shapes,
        baseline=baseline,
        scores=scores,
        metrics_path=metrics.path,
        out_dir=out_dir,
        resolved_mu=resolved_mu,
        resolved_lam=resolved_lam,
    )
