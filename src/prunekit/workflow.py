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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

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
from .errors import CheckpointError, InvalidConfig, ResumeMismatch, RewriteMismatch
from .graph import Graph, TensorShape, infer_shapes
from .models import build_reference_model
from .objective import ObjectiveConfig, Schedule, confusion_counts, mean_iou, total_loss
from .optim import OptimConfig, Optimizer, load_checkpoint, save_checkpoint
from .pruner import fold_gates, rewrite, threshold_masks, verify_equivalence
from .relax import (
    GateSet, channel_totals, check_gates, export_snapshot, gate_scales, init_gates, snapshot,
)
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
    """One workflow step: optional prune, training (none at ``epochs: 0``),
    then a test."""

    prune: bool = False
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
        if self.lr is not None and not self.lr > 0:
            raise InvalidConfig(f"learning rate must be positive, got {self.lr}")


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
        return _from_mapping(cls, raw, "")

    @classmethod
    def from_yaml(cls, path: str | Path) -> "WorkflowConfig":
        with open(path) as fh:
            return cls.from_dict(yaml.safe_load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


def _from_mapping(cls, raw, where: str):
    """``cls(**raw)``, with each nested mapping built into the dataclass its
    field annotates and every value checked against its annotation; errors
    name the dotted key below ``where`` (empty at the top level)."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{where or 'config'} must be a mapping, got {raw!r}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise InvalidConfig(f"unknown {where or 'config'} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in raw.items():
        name, hint = f"{where}.{key}" if where else key, hints[key]
        if is_dataclass(hint) and isinstance(value, dict):
            value = _from_mapping(hint, value, name)
        elif hint == list[StepSpec] and isinstance(value, list):
            value = [s if isinstance(s, StepSpec) else _from_mapping(StepSpec, s, f"{name}[{i}]")
                     for i, s in enumerate(value)]
        elif hint == Schedule and isinstance(value, list):
            try:
                value = [(int(s), float(v)) for s, v in value]
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(f"{name} must be a list of [step, value] pairs, "
                                    f"got {value!r}") from exc
        if not _conforms(value, hint):
            raise InvalidConfig(f"{name} must be {_type_name(hint)}, got {value!r}")
        values[key] = value
    return cls(**values)


def _type_name(hint) -> str:
    if is_dataclass(hint):
        return "a mapping"
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the type ``hint`` annotates; an int passes for
    a float, a bool for neither, and None only where the hint allows it."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_conforms(value, arg) for arg in args)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if origin is tuple:
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if origin in (list, Sequence):
        return isinstance(value, (list, tuple)) and all(_conforms(v, args[0]) for v in value)
    return isinstance(value, origin or hint)


@dataclass
class WorkflowResult:
    graph: Graph
    weights: Weights  # gains folded in; ready to run without gates
    gates: GateSet  # pre-fold gates (empty when nothing was prunable)
    coloring: Coloring
    shapes: dict[str, TensorShape]
    baseline: tuple[float, float]
    scores: list[tuple[int, float]]
    metrics_path: Path | None
    out_dir: Path | None
    loss_scale: float | None = None  # warm-up task loss that "auto" weights take


def evaluate(
    graph: Graph,
    weights: Weights,
    dataset: LabeledDataset,
    *,
    node_scales: dict[str, np.ndarray] | None = None,
    batch_size: int = 256,
) -> float:
    """Test score in evaluation mode: top-1 accuracy for classification,
    mean IoU (over classes that occur) for dense labels. ``node_scales``
    are passed to :func:`~prunekit.engine.forward` (a gated network's
    ``gate_scales``)."""
    counts = np.zeros((3, dataset.classes), dtype=np.int64)
    for bx, by in batches(dataset, batch_size, shuffle=False):
        out = forward(
            graph, weights, bx, node_scales=node_scales, training=False, tape=False
        ).output
        counts += confusion_counts(np.argmax(out, axis=1), by, dataset.classes)
    if dataset.dense:
        return mean_iou(*counts)
    return int(counts[0].sum()) / len(dataset)


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


def _config_record(config: WorkflowConfig) -> dict:
    """``config`` as checkpoints store it: plain JSON values."""
    return json.loads(json.dumps(config.to_dict(), default=str))


def _leaves(value, key: str = ""):
    """``(dotted key, value)`` of every leaf of nested dicts and lists."""
    if not isinstance(value, (dict, list)):
        yield key, value
        return
    for name, item in value.items() if isinstance(value, dict) else enumerate(value):
        yield from _leaves(item, f"{key}.{name}" if key else str(name))


def _check_resume_config(saved: dict, config: WorkflowConfig, next_step: int) -> None:
    """Refuse a resume whose config differs from the checkpoint's in anything
    but ``out_dir`` and the steps from ``next_step`` on, which have not run."""
    old, new = (
        dict(_leaves({**raw, "out_dir": None, "steps": raw.get("steps", [])[:next_step]}))
        for raw in (saved, _config_record(config))
    )
    differing = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    if differing:
        raise ResumeMismatch(f"config differs from the checkpoint's in: {', '.join(differing)}")


def run(
    config: WorkflowConfig,
    train_set: LabeledDataset | None = None,
    test_set: LabeledDataset | None = None,
    resume_from: str | Path | None = None,
) -> WorkflowResult:
    """Execute a workflow end to end (or continue one from a checkpoint).

    Writes, when an output directory is configured: ``metrics.csv`` (one row
    per training iteration / prune / test), a checkpoint per step, a JSON
    record per cut (``prune_step_NN.json``, the cut's :class:`PruneReport`),
    the final rewritten graph, folded weights and a gate snapshot.
    """
    if train_set is None or test_set is None:
        full = generate_synthetic(config.dataset, config.dataset_size, seed=config.seed)
        train_set, test_set = split(full, config.train_fraction, seed=config.seed)

    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    in_channels = train_set.inputs.shape[1]
    spatial = train_set.inputs.shape[2:]
    entry_shape = TensorShape(1, in_channels, tuple(int(d) for d in spatial))
    entry_dims = [entry_shape.channels, *entry_shape.spatial]

    rng = np.random.default_rng(config.seed)
    start_step = 0
    global_epoch = 0
    loss_scale: float | None = None
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
        dense = structure_measures(graph, coloring, None, shapes)
        baseline = (dense.total_params, dense.total_flops)
    else:
        ckpt = load_checkpoint(resume_from)
        meta = ckpt.meta
        for key in ("next_step", "global_epoch", "baseline", "loss_scale"):
            if key not in meta:
                raise CheckpointError(f"checkpoint {resume_from} lacks run metadata {key!r}; "
                                      "resume from a step_NN.npz")
        start_step = int(meta["next_step"])
        _check_resume_config(meta.get("config", {}), config, start_step)
        graph = ckpt.graph
        weights = ckpt.weights
        gates = ckpt.gates
        shapes = infer_shapes(graph, entry_shape)
        coloring = identify_subgraphs(graph, shapes)
        check_gates(coloring, gates, str(resume_from))
        optimizer = Optimizer(config.optimizer)
        if ckpt.opt_state is not None:
            optimizer.t, optimizer.slots = ckpt.opt_state["t"], ckpt.opt_state["slots"]
        if ckpt.rng_state is not None:
            rng.bit_generator.state = ckpt.rng_state
        global_epoch = int(meta["global_epoch"])
        baseline = (float(meta["baseline"][0]), float(meta["baseline"][1]))
        loss_scale = meta["loss_scale"]
        scores = [(int(s), float(v)) for s, v in meta.get("scores", [])]

    metrics = _MetricsWriter(
        out_dir / "metrics.csv" if out_dir else None,
        resume_step=start_step if resume_from is not None else None,
    )

    for step_index in range(start_step, len(config.steps)):
        spec = config.steps[step_index]
        step_t0 = time.perf_counter()

        if spec.prune and gates.values:
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
            cut = result.report
            if out_dir is not None:
                (out_dir / f"prune_step_{step_index:02d}.json").write_text(json.dumps(asdict(cut)))
            metrics.write(
                step=step_index, epoch=global_epoch, iteration=0, phase="prune",
                sigma_p=f"{cut.params_after / baseline[0]:.6f}",
                sigma_q=f"{cut.flops_after / baseline[1]:.6f}",
                score=f"{residual:.3e}", seconds=f"{time.perf_counter() - step_t0:.3f}",
            )

        if spec.epochs > 0:
            # "auto" weights, and with them the pressure, are off until the
            # warm-up has measured the loss scale.
            obj = config.objective.resolved(0.0 if loss_scale is None else loss_scale)
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
                    optimizer.step(trainable_params(weights, gates.values), grads, lr=spec.lr)
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
            if loss_scale is None and epoch_losses:
                # Scale both pressure terms to the task loss level reached by
                # the warm-up, so neither drowns the other from the start.
                loss_scale = float(np.mean(epoch_losses))

        gains = snapshot(gates)
        score = evaluate(
            graph, weights, test_set,
            node_scales=gate_scales(coloring, gains),
            batch_size=max(config.batch_size, 128),
        )
        scores.append((step_index, score))
        widths = channel_totals(coloring, gains)
        report = structure_measures(graph, coloring, widths, shapes, baseline=baseline)
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
                    "entry_shape": entry_dims,
                    "loss_scale": loss_scale,
                    "scores": [[s, v] for s, v in scores],
                    "config": _config_record(config),
                },
            )

    final_weights = fold_gates(coloring, gates, weights)
    if out_dir is not None:
        graphio.save(graph, str(out_dir / "final_graph.txt"))
        save_checkpoint(
            out_dir / "final_model.npz", graph=graph, weights=final_weights,
            meta={"baseline": list(baseline), "entry_shape": entry_dims},
        )
        if gates.values:
            (out_dir / "gates_snapshot.txt").write_text(export_snapshot(gates))

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
        loss_scale=loss_scale,
    )
