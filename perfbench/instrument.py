"""Outside-in instrumentation of a prunekit workflow.

Nothing here changes ``src/prunekit``. Each layer's public function is
wrapped at the module (or class) attribute through which its caller reaches
it, every call records a span (name, start, end, parent) in memory, and every
original attribute is put back when the ``Instrument`` context exits.

Two wrap sets exist. ``CLOCK_POINTS`` is the minimum the untraced run needs:
training-step timing (batch fetch to optimizer update) and the values the
output checks read. ``TRACE_POINTS`` adds every other layer boundary, for
the traced run that gives the per-layer split.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from prunekit import accounting, engine, graphio, objective, optim, pruner, workflow

STEP = "workflow.train_step"
BATCH_WAIT = "data.batch_wait"
BATCHES_END = "data.batches_end"

# (owner, attribute, span name). The span name is the layer function; one
# function reached through several callers gets one wrap per caller.
CLOCK_POINTS = (
    (optim.Optimizer, "step", "optim.step"),
    (workflow, "total_loss", "objective.total_loss"),
    (workflow, "rewrite", "pruner.rewrite"),
    (workflow, "verify_equivalence", "pruner.verify_equivalence"),
    (pruner, "forward", "engine.verify_forward"),
)

TRACE_POINTS = CLOCK_POINTS + (
    (workflow, "run", "workflow.run"),
    (objective, "forward", "engine.forward"),
    (workflow, "evaluate", "workflow.evaluate"),
    (workflow, "forward", "engine.eval_forward"),
    (workflow, "confusion_counts", "objective.confusion_counts"),
    (workflow, "mean_iou", "objective.mean_iou"),
    (engine.Run, "backward", "engine.backward"),
    (objective, "cross_entropy", "objective.cross_entropy"),
    (objective, "architecture_terms", "objective.architecture_terms"),
    (objective, "structure_measures", "accounting.structure_measures"),
    (objective, "structure_grads", "accounting.structure_grads"),
    (accounting, "structure_measures", "accounting.structure_measures"),
    (accounting, "structure_partials", "accounting.structure_partials"),
    (workflow, "structure_measures", "accounting.structure_measures"),
    (pruner, "structure_measures", "accounting.structure_measures"),
    (workflow, "trainable_params", "engine.trainable_params"),
    (workflow, "save_checkpoint", "optim.save_checkpoint"),
    (workflow, "threshold_masks", "pruner.threshold_masks"),
    (workflow, "fold_gates", "pruner.fold_gates"),
    (workflow, "identify_subgraphs", "subgraph.identify_subgraphs"),
    (pruner, "identify_subgraphs", "subgraph.identify_subgraphs"),
    (workflow, "build_reference_model", "models.build_reference_model"),
    (workflow, "infer_shapes", "graph.infer_shapes"),
    (pruner, "infer_shapes", "graph.infer_shapes"),
    (workflow, "init_weights", "engine.init_weights"),
    (workflow, "init_gates", "relax.init_gates"),
    (graphio, "save", "graphio.save"),
)


class Tracer:
    """Spans kept in parallel lists; parents come from a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        """End span ``i`` and any span still open inside it (a training step
        left open when an exception unwinds the loop)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == i:
                break

    def close_open(self, name: str) -> None:
        """Close the innermost open span if it is called ``name``."""
        if self._stack and self.names[self._stack[-1]] == name:
            self.close(self._stack[-1])

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class Record:
    """What the output checks and the per-layer metrics read besides spans."""

    batch_samples: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)  # relative to max |reference output|
    cuts: list[bool] = field(default_factory=list)  # cut removed at least one channel
    step_elements: list[int] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)
    _ref_magnitudes: list[float] = field(default_factory=list)


class Instrument:
    """Context manager installing one wrap set around a tracer and a record."""

    def __init__(self, points=CLOCK_POINTS) -> None:
        self.points = points
        self.tracer = Tracer()
        self.record = Record()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrument":
        try:
            for owner, attr, name in self.points:
                self._wrap(owner, attr, _span_wrapper(self.tracer, name, self._hook(name)))
            self._wrap(workflow, "batches", self._batches_wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _batches_wrapper(self, original):
        tracer, record = self.tracer, self.record

        def batches(*args, **kwargs):
            if not kwargs.get("shuffle", True):
                yield from original(*args, **kwargs)  # evaluation batches
                return
            it = original(*args, **kwargs)
            while True:
                # The step span opens at the fetch and is closed by the
                # optimizer wrapper once the update has been applied.
                step = tracer.open(STEP)
                wait = tracer.open(BATCH_WAIT)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(wait)
                    tracer.names[step] = BATCHES_END
                    tracer.close(step)
                    return
                tracer.close(wait)
                record.batch_samples.append(int(item[0].shape[0]))
                yield item

        return batches

    def _hook(self, name: str):
        record = self.record
        if name == "optim.step":
            # Only the traced run reports optimizer elements.
            tracer, count = self.tracer, self.points is TRACE_POINTS

            def after_step(args, kwargs, result):
                if count:
                    params, grads = args[1], args[2]
                    record.step_elements.append(
                        sum(int(params[k].size) for k in grads if k in params)
                    )
                tracer.close_open(STEP)

            return after_step
        if name == "objective.total_loss":
            return lambda args, kwargs, result: record.losses.append(float(result[0].total))
        if name == "engine.verify_forward":

            def after_forward(args, kwargs, result):
                if kwargs.get("node_scales") is not None:
                    out = result.output
                    record._ref_magnitudes.append(float(np.max(np.abs(out))) if out.size else 0.0)

            return after_forward
        if name == "pruner.verify_equivalence":

            def after_verify(args, kwargs, result):
                scale = max(record._ref_magnitudes, default=0.0)
                record._ref_magnitudes.clear()
                record.residuals.append(float(result) / scale if scale > 0 else float(result))

            return after_verify
        if name == "pruner.rewrite":
            return lambda args, kwargs, result: record.cuts.append(
                any(g.kept < g.width for g in result.report.groups)
            )
        if name == "optim.save_checkpoint":
            return lambda args, kwargs, result: record.checkpoint_bytes.append(
                os.path.getsize(args[0])
            )
        return None


def _span_wrapper(tracer: Tracer, name: str, hook):
    def make(original):
        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(i)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return make


# -- analysis -------------------------------------------------------------------


def self_times(tracer: Tracer) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    starts = np.asarray(tracer.starts)
    dur = np.asarray(tracer.ends) - starts
    own = dur.copy()
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            own[p] -= dur[i]
    return own


def step_durations(tracer: Tracer) -> list[float]:
    return [e - s for n, s, e in zip(tracer.names, tracer.starts, tracer.ends) if n == STEP]


def _owner_step(tracer: Tracer) -> list[int]:
    """Index of the enclosing training-step span for every span, or -1."""
    owner = [-1] * len(tracer)
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        if name == STEP:
            owner[i] = i
        elif parent >= 0:
            owner[i] = owner[parent]
    return owner


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, record: Record) -> dict[str, float]:
    """Per-layer numbers of one traced workflow (milliseconds unless named
    otherwise). Per-step figures are medians over training steps, per-call
    and per-cut figures medians over calls and cuts."""
    names = tracer.names
    own = self_times(tracer) * 1e3
    dur = (np.asarray(tracer.ends) - np.asarray(tracer.starts)) * 1e3
    owner = _owner_step(tracer)
    steps = [i for i, n in enumerate(names) if n == STEP]
    per_step: dict[str, dict[int, float]] = {}
    for i, name in enumerate(names):
        if owner[i] >= 0:
            bucket = per_step.setdefault(name, {})
            bucket[owner[i]] = bucket.get(owner[i], 0.0) + own[i]

    def step_self(*span_names: str) -> float:
        return _median(sum(per_step.get(n, {}).get(s, 0.0) for n in span_names) for s in steps)

    def calls(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    walk_counts: dict[int, int] = {s: 0 for s in steps}
    for i, name in enumerate(names):
        if owner[i] >= 0 and name in ("accounting.structure_measures", "accounting.structure_partials"):
            walk_counts[owner[i]] += 1

    # Per evaluate call: the evaluation-mode forwards inside it.
    eval_calls = calls("workflow.evaluate")
    eval_forward = {i: 0.0 for i in eval_calls}
    for i in calls("engine.eval_forward"):
        if tracer.parents[i] in eval_forward:
            eval_forward[tracer.parents[i]] += dur[i]

    masks = calls("pruner.threshold_masks")
    rewrites = calls("pruner.rewrite")
    run_self = sum(own[i] for i, n in enumerate(names) if n in ("workflow.run", STEP, BATCHES_END))
    identify = calls("subgraph.identify_subgraphs")
    return {
        "engine.forward_ms": step_self("engine.forward"),
        "engine.backward_ms": step_self("engine.backward"),
        "engine.eval_forward_ms": _median(eval_forward.values()),
        "workflow.evaluate_ms": _median(dur[i] for i in eval_calls),
        "objective.cross_entropy_ms": step_self("objective.cross_entropy"),
        "objective.arch_terms_ms": step_self("objective.architecture_terms"),
        "accounting.measures_ms": step_self("accounting.structure_measures"),
        "accounting.grads_ms": step_self("accounting.structure_grads", "accounting.structure_partials"),
        "accounting.walks_per_step": _median(walk_counts.values()),
        "optim.step_ms": step_self("optim.step"),
        "optim.elements_per_step": _median(record.step_elements),
        "optim.checkpoint_ms": _median(dur[i] for i in calls("optim.save_checkpoint")),
        "optim.checkpoint_mb": _median(b / 2**20 for b in record.checkpoint_bytes),
        "data.batch_wait_ms": step_self(BATCH_WAIT),
        "pruner.rewrite_ms": _median(dur[m] + dur[r] for m, r in zip(masks, rewrites)),
        "pruner.verify_ms": _median(dur[i] for i in calls("pruner.verify_equivalence")),
        "pruner.fold_ms": _median(dur[i] for i in calls("pruner.fold_gates")),
        "pruner.residual_max": max(record.residuals, default=0.0),
        "pruner.cuts_effective_frac": (sum(record.cuts) / len(record.cuts)) if record.cuts else 0.0,
        "subgraph.identify_ms": _median(dur[i] for i in identify),
        "subgraph.identify_calls": float(len(identify)),
        "workflow.self_ms": float(run_self),
    }
