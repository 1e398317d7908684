"""Training objective: task loss plus differentiable architecture pressure.

The full objective is

    total = task + mu * |ratio - target| + lam * polarization

where ``ratio`` is the relaxed parameter or compute fraction of the original
model (picked by ``mode``) and ``polarization`` is the Gaussian stiffening
penalty on the gate scores. :func:`total_loss` evaluates the gains once and
shares them between the forward pass and the architecture terms, which are
closed-form functions of the gains: their score gradients (cost-model width
gradients times each gain's slope) are added to the backpropagated ones.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .accounting import structure_grads, structure_measures
from .engine import ParamKey, Run, Weights, forward
from .errors import (
    EmptySchedule,
    InvalidConfig,
    LabelOutOfRange,
    LengthMismatch,
    ScheduleUnresolved,
)
from .graph import Graph, TensorShape
from .relax import GateSet, channel_totals, gate_scales, score_grads, slope, snapshot, stiffening
from .subgraph import Coloring

MODE_SPARSITY = "sparsity"  # drive the parameter fraction toward the target
MODE_FLOPS = "flops"  # drive the compute fraction toward the target

Schedule = float | Sequence[tuple[int, float]] | str


@dataclass
class ObjectiveConfig:
    """Weights and target for the architecture pressure terms.

    ``mu`` and ``lam`` may be plain floats, ``"auto"`` (resolved by the
    workflow to the scale of the task loss after the warm-up step), or
    piecewise-constant schedules given as ``[(step, value), ...]``; no other
    string is accepted.
    """

    mode: str = MODE_SPARSITY
    target: float = 0.3
    mu: Schedule = "auto"
    lam: Schedule = "auto"

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SPARSITY, MODE_FLOPS):
            raise InvalidConfig(f"unknown objective mode {self.mode!r}")
        if not (0.0 <= self.target <= 1.0):
            raise InvalidConfig(f"target fraction must lie in [0, 1], got {self.target}")
        for name in ("mu", "lam"):
            value = getattr(self, name)
            if isinstance(value, str) and value != "auto":
                raise InvalidConfig(f"objective.{name} must be a number, a schedule or "
                                    f"'auto', got {value!r}")

    def resolved(self, scale: float) -> "ObjectiveConfig":
        """Copy with each ``"auto"`` weight replaced by ``scale``."""
        return replace(self, mu=scale if self.mu == "auto" else self.mu,
                       lam=scale if self.lam == "auto" else self.lam)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """One evaluation of the objective, split into its three terms."""

    task_loss: float
    pressure_term: float
    stiffening_term: float
    total: float
    ratio: float  # current relaxed fraction under the configured mode
    sigma_p: float
    sigma_q: float


def resolve_schedule(spec: Schedule, step: int) -> float:
    """Value of a schedule at ``step``.

    Plain numbers are constant. A ``[(step, value), ...]`` list is piecewise
    constant: the entry with the largest step index not exceeding ``step``
    applies. ``"auto"`` must have been replaced before training reaches here.
    """
    if isinstance(spec, str):
        raise ScheduleUnresolved(f"schedule {spec!r} was never resolved to a value")
    if isinstance(spec, (int, float)):
        return float(spec)
    entries = sorted((int(s), float(v)) for s, v in spec)
    if not entries:
        raise EmptySchedule("schedule has no entries")
    if step < entries[0][0]:
        raise ScheduleUnresolved(
            f"step {step} precedes the first schedule entry at step {entries[0][0]}"
        )
    value = entries[0][1]
    for s, v in entries:
        if s <= step:
            value = v
    return value


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over all labeled positions, with its gradient.

    ``logits`` has the class axis at position 1 — ``(batch, classes)`` for
    classification or ``(batch, classes, *spatial)`` for dense prediction —
    and ``labels`` carries integer class ids in the matching positions.
    Computed via a max-shifted log-sum-exp, so arbitrarily large logits stay
    finite.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise LengthMismatch(f"logits must have a class axis, got shape {logits.shape}")
    expected = logits.shape[:1] + logits.shape[2:]
    if labels.shape != expected:
        raise LengthMismatch(f"labels shape {labels.shape} does not match logits {logits.shape}")
    k = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelOutOfRange(f"labels must lie in [0, {k}), got range "
                              f"[{labels.min()}, {labels.max()}]")

    # Move classes last: (positions, classes).
    flat = np.moveaxis(logits, 1, -1).reshape(-1, k)
    lab = labels.reshape(-1)
    n = flat.shape[0]
    m = flat.max(axis=1, keepdims=True)
    z = flat - m
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(denom)
    loss = float(-np.mean(log_probs[np.arange(n), lab], dtype=np.float64))

    dflat = (ez / denom) / n
    dflat[np.arange(n), lab] -= 1.0 / n
    dlogits = np.moveaxis(dflat.reshape(labels.shape + (k,)), -1, 1).astype(logits.dtype)
    return loss, dlogits


def architecture_terms(
    graph: Graph,
    coloring: Coloring,
    gates: GateSet,
    gains: dict[int, np.ndarray],
    shapes: dict[str, TensorShape],
    objective: ObjectiveConfig,
    step: int,
    baseline: tuple[float, float] | None = None,
) -> tuple[float, float, float, float, float, dict[ParamKey, np.ndarray]]:
    """Evaluate the pressure and stiffening terms and their score gradients
    at the ``gains`` :func:`~prunekit.relax.snapshot` took of ``gates``.

    Returns ``(pressure, stiff, ratio, sigma_p, sigma_q, grads)`` where
    ``grads`` maps ``("s", gid)`` keys to gradient arrays. At exact target
    attainment the pressure term uses subgradient zero.
    """
    mu = resolve_schedule(objective.mu, step)
    lam = resolve_schedule(objective.lam, step)
    widths = channel_totals(coloring, gains)
    report = structure_measures(graph, coloring, widths, shapes, baseline=baseline)
    ratio = report.sigma_p if objective.mode == MODE_SPARSITY else report.sigma_q
    pressure = mu * abs(ratio - objective.target)
    stiff_value, stiff_grads = stiffening(gates)
    stiff = lam * stiff_value

    grads: dict[ParamKey, np.ndarray] = {}
    sign = float(np.sign(ratio - objective.target))
    if mu != 0.0 and sign != 0.0:
        d_p, d_q = structure_grads(coloring, widths, baseline=baseline)
        row = d_p if objective.mode == MODE_SPARSITY else d_q
        for gid, g in gains.items():
            grads[("s", gid)] = (mu * sign) * (slope(g, gates.steepness) * row[gid])
    if lam != 0.0:
        for gid, arr in stiff_grads.items():
            key = ("s", gid)
            grads[key] = grads[key] + lam * arr if key in grads else lam * arr
    return pressure, stiff, ratio, report.sigma_p, report.sigma_q, grads


def total_loss(
    graph: Graph,
    weights: Weights,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    coloring: Coloring,
    gates: GateSet,
    shapes: dict[str, TensorShape],
    objective: ObjectiveConfig,
    step: int = 0,
    baseline: tuple[float, float] | None = None,
    training: bool = True,
) -> tuple[ObjectiveBreakdown, dict[ParamKey, np.ndarray], Run]:
    """One combined forward/backward pass of the full objective.

    Returns the loss breakdown, the gradient dict (task gradients from the
    tape plus the analytic architecture gradients on the gate scores), and
    the underlying run.
    """
    gains = snapshot(gates)
    scales = gate_scales(coloring, gains)
    run = forward(graph, weights, x, node_scales=scales, training=training)
    task, dlogits = cross_entropy(run.output, labels)
    grads = score_grads(coloring, gates, gains, run.backward(dlogits))

    pressure, stiff, ratio, sigma_p, sigma_q, arch_grads = architecture_terms(
        graph, coloring, gates, gains, shapes, objective, step, baseline=baseline
    )
    for key, g in arch_grads.items():
        grads[key] = grads[key] + g if key in grads else g

    breakdown = ObjectiveBreakdown(
        task_loss=task,
        pressure_term=pressure,
        stiffening_term=stiff,
        total=task + pressure + stiff,
        ratio=ratio,
        sigma_p=sigma_p,
        sigma_q=sigma_q,
    )
    return breakdown, grads, run


# -- evaluation metrics ----------------------------------------------------------


def confusion_counts(
    pred: np.ndarray, labels: np.ndarray, classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (intersection, predicted, actual) counts of positions in
    ``classes``; the intersection summed over classes counts every hit."""
    pred, labels = np.ravel(pred), np.ravel(labels)
    return tuple(
        np.bincount(v, minlength=classes)[:classes] for v in (pred[pred == labels], pred, labels)
    )


def mean_iou(inter: np.ndarray, p_count: np.ndarray, t_count: np.ndarray) -> float:
    """Mean intersection-over-union across classes that occur at all.

    Classes absent from both the prediction and the ground truth contribute
    no union and are excluded rather than counted as perfect.
    """
    union = p_count + t_count - inter
    present = union > 0
    if not np.any(present):
        return 0.0
    return float(np.mean(inter[present] / union[present]))
