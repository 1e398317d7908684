"""Differentiable parameter and FLOP accounting.

Costs are evaluated from *effective* channel counts: with gates attached,
every channel contributes its gain ``sigma(s)`` instead of 1, so each group's
width is the sum of its gains (:func:`prunekit.relax.channel_totals`). Every
operator's cost is a polynomial of degree at most two in those widths: with
``c_in`` and ``c_out`` its input and output widths, it has
``p2*c_in*c_out + p1*c_out`` parameters and ``q2*c_in*c_out + q1*c_out``
multiply-accumulates, with the per-kind coefficients of
:func:`prunekit.subgraph.cost_coefficients`.
:func:`~prunekit.subgraph.identify_subgraphs` compiles them once per graph
into the coloring's :class:`~prunekit.subgraph.CostTable`, which is plain
data. This module owns the polynomial: its value, its fully-on totals and
its exact gradient with respect to the widths sit side by side below, each a
few array operations over that one table; this module knows nothing of gates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroTotal
from .graph import Graph, OpKind, TensorShape
from .subgraph import Coloring, cost_coefficients


@dataclass(frozen=True)
class OpCost:
    params: float
    flops: float


@dataclass(frozen=True)
class CostReport:
    """Cost totals for one graph at the current gate state.

    ``total_params`` / ``total_flops`` are the fully-on denominators (every
    channel counted as 1); ``sigma_p`` / ``sigma_q`` are the relative
    structure measures ``relaxed / total`` in [0, 1] when gates are attached.
    """

    per_op: dict[str, OpCost]
    total_params: float
    total_flops: float
    relaxed_params: float
    relaxed_flops: float
    sigma_p: float
    sigma_q: float
    notes: tuple[str, ...] = ()

    def to_text(self) -> str:
        lines = [
            f"params {self.relaxed_params:.1f} / {self.total_params:.0f} (sigma_p={self.sigma_p:.6f})",
            f"flops  {self.relaxed_flops:.1f} / {self.total_flops:.0f} (sigma_q={self.sigma_q:.6f})",
        ]
        for nid in sorted(self.per_op):
            cost = self.per_op[nid]
            lines.append(f"op {nid} params={cost.params:.2f} flops={cost.flops:.2f}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def op_flops(
    node_kind: OpKind,
    c_in: float,
    c_out: float,
    kernel_size: int,
    out_shape: TensorShape,
    in_shape: TensorShape | None,
) -> float:
    (_, q2), (_, q1) = cost_coefficients(node_kind, kernel_size, out_shape, in_shape)
    return c_in * c_out * q2 + c_out * q1


def _costs(coloring: Coloring, widths) -> np.ndarray:
    """Per-node ``[params, flops]`` rows at the group ``widths`` (None: all on)."""
    t = coloring.costs
    c = np.asarray([g.width for g in coloring.groups] if widths is None else widths, np.float64)
    c_in, c_out = t.u @ c, t.v @ c
    return (c_in * c_out) * t.quad + c_out * t.lin


def _totals(coloring: Coloring, baseline: tuple[float, float] | None) -> tuple[float, float]:
    """``baseline``, or the ``(params, flops)`` sums with every channel on."""
    total_p, total_q = baseline or _costs(coloring, None).sum(axis=1).tolist()
    if total_p <= 0.0 or total_q <= 0.0:
        raise ZeroTotal("graph has no parametric operators to account for")
    return total_p, total_q


def structure_partials(coloring: Coloring, widths: np.ndarray) -> np.ndarray:
    """Partial derivatives of the relaxed totals w.r.t. each group's
    effective width: rows ``dP/dc`` and ``dQ/dc``, indexed by group id."""
    t = coloring.costs
    c_in, c_out = t.u @ widths, t.v @ widths
    return (t.quad * c_out) @ t.u + (t.quad * c_in + t.lin) @ t.v


def structure_measures(
    graph: Graph,
    coloring: Coloring,
    widths: np.ndarray | None,
    shapes: dict[str, TensorShape],
    baseline: tuple[float, float] | None = None,
) -> CostReport:
    """Evaluate the cost model of ``graph`` at ``shapes``, as compiled into
    ``coloring.costs``, at the effective group ``widths`` (indexed by group
    id; None means every channel on).

    ``baseline`` optionally overrides the fully-on denominators; a workflow
    that physically rewrites its graph passes the original model's totals so
    ``sigma_p`` / ``sigma_q`` keep measuring "fraction of the original cost".
    """
    params, flops = _costs(coloring, widths)
    total_p, total_q = _totals(coloring, baseline)
    relaxed_p, relaxed_q = float(params.sum()), float(flops.sum())
    return CostReport(
        per_op={
            nid: OpCost(p, q) for nid, p, q in zip(coloring.costs.nodes, params.tolist(), flops.tolist())
        },
        total_params=total_p,
        total_flops=total_q,
        relaxed_params=relaxed_p,
        relaxed_flops=relaxed_q,
        sigma_p=relaxed_p / total_p,
        sigma_q=relaxed_q / total_q,
        notes=coloring.costs.notes,
    )


def structure_grads(
    coloring: Coloring, widths: np.ndarray, baseline: tuple[float, float] | None = None
) -> np.ndarray:
    """Exact gradients of the relative measures w.r.t. each group's effective
    width: rows ``d sigma_p / dc`` and ``d sigma_q / dc``, indexed by group id."""
    total_p, total_q = _totals(coloring, baseline)
    return structure_partials(coloring, widths) / [[total_p], [total_q]]
