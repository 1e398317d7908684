"""Binary masking and structural rewriting of gated graphs.

Masking snaps each gate to 0/1 by thresholding its gain. The masked model is
the original graph with fixed per-channel multipliers: surviving gate-site
channels keep their soft gains, masked-off channels and everything that is
structurally zero downstream of them are clamped to exactly zero. The
rewriter then produces a physically smaller graph — channels sliced out of
kernels, starved operators removed, degenerate joins spliced — whose outputs
match the masked model's to float tolerance, which is checked, not assumed.

Channel liveness (:func:`alive_channels`) alone decides a cut, and zero
propagation makes removal exact: convolutions are bias-free, so an operator
whose inputs are all structurally zero produces zeros; a normalisation
inherits its input's dead channels and is clamped there, because removing it
also removes the shift it would otherwise reintroduce. A group keeps the
channels that are alive on any tensor carrying it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .accounting import structure_measures
from .engine import Weights, forward
from .errors import EmptyNetwork, InvalidConfig, ShapeDrift
from .graph import Graph, OpKind, OperatorNode, TensorShape, infer_shapes
from .relax import GateSet, MaskSet, gate_scales, init_gates, scale_sites, snapshot
from .subgraph import Coloring, identify_subgraphs

_CLAMPED = (OpKind.CONV, OpKind.FULLY_CONNECTED, OpKind.BATCH_NORM)


# -- masking ---------------------------------------------------------------------


def threshold_masks(gates: GateSet, tau: float, min_keep: int = 0) -> MaskSet:
    """Binary keep-masks: channel survives iff its gain exceeds ``tau``.

    ``min_keep > 0`` rescues that many highest-gain channels in any group the
    threshold would otherwise empty below it; the default lets groups die
    entirely, which the rewriter turns into operator removal.
    """
    if not 0.0 <= tau < 1.0:
        raise InvalidConfig(f"threshold must lie in [0, 1), got {tau}")
    masks: dict[int, np.ndarray] = {}
    for gid, gains in sorted(snapshot(gates).items()):
        mask = (gains > tau).astype(np.int8)
        if min_keep and int(mask.sum()) < min_keep:
            top = np.argsort(-gains, kind="stable")[: min(min_keep, gains.size)]
            mask = np.zeros_like(mask)
            mask[top] = 1
        masks[gid] = mask
    return MaskSet(masks=masks, threshold=tau)


def _own_mask(coloring: Coloring, masks: MaskSet, nid: str) -> np.ndarray:
    """Keep-mask of the one group a Convolution/FullyConnected output seeds;
    every channel is on where the group is not prunable or not masked."""
    (seg,) = coloring.node_segments[nid]
    mask = masks.masks.get(seg.group) if coloring.group(seg.group).prunable else None
    return np.ones(seg.width, dtype=bool) if mask is None else mask.astype(bool)


def alive_channels(
    graph: Graph, coloring: Coloring, masks: MaskSet
) -> dict[str, np.ndarray]:
    """Per-node boolean flags for output channels that can carry signal.

    Every entry channel is on. A convolution or fully-connected layer keeps
    its own mask, and nothing if all its input channels are dead; sums die
    only with all their operands, products with any factor, concatenations
    lay their inputs side by side, and every other operator copies its
    input's flags. A normalisation thus inherits its input's death (the
    masked model clamps it, the rewrite removes it): its flags already lie
    within its groups' masks, as every node's do.
    """
    alive: dict[str, np.ndarray] = {}
    for nid in graph.topo_order():
        node = graph.nodes[nid]
        ins = [alive[p] for p in graph.inputs(nid)]
        if node.kind == OpKind.INPUT:
            flags = np.ones(coloring.node_segments[nid][0].width, dtype=bool)
        elif nid in coloring.producers:
            flags = _own_mask(coloring, masks, nid) & bool(np.any(ins[0]))
        elif node.kind == OpKind.SUM:
            flags = np.logical_or.reduce(ins)
        elif node.kind == OpKind.PRODUCT:
            flags = np.logical_and.reduce(ins)
        elif node.kind == OpKind.CONCAT:
            flags = np.concatenate(ins)
        else:  # BatchNorm, ReLU, MaxPool, Upsample, Output, Unknown
            flags = ins[0].copy()
        alive[nid] = flags
    return alive


def masked_scales(
    graph: Graph,
    coloring: Coloring,
    gates: GateSet,
    masks: MaskSet,
) -> dict[str, np.ndarray]:
    """Per-node multipliers realising the masked model via ``node_scales``.

    Gate sites are scaled by gain-times-alive (zero on dead channels, the
    soft gain on survivors). Any other convolution, fully-connected or
    normalisation output with a dead channel is clamped by its alive pattern,
    so no shift term survives on a structurally dead channel.
    """
    alive = alive_channels(graph, coloring, masks)
    gains = gate_scales(coloring, snapshot(gates))
    scales: dict[str, np.ndarray] = {}
    for nid, flags in alive.items():
        if nid in gains:
            scales[nid] = flags * gains[nid]
        elif graph.nodes[nid].kind in _CLAMPED and not np.all(flags):
            scales[nid] = flags.astype(np.float64)
    return scales


# -- structural rewrite ------------------------------------------------------------


@dataclass(frozen=True)
class GroupPruneRecord:
    group: int
    width: int
    kept: int


@dataclass
class PruneReport:
    """One cut's decisions and costs; a workflow writes it as ``prune_step_NN.json``."""

    threshold: float
    groups: list[GroupPruneRecord]
    removed_nodes: tuple[str, ...]
    params_before: float
    flops_before: float
    params_after: float
    flops_after: float
    residual: float | None = None
    output_max: float | None = None
    notes: tuple[str, ...] = ()


@dataclass
class PruneResult:
    graph: Graph
    weights: Weights
    coloring: Coloring
    gates: GateSet
    shapes: dict[str, TensorShape]
    report: PruneReport


def rewrite(
    graph: Graph,
    coloring: Coloring,
    weights: Weights,
    gates: GateSet,
    masks: MaskSet,
    shapes: dict[str, TensorShape],
) -> PruneResult:
    """Build the physically smaller network implied by binary masks.

    Kept channels are sliced out of every kernel and per-channel array; nodes
    whose outputs are entirely dead are removed; joins left with one operand
    are spliced away; anything no longer on a path to the exit is dropped.
    Gate scores for surviving channels carry over to the new graph's groups;
    a group the cut made prunable gets a fresh score from
    :func:`~prunekit.relax.init_gates`, in the gate set's dtype, and its gate
    sites' arrays are divided by that score's gain, so the new graph still
    runs those channels at gain 1. An ungated network (empty ``gates``) stays
    ungated.
    """
    alive = alive_channels(graph, coloring, masks)
    if not np.any(alive[graph.exit]):
        raise EmptyNetwork("masking left no live channel at the network output")

    # A group keeps the channels alive on any tensor that carries it
    # (cascaded starvation can kill channels the raw mask kept).
    flags = [np.zeros(g.width, dtype=bool) for g in coloring.groups]
    for nid, node_flags in alive.items():
        offset = 0
        for seg in coloring.node_segments[nid]:
            flags[seg.group] |= node_flags[offset:offset + seg.width]
            offset += seg.width
    keep = {g.id: np.flatnonzero(flags[g.id]) for g in coloring.groups}

    # One walk in topological order maps each live node to the node whose
    # tensor it becomes (its own, or a Sum/Concatenation's one live operand's,
    # which splices the join away) and to the positions in its own channel
    # layout that the new tensor holds, so a consumer slices the right
    # columns however its inputs were spliced.
    source: dict[str, str] = {}
    inputs_of: dict[str, list[str]] = {}
    cols: dict[str, np.ndarray] = {}
    for nid in graph.topo_order():
        if not np.any(alive[nid]):
            continue
        kind, preds = graph.nodes[nid].kind, graph.inputs(nid)
        live = [p for p in preds if p in source]
        if kind == OpKind.INPUT or nid in coloring.producers:
            cols[nid] = keep[coloring.node_segments[nid][0].group]
        elif kind == OpKind.CONCAT:
            starts = np.cumsum([0] + [len(alive[p]) for p in preds])
            cols[nid] = np.concatenate([s + cols[p] for p, s in zip(preds, starts) if p in source])
        else:
            cols[nid] = cols[live[0]]
        if kind in (OpKind.SUM, OpKind.CONCAT) and len(live) == 1:
            source[nid] = source[live[0]]
        else:
            source[nid], inputs_of[nid] = nid, [source[p] for p in live]

    # Keep what the exit still depends on.
    useful = {graph.exit}
    stack = [graph.exit]
    while stack:
        for p in inputs_of[stack.pop()]:
            if p not in useful:
                useful.add(p)
                stack.append(p)
    if graph.entry not in useful:
        raise EmptyNetwork("network exit no longer depends on its input")
    kept_ids = [nid for nid in graph.nodes if nid in useful]

    # Assemble the new graph with updated channel attributes.
    new_nodes: dict[str, OperatorNode] = {}
    new_edges: list[tuple[str, str, int]] = []
    for nid in kept_ids:
        node = graph.nodes[nid]
        attrs = dict(node.attrs)
        if nid in coloring.producers:
            attrs["in_channels"] = len(cols[graph.inputs(nid)[0]])
            attrs["out_channels"] = len(cols[nid])
        new_nodes[nid] = replace(node, attrs=attrs)
        for slot, p in enumerate(inputs_of[nid]):
            new_edges.append((p, nid, slot))

    new_graph = Graph(
        nodes=new_nodes, edges=tuple(new_edges), entry=graph.entry, exit=graph.exit
    )
    entry_shape = shapes[graph.entry]
    new_shapes = infer_shapes(new_graph, entry_shape)

    # Slice weights down to the kept channels (axis 0 output, axis 1 input).
    new_weights: Weights = {}
    for nid in kept_ids:
        if nid in weights:
            out_idx, in_idx = cols[nid], cols[graph.inputs(nid)[0]]
            new_weights[nid] = {
                name: (arr[out_idx][:, in_idx] if arr.ndim > 1 else arr[out_idx]).copy()
                for name, arr in weights[nid].items()
            }

    new_coloring = identify_subgraphs(new_graph, new_shapes)

    # Carry surviving gate scores over to the new grouping: a new group takes
    # the scores of the old group that its first producer (by node id) seeded;
    # a group the cut made prunable keeps its fresh score, whose gain is divided out.
    new_gates = replace(gates, values={})
    if gates.values:
        dtype = next(iter(gates.values.values())).dtype
        new_gates = init_gates(new_coloring, gates.steepness, gates.stiffening_sd, dtype=dtype)
        fresh_gains = snapshot(new_gates)
        old_group: dict[int, int] = {}
        for nid in sorted(new_coloring.producers):
            old_group.setdefault(new_coloring.producers[nid], coloring.producers[nid])
        for gid in new_gates.values:
            old_gid = old_group[gid]
            if old_gid in gates.values:
                new_gates.values[gid] = gates.values[old_gid][keep[old_gid]]
                del fresh_gains[gid]
        scale_sites(new_coloring, fresh_gains, new_weights, np.divide)

    # Integer structure counts of the kept operators at the binary masks (old
    # graph, effective widths) and of the rewritten graph.
    sums = [len(keep[g.id]) for g in coloring.groups]
    before = structure_measures(graph, coloring, sums, shapes)
    kept_before = [before.per_op[nid] for nid in kept_ids]
    after = structure_measures(new_graph, new_coloring, None, new_shapes)

    report = PruneReport(
        threshold=masks.threshold,
        groups=[
            GroupPruneRecord(group=g.id, width=g.width, kept=int(len(keep[g.id])))
            for g in coloring.prunable_groups()
        ],
        removed_nodes=tuple(sorted(set(graph.nodes) - useful)),
        params_before=sum(cost.params for cost in kept_before),
        flops_before=sum(cost.flops for cost in kept_before),
        params_after=after.relaxed_params,
        flops_after=after.relaxed_flops,
        notes=after.notes,
    )
    return PruneResult(
        graph=new_graph,
        weights=new_weights,
        coloring=new_coloring,
        gates=new_gates,
        shapes=new_shapes,
        report=report,
    )


def verify_equivalence(
    graph: Graph,
    coloring: Coloring,
    weights: Weights,
    gates: GateSet,
    masks: MaskSet,
    result: PruneResult,
    input_shape: TensorShape,
    probes: int = 16,
    seed: int = 0,
) -> float:
    """Max |masked - rewritten| over random probes in evaluation mode.

    The masked model runs the original graph with the mask/gain multipliers;
    the rewritten model runs the sliced graph with its carried-over gates.
    The residual and the largest |masked output| are also recorded on
    ``result.report``. Raises :class:`ShapeDrift` if the two disagree on the
    output shape.
    """
    rng = np.random.default_rng(seed)
    scales = masked_scales(graph, coloring, gates, masks)
    new_scales = gate_scales(result.coloring, snapshot(result.gates))
    worst = 0.0
    ref_max = 0.0
    for _ in range(probes):
        x = rng.standard_normal((input_shape.batch, input_shape.channels, *input_shape.spatial))
        x = x.astype(np.float32)
        ref = forward(
            graph, weights, x, node_scales=scales, training=False, tape=False
        ).output
        new = forward(
            result.graph, result.weights, x, node_scales=new_scales, training=False, tape=False
        ).output
        if ref.shape != new.shape:
            raise ShapeDrift(f"outputs drifted from {ref.shape} to {new.shape}")
        if ref.size:
            # np.maximum, unlike max(), keeps a NaN residual.
            worst = float(np.maximum(worst, np.max(np.abs(ref - new))))
            ref_max = max(ref_max, float(np.max(np.abs(ref))))
    result.report.residual = worst
    result.report.output_max = ref_max
    return worst


# -- gain folding -------------------------------------------------------------------


def fold_gates(coloring: Coloring, gates: GateSet, weights: Weights) -> Weights:
    """Bake the soft gains into the weights so the gates can be dropped.

    Every array of each gate site is scaled along its output-channel axis 0
    by the site's gains (:func:`~prunekit.relax.scale_sites`), so the result
    matches the gated network exactly in both training and evaluation modes.
    """
    new_weights: Weights = {
        nid: {name: arr.copy() for name, arr in per.items()} for nid, per in weights.items()
    }
    scale_sites(coloring, snapshot(gates), new_weights, np.multiply)
    return new_weights
