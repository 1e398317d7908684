"""Binary masking and structural rewriting of gated graphs.

Masking snaps each gate to 0/1 by thresholding its gain. The masked model is
the original graph with fixed per-channel multipliers: surviving producer
channels keep their soft gains, masked-off channels and everything that is
structurally zero downstream of them are clamped to exactly zero. The
rewriter then produces a physically smaller graph — channels sliced out of
kernels, starved operators removed, degenerate joins spliced — whose outputs
match the masked model's to float tolerance, which is checked, not assumed.

Zero propagation is what makes removal exact: convolutions are bias-free, so
an operator whose inputs are all structurally zero produces zeros, and a
normalisation whose input channel is structurally zero is clamped because its
removal also removes the shift it would otherwise reintroduce.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .accounting import structure_measures
from .engine import BN_EPS, Weights, forward
from .errors import (
    EmptyNetwork,
    GraphStructureError,
    InvalidConfig,
    LengthMismatch,
    NoFoldTarget,
    ShapeDrift,
)
from .graph import Graph, OpKind, OperatorNode, TensorShape, infer_shapes
from .relax import GateSet, MaskSet, sigma
from .subgraph import (
    ROLE_BN,
    ROLE_CONV_OUT,
    ROLE_FC_OUT,
    Coloring,
    identify_subgraphs,
)

_PRODUCER_ROLES = (ROLE_CONV_OUT, ROLE_FC_OUT)


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
    for gid in sorted(gates.values):
        gains = sigma(gates.values[gid], gates.steepness)
        mask = (gains > tau).astype(np.int8)
        if min_keep and int(mask.sum()) < min_keep:
            top = np.argsort(-gains, kind="stable")[: min(min_keep, gains.size)]
            mask = np.zeros_like(mask)
            mask[top] = 1
        masks[gid] = mask
    return MaskSet(masks=masks, threshold=tau)


def _group_mask(coloring: Coloring, masks: MaskSet, gid: int) -> np.ndarray:
    group = coloring.group(gid)
    if group.prunable and gid in masks.masks:
        return masks.masks[gid].astype(bool)
    return np.ones(group.width, dtype=bool)


def _node_mask(coloring: Coloring, masks: MaskSet, nid: str) -> np.ndarray:
    """Concatenated keep-mask across the segments of a node's output."""
    parts = [_group_mask(coloring, masks, seg.group) for seg in coloring.node_segments[nid]]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def alive_channels(
    graph: Graph, coloring: Coloring, masks: MaskSet
) -> dict[str, np.ndarray]:
    """Per-node boolean flags for output channels that can carry signal.

    A channel is dead when its own mask is off or when zeros are forced on it
    structurally: a convolution or fully-connected layer whose inputs are all
    dead emits nothing, a normalisation inherits its input's death (the
    masked model clamps it, the rewrite removes it), products die with any
    dead factor, sums only with all of them.
    """
    alive: dict[str, np.ndarray] = {}
    for nid in graph.topo_order():
        node = graph.nodes[nid]
        ins = [alive[p] for p in graph.inputs(nid)]
        if node.kind == OpKind.INPUT:
            flags = np.ones(coloring.group(coloring.node_segments[nid][0].group).width, dtype=bool)
        elif node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED):
            flags = _node_mask(coloring, masks, nid) & bool(np.any(ins[0]))
        elif node.kind == OpKind.BATCH_NORM:
            flags = _node_mask(coloring, masks, nid) & ins[0]
        elif node.kind == OpKind.SUM:
            flags = np.logical_or.reduce(ins)
        elif node.kind == OpKind.PRODUCT:
            flags = np.logical_and.reduce(ins)
        elif node.kind == OpKind.CONCAT:
            flags = np.concatenate(ins)
        else:  # ReLU, MaxPool, Upsample, Output, Unknown: channel-preserving
            flags = ins[0].copy()
        alive[nid] = flags
    return alive


def masked_scales(
    graph: Graph,
    coloring: Coloring,
    gates: GateSet | None,
    masks: MaskSet,
) -> dict[str, np.ndarray]:
    """Per-node multipliers realising the masked model via ``node_scales``.

    Producer outputs are scaled by gain-times-alive (zero on dead channels,
    the soft gain on survivors); normalisation outputs are clamped by their
    alive pattern so no shift term survives on a structurally dead channel.
    """
    alive = alive_channels(graph, coloring, masks)
    scales: dict[str, np.ndarray] = {}
    for group in coloring.groups:
        gains = None
        if gates is not None and group.id in gates.values:
            gains = sigma(gates.values[group.id], gates.steepness)
        for member in group.members:
            seg_alive = alive[member.node]
            if member.role in _PRODUCER_ROLES:
                vec = seg_alive.astype(np.float64)
                if gains is not None:
                    vec = vec * gains
                scales[member.node] = vec
            elif member.role == ROLE_BN:
                # Only override when clamping actually does something, so the
                # scale map stays minimal.
                if not np.all(seg_alive):
                    scales[member.node] = seg_alive.astype(np.float64)
    return scales


# -- structural rewrite ------------------------------------------------------------


@dataclass(frozen=True)
class GroupPruneRecord:
    group: int
    width: int
    kept: int


@dataclass
class PruneReport:
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

    def to_text(self) -> str:
        lines = [
            f"threshold {self.threshold}",
            f"params  {self.params_before:.0f} -> {self.params_after:.0f}",
            f"flops   {self.flops_before:.0f} -> {self.flops_after:.0f}",
        ]
        if self.residual is not None:
            lines.append(f"masked-vs-rewritten residual {self.residual:.3e}")
        for rec in self.groups:
            lines.append(f"group {rec.group}: kept {rec.kept}/{rec.width}")
        if self.removed_nodes:
            lines.append("removed: " + " ".join(self.removed_nodes))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


@dataclass
class PruneResult:
    graph: Graph
    weights: Weights
    coloring: Coloring
    gates: GateSet | None
    shapes: dict[str, TensorShape]
    report: PruneReport
    node_scales: dict[str, np.ndarray] = field(default_factory=dict)


def rewrite(
    graph: Graph,
    coloring: Coloring,
    weights: Weights,
    gates: GateSet | None,
    masks: MaskSet,
    shapes: dict[str, TensorShape],
) -> PruneResult:
    """Build the physically smaller network implied by binary masks.

    Kept channels are sliced out of every kernel and per-channel array; nodes
    whose outputs are entirely dead are removed; joins left with one operand
    are spliced away; anything no longer on a path to the exit is dropped.
    Gate scores for surviving channels carry over to the new graph's groups.
    """
    alive = alive_channels(graph, coloring, masks)
    if not np.any(alive[graph.exit]):
        raise EmptyNetwork("masking left no live channel at the network output")

    # Effective keep per group: a channel survives if any producer-side member
    # still carries signal for it (cascaded starvation can kill channels the
    # raw mask kept).
    keep: dict[int, np.ndarray] = {}
    for group in coloring.groups:
        flags = np.zeros(group.width, dtype=bool)
        seen_producer = False
        for member in group.members:
            if member.role in _PRODUCER_ROLES or member.role == ROLE_BN:
                seen_producer = True
                flags |= alive[member.node][member.offset:member.offset + group.width]
        if not seen_producer:  # entry-fed group: always fully live
            flags[:] = True
        keep[group.id] = np.flatnonzero(flags)

    def node_keep(nid: str) -> np.ndarray:
        pieces = []
        offset = 0
        for seg in coloring.node_segments[nid]:
            pieces.append(offset + keep[seg.group])
            offset += seg.width
        return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)

    removed = {nid for nid, flags in alive.items() if not np.any(flags)}
    if graph.exit in removed or graph.entry in removed:
        raise EmptyNetwork("masking disconnected the network entry from its exit")

    # Resolve joins that lose operands: a Sum/Concatenation down to a single
    # live input forwards it; one with no live inputs must itself be dead.
    redirect: dict[str, str] = {}

    def resolve(nid: str) -> str:
        while nid in redirect:
            nid = redirect[nid]
        return nid

    for nid in graph.topo_order():
        if nid in removed:
            continue
        node = graph.nodes[nid]
        live_ins = [p for p in graph.inputs(nid) if resolve(p) not in removed]
        if node.kind in (OpKind.SUM, OpKind.CONCAT) and len(live_ins) == 1:
            redirect[nid] = resolve(live_ins[0])
            removed.add(nid)
        elif node.kind != OpKind.INPUT and not live_ins:
            raise GraphStructureError(
                f"live node {nid!r} lost every input during rewriting"
            )

    # Drop nodes with no remaining path to the exit.
    kept_ids = [nid for nid in graph.nodes if nid not in removed]
    consumers_of: dict[str, list[str]] = {nid: [] for nid in kept_ids}
    inputs_of: dict[str, list[str]] = {}
    for nid in kept_ids:
        ins = [resolve(p) for p in graph.inputs(nid) if resolve(p) not in removed]
        inputs_of[nid] = ins
        for p in ins:
            consumers_of[p].append(nid)
    useful = {graph.exit}
    stack = [graph.exit]
    while stack:
        for p in inputs_of[stack.pop()]:
            if p not in useful:
                useful.add(p)
                stack.append(p)
    if graph.entry not in useful:
        raise EmptyNetwork("network exit no longer depends on its input")
    dce = [nid for nid in kept_ids if nid not in useful]
    removed.update(dce)
    kept_ids = [nid for nid in kept_ids if nid in useful]

    # Assemble the new graph with updated channel attributes.
    new_nodes: dict[str, OperatorNode] = {}
    new_edges: list[tuple[str, str, int]] = []
    for nid in kept_ids:
        node = graph.nodes[nid]
        attrs = dict(node.attrs)
        if node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED):
            attrs["in_channels"] = int(len(node_keep(inputs_of[nid][0])))
            attrs["out_channels"] = int(len(node_keep(nid)))
        new_nodes[nid] = replace(node, attrs=attrs)
        for slot, p in enumerate(inputs_of[nid]):
            new_edges.append((p, nid, slot))

    new_graph = Graph(
        nodes=new_nodes, edges=tuple(new_edges), entry=graph.entry, exit=graph.exit
    )
    entry_shape = shapes[graph.entry]
    new_shapes = infer_shapes(new_graph, entry_shape)

    # Slice weights down to the kept channels.
    new_weights: Weights = {}
    for nid in kept_ids:
        if nid not in weights:
            continue
        node = graph.nodes[nid]
        out_idx = node_keep(nid)
        arrays = weights[nid]
        if node.kind == OpKind.CONV:
            in_idx = node_keep(inputs_of[nid][0])
            new_weights[nid] = {"kernel": arrays["kernel"][out_idx][:, in_idx].copy()}
        elif node.kind == OpKind.FULLY_CONNECTED:
            in_idx = node_keep(inputs_of[nid][0])
            new_weights[nid] = {
                "weight": arrays["weight"][out_idx][:, in_idx].copy(),
                "bias": arrays["bias"][out_idx].copy(),
            }
        elif node.kind == OpKind.BATCH_NORM:
            new_weights[nid] = {name: arr[out_idx].copy() for name, arr in arrays.items()}

    new_coloring = identify_subgraphs(new_graph, new_shapes)

    # Carry surviving gate scores over to the new grouping, located through
    # each new group's first producing member.
    new_gates: GateSet | None = None
    if gates is not None:
        new_values: dict[int, np.ndarray] = {}
        for group in new_coloring.prunable_groups():
            producer = next(
                (m.node for m in group.members if m.role in _PRODUCER_ROLES), None
            )
            if producer is None:
                continue
            old_gid = coloring.producer_group(producer)
            if old_gid in gates.values:
                carried = gates.values[old_gid][keep[old_gid]]
            else:
                carried = np.full(group.width, 1.0 / gates.steepness, dtype=np.float32)
            if carried.shape[0] != group.width:
                raise LengthMismatch(
                    f"carried scores for group {group.id} have width "
                    f"{carried.shape[0]}, expected {group.width}"
                )
            new_values[group.id] = carried.copy()
        new_gates = GateSet(
            values=new_values, steepness=gates.steepness, stiffening_sd=gates.stiffening_sd
        )

    # Integer structure counts at the binary masks (old graph, effective
    # widths) and of the rewritten graph.
    sums = {g.id: float(len(keep[g.id])) for g in coloring.groups}
    before = structure_measures(graph, coloring, None, shapes, channel_sums=sums)
    after = structure_measures(new_graph, new_coloring, None, new_shapes)

    report = PruneReport(
        threshold=masks.threshold,
        groups=[
            GroupPruneRecord(group=g.id, width=g.width, kept=int(len(keep[g.id])))
            for g in coloring.prunable_groups()
        ],
        removed_nodes=tuple(sorted(removed)),
        params_before=before.relaxed_params,
        flops_before=before.relaxed_flops,
        params_after=after.relaxed_params,
        flops_after=after.relaxed_flops,
        notes=after.notes,
    )
    scales = masked_scales(graph, coloring, gates, masks)
    return PruneResult(
        graph=new_graph,
        weights=new_weights,
        coloring=new_coloring,
        gates=new_gates,
        shapes=new_shapes,
        report=report,
        node_scales=scales,
    )


def verify_equivalence(
    graph: Graph,
    coloring: Coloring,
    weights: Weights,
    gates: GateSet | None,
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
    worst = 0.0
    ref_max = 0.0
    for _ in range(probes):
        x = rng.standard_normal((input_shape.batch, input_shape.channels, *input_shape.spatial))
        x = x.astype(np.float32)
        ref = forward(graph, weights, x, node_scales=scales, training=False).output
        new = forward(
            result.graph,
            result.weights,
            x,
            coloring=result.coloring if result.gates is not None else None,
            gates=result.gates,
            training=False,
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


FOLD_PRODUCER = "producer"
FOLD_NORM = "norm"


def fold_gates(
    graph: Graph,
    coloring: Coloring,
    gates: GateSet,
    weights: Weights,
    mode: str = FOLD_PRODUCER,
) -> Weights:
    """Bake the soft gains into the weights so the gates can be dropped.

    ``producer`` scales each producing kernel's output channels (and a
    fully-connected layer's bias); the result matches the gated network
    exactly in both training and evaluation modes. ``norm`` instead rewrites
    the following normalisation's scale-and-shift — equivalent in evaluation
    mode only, since training-mode statistics absorb any pre-normalisation
    scaling. Raises :class:`NoFoldTarget` when the requested site is missing.
    """
    if mode not in (FOLD_PRODUCER, FOLD_NORM):
        raise NoFoldTarget(f"unknown fold mode {mode!r}")
    new_weights: Weights = {
        nid: {name: arr.copy() for name, arr in per.items()} for nid, per in weights.items()
    }
    for group in coloring.prunable_groups():
        if group.id not in gates.values:
            continue
        gains = sigma(gates.values[group.id], gates.steepness)
        producers = [m.node for m in group.members if m.role in _PRODUCER_ROLES]
        if not producers:
            raise NoFoldTarget(f"group {group.id} has no producing operator to fold into")
        for nid in producers:
            node = graph.nodes[nid]
            if mode == FOLD_PRODUCER:
                if node.kind == OpKind.CONV:
                    new_weights[nid]["kernel"] *= gains[:, None, None, None].astype(
                        new_weights[nid]["kernel"].dtype
                    )
                else:
                    g = gains.astype(new_weights[nid]["weight"].dtype)
                    new_weights[nid]["weight"] *= g[:, None]
                    new_weights[nid]["bias"] *= g
            else:
                bn = next(
                    (
                        c
                        for c in graph.consumers(nid)
                        if graph.nodes[c].kind == OpKind.BATCH_NORM
                    ),
                    None,
                )
                if bn is None:
                    raise NoFoldTarget(
                        f"group {group.id}: producer {nid!r} feeds no normalisation"
                    )
                arrs = new_weights[bn]
                g = gains.astype(arrs["gamma"].dtype)
                inv = 1.0 / np.sqrt(arrs["running_var"].astype(np.float64) + BN_EPS)
                correction = (
                    arrs["gamma"].astype(np.float64)
                    * arrs["running_mean"].astype(np.float64)
                    * (gains.astype(np.float64) - 1.0)
                    * inv
                )
                arrs["beta"] = (arrs["beta"].astype(np.float64) + correction).astype(
                    arrs["beta"].dtype
                )
                arrs["gamma"] = arrs["gamma"] * g
    return new_weights
