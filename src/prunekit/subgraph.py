"""Channel-group analysis.

Structured pruning removes whole channels, and a channel rarely belongs to a
single operator: it is produced by a convolution, normalised by a BatchNorm,
fed into downstream convolutions, and may be tied to channels of *other*
convolutions through element-wise Sum/Product operators (skip connections) or
routed side by side through Concatenation. This module partitions all
channel positions of a graph into groups that must keep or drop each channel
index together.

Rules applied while walking the graph in topological order:

* Convolution / FullyConnected outputs each seed a fresh group.
* The entry tensor seeds a non-prunable group (raw data channels).
* Channel-preserving operators (BatchNorm, ReLU, MaxPool, Upsample, Output)
  propagate group identity unchanged.
* Sum and ElementwiseProduct require their inputs to carry the same channel
  layout and merge the corresponding groups (union-find).
* Concatenation keeps the incoming groups side by side as segments with
  channel offsets; no new group is created.
* Unknown operators make every group flowing through them non-prunable, as
  does feeding the network output (the logits are never pruned).

The same walk records the group each Convolution/FullyConnected output seeds
(``Coloring.producers``, where :mod:`prunekit.relax` puts the gates), and
where each group's channels meet parametric operators, which numbers the
groups (see :func:`identify_subgraphs`).

The result also carries the graph's :class:`CostTable`, plain data: every
operator's cost as a polynomial in the group widths, by the rule in
:func:`cost_coefficients`, for :mod:`prunekit.accounting` to evaluate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentWidths
from .graph import Graph, OpKind, TensorShape


@dataclass(frozen=True)
class Segment:
    """A contiguous run of channels on a tensor belonging to one group."""

    group: int
    width: int


@dataclass(frozen=True)
class ChannelGroup:
    id: int
    width: int
    prunable: bool


_POOL_NOTE = "MaxPool/Upsample FLOPs are approximated as element-wise maps over their input"
_NOTES = {
    OpKind.UNKNOWN: "graph contains Unknown operators counted as zero cost",
    OpKind.MAX_POOL: _POOL_NOTE,
    OpKind.UPSAMPLE: _POOL_NOTE,
}


def cost_coefficients(
    kind: OpKind, kernel_size: int, out_shape: TensorShape, in_shape: TensorShape | None
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The per-kind cost rule as ``((p2, q2), (p1, q1))``: an operator with
    ``c_in`` input and ``c_out`` output channels has ``p2*c_in*c_out +
    p1*c_out`` parameters and ``q2*c_in*c_out + q1*c_out`` multiply-accumulates.

    ``kernel_size`` is the kernel's element count. A convolution's parameters
    have no bias term while its FLOPs count ``+1`` per output element; pruned
    graphs follow the same rule, so ratios stay comparable. MaxPool and
    Upsample have no canonical cost: they count as element-wise maps over
    their input (``in_shape``), and reports carry a note saying so.
    """
    if kind == OpKind.CONV:
        d = out_shape.spatial_size()
        return (kernel_size, d * kernel_size), (0, d)
    if kind == OpKind.FULLY_CONNECTED:
        return (1, 1), (1, 1)
    if kind in (OpKind.BATCH_NORM, OpKind.RELU, OpKind.SUM, OpKind.PRODUCT):
        p1 = 2 if kind == OpKind.BATCH_NORM else 0
        return (0, 0), (p1, out_shape.batch * out_shape.spatial_size())
    if kind in (OpKind.MAX_POOL, OpKind.UPSAMPLE):
        return (0, 0), (0, in_shape.batch * in_shape.spatial_size())
    return (0, 0), (0, 0)


@dataclass(frozen=True, eq=False)
class CostTable:
    """Every operator's ``[params, flops]`` as a polynomial in the group widths.

    Entry ``i`` is ``nodes[i]`` (topological order). At group widths ``c``
    its input and output widths are ``u[i] @ c`` and ``v[i] @ c``, and
    columns ``i`` of ``quad``/``lin`` hold its :func:`cost_coefficients`.
    """

    nodes: tuple[str, ...]
    u: np.ndarray
    v: np.ndarray
    quad: np.ndarray
    lin: np.ndarray
    notes: tuple[str, ...]


@dataclass(frozen=True)
class Coloring:
    """Result of :func:`identify_subgraphs`.

    ``node_segments`` maps every node id to the ordered segments of its
    output tensor (an edge always carries its producer's full output);
    ``producers`` maps every Convolution/FullyConnected node, in topological
    order, to the group its output seeds; ``costs`` is the graph's compiled
    cost table.
    """

    groups: tuple[ChannelGroup, ...]
    node_segments: dict[str, tuple[Segment, ...]]
    producers: dict[str, int]
    costs: CostTable

    def group(self, group_id: int) -> ChannelGroup:
        return self.groups[group_id]

    def prunable_groups(self) -> tuple[ChannelGroup, ...]:
        return tuple(g for g in self.groups if g.prunable)


class _DisjointSet:
    """Union-find over provisional group handles with per-root payload."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.width: list[int] = []
        self.seed: list[str] = []
        self.blocked: list[bool] = []  # True once the group may not be pruned

    def make(self, width: int, seed: str, blocked: bool) -> int:
        handle = len(self.parent)
        self.parent.append(handle)
        self.width.append(width)
        self.seed.append(seed)
        self.blocked.append(blocked)
        return handle

    def find(self, h: int) -> int:
        root = h
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[h] != root:
            self.parent[h], h = root, self.parent[h]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.width[ra] != self.width[rb]:
            raise InconsistentWidths(
                f"cannot merge channel groups of widths {self.width[ra]} and {self.width[rb]}"
            )
        self.parent[rb] = ra
        self.blocked[ra] = self.blocked[ra] or self.blocked[rb]
        self.seed[ra] = min(self.seed[ra], self.seed[rb])
        return ra

    def block(self, h: int) -> None:
        self.blocked[self.find(h)] = True


def identify_subgraphs(graph: Graph, shapes: dict[str, TensorShape]) -> Coloring:
    """Partition the channel positions of ``graph`` into coupled groups.

    ``shapes`` must come from :func:`prunekit.graph.infer_shapes` on the same
    graph. The result is deterministic and independent of node insertion
    order: groups are numbered by the least ``(node, side, offset)`` where
    their channels enter (side 0) or leave (side 1) a Convolution,
    FullyConnected or BatchNorm, ``offset`` being the group's first channel
    in that tensor; a group with no such place is keyed ``(seed, -1, 0)`` by
    the node that seeded it.
    """
    dsu = _DisjointSet()
    desc: dict[str, list[tuple[int, int]]] = {}  # node -> [(handle, width)] segments
    places: list[tuple[int, tuple[str, int, int]]] = []  # (handle, key), resolved after all unions
    producers: dict[str, int] = {}  # node -> handle its output seeds

    def enter(nid: str, segs: list[tuple[int, int]]) -> None:
        offset = 0
        for handle, width in segs:
            places.append((handle, (nid, 0, offset)))
            offset += width

    for nid in graph.topo_order():
        node = graph.nodes[nid]
        kind = node.kind
        ins = graph.inputs(nid)
        if kind == OpKind.INPUT:
            h = dsu.make(shapes[nid].channels, seed=nid, blocked=True)
            desc[nid] = [(h, shapes[nid].channels)]
        elif kind in (OpKind.CONV, OpKind.FULLY_CONNECTED):
            enter(nid, desc[ins[0]])
            h = producers[nid] = dsu.make(shapes[nid].channels, seed=nid, blocked=False)
            places.append((h, (nid, 1, 0)))
            desc[nid] = [(h, shapes[nid].channels)]
        elif kind == OpKind.BATCH_NORM:
            enter(nid, desc[ins[0]])
            desc[nid] = list(desc[ins[0]])
        elif kind in (OpKind.RELU, OpKind.MAX_POOL, OpKind.UPSAMPLE):
            desc[nid] = list(desc[ins[0]])
        elif kind in (OpKind.SUM, OpKind.PRODUCT):
            desc[nid] = _merge_descriptors(dsu, nid, [desc[p] for p in ins])
        elif kind == OpKind.CONCAT:
            segs: list[tuple[int, int]] = []
            for p in ins:
                segs.extend(desc[p])
            desc[nid] = segs
        elif kind in (OpKind.UNKNOWN, OpKind.OUTPUT):
            for p in ins:
                for handle, _ in desc[p]:
                    dsu.block(handle)
            desc[nid] = list(desc[ins[0]])
        else:  # pragma: no cover - enum is closed
            raise InconsistentWidths(f"unhandled kind {kind!r}")

    # Resolve provisional handles to roots and number the groups.
    first: dict[int, tuple[str, int, int]] = {}
    for handle, key in places:
        root = dsu.find(handle)
        first[root] = min(first.get(root, key), key)
    roots = sorted(
        {dsu.find(h) for h in range(len(dsu.parent))},
        key=lambda r: first.get(r, (dsu.seed[r], -1, 0)),
    )
    group_ids = {root: i for i, root in enumerate(roots)}
    groups = tuple(
        ChannelGroup(id=group_ids[root], width=dsu.width[root], prunable=not dsu.blocked[root])
        for root in roots
    )
    node_segments = {
        nid: tuple(Segment(group_ids[dsu.find(h)], w) for h, w in segs)
        for nid, segs in desc.items()
    }
    producers = {nid: group_ids[dsu.find(h)] for nid, h in producers.items()}
    costs = _compile_costs(graph, shapes, node_segments, len(groups))
    return Coloring(groups, node_segments, producers, costs)


def _compile_costs(
    graph: Graph, shapes: dict[str, TensorShape], node_segments: dict, n_groups: int
) -> CostTable:
    order = graph.topo_order()
    u, v = np.zeros((2, len(order), n_groups))
    coefficients = []
    notes: set[str] = set()
    for i, nid in enumerate(order):
        node = graph.nodes[nid]
        ins = graph.inputs(nid)
        for seg in node_segments[ins[0]] if ins else ():
            u[i, seg.group] += 1
        for seg in node_segments[nid]:
            v[i, seg.group] += 1
        kernel_size = math.prod(node.attr("kernel")) if node.kind == OpKind.CONV else 1
        in_shape = shapes[ins[0]] if ins else None
        coefficients.append(cost_coefficients(node.kind, kernel_size, shapes[nid], in_shape))
        if node.kind in _NOTES:
            notes.add(_NOTES[node.kind])
    quad, lin = np.array(coefficients, dtype=np.float64).transpose(1, 2, 0)
    return CostTable(tuple(order), u, v, quad, lin, tuple(sorted(notes)))


def _merge_descriptors(
    dsu: _DisjointSet, node_id: str, descriptors: list[list[tuple[int, int]]]
) -> list[tuple[int, int]]:
    """Merge element-wise operands segment by segment.

    Segment boundaries must align across all operands; a Sum of, say, a
    concatenated ``4+4`` tensor with a plain ``8``-channel tensor would force
    half a group to share a mask with a whole one, which this representation
    deliberately rejects.
    """
    first = descriptors[0]
    for other in descriptors[1:]:
        if [w for _, w in other] != [w for _, w in first]:
            raise InconsistentWidths(
                f"element-wise node {node_id!r} merges tensors with segment widths "
                f"{[w for _, w in first]} vs {[w for _, w in other]}"
            )
    merged: list[tuple[int, int]] = []
    for i, (handle, width) in enumerate(first):
        root = handle
        for other in descriptors[1:]:
            root = dsu.union(root, other[i][0])
        merged.append((dsu.find(root), width))
    return merged
