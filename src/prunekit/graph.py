"""Operator-graph intermediate representation for convolutional networks.

A network is a directed acyclic multigraph of typed operator nodes. Every
node produces exactly one tensor shaped ``(batch, channels, *spatial)``
(channels-first); edges record which producer feeds which input slot of a
consumer. Graphs are treated as immutable after construction: rewriting
passes build new graphs instead of mutating.

Shape semantics per kind (``d`` = spatial extents, ``c`` = channels):

=====================  =======================================  ==============
kind                   input(s)                                 output
=====================  =======================================  ==============
Input                  --                                       as supplied
Convolution            ``(b, c_i) + d_i``                       ``(b, c_o) + d_o``
BatchNorm, ReLU        ``(b, c) + d``                           unchanged
Sum, ElementwiseProduct  n tensors, identical shapes            unchanged
Concatenation          n tensors, same batch/spatial            channels add
FullyConnected         ``(b, c_i)`` (unit spatial allowed)      ``(b, c_o)``
MaxPool                ``(b, c) + d``                           ``d // factor``
Upsample               ``(b, c) + d``                           ``d * factor``
Output                 one tensor                               unchanged
Unknown                anything                                 copies first input
=====================  =======================================  ==============

Convolution output extents use floor arithmetic with explicit symmetric zero
padding: ``d_o = (d_i + 2*padding - kernel) // stride + 1``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Any, Mapping

from .errors import (
    GraphStructureError,
    MissingAttribute,
    NonPositiveExtent,
    ShapeMismatch,
)

Edge = tuple[str, str, int]  # (producer id, consumer id, consumer input slot)


class OpKind(str, Enum):
    INPUT = "Input"
    OUTPUT = "Output"
    CONV = "Convolution"
    BATCH_NORM = "BatchNorm"
    RELU = "ReLU"
    SUM = "Sum"
    PRODUCT = "ElementwiseProduct"
    CONCAT = "Concatenation"
    FULLY_CONNECTED = "FullyConnected"
    MAX_POOL = "MaxPool"
    UPSAMPLE = "Upsample"
    UNKNOWN = "Unknown"


#: Per kind: the exact required attributes (``Unknown``'s are exempt, being
#: opaque) and the least and most input count (``None``: unbounded).
KIND_RULES: dict[OpKind, tuple[tuple[str, ...], int, int | None]] = {
    OpKind.INPUT: ((), 0, 0),
    OpKind.OUTPUT: ((), 1, 1),
    OpKind.CONV: (("in_channels", "out_channels", "kernel", "stride", "padding"), 1, 1),
    OpKind.BATCH_NORM: ((), 1, 1),
    OpKind.RELU: ((), 1, 1),
    OpKind.SUM: ((), 2, None),
    OpKind.PRODUCT: ((), 2, None),
    OpKind.CONCAT: ((), 2, None),
    OpKind.FULLY_CONNECTED: (("in_channels", "out_channels"), 1, 1),
    OpKind.MAX_POOL: (("factor",), 1, 1),
    OpKind.UPSAMPLE: (("factor",), 1, 1),
    OpKind.UNKNOWN: ((), 1, None),
}

#: Least value of each required attribute, an integer or a tuple of integers.
_LEAST = {"in_channels": 1, "out_channels": 1, "kernel": 1, "stride": 1, "padding": 0, "factor": 1}

#: Attributes with one value per spatial axis: a node's must share one rank.
_SPATIAL = ("kernel", "stride", "padding")

#: Reserved attribute holding the original kind token of an Unknown node.
KIND_NAME_ATTR = "kind_name"


@dataclass(frozen=True)
class TensorShape:
    """Shape of one activation tensor: ``(batch, channels) + spatial``."""

    batch: int
    channels: int
    spatial: tuple[int, ...] = ()

    def dims(self) -> tuple[int, ...]:
        return (self.batch, self.channels, *self.spatial)

    def size(self) -> int:
        n = 1
        for d in self.dims():
            n *= d
        return n

    def spatial_size(self) -> int:
        n = 1
        for d in self.spatial:
            n *= d
        return n

    def with_channels(self, channels: int) -> "TensorShape":
        return TensorShape(self.batch, channels, self.spatial)


@dataclass(frozen=True)
class OperatorNode:
    """One typed operator. ``attrs`` is the kind-specific attribute map."""

    id: str
    kind: OpKind
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def attr(self, name: str) -> Any:
        try:
            return self.attrs[name]
        except KeyError:
            raise MissingAttribute(f"node {self.id!r} ({self.kind.value}) lacks attribute {name!r}")


def _as_tuple(value: Any, rank: int = 2) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,) * rank
    return tuple(int(v) for v in value)


def conv_node(
    node_id: str,
    in_channels: int,
    out_channels: int,
    kernel: int | tuple[int, ...],
    stride: int | tuple[int, ...] = 1,
    padding: int | tuple[int, ...] = 0,
) -> OperatorNode:
    kernel_t = _as_tuple(kernel)
    rank = len(kernel_t)
    return OperatorNode(
        node_id,
        OpKind.CONV,
        {
            "in_channels": int(in_channels),
            "out_channels": int(out_channels),
            "kernel": kernel_t,
            "stride": _as_tuple(stride, rank),
            "padding": _as_tuple(padding, rank),
        },
    )


def fc_node(node_id: str, in_channels: int, out_channels: int) -> OperatorNode:
    return OperatorNode(
        node_id,
        OpKind.FULLY_CONNECTED,
        {"in_channels": int(in_channels), "out_channels": int(out_channels)},
    )


def simple_node(node_id: str, kind: OpKind, **attrs: Any) -> OperatorNode:
    return OperatorNode(node_id, kind, dict(attrs))


@dataclass(frozen=True)
class Graph:
    """Immutable operator DAG.

    ``edges`` are canonically ordered by ``(consumer, slot, producer)`` so two
    graphs with the same connectivity compare equal regardless of how they
    were assembled.
    """

    nodes: dict[str, OperatorNode]
    edges: tuple[Edge, ...]
    entry: str
    exit: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: (e[1], e[2], e[0]))))
        inputs: dict[str, list[tuple[int, str]]] = {nid: [] for nid in self.nodes}
        outputs: dict[str, list[Edge]] = {nid: [] for nid in self.nodes}
        for src, dst, slot in self.edges:
            if src not in self.nodes:
                raise GraphStructureError(f"edge references unknown producer {src!r}")
            if dst not in self.nodes:
                raise GraphStructureError(f"edge references unknown consumer {dst!r}")
            inputs[dst].append((slot, src))
            outputs[src].append((src, dst, slot))
        object.__setattr__(self, "_inputs", {k: tuple(s for _, s in sorted(v)) for k, v in inputs.items()})
        object.__setattr__(self, "_outputs", {k: tuple(v) for k, v in outputs.items()})
        object.__setattr__(self, "_topo", None)

    # -- structure queries ---------------------------------------------------

    def inputs(self, node_id: str) -> tuple[str, ...]:
        """Producer ids feeding ``node_id``, ordered by slot."""
        return self._inputs[node_id]  # type: ignore[attr-defined]

    def out_edges(self, node_id: str) -> tuple[Edge, ...]:
        return self._outputs[node_id]  # type: ignore[attr-defined]

    def topo_order(self) -> tuple[str, ...]:
        """Topological node order (ties broken by id). Raises on cycles."""
        cached = self._topo  # type: ignore[attr-defined]
        if cached is None:
            order, leftover = _kahn_order(self)
            if leftover:
                raise GraphStructureError(f"graph contains a cycle through {sorted(leftover)}")
            cached = tuple(order)
            object.__setattr__(self, "_topo", cached)
        return cached


def _kahn_order(graph: Graph) -> tuple[list[str], set[str]]:
    """Kahn's algorithm; returns (ordered ids, ids stuck on a cycle)."""
    indegree = {nid: len(graph.inputs(nid)) for nid in graph.nodes}
    ready = sorted(nid for nid, deg in indegree.items() if deg == 0)
    order: list[str] = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        changed = False
        for _, dst, _ in graph.out_edges(nid):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
                changed = True
        if changed:
            ready.sort()
    return order, {nid for nid, deg in indegree.items() if deg > 0}


# -- shape inference ---------------------------------------------------------


def infer_shapes(graph: Graph, input_shape: TensorShape) -> dict[str, TensorShape]:
    """Compute the output shape of every node given the entry tensor shape.

    Raises ``ShapeMismatch`` / ``NonPositiveExtent`` / ``MissingAttribute``
    when an operator cannot accept its input shapes.
    """
    if input_shape.batch < 1:
        raise NonPositiveExtent(f"input batch must be >= 1, got {input_shape.batch}")
    if input_shape.channels < 1:
        raise NonPositiveExtent(f"input channels must be >= 1, got {input_shape.channels}")
    shapes: dict[str, TensorShape] = {}
    for nid in graph.topo_order():
        node = graph.nodes[nid]
        ins = [shapes[p] for p in graph.inputs(nid)]
        shapes[nid] = _infer_node(node, ins, input_shape)
    return shapes


def _infer_node(node: OperatorNode, ins: list[TensorShape], input_shape: TensorShape) -> TensorShape:
    kind = node.kind
    if kind == OpKind.INPUT:
        return input_shape
    if not ins:
        raise GraphStructureError(f"node {node.id!r} ({kind.value}) has no inputs")
    x = ins[0]
    if kind == OpKind.CONV:
        return _infer_conv(node, x)
    if kind == OpKind.FULLY_CONNECTED:
        if x.spatial_size() != 1:
            raise ShapeMismatch(
                f"FullyConnected {node.id!r} needs unit spatial extents, got {x.spatial}"
            )
        if x.channels != node.attr("in_channels"):
            raise ShapeMismatch(
                f"FullyConnected {node.id!r} expects {node.attr('in_channels')} channels, got {x.channels}"
            )
        return TensorShape(x.batch, int(node.attr("out_channels")))
    if kind in (OpKind.BATCH_NORM, OpKind.RELU, OpKind.OUTPUT, OpKind.UNKNOWN):
        return x
    if kind in (OpKind.SUM, OpKind.PRODUCT):
        for other in ins[1:]:
            if other != x:
                raise ShapeMismatch(
                    f"{kind.value} {node.id!r} requires identical input shapes, "
                    f"got {x.dims()} vs {other.dims()}"
                )
        return x
    if kind == OpKind.CONCAT:
        channels = 0
        for other in ins:
            if other.batch != x.batch or other.spatial != x.spatial:
                raise ShapeMismatch(
                    f"Concatenation {node.id!r} requires matching batch/spatial extents, "
                    f"got {x.dims()} vs {other.dims()}"
                )
            channels += other.channels
        return TensorShape(x.batch, channels, x.spatial)
    if kind == OpKind.MAX_POOL:
        f = int(node.attr("factor"))
        if f < 1:
            raise NonPositiveExtent(f"MaxPool {node.id!r} factor must be >= 1, got {f}")
        out = tuple(d // f for d in x.spatial)
        if any(d < 1 for d in out):
            raise NonPositiveExtent(f"MaxPool {node.id!r} reduces {x.spatial} below one")
        return TensorShape(x.batch, x.channels, out)
    if kind == OpKind.UPSAMPLE:
        f = int(node.attr("factor"))
        if f < 1:
            raise NonPositiveExtent(f"Upsample {node.id!r} factor must be >= 1, got {f}")
        return TensorShape(x.batch, x.channels, tuple(d * f for d in x.spatial))
    raise GraphStructureError(f"cannot infer shape for kind {kind!r}")


def _infer_conv(node: OperatorNode, x: TensorShape) -> TensorShape:
    kernel = tuple(node.attr("kernel"))
    stride = tuple(node.attr("stride"))
    padding = tuple(node.attr("padding"))
    if len(kernel) != len(x.spatial):
        raise ShapeMismatch(
            f"Convolution {node.id!r} kernel rank {len(kernel)} does not match "
            f"spatial rank {len(x.spatial)}"
        )
    if x.channels != node.attr("in_channels"):
        raise ShapeMismatch(
            f"Convolution {node.id!r} expects {node.attr('in_channels')} input channels, got {x.channels}"
        )
    out_spatial = []
    for d, m, s, p in zip(x.spatial, kernel, stride, padding):
        if s < 1 or m < 1 or p < 0:
            raise NonPositiveExtent(f"Convolution {node.id!r} has invalid kernel/stride/padding")
        o = (d + 2 * p - m) // s + 1
        if o < 1:
            raise NonPositiveExtent(
                f"Convolution {node.id!r}: kernel {m} exceeds padded extent {d + 2 * p}"
            )
        out_spatial.append(o)
    return TensorShape(x.batch, int(node.attr("out_channels")), tuple(out_spatial))


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding. ``code`` is a stable machine-readable tag."""

    code: str
    node: str | None
    message: str


def validate(graph: Graph, input_shape: TensorShape | None = None) -> list[Diagnostic]:
    """Check structural and (optionally) shape invariants.

    Returns a list of diagnostics; an empty list means the graph is valid.
    Passing ``input_shape`` additionally runs shape inference and reports
    any shape-level failure as a diagnostic instead of raising.
    """
    diags: list[Diagnostic] = []

    def add(code: str, node: str | None, message: str) -> None:
        diags.append(Diagnostic(code, node, message))

    if graph.entry not in graph.nodes:
        add("EntryExit", None, f"entry node {graph.entry!r} does not exist")
        return diags
    if graph.exit not in graph.nodes:
        add("EntryExit", None, f"exit node {graph.exit!r} does not exist")
        return diags
    if graph.nodes[graph.entry].kind != OpKind.INPUT:
        add("EntryExit", graph.entry, "entry node must have kind Input")
    if graph.nodes[graph.exit].kind != OpKind.OUTPUT:
        add("EntryExit", graph.exit, "exit node must have kind Output")
    for nid, node in graph.nodes.items():
        if node.kind == OpKind.INPUT and nid != graph.entry:
            add("EntryExit", nid, "only the entry node may have kind Input")
        if node.kind == OpKind.OUTPUT and nid != graph.exit:
            add("EntryExit", nid, "only the exit node may have kind Output")

    # slots: contiguous and unique per consumer
    slots: dict[str, list[int]] = {}
    for src, dst, slot in graph.edges:
        slots.setdefault(dst, []).append(slot)
    for nid, ss in slots.items():
        if sorted(ss) != list(range(len(ss))):
            add("BadSlot", nid, f"input slots must be unique and contiguous from 0, got {sorted(ss)}")

    order, stuck = _kahn_order(graph)
    if stuck:
        add("CycleDetected", None, f"cycle through nodes {sorted(stuck)}")

    # arity and attributes
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        arity = len(graph.inputs(nid))
        _, lo, hi = KIND_RULES[node.kind]
        if arity < lo or (hi is not None and arity > hi):
            add("BadArity", nid, f"{node.kind.value} takes {lo}{'' if hi == lo else '+'} inputs, got {arity}")
        diags.extend(_check_attrs(node))

    # reachability: every node on some entry -> exit path
    if not stuck:
        fwd = _reach(graph, graph.entry, forward=True)
        bwd = _reach(graph, graph.exit, forward=False)
        for nid in sorted(graph.nodes):
            if nid not in fwd or nid not in bwd:
                add("Unreachable", nid, "node is not on any path from the entry to the exit")

    if input_shape is not None and not any(
        d.code in ("CycleDetected", "BadArity", "BadSlot", "BadAttributes") for d in diags
    ):
        try:
            infer_shapes(graph, input_shape)
        except (ShapeMismatch, NonPositiveExtent, MissingAttribute) as exc:
            add(type(exc).__name__, None, str(exc))
    return diags


def _check_attrs(node: OperatorNode) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if node.kind == OpKind.UNKNOWN:
        return diags
    required = KIND_RULES[node.kind][0]
    have = set(node.attrs)
    missing = [a for a in required if a not in have]
    extra = sorted(have - set(required))
    if missing:
        diags.append(Diagnostic("MissingAttribute", node.id, f"missing attributes {missing}"))
    if extra:
        diags.append(Diagnostic("BadAttributes", node.id, f"unexpected attributes {extra}"))
    if missing:
        return diags
    for name in required:
        value = node.attrs[name]
        vals = value if isinstance(value, (tuple, list)) else (value,)
        if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in vals):
            diags.append(Diagnostic("BadAttributes", node.id, f"{name} must be an integer, got {value!r}"))
        elif any(v < _LEAST[name] for v in vals):
            diags.append(Diagnostic("NonPositiveExtent", node.id, f"{name} must be >= {_LEAST[name]}"))
    ranks = {name: len(node.attrs[name]) for name in required
             if name in _SPATIAL and isinstance(node.attrs[name], (tuple, list))}
    if len(set(ranks.values())) > 1:
        diags.append(Diagnostic("BadAttributes", node.id, f"spatial attributes differ in rank: {ranks}"))
    return diags


def _reach(graph: Graph, start: str, forward: bool) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        nid = frontier.pop()
        for other in [e[1] for e in graph.out_edges(nid)] if forward else graph.inputs(nid):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen
