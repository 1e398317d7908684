"""Engine operator sweep.

Every operator of a workload's dense graph is timed on its own, as a
one-operator graph at the node's own shapes and the training batch size,
through the public ``engine.forward`` / ``Run.backward`` in training mode.
A node's time is the one-operator graph's minus that of an input-to-output
graph fed the same tensor, so the per-call work every graph pays (input
finiteness check, tape set-up) is not charged to the operator. Times are
summed per operator kind. ``engine.dispatch_ms`` is the whole dense graph
minus the summed node times: what the engine spends between operators.

A join's inputs come from the one input node fed several times. For a
concatenation of unequal widths the inputs get equal widths with the same
total, so the output shape is the node's own. A kind the graph lacks is
timed as one operator of that kind on the entry tensor, so every per-kind
figure is a measurement, never a constant 0: for such a kind it is what one
operator would cost at the workload's input size, not part of its step.
"""
from __future__ import annotations

import math
import time

import numpy as np

from prunekit import engine
from prunekit.accounting import op_flops
from prunekit.graph import (
    Graph,
    OpKind,
    TensorShape,
    conv_node,
    fc_node,
    infer_shapes,
    simple_node,
)
from prunekit.models import build_reference_model

KINDS = {
    OpKind.CONV: "conv",
    OpKind.BATCH_NORM: "batch_norm",
    OpKind.MAX_POOL: "max_pool",
    OpKind.RELU: "relu",
    OpKind.SUM: "sum",
    OpKind.CONCAT: "concat",
    OpKind.UPSAMPLE: "upsample",
    OpKind.FULLY_CONNECTED: "fully_connected",
}

_IN, _OUT = "sweep.in", "sweep.out"
# Timed rounds per case.
REPS = 15


def _time_rounds(cases: dict) -> dict:
    """Median forward and backward seconds of each ``(graph, weights, x)``
    case in training mode. Every case runs once untimed, then the cases take
    turns for ``REPS`` rounds, so drift in machine speed reaches every case
    alike."""
    prepared = []
    for key, (graph, weights, x) in cases.items():
        run = engine.forward(graph, weights, x, training=True)
        gy = np.random.default_rng(1).standard_normal(run.output.shape).astype(x.dtype)
        run.backward(gy)
        prepared.append((key, graph, weights, x, gy))
    fwd = {key: [] for key in cases}
    bwd = {key: [] for key in cases}
    for _ in range(REPS):
        for key, graph, weights, x, gy in prepared:
            t0 = time.perf_counter()
            run = engine.forward(graph, weights, x, training=True)
            t1 = time.perf_counter()
            run.backward(gy)
            t2 = time.perf_counter()
            fwd[key].append(t1 - t0)
            bwd[key].append(t2 - t1)
    return {key: (float(np.median(fwd[key])), float(np.median(bwd[key]))) for key in cases}


def _around(node, operands: int) -> Graph:
    """A graph feeding ``node`` its input ``operands`` times."""
    nodes = {_IN: simple_node(_IN, OpKind.INPUT), node.id: node, _OUT: simple_node(_OUT, OpKind.OUTPUT)}
    edges = [(_IN, node.id, slot) for slot in range(operands)] + [(node.id, _OUT, 0)]
    return Graph(nodes=nodes, edges=tuple(edges), entry=_IN, exit=_OUT)


def _one_op_graph(graph: Graph, shapes, nid: str) -> tuple[Graph, TensorShape]:
    node = graph.nodes[nid]
    ins = [shapes[p] for p in graph.inputs(nid)]
    total = sum(s.channels for s in ins)
    width = ins[0].channels
    if node.kind == OpKind.CONCAT and any(s.channels != width for s in ins):
        width = total // len(ins) if total % len(ins) == 0 else math.gcd(*(s.channels for s in ins))
    operands = total // width if node.kind == OpKind.CONCAT else len(ins)
    return _around(node, operands), ins[0].with_channels(width)


def _stand_in(kind: OpKind, entry: TensorShape) -> tuple[Graph, TensorShape]:
    """One operator of a kind the graph lacks, on the entry tensor (flattened
    to unit spatial extents for a fully-connected layer)."""
    c = entry.channels
    nid = f"sweep.{kind.value}"
    if kind == OpKind.FULLY_CONNECTED:
        flat = TensorShape(entry.batch, entry.size() // entry.batch, (1, 1))
        return _around(fc_node(nid, flat.channels, c), 1), flat
    if kind == OpKind.CONV:
        return _around(conv_node(nid, c, c, 3, 1, 1), 1), entry
    attrs = {"factor": 2} if kind in (OpKind.MAX_POOL, OpKind.UPSAMPLE) else {}
    operands = 2 if kind in (OpKind.SUM, OpKind.CONCAT) else 1
    return _around(simple_node(nid, kind, **attrs), operands), entry


def _passthrough(entry: TensorShape) -> Graph:
    nodes = {_IN: simple_node(_IN, OpKind.INPUT), _OUT: simple_node(_OUT, OpKind.OUTPUT)}
    return Graph(nodes=nodes, edges=((_IN, _OUT, 0),), entry=_IN, exit=_OUT)


def sweep(model: str, model_args: dict, entry: TensorShape, *, seed: int = 0) -> dict[str, float]:
    """Per-kind forward/backward milliseconds per training step, the conv
    throughput, and the dispatch residual of the whole graph."""
    rng = np.random.default_rng(seed)
    graph = build_reference_model(model, **model_args)
    shapes = infer_shapes(graph, entry)

    def tensor(shape: TensorShape) -> np.ndarray:
        return rng.standard_normal(shape.dims()).astype(np.float32)

    cases: dict = {}
    nodes: list[tuple[str, str, tuple]] = []  # (case key, kind, pass-through key)
    conv_macs = 0.0
    present = {graph.nodes[nid].kind for nid in graph.nodes}
    one_op = [(nid, graph.nodes[nid].kind, *_one_op_graph(graph, shapes, nid))
              for nid in graph.topo_order() if graph.nodes[nid].kind in KINDS]
    one_op += [(("stand-in", k), k, *_stand_in(k, entry)) for k in KINDS if k not in present]
    for nid, op_kind, one, in_shape in one_op:
        x = tensor(in_shape)
        weights = engine.init_weights(one, infer_shapes(one, in_shape), rng)
        cases[nid] = (one, weights, x)
        base = ("pass", in_shape.dims())
        if base not in cases:
            cases[base] = (_passthrough(in_shape), {}, x)
        nodes.append((nid, KINDS[op_kind], base))
        if op_kind == OpKind.CONV and nid in graph.nodes:
            node = graph.nodes[nid]
            kernel = int(np.prod(node.attr("kernel")))
            producer = shapes[graph.inputs(nid)[0]]
            conv_macs += entry.batch * op_flops(
                OpKind.CONV, producer.channels, shapes[nid].channels, kernel, shapes[nid], producer
            )

    cases[("whole",)] = (graph, engine.init_weights(graph, shapes, rng), tensor(entry))
    times = _time_rounds(cases)

    fwd = {k: 0.0 for k in KINDS.values()}
    bwd = {k: 0.0 for k in KINDS.values()}
    in_graph = 0.0
    for key, kind, base in nodes:
        f, b = times[key][0] - times[base][0], times[key][1] - times[base][1]
        fwd[kind] += f
        bwd[kind] += b
        if key in graph.nodes:
            in_graph += f + b
    whole = sum(times[("whole",)])

    out = {}
    for kind in KINDS.values():
        out[f"engine.{kind}.fwd_ms"] = fwd[kind] * 1e3
        out[f"engine.{kind}.bwd_ms"] = bwd[kind] * 1e3
    out["engine.conv.gmacs_per_s"] = conv_macs / fwd["conv"] / 1e9 if fwd["conv"] > 0 else 0.0
    out["engine.dispatch_ms"] = (whole - in_graph) * 1e3
    return out
