"""Random valid operator graphs for property tests.

The generator grows a pool of typed tensors from a single input, appending
operators whose constraints the pool can satisfy, and wires the exit to the
last tensor produced. Joins only combine tensors whose channel-segment
boundaries agree, so every generated graph admits a channel grouping. All
randomness derives from the seed; the same seed always yields the same graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from prunekit.graph import (
    Graph,
    OpKind,
    TensorShape,
    conv_node,
    fc_node,
    infer_shapes,
    simple_node,
    validate,
)
from prunekit.relax import GateSet
from prunekit.subgraph import Coloring, identify_subgraphs


@dataclass
class _Tensor:
    node: str
    shape: TensorShape
    boundaries: tuple[int, ...]  # channel segment widths, for join compatibility


def random_graph(
    seed: int,
    max_ops: int = 8,
    batch: int = 2,
    max_channels: int = 5,
    size: int = 6,
    allow_unknown: bool = False,
) -> tuple[Graph, TensorShape]:
    """A random well-formed graph and its entry shape."""
    rng = np.random.default_rng(seed)
    entry_shape = TensorShape(batch, int(rng.integers(1, max_channels + 1)), (size, size))

    nodes = {simple_node("in", OpKind.INPUT).id: simple_node("in", OpKind.INPUT)}
    edges: list[tuple[str, str, int]] = []
    pool: list[_Tensor] = [
        _Tensor("in", entry_shape, (entry_shape.channels,))
    ]
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def add(node, inputs: list[str], shape: TensorShape, boundaries: tuple[int, ...]):
        nodes[node.id] = node
        for slot, src in enumerate(inputs):
            edges.append((src, node.id, slot))
        pool.append(_Tensor(node.id, shape, boundaries))

    n_ops = int(rng.integers(3, max_ops + 1))
    kinds = ["conv", "conv", "conv", "bn", "relu", "sum", "product", "concat",
             "pool", "up", "gpool_fc"]
    if allow_unknown:
        kinds.append("unknown")

    for index in range(n_ops):
        # Leading with a convolution puts learnable weights in every graph.
        kind = "conv" if index == 0 else kinds[int(rng.integers(len(kinds)))]
        # Bias toward extending the newest tensor so graphs grow as chains
        # with occasional side branches instead of dissolving into stubs.
        if rng.random() < 0.35:
            t = pool[int(rng.integers(len(pool)))]
        else:
            t = pool[-1]
        b, c, spatial = t.shape.batch, t.shape.channels, t.shape.spatial

        if kind == "conv" and len(spatial) == 2:
            k = 3 if (rng.random() < 0.6 and min(spatial) >= 1) else 1
            pad = 1 if k == 3 else 0
            stride = 2 if (rng.random() < 0.3 and min(spatial) >= 2) else 1
            co = int(rng.integers(1, max_channels + 1))
            nid = fresh("conv")
            add(
                conv_node(nid, c, co, kernel=k, stride=stride, padding=pad),
                [t.node],
                TensorShape(b, co, tuple((d + 2 * pad - k) // stride + 1 for d in spatial)),
                (co,),
            )
        elif kind == "bn":
            nid = fresh("bn")
            add(simple_node(nid, OpKind.BATCH_NORM), [t.node], t.shape, t.boundaries)
        elif kind == "relu":
            nid = fresh("relu")
            add(simple_node(nid, OpKind.RELU), [t.node], t.shape, t.boundaries)
        elif kind in ("sum", "product"):
            mates = [
                u for u in pool
                if u.shape == t.shape and u.boundaries == t.boundaries and u.node != t.node
            ]
            if not mates:
                continue
            other = mates[int(rng.integers(len(mates)))]
            nid = fresh(kind)
            op = OpKind.SUM if kind == "sum" else OpKind.PRODUCT
            add(simple_node(nid, op), [t.node, other.node], t.shape, t.boundaries)
        elif kind == "concat":
            mates = [
                u for u in pool
                if u.shape.batch == b and u.shape.spatial == spatial and u.node != t.node
            ]
            if not mates:
                continue
            other = mates[int(rng.integers(len(mates)))]
            nid = fresh("cat")
            add(
                simple_node(nid, OpKind.CONCAT),
                [t.node, other.node],
                TensorShape(b, c + other.shape.channels, spatial),
                t.boundaries + other.boundaries,
            )
        elif kind == "pool" and len(spatial) == 2 and min(spatial) >= 2:
            nid = fresh("pool")
            add(
                simple_node(nid, OpKind.MAX_POOL, factor=2),
                [t.node],
                TensorShape(b, c, tuple(d // 2 for d in spatial)),
                t.boundaries,
            )
        elif kind == "up" and len(spatial) == 2 and max(spatial) <= size:
            nid = fresh("up")
            add(
                simple_node(nid, OpKind.UPSAMPLE, factor=2),
                [t.node],
                TensorShape(b, c, tuple(d * 2 for d in spatial)),
                t.boundaries,
            )
        elif kind == "gpool_fc" and len(spatial) == 2 and min(spatial) >= 1:
            pid = fresh("gpool")
            f = min(spatial)
            pooled = TensorShape(b, c, tuple(d // f for d in spatial))
            add(simple_node(pid, OpKind.MAX_POOL, factor=f), [t.node], pooled, t.boundaries)
            if pooled.spatial == (1, 1):
                co = int(rng.integers(2, max_channels + 1))
                nid = fresh("fc")
                add(fc_node(nid, c, co), [pid], TensorShape(b, co), (co,))
        elif kind == "unknown":
            nid = fresh("unk")
            add(simple_node(nid, OpKind.UNKNOWN, kind_name="Mystery"), [t.node], t.shape, t.boundaries)

    # Exit from the most recently produced tensor, preferring a convolution or
    # fully-connected head with at least two channels so cross-entropy over the
    # output is non-degenerate and interior groups stay prunable.
    head_kinds = (OpKind.CONV, OpKind.FULLY_CONNECTED)
    tail = next(
        (u for u in reversed(pool)
         if u.shape.channels >= 2 and nodes[u.node].kind in head_kinds),
        next((u for u in reversed(pool) if u.shape.channels >= 2), pool[-1]),
    )
    out = simple_node("out", OpKind.OUTPUT)
    nodes[out.id] = out
    edges.append((tail.node, "out", 0))

    # Trim branches that never reach the exit; the graph contract requires
    # every node to lie on an entry-to-exit path.
    feeders: dict[str, list[str]] = {}
    for src, dst, _ in edges:
        feeders.setdefault(dst, []).append(src)
    live = {"out"}
    frontier = ["out"]
    while frontier:
        nid = frontier.pop()
        for src in feeders.get(nid, ()):
            if src not in live:
                live.add(src)
                frontier.append(src)
    nodes = {nid: node for nid, node in nodes.items() if nid in live}
    edges = [(s, d, i) for s, d, i in edges if s in live and d in live]

    graph = Graph(nodes=nodes, edges=tuple(edges), entry="in", exit="out")
    diags = validate(graph, entry_shape)
    assert not diags, f"generator produced an invalid graph: {diags}"
    return graph, entry_shape


def random_conv(seed: int, dtype=np.float32):
    """A random convolution node (id ``"c"``) with an input batch, a kernel
    and an output gradient for it.

    Kernels are 1-5 per axis, strides 1-2 and padding 0-2; the batch is 1-4
    and each side has 0-6 channels. Feature maps run from the smallest the
    kernel admits, often a single pixel, to five more per axis.
    """
    rng = np.random.default_rng(seed)
    kernel = tuple(int(k) for k in rng.integers(1, 6, size=2))
    stride = tuple(int(s) for s in rng.integers(1, 3, size=2))
    padding = tuple(int(p) for p in rng.integers(0, 3, size=2))
    size = tuple(
        int(rng.integers(max(1, k - 2 * p), max(1, k - 2 * p) + 6))
        for k, p in zip(kernel, padding)
    )
    b, ci, co = int(rng.integers(1, 5)), int(rng.integers(0, 7)), int(rng.integers(0, 7))
    out = tuple((n + 2 * p - k) // s + 1 for n, k, s, p in zip(size, kernel, stride, padding))
    node = conv_node("c", ci, co, kernel=kernel, stride=stride, padding=padding)
    x = rng.normal(0, 1, (b, ci, *size)).astype(dtype)
    k = rng.normal(0, 1, (co, ci, *kernel)).astype(dtype)
    gy = rng.normal(0, 1, (b, co, *out)).astype(dtype)
    return node, x, k, gy


def producer_group(coloring: Coloring, node_id: str) -> int:
    """Group id of the channels a Convolution/FullyConnected produces."""
    (segment,) = coloring.node_segments[node_id]
    return segment.group


def random_gates(
    coloring: Coloring,
    rng: np.random.Generator,
    steepness: float = 4.0,
    stiffening_sd: float = 1.0,
    spread: float = 0.8,
    dtype=np.float32,
) -> GateSet:
    """Gates with scores scattered around the on/off boundary."""
    values = {
        g.id: rng.normal(0.3, spread, size=g.width).astype(dtype)
        for g in coloring.prunable_groups()
    }
    return GateSet(values=values, steepness=steepness, stiffening_sd=stiffening_sd)


def random_masks(
    coloring: Coloring, rng: np.random.Generator, keep_probability: float = 0.6,
    min_survivors: int = 1,
) -> dict[int, np.ndarray]:
    """Random binary keep-masks with at least ``min_survivors`` per group."""
    masks: dict[int, np.ndarray] = {}
    for group in coloring.prunable_groups():
        m = (rng.random(group.width) < keep_probability).astype(np.int8)
        if m.sum() < min_survivors:
            top = rng.choice(group.width, size=min_survivors, replace=False)
            m[:] = 0
            m[top] = 1
        masks[group.id] = m
    return masks


def grouped_setup(seed: int, **kwargs):
    """Graph, shapes and coloring in one call (the common test preamble)."""
    graph, entry_shape = random_graph(seed, **kwargs)
    shapes = infer_shapes(graph, entry_shape)
    coloring = identify_subgraphs(graph, shapes)
    return graph, entry_shape, shapes, coloring


def gated_setups(count: int, start_seed: int = 0, **kwargs):
    """The first ``count`` generated graphs that have at least one prunable
    group, scanning seeds upward from ``start_seed``."""
    found = []
    seed = start_seed
    while len(found) < count:
        graph, entry_shape, shapes, coloring = grouped_setup(seed, **kwargs)
        if coloring.prunable_groups():
            found.append((seed, graph, entry_shape, shapes, coloring))
        seed += 1
        if seed - start_seed > count * 60:
            raise AssertionError("graph generator starved of prunable groups")
    return found
