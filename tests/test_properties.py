"""Property tests over random gated graphs (``gen.py``) in float64."""
import copy
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from prunekit import graphio
from prunekit.accounting import structure_measures
from prunekit.engine import forward, init_weights, trainable_params
from prunekit.graph import OpKind, TensorShape, infer_shapes
from prunekit.optim import OptimConfig, Optimizer, load_checkpoint, save_checkpoint
from prunekit.errors import EmptyNetwork
from prunekit.pruner import alive_channels, fold_gates, rewrite
from prunekit.relax import MaskSet, channel_totals, gate_scales, gate_sites, snapshot
from prunekit.subgraph import identify_subgraphs

from gen import gated_setups, grouped_setup, random_gates, random_masks

# Derandomized with no example database, so runs are repeatable and write no
# files; the examples are cheap graphs of at most eight operators.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def gated_case(seed):
    """A random graph with at least one prunable group, its float64 weights,
    gates scattered around the on/off boundary and an input batch."""
    seed, graph, entry, shapes, col = gated_setups(1, start_seed=seed)[0]
    rng = np.random.default_rng(seed)
    weights = init_weights(graph, shapes, rng, dtype=np.float64)
    gates = random_gates(col, rng, dtype=np.float64)
    x = rng.normal(0, 1, entry.dims())
    return graph, col, weights, gates, x


def rewritten_case(seed):
    """``gated_case`` rewritten at random keep-masks, and its input batch."""
    graph, col, weights, gates, x = gated_case(seed)
    shapes = infer_shapes(graph, TensorShape(x.shape[0], x.shape[1], x.shape[2:]))
    masks = MaskSet(random_masks(col, np.random.default_rng(seed + 1)), threshold=0.5)
    return rewrite(graph, col, weights, gates, masks, shapes), x


def backward_capturing(run, output_grad):
    """``run.backward`` that also returns each tape record's output gradient."""
    seen = {}

    def capture(key, fn):
        def wrapped(gy):
            seen[key] = gy
            return fn(gy)

        return None if fn is None else wrapped

    run._tape[:] = [(key, ins, capture(key, fn), scale) for key, ins, fn, scale in run._tape]
    return run.backward(output_grad), seen


@PROPERTY
@given(seed=st.integers(0, 5000), training=st.booleans())
def test_folded_weights_match_gate_scales(seed, training):
    graph, col, weights, gates, x = gated_case(seed)
    folded = fold_gates(col, gates, weights)
    gated = forward(
        graph, copy.deepcopy(weights), x,
        node_scales=gate_scales(col, snapshot(gates)), training=training,
    ).output
    plain = forward(graph, copy.deepcopy(folded), x, training=training).output
    np.testing.assert_allclose(plain, gated, rtol=1e-10, atol=1e-12)


@PROPERTY
@given(seed=st.integers(0, 5000), training=st.booleans())
def test_unit_scales_change_nothing_and_return_channel_sums(seed, training):
    graph, col, weights, gates, x = gated_case(seed)
    base = forward(graph, copy.deepcopy(weights), x, training=training)
    shapes = infer_shapes(graph, TensorShape(x.shape[0], x.shape[1], x.shape[2:]))
    ones = {nid: np.ones(s.channels) for nid, s in shapes.items() if nid != graph.entry}
    scaled = forward(graph, copy.deepcopy(weights), x, node_scales=ones, training=training)
    assert np.array_equal(scaled.output, base.output)
    # Each scaled node's tape record keeps (vector, unscaled output).
    pres = {key: scale[1] for key, _, _, scale in scaled._tape if scale is not None}
    assert set(pres) == set(ones)

    probe = np.random.default_rng(seed + 1).normal(0, 1, base.output.shape)
    base_grads = base.backward(probe)
    grads, seen = backward_capturing(scaled, probe)
    assert {k for k in grads if k[0] == "w"} == set(base_grads)
    for key, g in base_grads.items():
        assert np.array_equal(grads[key], g), key

    assert {k[1] for k in grads if k[0] == "n"} == set(seen) & set(ones)
    for nid in ones:
        if nid not in seen:
            continue
        gy, pre = seen[nid], pres[nid]
        direct = [np.sum(gy[:, c] * pre[:, c], dtype=np.float64) for c in range(pre.shape[1])]
        np.testing.assert_allclose(grads[("n", nid)], direct, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(seed=st.integers(0, 5000), training=st.booleans())
def test_tape_free_pass_matches_the_taped_pass_bitwise(seed, training):
    graph, col, weights, gates, x = gated_case(seed)
    scales = gate_scales(col, snapshot(gates))
    taped_w, free_w = copy.deepcopy(weights), copy.deepcopy(weights)
    taped = forward(graph, taped_w, x, node_scales=scales, training=training)
    free = forward(graph, free_w, x, node_scales=scales, training=training, tape=False)
    assert free.output.dtype == taped.output.dtype and free.output.shape == taped.output.shape
    assert free.output.tobytes() == taped.output.tobytes()
    # Training-mode BatchNorm updates its running statistics alike.
    for nid in weights:
        for name in weights[nid]:
            assert free_w[nid][name].tobytes() == taped_w[nid][name].tobytes(), (nid, name)


@PROPERTY
@given(seed=st.integers(0, 5000), survivors=st.sampled_from([0, 1]))
def test_liveness_stays_within_masks_and_keep_is_the_producer_union(seed, survivors):
    graph, col, weights, gates, x = gated_case(seed)
    rng = np.random.default_rng(seed + 1)
    masks = MaskSet(random_masks(col, rng, min_survivors=survivors), threshold=0.5)
    alive = alive_channels(graph, col, masks)
    on = {g.id: np.ones(g.width, dtype=bool) for g in col.groups}
    on.update((gid, m.astype(bool)) for gid, m in masks.masks.items())
    keep = {g.id: np.zeros(g.width, dtype=bool) for g in col.groups}
    for nid, flags in alive.items():
        offset = 0
        for seg in col.node_segments[nid]:
            part = flags[offset:offset + seg.width]
            assert not np.any(part & ~on[seg.group]), nid
            keep[seg.group] |= part
            offset += seg.width

    # The channels that the outputs of a group's Convolutions, FullyConnected
    # layers and BatchNorms (and, for the entry's group, the entry) carry:
    # the rule the segment union replaces.
    producers = {g.id: np.zeros(g.width, dtype=bool) for g in col.groups}
    producers[col.node_segments[graph.entry][0].group] |= alive[graph.entry]
    for nid, node in graph.nodes.items():
        if node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED, OpKind.BATCH_NORM):
            offset = 0
            for seg in col.node_segments[nid]:
                producers[seg.group] |= alive[nid][offset:offset + seg.width]
                offset += seg.width
    for g in col.groups:
        assert np.array_equal(keep[g.id], producers[g.id]), g.id

    shapes = infer_shapes(graph, TensorShape(x.shape[0], x.shape[1], x.shape[2:]))
    try:
        result = rewrite(graph, col, weights, gates, masks, shapes)
    except EmptyNetwork:
        return
    assert {(r.group, r.kept) for r in result.report.groups} == {
        (g.id, int(keep[g.id].sum())) for g in col.prunable_groups()
    }


@PROPERTY
@given(seed=st.integers(0, 5000), allow_unknown=st.booleans())
def test_gate_sites_are_the_producers_of_prunable_groups(seed, allow_unknown):
    graph, _, _, col = grouped_setup(seed, allow_unknown=allow_unknown)
    expected = {}
    for nid, node in graph.nodes.items():
        if node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED):
            (seg,) = col.node_segments[nid]
            if col.group(seg.group).prunable:
                expected[nid] = seg.group
    assert gate_sites(col) == expected
    # So every gated group's gains reach the network, and fold into weights.
    assert {g.id for g in col.prunable_groups()} <= set(expected.values())


@PROPERTY
@given(seed=st.integers(0, 5000), allow_unknown=st.booleans(),
       survivors=st.sampled_from([0, 1]), keep=st.sampled_from([0.2, 0.6]))
def test_live_nodes_have_live_inputs_back_to_the_entry(seed, allow_unknown, survivors, keep):
    # The invariant of alive_channels that lets rewrite assume every live
    # node but the entry keeps an input, and a live exit still reaches it.
    graph, _, _, col = grouped_setup(seed, allow_unknown=allow_unknown)
    rng = np.random.default_rng(seed + 1)
    masks = MaskSet(random_masks(col, rng, keep, min_survivors=survivors), threshold=0.5)
    live = {nid for nid, flags in alive_channels(graph, col, masks).items() if np.any(flags)}
    for nid in live - {graph.entry}:
        assert any(p in live for p in graph.inputs(nid)), nid
    if graph.exit in live:
        reached, stack = {graph.exit}, [graph.exit]
        while stack:
            for p in graph.inputs(stack.pop()):
                if p in live and p not in reached:
                    reached.add(p)
                    stack.append(p)
        assert graph.entry in reached


def report_text(graph, coloring, gates, shapes):
    widths = channel_totals(coloring, snapshot(gates))
    return structure_measures(graph, coloring, widths, shapes).to_text()


@PROPERTY
@given(seed=st.integers(0, 5000))
def test_all_on_rewrite_of_a_rewritten_graph_is_the_identity(seed):
    first, _ = rewritten_case(seed)
    all_on = MaskSet(
        {gid: np.ones(s.size, dtype=np.int8) for gid, s in first.gates.values.items()},
        threshold=0.5,
    )
    again = rewrite(first.graph, first.coloring, first.weights, first.gates, all_on, first.shapes)
    assert graphio.serialize(again.graph) == graphio.serialize(first.graph)
    assert again.report.removed_nodes == ()
    assert set(again.weights) == set(first.weights)
    for nid, arrays in first.weights.items():
        assert set(again.weights[nid]) == set(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(again.weights[nid][name], arr), (nid, name)
    assert set(again.gates.values) == set(first.gates.values)
    for gid, s in first.gates.values.items():
        assert np.array_equal(again.gates.values[gid], s)
    before = structure_measures(first.graph, first.coloring, None, first.shapes)
    after = structure_measures(again.graph, again.coloring, None, again.shapes)
    assert (after.total_params, after.total_flops) == (before.total_params, before.total_flops)


@PROPERTY
@given(seed=st.integers(0, 5000), training=st.booleans())
def test_rewritten_graph_survives_serialization(seed, training):
    result, x = rewritten_case(seed)
    restored = graphio.deserialize(graphio.serialize(result.graph))
    shapes = infer_shapes(restored, result.shapes[restored.entry])
    col = identify_subgraphs(restored, shapes)

    def output(graph, coloring):
        return forward(
            graph, copy.deepcopy(result.weights), x,
            node_scales=gate_scales(coloring, snapshot(result.gates)), training=training,
        ).output

    assert np.array_equal(output(restored, col), output(result.graph, result.coloring))
    assert report_text(restored, col, result.gates, shapes) == report_text(
        result.graph, result.coloring, result.gates, result.shapes
    )


def assert_same_arrays(got, want):
    assert set(got) == set(want)
    for key, arr in want.items():
        assert got[key].dtype == arr.dtype, key
        assert np.array_equal(got[key], arr), key


@PROPERTY
@given(seed=st.integers(0, 5000), kind=st.sampled_from(["adam", "sgd"]))
def test_checkpoint_round_trip_resumes_bitwise(seed, kind):
    graph, col, weights, gates, _ = gated_case(seed)
    rng = np.random.default_rng(seed)
    params = trainable_params(weights, gates.values)
    grads = {key: rng.normal(0, 1, p.shape).astype(p.dtype) for key, p in params.items()}
    optimizer = Optimizer(OptimConfig(kind=kind, lr=1e-2, weight_decay=1e-3))
    optimizer.step(params, grads)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.npz"
        save_checkpoint(path, graph=graph, weights=weights, gates=gates,
                        optimizer=optimizer, rng=rng, meta={"seed": seed})
        ck = load_checkpoint(path)

    assert graphio.serialize(ck.graph) == graphio.serialize(graph)
    assert_same_arrays(trainable_params(ck.weights, ck.gates.values), params)
    for nid, arrays in weights.items():
        assert_same_arrays(ck.weights[nid], arrays)
    restored = Optimizer(OptimConfig(kind=kind, lr=1e-2, weight_decay=1e-3))
    restored.t, restored.slots = ck.opt_state["t"], ck.opt_state["slots"]
    assert restored.t == optimizer.t
    assert set(restored.slots) == set(optimizer.slots)
    for key, slot in optimizer.slots.items():
        assert_same_arrays(restored.slots[key], slot)
    assert ck.rng_state == rng.bit_generator.state

    resumed = trainable_params(ck.weights, ck.gates.values)
    optimizer.step(params, grads)
    restored.step(resumed, grads)
    assert_same_arrays(resumed, params)
