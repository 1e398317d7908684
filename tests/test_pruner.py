"""Mask extraction, graph rewriting, masked-vs-pruned parity, gain folding."""
import copy

import numpy as np
import pytest

from prunekit.accounting import structure_measures
from prunekit.engine import forward, init_weights
from prunekit.errors import EmptyNetwork, InvalidConfig, ShapeDrift
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
from prunekit.models import build_reference_model
from prunekit.pruner import (
    alive_channels,
    fold_gates,
    masked_scales,
    rewrite,
    threshold_masks,
    verify_equivalence,
)
from prunekit.relax import GateSet, MaskSet, gate_scales, init_gates, sigma, snapshot
from prunekit.subgraph import identify_subgraphs

from gen import gated_setups, grouped_setup, producer_group, random_gates, random_masks
from oracles import brute_force_counts, kept_from_masks


def model_setup(name="resnet8", size=(32, 32), width=None, dtype=np.float32, seed=0):
    kwargs = {} if width is None else {"width": width}
    graph = build_reference_model(name, **kwargs)
    entry = TensorShape(2, 3, size)
    shapes = infer_shapes(graph, entry)
    col = identify_subgraphs(graph, shapes)
    rng = np.random.default_rng(seed)
    weights = init_weights(graph, shapes, rng, dtype=dtype)
    gates = init_gates(col, jitter=0.3, rng=rng, dtype=dtype)
    return graph, entry, shapes, col, weights, gates


class TestThresholdMasks:
    def test_strict_threshold(self):
        gates = GateSet(values={0: np.array([0.25, 1.0, -1.0])}, steepness=4.0)
        tau = float(sigma(np.array([0.25]), 4.0)[0])
        masks = threshold_masks(gates, tau)
        np.testing.assert_array_equal(masks.masks[0], [0, 1, 0])

    def test_min_keep_rescues_top_gains(self):
        gates = GateSet(values={0: np.array([-3.0, -1.0, -2.0])}, steepness=4.0)
        empty = threshold_masks(gates, 0.5)
        np.testing.assert_array_equal(empty.masks[0], [0, 0, 0])
        rescued = threshold_masks(gates, 0.5, min_keep=2)
        np.testing.assert_array_equal(rescued.masks[0], [0, 1, 1])

    @pytest.mark.parametrize("tau", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, tau):
        gates = GateSet(values={0: np.array([0.0, 1.0])}, steepness=4.0)
        with pytest.raises(InvalidConfig):
            threshold_masks(gates, tau)

    def test_min_keep_only_fills_up(self):
        gates = GateSet(values={0: np.array([2.0, 2.0, -2.0])}, steepness=4.0)
        masks = threshold_masks(gates, 0.5, min_keep=1)
        np.testing.assert_array_equal(masks.masks[0], [1, 1, 0])


class TestAliveChannels:
    def test_zero_propagation_through_sum_and_product(self):
        # dead conv output stays dead through BN/ReLU, revives across Sum
        # with a live branch, and kills a Product with anything.
        graph, entry, shapes, col, weights, gates = model_setup()
        masks = threshold_masks(init_gates(col), 0.99)  # everything below -> all dead
        alive = alive_channels(graph, col, masks)
        for nid, flags in alive.items():
            kind = graph.nodes[nid].kind
            if kind in (OpKind.INPUT,):
                assert np.all(flags)
        # trunk all dead -> classifier input all dead
        assert not np.any(alive["gpool"])

    def test_partial_masks(self):
        graph, entry, shapes, col, weights, gates = model_setup()
        masks = MaskSet(
            masks={g.id: np.ones(g.width, dtype=np.int8) for g in col.prunable_groups()},
            threshold=0.5,
        )
        trunk = producer_group(col, "stem.conv")
        masks.masks[trunk][:4] = 0
        alive = alive_channels(graph, col, masks)
        np.testing.assert_array_equal(alive["stem.conv"][:4], 0)
        np.testing.assert_array_equal(alive["stem.conv"][4:], 1)
        # the per-block first conv keeps its own mask but sees dead inputs only
        # through weights, so its alive flags match its own mask
        np.testing.assert_array_equal(alive["b1.conv1"], masks.masks[producer_group(col, "b1.conv1")])


class TestRewrite:
    def run_case(self, seed, min_survivors=1):
        graph, entry, shapes, col, weights, gates = model_setup(seed=seed)
        rng = np.random.default_rng(seed + 77)
        masks = MaskSet(
            masks=random_masks(col, rng, keep_probability=0.65, min_survivors=min_survivors),
            threshold=0.5,
        )
        result = rewrite(graph, col, weights, gates, masks, shapes)
        residual = verify_equivalence(
            graph, col, weights, gates, masks, result, entry, probes=8, seed=seed
        )
        return graph, shapes, col, masks, result, residual

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_masked_equals_rewritten(self, seed):
        *_, result, residual = self.run_case(seed)
        assert residual < 1e-5
        assert result.report.residual == residual

    @pytest.mark.parametrize("seed", [0, 5])
    def test_counts_match_brute_force(self, seed):
        graph, shapes, col, masks, result, _ = self.run_case(seed)
        kept = kept_from_masks(col, masks.masks)
        expected_p, expected_q = brute_force_counts(graph, shapes, kept)
        assert result.report.params_after == expected_p
        assert result.report.flops_after == expected_q
        # and the new graph's own fully-on accounting agrees exactly
        new_col = identify_subgraphs(result.graph, result.shapes)
        report = structure_measures(result.graph, new_col, None, result.shapes)
        assert report.total_params == expected_p
        assert report.total_flops == expected_q

    def test_rewritten_graph_validates(self):
        graph, shapes, col, masks, result, _ = self.run_case(2)
        entry_shape = result.shapes[result.graph.entry]
        assert validate(result.graph, entry_shape) == []

    def test_kernel_slices_carried(self):
        graph, shapes, col, masks, result, _ = self.run_case(1)
        trunk = producer_group(col, "stem.conv")
        kept = np.flatnonzero(masks.masks[trunk])
        old = None
        for nid in graph.nodes:
            if nid == "stem.conv":
                old = nid
        assert old is not None
        # surviving output channels keep their exact weight rows
        new_kernel = result.weights["stem.conv"]["kernel"]
        assert new_kernel.shape[0] == kept.size

    def test_full_group_death_removes_operators(self):
        graph, entry, shapes, col, weights, gates = model_setup()
        masks = MaskSet(
            masks={g.id: np.ones(g.width, dtype=np.int8) for g in col.prunable_groups()},
            threshold=0.5,
        )
        inner = producer_group(col, "b1.conv1")
        masks.masks[inner][:] = 0
        result = rewrite(graph, col, weights, gates, masks, shapes)
        removed = set(result.report.removed_nodes)
        assert "b1.conv1" in removed
        assert "b1.conv2" in removed  # starved of inputs
        assert "b1.sum" in removed  # spliced: single live input remains
        residual = verify_equivalence(
            graph, col, weights, gates, masks, result, entry, probes=8
        )
        assert residual == 0.0  # removal of dead branches is exact
        assert validate(result.graph, result.shapes[result.graph.entry]) == []

    def test_entry_channels_survive_a_dead_residual_branch(self):
        # in -> c1 -> c2 -> Sum(in, c2) -> c3: c2's group is the entry's
        # (merged by the Sum), and killing c1 starves c2. The entry channels
        # still reach c3 through the Sum, so its kernel keeps every column.
        nodes = [
            simple_node("in", OpKind.INPUT), conv_node("c1", 2, 3, 1), conv_node("c2", 3, 2, 1),
            simple_node("s", OpKind.SUM), conv_node("c3", 2, 4, 1), simple_node("out", OpKind.OUTPUT),
        ]
        edges = [("in", "c1", 0), ("c1", "c2", 0), ("in", "s", 0), ("c2", "s", 1),
                 ("s", "c3", 0), ("c3", "out", 0)]
        graph = Graph({n.id: n for n in nodes}, tuple(edges), "in", "out")
        entry = TensorShape(2, 2, (4, 4))
        shapes = infer_shapes(graph, entry)
        col = identify_subgraphs(graph, shapes)
        weights = init_weights(graph, shapes, np.random.default_rng(0))
        masks = MaskSet({producer_group(col, "c1"): np.zeros(3, dtype=np.int8)}, threshold=0.5)
        ungated = GateSet(values={})
        result = rewrite(graph, col, weights, ungated, masks, shapes)
        assert result.report.removed_nodes == ("c1", "c2", "s")
        assert result.weights["c3"]["kernel"].shape == (4, 2, 1, 1)
        assert verify_equivalence(graph, col, weights, ungated, masks, result, entry) == 0.0
        # Before-costs count only the operators the rewrite keeps, at their
        # kept widths, so they equal the rewritten graph's costs.
        assert result.report.params_before == result.report.params_after
        assert result.report.flops_before == result.report.flops_after

    @pytest.mark.parametrize("dead", ["a", "b"])
    def test_concat_left_with_one_operand_is_spliced_away(self, dead):
        # in -> a, b -> Concat(a, b) -> c3: once one operand dies, c3 reads
        # the live one directly, with the kept columns at their new offsets.
        nodes = [
            simple_node("in", OpKind.INPUT), conv_node("a", 2, 3, 1), conv_node("b", 2, 4, 1),
            simple_node("cat", OpKind.CONCAT), conv_node("c3", 7, 5, 1),
            simple_node("out", OpKind.OUTPUT),
        ]
        edges = [("in", "a", 0), ("in", "b", 0), ("a", "cat", 0), ("b", "cat", 1),
                 ("cat", "c3", 0), ("c3", "out", 0)]
        graph = Graph({n.id: n for n in nodes}, tuple(edges), "in", "out")
        entry = TensorShape(2, 2, (4, 4))
        shapes = infer_shapes(graph, entry)
        col = identify_subgraphs(graph, shapes)
        weights = init_weights(graph, shapes, np.random.default_rng(0))
        live = "b" if dead == "a" else "a"
        live_mask = np.array([1, 0, 1, 1][: shapes[live].channels], dtype=np.int8)
        masks = MaskSet({producer_group(col, dead): np.zeros(shapes[dead].channels, np.int8),
                         producer_group(col, live): live_mask}, threshold=0.5)
        ungated = GateSet(values={})
        result = rewrite(graph, col, weights, ungated, masks, shapes)
        assert result.report.removed_nodes == tuple(sorted((dead, "cat")))
        assert result.graph.inputs("c3") == (live,)
        offset = 0 if live == "a" else 3  # the live operand's columns in the Concat
        columns = offset + np.flatnonzero(live_mask)
        np.testing.assert_array_equal(result.weights["c3"]["kernel"],
                                      weights["c3"]["kernel"][:, columns])
        assert verify_equivalence(graph, col, weights, ungated, masks, result, entry) == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_group_the_cut_makes_prunable_keeps_gain_one(self, dtype):
        # gen.py's graph of seed 191: conv1's one channel joins the entry
        # through product2 = conv1 * in, so it shares the entry's unprunable
        # group and runs ungated. Killing conv3's group removes conv3, relu4,
        # product2 and cat7, and conv1 then seeds a prunable group of its
        # own, whose fresh score is init_gates' (gain sigma(1) ~ 0.73) in the
        # gate set's dtype. The rewrite must divide that gain out of conv1's
        # kernel.
        graph, entry, shapes, col = grouped_setup(191)
        weights = init_weights(graph, shapes, np.random.default_rng(0))
        gates = init_gates(col, dtype=dtype)
        assert not col.group(col.producers["conv1"]).prunable
        masks = MaskSet({producer_group(col, "conv3"): np.zeros(2, np.int8)}, threshold=0.5)
        result = rewrite(graph, col, weights, gates, masks, shapes)
        assert result.report.removed_nodes == ("cat7", "conv3", "product2", "relu4")
        new_gid = result.coloring.producers["conv1"]
        assert result.coloring.group(new_gid).prunable
        fresh = init_gates(result.coloring, gates.steepness, dtype=dtype).values[new_gid]
        assert result.gates.values[new_gid].dtype == dtype
        np.testing.assert_array_equal(result.gates.values[new_gid], fresh)
        assert all(v.dtype == dtype for v in result.gates.values.values())
        gain = sigma(result.gates.values[new_gid], gates.steepness)
        np.testing.assert_allclose(result.weights["conv1"]["kernel"] * gain[:, None, None, None],
                                   weights["conv1"]["kernel"], rtol=1e-6)
        residual = verify_equivalence(graph, col, weights, gates, masks, result, entry)
        assert residual <= 1e-6 * result.report.output_max

    def test_all_dead_network_raises(self):
        graph, entry, shapes, col, weights, gates = model_setup()
        masks = MaskSet(
            masks={g.id: np.zeros(g.width, dtype=np.int8) for g in col.prunable_groups()},
            threshold=0.5,
        )
        with pytest.raises(EmptyNetwork):
            rewrite(graph, col, weights, gates, masks, shapes)

    @pytest.mark.parametrize("case", range(8))
    def test_random_graphs_masked_equals_rewritten(self, case):
        setups = gated_setups(8, max_ops=9)
        seed, graph, entry, shapes, col = setups[case]
        rng = np.random.default_rng(seed + 13)
        weights = init_weights(graph, shapes, rng, dtype=np.float32)
        gates = random_gates(col, rng)
        masks = MaskSet(masks=random_masks(col, rng), threshold=0.5)
        result = rewrite(graph, col, weights, gates, masks, shapes)
        residual = verify_equivalence(
            graph, col, weights, gates, masks, result, entry, probes=6, seed=seed
        )
        assert residual < 1e-5

    def test_shape_drift_detected(self):
        graph, entry, shapes, col, weights, gates = model_setup()
        masks = MaskSet(
            masks={g.id: np.ones(g.width, dtype=np.int8) for g in col.prunable_groups()},
            threshold=0.5,
        )
        result = rewrite(graph, col, weights, gates, masks, shapes)
        # sabotage: pretend the rewrite produced the unpruned-classifier graph
        # with a different logits width
        wrong = build_reference_model("resnet8", classes=7)
        result.graph = wrong
        result.shapes = infer_shapes(wrong, entry)
        result.weights = init_weights(wrong, result.shapes, np.random.default_rng(1))
        result.coloring = identify_subgraphs(wrong, result.shapes)
        result.gates = GateSet(values={})
        with pytest.raises(ShapeDrift):
            verify_equivalence(graph, col, weights, gates, masks, result, entry, probes=1)


class TestMaskedScales:
    def test_producer_scales_combine_gain_and_mask(self):
        graph, entry, shapes, col, weights, gates = model_setup()
        masks = threshold_masks(gates, 0.5)
        scales = masked_scales(graph, col, gates, masks)
        trunk = producer_group(col, "stem.conv")
        gains = sigma(gates.values[trunk], gates.steepness)
        mask = masks.masks[trunk]
        np.testing.assert_allclose(scales["stem.conv"], gains * mask, rtol=1e-6)

    def test_without_gates_masks_alone(self):
        graph, entry, shapes, col, weights, _ = model_setup()
        masks = MaskSet(
            masks={g.id: np.ones(g.width, dtype=np.int8) for g in col.prunable_groups()},
            threshold=0.0,
        )
        gid = producer_group(col, "b2.conv1")
        masks.masks[gid][0] = 0
        scales = masked_scales(graph, col, GateSet(values={}), masks)
        np.testing.assert_array_equal(
            scales["b2.conv1"], masks.masks[gid].astype(np.float64)
        )


class TestFolding:
    def test_producer_fold_exact_in_both_modes(self):
        graph, entry, shapes, col, weights, gates = model_setup(dtype=np.float64)
        folded = fold_gates(col, gates, weights)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, entry.dims())
        scales = gate_scales(col, snapshot(gates))
        for training in (False, True):
            a = forward(graph, copy.deepcopy(weights), x, node_scales=scales,
                        training=training).output
            b = forward(graph, copy.deepcopy(folded), x, training=training).output
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_fully_connected_fold_exact_in_both_modes(self):
        # A fully-connected layer feeding another one is a gate site, so its
        # weight rows and its bias both carry the gains.
        nodes = [
            simple_node("in", OpKind.INPUT),
            conv_node("conv", 3, 4, kernel=1),
            simple_node("pool", OpKind.MAX_POOL, factor=4),
            fc_node("fc1", 4, 5),
            simple_node("relu", OpKind.RELU),
            fc_node("fc2", 5, 3),
            simple_node("out", OpKind.OUTPUT),
        ]
        chain = [n.id for n in nodes]
        graph = Graph(
            nodes={n.id: n for n in nodes},
            edges=tuple((a, b, 0) for a, b in zip(chain, chain[1:])),
            entry="in",
            exit="out",
        )
        entry = TensorShape(3, 3, (4, 4))
        col = identify_subgraphs(graph, infer_shapes(graph, entry))
        gid = producer_group(col, "fc1")
        assert gid in {g.id for g in col.prunable_groups()}
        rng = np.random.default_rng(0)
        weights = init_weights(graph, infer_shapes(graph, entry), rng, dtype=np.float64)
        weights["fc1"]["bias"] = rng.normal(0, 1, 5)
        gates = random_gates(col, rng, dtype=np.float64)
        folded = fold_gates(col, gates, weights)
        gains = sigma(gates.values[gid], gates.steepness)
        np.testing.assert_allclose(folded["fc1"]["bias"], weights["fc1"]["bias"] * gains)
        x = rng.normal(0, 1, entry.dims())
        scales = gate_scales(col, snapshot(gates))
        for training in (False, True):
            a = forward(graph, copy.deepcopy(weights), x, node_scales=scales,
                        training=training).output
            b = forward(graph, copy.deepcopy(folded), x, training=training).output
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
