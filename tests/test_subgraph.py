"""Channel grouping: merges across joins, concat segments, prunability."""
import random

import pytest

from prunekit.accounting import structure_measures
from prunekit.errors import InconsistentWidths
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
from prunekit.relax import channel_totals
from prunekit.subgraph import identify_subgraphs

from gen import grouped_setup, producer_group, random_graph


def build(nodes, edges, entry="in", exit="out"):
    return Graph(nodes={n.id: n for n in nodes}, edges=tuple(edges), entry=entry, exit=exit)


def colored(graph, input_shape):
    shapes = infer_shapes(graph, input_shape)
    return shapes, identify_subgraphs(graph, shapes)


PARAMETRIC = (OpKind.CONV, OpKind.FULLY_CONNECTED, OpKind.BATCH_NORM)


def places(graph, col, group):
    """``(node, side, offset)`` wherever ``group``'s channels enter ("in": the
    input of a Convolution, FullyConnected or BatchNorm, at channel
    ``offset``) or leave ("out": a Convolution/FullyConnected output) a
    parametric operator, read off the node segments and the graph."""
    found = set()
    for nid, node in graph.nodes.items():
        if node.kind not in PARAMETRIC:
            continue
        offset = 0
        for seg in col.node_segments[graph.inputs(nid)[0]]:
            if seg.group == group.id:
                found.add((nid, "in", offset))
            offset += seg.width
        if node.kind != OpKind.BATCH_NORM and col.node_segments[nid][0].group == group.id:
            found.add((nid, "out", 0))
    return found


def member_set(graph, col, group):
    return sorted({(nid, side) for nid, side, _ in places(graph, col, group)})


class TestChains:
    def test_conv_bn_chain_groups(self):
        g = build(
            [
                simple_node("in", OpKind.INPUT),
                conv_node("c1", 3, 4, kernel=3, stride=1, padding=1),
                simple_node("bn", OpKind.BATCH_NORM),
                simple_node("relu", OpKind.RELU),
                conv_node("c2", 4, 5, kernel=1, stride=1, padding=0),
                simple_node("out", OpKind.OUTPUT),
            ],
            [("in", "c1", 0), ("c1", "bn", 0), ("bn", "relu", 0), ("relu", "c2", 0), ("c2", "out", 0)],
        )
        shapes, col = colored(g, TensorShape(2, 3, (8, 8)))

        inner = col.group(producer_group(col, "c1"))
        assert inner.width == 4
        assert inner.prunable
        assert member_set(g, col, inner) == [("bn", "in"), ("c1", "out"), ("c2", "in")]

        head = col.group(producer_group(col, "c2"))
        assert head.width == 5
        assert not head.prunable  # feeds the network output

        entry_group = col.group(col.node_segments["in"][0].group)
        assert not entry_group.prunable
        assert member_set(g, col, entry_group) == [("c1", "in")]

    def test_fc_head_roles(self):
        g = build(
            [
                simple_node("in", OpKind.INPUT),
                conv_node("c", 3, 6, kernel=3, stride=1, padding=1),
                simple_node("pool", OpKind.MAX_POOL, factor=8),
                fc_node("head", 6, 10),
                simple_node("out", OpKind.OUTPUT),
            ],
            [("in", "c", 0), ("c", "pool", 0), ("pool", "head", 0), ("head", "out", 0)],
        )
        shapes, col = colored(g, TensorShape(2, 3, (8, 8)))
        conv_group = col.group(producer_group(col, "c"))
        assert conv_group.prunable
        assert g.nodes["head"].kind == OpKind.FULLY_CONNECTED
        assert ("head", "in") in member_set(g, col, conv_group)
        head_group = col.group(producer_group(col, "head"))
        assert member_set(g, col, head_group) == [("head", "out")]
        assert not head_group.prunable


class TestJoins:
    def _skip_block(self):
        """in -> c1 -> bn1 -> relu -> c2 -> sum(+c1 path) -> c3 -> out"""
        return build(
            [
                simple_node("in", OpKind.INPUT),
                conv_node("c1", 3, 4, kernel=3, stride=1, padding=1),
                simple_node("bn1", OpKind.BATCH_NORM),
                simple_node("relu1", OpKind.RELU),
                conv_node("c2", 4, 4, kernel=3, stride=1, padding=1),
                simple_node("add", OpKind.SUM),
                conv_node("c3", 4, 5, kernel=1, stride=1, padding=0),
                simple_node("out", OpKind.OUTPUT),
            ],
            [
                ("in", "c1", 0),
                ("c1", "bn1", 0),
                ("bn1", "relu1", 0),
                ("relu1", "c2", 0),
                ("c2", "add", 0),
                ("c1", "add", 1),
                ("add", "c3", 0),
                ("c3", "out", 0),
            ],
        )

    def test_sum_merges_producer_groups(self):
        g = self._skip_block()
        shapes, col = colored(g, TensorShape(2, 3, (8, 8)))
        assert producer_group(col, "c1") == producer_group(col, "c2")
        merged = col.group(producer_group(col, "c1"))
        assert merged.prunable
        assert ("c1", "out") in member_set(g, col, merged)
        assert ("c2", "out") in member_set(g, col, merged)
        assert ("c3", "in") in member_set(g, col, merged)

    def test_product_merges_like_sum(self):
        g = self._skip_block()
        nodes = dict(g.nodes)
        nodes["add"] = simple_node("add", OpKind.PRODUCT)
        g2 = Graph(nodes=nodes, edges=g.edges, entry="in", exit="out")
        shapes, col = colored(g2, TensorShape(2, 3, (8, 8)))
        assert producer_group(col, "c1") == producer_group(col, "c2")

    def test_sum_with_misaligned_segments_rejected(self):
        # concat(2+2) summed with a plain 4-wide tensor: widths agree but the
        # segment boundaries do not, so channel identity cannot be aligned.
        g = build(
            [
                simple_node("in", OpKind.INPUT),
                conv_node("a", 3, 2, kernel=1, stride=1, padding=0),
                conv_node("b", 3, 2, kernel=1, stride=1, padding=0),
                simple_node("cat", OpKind.CONCAT),
                conv_node("c", 3, 4, kernel=1, stride=1, padding=0),
                simple_node("add", OpKind.SUM),
                simple_node("out", OpKind.OUTPUT),
            ],
            [
                ("in", "a", 0),
                ("in", "b", 0),
                ("a", "cat", 0),
                ("b", "cat", 1),
                ("in", "c", 0),
                ("cat", "add", 0),
                ("c", "add", 1),
                ("add", "out", 0),
            ],
        )
        shapes = infer_shapes(g, TensorShape(2, 3, (8, 8)))
        with pytest.raises(InconsistentWidths):
            identify_subgraphs(g, shapes)

    def test_concat_keeps_segments_with_offsets(self):
        g = build(
            [
                simple_node("in", OpKind.INPUT),
                conv_node("a", 3, 2, kernel=1, stride=1, padding=0),
                conv_node("b", 3, 3, kernel=1, stride=1, padding=0),
                simple_node("cat", OpKind.CONCAT),
                conv_node("c", 5, 6, kernel=1, stride=1, padding=0),
                simple_node("out", OpKind.OUTPUT),
            ],
            [
                ("in", "a", 0),
                ("in", "b", 0),
                ("a", "cat", 0),
                ("b", "cat", 1),
                ("cat", "c", 0),
                ("c", "out", 0),
            ],
        )
        shapes, col = colored(g, TensorShape(2, 3, (8, 8)))
        segs = col.node_segments["cat"]
        assert [s.width for s in segs] == [2, 3]
        assert segs[0].group == producer_group(col, "a")
        assert segs[1].group == producer_group(col, "b")
        group_b = col.group(producer_group(col, "b"))
        # b's channels enter c after a's.
        assert {p for p in places(g, col, group_b) if p[0] == "c"} == {("c", "in", 2)}
        assert col.group(producer_group(col, "a")).prunable
        assert col.group(producer_group(col, "b")).prunable


class TestPrunability:
    def test_group_through_unknown_blocked(self):
        g = build(
            [
                simple_node("in", OpKind.INPUT),
                conv_node("c1", 3, 4, kernel=1, stride=1, padding=0),
                simple_node("mystery", OpKind.UNKNOWN, kind_name="Mystery"),
                conv_node("c2", 4, 5, kernel=1, stride=1, padding=0),
                simple_node("out", OpKind.OUTPUT),
            ],
            [("in", "c1", 0), ("c1", "mystery", 0), ("mystery", "c2", 0), ("c2", "out", 0)],
        )
        shapes, col = colored(g, TensorShape(2, 3, (8, 8)))
        assert not col.group(producer_group(col, "c1")).prunable

    def test_every_channel_covered_once(self):
        """Segments of every node tile its channel dimension exactly."""
        for seed in range(25):
            graph, entry_shape, shapes, col = grouped_setup(seed, allow_unknown=(seed % 5 == 0))
            for nid, segs in col.node_segments.items():
                assert sum(s.width for s in segs) == shapes[nid].channels
                for s in segs:
                    assert col.group(s.group).width == s.width

    def test_cost_table_widths_match_shapes(self):
        """At full group widths the cost table's input and output widths of
        every node are its first input's and its own channel counts."""
        for seed in range(10):
            graph, entry_shape, shapes, col = grouped_setup(seed, allow_unknown=(seed % 5 == 0))
            full = channel_totals(col, {})
            assert col.costs.nodes == graph.topo_order()
            for i, nid in enumerate(col.costs.nodes):
                ins = graph.inputs(nid)
                assert col.costs.u[i] @ full == (shapes[ins[0]].channels if ins else 0)
                assert col.costs.v[i] @ full == shapes[nid].channels


class TestReferenceModels:
    def test_resnet8_structure(self):
        g = build_reference_model("resnet8")
        shapes, col = colored(g, TensorShape(1, 3, (32, 32)))
        assert len(col.groups) == 6
        assert len(col.prunable_groups()) == 4
        # The residual trunk ties the stem and every block's second conv
        # together with the classifier input.
        trunk = col.group(producer_group(col, "stem.conv"))
        assert trunk.prunable and trunk.width == 16
        trunk_members = member_set(g, col, trunk)
        assert g.nodes["head"].kind == OpKind.FULLY_CONNECTED
        assert g.nodes["stem.bn"].kind == OpKind.BATCH_NORM
        for expected in [
            ("stem.conv", "out"),
            ("b1.conv2", "out"),
            ("b2.conv2", "out"),
            ("b3.conv2", "out"),
            ("b1.conv1", "in"),
            ("head", "in"),
            ("stem.bn", "in"),
        ]:
            assert expected in trunk_members
        # Block-internal groups stay independent.
        inner = {producer_group(col, f"b{i}.conv1") for i in (1, 2, 3)}
        assert len(inner) == 3
        head = col.group(producer_group(col, "head"))
        assert not head.prunable and head.width == 4

    def test_unet_small_structure(self):
        g = build_reference_model("unet-small")
        shapes, col = colored(g, TensorShape(1, 3, (64, 64)))
        assert len(col.groups) == 16
        assert len(col.prunable_groups()) == 14
        # Skip connections enter decoders via concatenation: two segments.
        concats = [nid for nid, n in g.nodes.items() if n.kind == OpKind.CONCAT]
        assert len(concats) == 3
        for nid in concats:
            segs = col.node_segments[nid]
            assert len(segs) == 2
            assert all(col.group(s.group).prunable for s in segs)

    def test_footprint_covers_prunable_groups(self):
        g = build_reference_model("resnet8")
        shapes, col = colored(g, TensorShape(1, 3, (32, 32)))
        full = structure_measures(g, col, None, shapes)
        footprint = {}
        for group in col.prunable_groups():
            # The cost a group adds when switched fully on, all else on.
            widths = channel_totals(col, {})
            widths[group.id] = 0.0
            off = structure_measures(g, col, widths, shapes)
            footprint[group.id] = (
                full.total_params - off.relaxed_params,
                full.total_flops - off.relaxed_flops,
            )
        assert set(footprint) == {gr.id for gr in col.prunable_groups()}
        assert all(p > 0 and f > 0 for p, f in footprint.values())
        # The trunk appears in more operators than a block-internal group,
        # so switching it off must be worth more parameters.
        trunk = producer_group(col, "stem.conv")
        inner = producer_group(col, "b1.conv1")
        assert footprint[trunk][0] > footprint[inner][0]


class TestNumbering:
    PINNED = {
        ("resnet8", 32): {
            "stem.conv": 1, "b1.conv1": 0, "b1.conv2": 1, "b2.conv1": 2, "b2.conv2": 1,
            "b3.conv1": 3, "b3.conv2": 1, "head": 4,
        },
        ("unet-small", 64): {
            "enc1.a.conv": 10, "enc1.b.conv": 1, "enc2.a.conv": 12, "enc2.b.conv": 5,
            "enc3.a.conv": 13, "enc3.b.conv": 8, "mid.a.conv": 15, "mid.b.conv": 9,
            "dec3.a.conv": 7, "dec3.b.conv": 6, "dec2.a.conv": 4, "dec2.b.conv": 2,
            "dec1.a.conv": 0, "dec1.b.conv": 3, "head": 14,
        },
    }

    @pytest.mark.parametrize("name,size", list(PINNED))
    def test_producer_groups_are_pinned(self, name, size):
        # Gate initialisation draws its jitter in group order, so renumbering
        # would change every fixed-seed run.
        g = build_reference_model(name)
        shapes, col = colored(g, TensorShape(1, 3, (size, size)))
        assert col.producers == self.PINNED[name, size]
        assert list(col.producers) == [
            nid for nid in g.topo_order()
            if g.nodes[nid].kind in (OpKind.CONV, OpKind.FULLY_CONNECTED)
        ]
        for nid, gid in col.producers.items():
            assert [(s.group, s.width) for s in col.node_segments[nid]] == [
                (gid, shapes[nid].channels)
            ]

    def test_groups_are_numbered_by_their_first_place(self):
        """Group ids follow the least ``(node, side, offset)`` place of each
        group; the entry's group, if it enters no parametric operator, is
        keyed by the entry (side "" sorts first)."""
        for seed in range(200):
            graph, entry_shape, shapes, col = grouped_setup(seed, allow_unknown=seed % 2 == 1)
            keys = [min(places(graph, col, g), default=(graph.entry, "", 0)) for g in col.groups]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), seed

    @pytest.mark.parametrize("source", [*PINNED, "gen"], ids=["resnet8", "unet-small", "gen"])
    def test_numbering_ignores_node_and_edge_order(self, source):
        rng = random.Random(0)
        if source == "gen":
            cases = [random_graph(seed, allow_unknown=True) for seed in range(40)]
        else:
            name, size = source
            cases = [(build_reference_model(name), TensorShape(1, 3, (size, size)))]
        for graph, entry_shape in cases:
            nodes, edges = list(graph.nodes.values()), list(graph.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            shuffled = Graph(nodes={n.id: n for n in nodes}, edges=tuple(edges),
                             entry=graph.entry, exit=graph.exit)
            _, want = colored(graph, entry_shape)
            _, got = colored(shuffled, entry_shape)
            assert got.groups == want.groups
            assert got.node_segments == want.node_segments
            assert got.producers == want.producers
