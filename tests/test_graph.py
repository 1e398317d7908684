"""Graph construction, shape inference, validation, and text round-trips."""
import numpy as np
import pytest

from prunekit import engine
from prunekit.errors import (
    GraphStructureError,
    MissingAttribute,
    NonPositiveExtent,
    ParseError,
    ShapeMismatch,
)
from prunekit.graph import (
    Graph,
    OperatorNode,
    OpKind,
    TensorShape,
    conv_node,
    fc_node,
    infer_shapes,
    simple_node,
    validate,
)
from prunekit.graphio import deserialize, load, save, serialize
from prunekit.models import build_reference_model

from gen import random_graph


def chain(*specs, entry="in", exit="out"):
    """Linear graph from a list of nodes (each consumes the previous one)."""
    nodes = {}
    edges = []
    prev = None
    for node in specs:
        nodes[node.id] = node
        if prev is not None:
            edges.append((prev, node.id, 0))
        prev = node.id
    return Graph(nodes=nodes, edges=tuple(edges), entry=entry, exit=exit)


class TestTensorShape:
    def test_dims_and_sizes(self):
        s = TensorShape(4, 3, (8, 8))
        assert s.dims() == (4, 3, 8, 8)
        assert s.size() == 4 * 3 * 64
        assert s.spatial_size() == 64
        assert s.with_channels(7) == TensorShape(4, 7, (8, 8))

    def test_empty_spatial(self):
        s = TensorShape(2, 5)
        assert s.dims() == (2, 5)
        assert s.spatial_size() == 1


class TestShapeInference:
    # (spatial in, kernel, stride, padding, spatial out) computed by hand
    # from the floor rule d_o = (d_i + 2p - k) // s + 1.
    CONV_CASES = [
        ((32, 32), 3, 1, 1, (32, 32)),
        ((32, 32), 3, 2, 1, (16, 16)),
        ((32, 32), 1, 1, 0, (32, 32)),
        ((32, 32), 3, 1, 0, (30, 30)),
        ((7, 9), 3, 2, 0, (3, 4)),
        ((5, 5), 5, 1, 0, (1, 1)),
        ((1, 1), 1, 2, 0, (1, 1)),
    ]

    @pytest.mark.parametrize("din,k,s,p,dout", CONV_CASES)
    def test_conv_floor_arithmetic(self, din, k, s, p, dout):
        g = chain(
            simple_node("in", OpKind.INPUT),
            conv_node("c", 3, 6, kernel=k, stride=s, padding=p),
            simple_node("out", OpKind.OUTPUT),
        )
        shapes = infer_shapes(g, TensorShape(2, 3, din))
        assert shapes["c"] == TensorShape(2, 6, dout)

    def test_conv_rejects_wrong_input_channels(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            conv_node("c", 4, 6, kernel=3, stride=1, padding=1),
            simple_node("out", OpKind.OUTPUT),
        )
        with pytest.raises(ShapeMismatch):
            infer_shapes(g, TensorShape(2, 3, (8, 8)))

    def test_conv_zero_extent_rejected(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            conv_node("c", 3, 6, kernel=3, stride=1, padding=0),
            simple_node("out", OpKind.OUTPUT),
        )
        with pytest.raises(NonPositiveExtent):
            infer_shapes(g, TensorShape(1, 3, (2, 2)))

    def test_fc_requires_unit_spatial(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            fc_node("f", 3, 10),
            simple_node("out", OpKind.OUTPUT),
        )
        shapes = infer_shapes(g, TensorShape(2, 3, (1, 1)))
        assert shapes["f"] == TensorShape(2, 10)
        with pytest.raises(ShapeMismatch):
            infer_shapes(g, TensorShape(2, 3, (2, 2)))

    def test_pool_floor_and_upsample(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            simple_node("p", OpKind.MAX_POOL, factor=2),
            simple_node("u", OpKind.UPSAMPLE, factor=2),
            simple_node("out", OpKind.OUTPUT),
        )
        shapes = infer_shapes(g, TensorShape(1, 4, (7, 7)))
        assert shapes["p"] == TensorShape(1, 4, (3, 3))
        assert shapes["u"] == TensorShape(1, 4, (6, 6))

    def test_concat_adds_channels(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": conv_node("a", 3, 4, kernel=1, stride=1, padding=0),
            "b": conv_node("b", 3, 5, kernel=1, stride=1, padding=0),
            "cat": simple_node("cat", OpKind.CONCAT),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "a", 0), ("in", "b", 0), ("a", "cat", 0), ("b", "cat", 1), ("cat", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        shapes = infer_shapes(g, TensorShape(2, 3, (6, 6)))
        assert shapes["cat"] == TensorShape(2, 9, (6, 6))

    def test_sum_requires_identical_shapes(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": conv_node("a", 3, 4, kernel=1, stride=1, padding=0),
            "b": conv_node("b", 3, 5, kernel=1, stride=1, padding=0),
            "s": simple_node("s", OpKind.SUM),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "a", 0), ("in", "b", 0), ("a", "s", 0), ("b", "s", 1), ("s", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        with pytest.raises(ShapeMismatch):
            infer_shapes(g, TensorShape(2, 3, (6, 6)))

    def test_missing_attribute_detected(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            simple_node("p", OpKind.MAX_POOL),  # factor omitted
            simple_node("out", OpKind.OUTPUT),
        )
        with pytest.raises(MissingAttribute):
            infer_shapes(g, TensorShape(1, 3, (4, 4)))


class TestGraphStructure:
    def test_edges_canonicalised(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": simple_node("a", OpKind.RELU),
            "b": simple_node("b", OpKind.RELU),
            "s": simple_node("s", OpKind.SUM),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        e1 = (("in", "a", 0), ("in", "b", 0), ("a", "s", 0), ("b", "s", 1), ("s", "out", 0))
        e2 = tuple(reversed(e1))
        g1 = Graph(nodes=dict(nodes), edges=e1, entry="in", exit="out")
        g2 = Graph(nodes=dict(nodes), edges=e2, entry="in", exit="out")
        assert g1.edges == g2.edges
        assert g1.inputs("s") == ("a", "b")

    def test_unknown_edge_endpoint_rejected(self):
        nodes = {"in": simple_node("in", OpKind.INPUT), "out": simple_node("out", OpKind.OUTPUT)}
        with pytest.raises(GraphStructureError):
            Graph(nodes=nodes, edges=(("in", "ghost", 0),), entry="in", exit="out")

    def test_topo_order_linear_and_diamond(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            simple_node("r", OpKind.RELU),
            simple_node("out", OpKind.OUTPUT),
        )
        assert g.topo_order() == ("in", "r", "out")

        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": simple_node("a", OpKind.RELU),
            "b": simple_node("b", OpKind.RELU),
            "s": simple_node("s", OpKind.SUM),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "a", 0), ("in", "b", 0), ("a", "s", 0), ("b", "s", 1), ("s", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        order = g.topo_order()
        assert order.index("in") < order.index("a") < order.index("s") < order.index("out")
        assert order.index("a") < order.index("b")  # tie broken by id

    def test_cycle_raises(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": simple_node("a", OpKind.SUM),
            "b": simple_node("b", OpKind.RELU),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "a", 0), ("b", "a", 1), ("a", "b", 0), ("b", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        with pytest.raises(GraphStructureError):
            g.topo_order()


class TestValidate:
    def diag_codes(self, graph, input_shape=None):
        return {d.code for d in validate(graph, input_shape)}

    def test_reference_models_validate_clean(self):
        for name, shape in [
            ("resnet8", TensorShape(2, 3, (32, 32))),
            ("resnet18", TensorShape(2, 3, (32, 32))),
            ("unet-small", TensorShape(2, 3, (64, 64))),
        ]:
            graph = build_reference_model(name)
            assert validate(graph, shape) == []

    def test_entry_exit_codes(self):
        g = chain(
            simple_node("in", OpKind.RELU),  # wrong kind for entry
            simple_node("out", OpKind.OUTPUT),
        )
        assert "EntryExit" in self.diag_codes(g)

    def test_extra_input_node_flagged(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "in2": simple_node("in2", OpKind.INPUT),
            "s": simple_node("s", OpKind.SUM),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "s", 0), ("in2", "s", 1), ("s", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        assert "EntryExit" in self.diag_codes(g)

    def test_bad_arity(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            simple_node("s", OpKind.SUM),  # needs two inputs
            simple_node("out", OpKind.OUTPUT),
        )
        assert "BadArity" in self.diag_codes(g)

    def test_duplicate_slot(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": simple_node("a", OpKind.RELU),
            "s": simple_node("s", OpKind.SUM),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "a", 0), ("in", "s", 0), ("a", "s", 0), ("s", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        assert "BadSlot" in self.diag_codes(g)

    def test_unreachable(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "r": simple_node("r", OpKind.RELU),
            "stray": simple_node("stray", OpKind.RELU),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "r", 0), ("r", "out", 0), ("in", "stray", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        diags = validate(g)
        assert [d.code for d in diags] == ["Unreachable"]
        assert diags[0].node == "stray"

    def test_cycle_reported_not_raised(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "a": simple_node("a", OpKind.SUM),
            "b": simple_node("b", OpKind.RELU),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (("in", "a", 0), ("b", "a", 1), ("a", "b", 0), ("b", "out", 0))
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        assert "CycleDetected" in self.diag_codes(g, TensorShape(1, 3, (4, 4)))

    def test_shape_problems_become_diagnostics(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            conv_node("c", 3, 6, kernel=3, stride=1, padding=0),
            simple_node("out", OpKind.OUTPUT),
        )
        assert "NonPositiveExtent" in self.diag_codes(g, TensorShape(1, 3, (2, 2)))
        g2 = chain(
            simple_node("in", OpKind.INPUT),
            conv_node("c", 5, 6, kernel=3, stride=1, padding=1),
            simple_node("out", OpKind.OUTPUT),
        )
        assert "ShapeMismatch" in self.diag_codes(g2, TensorShape(1, 3, (8, 8)))

    def test_missing_attr_diagnostic(self):
        g = chain(
            simple_node("in", OpKind.INPUT),
            simple_node("p", OpKind.MAX_POOL),
            simple_node("out", OpKind.OUTPUT),
        )
        assert "MissingAttribute" in self.diag_codes(g)

    @pytest.mark.parametrize("value", [True, 1.0, "3"])
    def test_validate_reports_bad_attribute_values_instead_of_raising(self, value):
        node = conv_node("c", 3, 4, kernel=1)
        g = chain(simple_node("in", OpKind.INPUT),
                  OperatorNode("c", OpKind.CONV, {**node.attrs, "out_channels": value}),
                  simple_node("out", OpKind.OUTPUT))
        assert "BadAttributes" in {d.code for d in validate(g, TensorShape(1, 3, (4, 4)))}

    @pytest.mark.parametrize(
        "name,value", [("stride", (1,)), ("stride", (1, 1, 1)), ("padding", (1,)), ("padding", (1, 1, 1))]
    )
    def test_conv_attributes_of_another_rank_than_the_kernel_rejected(self, name, value):
        """A stride or padding whose rank differs from the kernel's is a
        ``BadAttributes`` diagnostic, not a silently truncated shape and a
        bare ``ValueError`` from the engine."""
        node = conv_node("c", 3, 4, kernel=3, stride=1, padding=1)
        g = chain(simple_node("in", OpKind.INPUT),
                  OperatorNode("c", OpKind.CONV, {**node.attrs, name: value}),
                  simple_node("out", OpKind.OUTPUT))
        diags = validate(g, TensorShape(1, 3, (6, 6)))
        assert [(d.code, d.node) for d in diags] == [("BadAttributes", "c")]
        assert f"'{name}': {len(value)}" in diags[0].message

    # Each kind's rules, pinned apart from the code's own table: a full
    # attribute set and the least and most input count (None: unbounded).
    KIND_PINS = {
        OpKind.INPUT: ({}, 0, 0),
        OpKind.OUTPUT: ({}, 1, 1),
        OpKind.CONV: (conv_node("n", 2, 2, kernel=1).attrs, 1, 1),
        OpKind.BATCH_NORM: ({}, 1, 1),
        OpKind.RELU: ({}, 1, 1),
        OpKind.SUM: ({}, 2, None),
        OpKind.PRODUCT: ({}, 2, None),
        OpKind.CONCAT: ({}, 2, None),
        OpKind.FULLY_CONNECTED: (fc_node("n", 2, 2).attrs, 1, 1),
        OpKind.MAX_POOL: ({"factor": 2}, 1, 1),
        OpKind.UPSAMPLE: ({"factor": 2}, 1, 1),
        OpKind.UNKNOWN: ({"kind_name": "Opaque"}, 1, None),
    }

    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_kind_rules(self, kind):
        attrs, lo, hi = self.KIND_PINS[kind]

        def diags(n_inputs, node_attrs=attrs):
            """Code -> message of the diagnostics on a node ``n`` of this
            kind fed ``n_inputs`` times by the entry."""
            nodes = {
                "in": simple_node("in", OpKind.INPUT),
                "n": OperatorNode("n", kind, dict(node_attrs)),
                "out": simple_node("out", OpKind.OUTPUT),
            }
            edges = tuple(("in", "n", slot) for slot in range(n_inputs)) + (("n", "out", 0),)
            graph = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
            return {d.code: d.message for d in validate(graph) if d.node == "n"}

        rule_codes = {"BadArity", "MissingAttribute", "BadAttributes"}
        assert not rule_codes & set(diags(lo))
        takes = f"{kind.value} takes {lo}{'' if hi == lo else '+'} inputs, got"
        if lo > 0:
            assert diags(lo - 1)["BadArity"] == f"{takes} {lo - 1}"
        if hi is None:
            assert "BadArity" not in diags(lo + 3)
        else:
            assert diags(hi + 1)["BadArity"] == f"{takes} {hi + 1}"
        if kind == OpKind.UNKNOWN:
            assert not rule_codes & set(diags(lo, {**attrs, "bogus": 1}))
            return
        for name in attrs:
            missing = diags(lo, {k: v for k, v in attrs.items() if k != name})
            assert missing["MissingAttribute"] == f"missing attributes [{name!r}]"
        extra = diags(lo, {**attrs, "bogus": 1})
        assert extra["BadAttributes"] == "unexpected attributes ['bogus']"

    def test_every_kind_has_a_rule_and_an_engine_op(self):
        from prunekit.graph import KIND_RULES

        assert set(KIND_RULES) == set(OpKind)
        assert set(engine._OP_TABLE) == set(OpKind)


class TestTextFormat:
    def test_round_trip_reference_models(self):
        for name in ("resnet8", "unet-small"):
            graph = build_reference_model(name)
            again = deserialize(serialize(graph))
            assert again == graph

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_random_graphs(self, seed):
        graph, _ = random_graph(seed, allow_unknown=True)
        text = serialize(graph)
        again = deserialize(text)
        assert again == graph
        assert serialize(again) == text  # canonical form is a fixed point

    def test_unknown_kind_token_preserved(self):
        text = (
            "version 1\n"
            "entry in\n"
            "exit out\n"
            "node in Input\n"
            "node mid SelfAttention inputs=in heads=4\n"
            "node out Output inputs=mid\n"
        )
        g = deserialize(text)
        assert g.nodes["mid"].kind == OpKind.UNKNOWN
        assert g.nodes["mid"].attrs["kind_name"] == "SelfAttention"
        assert g.nodes["mid"].attrs["heads"] == 4
        assert "node mid SelfAttention inputs=in heads=4" in serialize(g)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a comment\n\nversion 1\nentry in\nexit out\n"
            "node in Input\n# another\nnode out Output inputs=in\n"
        )
        g = deserialize(text)
        assert set(g.nodes) == {"in", "out"}

    def test_save_load(self, tmp_path):
        graph = build_reference_model("resnet8")
        path = tmp_path / "g.graph"
        save(graph, str(path))
        assert load(str(path)) == graph

    @pytest.mark.parametrize(
        "text,expect_line",
        [
            ("version 2\nentry a\nexit a\nnode a Input\n", 1),
            ("version 1\nentry\nexit a\nnode a Input\n", 2),
            ("version 1\nentry a\nexit a\nnode a Input junk\n", 4),
            ("version 1\nentry a\nexit a\nnode a Input k=\n", 4),
            ("version 1\nentry a\nexit a\nnode a Input\nnode a Input\n", 5),
            ("version 1\nentry a\nexit a\nnode a Input\nwhat is this\n", 5),
        ],
    )
    def test_parse_errors_report_line(self, text, expect_line):
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert err.value.line == expect_line

    def test_parse_errors_without_line(self):
        with pytest.raises(ParseError):
            deserialize("entry a\nexit a\nnode a Input\n")  # no version
        with pytest.raises(ParseError):
            deserialize("version 1\nexit a\nnode a Input\n")  # no entry
        with pytest.raises(ParseError):
            deserialize("version 1\nentry a\nexit a\nnode a Output inputs=ghost\n")

    @pytest.mark.parametrize(
        "body,code,node",
        [
            ("node c Convolution inputs=in,in in_channels=1 out_channels=1 kernel=1,1 "
             "stride=1,1 padding=0,0\nnode out Output inputs=c\n", "BadArity", "c"),
            ("node s Sum inputs=in\nnode out Output inputs=s\n", "BadArity", "s"),
            ("node r ReLU inputs=in\nnode out Output inputs=in\n", "Unreachable", "r"),
            ("node o Output inputs=in\n", "EntryExit", "-"),
        ],
        ids=["two-input-conv", "one-input-sum", "unreachable-relu", "missing-exit"],
    )
    def test_structurally_invalid_documents_rejected(self, body, code, node):
        text = "version 1\nentry in\nexit out\nnode in Input\n" + body
        with pytest.raises(ParseError, match=f"{code} {node}:"):
            deserialize(text)

    @pytest.mark.parametrize(
        "attrs,name",
        [
            ("in_channels=1 out_channels=1 kernel=a stride=1 padding=0", "kernel"),
            ("in_channels=1 out_channels=1 kernel=1 stride=x padding=0", "stride"),
            ("in_channels=abc out_channels=1 kernel=1 stride=1 padding=0", "in_channels"),
            ("in_channels=1 out_channels=1 kernel=1.5 stride=1 padding=0", "kernel"),
            ("in_channels=1 out_channels=1 kernel=1 stride=1 padding=1.5", "padding"),
            ("factor=x", "factor"),
            ("factor=2.5", "factor"),
        ],
    )
    def test_non_integer_attribute_values_rejected(self, attrs, name):
        kind = "MaxPool" if attrs.startswith("factor") else "Convolution"
        text = ("version 1\nentry in\nexit out\nnode in Input\n"
                f"node n {kind} inputs=in {attrs}\nnode out Output inputs=n\n")
        with pytest.raises(ParseError, match=f"BadAttributes n: {name} must be an integer"):
            deserialize(text)

    def test_scalar_conv_attributes_read_as_conv_node_reads_them(self):
        text = ("version 1\nentry in\nexit out\nnode in Input\n"
                "node c Convolution inputs=in in_channels=3 out_channels=8 kernel=3 stride=1 "
                "padding=1\nnode out Output inputs=c\n")
        graph = deserialize(text)
        assert graph.nodes["c"].attrs == conv_node("c", 3, 8, 3, 1, 1).attrs
        assert infer_shapes(graph, TensorShape(1, 3, (6, 6)))["c"] == TensorShape(1, 8, (6, 6))

    def test_conv_attributes_of_mismatched_rank_rejected(self):
        text = ("version 1\nentry in\nexit out\nnode in Input\n"
                "node c Convolution inputs=in in_channels=3 out_channels=8 kernel=3,3 stride=1,1 "
                "padding=1,1,1\nnode out Output inputs=c\n")
        with pytest.raises(ParseError, match="BadAttributes c: spatial attributes differ in rank"):
            deserialize(text)

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ParseError):
            deserialize(
                "version 1\nentry a\nexit a\nnode a Input k=1 k=2\n"
            )
