"""Cost accounting: frozen hand values, brute-force parity, exact gradients."""
import numpy as np
import pytest

from prunekit.accounting import (
    op_flops,
    structure_grads,
    structure_measures,
)
from prunekit.errors import ZeroTotal
from prunekit.graph import (
    Graph,
    OpKind,
    TensorShape,
    conv_node,
    infer_shapes,
    simple_node,
)
from prunekit.models import build_reference_model
from prunekit.relax import GateSet, channel_totals, slope, snapshot
from prunekit.subgraph import cost_coefficients, identify_subgraphs

from gen import gated_setups, grouped_setup, random_gates, random_masks
from oracles import brute_force_counts, full_widths, kept_from_masks, relative_error


def widths(col, gates):
    return channel_totals(col, snapshot(gates))


def uniform_gates(col, score):
    """Every prunable group's scores at ``score``."""
    return GateSet({g.id: np.full(g.width, score, np.float32) for g in col.prunable_groups()})


def resnet8_setup(batch=1):
    g = build_reference_model("resnet8")
    shapes = infer_shapes(g, TensorShape(batch, 3, (32, 32)))
    return g, shapes, identify_subgraphs(g, shapes)


class TestFrozenValues:
    """Hand-computed costs for the small residual model at 32x32."""

    def test_fully_on_per_op(self):
        g, shapes, col = resnet8_setup()
        report = structure_measures(g, col, None, shapes)
        # stem conv: 3 -> 16 channels, 3x3 kernel, 32x32 output
        assert report.per_op["stem.conv"].params == 432  # 3 * 16 * 9
        assert report.per_op["stem.conv"].flops == 458752  # 16 * 1024 * (9*3 + 1)
        assert report.per_op["stem.bn"].params == 32
        assert report.per_op["stem.bn"].flops == 16384  # 1 * 16 * 1024
        # classifier: 16 -> 4
        assert report.per_op["head"].params == 68  # 16*4 + 4
        assert report.per_op["head"].flops == 68  # 4 * 17
        assert report.per_op["gpool"].params == 0
        assert report.sigma_p == 1.0
        assert report.sigma_q == 1.0

    def test_half_gated_conv(self):
        g, shapes, col = resnet8_setup()
        gates = uniform_gates(col, 0.0)  # sigma = 0.5 everywhere
        report = structure_measures(g, col, widths(col, gates), shapes)
        # stem conv input channels are the raw image (ungated), output halved
        assert report.per_op["stem.conv"].params == pytest.approx(216.0)  # 3 * 8 * 9
        assert report.per_op["stem.conv"].flops == pytest.approx(229376.0)  # 8*1024*28
        # block conv: both sides halved -> quarter of the weight, flops keep +1 term
        full = structure_measures(g, col, None, shapes)
        assert report.per_op["b1.conv1"].params == pytest.approx(full.per_op["b1.conv1"].params / 4)
        assert 0.0 < report.sigma_p < 1.0
        assert 0.0 < report.sigma_q < 1.0

    def test_relaxed_totals_interpolate(self):
        g, shapes, col = resnet8_setup()
        nearly_off = uniform_gates(col, -20.0)
        nearly_on = uniform_gates(col, 20.0)
        lo = structure_measures(g, col, widths(col, nearly_off), shapes)
        hi = structure_measures(g, col, widths(col, nearly_on), shapes)
        assert lo.relaxed_params < hi.relaxed_params
        assert lo.relaxed_flops < hi.relaxed_flops
        assert hi.sigma_p == pytest.approx(1.0, abs=1e-6)
        assert hi.sigma_q == pytest.approx(1.0, abs=1e-6)
        # with the trunk effectively gone only the raw-input conv rows remain
        assert lo.sigma_p == pytest.approx(0.0, abs=1e-3)

    def test_baseline_override(self):
        g, shapes, col = resnet8_setup()
        report = structure_measures(g, col, None, shapes)
        doubled = structure_measures(
            g, col, None, shapes, baseline=(2 * report.total_params, 2 * report.total_flops)
        )
        assert doubled.sigma_p == pytest.approx(0.5)
        assert doubled.sigma_q == pytest.approx(0.5)

    def test_zero_total_raises(self):
        g = Graph(
            nodes={
                "in": simple_node("in", OpKind.INPUT),
                "r": simple_node("r", OpKind.RELU),
                "out": simple_node("out", OpKind.OUTPUT),
            },
            edges=(("in", "r", 0), ("r", "out", 0)),
            entry="in",
            exit="out",
        )
        shapes = infer_shapes(g, TensorShape(1, 3, (4, 4)))
        col = identify_subgraphs(g, shapes)
        with pytest.raises(ZeroTotal):
            structure_measures(g, col, None, shapes)  # no parameters anywhere

    def test_notes_for_pool_and_unknown(self):
        graph, entry, shapes, col = grouped_setup(3, allow_unknown=True)
        kinds = {n.kind for n in graph.nodes.values()}
        report = structure_measures(graph, col, None, shapes)
        if OpKind.MAX_POOL in kinds or OpKind.UPSAMPLE in kinds:
            assert any("MaxPool" in n for n in report.notes)


class TestBruteForceParity:
    """The relaxed counts at binary gates equal independent integer counting."""

    def test_fully_on_equals_integer_count(self):
        for seed in range(30):
            graph, entry, shapes, col = grouped_setup(seed, allow_unknown=(seed % 6 == 0))
            try:
                report = structure_measures(graph, col, None, shapes)
            except ZeroTotal:
                continue
            p, q = brute_force_counts(graph, shapes, full_widths(col))
            assert report.total_params == p
            assert report.total_flops == q

    def test_binary_gates_equal_masked_integer_count(self):
        rng = np.random.default_rng(2024)
        for seed, graph, entry, shapes, col in gated_setups(25):
            masks = random_masks(col, rng)
            # drive gates to exact 0/1 via huge scores
            gates = GateSet(
                values={gid: np.where(m > 0, 60.0, -60.0) for gid, m in masks.items()},
                steepness=4.0,
            )
            report = structure_measures(graph, col, widths(col, gates), shapes)
            p, q = brute_force_counts(graph, shapes, kept_from_masks(col, masks))
            assert report.relaxed_params == p, f"seed {seed}: params {report.relaxed_params} != {p}"
            assert report.relaxed_flops == q, f"seed {seed}: flops {report.relaxed_flops} != {q}"

    def test_reference_models_fully_on(self):
        for name, shape in [
            ("resnet8", TensorShape(1, 3, (32, 32))),
            ("unet-small", TensorShape(1, 3, (64, 64))),
        ]:
            graph = build_reference_model(name)
            shapes = infer_shapes(graph, shape)
            col = identify_subgraphs(graph, shapes)
            report = structure_measures(graph, col, None, shapes)
            p, q = brute_force_counts(graph, shapes, full_widths(col))
            assert (report.total_params, report.total_flops) == (p, q)


class TestGradients:
    def test_structure_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for seed, graph, entry, shapes, col in gated_setups(10):
            gates = random_gates(col, rng, dtype=np.float64)
            d_p, d_q = structure_grads(col, widths(col, gates))
            gains = snapshot(gates)
            gp = {gid: slope(g, gates.steepness) * d_p[gid] for gid, g in gains.items()}
            gq = {gid: slope(g, gates.steepness) * d_q[gid] for gid, g in gains.items()}
            h = 1e-6
            for gid in gates.values:
                for i in range(gates.values[gid].size):
                    for which, grads in (("p", gp), ("q", gq)):
                        def measure():
                            r = structure_measures(graph, col, widths(col, gates), shapes)
                            return r.sigma_p if which == "p" else r.sigma_q
                        keep = gates.values[gid][i]
                        gates.values[gid][i] = keep + h
                        up = measure()
                        gates.values[gid][i] = keep - h
                        dn = measure()
                        gates.values[gid][i] = keep
                        fd = (up - dn) / (2 * h)
                        err = relative_error(grads[gid][i], fd)
                        assert err < 1e-5, f"seed {seed} group {gid} ch {i} d_sigma_{which}: {err}"

    def test_grads_respect_baseline(self):
        seed, graph, entry, shapes, col = gated_setups(1, start_seed=4)[0]
        gates = random_gates(col, np.random.default_rng(0), dtype=np.float64)
        w = widths(col, gates)
        report = structure_measures(graph, col, w, shapes)
        rows = structure_grads(col, w)
        baseline = (report.total_params * 2, report.total_flops * 2)
        np.testing.assert_allclose(structure_grads(col, w, baseline=baseline), rows / 2, rtol=1e-12)


class TestChannelTotals:
    def test_gated_groups_sum_gains(self):
        g, shapes, col = resnet8_setup()
        gates = uniform_gates(col, 0.0)
        sums = channel_totals(col, snapshot(gates))
        for group in col.groups:
            if group.id in gates.values:
                assert sums[group.id] == pytest.approx(group.width / 2)
            else:
                assert sums[group.id] == group.width

    def test_op_level_helpers(self):
        # sanity-pin the row formulas used throughout
        def params(kind, c_in, c_out, kernel_size=1):
            shape = TensorShape(1, c_out)
            (p2, _), (p1, _) = cost_coefficients(kind, kernel_size, shape, shape)
            return c_in * c_out * p2 + c_out * p1

        assert params(OpKind.CONV, 3, 16, 9) == 432
        assert params(OpKind.FULLY_CONNECTED, 16, 4) == 68
        assert params(OpKind.BATCH_NORM, 16, 16) == 32
        assert op_flops(OpKind.CONV, 3, 16, 9, TensorShape(1, 16, (32, 32)), None) == 458752
        assert op_flops(
            OpKind.MAX_POOL, 16, 16, 1, TensorShape(1, 16, (2, 2)), TensorShape(1, 16, (4, 4))
        ) == 256
