"""Numerical engine: forward oracles, exact tape gradients, failure modes."""
import copy

import numpy as np
import pytest

from prunekit.engine import (
    BN_EPS,
    forward,
    init_weights,
    trainable_params,
)
from prunekit.errors import (
    MissingWeights,
    NonFiniteTensor,
    ShapeMismatch,
    StaleTape,
)
from prunekit.graph import (
    Graph,
    OpKind,
    TensorShape,
    conv_node,
    infer_shapes,
    simple_node,
)
from prunekit.relax import GateSet
from prunekit.subgraph import identify_subgraphs

from gen import gated_setups, grouped_setup, random_gates
from oracles import (
    naive_batchnorm,
    naive_batchnorm_backward,
    naive_conv,
    naive_conv_backward,
    naive_maxpool,
    naive_maxpool_backward,
    naive_upsample_backward,
    relative_error,
)


def chain_graph(*mid_nodes):
    nodes = [simple_node("in", OpKind.INPUT), *mid_nodes, simple_node("out", OpKind.OUTPUT)]
    edges = [(nodes[i].id, nodes[i + 1].id, 0) for i in range(len(nodes) - 1)]
    return Graph(nodes={n.id: n for n in nodes}, edges=tuple(edges), entry="in", exit="out")


def op_record(run, nid):
    """Backward function of the run's node ``nid``: maps an output gradient
    to ``([dx], {param key: gradient})``."""
    return next(fn for out_key, _, fn in run._tape if out_key == nid)


def assert_bitwise_equal(got, want):
    """Equal dtype, shape and bit patterns (so +0.0 and -0.0 differ)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def bn_weights(gamma, beta, running_mean=None, running_var=None):
    c = len(gamma)
    return {
        "bn": {
            "gamma": np.array(gamma),
            "beta": np.array(beta),
            "running_mean": np.zeros(c, gamma.dtype) if running_mean is None else running_mean,
            "running_var": np.ones(c, gamma.dtype) if running_var is None else running_var,
        }
    }


def run_setup(seed, training=False, **kwargs):
    graph, entry_shape, shapes, col = grouped_setup(seed, **kwargs)
    rng = np.random.default_rng(seed + 1000)
    weights = init_weights(graph, shapes, rng, dtype=np.float64)
    x = rng.normal(0, 1, entry_shape.dims())
    return graph, shapes, col, weights, x


class TestForwardOracles:
    @pytest.mark.parametrize("k,s,p", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (3, 1, 0), (3, 2, 0)])
    def test_conv_matches_direct_loops(self, k, s, p):
        rng = np.random.default_rng(0)
        g = chain_graph(conv_node("c", 3, 5, kernel=k, stride=s, padding=p))
        x = rng.normal(0, 1, (2, 3, 7, 6))
        kernel = rng.normal(0, 1, (5, 3, k, k))
        run = forward(g, {"c": {"kernel": kernel}}, x)
        expected = naive_conv(x, kernel, (s, s), (p, p))
        np.testing.assert_allclose(run.output, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("size,factor", [((6, 6), 2), ((7, 5), 2), ((5, 5), 5)])
    def test_maxpool_matches_direct_loops(self, size, factor):
        rng = np.random.default_rng(1)
        g = chain_graph(simple_node("p", OpKind.MAX_POOL, factor=factor))
        x = rng.normal(0, 1, (2, 4, *size))
        run = forward(g, {}, x)
        np.testing.assert_array_equal(run.output, naive_maxpool(x, factor))

    def test_upsample_repeats_pixels(self):
        x = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
        g = chain_graph(simple_node("u", OpKind.UPSAMPLE, factor=3))
        run = forward(g, {}, x)
        assert run.output.shape == (2, 3, 6, 6)
        np.testing.assert_array_equal(run.output[:, :, 0:3, 0:3], np.broadcast_to(x[:, :, 0:1, 0:1], (2, 3, 3, 3)))
        np.testing.assert_array_equal(run.output[:, :, ::3, ::3], x)

    def test_batchnorm_training_matches_formula(self):
        rng = np.random.default_rng(2)
        g = chain_graph(simple_node("bn", OpKind.BATCH_NORM))
        x = rng.normal(3, 2, (4, 5, 6, 6))
        gamma = rng.normal(1, 0.2, 5)
        beta = rng.normal(0, 0.2, 5)
        w = {
            "bn": {
                "gamma": gamma.copy(),
                "beta": beta.copy(),
                "running_mean": np.zeros(5),
                "running_var": np.ones(5),
            }
        }
        run = forward(g, w, x, training=True)
        np.testing.assert_allclose(run.output, naive_batchnorm(x, gamma, beta, BN_EPS), rtol=1e-10)
        # normalised activations have ~zero mean / unit variance per channel
        xhat = (run.output - beta.reshape(1, 5, 1, 1)) / gamma.reshape(1, 5, 1, 1)
        np.testing.assert_allclose(xhat.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        np.testing.assert_allclose(xhat.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_batchnorm_running_stats(self):
        rng = np.random.default_rng(3)
        g = chain_graph(simple_node("bn", OpKind.BATCH_NORM))
        x = rng.normal(3, 2, (8, 2, 4, 4))
        w = {
            "bn": {
                "gamma": np.ones(2),
                "beta": np.zeros(2),
                "running_mean": np.zeros(2),
                "running_var": np.ones(2),
            }
        }
        batch_mean = x.mean(axis=(0, 2, 3))
        batch_var = x.var(axis=(0, 2, 3))
        forward(g, w, x, training=True, bn_momentum=0.1)
        np.testing.assert_allclose(w["bn"]["running_mean"], 0.1 * batch_mean, rtol=1e-10)
        np.testing.assert_allclose(w["bn"]["running_var"], 0.9 + 0.1 * batch_var, rtol=1e-10)

        # evaluation uses the running estimates and leaves them untouched
        frozen = copy.deepcopy(w)
        run = forward(g, w, x, training=False)
        np.testing.assert_array_equal(w["bn"]["running_mean"], frozen["bn"]["running_mean"])
        expected = (x - w["bn"]["running_mean"].reshape(1, 2, 1, 1)) / np.sqrt(
            w["bn"]["running_var"].reshape(1, 2, 1, 1) + BN_EPS
        )
        np.testing.assert_allclose(run.output, expected, rtol=1e-6)

    def test_sum_product_concat(self):
        nodes = {
            "in": simple_node("in", OpKind.INPUT),
            "r": simple_node("r", OpKind.RELU),
            "s": simple_node("s", OpKind.SUM),
            "p": simple_node("p", OpKind.PRODUCT),
            "cat": simple_node("cat", OpKind.CONCAT),
            "out": simple_node("out", OpKind.OUTPUT),
        }
        edges = (
            ("in", "r", 0),
            ("in", "s", 0), ("r", "s", 1),
            ("in", "p", 0), ("r", "p", 1),
            ("s", "cat", 0), ("p", "cat", 1),
            ("cat", "out", 0),
        )
        g = Graph(nodes=nodes, edges=edges, entry="in", exit="out")
        x = np.array([[-1.0, 2.0], [3.0, -4.0]]).reshape(2, 2, 1, 1)
        run = forward(g, {}, x)
        r = np.maximum(x, 0)
        np.testing.assert_array_equal(run.acts["s"], x + r)
        np.testing.assert_array_equal(run.acts["p"], x * r)
        np.testing.assert_array_equal(run.output, np.concatenate([x + r, x * r], axis=1))

    def test_unknown_is_identity(self):
        g = chain_graph(simple_node("u", OpKind.UNKNOWN, kind_name="Mystery"))
        x = np.random.default_rng(0).normal(0, 1, (2, 3, 4, 4))
        run = forward(g, {}, x)
        np.testing.assert_array_equal(run.output, x)

    def test_forward_deterministic(self):
        graph, shapes, col, weights, x = run_setup(17)
        out1 = forward(graph, weights, x).output
        out2 = forward(graph, weights, x).output
        np.testing.assert_array_equal(out1, out2)


class TestConvBackwardOracles:
    @pytest.mark.parametrize(
        "kernel,stride,padding,ci,co,size",
        [
            ((k, k), (s, s), (p, p), 3, 4, (9, 7))
            for k in (1, 2, 3, 5)
            for s in (1, 2, 3)
            for p in (0, 1, 2)
        ]
        + [
            ((3, 3), (2, 1), (1, 0), 3, 4, (9, 7)),
            ((3, 1), (1, 2), (0, 1), 3, 4, (9, 7)),
            ((2, 3), (3, 2), (2, 1), 3, 4, (9, 7)),
            ((3, 3), (1, 1), (1, 1), 3, 4, (1, 1)),
            ((3, 3), (1, 1), (1, 1), 3, 4, (2, 3)),
            ((3, 3), (2, 2), (1, 1), 3, 4, (3, 2)),
            ((5, 5), (1, 1), (2, 2), 3, 4, (1, 2)),
            ((1, 1), (2, 2), (0, 0), 3, 4, (3, 3)),
            ((3, 3), (1, 1), (1, 1), 0, 4, (9, 7)),
            ((3, 3), (2, 2), (1, 1), 3, 0, (9, 7)),
        ],
    )
    def test_conv_backward_matches_direct_loops(self, kernel, stride, padding, ci, co, size):
        rng = np.random.default_rng(4)
        g = chain_graph(conv_node("c", ci, co, kernel=kernel, stride=stride, padding=padding))
        x = rng.normal(0, 1, (2, ci, *size))
        k = rng.normal(0, 1, (co, ci, *kernel))
        run = forward(g, {"c": {"kernel": k}}, x)
        np.testing.assert_allclose(run.output, naive_conv(x, k, stride, padding), rtol=1e-12, atol=1e-12)
        gy = rng.normal(0, 1, run.output.shape)
        (dx,), grads = op_record(run, "c")(gy)
        want_dx, want_dkernel = naive_conv_backward(x, k, gy, stride, padding)
        assert dx.shape == x.shape and dx.dtype == x.dtype
        np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[("w", "c", "kernel")], want_dkernel, rtol=1e-12, atol=1e-12)

    def test_conv_float32_matches_float64(self):
        rng = np.random.default_rng(5)
        g = chain_graph(conv_node("c", 6, 5, kernel=(3, 2), stride=(2, 1), padding=(1, 0)))
        x = rng.normal(0, 1, (3, 6, 11, 8))
        k = rng.normal(0, 0.3, (5, 6, 3, 2))
        gy = rng.normal(0, 1, (3, 5, 6, 7))
        results = {}
        for dtype in (np.float32, np.float64):
            run = forward(g, {"c": {"kernel": k.astype(dtype)}}, x.astype(dtype))
            (dx,), grads = op_record(run, "c")(gy.astype(dtype))
            results[dtype] = (run.output, dx, grads[("w", "c", "kernel")])
            assert all(a.dtype == dtype for a in results[dtype])
        # float32 rounding over sums of at most a few hundred O(1) terms
        for lo, hi in zip(results[np.float32], results[np.float64]):
            np.testing.assert_allclose(lo, hi, rtol=1e-5, atol=1e-5 * np.max(np.abs(hi)))


# Window contents for the max-pool cases: plain values, ReLU outputs (many
# all-zero windows), all-equal windows, and ties between -0.0 and +0.0.
POOL_INPUTS = {
    "normal": lambda rng, shape: rng.normal(0, 1, shape),
    "relu": lambda rng, shape: np.maximum(rng.normal(-1, 1, shape), 0),
    "equal": lambda rng, shape: np.full(shape, 0.5),
    "signed-zero": lambda rng, shape: rng.choice([-0.0, 0.0, -1.0], shape),
}


class TestPoolBackwardOracles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("content", sorted(POOL_INPUTS))
    @pytest.mark.parametrize(
        "size,factor",
        [
            ((8, 8), 1), ((8, 8), 2), ((9, 9), 3), ((8, 8), 4),
            ((9, 7), 2), ((7, 5), 3), ((11, 6), 4),
            ((5, 5), 5), ((4, 4), 4), ((5, 7), 5),
        ],
    )
    def test_maxpool_matches_first_max_loops(self, size, factor, content, dtype):
        rng = np.random.default_rng(6)
        g = chain_graph(simple_node("p", OpKind.MAX_POOL, factor=factor))
        x = POOL_INPUTS[content](rng, (2, 3, *size)).astype(dtype)
        run = forward(g, {}, x)
        assert_bitwise_equal(run.output, naive_maxpool(x, factor))
        gy = rng.normal(0, 1, run.output.shape).astype(dtype)
        (dx,), grads = op_record(run, "p")(gy)
        assert grads == {}
        assert_bitwise_equal(dx, naive_maxpool_backward(x, gy, factor))
        h, w = size
        assert not dx[:, :, h - h % factor:].any() and not dx[:, :, :, w - w % factor:].any()

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_upsample_backward_sums_blocks(self, factor):
        rng = np.random.default_rng(7)
        g = chain_graph(simple_node("u", OpKind.UPSAMPLE, factor=factor))
        x = rng.normal(0, 1, (2, 3, 4, 5))
        run = forward(g, {}, x)
        gy = rng.normal(0, 1, run.output.shape)
        (dx,), _ = op_record(run, "u")(gy)
        assert dx.shape == x.shape and dx.dtype == x.dtype
        np.testing.assert_allclose(dx, naive_upsample_backward(gy, factor), rtol=1e-12, atol=1e-12)


class TestBatchNormBackwardOracles:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 6), (3, 2, 1, 7), (6, 4)])
    def test_batchnorm_backward_matches_jacobian(self, shape, training):
        rng = np.random.default_rng(8)
        c = shape[1]
        g = chain_graph(simple_node("bn", OpKind.BATCH_NORM))
        x = rng.normal(3, 2, shape)
        gamma, beta = rng.normal(1, 0.2, c), rng.normal(0, 0.2, c)
        rmean, rvar = rng.normal(3, 1, c), rng.uniform(1, 5, c)
        run = forward(g, bn_weights(gamma, beta, rmean.copy(), rvar.copy()), x, training=training)
        gy = rng.normal(0, 1, shape)
        (dx,), grads = op_record(run, "bn")(gy)
        want_dx, want_dgamma, want_dbeta = naive_batchnorm_backward(
            x, gamma, gy, BN_EPS, running=None if training else (rmean, rvar)
        )
        assert dx.shape == x.shape and dx.dtype == x.dtype
        np.testing.assert_allclose(dx, want_dx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grads[("w", "bn", "gamma")], want_dgamma, rtol=1e-10)
        np.testing.assert_allclose(grads[("w", "bn", "beta")], want_dbeta, rtol=1e-10)

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_float32_matches_float64(self, training):
        rng = np.random.default_rng(9)
        g = chain_graph(simple_node("bn", OpKind.BATCH_NORM))
        x = rng.normal(3, 2, (8, 5, 6, 6))
        gamma, beta = rng.normal(1, 0.2, 5), rng.normal(0, 0.2, 5)
        rmean, rvar = rng.normal(3, 1, 5), rng.uniform(1, 5, 5)
        gy = rng.normal(0, 1, x.shape)
        results = {}
        for dtype in (np.float32, np.float64):
            w = bn_weights(gamma.astype(dtype), beta.astype(dtype), rmean.astype(dtype), rvar.astype(dtype))
            run = forward(g, w, x.astype(dtype), training=training)
            (dx,), grads = op_record(run, "bn")(gy.astype(dtype))
            results[dtype] = (
                run.output, dx, grads[("w", "bn", "gamma")], grads[("w", "bn", "beta")],
                w["bn"]["running_mean"], w["bn"]["running_var"],
            )
            assert all(a.dtype == dtype for a in results[dtype])
        for lo, hi in zip(results[np.float32], results[np.float64]):
            np.testing.assert_allclose(lo, hi, rtol=1e-5, atol=1e-5 * np.max(np.abs(hi)))


class TestEdgeShapes:
    """Zero-width channels (left by cuts) and 1x1 images, forward and backward."""

    def run_op(self, node, x, weights=None, training=True):
        run = forward(chain_graph(node), weights or {}, x, training=training)
        gy = np.random.default_rng(10).normal(0, 1, run.output.shape)
        (dx,), grads = op_record(run, node.id)(gy)
        assert dx.shape == x.shape and dx.dtype == x.dtype
        return run.output, gy, dx, grads

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(2, 0, 4, 4), (2, 0), (3, 4, 1, 1), (1, 4, 1, 1)])
    def test_batchnorm(self, shape, training):
        rng = np.random.default_rng(11)
        c = shape[1]
        x = rng.normal(0, 1, shape)
        gamma, beta = rng.normal(1, 0.2, c), rng.normal(0, 0.2, c)
        y, gy, dx, grads = self.run_op(
            simple_node("bn", OpKind.BATCH_NORM), x, bn_weights(gamma, beta), training
        )
        assert y.shape == x.shape
        want_dx, want_dgamma, want_dbeta = naive_batchnorm_backward(
            x, gamma, gy, BN_EPS, running=None if training else (np.zeros(c), np.ones(c))
        )
        np.testing.assert_allclose(dx, want_dx, rtol=1e-10, atol=1e-10)
        assert grads[("w", "bn", "gamma")].shape == grads[("w", "bn", "beta")].shape == (c,)
        np.testing.assert_allclose(grads[("w", "bn", "gamma")], want_dgamma, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(grads[("w", "bn", "beta")], want_dbeta, rtol=1e-10)

    @pytest.mark.parametrize("shape,factor", [((2, 0, 4, 4), 2), ((2, 3, 1, 1), 1), ((2, 0, 1, 1), 1)])
    def test_maxpool(self, shape, factor):
        x = np.random.default_rng(12).normal(0, 1, shape)
        y, gy, dx, _ = self.run_op(simple_node("p", OpKind.MAX_POOL, factor=factor), x)
        assert_bitwise_equal(y, naive_maxpool(x, factor))
        assert_bitwise_equal(dx, naive_maxpool_backward(x, gy, factor))

    @pytest.mark.parametrize("shape,factor", [((2, 0, 4, 4), 2), ((2, 3, 1, 1), 2), ((2, 3, 1, 1), 1)])
    def test_upsample(self, shape, factor):
        x = np.random.default_rng(13).normal(0, 1, shape)
        y, gy, dx, _ = self.run_op(simple_node("u", OpKind.UPSAMPLE, factor=factor), x)
        assert y.shape == (*shape[:2], shape[2] * factor, shape[3] * factor)
        np.testing.assert_array_equal(y[:, :, ::factor, ::factor], x)
        np.testing.assert_allclose(dx, naive_upsample_backward(gy, factor), rtol=1e-12)


class TestGradients:
    def loss_and_grads(self, graph, weights, x, probe, *, training, coloring=None, gates=None):
        run = forward(
            graph, copy.deepcopy(weights), x,
            coloring=coloring, gates=gates, training=training,
        )
        grads = run.backward(probe)
        return float(np.sum(run.output * probe)), grads

    def fd_check(self, seed, training, with_gates):
        graph, shapes, col, weights, x = run_setup(seed)
        gates = None
        if with_gates:
            gates = random_gates(col, np.random.default_rng(seed + 7), dtype=np.float64)
            if not gates.values:
                return 0.0
        rng = np.random.default_rng(seed + 99)
        out_shape = forward(graph, copy.deepcopy(weights), x, coloring=col, gates=gates).output.shape
        probe = rng.normal(0, 1, out_shape)

        _, grads = self.loss_and_grads(
            graph, weights, x, probe, training=training, coloring=col, gates=gates
        )
        # Central differences on a loss of magnitude O(10) carry round-off
        # noise of about eps * |L| / h; h = 1e-5 keeps that near 1e-10.
        params = trainable_params(weights, gates)
        h = 1e-5
        worst = 0.0
        for key, arr in params.items():
            analytic = grads.get(key, np.zeros_like(arr))
            flat = arr.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up, _ = self.loss_and_grads(
                    graph, weights, x, probe, training=training, coloring=col, gates=gates
                )
                flat[i] = keep - h
                dn, _ = self.loss_and_grads(
                    graph, weights, x, probe, training=training, coloring=col, gates=gates
                )
                flat[i] = keep
                fd = (up - dn) / (2 * h)
                worst = max(worst, relative_error(analytic.reshape(-1)[i], fd))
        return worst

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
    def test_eval_mode_gradients(self, seed):
        assert self.fd_check(seed, training=False, with_gates=False) < 5e-6

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_train_mode_gradients(self, seed):
        assert self.fd_check(seed, training=True, with_gates=False) < 5e-6

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_gate_score_gradients(self, seed):
        seeds = [s for s, *_ in gated_setups(5)]
        assert self.fd_check(seeds[seed % len(seeds)], training=False, with_gates=True) < 5e-6

    def test_gate_gradients_in_training_mode(self):
        seed = gated_setups(1)[0][0]
        assert self.fd_check(seed, training=True, with_gates=True) < 5e-6


class TestRunSemantics:
    def test_tape_single_use(self):
        graph, shapes, col, weights, x = run_setup(0)
        run = forward(graph, weights, x)
        run.backward(np.ones_like(run.output))
        with pytest.raises(StaleTape):
            run.backward(np.ones_like(run.output))

    def test_output_grad_shape_checked(self):
        graph, shapes, col, weights, x = run_setup(0)
        run = forward(graph, weights, x)
        with pytest.raises(ShapeMismatch):
            run.backward(np.ones((1, 1)))

    def test_missing_weights(self):
        graph, shapes, col, weights, x = run_setup(0)
        parametric = [nid for nid in weights][0]
        broken = {nid: w for nid, w in weights.items() if nid != parametric}
        with pytest.raises(MissingWeights):
            forward(graph, broken, x)

    def test_nonfinite_input_rejected(self):
        graph, shapes, col, weights, x = run_setup(0)
        x[0] = np.nan
        with pytest.raises(NonFiniteTensor):
            forward(graph, weights, x)

    def test_gates_and_scales_exclusive(self):
        graph, shapes, col, weights, x = run_setup(0)
        gates = GateSet(values={})
        with pytest.raises(ShapeMismatch):
            forward(graph, weights, x, coloring=col, gates=gates, node_scales={})

    def test_node_scales_zero_kills_channel(self):
        g = chain_graph(conv_node("c", 3, 4, kernel=1, stride=1, padding=0))
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (2, 3, 4, 4))
        w = {"c": {"kernel": rng.normal(0, 1, (4, 3, 1, 1))}}
        scales = {"c": np.array([1.0, 0.0, 1.0, 0.5])}
        run = forward(g, w, x, node_scales=scales)
        base = forward(g, w, x)
        np.testing.assert_array_equal(run.output[:, 1], 0.0)
        np.testing.assert_allclose(run.output[:, 3], base.output[:, 3] * 0.5, rtol=1e-12)

    def test_gates_scale_producing_activation(self):
        graph, entry_shape, shapes, col = grouped_setup(gated_setups(1)[0][0])
        rng = np.random.default_rng(0)
        weights = init_weights(graph, shapes, rng, dtype=np.float64)
        x = rng.normal(0, 1, entry_shape.dims())
        gates = random_gates(col, rng, dtype=np.float64)
        gated = forward(graph, copy.deepcopy(weights), x, coloring=col, gates=gates)
        # replicate via fixed node scales on each producer
        scales = {}
        for group in col.prunable_groups():
            for member in group.members:
                if member.role in ("conv-output", "fc-output"):
                    scales[member.node] = gates.gains(group.id)
        plain = forward(graph, copy.deepcopy(weights), x, node_scales=scales)
        np.testing.assert_allclose(gated.output, plain.output, rtol=1e-12, atol=1e-12)

    def test_init_weights_sorted_and_seeded(self):
        graph, entry_shape, shapes, col = grouped_setup(12)
        w1 = init_weights(graph, shapes, np.random.default_rng(5))
        w2 = init_weights(graph, shapes, np.random.default_rng(5))
        for nid in w1:
            for name in w1[nid]:
                np.testing.assert_array_equal(w1[nid][name], w2[nid][name])
        keys = list(w1)
        assert keys == sorted(keys)
