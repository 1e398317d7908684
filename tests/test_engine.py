"""Numerical engine: forward oracles, exact tape gradients, failure modes,
activation lifetimes."""
import copy
import gc
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekit import engine
from prunekit.engine import (
    BN_EPS,
    forward,
    init_weights,
    trainable_params,
)
from prunekit.errors import (
    LengthMismatch,
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
from prunekit.models import build_reference_model, resnet8, unet_small
from prunekit.relax import GateSet, gate_scales, score_grads, sigma, snapshot
from prunekit.subgraph import identify_subgraphs

from gen import gated_setups, grouped_setup, random_conv, random_gates
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


def chain_graph(*mid_nodes, fed_by_entry=False):
    """``in -> feed -> *mid_nodes -> out``. The first mid node reads the
    entry through the pass-through ``feed``, so backward wants its input
    gradient; with ``fed_by_entry`` it reads the entry, and backward wants
    none (see Ops in the engine docstring)."""
    feed = [] if fed_by_entry else [simple_node("feed", OpKind.UNKNOWN, kind_name="Feed")]
    nodes = [simple_node("in", OpKind.INPUT), *feed, *mid_nodes, simple_node("out", OpKind.OUTPUT)]
    edges = [(nodes[i].id, nodes[i + 1].id, 0) for i in range(len(nodes) - 1)]
    return Graph(nodes={n.id: n for n in nodes}, edges=tuple(edges), entry="in", exit="out")


def op_record(run, nid):
    """Backward function of the run's node ``nid``: maps an output gradient
    to ``([dx], {param key: gradient})``."""
    return next(fn for out_key, _, fn, _ in run._tape if out_key == nid)


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
        forward(g, w, x, training=True)
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
        # Concat stacks s's two channels before p's.
        np.testing.assert_array_equal(run.output[:, :2], x + r)
        np.testing.assert_array_equal(run.output[:, 2:], x * r)
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


class TestConvOraclesAtTheSmallestBlocks(TestConvBackwardOracles):
    """Every convolution oracle again, with each pass split into its
    smallest blocks: one image per forward block, one tap per backward
    block."""

    test_conv_matches_direct_loops = TestForwardOracles.test_conv_matches_direct_loops

    @pytest.fixture(autouse=True)
    def smallest_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)


def conv_pass(node, x, kernel, gy):
    """``y``, ``dx`` and ``dkernel`` of one convolution."""
    run = forward(chain_graph(node), {"c": {"kernel": kernel}}, x)
    (dx,), grads = op_record(run, "c")(gy)
    return run.output, dx, grads[("w", "c", "kernel")]


class BlockRounding(UserWarning):
    """The BLAS rounded a split GEMM differently from the whole one."""


class TestConvBlocks:
    """Blocking the tap matrix changes which GEMM calls a convolution makes,
    never the terms or the order of any reduction the engine does itself."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(seed=st.integers(0, 5000), dtype=st.sampled_from([np.float32, np.float64]))
    def test_smallest_blocks_change_outputs_by_gemm_rounding_at_most(self, seed, dtype):
        """``y``, ``dx`` and ``dkernel`` at the default budget and at the
        smallest blocks differ by no more than two GEMMs' rounding error,
        ``n * eps * sum |terms|`` for ``n`` terms, where ``sum |terms|`` is
        the same pass in float64 on absolute values. A block that read the
        wrong taps, images or kernel columns would miss by a whole term.
        The BLAS picks its kernel by a call's shape, and on small GEMMs a
        split call can round differently from the whole one (OpenBLAS 0.3
        on AVX-512 does so in about two cases in five here); each such case
        is reported as a ``BlockRounding`` warning."""
        node, x, kernel, gy = random_conv(seed, dtype)
        whole = conv_pass(node, x, kernel, gy)
        with mock.patch.object(engine, "_BLOCK_BYTES", 1):
            split = conv_pass(node, x, kernel, gy)
        terms = conv_pass(node, *(np.abs(a).astype(np.float64) for a in (x, kernel, gy)))
        b, ci, h, w = x.shape
        co, _, kh, kw = kernel.shape
        ph, pw = (int(p) for p in node.attr("padding"))
        counts = (kh * kw * ci, (co + 1) * kh * kw, b * (h + 2 * ph + kh) * (w + 2 * pw + kw))
        eps = np.finfo(dtype).eps
        for name, a, c, t, n in zip(("y", "dx", "dkernel"), whole, split, terms, counts):
            assert a.dtype == c.dtype == dtype and a.shape == c.shape, name
            gap = np.abs(a.astype(np.float64) - c)
            assert np.all(gap <= n * eps * t), (name, float(np.max(gap - n * eps * t)))
            if a.tobytes() != c.tobytes():
                warnings.warn(BlockRounding(
                    f"{name} of {node.attrs} on {x.shape} in {np.dtype(dtype).name}: "
                    f"{int(np.count_nonzero(a != c))} of {a.size} values differ, "
                    f"by at most {float(np.max(gap)):.3g}"
                ))

    @pytest.mark.parametrize(
        "model,args,batch,training",
        [
            ("resnet8", {"width": 16, "classes": 4}, 112, False),
            ("resnet8", {"width": 16, "classes": 4}, 32, True),
            ("unet-small", {"width": 8, "classes": 3, "depth": 3}, 16, True),
        ],
        ids=["resnet8-eval-112", "resnet8-train-32", "unet-small-train-16"],
    )
    def test_blocked_layers_match_one_block_bitwise(self, model, args, batch, training):
        """The benchmark's passes, at their model sizes and batches: the
        tape-free evaluation pass and the training step. The default budget
        splits their large convolutions (up to ten forward and nine
        backward blocks here), and the output and every gradient keep the
        bits of a pass that builds each tap matrix whole. If the BLAS breaks
        this, fixed-seed runs no longer reproduce across budgets, and this
        test says so."""
        graph = build_reference_model(model, **args)
        shapes = infer_shapes(graph, TensorShape(batch, 3, (32, 32)))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
        results = []
        for budget in (engine._BLOCK_BYTES, 2**62):
            weights = init_weights(graph, shapes, np.random.default_rng(0))
            with mock.patch.object(engine, "_BLOCK_BYTES", budget):
                run = forward(graph, weights, x, training=training, tape=training)
                gy = np.random.default_rng(4).standard_normal(run.output.shape).astype(np.float32)
                results.append((run.output, run.backward(gy) if training else {}))
        (y, grads), (want_y, want_grads) = results
        assert_bitwise_equal(y, want_y)
        assert grads.keys() == want_grads.keys()
        for key in want_grads:
            assert_bitwise_equal(grads[key], want_grads[key])


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


class TestReluBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_masks_where_the_input_is_positive(self, dtype):
        # The tape keeps y = max(x, 0); its mask y > 0 must match x > 0 on
        # signed zeros and subnormals, bit for bit.
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1.0, -1.0, -2.5], dtype=dtype)
        x = x.reshape(1, -1, 1, 1)
        g = chain_graph(simple_node("r", OpKind.RELU))
        run = forward(g, {}, x)
        gy = np.random.default_rng(8).normal(0, 1, x.shape).astype(dtype)
        (dx,), grads = op_record(run, "r")(gy)
        assert grads == {}
        assert_bitwise_equal(dx, gy * (x > 0))


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
    def loss_and_grads(self, graph, weights, x, probe, *, training, coloring, gates):
        gains = snapshot(gates)
        scales = gate_scales(coloring, gains)
        run = forward(graph, copy.deepcopy(weights), x, node_scales=scales, training=training)
        grads = score_grads(coloring, gates, gains, run.backward(probe))
        return float(np.sum(run.output * probe)), grads

    def fd_check(self, seed, training, with_gates):
        graph, shapes, col, weights, x = run_setup(seed)
        gates = GateSet(values={})
        if with_gates:
            gates = random_gates(col, np.random.default_rng(seed + 7), dtype=np.float64)
            if not gates.values:
                return 0.0
        rng = np.random.default_rng(seed + 99)
        out_shape = forward(graph, copy.deepcopy(weights), x).output.shape
        probe = rng.normal(0, 1, out_shape)

        _, grads = self.loss_and_grads(
            graph, weights, x, probe, training=training, coloring=col, gates=gates
        )
        # Central differences on a loss of magnitude O(10) carry round-off
        # noise of about eps * |L| / h; h = 1e-5 keeps that near 1e-10.
        params = trainable_params(weights, gates.values)
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

    def test_tape_free_run_has_no_backward(self):
        graph, shapes, col, weights, x = run_setup(0)
        run = forward(graph, weights, x, training=True, tape=False)
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

    def test_node_scale_width_checked(self):
        g = chain_graph(conv_node("c", 3, 4, kernel=1, stride=1, padding=0))
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (2, 3, 4, 4))
        w = {"c": {"kernel": rng.normal(0, 1, (4, 3, 1, 1))}}
        with pytest.raises(LengthMismatch):
            forward(g, w, x, node_scales={"c": np.ones(3)})

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
        gated = forward(
            graph, copy.deepcopy(weights), x, node_scales=gate_scales(col, snapshot(gates))
        )
        # replicate via fixed node scales on each convolution or
        # fully-connected layer whose output group is gated
        scales = {}
        for nid, node in graph.nodes.items():
            if node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED):
                (seg,) = col.node_segments[nid]
                if col.group(seg.group).prunable:
                    scales[nid] = sigma(gates.values[seg.group], gates.steepness)
        assert scales
        plain = forward(graph, copy.deepcopy(weights), x, node_scales=scales)
        np.testing.assert_allclose(gated.output, plain.output, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("setup", gated_setups(3), ids=lambda s: f"seed{s[0]}")
    def test_float64_scales_match_their_activation_dtype_cast_bitwise(self, setup, training):
        # gate_scales hands the float64 gains over uncast; forward casts them.
        seed, graph, entry_shape, shapes, col = setup
        rng = np.random.default_rng(seed)
        weights = init_weights(graph, shapes, rng)
        x = rng.normal(0, 1, entry_shape.dims()).astype(np.float32)
        wide = gate_scales(col, snapshot(random_gates(col, rng)))
        assert wide and all(v.dtype == np.float64 for v in wide.values())
        runs = [
            forward(graph, copy.deepcopy(weights), x, node_scales=scales, training=training)
            for scales in (wide, {nid: v.astype(np.float32) for nid, v in wide.items()})
        ]
        assert_bitwise_equal(runs[0].output, runs[1].output)
        probe = rng.normal(0, 1, runs[0].output.shape).astype(np.float32)
        grads = [run.backward(probe) for run in runs]
        assert grads[0].keys() == grads[1].keys() >= {("n", nid) for nid in wide}
        for key in grads[0]:
            assert_bitwise_equal(grads[0][key], grads[1][key])

    def test_init_weights_sorted_and_seeded(self):
        graph, entry_shape, shapes, col = grouped_setup(12)
        w1 = init_weights(graph, shapes, np.random.default_rng(5))
        w2 = init_weights(graph, shapes, np.random.default_rng(5))
        for nid in w1:
            for name in w1[nid]:
                np.testing.assert_array_equal(w1[nid][name], w2[nid][name])
        keys = list(w1)
        assert keys == sorted(keys)


class TestWantedGradients:
    """Backward asks for no gradient of an input fed by the graph entry, so
    the op computes none and keeps nothing for it."""

    def test_conv_fed_by_the_entry_gives_no_dx_and_the_same_dkernel(self):
        node = conv_node("c", 3, 5, kernel=3, stride=2, padding=1)
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, (2, 3, 9, 7)).astype(np.float32)
        kernel = rng.normal(0, 1, (5, 3, 3, 3)).astype(np.float32)
        passes = []
        for fed_by_entry in (False, True):
            run = forward(chain_graph(node, fed_by_entry=fed_by_entry), {"c": {"kernel": kernel}}, x)
            gy = np.random.default_rng(15).normal(0, 1, run.output.shape).astype(np.float32)
            passes.append(op_record(run, "c")(gy))
        ([dx], want), ([none], got) = passes
        assert dx is not None and dx.shape == x.shape and none is None
        assert got.keys() == want.keys() == {("w", "c", "kernel")}
        assert_bitwise_equal(got[("w", "c", "kernel")], want[("w", "c", "kernel")])

    @pytest.mark.parametrize(
        "node", [simple_node("r", OpKind.RELU), simple_node("p", OpKind.MAX_POOL, factor=2)]
    )
    def test_mask_ops_fed_by_the_entry_keep_nothing(self, node):
        x = np.random.default_rng(16).normal(0, 1, (2, 3, 4, 4))
        run = forward(chain_graph(node, fed_by_entry=True), {}, x)
        fn = op_record(run, node.id)
        assert not any(isinstance(c.cell_contents, np.ndarray) for c in fn.__closure__ or ())
        assert fn(np.ones_like(run.output)) == ([None], {})


class TestActivationLifetimes:
    """Bytes a forward pass allocates, traced by ``tracemalloc`` (NumPy
    reports its array buffers to it), on resnet8 w16 and unet-small w8 at
    32x32 in float32."""

    GRAPH = resnet8(width=16, classes=4, in_channels=3, input_size=32)
    UNET = unet_small(width=8, classes=3, in_channels=3, depth=3)

    def traced_forward(self, batch, graph=GRAPH, backward=False, **kwargs):
        """The run, the traced peak and the bytes still held after it returns
        (after its backward too, with ``backward``), both above what was
        allocated before the call."""
        shapes = infer_shapes(graph, TensorShape(batch, 3, (32, 32)))
        weights = init_weights(graph, shapes, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((batch, 3, 32, 32)).astype(np.float32)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run = forward(graph, weights, x, **kwargs)
            if backward:
                run.backward(np.ones_like(run.output))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return run, peak - base, held - base, shapes

    def test_resnet8_eval_peak_is_bounded(self):
        """The evaluation pass of resnet8 w16 at batch 112 peaks at 14.04 MB:
        each convolution's tap matrix is built a few images at a time,
        BatchNorm lets its input go early, and no ReLU or MaxPool builds a
        mask for a backward that will not run. A pass that built each tap
        matrix whole peaked at 25.2 MB, and one that built the masks at
        15.75 MB."""
        _, peak, _, _ = self.traced_forward(112, training=False, tape=False)
        assert peak < 14.1 * 2**20, peak / 2**20

    def test_unet_eval_peak_is_bounded(self):
        """unet-small w8's evaluation pass at batch 32 peaks at about 6.2 MB:
        each convolution lets its input go once its padded planes hold it.
        A convolution that held its input through its GEMM blocks peaked at
        9.1 MB; with whole tap matrices the pass peaked at 36 MB, 28.7 MB of
        them the tap matrix of ``dec1.a.conv`` (3x3 over 24 channels at
        32x32)."""
        _, peak, _, _ = self.traced_forward(32, graph=self.UNET, training=False, tape=False)
        assert peak < 7.5 * 2**20, peak / 2**20

    def test_unet_training_step_peak_is_bounded(self):
        """A taped training pass of unet-small w8 at batch 16 and its
        backward peak at about 15.3 MB: backward builds its tap rows and
        their ``dx`` share a few taps at a time, and ReLU and MaxPool tape
        masks, not float activations. Tapes that held those activations
        peaked at 17.6 MB; whole tap matrices, built again in backward next
        to a same-size gradient, at 29.8 MB."""
        _, peak, _, _ = self.traced_forward(16, graph=self.UNET, backward=True, training=True)
        assert peak < 16.5 * 2**20, peak / 2**20

    def test_tape_free_eval_holds_only_live_activations(self):
        """An eval pass at the evaluation batch (112) without a tape peaks
        below 60% of the taped pass (about 25 MB against 44 MB): without the
        tape each convolution's padded planes, BatchNorm's centred input and
        ReLU's output go as soon as the next op has read them. Afterwards the
        run holds its output and nothing else: less than any one other
        activation more."""
        _, taped_peak, _, _ = self.traced_forward(112, training=False)
        run, peak, held, shapes = self.traced_forward(112, training=False, tape=False)
        assert peak < 0.6 * taped_peak, (peak, taped_peak)
        graph = self.GRAPH
        others = [
            4 * s.size() for nid, s in shapes.items()
            if nid not in (graph.entry, graph.exit, *graph.inputs(graph.exit))
        ]
        assert held - run.output.nbytes < min(others), (held, run.output.nbytes)

    def test_taped_training_pass_holds_what_backward_reads(self):
        """After a taped training pass at batch 32 the tape holds what each
        backward reads (padded convolution planes, BatchNorm's centred input,
        ReLU's and MaxPool's bool masks, the pooled features the head reads):
        about 6.9 MB. Tapes that kept ReLU's and MaxPool's float activations
        held 9.3 MB, and a pass that also kept every activation until it
        returned 17.4 MB."""
        run, _, held, _ = self.traced_forward(32, training=True)
        assert held <= 8 * 2**20, held / 2**20
        run.backward(np.ones_like(run.output))

    @pytest.mark.parametrize("graph", [GRAPH, UNET], ids=["resnet8", "unet-small"])
    def test_taped_relu_and_maxpool_records_hold_no_float_array(self, graph):
        """Their backwards route the gradient by a mask, so their records
        hold bool masks and no float activation."""
        shapes = infer_shapes(graph, TensorShape(2, 3, (32, 32)))
        weights = init_weights(graph, shapes, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        run = forward(graph, weights, x, training=True)
        kinds = {OpKind.RELU, OpKind.MAX_POOL}
        records = [(fn, scale) for nid, _, fn, scale in run._tape if graph.nodes[nid].kind in kinds]
        assert {graph.nodes[nid].kind for nid, *_ in run._tape} >= kinds
        for fn, scale in records:
            arrays = [c.cell_contents for c in fn.__closure__ or ()
                      if isinstance(c.cell_contents, np.ndarray)]
            assert scale is None and arrays and all(a.dtype == bool for a in arrays)

    @pytest.mark.parametrize(
        "node,training",
        [
            (simple_node("bn", OpKind.BATCH_NORM), True),
            (simple_node("bn", OpKind.BATCH_NORM), False),
            (simple_node("r", OpKind.RELU), True),
            (simple_node("p", OpKind.MAX_POOL, factor=2), True),
            (conv_node("c", 3, 4, kernel=3, stride=1, padding=1), True),
            (simple_node("u", OpKind.UPSAMPLE, factor=2), True),
        ],
    )
    def test_tape_records_do_not_keep_their_input(self, node, training):
        """These ops' backwards read the centred input, a mask, the padded
        planes or nothing, so once the caller lets go of the input, the
        taped run must not keep it alive."""
        rng = np.random.default_rng(9)
        weights = {
            "bn": bn_weights(np.ones(3), np.zeros(3)),
            "c": {"c": {"kernel": rng.normal(0, 1, (4, 3, 3, 3))}},
        }.get(node.id, {})
        x = rng.normal(0, 1, (2, 3, 4, 4))
        alive = weakref.ref(x)
        run = forward(chain_graph(node), weights, x, training=training)
        del x
        gc.collect()
        assert alive() is None
        run.backward(np.ones_like(run.output))
