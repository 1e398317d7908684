"""Reverse-mode execution engine for operator graphs.

The engine walks a graph in topological order computing numpy activations
(channels-first) and recording one tape entry per operator; ``Run.backward``
replays the tape in reverse, accumulating gradients for weights, node scales
and (additively, for fan-out) intermediate activations.

Ops: ``_OP_TABLE`` maps each kind to its op,
``op(node, xs, w, training, wants)``, given the list of the node's input
activations in slot order, its weights (None for a kind without) and one
flag per producer: whether backward will ask for that input's gradient.
Backward wants none in a tape-free pass, and none for an input fed by the
graph entry, because nothing reads that gradient. Every op returns its output
and a backward that maps the output gradient to
``([gradient or None per input], {param key: gradient})``; an op may give
None for an unwanted gradient and skip its work, and ReLU, MaxPool and
Convolution do. Input, Output and Unknown share one op that passes its first
input through; the Input op receives the batch as its one input, and its
backward feeds no producer.

Lifetimes: ``forward`` drops each activation from its working dict as soon
as its last consumer has run (``Graph.last_use``, computed once per graph),
and ``Run`` keeps only the output and the tape, so an activation outlives
its consumers only where a tape record holds what backward reads. Each record keeps no more than its backward reads:
Convolution its padded input planes, FullyConnected its input, BatchNorm the
centred input, ReLU its bool mask ``y > 0``, MaxPool one bool per input
element marking the tap that takes each window's gradient, Product its
inputs, and Sum, Concat and Upsample nothing but widths and indices. ReLU
and MaxPool build their masks only when backward wants their input's
gradient, so a tape-free pass builds none. An op
owns the list of inputs ``forward`` hands it, and ``forward`` keeps no other
reference to an input whose last consumer is running (the caller's batch
aside), so an op that takes such an input out of the list frees it as soon
as it lets go. BatchNorm drops its input once the centred copy exists, so it
never holds its input, the centred input and its output together; Convolution
drops its input once the padded planes hold it, before its first GEMM block.
``forward(..., tape=False)`` drops each op's backward as soon as the op
returns, so such a pass holds only the activations still to be consumed;
``evaluate`` and ``verify_equivalence`` run that way, and backward on such a
run raises ``StaleTape``. ``tape`` is independent of ``training``: an
eval-mode pass can still be taped and differentiated. ``Run.backward``
releases each record once it has replayed it.

Channel scaling has one input, ``forward(node_scales={node_id: vector})``:
each named node's output is multiplied by its per-channel vector, and the
node's own tape record keeps the vector and the unscaled output. Backward
returns the float64 channel sum of ``gy * unscaled output`` under the key
``("n", node_id)`` and hands ``gy * vector`` to the op's backward. Gates use
it with their gains at the sites ``relax.gate_sites`` picks and turn those
gradients into score gradients with ``relax.score_grads``; a masked model
uses it with fixed keep-times-gain vectors. The engine knows no gate set:
``trainable_params`` takes the gate scores as a plain dict.

Numerics: activations and parameters share the caller's dtype (training uses
float32); statistics and gradient *reductions* (BatchNorm moments, per-channel
sums) accumulate in float64 before being cast back. Execution is pure numpy,
so identical inputs, weights and dtype give bitwise-identical results.

Convolutions carry no bias term: every reference model normalises right after
each convolution, and a bias-free convolution maps an all-zero input to an
all-zero output, which is what lets fully pruned branches collapse without
changing the network function. FullyConnected keeps its bias.

Parameter layout: every array of a node keeps the node's output channels on
axis 0, and an array with a second axis keeps its input channels there: a
kernel is ``(c_out, c_in, kh, kw)``, a FullyConnected weight ``(c_out, c_in)``,
a bias or BatchNorm array ``(c,)``. The rewrite slices, and the gain fold
scales, every array by this rule alone, whatever its node's kind.

Convolution layout: the input is zero-padded, made channel-major and split
into its ``sh * sw`` stride phases (fewer when the kernel is narrower than
the stride), giving planes of shape ``(phases, c_in, b * hq * wq)`` over a
``hq x wq`` grid per image. In that layout the window of every kernel tap
``(ki, kj)`` is one contiguous slice of one phase plane. The tap matrix
stacks those slices, ``(kh * kw * c_in, b * hq * wq)``, and is built in
blocks of at most ``_BLOCK_BYTES`` (2 MiB) but never less than one image or
one tap, so the tap matrix's memory does not grow with the batch. Forward
blocks are whole images: each is ``kh * kw`` slice copies and one GEMM over
the block's grid columns, cropped and transposed straight into the NCHW
output. Backward blocks are runs of whole taps: each gives its ``dkernel``
rows from one GEMM of its tap rows against the padded output gradient, and
its share of ``dx`` from one GEMM against the matching kernel columns, added
into the padded gradient planes in tap order; one copy out of the phases
then gives ``dx``; when ``dx`` is unwanted, backward runs only the
``dkernel`` GEMMs. Blocking splits the GEMMs along their output columns or
rows only and reorders no reduction of this module; a small layer is one
block in each pass, as is every resnet18 w16 convolution at 8x8 and batch 8.
The BLAS may still pick its kernel by a call's shape, so a split GEMM can
round differently from a whole one. A convolution's tape record keeps only
the padded planes. The layout's geometry (pitches, phase spans and tap
offsets) depends on the input extent, kernel, stride and padding alone, so
``_conv_plan`` computes it once per such shape and every batch size reuses
it.

Pooling layout: tap ``(i, j)`` of the non-overlapping ``f x f`` windows is
the strided view ``x[:, :, i:oh*f:f, j:ow*f:f]``. MaxPool's forward is a copy
of the first tap's view and an in-place ``np.maximum`` with each other tap;
each window's gradient goes to the first tap (row-major) equal to the max,
the tap ``np.argmax`` would pick, so ties after a ReLU resolve the same way.
A taped forward marks that tap in one bool mask per tap, and backward
writes each tap's view of ``dx`` from its mask. Upsample's forward is
``f * f`` strided writes into the output, its backward the sum of ``f * f``
strided views of the gradient; its tape keeps nothing.

BatchNorm works on a ``(b, c, spatial)`` view: the mean is a float64 channel
sum and the variance a float64 reduction of the centred values, so no
full-size float64 array is built. Its tape keeps the centred input, and
backward takes the two channel sums ``dgamma`` and ``dbeta`` and forms
``dx`` in the centred input's buffer with four in-place passes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    LengthMismatch,
    MissingWeights,
    NonFiniteTensor,
    ShapeMismatch,
    StaleTape,
)
from .graph import Graph, OpKind, TensorShape

ParamKey = tuple  # ("w", node_id, param_name), ("s", group_id) or ("n", node_id)
Weights = dict[str, dict[str, np.ndarray]]
# One tape record per node: id, input ids, the op's backward and, for a
# scaled node, (scale vector, unscaled output).
_Record = tuple[str, tuple[str, ...], Callable, tuple[np.ndarray, np.ndarray] | None]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Most bytes of tap matrix a convolution builds at once (see Convolution layout).
_BLOCK_BYTES = 2 << 20


# -- weight initialisation -----------------------------------------------------


def init_weights(
    graph: Graph,
    shapes: dict[str, TensorShape],
    rng: np.random.Generator,
    dtype: np.dtype = np.float32,
) -> Weights:
    """He-initialised weights for every parametric node, drawn in sorted id
    order so initialisation is independent of graph construction order."""
    weights: Weights = {}
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        if node.kind == OpKind.CONV:
            c_i, c_o = int(node.attr("in_channels")), int(node.attr("out_channels"))
            kernel = tuple(int(k) for k in node.attr("kernel"))
            fan_in = max(c_i * int(np.prod(kernel)), 1)
            std = np.sqrt(2.0 / fan_in)
            weights[nid] = {
                "kernel": (rng.standard_normal((c_o, c_i, *kernel)) * std).astype(dtype)
            }
        elif node.kind == OpKind.FULLY_CONNECTED:
            c_i, c_o = int(node.attr("in_channels")), int(node.attr("out_channels"))
            std = np.sqrt(2.0 / max(c_i, 1))
            weights[nid] = {
                "weight": (rng.standard_normal((c_o, c_i)) * std).astype(dtype),
                "bias": np.zeros(c_o, dtype=dtype),
            }
        elif node.kind == OpKind.BATCH_NORM:
            c = shapes[nid].channels
            weights[nid] = {
                "gamma": np.ones(c, dtype=dtype),
                "beta": np.zeros(c, dtype=dtype),
                "running_mean": np.zeros(c, dtype=dtype),
                "running_var": np.ones(c, dtype=dtype),
            }
    return weights


def trainable_params(weights: Weights, scores: dict[int, np.ndarray]) -> dict[ParamKey, np.ndarray]:
    """Flat, deterministically ordered view of every trainable array, gate
    ``scores`` last (BatchNorm running statistics are state, not parameters)."""
    params: dict[ParamKey, np.ndarray] = {}
    for nid in sorted(weights):
        for name in sorted(weights[nid]):
            if name.startswith("running_"):
                continue
            params[("w", nid, name)] = weights[nid][name]
    for gid in sorted(scores):
        params[("s", gid)] = scores[gid]
    return params


# -- forward / backward --------------------------------------------------------


@dataclass
class Run:
    """One forward execution: its output plus the tape for backward (None
    for a ``tape=False`` run)."""

    graph: Graph
    output: np.ndarray
    _tape: list[_Record] | None
    _consumed: bool = False

    def backward(self, output_grad: np.ndarray) -> dict[ParamKey, np.ndarray]:
        """Accumulate gradients of a scalar loss whose gradient with respect
        to the run's output is ``output_grad``. Single use per run."""
        if self._tape is None:
            raise StaleTape("this run was recorded with tape=False")
        if self._consumed:
            raise StaleTape("this run's tape was already consumed by backward()")
        self._consumed = True
        output_grad = np.asarray(output_grad)
        if output_grad.shape != self.output.shape:
            raise ShapeMismatch(
                f"output grad {output_grad.shape} does not match output {self.output.shape}"
            )
        act_grads: dict[str, np.ndarray] = {self.graph.exit: output_grad}
        param_grads: dict[ParamKey, np.ndarray] = {}
        tape = self._tape
        while tape:
            # Popping releases each record (and what its backward holds)
            # once it has been replayed.
            out_key, in_keys, fn, scale = tape.pop()
            gy = act_grads.pop(out_key, None)
            if gy is None:
                continue
            if scale is not None:
                # Rebinding gy frees the scaled output's gradient before the
                # op's backward allocates its own.
                vec, pre = scale
                param_grads[("n", out_key)] = _csum(gy * pre, np.float64)
                gy = gy * _cshape(vec, gy.ndim)
            in_grads, p_grads = fn(gy)
            for src, g in zip(in_keys, in_grads):
                if g is None:  # unwanted (see Ops)
                    continue
                if src in act_grads:
                    act_grads[src] = act_grads[src] + g
                else:
                    act_grads[src] = g
            # Each key names this op's own node, which has one record.
            param_grads.update(p_grads)
        return param_grads


def _cshape(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-channel vector for broadcasting against (b, c, *d)."""
    return v.reshape((1, v.shape[0]) + (1,) * (ndim - 2))


def _csum(x: np.ndarray, dtype) -> np.ndarray:
    """Sum over every axis except channels, accumulating in float64."""
    axes = (0,) + tuple(range(2, x.ndim))
    return np.sum(x, axis=axes, dtype=np.float64).astype(dtype)


def forward(
    graph: Graph,
    weights: Weights,
    x: np.ndarray,
    *,
    node_scales: dict[str, np.ndarray] | None = None,
    training: bool = False,
    tape: bool = True,
) -> Run:
    """Execute the graph on a batch.

    ``node_scales`` multiplies the named nodes' outputs by per-channel
    vectors (cast to the activation dtype); backward returns each vector's
    gradient under ``("n", node_id)``. In training mode BatchNorm uses batch
    statistics and updates its running estimates in place. ``tape=False``
    records no tape: the run's ``backward`` raises ``StaleTape``, and the
    pass holds only the activations that are still to be consumed.
    """
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteTensor("input tensor contains NaN or Inf")

    scales = node_scales or {}
    order = graph.topo_order()
    # An activation goes when its last consumer runs; the exit outlives the
    # pass, and an activation nothing consumes is dropped where it is made.
    last_use = graph.last_use()
    acts: dict[str, np.ndarray] = {}
    records: list[_Record] | None = [] if tape else None

    for i, nid in enumerate(order):
        node = graph.nodes[nid]
        producers = graph.inputs(nid)
        if node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED, OpKind.BATCH_NORM):
            if nid not in weights:
                raise MissingWeights(f"no weights for node {nid!r}")

        xs = [x] if node.kind == OpKind.INPUT else [acts[p] for p in producers]
        wants = [tape and p != graph.entry for p in producers]
        for p in producers:
            if last_use[p] == i:
                acts.pop(p, None)
        y, fn = _OP_TABLE[node.kind](node, xs, weights.get(nid), training, wants)
        del xs
        scale = None
        if nid in scales:
            vec = scales[nid].astype(y.dtype, copy=False)
            if vec.shape[0] != y.shape[1]:
                raise LengthMismatch(
                    f"scale width {vec.shape[0]} does not match {nid!r} output {y.shape}"
                )
            scale = (vec, y)
            y = y * _cshape(vec, y.ndim)
        if records is not None:
            records.append((nid, producers, fn, scale))
        if last_use[nid] > i:
            acts[nid] = y
        # Without a tape, this drops the op's backward and what it holds.
        del y, fn, scale

    return Run(graph=graph, output=acts[graph.exit], _tape=records)


# -- per-kind ops (see Ops in the module docstring) ----------------------------


def _op_relu(node, xs, w, training, wants):
    y = np.maximum(xs[0], 0)
    # y > 0 exactly where x > 0, -0.0 and NaN included.
    mask = y > 0 if wants[0] else None

    def fn(gy):
        return [None if mask is None else gy * mask], {}

    return y, fn


def _op_sum(node, xs, w, training, wants):
    y = xs[0].copy()
    for other in xs[1:]:
        y += other
    n = len(xs)

    def fn(gy):
        return [gy] * n, {}

    return y, fn


def _op_product(node, xs, w, training, wants):
    y = xs[0].copy()
    for other in xs[1:]:
        y *= other

    def fn(gy):
        grads = []
        for i in range(len(xs)):
            g = gy
            for j, other in enumerate(xs):
                if j != i:
                    g = g * other
            grads.append(g)
        return grads, {}

    return y, fn


def _op_concat(node, xs, w, training, wants):
    widths = [a.shape[1] for a in xs]
    y = np.concatenate(xs, axis=1)

    def fn(gy):
        grads = []
        offset = 0
        for width in widths:
            grads.append(gy[:, offset:offset + width])
            offset += width
        return grads, {}

    return y, fn


def _phase_axis(n, k, s, p, n_out):
    """Lay one spatial axis of a convolution out in stride phases.

    Phase ``a`` holds the padded rows ``u * s + a``, and each image takes
    ``pitch`` phase rows. Returns ``(pitch, spans)``, where ``spans[a]``
    pairs the input rows of phase ``a`` (a strided slice) with the phase rows
    they sit in; rows that no output reads are left out.

    A tap read past an image's last phase row lands on the next image's
    first rows. The pitch is the smallest one from ``n_out`` up for which
    every such read is bottom padding in truth and top padding in storage,
    so adjacent images share their zero rows; ``n_out + (k - 1) // s``
    always qualifies.
    """
    # reach[a]: phase rows of phase a that the taps read, per image. Reads
    # past the pitch run from phase row `pitch` to `reach[a] - 1`.
    reach = [n_out + (k - 1 - a) // s for a in range(min(s, k))]
    pitch = n_out
    while not all(
        pitch * s + a >= p + n and (r - 1 - pitch) * s + a < p
        for a, r in enumerate(reach)
        if r > pitch
    ):
        pitch += 1
    spans = []
    for a in range(len(reach)):
        r0 = (a - p) % s
        i0 = (r0 + p) // s
        count = max(0, min(len(range(r0, n, s)), pitch - i0))
        spans.append((slice(r0, r0 + count * s, s), slice(i0, i0 + count)))
    return pitch, spans


@functools.lru_cache(maxsize=256)
def _conv_plan(h, w, kh, kw, sh, sw, ph, pw):
    """Padded polyphase layout of a convolution over an ``h x w`` input (see
    module docstring), the same for every batch size: ``(oh, ow, hq, wq,
    taps, phases, (row phases, column phases))``.

    Output position n of the (b, hq, wq) grid reads tap (ki, kj) from phase
    (ki % sh, kj % sw) at n + offset, so each tap window is one contiguous
    slice of the grid's values; grid positions past the output extent are
    computed and cropped. ``taps`` holds ``(row phase, column phase,
    offset)`` per tap in row-major order, and each plane ends in a zero tail
    of the last tap's offset that keeps its slice in bounds. ``phases``
    holds ``(row phase, column phase, input rows, input columns, grid rows,
    grid columns)`` per phase.
    """
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    hq, row_spans = _phase_axis(h, kh, sh, ph, oh)
    wq, col_spans = _phase_axis(w, kw, sw, pw, ow)
    taps = tuple(
        (ki % sh, kj % sw, (ki // sh) * wq + kj // sw) for ki in range(kh) for kj in range(kw)
    )
    phases = tuple(
        (a, c, xr, xc, gr, gc)
        for a, (xr, gr) in enumerate(row_spans)
        for c, (xc, gc) in enumerate(col_spans)
    )
    return oh, ow, hq, wq, taps, phases, (len(row_spans), len(col_spans))


def _op_conv(node, xs, w, training, wants):
    # Taking x out of xs lets it go once the planes hold it (see Lifetimes).
    x = xs.pop()
    kernel = w["kernel"]
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeMismatch(f"convolution {node.id!r}: engine supports 2-D spatial tensors only")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeMismatch(
            f"convolution {node.id!r} expects {kernel.shape[1]} input channels, got {x.shape[1]}"
        )
    sh, sw = (int(v) for v in node.attr("stride"))
    ph, pw = (int(v) for v in node.attr("padding"))
    co, ci, kh, kw = kernel.shape
    b, _, h, wdt = x.shape
    oh, ow, hq, wq, taps, phases, n_phases = _conv_plan(h, wdt, kh, kw, sh, sw, ph, pw)
    if oh < 1 or ow < 1:
        raise ShapeMismatch(f"convolution {node.id!r} output would be empty for input {x.shape}")
    n_out = b * hq * wq
    planes = np.zeros((*n_phases, ci, n_out + taps[-1][2]), dtype=x.dtype)
    grid = planes[..., :n_out].reshape(*planes.shape[:3], b, hq, wq)
    for a, c, xr, xc, gr, gc in phases:
        grid[a, c, :, :, gr, gc] = x[:, :, xr, xc].transpose(1, 0, 2, 3)
    del x

    def gather(t0, t1, n0, n1):
        """Tap matrix rows of taps ``t0:t1`` over grid columns ``n0:n1``."""
        cols = np.empty((t1 - t0, ci, n1 - n0), dtype=planes.dtype)
        for t, (a, c, d) in enumerate(taps[t0:t1]):
            cols[t] = planes[a, c, :, d + n0:d + n1]
        return cols.reshape((t1 - t0) * ci, n1 - n0)

    # Forward blocks are whole images: each splits the GEMM along its output
    # columns only, and its result is cropped straight into y.
    kmat = kernel.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
    hw = hq * wq
    step = max(1, _BLOCK_BYTES // max(1, kh * kw * ci * hw * planes.itemsize))
    y = np.empty((b, co, oh, ow), dtype=np.result_type(kmat, planes))
    for i in range(0, b, step):
        j = min(i + step, b)
        ymat = (kmat @ gather(0, len(taps), i * hw, j * hw)).reshape(co, j - i, hq, wq)
        y[i:j] = ymat[:, :, :oh, :ow].transpose(1, 0, 2, 3)

    def fn(gy):
        gmat = np.zeros((co, b, hq, wq), dtype=gy.dtype)
        gmat[:, :, :oh, :ow] = gy.transpose(1, 0, 2, 3)
        gmat = gmat.reshape(co, n_out)
        # Backward blocks are runs of taps: each splits both GEMMs along
        # their output rows only, and its dx share is added in tap order.
        dkernel = np.empty((kh * kw * ci, co), dtype=np.result_type(planes, gmat))
        dplanes = np.zeros_like(planes) if wants[0] else None
        step = max(1, _BLOCK_BYTES // max(1, ci * n_out * planes.itemsize))
        for t0 in range(0, len(taps), step):
            t1 = min(t0 + step, len(taps))
            rows = slice(t0 * ci, t1 * ci)
            dkernel[rows] = gather(t0, t1, 0, n_out) @ gmat.T
            if dplanes is not None:
                dcols = (kmat[:, rows].T @ gmat).reshape(t1 - t0, ci, n_out)
                for (a, c, d), dcol in zip(taps[t0:t1], dcols):
                    dplanes[a, c, :, d:d + n_out] += dcol
        dkernel = dkernel.reshape(kh, kw, ci, co).transpose(3, 2, 0, 1)
        grads = {("w", node.id, "kernel"): np.ascontiguousarray(dkernel)}
        if dplanes is None:
            return [None], grads
        dgrid = dplanes[..., :n_out].reshape(grid.shape)
        dx = np.zeros((b, ci, h, wdt), dtype=gy.dtype)
        for a, c, xr, xc, gr, gc in phases:
            dx[:, :, xr, xc] = dgrid[a, c, :, :, gr, gc].transpose(1, 0, 2, 3)
        return [dx], grads

    return y, fn


def _op_fc(node, xs, w, training, wants):
    x = xs[0]
    weight, bias = w["weight"], w["bias"]
    orig_shape = x.shape
    x2 = x.reshape(orig_shape[0], -1)
    if x2.shape[1] != weight.shape[1]:
        raise ShapeMismatch(
            f"fully-connected {node.id!r} expects {weight.shape[1]} features, got {x2.shape[1]}"
        )
    y = x2 @ weight.T + bias

    def fn(gy):
        dweight = gy.T @ x2
        dbias = np.sum(gy, axis=0, dtype=np.float64).astype(bias.dtype)
        dx = (gy @ weight).reshape(orig_shape)
        return [dx], {("w", node.id, "weight"): dweight, ("w", node.id, "bias"): dbias}

    return y, fn


def _op_batchnorm(node, xs, w, training, wants):
    # Taking x out of xs lets it go once xc exists (see Lifetimes).
    x = xs.pop()
    gamma, beta = w["gamma"], w["beta"]
    if x.shape[1] != gamma.shape[0]:
        raise ShapeMismatch(
            f"batch-norm {node.id!r} expects {gamma.shape[0]} channels, got {x.shape[1]}"
        )
    # (b, c, spatial) view; the spatial extent is explicit so that c == 0 works.
    b, c = x.shape[:2]
    shape, shape3 = x.shape, (b, c, int(np.prod(x.shape[2:])))
    x3 = x.reshape(shape3)
    n = b * shape3[2]
    if training:
        mean64 = _csum(x3, np.float64) / n
        xc = x3 - mean64.astype(x.dtype)[:, None]
        var64 = np.einsum("bcs,bcs->c", xc, xc, dtype=np.float64) / n
        w["running_mean"] += (BN_MOMENTUM * (mean64 - w["running_mean"])).astype(gamma.dtype)
        w["running_var"] += (BN_MOMENTUM * (var64 - w["running_var"])).astype(gamma.dtype)
    else:
        xc = x3 - w["running_mean"].astype(x.dtype)[:, None]
        var64 = w["running_var"].astype(np.float64)
    del x, x3
    # xhat = xc * inv is never formed: its per-channel factor is folded into
    # the output scale and into backward's channel sums.
    inv = 1.0 / np.sqrt(var64 + BN_EPS)
    scale = (gamma * inv).astype(xc.dtype)[:, None]
    y = xc * scale
    y += beta[:, None]

    def fn(gy):
        gy3 = gy.reshape(shape3)
        dgamma = np.einsum("bcs,bcs->c", gy3, xc, dtype=np.float64) * inv
        dbeta = _csum(gy3, np.float64)
        if training:
            # dx = gamma * inv * (gy - xhat * dgamma / n - dbeta / n), built in
            # xc's buffer: the tape is single-use, so backward owns it.
            dx = xc
            dx *= (inv * dgamma / n).astype(gy.dtype)[:, None]
            dx += (dbeta / n).astype(gy.dtype)[:, None]
            np.subtract(gy3, dx, out=dx)
            dx *= scale
        else:
            dx = gy3 * scale
        return [dx.reshape(shape)], {
            ("w", node.id, "gamma"): dgamma.astype(gamma.dtype),
            ("w", node.id, "beta"): dbeta.astype(beta.dtype),
        }

    return y.reshape(shape), fn


def _pool_taps(f, oh, ow):
    """Strided index of each tap ``(i, j)`` of non-overlapping ``f x f``
    windows over an ``oh x ow`` grid, in row-major window order."""
    return [
        (slice(i, oh * f, f), slice(j, ow * f, f)) for i in range(f) for j in range(f)
    ]


def _op_maxpool(node, xs, w, training, wants):
    x = xs[0]
    f = int(node.attr("factor"))
    taps = _pool_taps(f, x.shape[2] // f, x.shape[3] // f)
    rows, cols = taps[0]
    y = x[:, :, rows, cols].copy()
    for rows, cols in taps[1:]:
        # np.maximum returns its second operand on ties, so y keeps the
        # earliest of equal values, as the first-max rule of backward does.
        np.maximum(x[:, :, rows, cols], y, out=y)
    shape, hits = x.shape, None
    if wants[0]:
        # hits[t] marks the windows whose gradient tap t takes: the first
        # tap equal to the max, as np.argmax would pick it. `free` marks the
        # windows whose max has not been met yet, so the last tap takes all
        # of them without a comparison.
        hits = np.empty((len(taps), *y.shape), dtype=bool)
        free = hits[-1]
        free[...] = True
        for (rows, cols), hit in zip(taps[:-1], hits):
            np.equal(x[:, :, rows, cols], y, out=hit)
            hit &= free
            free ^= hit

    def fn(gy):
        if hits is None:
            return [None], {}
        # The mask multiplies gy's bit patterns, so a tap that is not the max
        # gets +0.0 (a float product would give -0.0 where gy < 0);
        # remainder rows and columns get zero.
        dx = np.zeros(shape, dtype=gy.dtype)
        bits = np.dtype(f"u{gy.dtype.itemsize}")
        gbits = gy.view(bits)
        for (rows, cols), hit in zip(taps, hits):
            np.multiply(gbits, hit, out=dx[:, :, rows, cols].view(bits))
        return [dx], {}

    return y, fn


def _op_upsample(node, xs, w, training, wants):
    x = xs[0]
    f = int(node.attr("factor"))
    b, c, h, wdt = x.shape
    taps = _pool_taps(f, h, wdt)
    y = np.empty((b, c, h * f, wdt * f), dtype=x.dtype)
    for rows, cols in taps:
        y[:, :, rows, cols] = x

    def fn(gy):
        rows, cols = taps[0]
        dx = gy[:, :, rows, cols].copy()
        for rows, cols in taps[1:]:
            dx += gy[:, :, rows, cols]
        return [dx], {}

    return y, fn


def _op_pass(node, xs, w, training, wants):
    # Input, Output and Unknown operators pass their first input through; an
    # Unknown node's groups are non-prunable, so it only keeps data flowing.
    rest = [None] * (len(xs) - 1)

    def fn(gy):
        return [gy] + rest, {}

    return xs[0], fn


_OP_TABLE = {
    OpKind.INPUT: _op_pass,
    OpKind.OUTPUT: _op_pass,
    OpKind.RELU: _op_relu,
    OpKind.SUM: _op_sum,
    OpKind.PRODUCT: _op_product,
    OpKind.CONCAT: _op_concat,
    OpKind.CONV: _op_conv,
    OpKind.FULLY_CONNECTED: _op_fc,
    OpKind.BATCH_NORM: _op_batchnorm,
    OpKind.MAX_POOL: _op_maxpool,
    OpKind.UPSAMPLE: _op_upsample,
    OpKind.UNKNOWN: _op_pass,
}
