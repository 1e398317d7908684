"""Reverse-mode execution engine for operator graphs.

The engine walks a graph in topological order computing numpy activations
(channels-first) and recording one tape entry per operator; ``Run.backward``
replays the tape in reverse, accumulating gradients for weights, gate scores
and (additively, for fan-out) intermediate activations.

Numerics: activations and parameters share the caller's dtype (training uses
float32); statistics and gradient *reductions* (BatchNorm moments, per-channel
sums) accumulate in float64 before being cast back. Execution is pure numpy,
so identical inputs, weights and dtype give bitwise-identical results.

Convolutions carry no bias term: every reference model normalises right after
each convolution, and a bias-free convolution maps an all-zero input to an
all-zero output, which is what lets fully pruned branches collapse without
changing the network function. FullyConnected keeps its bias.

Convolution layout: the input is zero-padded, made channel-major and split
into its ``sh * sw`` stride phases (fewer when the kernel is narrower than
the stride), giving planes of shape ``(phases, c_in, b * hq * wq)`` over a
``hq x wq`` grid per image. In that layout the window of every kernel tap
``(ki, kj)`` is one contiguous slice of one phase plane, so forward is
``kh * kw`` block copies and one GEMM over the whole grid, cropped back to
NCHW; ``dx`` is one GEMM against the stacked kernel followed by ``kh * kw``
slice-adds and one copy out of the phases; ``dkernel`` is one GEMM against
the same tap slices, rebuilt for that GEMM and released after it. A
convolution's tape record keeps only the padded planes.

Pooling layout: tap ``(i, j)`` of the non-overlapping ``f x f`` windows is
the strided view ``x[:, :, i:oh*f:f, j:ow*f:f]``. MaxPool's forward is a copy
of the first tap's view and an in-place ``np.maximum`` with each other tap;
its backward sends each window's gradient to the first tap (row-major) equal
to the max, the tap ``np.argmax`` would pick, so ties after a ReLU resolve
the same way; its tape keeps only ``x`` and ``y``. Upsample's forward is
``f * f`` strided writes into the output, its backward the sum of ``f * f``
strided views of the gradient; its tape keeps nothing.

BatchNorm works on a ``(b, c, spatial)`` view: the mean is a float64 channel
sum and the variance a float64 reduction of the centred values, so no
full-size float64 array is built. Its tape keeps the centred input, and
backward takes the two channel sums ``dgamma`` and ``dbeta`` and forms
``dx`` in the centred input's buffer with four in-place passes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
from .relax import GateSet, sigma, sigma_grad
from .subgraph import ROLE_CONV_OUT, ROLE_FC_OUT, Coloring

ParamKey = tuple  # ("w", node_id, param_name) or ("s", group_id)
Weights = dict[str, dict[str, np.ndarray]]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# Activations are keyed by node id; when a gate or fixed scale is applied to a
# node's output, the unscaled value is stored under <id> + _RAW and the scale
# becomes its own tape record between the two keys.
_RAW = "\x00raw"


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


def trainable_params(weights: Weights, gates: GateSet | None = None) -> dict[ParamKey, np.ndarray]:
    """Flat, deterministically ordered view of every trainable array
    (BatchNorm running statistics are state, not parameters)."""
    params: dict[ParamKey, np.ndarray] = {}
    for nid in sorted(weights):
        for name in sorted(weights[nid]):
            if name.startswith("running_"):
                continue
            params[("w", nid, name)] = weights[nid][name]
    if gates is not None:
        for gid in sorted(gates.values):
            params[("s", gid)] = gates.values[gid]
    return params


# -- forward / backward --------------------------------------------------------


@dataclass
class Run:
    """One forward execution: activations plus the tape for backward."""

    graph: Graph
    acts: dict[str, np.ndarray]
    output: np.ndarray
    _tape: list[tuple[str, tuple[str, ...], Callable]] = field(default_factory=list)
    _consumed: bool = False

    def backward(self, output_grad: np.ndarray) -> dict[ParamKey, np.ndarray]:
        """Accumulate gradients of a scalar loss whose gradient with respect
        to the run's output is ``output_grad``. Single use per run."""
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
        for out_key, in_keys, fn in reversed(self._tape):
            gy = act_grads.pop(out_key, None)
            if gy is None:
                continue
            in_grads, p_grads = fn(gy)
            for src, g in zip(in_keys, in_grads):
                if g is None:
                    continue
                if src in act_grads:
                    act_grads[src] = act_grads[src] + g
                else:
                    act_grads[src] = g
            for key, g in p_grads.items():
                if key in param_grads:
                    param_grads[key] = param_grads[key] + g
                else:
                    param_grads[key] = g
        return param_grads


def _cshape(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-channel vector for broadcasting against (b, c, *d)."""
    return v.reshape((1, v.shape[0]) + (1,) * (ndim - 2))


def _csum(x: np.ndarray, dtype) -> np.ndarray:
    """Sum over every axis except channels, accumulating in float64."""
    axes = (0,) + tuple(range(2, x.ndim))
    return np.sum(x, axis=axes, dtype=np.float64).astype(dtype)


def gate_vectors(
    coloring: Coloring, gates: GateSet, dtype=None
) -> dict[str, tuple[int, np.ndarray]]:
    """Map each producing node of a gated group to ``(group id, gains)``.

    Gains are applied once, at the channel-producing operators (convolution
    and fully-connected outputs); member operators that merely preserve those
    channels see the scaled values through normal data flow.
    """
    plan: dict[str, tuple[int, np.ndarray]] = {}
    for group in coloring.groups:
        if not group.prunable or group.id not in gates.values:
            continue
        gains = sigma(gates.values[group.id], gates.steepness)
        if dtype is not None:
            gains = gains.astype(dtype)
        for member in group.members:
            if member.role in (ROLE_CONV_OUT, ROLE_FC_OUT):
                plan[member.node] = (group.id, gains)
    return plan


def forward(
    graph: Graph,
    weights: Weights,
    x: np.ndarray,
    *,
    coloring: Coloring | None = None,
    gates: GateSet | None = None,
    node_scales: dict[str, np.ndarray] | None = None,
    training: bool = False,
    bn_momentum: float = BN_MOMENTUM,
) -> Run:
    """Execute the graph on a batch.

    With ``gates`` (and the matching ``coloring``), every gated group's
    producing activation is multiplied by its current gains exactly once and
    the tape carries gradients back to the gate scores. ``node_scales``
    instead applies fixed per-channel multipliers after the named nodes (used
    for masked-model evaluation); the two modes are mutually exclusive.
    In training mode BatchNorm uses batch statistics and updates its running
    estimates in place.
    """
    if gates is not None and node_scales is not None:
        raise ShapeMismatch("pass either gates or node_scales, not both")
    if gates is not None and coloring is None:
        raise ShapeMismatch("gates require the matching coloring")
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteTensor("input tensor contains NaN or Inf")

    gate_plan = gate_vectors(coloring, gates, dtype=x.dtype) if gates is not None else {}
    acts: dict[str, np.ndarray] = {}
    tape: list[tuple[str, tuple[str, ...], Callable]] = []

    for nid in graph.topo_order():
        node = graph.nodes[nid]
        producers = graph.inputs(nid)
        if node.kind in (OpKind.CONV, OpKind.FULLY_CONNECTED, OpKind.BATCH_NORM):
            if nid not in weights:
                raise MissingWeights(f"no weights for node {nid!r}")

        scaling = nid in gate_plan or (node_scales is not None and nid in node_scales)
        raw_key = nid + _RAW if scaling else nid

        xs = [acts[p] for p in producers]
        y, fn = _OP_TABLE[node.kind](node, xs, weights.get(nid), x, training, bn_momentum)
        if fn is not None:
            tape.append((raw_key, producers, fn))

        if nid in gate_plan:
            gid, gains = gate_plan[nid]
            if gains.shape[0] != y.shape[1]:
                raise LengthMismatch(
                    f"gate width {gains.shape[0]} does not match {nid!r} output {y.shape}"
                )
            scores = gates.values[gid]
            steep = gates.steepness
            pre = y
            y = y * _cshape(gains, y.ndim)

            def gate_fn(gy, *, pre=pre, gains=gains, scores=scores, steep=steep, gid=gid):
                ds = sigma_grad(scores, steep) * _csum(gy * pre, np.float64)
                return [gy * _cshape(gains, gy.ndim)], {("s", gid): ds.astype(scores.dtype)}

            tape.append((nid, (raw_key,), gate_fn))
        elif node_scales is not None and nid in node_scales:
            vec = node_scales[nid].astype(y.dtype, copy=False)
            if vec.shape[0] != y.shape[1]:
                raise LengthMismatch(
                    f"scale width {vec.shape[0]} does not match {nid!r} output {y.shape}"
                )
            y = y * _cshape(vec, y.ndim)

            def scale_fn(gy, *, vec=vec):
                return [gy * _cshape(vec, gy.ndim)], {}

            tape.append((nid, (raw_key,), scale_fn))
        acts[nid] = y

    return Run(graph=graph, acts=acts, output=acts[graph.exit], _tape=tape)


# -- per-kind forward implementations -------------------------------------------
# Each returns (output, backward) where backward maps the output gradient to
# ([gradients for each input], {param key: gradient}); None backward means the
# operator is a source.


def _op_input(node, xs, w, x0, training, mom):
    return np.asarray(x0), None


def _op_output(node, xs, w, x0, training, mom):
    def fn(gy):
        return [gy], {}

    return xs[0], fn


def _op_relu(node, xs, w, x0, training, mom):
    x = xs[0]
    y = np.maximum(x, 0)
    mask = x > 0

    def fn(gy):
        return [gy * mask], {}

    return y, fn


def _op_sum(node, xs, w, x0, training, mom):
    y = xs[0].copy()
    for other in xs[1:]:
        y += other

    def fn(gy):
        return [gy] * len(xs), {}

    return y, fn


def _op_product(node, xs, w, x0, training, mom):
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


def _op_concat(node, xs, w, x0, training, mom):
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


def _op_conv(node, xs, w, x0, training, mom):
    x = xs[0]
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
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatch(f"convolution {node.id!r} output would be empty for input {x.shape}")

    # Padded polyphase layout (see module docstring). Output position n of
    # the (b, hq, wq) grid reads tap (ki, kj) from phase (ki % sh, kj % sw) at
    # n + offset, so each tap window is one contiguous slice of n_out values;
    # grid positions past (oh, ow) are computed and cropped. Each plane ends
    # in a zero tail that keeps the last tap's slice in bounds.
    hq, row_spans = _phase_axis(h, kh, sh, ph, oh)
    wq, col_spans = _phase_axis(wdt, kw, sw, pw, ow)
    n_out = b * hq * wq
    taps = [
        (ki % sh, kj % sw, (ki // sh) * wq + kj // sw) for ki in range(kh) for kj in range(kw)
    ]
    phases = [
        (a, c, xr, xc, gr, gc)
        for a, (xr, gr) in enumerate(row_spans)
        for c, (xc, gc) in enumerate(col_spans)
    ]

    planes = np.zeros((len(row_spans), len(col_spans), ci, n_out + taps[-1][2]), dtype=x.dtype)
    grid = planes[..., :n_out].reshape(*planes.shape[:3], b, hq, wq)
    for a, c, xr, xc, gr, gc in phases:
        grid[a, c, :, :, gr, gc] = x[:, :, xr, xc].transpose(1, 0, 2, 3)

    def gather():
        cols = np.empty((kh * kw, ci, n_out), dtype=planes.dtype)
        for t, (a, c, d) in enumerate(taps):
            cols[t] = planes[a, c, :, d:d + n_out]
        return cols.reshape(kh * kw * ci, n_out)

    kmat = kernel.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
    y = (kmat @ gather()).reshape(co, b, hq, wq)[:, :, :oh, :ow]
    y = np.ascontiguousarray(y.transpose(1, 0, 2, 3))

    def fn(gy):
        gmat = np.zeros((co, b, hq, wq), dtype=gy.dtype)
        gmat[:, :, :oh, :ow] = gy.transpose(1, 0, 2, 3)
        gmat = gmat.reshape(co, n_out)
        dkernel = (gather() @ gmat.T).reshape(kh, kw, ci, co).transpose(3, 2, 0, 1)
        dcols = (kmat.T @ gmat).reshape(kh * kw, ci, n_out)
        dplanes = np.zeros_like(planes)
        for t, (a, c, d) in enumerate(taps):
            dplanes[a, c, :, d:d + n_out] += dcols[t]
        dgrid = dplanes[..., :n_out].reshape(grid.shape)
        dx = np.zeros((b, ci, h, wdt), dtype=gy.dtype)
        for a, c, xr, xc, gr, gc in phases:
            dx[:, :, xr, xc] = dgrid[a, c, :, :, gr, gc].transpose(1, 0, 2, 3)
        return [dx], {("w", node.id, "kernel"): np.ascontiguousarray(dkernel)}

    return y, fn


def _op_fc(node, xs, w, x0, training, mom):
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


def _op_batchnorm(node, xs, w, x0, training, mom):
    x = xs[0]
    gamma, beta = w["gamma"], w["beta"]
    if x.shape[1] != gamma.shape[0]:
        raise ShapeMismatch(
            f"batch-norm {node.id!r} expects {gamma.shape[0]} channels, got {x.shape[1]}"
        )
    # (b, c, spatial) view; the spatial extent is explicit so that c == 0 works.
    b, c = x.shape[:2]
    x3 = x.reshape(b, c, int(np.prod(x.shape[2:])))
    n = b * x3.shape[2]
    if training:
        mean64 = _csum(x3, np.float64) / n
        xc = x3 - mean64.astype(x.dtype)[:, None]
        var64 = np.einsum("bcs,bcs->c", xc, xc, dtype=np.float64) / n
        w["running_mean"] += (mom * (mean64 - w["running_mean"])).astype(gamma.dtype)
        w["running_var"] += (mom * (var64 - w["running_var"])).astype(gamma.dtype)
    else:
        xc = x3 - w["running_mean"].astype(x.dtype)[:, None]
        var64 = w["running_var"].astype(np.float64)
    # xhat = xc * inv is never formed: its per-channel factor is folded into
    # the output scale and into backward's channel sums.
    inv = 1.0 / np.sqrt(var64 + BN_EPS)
    scale = (gamma * inv).astype(x.dtype)[:, None]
    y = xc * scale
    y += beta[:, None]

    def fn(gy):
        gy3 = gy.reshape(x3.shape)
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
        return [dx.reshape(x.shape)], {
            ("w", node.id, "gamma"): dgamma.astype(gamma.dtype),
            ("w", node.id, "beta"): dbeta.astype(beta.dtype),
        }

    return y.reshape(x.shape), fn


def _pool_taps(f, oh, ow):
    """Strided index of each tap ``(i, j)`` of non-overlapping ``f x f``
    windows over an ``oh x ow`` grid, in row-major window order."""
    return [
        (slice(i, oh * f, f), slice(j, ow * f, f)) for i in range(f) for j in range(f)
    ]


def _op_maxpool(node, xs, w, x0, training, mom):
    x = xs[0]
    f = int(node.attr("factor"))
    taps = _pool_taps(f, x.shape[2] // f, x.shape[3] // f)
    rows, cols = taps[0]
    y = x[:, :, rows, cols].copy()
    for rows, cols in taps[1:]:
        # np.maximum returns its second operand on ties, so y keeps the
        # earliest of equal values, as the first-max rule of backward does.
        np.maximum(x[:, :, rows, cols], y, out=y)

    def fn(gy):
        # Each window's gradient goes to its first tap equal to the max, as
        # np.argmax would pick it; remainder rows and columns get zero.
        # `free` marks the windows whose max has not been met yet, so the
        # last tap takes all of them without a comparison. The mask
        # multiplies gy's bit patterns, so a tap that is not the max gets
        # +0.0 (a float product would give -0.0 where gy < 0).
        dx = np.zeros(x.shape, dtype=gy.dtype)
        bits = np.dtype(f"u{gy.dtype.itemsize}")
        gbits = gy.view(bits)
        free = np.ones(y.shape, dtype=bool)
        hit = np.empty(y.shape, dtype=bool)
        for rows, cols in taps[:-1]:
            np.equal(x[:, :, rows, cols], y, out=hit)
            hit &= free
            free ^= hit
            np.multiply(gbits, hit, out=dx[:, :, rows, cols].view(bits))
        rows, cols = taps[-1]
        np.multiply(gbits, free, out=dx[:, :, rows, cols].view(bits))
        return [dx], {}

    return y, fn


def _op_upsample(node, xs, w, x0, training, mom):
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


def _op_unknown(node, xs, w, x0, training, mom):
    # Unknown operators execute as identity on their first input; their
    # groups are non-prunable, so this only needs to keep data flowing.
    def fn(gy):
        return [gy] + [None] * (len(xs) - 1), {}

    return xs[0], fn


_OP_TABLE = {
    OpKind.INPUT: _op_input,
    OpKind.OUTPUT: _op_output,
    OpKind.RELU: _op_relu,
    OpKind.SUM: _op_sum,
    OpKind.PRODUCT: _op_product,
    OpKind.CONCAT: _op_concat,
    OpKind.CONV: _op_conv,
    OpKind.FULLY_CONNECTED: _op_fc,
    OpKind.BATCH_NORM: _op_batchnorm,
    OpKind.MAX_POOL: _op_maxpool,
    OpKind.UPSAMPLE: _op_upsample,
    OpKind.UNKNOWN: _op_unknown,
}
