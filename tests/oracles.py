"""Hand-written reference implementations the package is tested against.

Everything here is computed from first principles with plain integer/float
arithmetic and no calls into the package's accounting or autodiff code, so a
bug in the package cannot hide inside its own oracle.
"""
from __future__ import annotations

import numpy as np

from prunekit.graph import Graph, OpKind, TensorShape


def brute_force_counts(
    graph: Graph,
    shapes: dict[str, TensorShape],
    kept: dict[str, tuple[int, ...]],
) -> tuple[int, int]:
    """Exact integer (params, flops) of a graph with some channels removed.

    ``kept[nid]`` is the per-segment surviving channel count of the node's
    output tensor (full widths when nothing is removed). Costs follow the
    standard table: convolutions are bias-free in parameters but carry one
    extra accumulate per output element; BatchNorm/ReLU/Sum/Product count one
    operation per output element; MaxPool/Upsample one per *input* element;
    Concatenation and opaque operators are free.
    """
    params = 0
    flops = 0
    for nid in graph.topo_order():
        node = graph.nodes[nid]
        ins = graph.inputs(nid)
        c_in = sum(kept[ins[0]]) if ins else 0
        c_out = sum(kept[nid])
        out_shape = shapes[nid]
        batch = out_shape.batch
        d_out = out_shape.spatial_size()
        if node.kind == OpKind.CONV:
            k = 1
            for extent in node.attr("kernel"):
                k *= int(extent)
            params += c_in * c_out * k
            flops += c_out * d_out * (k * c_in + 1)
        elif node.kind == OpKind.FULLY_CONNECTED:
            params += c_in * c_out + c_out
            flops += c_out * (c_in + 1)
        elif node.kind == OpKind.BATCH_NORM:
            params += 2 * c_out
            flops += batch * c_out * d_out
        elif node.kind in (OpKind.RELU, OpKind.SUM, OpKind.PRODUCT):
            flops += batch * c_out * d_out
        elif node.kind in (OpKind.MAX_POOL, OpKind.UPSAMPLE):
            d_in = shapes[ins[0]].spatial_size()
            flops += batch * c_out * d_in
        # Input, Output, Concatenation, Unknown: free.
    return params, flops


def kept_from_masks(coloring, masks: dict[int, np.ndarray]) -> dict[str, tuple[int, ...]]:
    """Per-node surviving channel counts implied by group keep-masks."""
    kept: dict[str, tuple[int, ...]] = {}
    for nid, segs in coloring.node_segments.items():
        counts = []
        for seg in segs:
            if seg.group in masks:
                counts.append(int(np.sum(masks[seg.group])))
            else:
                counts.append(seg.width)
        kept[nid] = tuple(counts)
    return kept


def full_widths(coloring) -> dict[str, tuple[int, ...]]:
    return {
        nid: tuple(seg.width for seg in segs)
        for nid, segs in coloring.node_segments.items()
    }


def naive_conv(x: np.ndarray, kernel: np.ndarray, stride, padding) -> np.ndarray:
    """Direct-loop 2-D convolution (cross-correlation), no bias."""
    b, ci, h, w = x.shape
    co, ci2, kh, kw = kernel.shape
    assert ci == ci2
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    y = np.zeros((b, co, oh, ow), dtype=np.float64)
    for bi in range(b):
        for oc in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    y[bi, oc, i, j] = np.sum(patch.astype(np.float64) * kernel[oc])
    return y


def naive_conv_backward(x: np.ndarray, kernel: np.ndarray, gy: np.ndarray, stride, padding):
    """Direct-loop gradients ``(dx, dkernel)`` of :func:`naive_conv` for the
    output gradient ``gy``, accumulated in float64."""
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    k64 = kernel.astype(np.float64)
    dxp = np.zeros_like(xp)
    dkernel = np.zeros(kernel.shape, dtype=np.float64)
    for bi in range(b):
        for oc in range(co):
            for i in range(gy.shape[2]):
                for j in range(gy.shape[3]):
                    g = float(gy[bi, oc, i, j])
                    rows = slice(i * sh, i * sh + kh)
                    cols = slice(j * sw, j * sw + kw)
                    dkernel[oc] += g * xp[bi, :, rows, cols]
                    dxp[bi, :, rows, cols] += g * k64[oc]
    return dxp[:, :, ph : ph + h, pw : pw + w], dkernel


def _first_max(window: np.ndarray) -> tuple[int, int]:
    """Row-major position of the first maximal element of a 2-D window
    (of equal maxima, the earliest, as ``np.argmax`` picks)."""
    best = (0, 0)
    for u in range(window.shape[0]):
        for v in range(window.shape[1]):
            if window[u, v] > window[best]:
                best = (u, v)
    return best


def naive_maxpool(x: np.ndarray, factor: int) -> np.ndarray:
    """Non-overlapping max pooling; trailing remainder rows/cols dropped.
    Each output is a copy of its window's first maximal element."""
    b, c, h, w = x.shape
    oh, ow = h // factor, w // factor
    y = np.empty((b, c, oh, ow), dtype=x.dtype)
    for bi in range(b):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    win = x[bi, ci, i * factor : (i + 1) * factor, j * factor : (j + 1) * factor]
                    y[bi, ci, i, j] = win[_first_max(win)]
    return y


def naive_maxpool_backward(x: np.ndarray, gy: np.ndarray, factor: int) -> np.ndarray:
    """Gradient of :func:`naive_maxpool`: each window's output gradient is
    copied to its first maximal element; every other input, remainder rows
    and columns included, gets +0.0."""
    b, c, h, w = x.shape
    dx = np.zeros(x.shape, dtype=gy.dtype)
    for bi in range(b):
        for ci in range(c):
            for i in range(h // factor):
                for j in range(w // factor):
                    win = x[bi, ci, i * factor : (i + 1) * factor, j * factor : (j + 1) * factor]
                    u, v = _first_max(win)
                    dx[bi, ci, i * factor + u, j * factor + v] = gy[bi, ci, i, j]
    return dx


def naive_upsample_backward(gy: np.ndarray, factor: int) -> np.ndarray:
    """Gradient of nearest-neighbour upsampling: the float64 sum of each
    ``factor x factor`` block of the output gradient."""
    b, c, h, w = gy.shape
    dx = np.zeros((b, c, h // factor, w // factor), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            dx[:, :, i // factor, j // factor] += gy[:, :, i, j]
    return dx


def naive_batchnorm(x: np.ndarray, gamma, beta, eps: float) -> np.ndarray:
    """Training-mode batch normalisation with biased batch statistics."""
    axes = (0,) + tuple(range(2, x.ndim))
    mean = x.mean(axis=axes, dtype=np.float64)
    var = x.var(axis=axes, dtype=np.float64)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    xhat = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
    return xhat * np.reshape(gamma, shape) + np.reshape(beta, shape)


def naive_batchnorm_backward(x: np.ndarray, gamma, gy: np.ndarray, eps: float, running=None):
    """Gradients ``(dx, dgamma, dbeta)`` of batch normalisation for the output
    gradient ``gy``, in float64, channel by channel.

    With ``running=None`` the statistics are the biased batch moments and
    ``dx`` contracts ``gy`` with the explicit Jacobian of each channel's
    normalised values; with ``running=(mean, var)`` they are fixed and
    ``dx`` is a plain per-channel scale.
    """
    c = x.shape[1]
    dx = np.zeros(x.shape, dtype=np.float64)
    dgamma = np.zeros(c, dtype=np.float64)
    dbeta = np.zeros(c, dtype=np.float64)
    for ch in range(c):
        v = np.moveaxis(x, 1, 0)[ch].astype(np.float64).reshape(-1)
        g = np.moveaxis(gy, 1, 0)[ch].astype(np.float64).reshape(-1)
        n = v.size
        if running is None:
            mean = sum(v) / n
            var = sum((v - mean) ** 2) / n
        else:
            mean, var = float(running[0][ch]), float(running[1][ch])
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (v - mean) * inv
        dgamma[ch] = sum(g * xhat)
        dbeta[ch] = sum(g)
        if running is None:
            # d xhat_j / d v_i = inv * (delta_ij - 1/n - xhat_i * xhat_j / n)
            jac = inv * (np.eye(n) - 1.0 / n - np.outer(xhat, xhat) / n)
            dv = float(gamma[ch]) * (jac @ g)
        else:
            dv = float(gamma[ch]) * inv * g
        np.moveaxis(dx, 1, 0)[ch] = dv.reshape(np.moveaxis(dx, 1, 0)[ch].shape)
    return dx, dgamma, dbeta


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of scalar ``f`` at ``x`` (flat)."""
    grad = np.zeros(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        dn = f()
        flat[i] = keep
        grad[i] = (up - dn) / (2.0 * h)
    return grad.reshape(x.shape)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case elementwise relative error with an absolute floor.

    The floor keeps near-zero components from exploding the ratio: an entry
    counts as matching when |a - n| <= tol * max(|a|, |n|, floor).
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
