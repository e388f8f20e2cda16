"""Dense rank-4 tensor primitives with hand-written vector-Jacobian products.

Tensors are plain numpy arrays laid out ``(batch, channel, frequency, time)``
in row-major order; the scalar width (float32 vs float64) is whatever dtype
the caller passes through. Every op is a pure function of its inputs, and
each differentiable op has a companion ``*_vjp`` that maps the output
cotangent back to input/parameter cotangents. The VJPs are checked against
central finite differences in the test suite.

Convolutions are cross-correlations (no kernel flip). Output spatial sizes
follow the usual floor rule ``(d + 2*pad - k)//stride + 1``, computed by
``conv_out_size``, which layer shape planning shares. A depthwise conv runs
at stride 1 with ``pad < min(kh, kw)``, the only form the networks build.
Every forward output, and the depthwise dL/dx, is a contiguous array that no
larger buffer backs, so its ``nbytes`` is the memory it holds.

There are eight conv kernel forms. Each was picked as the fastest measured
for its calls by ``python3 scripts/conv_bench.py`` (float32, one OpenBLAS
thread), which times every conv call of the benchmark nets and of
DF-RevNet89 at batch 1 and 200 frames. Scratch is what a call allocates
beyond its results. A block or band holds one plane or row at least, so a
plane or row larger than its constant bounds that buffer instead. "Other
kernels" are all but the unpadded 1x1:

1. ``conv2d``, unpadded 1x1 kernel: one batched matrix product over
   ``(n, c, f*t)`` of the input ``x[:, :, ::s, ::s]``. Scratch: none at
   stride 1; above it, the strided input's copy.
2. ``conv2d_vjp``, unpadded 1x1 kernel: the same matrix products
   transposed. Scratch: an (n, c_out, c_in) per-sample dL/dw; above stride
   1, the strided input's copy and the strided dL/dx scattered into the
   zeroed dL/dx.
3. ``conv2d``, other kernels at stride 1 with c_in > 1: a flat-shift tap loop over bands
   of output rows of one sample. Tap (i, j) is one GEMM on a contiguous run
   of the band's padded rows, written with ``np.matmul(..., out=)`` into
   one reused buffer and added into the band's widened output. Scratch: the
   padded band, its widened output and the GEMM buffer, each at most
   ``DENSE_BAND_BYTES``, and a transposed copy of w.
4. ``conv2d``, other kernels at stride > 1 or with c_in = 1 (the c=1 stem
   and the stride-2 dense forwards): a ``sliding_window_view`` einsum into the
   preallocated output over bands of output rows. Scratch: one band's
   kh*kw-fold window copy, at most ``WINDOW_BYTES``, its zero-padded input
   rows, and the einsum's BLAS result for the band, which is then copied
   into the output.
5. ``conv2d_vjp``, other kernels at stride 1: one GEMM per tap on a flat read of
   each padded plane, so a tap's input is a contiguous run. Scratch: a
   padded copy of x, a gy widened to the padded width, a padded dL/dx that
   the returned view keeps alive, and one tap's two products.
6. ``conv2d_vjp``, other kernels at stride > 1: one GEMM per tap on the tap's strided
   slice of the padded input. Scratch: a padded copy of x, a padded dL/dx
   that the returned view keeps alive, and one tap's slice copy and
   products.
7. ``depthwise_conv2d``: a flat-shift tap loop over blocks of whole (n*c)
   planes. Each block is copied zero-padded, with one spare row, and read
   flat, so every tap is a contiguous run; each block's interior goes
   straight into the exact-size output. Scratch: three block buffers (the
   padded planes, the widened output and one tap's product), each at most
   ``DEPTHWISE_BLOCK_BYTES``, and the per-plane taps.
8. ``depthwise_conv2d_vjp``: the gather form of the same loop. It pads
   dL/dy rather than x, takes each tap's dL/dw entries as per-plane dot
   products with x widened by zero columns, and adds the taps in the
   scatter form's order. Scratch: four block buffers (padded dL/dy, widened
   x, widened dL/dx and one tap's product), each at most
   ``DEPTHWISE_BLOCK_BYTES``, the per-plane taps and a per-plane dL/dw.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError

# Keeps the std-pool gradient finite when a (channel, frequency) slice is
# constant over time.
GSP_VAR_EPS = 1e-10

# Largest window copy one band of the windowed einsum may make; that einsum
# serves the c=1 stem and the stride-2 dense forwards. It is not merged
# into DENSE_BAND_BYTES: timed in 40 interleaved pairs (float32, one
# OpenBLAS thread, 2-vCPU x86-64), 256 KiB was slower than 1.5 MiB in all 40
# pairs on 5 of 6 einsum shapes, e.g. 2.6 -> 3.3 ms at (1, 128, 20, 50) ->
# 256 channels, stride 2, and 0.33 -> 0.38 ms on the (4, 1, 80, 32) -> 16
# stem; the sixth, whose windows fit 256 KiB, was unchanged.
WINDOW_BYTES = 3 << 19

# Padded (n, c) planes one depthwise block copies (one plane at
# least); each of the block's three or four buffers is at most this size.
# Of 64 KiB to 2 MiB, 256 KiB was fastest at both the toy and the registry
# shapes of scripts/conv_bench.py.
DEPTHWISE_BLOCK_BYTES = 1 << 18

# Padded input rows, over all channels of one sample, one stride-1 dense
# forward band copies (one row at least); its widened output and GEMM
# buffer are at most this size too. Sized like DEPTHWISE_BLOCK_BYTES.
DENSE_BAND_BYTES = 1 << 18


def _require_4d(x: np.ndarray, name: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be rank-4 (n, c, f, t), got shape {x.shape}")


def conv_out_size(d: int, k: int, stride: int, pad: int) -> int:
    span = d + 2 * pad - k
    if span < 0:
        raise ConfigError(
            f"kernel {k} with pad {pad} does not fit spatial extent {d}"
        )
    return span // stride + 1


def _window_einsum(x, w, y, stride: int, pad: int) -> np.ndarray:
    """Write the conv of x with w, read through (n, c, fo, to, kh, kw) windows, into y.

    np.einsum copies the kh*kw-fold window tensor it is given, so the
    contraction runs over bands of output rows whose windows fit in
    WINDOW_BYTES (one row at least). Each band zero-pads only the input rows
    its windows read.
    """
    n, c, f, t = x.shape
    kh, kw = w.shape[-2:]
    fo, to = y.shape[2:]
    rows = max(1, WINDOW_BYTES // (n * c * to * kh * kw * y.itemsize))
    for r in range(0, fo, rows):
        band = slice(r, min(r + rows, fo))
        xb = np.empty((n, c, (band.stop - r - 1) * stride + kh, t + 2 * pad), x.dtype)
        _copy_padded_rows(xb, x, r * stride - pad, xb.shape[2], pad)
        win = sliding_window_view(xb, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        np.einsum("ncftij,ocij->noft", win, w, out=y[:, :, band], optimize=True)
    return y


def _copy_padded_rows(buf, x, lo, count, pad):
    """Write input rows lo .. lo + count - 1 of x, zero-padded, into buf.

    Each row gets pad zero columns on either side, rows outside x are zero,
    and so is row count of buf if it has one: the spare row that keeps a
    flat tap run inside the buffer.
    """
    f, t = x.shape[-2:]
    src = slice(max(lo, 0), min(lo + count, f))
    top, bottom = src.start - lo, src.stop - lo
    buf[..., :top, :] = 0
    buf[..., top:bottom, :pad] = 0
    buf[..., top:bottom, pad : pad + t] = x[..., src, :]
    buf[..., top:bottom, pad + t :] = 0
    buf[..., bottom : count + 1, :] = 0


def _check_conv_args(x, w, stride, pad):
    _require_4d(x, "input")
    if w.ndim != 4:
        raise ShapeError(f"kernel must be rank-4, got shape {w.shape}")
    if stride < 1 or int(stride) != stride:
        raise ConfigError(f"stride must be a positive integer, got {stride}")
    if pad < 0 or int(pad) != pad:
        raise ConfigError(f"pad must be non-negative, got {pad}")
    kh, kw = w.shape[2], w.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"kernel sides must be odd, got {kh}x{kw}")


def _is_pointwise(w: np.ndarray, pad: int) -> bool:
    return w.shape[2] == 1 and w.shape[3] == 1 and pad == 0


def _pointwise_conv2d_vjp(x, w, gy, stride):
    n, c = x.shape[:2]
    o, fo, to = gy.shape[1:]
    xs = x[:, :, ::stride, ::stride].reshape(n, c, fo * to)
    g = gy.reshape(n, o, fo * to)
    gw = np.matmul(g, xs.transpose(0, 2, 1)).sum(axis=0)[:, :, None, None]
    gxs = np.matmul(w[:, :, 0, 0].T, g).reshape(n, c, fo, to)
    if stride == 1:
        return gxs, gw
    gx = np.zeros_like(x, dtype=gxs.dtype)
    gx[:, :, ::stride, ::stride] = gxs
    return gx, gw


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate x (n, c_in, f, t) with w (c_out, c_in, kh, kw)."""
    _check_conv_args(x, w, stride, pad)
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but kernel expects {w.shape[1]}"
        )
    kh, kw = w.shape[2], w.shape[3]
    fo = conv_out_size(x.shape[2], kh, stride, pad)
    to = conv_out_size(x.shape[3], kw, stride, pad)
    if _is_pointwise(w, pad):
        n, c = x.shape[:2]
        y = np.matmul(w[:, :, 0, 0], x[:, :, ::stride, ::stride].reshape(n, c, fo * to))
        return y.reshape(n, w.shape[0], fo, to)
    y = np.empty((x.shape[0], w.shape[0], fo, to), dtype=np.result_type(x, w))
    if stride == 1 and x.shape[1] > 1:
        return _flat_conv2d(x, w, y, pad)
    return _window_einsum(x, w, y, stride, pad)


def _flat_conv2d(x, w, y, pad):
    # Bands of output rows of one sample at a time. The band's padded input
    # rows (plus one spare) are read flat, so tap (i, j) meets the run at
    # i * tp + j and adds one GEMM into output rows widened to tp columns;
    # their first to columns are the band's output.
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    fo, to = y.shape[2:]
    tp = t + 2 * pad
    rows = min(fo, max(1, DENSE_BAND_BYTES // (max(c, o) * tp * y.itemsize) - kh))
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1), dtype=y.dtype)
    xb = np.empty((c, rows + kh, tp), dtype=y.dtype)
    acc = np.empty((o, rows * tp), dtype=y.dtype)
    prod = np.empty_like(acc)
    for s in range(n):
        for r in range(0, fo, rows):
            m = min(rows, fo - r)
            _copy_padded_rows(xb, x[s], r - pad, m + kh - 1, pad)
            xf = xb.reshape(c, -1)
            a, p = acc[:, : m * tp], prod[:, : m * tp]
            for k in range(kh * kw):
                i, j = divmod(k, kw)
                run = xf[:, i * tp + j : i * tp + j + m * tp]
                np.matmul(wt[i, j], run, out=p if k else a)
                if k:
                    a += p
            y[s, :, r : r + m] = a.reshape(o, m, tp)[:, :, :to]
    return y


def conv2d_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dw) of conv2d given dL/dy."""
    if _is_pointwise(w, pad):
        return _pointwise_conv2d_vjp(x, w, gy, stride)
    if stride == 1:
        return _flat_conv2d_vjp(x, w, gy, pad)
    return _strided_conv2d_vjp(x, w, gy, stride, pad)


def _flat_conv2d_vjp(x, w, gy, pad):
    # Each padded plane is read as one flat row of (fp + 1) * tp elements,
    # with output rows widened from to to tp columns. Tap (i, j) then meets
    # the contiguous run that starts at i * tp + j, so its dL/dw entry and its
    # dL/dx term are plain GEMMs. The tp - to extra columns of each output row
    # hold zeros in the widened gy; the extra padded row keeps the last
    # tap's run inside the buffer.
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    fo, to = gy.shape[2], gy.shape[3]
    fp, tp = f + 2 * pad, t + 2 * pad
    dtype = np.result_type(x, gy)
    xp = np.zeros((n, c, fp + 1, tp), dtype=dtype)
    xp[:, :, pad : pad + f, pad : pad + t] = x
    gyw = np.zeros((n, o, fo, tp), dtype=dtype)
    gyw[..., :to] = gy
    xf, gf = xp.reshape(n, c, -1), gyw.reshape(n, o, -1)
    gxp = np.zeros((n, c, fp + 1, tp), dtype=x.dtype)
    gxf = gxp.reshape(n, c, -1)
    gw = np.empty(w.shape, dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            run = slice(i * tp + j, i * tp + j + fo * tp)
            gw[:, :, i, j] = np.matmul(gf, xf[:, :, run].transpose(0, 2, 1)).sum(axis=0)
            gxf[:, :, run] += np.matmul(w[:, :, i, j].T, gf)
    return gxp[:, :, pad : pad + f, pad : pad + t], gw


def _strided_conv2d_vjp(x, w, gy, stride, pad):
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    fo, to = gy.shape[2], gy.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    g = gy.reshape(n, o, fo * to)
    gxp = np.zeros((n, c, f + 2 * pad, t + 2 * pad), dtype=x.dtype)
    gw = np.empty(w.shape, dtype=np.result_type(x, gy))
    for i in range(kh):
        for j in range(kw):
            # the padded-input elements tap (i, j) meets, (..., fo, to)
            tap = (..., slice(i, i + stride * fo, stride), slice(j, j + stride * to, stride))
            xs = xp[tap].reshape(n, c, fo * to)
            gw[:, :, i, j] = np.matmul(g, xs.transpose(0, 2, 1)).sum(axis=0)
            gxp[tap] += np.matmul(w[:, :, i, j].T, g).reshape(n, c, fo, to)
    gx = gxp[:, :, pad : pad + f, pad : pad + t] if pad else gxp
    return gx, gw


def _check_depthwise_args(x, w, pad):
    _check_conv_args(x, w, 1, pad)
    if w.shape[1] != 1:
        raise ShapeError(f"depthwise kernel must be (c, 1, kh, kw), got {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but depthwise kernel has {w.shape[0]}"
        )
    kh, kw = w.shape[2], w.shape[3]
    if pad >= min(kh, kw):  # the VJP pads dL/dy by k - 1 - pad on each side
        raise ConfigError(f"depthwise pad {pad} must be below the kernel sides {kh}x{kw}")


def _planes_per_block(planes, plane_elems, dtype):
    """Whole (n, c) planes of plane_elems elements that fit DEPTHWISE_BLOCK_BYTES."""
    return max(1, min(planes, DEPTHWISE_BLOCK_BYTES // (plane_elems * dtype.itemsize)))


def depthwise_conv2d(x: np.ndarray, w: np.ndarray, pad: int = 1) -> np.ndarray:
    """Per-channel stride-1 convolution; w has shape (c, 1, kh, kw), one filter per channel."""
    # Each block of planes is copied into a zero-padded buffer with one
    # spare row and read flat: tap (i, j) is the run at i * tp + j, scaled
    # per plane and summed into rows widened to tp columns, whose first to
    # columns are the block's output.
    _check_depthwise_args(x, w, pad)
    n, c, f, t = x.shape
    kh, kw = w.shape[2:]
    fo, to = conv_out_size(f, kh, 1, pad), conv_out_size(t, kw, 1, pad)
    y = np.empty((n, c, fo, to), dtype=np.result_type(x, w))
    tp = t + 2 * pad
    xs, ys = x.reshape(n * c, f, t), y.reshape(n * c, fo, to)
    taps = np.tile(w.reshape(c, kh * kw).astype(y.dtype), (n, 1))  # per plane
    size = _planes_per_block(n * c, (f + 2 * pad + 1) * tp, y.dtype)
    xb = np.zeros((size, f + 2 * pad + 1, tp), dtype=y.dtype)
    acc = np.empty((size, fo * tp), dtype=y.dtype)
    prod = np.empty_like(acc)
    for first in range(0, n * c, size):
        block = slice(first, first + size)
        m = min(size, n * c - first)
        xb[:m, pad : pad + f, pad : pad + t] = xs[block]
        xf, a, p = xb[:m].reshape(m, -1), acc[:m], prod[:m]
        for k in range(kh * kw):
            i, j = divmod(k, kw)
            run = xf[:, i * tp + j : i * tp + j + fo * tp]
            np.multiply(run, taps[block, k : k + 1], out=p if k else a)
            if k:
                a += p
        ys[block] = a.reshape(m, fo, tp)[:, :, :to]
    return y


def depthwise_conv2d_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, pad: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dw) of depthwise_conv2d given dL/dy."""
    # Gather form over blocks of planes. Each block of gy is zero-padded by
    # (kh - 1 - pad, kw - 1 - pad), which makes its rows tg = t + kw - 1
    # wide, and read flat with one spare row; x is widened to tg columns
    # with zeros. Tap (i, j) then meets the run of padded gy at
    # (kh - 1 - i) * tg + (kw - 1 - j): scaled by w it is the tap's term of
    # dL/dx, and its dot with the widened x is the plane's dL/dw entry. The
    # taps add in the order of the scatter form (each adding gy * w at its
    # offset of a padded dL/dx), so dL/dx is bit-identical to it.
    _check_depthwise_args(x, w, pad)
    n, c, f, t = x.shape
    kh, kw = w.shape[2:]
    fo, to = gy.shape[2:]
    qh, qw = kh - 1 - pad, kw - 1 - pad
    tg = t + kw - 1
    dtype = np.result_type(x, w, gy)
    gx = np.empty(x.shape, dtype=x.dtype)
    gw = np.empty((n * c, kh * kw), dtype=np.result_type(x, gy))
    xs, gs, gxs = x.reshape(n * c, f, t), gy.reshape(n * c, fo, to), gx.reshape(n * c, f, t)
    taps = np.tile(w.reshape(c, kh * kw).astype(dtype), (n, 1))  # per plane
    size = _planes_per_block(n * c, (f + kh) * tg, dtype)
    gb = np.zeros((size, f + kh, tg), dtype=dtype)
    xb = np.zeros((size, f, tg), dtype=dtype)
    acc = np.empty((size, f * tg), dtype=dtype)
    prod = np.empty_like(acc)
    for first in range(0, n * c, size):
        block = slice(first, first + size)
        m = min(size, n * c - first)
        gb[:m, qh : qh + fo, qw : qw + to] = gs[block]
        xb[:m, :, :t] = xs[block]
        gf, xf, a, p = gb[:m].reshape(m, -1), xb[:m].reshape(m, -1), acc[:m], prod[:m]
        for k in range(kh * kw):
            i, j = divmod(k, kw)
            start = (kh - 1 - i) * tg + kw - 1 - j
            run = gf[:, start : start + f * tg]
            gw[block, k] = np.matmul(xf[:, None, :], run[:, :, None])[:, 0, 0]
            np.multiply(run, taps[block, k : k + 1], out=p if k else a)
            if k:
                a += p
        gxs[block] = a.reshape(m, f, tg)[:, :, :t]
    return gx, gw.reshape(n, c, 1, kh, kw).sum(axis=0)


def batchnorm2d(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training-mode batch norm over (batch, frequency, time) per channel.

    Returns (y, mean, var) where mean/var are the per-channel batch statistics
    actually used, so callers can capture and later replay them (pass `stats`)
    for deterministic recomputation.
    """
    _require_4d(x, "input")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    if stats is None:
        count = x.shape[0] * x.shape[2] * x.shape[3]
        if count == 1 and eps == 0.0:
            raise ConfigError("batch norm over a single element with eps=0 is degenerate")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))  # biased
    else:
        mean, var = stats
    inv = 1.0 / np.sqrt(var + eps)
    y = gamma[None, :, None, None] * (x - mean[None, :, None, None]) * inv[
        None, :, None, None
    ] + beta[None, :, None, None]
    return y, mean, var


def batchnorm2d_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    gy: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dgamma, dL/dbeta) treating mean/var as batch stats of x."""
    count = x.shape[0] * x.shape[2] * x.shape[3]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = x - mean[None, :, None, None]
    xhat *= inv[None, :, None, None]
    dgamma = np.einsum("ncft,ncft->c", gy, xhat, optimize=True)
    dbeta = gy.sum(axis=(0, 2, 3))
    # g * (gy - dbeta / count - xhat * dgamma / count), in that operation
    # order, with xhat reused as the second term's buffer
    gx = gy - dbeta[None, :, None, None] / count
    xhat *= dgamma[None, :, None, None]
    xhat /= count
    gx -= xhat
    gx *= gamma[None, :, None, None] * inv[None, :, None, None]
    return gx, dgamma, dbeta


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_vjp(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    return gy * (x > 0)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map on flat vectors: (n, d_in) @ (d_in, d_out) + (d_out,)."""
    if x.ndim != 2:
        raise ShapeError(f"linear input must be (n, d_in), got shape {x.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear expects d_in={w.shape[0]}, got {x.shape[1]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias must have shape ({w.shape[1]},), got {b.shape}")
    return x @ w + b


def linear_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return gy @ w.T, x.T @ gy, gy.sum(axis=0)


def channel_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split evenly into the first and second half of the channel axis."""
    _require_4d(x, "input")
    c = x.shape[1]
    if c % 2:
        raise ConfigError(f"channel_split requires an even channel count, got {c}")
    h = c // 2
    return np.ascontiguousarray(x[:, :h]), np.ascontiguousarray(x[:, h:])


def channel_concat(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    _require_4d(x1, "first input")
    _require_4d(x2, "second input")
    if x1.shape[0] != x2.shape[0] or x1.shape[2:] != x2.shape[2:]:
        raise ShapeError(
            f"channel_concat needs matching (n, f, t), got {x1.shape} vs {x2.shape}"
        )
    return np.concatenate([x1, x2], axis=1)


def pixel_unshuffle(x: np.ndarray, r: int) -> np.ndarray:
    """Invertible downsampling: (n, c, f, t) -> (n, r*r*c, f/r, t/r).

    Output channel c*r*r + i*r + j holds input row offset i and column
    offset j, so the map is a fixed bijection on elements.
    """
    _require_4d(x, "input")
    if r < 2 or int(r) != r:
        raise ConfigError(f"ratio must be an integer >= 2, got {r}")
    n, c, f, t = x.shape
    if f % r or t % r:
        raise ConfigError(
            f"spatial dims ({f}, {t}) must be divisible by ratio {r}"
        )
    fo, to = f // r, t // r
    y = x.reshape(n, c, fo, r, to, r)
    y = y.transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(y.reshape(n, c * r * r, fo, to))


def pixel_shuffle(y: np.ndarray, r: int) -> np.ndarray:
    """Exact inverse of pixel_unshuffle."""
    _require_4d(y, "input")
    if r < 2 or int(r) != r:
        raise ConfigError(f"ratio must be an integer >= 2, got {r}")
    n, c, fo, to = y.shape
    if c % (r * r):
        raise ConfigError(f"channel count {c} must be divisible by r^2 = {r * r}")
    ci = c // (r * r)
    x = y.reshape(n, ci, r, r, fo, to)
    x = x.transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(x.reshape(n, ci, fo * r, to * r))


def global_stat_pool(x: np.ndarray) -> np.ndarray:
    """Per (channel, frequency) mean and std over time: (n, c, f, t) -> (n, 2*c*f).

    First half of the output is the means, second half the biased standard
    deviations, both flattened row-major over (c, f).
    """
    _require_4d(x, "input")
    n, c, f, _ = x.shape
    mean = x.mean(axis=3)
    var = x.var(axis=3)  # biased
    std = np.sqrt(var + GSP_VAR_EPS)
    return np.concatenate([mean.reshape(n, c * f), std.reshape(n, c * f)], axis=1)


def global_stat_pool_vjp(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    n, c, f, t = x.shape
    gmean = gy[:, : c * f].reshape(n, c, f)
    gstd = gy[:, c * f :].reshape(n, c, f)
    mean = x.mean(axis=3)
    std = np.sqrt(x.var(axis=3) + GSP_VAR_EPS)
    gx = gmean[..., None] / t
    gx = gx + gstd[..., None] * (x - mean[..., None]) / (t * std[..., None])
    return gx
