"""Dense rank-4 tensor primitives with hand-written vector-Jacobian products.

Tensors are plain numpy arrays laid out ``(batch, channel, frequency, time)``
in row-major order; the scalar width (float32 vs float64) is whatever dtype
the caller passes through. Every op is a pure function of its inputs, and
each differentiable op has a companion ``*_vjp`` that maps the output
cotangent back to input/parameter cotangents. The VJPs are checked against
central finite differences in the test suite.

Convolutions are cross-correlations (no kernel flip). Output spatial sizes
follow the usual floor rule ``(d + 2*pad - k)//stride + 1``, computed by
``conv_out_size``, which layer shape planning shares. Every forward
output is a contiguous array that no larger buffer backs, so its ``nbytes``
is the memory it holds. Each conv kernel's transient is a few times its
input or output at most, with the forwards' window copies capped at
``WINDOW_BYTES``. Each conv form uses the kernel that measured fastest for
it under that bound (float32, one OpenBLAS thread on a 2-vCPU x86-64 machine,
numpy 2.4; ``python3 scripts/conv_bench.py`` prints the time and peak of
every conv call at the benchmark's layer shapes):

- Unpadded 1x1 ``conv2d`` and its VJP are batched matrix products over
  ``(n, c, f*t)`` on the strided input ``x[:, :, ::s, ::s]``. Against the
  window einsum on five 1x1 layer shapes up to (4, 32, 80, 32), at strides
  1 and 2, the forward is 1.9-3.2x and the VJP 1.9-2.7x faster.
- ``depthwise_conv2d`` and the dense k>1 ``conv2d`` forward run the
  ``sliding_window_view`` einsum into a preallocated output, over bands of
  output rows whose copied kh*kw-fold windows fit in ``WINDOW_BYTES``
  (1.5 MiB). Bands are bit-identical to the whole-tensor einsum. At
  (4, 32, 80, 32) the depthwise forward's peak fell from 14.5 to 4.4 MB
  and its time from 2.6-4.0 to 2.2-3.4 ms; the dense 3x3 forward's peak at
  (4, 16, 80, 32) fell from 6.8 to 2.5 MB at 1.5-2.5 ms either way. A sum
  of shifted slices took 5.0-6.2 ms for that depthwise forward against
  3.3-3.9 ms for the einsum. Writing into the preallocated output copies
  the einsum's BLAS result once, which adds an output-sized buffer to the
  peak of layers whose whole window fits in one band (0.4 to 0.7 MB for the
  c=1 stem at (2, 1, 80, 8)).
- Dense k>1 ``conv2d_vjp`` runs one GEMM per kernel tap: ``dL/dw[:, :, i, j]``
  from ``gy`` and the tap's input, and ``dL/dx`` from ``w[:, :, i, j].T @ gy``
  added at the tap's offset. At stride 1 each padded plane is read flat, so
  a tap's input is a contiguous run of it (no copy); other strides copy the
  tap's strided slice. Against the window einsum it replaces, on the six
  stride-1 3x3 layer shapes of the benchmark nets it is 1.3-3.4x faster
  (at (4, 16, 80, 32) with 4 outputs 8.0 -> 2.4 ms, and the peak 6.8 ->
  2.4 MB), and at stride 2 on (2, 64, 80, 8) 1.2x faster (3.1 -> 2.6 ms).
  The strided-slice form also covers stride 1, but the flat form measured
  1.2-1.6x faster there on five of those six shapes (7% slower on the
  (2, 1, 80, 8) stem).
- ``depthwise_conv2d_vjp`` loops over the kh*kw taps. Each tap adds its
  shifted slice of ``gy * w`` into ``dL/dx`` and contracts the matching
  strided slice of the padded input with ``gy`` for ``dL/dw``. The window
  einsum it replaced took 14 ms with a 14.5 MB peak at (4, 32, 80, 32),
  against 7 ms and 4.2 MB.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError

# Keeps the std-pool gradient finite when a (channel, frequency) slice is
# constant over time.
GSP_VAR_EPS = 1e-10

# Largest window copy one forward conv einsum may make (10 output rows of a
# (4, 32, 80, 32) float32 depthwise input)
WINDOW_BYTES = 3 << 19


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


def _window_einsum(subscripts: str, x, w, y, stride: int, pad: int) -> np.ndarray:
    """Write einsum(subscripts, (n, c, fo, to, kh, kw) windows of x, w) into y.

    np.einsum copies the kh*kw-fold window tensor it is given, so the
    contraction runs over bands of output rows whose windows fit in
    WINDOW_BYTES (one row at least).
    """
    kh, kw = w.shape[-2:]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, fo, to = win.shape[:4]
    rows = max(1, WINDOW_BYTES // (n * c * to * kh * kw * y.itemsize))
    for r in range(0, fo, rows):
        band = slice(r, r + rows)
        np.einsum(subscripts, win[:, :, band], w, out=y[:, :, band], optimize=True)
    return y


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
    return _window_einsum("ncftij,ocij->noft", x, w, y, stride, pad)


def conv2d_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dw) of conv2d given dL/dy."""
    if _is_pointwise(w, pad):
        return _pointwise_conv2d_vjp(x, w, gy, stride)
    if stride == 1:
        return _flat_conv2d_vjp(x, w, gy, pad)
    return _strided_conv2d_vjp(x, w, gy, stride, pad)


def _tap(i: int, j: int, stride: int, fo: int, to: int) -> tuple:
    """Index of the padded-input elements kernel tap (i, j) meets, (..., fo, to)."""
    return (..., slice(i, i + stride * fo, stride), slice(j, j + stride * to, stride))


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
            tap = _tap(i, j, stride, fo, to)
            xs = xp[tap].reshape(n, c, fo * to)
            gw[:, :, i, j] = np.matmul(g, xs.transpose(0, 2, 1)).sum(axis=0)
            gxp[tap] += np.matmul(w[:, :, i, j].T, g).reshape(n, c, fo, to)
    gx = gxp[:, :, pad : pad + f, pad : pad + t] if pad else gxp
    return gx, gw


def depthwise_conv2d(
    x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 1
) -> np.ndarray:
    """Per-channel convolution; w has shape (c, 1, kh, kw), one filter per channel."""
    _check_conv_args(x, w, stride, pad)
    if w.shape[1] != 1:
        raise ShapeError(f"depthwise kernel must be (c, 1, kh, kw), got {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but depthwise kernel has {w.shape[0]}"
        )
    kh, kw = w.shape[2], w.shape[3]
    fo = conv_out_size(x.shape[2], kh, stride, pad)
    to = conv_out_size(x.shape[3], kw, stride, pad)
    y = np.empty((x.shape[0], x.shape[1], fo, to), dtype=np.result_type(x, w))
    return _window_einsum("ncftij,cij->ncft", x, w[:, 0], y, stride, pad)


def depthwise_conv2d_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int = 1, pad: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    kh, kw = w.shape[2], w.shape[3]
    n, c, f, t = x.shape
    fo, to = gy.shape[2], gy.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    gw = np.empty((c, 1, kh, kw), dtype=np.result_type(x, gy))
    gxp = np.zeros((n, c, f + 2 * pad, t + 2 * pad), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            tap = _tap(i, j, stride, fo, to)
            gw[:, 0, i, j] = np.einsum("ncft,ncft->c", xp[tap], gy)
            gxp[tap] += gy * w[:, 0, i, j][None, :, None, None]
    gx = gxp[:, :, pad : pad + f, pad : pad + t] if pad else gxp
    return gx, gw


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
