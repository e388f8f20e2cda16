"""Dense rank-4 tensor primitives with hand-written vector-Jacobian products.

Tensors are plain numpy arrays laid out ``(batch, channel, frequency, time)``
in row-major order; the scalar width (float32 vs float64) is whatever dtype
the caller passes through. Every op is a pure function of its inputs, and
each differentiable op has a companion ``*_vjp`` that maps the output
cotangent back to input/parameter cotangents. The VJPs are checked against
central finite differences in the test suite.

A VJP with parameters (the convs, batch norm, linear) takes an accumulator
for each parameter cotangent, its ``Param.grad`` as a layer passes it: the
cotangent is added into it when given, else into zeros, and the
accumulator is returned in its place. So a zero accumulator ends with the
bits of the fresh return, and no second parameter-sized cotangent exists
beside a given one, except where a kernel's rule below names one. An
accumulator may be a view, such as a ``Param.view`` of one channel group:
it is only ever written in place.

``relu_vjp``, ``batchnorm2d_vjp`` and ``depthwise_conv2d_vjp`` preserve
shape, and each takes ``out=``: a C-contiguous array of dL/dx's shape and
dtype, which may be gy itself. dL/dx is written into it, with the bits a
fresh dL/dx would have, and it is returned in dL/dx's place, so a caller
that reads gy no more (a chain's inner layers, in layers.py) holds one
array where it held two. Each reads a slice of gy before it writes that
slice: a mask block, a channel band, or a depthwise block of whole planes.

Each op with parameters (``conv2d``, ``depthwise_conv2d``, ``batchnorm2d``,
``linear``) checks its input against them in a companion ``*_shape``, which
takes the input's shape alone and returns the output's: a layer's planned
forward calls it, so a plan refuses a shape with the op's own message.

Convolutions are cross-correlations (no kernel flip) with a square kernel
of odd side k, zero-padded by ``k // 2`` on every side, so an output side
is ``ceil(d / stride)``, computed by ``conv_out_size``. A depthwise conv
runs at stride 1 only. These are the only forms the networks build. Every
forward output and every dL/dx is a contiguous array that no larger buffer
backs, so its ``nbytes`` is the memory it holds.

There are eight conv kernel forms. Each was picked as the fastest measured
for its calls by ``python3 scripts/conv_bench.py`` (float32, one OpenBLAS
thread), which times every conv call of the benchmark nets and of
DF-RevNet89 and ResNet34 at batch 1 and 200 frames. Scratch is what a call
allocates beyond its results. A block or band holds one plane or row at
least, so a plane or row larger than its constant bounds that buffer
instead. "Other kernels" are all but the 1x1:

1. ``conv2d``, 1x1 kernel: one batched matrix product over
   ``(n, c, f*t)`` of the input ``x[:, :, ::s, ::s]``. Scratch: none at
   stride 1; above it, the strided input's copy.
2. ``conv2d_vjp``, 1x1 kernel: the same matrix products
   transposed. Scratch: an (n, c_out, c_in) per-sample dL/dw and its sum
   over the batch, which is w's size; above stride 1, the strided input's
   copy and the strided dL/dx scattered into the zeroed dL/dx.
3. ``conv2d``, other kernels at stride 1 with c_in > 1: a flat-shift tap loop over bands
   of output rows of one sample. Tap (i, j) is one GEMM on a contiguous run
   of the band's padded rows, written with ``np.matmul(..., out=)`` into
   one reused buffer and added into the band's widened output. The taps
   are read from w in place, unless a sample runs in more than one band:
   then w is copied once, transposed, as its taps are read again band by
   band. Scratch: the padded band, its widened output and the GEMM buffer,
   each at most ``FLAT_SHIFT_BYTES``, and that copy of w.
4. ``conv2d``, other kernels at stride > 1 or with c_in = 1 (the c=1 stem
   and the stride-2 dense forwards): a banded im2col over output rows of
   the whole batch. Each band's zero-padded input rows are copied, then
   every tap's strided view of them into a (n, c_in*kh*kw, rows*to) column
   buffer, and one batched GEMM writes the band straight into the output.
   Scratch: the column buffer, at most ``FLAT_SHIFT_BYTES``, and the
   band's padded input rows, about stride**2 / (kh*kw) of it.
5. ``conv2d_vjp``, other kernels at stride 1: the gather form over bands of
   dL/dx rows of one sample. The band's dL/dy rows are zero-padded and
   read flat, so tap (i, j) is one contiguous run: its GEMM with w's tap is
   the tap's dL/dx term, and its GEMM with x widened by zero columns is the
   tap's dL/dw term, added straight into the accumulator's tap. Each
   band's interior goes into the exact-size dL/dx. Scratch: four band
   buffers (padded dL/dy with its kh-row halo, widened x, widened dL/dx
   and one tap's product), each at most the larger of
   ``FLAT_SHIFT_BYTES`` and w's bytes plus the halo, and one tap's
   (c_out, c_in) dL/dw product and transposed w.
6. ``conv2d_vjp``, other kernels at stride > 1: one GEMM pair per tap.
   The tap's in-range strided slice of x is copied into a zeroed
   (n, c_in, fo, to) buffer for its dL/dw term, and its dL/dx term adds
   into that slice of the exact-size dL/dx, so neither is padded whole.
   Scratch: that buffer and one tap's (n, c_in, fo*to) dL/dx product, both
   reused, and one tap's per-sample dL/dw, whose sum adds into the
   accumulator's tap. At train-wide-q8's
   (2, 64, 80, 8) -> 128 and ResNet34's (1, 32, 80, 200) -> 64 layers the
   call peaked at 0.89 and 3.25 MB of ``tracemalloc``, against 1.37 and
   5.40 MB padding x and dL/dx whole.
7. ``depthwise_conv2d``: one column copy and one batched GEMM per block of
   whole (n*c) planes. Tap (i, j) reads each plane at one flat shift, so
   its run is one slice copy into a (m, k*k, f*t) column buffer; the
   columns where a run wraps into the next row or leaves the plane are
   zero. The per-plane taps (m, 1, k*k) times the columns write the block's
   output in place. A block is the most planes whose columns fit
   2 * ``FLAT_SHIFT_BYTES``; a plane whose columns exceed
   3 * ``FLAT_SHIFT_BYTES`` runs alone, in bands of its rows. Scratch: the
   column buffer and the per-plane taps. Interleaved with the k*k-pass tap
   loop it replaced (40 calls each), forward and VJP took 0.39 and 0.49
   ms at (4, 8, 80, 32) against 0.82 and 1.05 ms, and 1.41 and 1.87 ms at
   DF-RevNet89's (1, 24, 80, 200) against 1.58 and 2.52 ms.
8. ``depthwise_conv2d_vjp``: the gather form on the same blocks, with the
   columns built from dL/dy: the flipped per-plane taps times them write
   dL/dx in place, and they times x's planes are dL/dw, flipped. BLAS sums
   the k*k taps in its own order, so dL/dx agrees with the scatter form to
   rounding, not bit for bit; equal inputs still give equal bits, so a
   replay matches its forward. Scratch: the column buffer, the per-plane
   taps, a per-plane dL/dw and its sum over the batch, w's size. With
   ``out``, a block of whole planes writes dL/dx into it, gy itself
   included, as its columns hold its planes of gy already; banded planes
   read halo rows of their neighbours' gy, so they build a fresh dL/dx
   and copy it into ``out``.

The other ops with full-size inputs keep these scratch rules (per-channel
vectors aside):

- ``batchnorm2d``: none; y is built in its own buffer. Capturing the
  statistics adds ``x.var``'s x-sized temporary, freed before y exists.
- ``batchnorm2d_vjp``: bands of whole channels, each at most
  ``FLAT_SHIFT_BYTES`` (one channel at least): the band's xhat alone, as
  dL/dgamma is a reduction that copies neither operand. Only dL/dx is
  full size, and with ``out`` none is new.
- ``relu``: none. ``relu_vjp``: a bool mask over flat blocks of at most
  ``FLAT_SHIFT_BYTES`` elements, one byte each, and dL/dx unless ``out``
  is given.
- ``global_stat_pool_vjp``: dL/dx is built in its own buffer. Taking the
  standard deviations adds ``x.var``'s x-sized temporary, freed before
  dL/dx exists.
- ``linear_vjp``: dL/dw is added into its accumulator in bands of w's
  rows, each product at most ``FLAT_SHIFT_BYTES`` (one row at least).

numpy's ufuncs may add their own buffers, ``np.getbufsize()`` elements per
operand, whatever the size of the arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

# Keeps the std-pool gradient finite when a (channel, frequency) slice is
# constant over time.
GSP_VAR_EPS = 1e-10

# Largest buffer of the banded and blocked conv kernels (one row or plane
# at least): a stride-1 dense forward band of one sample's padded rows, an
# im2col column band (the c=1 stem and the strided forwards) and a stride-1
# dense VJP band of dL/dx rows, which may grow to w's bytes so that copying
# w's taps stays small beside the band's GEMMs. Of 64 KiB to 2 MiB, 256 KiB
# was fastest at both the toy and the registry shapes of
# scripts/conv_bench.py for the first. Timed interleaved over the same range
# (25 calls each, float32, one OpenBLAS thread, 2-vCPU x86-64), the im2col
# forward gained with larger bands only at wide strided layers, e.g. 2.30 ->
# 1.84 ms at (1, 128, 20, 50) -> 256 channels from 256 KiB to 2 MiB (the
# einsum it replaced took 3.2 ms), and was slower below 256 KiB. The VJP was
# flat from 256 KiB up and slower below it, except at DF-RevNet89's
# (1, 48, 80, 200) -> 24 layer: 13.8 ms at 128 KiB against 17.3 ms at
# 256 KiB (the unbanded form took about 20 ms). The depthwise kernels'
# column buffer, k*k copies of its planes, also takes its bound from here:
# twice this for a block of planes, three times for a plane alone
# (_depthwise_blocks). At this bound itself a block of DF-RevNet89's
# (1, 24, 80, 200) or (1, 48, 40, 100) held a band of a plane or one plane,
# and paid a block's fixed cost that much more often: their forwards took
# 3.29 and 1.18 ms against 1.35 and 0.74 ms (30 interleaved calls), with
# peaks 0.38 and 0.28 MB lower. The batch-norm VJP's channel bands (a band
# holds its channels' xhat and nothing else), relu_vjp's mask blocks and
# linear_vjp's weight-row bands share the bound, and so does
# the DF bottleneck's channel-group rule in layers.py, as the floor under the
# branch input's bytes.
FLAT_SHIFT_BYTES = 1 << 18


def _require_4d(shape: tuple, name: str) -> None:
    if len(shape) != 4:
        raise ShapeError(f"{name} must be rank-4 (n, c, f, t), got shape {shape}")


def conv_out_size(d: int, stride: int) -> int:
    """Output side of a conv over extent d: ceil(d / stride)."""
    if d < 1:
        raise ConfigError(f"spatial extent must be at least 1, got {d}")
    return (d - 1) // stride + 1


def _im2col_conv2d(x, w, y, stride: int) -> np.ndarray:
    """Write the conv of x with w into y by a banded im2col.

    Bands of output rows run over the whole batch. A band's zero-padded
    input rows are copied once, then each tap's strided view of them into a
    (n, c*kh*kw, rows*to) column buffer of at most FLAT_SHIFT_BYTES (one
    row at least), so one batched GEMM with the (c_out, c*kh*kw) kernel
    writes the band straight into y.
    """
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    fo, to = y.shape[2:]
    pad = kh // 2
    k, tp = c * kh * kw, t + 2 * pad
    rows = min(fo, max(1, FLAT_SHIFT_BYTES // (n * k * to * y.itemsize)))
    cbuf = np.empty(n * k * rows * to, dtype=y.dtype)
    xbuf = np.empty(n * c * ((rows - 1) * stride + kh) * tp, dtype=y.dtype)
    wf = w.reshape(o, k)
    for r in range(0, fo, rows):
        m = min(rows, fo - r)
        h = (m - 1) * stride + kh
        xb = xbuf[: n * c * h * tp].reshape(n, c, h, tp)
        _copy_padded_rows(xb, x, r * stride - pad, h, pad)
        cols = cbuf[: n * k * m * to].reshape(n, c, kh, kw, m, to)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xb[:, :, i : i + h - kh + 1 : stride,
                                      j : j + (to - 1) * stride + 1 : stride]
        np.matmul(wf, cols.reshape(n, k, m * to), out=y[:, :, r : r + m].reshape(n, o, m * to))
    return y


def _copy_padded_rows(buf, x, lo, count, pad):
    """Write rows lo .. lo + count - 1 of x, with pad zero columns each side, into buf.

    buf's rows are t + 2*pad wide. Rows outside x are zero, and so is row
    count of buf if it has one: the spare row that keeps a flat tap run
    inside the buffer.
    """
    f, t = x.shape[-2:]
    start = min(max(lo, 0), f)
    stop = max(min(lo + count, f), start)
    top, bottom = start - lo, stop - lo
    buf[..., :top, :] = 0
    buf[..., top:bottom, :pad] = 0
    buf[..., top:bottom, pad : pad + t] = x[..., start:stop, :]
    buf[..., top:bottom, pad + t :] = 0
    buf[..., bottom : count + 1, :] = 0


def _check_conv_args(x_shape, w, stride):
    _require_4d(x_shape, "input")
    if w.ndim != 4:
        raise ShapeError(f"kernel must be rank-4, got shape {w.shape}")
    if stride < 1 or int(stride) != stride:
        raise ConfigError(f"stride must be a positive integer, got {stride}")
    kh, kw = w.shape[2], w.shape[3]
    if kh != kw or kh % 2 == 0:
        raise ConfigError(f"kernel must be square with odd sides, got {kh}x{kw}")


def _out_shape(x_shape, w, stride) -> tuple[int, int, int, int]:
    """The conv's output shape (n, c_out, fo, to)."""
    return (x_shape[0], w.shape[0], conv_out_size(x_shape[2], stride),
            conv_out_size(x_shape[3], stride))


def _check_cotangent(x, w, gy, stride):
    expected = _out_shape(x.shape, w, stride)
    if gy.shape != expected:
        raise ShapeError(f"dL/dy has shape {gy.shape} but the forward's output has shape "
                         f"{expected}")


def _is_pointwise(w: np.ndarray) -> bool:
    return w.shape[2] == 1


def _accumulator(acc, shape, dtype, name):
    """The parameter cotangent's accumulator: ``acc``, checked, or zeros."""
    if acc is None:
        return np.zeros(shape, dtype)
    if acc.shape != tuple(shape):
        raise ShapeError(f"{name} accumulator has shape {acc.shape}, expected {tuple(shape)}")
    return acc


def _result(out, shape, dtype):
    """dL/dx's buffer: ``out``, checked, or a new array."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != tuple(shape) or out.dtype != dtype or not out.flags.c_contiguous:
        raise ShapeError(f"dL/dx buffer must be a C-contiguous {tuple(shape)} {np.dtype(dtype)} "
                         f"array, got {out.shape} {out.dtype}")
    return out


def _pointwise_conv2d_vjp(x, w, gy, stride, gw):
    n, c = x.shape[:2]
    o, fo, to = gy.shape[1:]
    xs = x[:, :, ::stride, ::stride].reshape(n, c, fo * to)
    g = gy.reshape(n, o, fo * to)
    gw[:, :, 0, 0] += np.matmul(g, xs.transpose(0, 2, 1)).sum(axis=0)
    gxs = np.matmul(w[:, :, 0, 0].T, g).reshape(n, c, fo, to)
    if stride == 1:
        return gxs, gw
    gx = np.zeros_like(x, dtype=gxs.dtype)
    gx[:, :, ::stride, ::stride] = gxs
    return gx, gw


def conv2d_shape(x_shape: tuple, w: np.ndarray, stride: int = 1) -> tuple:
    """conv2d's output shape for an input of shape ``x_shape``, checked as conv2d checks it."""
    _check_conv_args(x_shape, w, stride)
    if x_shape[1] != w.shape[1]:
        raise ShapeError(f"input has {x_shape[1]} channels but kernel expects {w.shape[1]}")
    return _out_shape(x_shape, w, stride)


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Cross-correlate x (n, c_in, f, t) with w (c_out, c_in, k, k), padded by k // 2."""
    n, _, fo, to = shape = conv2d_shape(x.shape, w, stride)
    if _is_pointwise(w):
        y = np.matmul(w[:, :, 0, 0], x[:, :, ::stride, ::stride].reshape(n, x.shape[1], fo * to))
        return y.reshape(shape)
    y = np.empty(shape, dtype=np.result_type(x, w))
    if stride == 1 and x.shape[1] > 1:
        return _flat_conv2d(x, w, y)
    return _im2col_conv2d(x, w, y, stride)


def _flat_conv2d(x, w, y):
    # Bands of output rows of one sample at a time. The band's padded input
    # rows (plus one spare) are read flat, so tap (i, j) meets the run at
    # i * tp + j and adds one GEMM into output rows widened to tp columns;
    # their first to columns are the band's output.
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    fo, to = y.shape[2:]
    pad = kh // 2
    tp = t + 2 * pad
    rows = min(fo, max(1, FLAT_SHIFT_BYTES // (max(c, o) * tp * y.itemsize) - kh))
    # a tap read in place is a strided GEMM operand, which costs a copy each
    # read: interleaved (40 calls, float32, one OpenBLAS thread) it took
    # 4.34 against 3.32 ms at (1, 256, 10, 25) -> 256, two bands a sample,
    # and 1.39 against 1.37 ms at (2, 128, 40, 4) -> 128, one band a sample;
    # so w is copied once, transposed, where a sample runs in several bands
    taps = w.transpose(2, 3, 0, 1)
    if rows < fo:
        taps = np.ascontiguousarray(taps, dtype=y.dtype)
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
                np.matmul(taps[i, j], run, out=p if k else a)
                if k:
                    a += p
            y[s, :, r : r + m] = a.reshape(o, m, tp)[:, :, :to]
    return y


def conv2d_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride: int = 1,
    gw: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dw) of conv2d given dL/dy; dL/dw is added into
    ``gw`` when given, else into zeros."""
    _check_conv_args(x.shape, w, stride)
    _check_cotangent(x, w, gy, stride)
    gw = _accumulator(gw, w.shape, np.result_type(x, gy), "dL/dw")
    if _is_pointwise(w):
        return _pointwise_conv2d_vjp(x, w, gy, stride, gw)
    if stride == 1:
        return _flat_conv2d_vjp(x, w, gy, gw)
    return _strided_conv2d_vjp(x, w, gy, stride, gw)


def _flat_conv2d_vjp(x, w, gy, gw):
    # The gather form over bands of dL/dx rows of one sample. The band's gy
    # rows are zero-padded by k // 2 on every side to
    # rows tg = t + kw - 1 wide, and read flat with one spare row; its x
    # rows are widened to tg columns with zeros. Tap (i, j) then meets the
    # run of padded gy at (kh - 1 - i) * tg + (kw - 1 - j): w[:, :, i, j].T
    # times it is the tap's dL/dx term, and it times the widened x is the
    # tap's dL/dw term. The dL/dx terms add in the scatter form's tap order, and each
    # band's first t columns go into the exact-size dL/dx. Every band copies
    # w's taps and adds into all of dL/dw once, so a band may hold as many
    # bytes as w: at 256 channels, 256 KiB bands were 25% slower than one
    # band per sample.
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    pad = kh // 2
    tg = t + kw - 1
    dtype = np.result_type(x, w, gy)
    budget = max(FLAT_SHIFT_BYTES, w.size * dtype.itemsize)
    rows = min(f, max(1, budget // (max(c, o) * tg * dtype.itemsize)))
    gx = np.empty(x.shape, dtype=x.dtype)
    gbuf = np.empty(o * (rows + kh) * tg, dtype=dtype)
    xbuf, acc, prod = (np.empty(c * rows * tg, dtype=dtype) for _ in range(3))
    for s in range(n):
        for r in range(0, f, rows):
            m = min(rows, f - r)
            gb = gbuf[: o * (m + kh) * tg].reshape(o, m + kh, tg)
            _copy_padded_rows(gb, gy[s], r - pad, m + kh - 1, pad)
            xb = xbuf[: c * m * tg].reshape(c, m, tg)
            xb[:, :, :t] = x[s, :, r : r + m]
            xb[:, :, t:] = 0
            gf, xf = gb.reshape(o, -1), xb.reshape(c, -1)
            a, p = acc[: c * m * tg].reshape(c, -1), prod[: c * m * tg].reshape(c, -1)
            for k in range(kh * kw):
                i, j = divmod(k, kw)
                start = (kh - 1 - i) * tg + kw - 1 - j
                run = gf[:, start : start + m * tg]
                gw[:, :, i, j] += run @ xf.T
                np.matmul(w[:, :, i, j].T, run, out=p if k else a)
                if k:
                    a += p
            gx[s, :, r : r + m] = a.reshape(c, m, tg)[:, :, :t]
    return gx, gw


def _tap_span(offset, stride, d, do):
    """For a tap at ``offset`` along an axis of extent d and do outputs: the
    slice of outputs a whose input offset + stride * a lies in [0, d), and
    the slice of those inputs."""
    lo = max(0, -(offset // stride))
    hi = max(lo, min(do, (d - 1 - offset) // stride + 1))
    start = offset + stride * lo
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


def _strided_conv2d_vjp(x, w, gy, stride, gw):
    # One GEMM pair per tap. The tap's in-range strided slice of x is copied
    # into a zeroed (n, c, fo, to) buffer, the padded x the tap would read,
    # for its dL/dw term; its dL/dx term adds into that slice of the
    # exact-size dL/dx. Padding positions take no term, so neither x nor
    # dL/dx is padded whole.
    n, c, f, t = x.shape
    o, _, kh, kw = w.shape
    fo, to = gy.shape[2], gy.shape[3]
    pad = kh // 2
    g = gy.reshape(n, o, fo * to)
    gx = np.zeros(x.shape, dtype=x.dtype)
    xs = np.empty((n, c, fo, to), dtype=x.dtype)
    term = np.empty((n, c, fo * to), dtype=np.result_type(w, gy))
    for i in range(kh):
        out_rows, rows = _tap_span(i - pad, stride, f, fo)
        for j in range(kw):
            out_cols, cols = _tap_span(j - pad, stride, t, to)
            xs.fill(0)
            xs[:, :, out_rows, out_cols] = x[:, :, rows, cols]
            gw[:, :, i, j] += np.matmul(g, xs.reshape(n, c, fo * to).transpose(0, 2, 1)).sum(axis=0)
            np.matmul(w[:, :, i, j].T, g, out=term)
            gx[:, :, rows, cols] += term.reshape(n, c, fo, to)[:, :, out_rows, out_cols]
    return gx, gw


def depthwise_conv2d_shape(x_shape: tuple, w: np.ndarray) -> tuple:
    """depthwise_conv2d's output shape for an input of shape ``x_shape``, checked as the
    op checks it."""
    _check_conv_args(x_shape, w, 1)
    if w.shape[1] != 1:
        raise ShapeError(f"depthwise kernel must be (c, 1, k, k), got {w.shape}")
    if x_shape[1] != w.shape[0]:
        raise ShapeError(
            f"input has {x_shape[1]} channels but depthwise kernel has {w.shape[0]}"
        )
    return _out_shape(x_shape, w, 1)


def _depthwise_blocks(planes, f, t, k2, dtype):
    """(planes, rows) of one block of the depthwise column buffer.

    A block is the most whole (n, c) planes whose columns, k2 copies of
    them, fit 2 * FLAT_SHIFT_BYTES, one plane at least. A plane whose
    columns exceed 3 * FLAT_SHIFT_BYTES runs alone, in the fewest equal
    bands of rows whose columns fit that.
    """
    row = k2 * t * dtype.itemsize  # the columns of one output row
    if f * row <= 3 * FLAT_SHIFT_BYTES:
        return max(1, min(planes, 2 * FLAT_SHIFT_BYTES // (f * row))), f
    bands = -(-f * row // (3 * FLAT_SHIFT_BYTES))
    return 1, -(-f // bands)


def _depthwise_columns(src, f, t, k, dtype):
    """Yield (planes, flat rows, columns) for each block of the depthwise kernels.

    src holds the flat (f*t) planes. A block's columns (m, k*k, h*t), for m
    planes and h output rows (_depthwise_blocks), are each tap's flat run of
    its planes in one reused buffer. Tap (i, j) reads a plane at a flat
    shift of (i - pad) * t + j - pad, so a run is one slice copy. Where the
    tap's column falls outside a row the run wraps into the next row; those
    columns are zeroed after the copies. Before a plane's first row or past
    its last a run is zero: a block of whole planes never writes there, so
    the buffer's initial zeros stay, and a band writes them each time.
    """
    size, rows = _depthwise_blocks(len(src), f, t, k * k, dtype)
    cbuf = np.zeros((size, k * k, rows * t), dtype=dtype)
    pad = k // 2
    bands = []  # (flat rows, runs); a run (tap, lo, hi, shift) copies plane entries
    # lo + shift .. hi + shift - 1 to the tap's columns lo .. hi - 1
    for r in range(0, f, rows):
        n = min(rows, f - r) * t
        runs = []
        for tap in range(k * k):
            i, j = divmod(tap, k)
            shift = (r + i - pad) * t + j - pad
            lo = min(max(-shift, 0), n)
            runs.append((tap, lo, max(min(f * t - shift, n), lo), shift))
        bands.append((slice(r * t, r * t + n), runs))
    # the wrapped columns of the taps (., j), as a slice of a row
    edges = [(j, slice(0, pad - j) if j < pad else slice(max(t + pad - j, 0), t))
             for j in range(k) if j != pad]
    for first in range(0, len(src), size):
        block = slice(first, first + size)
        planes = src[block]
        for flat, runs in bands:
            cols = cbuf[: len(planes), :, : flat.stop - flat.start]
            for tap, lo, hi, shift in runs:
                if rows < f:
                    cols[:, tap, :lo] = 0
                    cols[:, tap, hi:] = 0
                cols[:, tap, lo:hi] = planes[:, lo + shift : hi + shift]
            grid = cols.reshape(len(planes), k * k, -1, t)
            for j, edge in edges:
                grid[:, j::k, :, edge] = 0
            yield block, flat, cols


def depthwise_conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-channel stride-1 convolution; w has shape (c, 1, k, k), one filter per channel."""
    # One column copy and one batched GEMM per block: the per-plane taps
    # (m, 1, k*k) times the block's columns write its output rows in place.
    y = np.empty(depthwise_conv2d_shape(x.shape, w), dtype=np.result_type(x, w))
    n, c, f, t = x.shape
    k = w.shape[2]
    ys = y.reshape(n * c, f * t)
    taps = np.tile(w.reshape(c, 1, k * k).astype(y.dtype), (n, 1, 1))  # per plane
    for block, flat, cols in _depthwise_columns(x.reshape(n * c, f * t), f, t, k, y.dtype):
        np.matmul(taps[block], cols, out=ys[block, None, flat])
    return y


def depthwise_conv2d_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, gw: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dw) of depthwise_conv2d given dL/dy; dL/dw is
    added into ``gw`` when given, else into zeros, and dL/dx is written
    into ``out`` when given, which may be gy itself."""
    # The gather form on the forward's blocks, with the columns built from
    # dL/dy: tap (i, j) of dL/dx is w[k-1-i, k-1-j] times the run of dL/dy
    # that the forward's tap (i, j) reads of x, so the flipped taps times the
    # columns are dL/dx, and the columns times x are dL/dw, flipped. A block
    # of whole planes copies its planes of dL/dy into the columns before it
    # writes them, so out may be gy; a band of a plane reads its
    # neighbours' rows too, so banded planes build dL/dx apart and copy it.
    depthwise_conv2d_shape(x.shape, w)
    _check_cotangent(x, w, gy, 1)
    n, c, f, t = x.shape
    k = w.shape[2]
    dtype = np.result_type(x, w, gy)
    gw = _accumulator(gw, w.shape, np.result_type(x, gy), "dL/dw")
    gx = _result(out, x.shape, x.dtype)
    if out is not None and _depthwise_blocks(n * c, f, t, k * k, dtype)[1] < f:
        gx = np.empty(x.shape, dtype=x.dtype)
    xs, gxs = x.reshape(n * c, f * t), gx.reshape(n * c, f * t)
    flipped = np.tile(w.reshape(c, 1, k * k)[:, :, ::-1].astype(dtype), (n, 1, 1))  # per plane
    planes = np.zeros((n * c, k * k, 1), dtype=np.result_type(x, gy))  # dL/dw per plane
    for block, flat, cols in _depthwise_columns(gy.reshape(n * c, f * t), f, t, k, dtype):
        planes[block] += np.matmul(cols, xs[block, flat, None])
        np.matmul(flipped[block], cols, out=gxs[block, None, flat])
    gw += planes.reshape(n, c, k * k).sum(axis=0)[:, ::-1].reshape(c, 1, k, k)
    if out is not None and gx is not out:
        out[...] = gx
        gx = out
    return gx, gw


def batchnorm2d_shape(x_shape: tuple, gamma: np.ndarray, beta: np.ndarray) -> tuple:
    """batchnorm2d's output shape, ``x_shape`` itself, checked as the op checks it."""
    _require_4d(x_shape, "input")
    if gamma.shape != (x_shape[1],) or beta.shape != (x_shape[1],):
        raise ShapeError(f"input has {x_shape[1]} channels but batch norm gamma/beta have "
                         f"shapes {gamma.shape}/{beta.shape}")
    return x_shape


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
    batchnorm2d_shape(x.shape, gamma, beta)
    if stats is None:
        count = x.shape[0] * x.shape[2] * x.shape[3]
        if count == 1 and eps == 0.0:
            raise ConfigError("batch norm over a single element with eps=0 is degenerate")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))  # biased
    else:
        mean, var = stats
    inv = 1.0 / np.sqrt(var + eps)
    # gamma * (x - mean) * inv + beta, in that operation order, in y's buffer
    y = x - mean[None, :, None, None]
    y *= gamma[None, :, None, None]
    y *= inv[None, :, None, None]
    y += beta[None, :, None, None]
    return y, mean, var


def batchnorm2d_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    gy: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
    dgamma: np.ndarray | None = None,
    dbeta: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (dL/dx, dL/dgamma, dL/dbeta) treating mean/var as batch
    stats of x; dL/dgamma and dL/dbeta are added into ``dgamma`` and
    ``dbeta`` when given, else into zeros, and dL/dx is written into
    ``out`` when given, which may be gy itself."""
    # Bands of whole channels of at most FLAT_SHIFT_BYTES (one channel at
    # least) hold xhat alone, in one reused buffer: plain einsum reduces
    # dL/dgamma without copying its operands, where optimize=True copied
    # both. Each channel's results read only its own slices, so they are
    # those of one pass over the whole tensor, bit for bit, and a band
    # reads its slice of gy before it writes that slice of dL/dx.
    n, c, f, t = x.shape
    count = n * f * t
    inv = 1.0 / np.sqrt(var + eps)
    db = gy.sum(axis=(0, 2, 3))
    shift, scale = db / count, gamma * inv
    gx = _result(out, gy.shape, gy.dtype)
    dgamma = _accumulator(dgamma, (c,), np.result_type(gy, x, inv), "dL/dgamma")
    dbeta = _accumulator(dbeta, (c,), db.dtype, "dL/dbeta")
    dbeta += db
    step = max(1, FLAT_SHIFT_BYTES // (count * x.itemsize))
    band = np.empty(n * min(step, c) * f * t, dtype=np.result_type(x, mean))
    for lo in range(0, c, step):
        b = slice(lo, lo + step)
        m = min(step, c - lo)
        xhat = band[: n * m * f * t].reshape(n, m, f, t)
        np.subtract(x[:, b], mean[None, b, None, None], out=xhat)
        xhat *= inv[None, b, None, None]
        dg = np.einsum("ncft,ncft->c", gy[:, b], xhat)
        # gamma * inv * (gy - dbeta / count - xhat * dgamma / count), in that
        # operation order, with xhat reused as the second term's buffer
        g = gx[:, b]
        np.subtract(gy[:, b], shift[None, b, None, None], out=g)
        xhat *= dg[None, :, None, None]
        xhat /= count
        g -= xhat
        g *= scale[None, b, None, None]
        dgamma[b] += dg
    return gx, dgamma, dbeta


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_vjp(x: np.ndarray, gy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """dL/dx of relu given dL/dy, written into ``out`` when given, which may
    be gy itself; x may be relu's input or its output, which are positive
    at the same elements. The subgradient at exactly 0 is 0."""
    # gy * (x > 0), its bool mask taken over flat blocks of at most
    # FLAT_SHIFT_BYTES elements, each multiplied straight into dL/dx
    gx = _result(out, gy.shape, np.result_type(gy, np.bool_))
    xf, gf, gxf = x.reshape(-1), gy.reshape(-1), gx.reshape(-1)
    for lo in range(0, gxf.size, FLAT_SHIFT_BYTES):
        b = slice(lo, lo + FLAT_SHIFT_BYTES)
        np.multiply(gf[b], xf[b] > 0, out=gxf[b])
    return gx


def linear_shape(x_shape: tuple, w: np.ndarray, b: np.ndarray) -> tuple:
    """linear's output shape for an input of shape ``x_shape``, checked as the op checks it."""
    if len(x_shape) != 2:
        raise ShapeError(f"linear input must be (n, d_in), got shape {x_shape}")
    if x_shape[1] != w.shape[0]:
        raise ShapeError(f"linear expects d_in={w.shape[0]}, got {x_shape[1]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"bias must have shape ({w.shape[1]},), got {b.shape}")
    return x_shape[0], w.shape[1]


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map on flat vectors: (n, d_in) @ (d_in, d_out) + (d_out,)."""
    linear_shape(x.shape, w, b)
    return x @ w + b


def linear_vjp(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, gw: np.ndarray | None = None,
    gb: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dL/dx, dL/dw, dL/db). dL/dw and dL/db are added into ``gw`` and
    ``gb`` when given, else into zeros; dL/dw in bands of w's rows of at
    most FLAT_SHIFT_BYTES (one row at least), so no second full-size dL/dw
    exists beside it."""
    gw = _accumulator(gw, w.shape, np.result_type(x, gy), "dL/dw")
    gb = _accumulator(gb, w.shape[1:], gy.dtype, "dL/db")
    rows = max(1, FLAT_SHIFT_BYTES // (w.shape[1] * gw.itemsize))
    for lo in range(0, w.shape[0], rows):
        gw[lo:lo + rows] += x[:, lo:lo + rows].T @ gy
    gb += gy.sum(axis=0)
    return gy @ w.T, gw, gb


def channel_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split evenly into the first and second half of the channel axis.

    Both halves are copies at every batch size, so dropping one frees it: at
    n = 1 a half is contiguous already, and a view of it would pin x whole.
    """
    _require_4d(x.shape, "input")
    c = x.shape[1]
    if c % 2:
        raise ConfigError(f"channel_split requires an even channel count, got {c}")
    h = c // 2
    return x[:, :h].copy(), x[:, h:].copy()


def channel_concat(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    _require_4d(x1.shape, "first input")
    _require_4d(x2.shape, "second input")
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
    _require_4d(x.shape, "input")
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
    _require_4d(y.shape, "input")
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
    _require_4d(x.shape, "input")
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
    # gmean / t + gstd * (x - mean) / (t * std) bit for bit, built in dL/dx's
    # buffer: the product and the sum swap their operands, which is exact
    gx = x - mean[..., None]
    gx *= gstd[..., None]
    gx /= t * std[..., None]
    gx += gmean[..., None] / t
    return gx
