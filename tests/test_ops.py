"""Primitive op semantics and VJPs against independent oracles."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmem import ops
from revmem.errors import ConfigError, ShapeError

from conftest import central_diff_proj, conv2d_direct, gsp_two_pass, mixed_err, scaled_err


def traced_peak(fn, *args):
    """tracemalloc peak of one call, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def padded_taps(x, k, stride=1):
    """(i, j, tap view) of x zero-padded by k // 2 for every tap of a k x k conv."""
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    fo, to = (xp.shape[2] - k) // stride + 1, (xp.shape[3] - k) // stride + 1
    return [(i, j, xp[:, :, i : i + stride * (fo - 1) + 1 : stride,
                      j : j + stride * (to - 1) + 1 : stride])
            for i in range(k) for j in range(k)]


def depthwise_scratch(shape, per_plane, k=3, itemsize=4):
    """The depthwise kernels' scratch rule for a float32 x of `shape`: one
    column buffer of at most 2 * FLAT_SHIFT_BYTES, or 3 * FLAT_SHIFT_BYTES
    for a plane that runs alone, and `per_plane` arrays of k*k values a
    plane (the taps, and the VJP's dL/dw), plus numpy's ufunc buffers."""
    plane = k * k * shape[2] * shape[3] * itemsize  # one plane's columns
    columns = (3 if plane > 2 * ops.FLAT_SHIFT_BYTES else 2) * ops.FLAT_SHIFT_BYTES
    return (columns + per_plane * shape[0] * shape[1] * k * k * itemsize
            + TestScratchBounds.SLACK)


class TestConv2d:
    def test_scalar_product(self):
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        assert ops.conv2d(x, w).item() == 6.0

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        np.testing.assert_array_equal(ops.conv2d(x, w), x)

    def test_matches_direct_loop_oracle(self, rng):
        for c, k, stride in [(3, 3, 1), (3, 3, 2), (3, 1, 1), (3, 1, 2), (1, 3, 1)]:
            x = rng.normal(size=(2, c, 7, 6))
            w = rng.normal(size=(4, c, k, k))
            got = ops.conv2d(x, w, stride)
            ref = conv2d_direct(x, w, stride, k // 2)
            assert mixed_err(got, ref) <= 1e-6
            if stride == 1:
                # depthwise is the dense conv with a block-diagonal kernel
                wd = rng.normal(size=(c, 1, k, k))
                dense = np.zeros((c, c, k, k))
                dense[np.arange(c), np.arange(c)] = wd[:, 0]
                got = ops.depthwise_conv2d(x, wd)
                assert mixed_err(got, conv2d_direct(x, dense, stride, k // 2)) <= 1e-6

    @pytest.mark.parametrize("c, k, stride", [
        (1, 3, 1), (2, 1, 1), (2, 3, 2), (2, 5, 1), (2, 5, 2), (3, 1, 2), (3, 3, 1), (3, 5, 2)])
    def test_tap_gradients(self, rng, c, k, stride):
        # the VJPs of every path (pointwise, c=1 stem, flat, strided) on a
        # 7x6 input, whose odd frequency extent a stride-2 window leaves over
        x = rng.normal(size=(2, c, 7, 6))
        w = rng.normal(size=(3, c, k, k))
        r = rng.normal(size=ops.conv2d(x, w, stride).shape)
        gx, gw = ops.conv2d_vjp(x, w, r, stride)
        out = lambda: ops.conv2d(x, w, stride)
        assert gx.shape == x.shape and gw.shape == w.shape
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_vjp_peak_memory_stays_near_input_size(self, rng):
        # at stride 2 the padded input, padded dL/dx and one tap's products
        # are ~4.4x the input; the kh*kw-fold window copy was ~11x. Stride 1
        # is bounded by its bands (TestBandedDenseKernels)
        x = rng.standard_normal((4, 16, 80, 32), dtype=np.float32)
        w = rng.standard_normal((16, 16, 3, 3), dtype=np.float32)
        gy = rng.standard_normal(x.shape, dtype=np.float32)
        for stride in (1, 2):
            g = np.ascontiguousarray(gy[:, :, ::stride, ::stride])
            tracemalloc.start()
            try:
                ops.conv2d_vjp(x, w, g, stride)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * x.nbytes

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((4, 32, 80, 32), (32, 32, 3, 3)), ((1, 48, 80, 200), (24, 48, 3, 3))],
        ids=["toy", "registry"])
    def test_stride1_forward_peak_is_output_plus_bands(self, rng, x_shape, w_shape):
        # the padded band, its widened output and one tap's GEMM are each at
        # most FLAT_SHIFT_BYTES; the padded input and window copy are gone
        x = rng.standard_normal(x_shape, dtype=np.float32)
        w = rng.standard_normal(w_shape, dtype=np.float32)
        peak, y = traced_peak(ops.conv2d, x, w)
        assert peak <= y.nbytes + 4 * ops.FLAT_SHIFT_BYTES

    def test_stride1_forward_reads_the_taps_of_w_in_place(self, rng):
        # train-wide-q8's widest 3x3 forward, one band a sample: beyond y and
        # its three band buffers it holds less than w's bytes, which a
        # transposed copy of w would take
        x = rng.standard_normal((2, 128, 40, 4), dtype=np.float32)
        w = rng.standard_normal((128, 128, 3, 3), dtype=np.float32)
        peak, y = traced_peak(ops.conv2d, x, w)
        c, rows, tp = 128, 40, 6  # o = c; one band holds all 40 rows
        bands = 4 * (c * (rows + 3) * tp + 2 * c * rows * tp)
        assert peak - y.nbytes - bands < w.nbytes

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        r = rng.normal(size=(1, 3, 5, 5))
        gx, gw = ops.conv2d_vjp(x, w, r)
        out = lambda: ops.conv2d(x, w)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_strided_gradients(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        y = ops.conv2d(x, w, 2)
        r = rng.normal(size=y.shape)
        gx, gw = ops.conv2d_vjp(x, w, r, 2)
        out = lambda: ops.conv2d(x, w, 2)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    def test_pointwise_gradients(self, rng, stride):
        # 1x1 kernels take the matmul path; the odd frequency extent leaves
        # the last row out of every stride-2 window
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(4, 3, 1, 1))
        r = rng.normal(size=ops.conv2d(x, w, stride).shape)
        gx, gw = ops.conv2d_vjp(x, w, r, stride)
        out = lambda: ops.conv2d(x, w, stride)
        assert gx.shape == x.shape and gw.shape == w.shape
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError, match="channels"):
            ops.conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)))

    @pytest.mark.parametrize("c", [1, 2], ids=["im2col", "flat"])
    def test_kernel_larger_than_input_matches_direct(self, rng, c):
        # padded by k // 2, a 5x5 kernel fits a 2x2 input and keeps its size
        x = rng.normal(size=(1, c, 2, 2))
        w = rng.normal(size=(3, c, 5, 5))
        y = ops.conv2d(x, w)
        assert y.shape == (1, 3, 2, 2)
        assert mixed_err(y, conv2d_direct(x, w, pad=2)) <= 1e-6

    def test_empty_extent_rejected(self):
        with pytest.raises(ConfigError, match="at least 1"):
            ops.conv2d(np.zeros((1, 1, 4, 0)), np.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize("kh, kw", [(2, 2), (4, 4), (1, 3), (3, 1), (5, 3)])
    def test_even_or_non_square_kernel_rejected(self, kh, kw):
        x = np.zeros((1, 2, 4, 4))
        with pytest.raises(ConfigError, match="odd"):
            ops.conv2d(x, np.zeros((1, 2, kh, kw)))
        with pytest.raises(ConfigError, match="odd"):
            ops.conv2d_vjp(x, np.zeros((1, 2, kh, kw)), np.zeros((1, 1, 4, 4)))
        with pytest.raises(ConfigError, match="odd"):
            ops.depthwise_conv2d(x, np.zeros((2, 1, kh, kw)))
        with pytest.raises(ConfigError, match="odd"):
            ops.depthwise_conv2d_vjp(x, np.zeros((2, 1, kh, kw)), np.zeros(x.shape))


@pytest.mark.parametrize("vjp, w_shape, args, gy_shape, y_shape", [
    (ops.depthwise_conv2d_vjp, (2, 1, 3, 3), (), (1, 2, 4, 4), (1, 2, 6, 6)),
    (ops.conv2d_vjp, (3, 2, 3, 3), (1,), (1, 3, 4, 4), (1, 3, 6, 6)),
    (ops.conv2d_vjp, (3, 2, 1, 1), (1,), (1, 3, 4, 4), (1, 3, 6, 6)),
    (ops.conv2d_vjp, (3, 2, 3, 3), (2,), (1, 3, 6, 6), (1, 3, 3, 3)),
], ids=["depthwise", "stride1", "pointwise", "strided"])
def test_vjp_rejects_cotangent_of_another_shape(vjp, w_shape, args, gy_shape, y_shape):
    # a dL/dy that is not the forward's output must not yield full-size gradients
    x, w, gy = np.ones((1, 2, 6, 6)), np.ones(w_shape), np.ones(gy_shape)
    with pytest.raises(ShapeError, match=re.escape(f"{gy_shape}") + ".*"
                       + re.escape(f"{y_shape}")):
        vjp(x, w, gy, *args)


class TestConvDtype:
    @pytest.mark.parametrize("k, stride", [(1, 1), (1, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_float32_in_float32_out(self, rng, k, stride):
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 4, k, k)).astype(np.float32)
        wd = rng.normal(size=(4, 1, k, k)).astype(np.float32)
        y = ops.conv2d(x, w, stride)
        outs = [y, *ops.conv2d_vjp(x, w, np.ones_like(y), stride)]
        if stride == 1:  # depthwise convs run at stride 1 only
            yd = ops.depthwise_conv2d(x, wd)
            outs += [yd, *ops.depthwise_conv2d_vjp(x, wd, np.ones_like(yd))]
        assert [o.dtype for o in outs] == [np.float32] * (6 if stride == 1 else 3)

    @pytest.mark.parametrize("k, stride", [(1, 1), (1, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_forward_outputs_own_contiguous_memory(self, rng, k, stride):
        # the ledger counts nbytes, which is the memory held only when the
        # output is contiguous and no larger buffer lies behind it
        x = rng.normal(size=(2, 4, 6, 6))
        ys = [ops.conv2d(x, rng.normal(size=(3, 4, k, k)), stride)]
        if stride == 1:  # depthwise convs run at stride 1 only
            ys.append(ops.depthwise_conv2d(x, rng.normal(size=(4, 1, k, k))))
        for y in ys:
            held = y
            while held.base is not None:
                held = held.base
            assert y.flags.c_contiguous and held.nbytes == y.nbytes


class TestDepthwiseConv2d:
    def test_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 2, 3, 3))
        w = np.ones((2, 1, 3, 3))
        y = ops.depthwise_conv2d(x, w)
        assert y[0, 0, 1, 1] == 9.0
        assert y[0, 0, 0, 1] == 6.0
        assert y[0, 0, 0, 0] == 4.0

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w = np.zeros((2, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        np.testing.assert_array_equal(ops.depthwise_conv2d(x, w), x)

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        r = rng.normal(size=(1, 2, 4, 4))
        gx, gw = ops.depthwise_conv2d_vjp(x, w, r)
        out = lambda: ops.depthwise_conv2d(x, w)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_takes_no_stride(self):
        for fn in (ops.depthwise_conv2d, ops.depthwise_conv2d_vjp):
            assert "stride" not in inspect.signature(fn).parameters
        # nor does any conv op take a pad: each pads by k // 2
        for fn in (ops.conv2d, ops.conv2d_vjp, ops.depthwise_conv2d, ops.depthwise_conv2d_vjp):
            assert "pad" not in inspect.signature(fn).parameters

    @staticmethod
    def _forward_peak_and_bound(rng, shape):
        # one block's columns and the per-plane taps; the GEMM writes the
        # output in place, and no padded copy of the input exists
        x = rng.standard_normal(shape, dtype=np.float32)
        w = rng.standard_normal((shape[1], 1, 3, 3), dtype=np.float32)
        peak, y = traced_peak(ops.depthwise_conv2d, x, w)
        return peak, y.nbytes + depthwise_scratch(shape, per_plane=2)

    @staticmethod
    def _vjp_peak_and_bound(rng, shape):
        # one block's columns of dL/dy, the per-plane taps and dL/dw; dL/dx
        # is exact-size and written in place, so no view pins a larger buffer
        x = rng.standard_normal(shape, dtype=np.float32)
        w = rng.standard_normal((shape[1], 1, 3, 3), dtype=np.float32)
        gy = rng.standard_normal(shape, dtype=np.float32)
        peak, (gx, gw) = traced_peak(ops.depthwise_conv2d_vjp, x, w, gy)
        assert gx.base is None and gx.flags.c_contiguous
        return peak, gx.nbytes + gw.nbytes + depthwise_scratch(shape, per_plane=3)

    def test_forward_peak_memory_stays_near_input_size(self, rng):
        peak, bound = self._forward_peak_and_bound(rng, (4, 32, 80, 32))
        assert peak <= bound

    def test_forward_peak_memory_at_registry_shape(self, rng):
        peak, bound = self._forward_peak_and_bound(rng, (1, 96, 80, 200))
        assert peak <= bound

    def test_vjp_peak_memory_stays_near_input_size(self, rng):
        peak, bound = self._vjp_peak_and_bound(rng, (4, 32, 80, 32))
        assert peak <= bound

    def test_vjp_peak_memory_at_registry_shape(self, rng):
        peak, bound = self._vjp_peak_and_bound(rng, (1, 96, 80, 200))
        assert peak <= bound

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            ops.depthwise_conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 1, 3, 3)))


class TestBlockedStride1Kernels:
    """The blocked stride-1 kernels against plain padded references, with the
    block and band constants patched small so several run, the last partial."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_depthwise_matches_padded_reference(self, rng, monkeypatch, dtype, tol, k):
        n, c, f, t = 3, 5, 9, 7  # 15 planes: blocks of 4, 4, 4 and 3
        pad = k // 2
        x = rng.normal(size=(n, c, f, t)).astype(dtype)
        w = rng.normal(size=(c, 1, k, k)).astype(dtype)
        plane = k * k * f * t  # one plane's columns
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 2 * plane * x.itemsize)
        taps = padded_taps(x, k)
        y_ref = sum(xs * w[:, 0, i, j][None, :, None, None] for i, j, xs in taps)
        y = ops.depthwise_conv2d(x, w)
        assert y.dtype == dtype and scaled_err(y, y_ref) <= tol

        gy = rng.normal(size=y.shape).astype(dtype)
        gx, gw = ops.depthwise_conv2d_vjp(x, w, gy)  # the same blocks, columns of dL/dy
        # the scatter form: each tap adds gy * w at its offset; BLAS sums the
        # gather form's taps in its own order, so dL/dx agrees to rounding
        gxp = np.zeros((n, c, f + 2 * pad, t + 2 * pad), dtype=dtype)
        gw_ref = np.empty_like(w)
        for i, j, xs in taps:
            gxp[:, :, i : i + y.shape[2], j : j + y.shape[3]] += gy * w[:, 0, i, j][
                None, :, None, None]
            gw_ref[:, 0, i, j] = (xs * gy).sum(axis=(0, 2, 3))
        assert gx.dtype == dtype and scaled_err(gx, gxp[:, :, pad : pad + f, pad : pad + t]) <= tol
        assert gw.dtype == dtype and scaled_err(gw, gw_ref) <= tol

    @pytest.mark.parametrize("k, shape, budget, blocks", [
        (3, (3, 1, 5, 4), 5.0, (2, 5)), (5, (1, 2, 7, 3), 2.0, (1, 4)),
        (3, (2, 1, 7, 2), 0.7, (1, 2))],
        ids=["planes", "bands", "short-bands"])
    def test_depthwise_gradients_over_blocks_and_bands(self, rng, monkeypatch, k, shape,
                                                       budget, blocks):
        # FLAT_SHIFT_BYTES of `budget` rows' columns gives blocks of two
        # whole planes, the last one partial, or bands of four (two) rows of
        # one plane, the last band partial
        n, c, f, t = shape
        x = rng.normal(size=shape)
        w = rng.normal(size=(c, 1, k, k))
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", int(budget * k * k * t * x.itemsize))
        assert ops._depthwise_blocks(n * c, f, t, k * k, x.dtype) == blocks
        r = rng.normal(size=shape)
        gx, gw = ops.depthwise_conv2d_vjp(x, w, r)
        out = lambda: ops.depthwise_conv2d(x, w)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_dense_forward_matches_padded_reference(self, rng, monkeypatch, dtype, tol, k):
        n, c, o, f, t = 3, 5, 4, 9, 7
        x = rng.normal(size=(n, c, f, t)).astype(dtype)
        w = rng.normal(size=(o, c, k, k)).astype(dtype)
        # bands of two output rows per sample, the last one partial or single
        band = (2 + k) * c * (t + 2 * (k // 2)) * x.itemsize
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", band)
        y_ref = sum(np.einsum("ncft,oc->noft", xs, w[:, :, i, j])
                    for i, j, xs in padded_taps(x, k))
        y = ops.conv2d(x, w)
        assert y.dtype == dtype and y.flags.c_contiguous and y.base is None
        assert scaled_err(y, y_ref) <= tol


class TestBandedDenseKernels:
    """The stride-1 dense VJP and the im2col forward (the c=1 stem and the
    strided forwards) against plain padded and scatter references, with
    FLAT_SHIFT_BYTES patched small so several bands run, the last partial,
    and their peaks at the benchmark's and DF-RevNet89's shapes."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_vjp_matches_scatter_reference(self, rng, monkeypatch, dtype, tol, k):
        n, c, o, f, t = 3, 5, 4, 17, 7
        pad = k // 2
        x = rng.normal(size=(n, c, f, t)).astype(dtype)
        w = rng.normal(size=(o, c, k, k)).astype(dtype)
        gy = rng.normal(size=ops.conv2d(x, w).shape).astype(dtype)
        # bands of two dL/dx rows, or as many as one w's bytes hold (4, 9
        # and 15 rows here); 17 rows is prime, so the last band is partial
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 2 * c * (t + k - 1) * x.itemsize)
        bands = []
        copy = ops._copy_padded_rows
        monkeypatch.setattr(ops, "_copy_padded_rows", lambda *a: bands.append(a) or copy(*a))
        gx, gw = ops.conv2d_vjp(x, w, gy)
        assert len(bands) > n
        # the scatter form: each tap adds w.T gy at its offset of a padded dL/dx
        gxp = np.zeros((n, c, f + 2 * pad, t + 2 * pad), dtype=dtype)
        gw_ref = np.empty_like(w)
        for i, j, xs in padded_taps(x, k):
            gxp[:, :, i : i + gy.shape[2], j : j + gy.shape[3]] += np.einsum(
                "noft,oc->ncft", gy, w[:, :, i, j])
            gw_ref[:, :, i, j] = np.einsum("ncft,noft->oc", xs, gy)
        assert gx.dtype == dtype and gx.flags.c_contiguous and gx.base is None
        assert scaled_err(gx, gxp[:, :, pad : pad + f, pad : pad + t]) <= tol
        assert gw.dtype == dtype and scaled_err(gw, gw_ref) <= tol

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("c, stride", [(1, 1), (5, 2)], ids=["stem", "strided"])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_im2col_forward_matches_padded_reference(self, rng, monkeypatch, dtype, tol,
                                                     c, stride, k):
        n, o, f, t = 3, 4, 11, 7
        x = rng.normal(size=(n, c, f, t)).astype(dtype)
        w = rng.normal(size=(o, c, k, k)).astype(dtype)
        # column bands of four output rows; no output here has a multiple of
        # four rows, so the last band is partial
        to = ops.conv_out_size(t, stride)
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 4 * n * c * k * k * to * x.itemsize)
        y_ref = sum(np.einsum("ncft,oc->noft", xs, w[:, :, i, j])
                    for i, j, xs in padded_taps(x, k, stride))
        y = ops.conv2d(x, w, stride)
        assert y.shape[2] > 4 and y.shape[2] % 4
        assert y.dtype == dtype and y.flags.c_contiguous and y.base is None
        assert scaled_err(y, y_ref) <= tol

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((4, 32, 80, 32), (32, 32, 3, 3)), ((1, 48, 80, 200), (24, 48, 3, 3))],
        ids=["toy", "registry"])
    def test_vjp_peak_is_results_plus_bands(self, rng, x_shape, w_shape):
        # one band's padded dL/dy (with its kh-row halo), widened x, widened
        # dL/dx and tap product, each about FLAT_SHIFT_BYTES (these w are
        # smaller); no padded copy of x, and dL/dx pins no padded buffer
        x = rng.standard_normal(x_shape, dtype=np.float32)
        w = rng.standard_normal(w_shape, dtype=np.float32)
        gy = rng.standard_normal(ops.conv2d(x, w).shape, dtype=np.float32)
        peak, (gx, gw) = traced_peak(ops.conv2d_vjp, x, w, gy)
        assert gx.base is None and gx.flags.c_contiguous
        assert peak <= gx.nbytes + gw.nbytes + 5 * ops.FLAT_SHIFT_BYTES

    @pytest.mark.parametrize("x_shape, w_shape, stride", [
        ((4, 1, 80, 32), (16, 1, 3, 3), 1), ((1, 1, 80, 200), (48, 1, 3, 3), 1),
        ((2, 64, 80, 8), (128, 64, 3, 3), 2), ((1, 32, 80, 200), (64, 32, 3, 3), 2)],
        ids=["toy-stem", "registry-stem", "toy-strided", "registry-strided"])
    def test_im2col_forward_peak_is_output_plus_columns(self, rng, x_shape, w_shape, stride):
        # one band's column buffer (at most FLAT_SHIFT_BYTES) and its padded
        # input rows; the GEMM writes into the output, so no copy of it
        x = rng.standard_normal(x_shape, dtype=np.float32)
        w = rng.standard_normal(w_shape, dtype=np.float32)
        peak, y = traced_peak(ops.conv2d, x, w, stride)
        assert peak <= y.nbytes + 2 * ops.FLAT_SHIFT_BYTES


class TestBatchNorm2d:
    def test_constant_input_normalizes_to_zero(self):
        x = np.full((2, 3, 4, 4), 5.0)
        y, _, _ = ops.batchnorm2d(x, np.ones(3), np.zeros(3), 1e-5)
        np.testing.assert_allclose(y, 0.0)

    def test_normalization_identity(self, rng):
        x = rng.normal(2.0, 3.0, size=(4, 3, 5, 6))
        y, _, _ = ops.batchnorm2d(x, np.ones(3), np.zeros(3), 1e-8)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() <= 1e-6
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() <= 1e-4

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(2, 3, 3, 4))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.normal(size=3)
        r = rng.normal(size=x.shape)

        out = lambda: ops.batchnorm2d(x, gamma, beta, 1e-5)[0]
        _, mean, var = ops.batchnorm2d(x, gamma, beta, 1e-5)
        gx, dgamma, dbeta = ops.batchnorm2d_vjp(x, gamma, r, mean, var, 1e-5)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(dgamma, central_diff_proj(out, r, gamma)) <= 1e-6
        assert mixed_err(dbeta, central_diff_proj(out, r, beta)) <= 1e-6

    def test_degenerate_single_element(self):
        with pytest.raises(ConfigError, match="degenerate"):
            ops.batchnorm2d(np.ones((1, 2, 1, 1)), np.ones(2), np.zeros(2), eps=0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vjp_matches_out_of_place_formula_exactly(self, rng, dtype):
        # the VJP reuses buffers in place; the operations and their order are
        # those of this expression, so the results are bit-identical
        x = rng.normal(size=(2, 3, 5, 4)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 3).astype(dtype)
        gy = rng.normal(size=x.shape).astype(dtype)
        _, mean, var = ops.batchnorm2d(x, gamma, np.zeros(3, dtype))
        count = x.size // 3
        inv = (1.0 / np.sqrt(var + 1e-5))[None, :, None, None]
        xhat = (x - mean[None, :, None, None]) * inv
        dgamma = np.einsum("ncft,ncft->c", gy, xhat)[None, :, None, None]
        dbeta = gy.sum(axis=(0, 2, 3))[None, :, None, None]
        ref = gamma[None, :, None, None] * inv * (gy - dbeta / count - xhat * dgamma / count)
        gx, _, _ = ops.batchnorm2d_vjp(x, gamma, gy, mean, var, 1e-5)
        assert gx.dtype == dtype
        np.testing.assert_array_equal(gx, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vjp_channel_bands_match_one_band(self, rng, monkeypatch, dtype):
        # 7 channels in bands of 2, 2, 2 and 1 give the bits of one band
        x = rng.normal(size=(3, 7, 5, 4)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 7).astype(dtype)
        gy = rng.normal(size=x.shape).astype(dtype)
        _, mean, var = ops.batchnorm2d(x, gamma, np.zeros(7, dtype))
        one_band = ops.batchnorm2d_vjp(x, gamma, gy, mean, var)
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 2 * 3 * 5 * 4 * x.itemsize)
        for got, ref in zip(ops.batchnorm2d_vjp(x, gamma, gy, mean, var), one_band):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, ref)

    def test_replayed_stats_reproduce_output(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        gamma, beta = np.ones(3), np.zeros(3)
        y, mean, var = ops.batchnorm2d(x, gamma, beta, 1e-5)
        y2, _, _ = ops.batchnorm2d(x, gamma, beta, 1e-5, stats=(mean, var))
        np.testing.assert_array_equal(y, y2)


class TestReLU:
    def test_basic(self):
        np.testing.assert_array_equal(
            ops.relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=32))
    def test_idempotent(self, vals):
        x = np.array(vals)
        np.testing.assert_array_equal(ops.relu(ops.relu(x)), ops.relu(x))

    def test_gradient_mask_and_zero_subgradient(self):
        g = ops.relu_vjp(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(g, np.array([0.0, 1.0]))
        assert ops.relu_vjp(np.array([0.0]), np.array([1.0]))[0] == 0.0

    @given(st.lists(st.floats(width=32), min_size=1, max_size=32),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_vjp_of_output_equals_vjp_of_input(self, vals, dtype, seed):
        # the ReLU layer tapes y = relu(x) and hands it to relu_vjp in x's place
        x = np.array(vals).astype(dtype)
        gy = np.random.default_rng(seed).normal(size=x.shape).astype(dtype)
        np.testing.assert_array_equal(ops.relu_vjp(ops.relu(x), gy), ops.relu_vjp(x, gy))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vjp_mask_blocks_match_one_pass(self, rng, monkeypatch, dtype):
        # 1,155 elements in blocks of 100: twelve blocks, the last one ragged
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 100)
        x = rng.standard_normal((3, 5, 7, 11)).astype(dtype)
        x[0, 0, 0, :3] = 0.0
        gy = rng.standard_normal(x.shape).astype(dtype)
        got = ops.relu_vjp(x, gy)
        assert got.dtype == gy.dtype
        np.testing.assert_array_equal(got, gy * (x > 0))


class TestScratchBounds:
    """tracemalloc peaks of the BN, BN-VJP, depthwise-VJP and ReLU-VJP kernels
    at the benchmark's (4, 32, 80, 32) float32 shape, above their results.

    Each bound is its kernel's scratch rule in the module docstring, plus
    numpy's ufunc buffers (getbufsize() elements per operand, three
    operands at most), so a full-size temporary fails it.
    """

    SHAPE = (4, 32, 80, 32)
    SLACK = 3 * np.getbufsize() * 4

    @pytest.fixture
    def arrays(self, rng):
        x = rng.standard_normal(self.SHAPE, dtype=np.float32)
        gy = rng.standard_normal(self.SHAPE, dtype=np.float32)
        gamma = rng.uniform(0.5, 1.5, self.SHAPE[1]).astype(np.float32)
        return x, gy, gamma, np.zeros_like(gamma)

    @pytest.mark.parametrize("replay", [False, True], ids=["capture", "replay"])
    def test_batchnorm_holds_only_y(self, arrays, replay):
        x, _, gamma, beta = arrays
        stats = ops.batchnorm2d(x, gamma, beta)[1:] if replay else None
        peak, (y, _, _) = traced_peak(ops.batchnorm2d, x, gamma, beta, 1e-5, stats)
        assert peak <= y.nbytes + self.SLACK

    def test_batchnorm_vjp_holds_gx_and_three_bands(self, arrays):
        x, gy, gamma, beta = arrays
        _, mean, var = ops.batchnorm2d(x, gamma, beta)
        peak, (gx, _, _) = traced_peak(ops.batchnorm2d_vjp, x, gamma, gy, mean, var)
        assert peak <= gx.nbytes + 3 * ops.FLAT_SHIFT_BYTES + self.SLACK

    def test_depthwise_vjp_holds_gx_and_its_columns(self, arrays):
        # a block of whole planes: columns of at most 2 * FLAT_SHIFT_BYTES
        x, gy, _, _ = arrays
        n, c = self.SHAPE[:2]
        w = np.random.default_rng(0).standard_normal((c, 1, 3, 3), dtype=np.float32)
        peak, (gx, gw) = traced_peak(ops.depthwise_conv2d_vjp, x, w, gy)
        per_plane = 3 * n * c * 9 * 4  # the taps and the per-plane dL/dw and its sum
        assert peak <= gx.nbytes + gw.nbytes + 2 * ops.FLAT_SHIFT_BYTES + per_plane + self.SLACK

    def test_relu_vjp_holds_its_result_and_a_mask(self, arrays, monkeypatch):
        # the bool mask is taken in blocks of at most FLAT_SHIFT_BYTES
        # elements; at a quarter of the default, a whole mask (one byte per
        # element, 327,680 here) exceeds the bound by more than the slack
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", ops.FLAT_SHIFT_BYTES // 4)
        x, gy, _, _ = arrays
        peak, gx = traced_peak(ops.relu_vjp, ops.relu(x), gy)
        assert peak <= gx.nbytes + min(x.size, ops.FLAT_SHIFT_BYTES) + self.SLACK


def vjp_call(rng, name, x_shape, w_shape, stride=None):
    """Random float32 positional arguments of one VJP call with parameters,
    as a layer passes them before its accumulators, and the accumulators'
    shapes in the order of the VJP's parameter cotangents."""
    x = rng.standard_normal(x_shape, dtype=np.float32)
    if name == "batchnorm2d_vjp":
        gamma = rng.uniform(0.5, 1.5, w_shape).astype(np.float32)
        _, mean, var = ops.batchnorm2d(x, gamma, np.zeros_like(gamma))
        gy = rng.standard_normal(x_shape, dtype=np.float32)
        return (x, gamma, gy, mean, var, 1e-5), [w_shape, w_shape]
    w = rng.standard_normal(w_shape, dtype=np.float32)
    if name == "linear_vjp":
        gy = rng.standard_normal((x_shape[0], w_shape[1]), dtype=np.float32)
        return (x, w, gy), [w_shape, w_shape[1:]]
    if name == "depthwise_conv2d_vjp":
        return (x, w, rng.standard_normal(x_shape, dtype=np.float32)), [w_shape]
    gy = rng.standard_normal(ops.conv2d(x, w, stride).shape, dtype=np.float32)
    return (x, w, gy, stride), [w_shape]


class TestAccumulators:
    """Every VJP with parameters adds their cotangents into the accumulators
    it is given, in every kernel form, with and without bands."""

    FORMS = {
        "conv_1x1": ("conv2d_vjp", (2, 3, 6, 5), (4, 3, 1, 1), 1),
        "conv_1x1_strided": ("conv2d_vjp", (2, 3, 6, 5), (4, 3, 1, 1), 2),
        "conv_3x3_flat": ("conv2d_vjp", (2, 3, 6, 5), (4, 3, 3, 3), 1),
        "conv_3x3_strided": ("conv2d_vjp", (2, 3, 6, 5), (4, 3, 3, 3), 2),
        "depthwise": ("depthwise_conv2d_vjp", (2, 3, 6, 5), (3, 1, 3, 3)),
        "batchnorm": ("batchnorm2d_vjp", (2, 3, 6, 5), (3,)),
        "linear": ("linear_vjp", (3, 7), (7, 5)),
    }

    @pytest.fixture(params=[False, True], ids=["whole", "banded"])
    def banded(self, request, monkeypatch):
        # one row, channel or plane a band: every band adds into the
        # accumulator on its own
        if request.param:
            monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 4)
        return request.param

    @pytest.mark.parametrize("form", FORMS)
    def test_zero_accumulator_gives_the_fresh_bits(self, rng, banded, form):
        name, *shapes = self.FORMS[form]
        args, acc_shapes = vjp_call(rng, name, *shapes)
        fresh = getattr(ops, name)(*args)
        accs = [np.zeros(s, np.float32) for s in acc_shapes]
        out = getattr(ops, name)(*args, *accs)
        assert out[0].tobytes() == fresh[0].tobytes()
        for got, acc, ref in zip(out[1:], accs, fresh[1:]):
            assert got is acc
            assert acc.dtype == ref.dtype and acc.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("form", FORMS)
    def test_accumulator_ends_as_prior_plus_fresh(self, rng, banded, form):
        name, *shapes = self.FORMS[form]
        args, acc_shapes = vjp_call(rng, name, *shapes)
        fresh = getattr(ops, name)(*args)
        priors = [rng.standard_normal(s, dtype=np.float32) for s in acc_shapes]
        accs = [p.copy() for p in priors]
        out = getattr(ops, name)(*args, *accs)
        np.testing.assert_array_equal(out[0], fresh[0])
        for acc, prior, ref in zip(accs, priors, fresh[1:]):
            np.testing.assert_allclose(acc, prior + ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("form", FORMS)
    def test_accumulator_shape_is_checked(self, rng, form):
        name, *shapes = self.FORMS[form]
        args, acc_shapes = vjp_call(rng, name, *shapes)
        accs = [np.zeros(s, np.float32) for s in acc_shapes]
        accs[-1] = np.zeros(accs[-1].size + 1, np.float32)
        with pytest.raises(ShapeError, match="accumulator"):
            getattr(ops, name)(*args, *accs)

    def test_dense_vjp_allocates_no_weight_sized_gradient(self, rng):
        # train-wide-q8's widest 3x3 VJP, one band per sample: beyond dL/dx
        # and the four band buffers it holds one tap's products, far below
        # w's bytes, which a fresh dL/dw would take
        x_shape, w_shape = (2, 128, 40, 4), (128, 128, 3, 3)
        args, _ = vjp_call(rng, "conv2d_vjp", x_shape, w_shape, 1)
        acc = np.zeros(w_shape, np.float32)
        peak, (gx, gw) = traced_peak(ops.conv2d_vjp, *args, acc)
        assert gw is acc
        o, c, kh, kw = w_shape
        tg = x_shape[3] + kw - 1
        budget = max(ops.FLAT_SHIFT_BYTES, acc.nbytes)
        rows = min(x_shape[2], budget // (max(c, o) * tg * 4))
        bands = 4 * (o * (rows + kh) * tg + 3 * c * rows * tg)
        assert peak - gx.nbytes - bands < acc.nbytes

    def test_batchnorm_vjp_allocates_dx_and_one_band(self, rng):
        # train-wide-q8's widest BN: dL/dx, one reused band of xhat, and
        # numpy's ufunc buffers; no copy of a band's operands
        shape = (2, 64, 80, 8)
        args, acc_shapes = vjp_call(rng, "batchnorm2d_vjp", shape, (64,))
        accs = [np.zeros(s, np.float32) for s in acc_shapes]
        peak, (gx, _, _) = traced_peak(ops.batchnorm2d_vjp, *args, *accs)
        channel = 4 * shape[0] * shape[2] * shape[3]
        band = channel * (ops.FLAT_SHIFT_BYTES // channel)
        assert peak <= gx.nbytes + band + 2 * np.getbufsize() * 4


class TestOutBuffer:
    """relu_vjp, batchnorm2d_vjp and depthwise_conv2d_vjp write dL/dx into the
    ``out`` they are given, gy itself included, with a fresh dL/dx's bits:
    with FLAT_SHIFT_BYTES patched so that one pass runs, so that several
    mask blocks, channel bands or blocks of whole depthwise planes run, and
    so that the depthwise planes run in bands of their rows."""

    SHAPE = (3, 5, 9, 7)  # 15 planes of 9 rows

    @pytest.fixture(params=["one", "blocks", "bands"])
    def layout(self, request, monkeypatch):
        row = 9 * 7 * 4  # one float32 row's columns
        budget = {"one": 1 << 20, "blocks": 18 * row, "bands": 2 * row}[request.param]
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", budget)
        return request.param

    def call(self, rng, name, dtype):
        """(op, arguments before gy, gy, arguments after it) of one call."""
        x = rng.standard_normal(self.SHAPE).astype(dtype)
        gy = rng.standard_normal(self.SHAPE).astype(dtype)
        if name == "relu_vjp":
            return ops.relu_vjp, (ops.relu(x),), gy, ()
        if name == "depthwise_conv2d_vjp":
            w = rng.standard_normal((5, 1, 3, 3)).astype(dtype)
            return ops.depthwise_conv2d_vjp, (x, w), gy, ()
        gamma = rng.uniform(0.5, 1.5, 5).astype(dtype)
        _, mean, var = ops.batchnorm2d(x, gamma, np.zeros_like(gamma))
        return ops.batchnorm2d_vjp, (x, gamma), gy, (mean, var)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["relu_vjp", "batchnorm2d_vjp", "depthwise_conv2d_vjp"])
    @pytest.mark.parametrize("into", ["gy", "other"])
    def test_out_gives_the_fresh_bits(self, rng, layout, dtype, name, into):
        op, head, gy, tail = self.call(rng, name, dtype)
        if name == "depthwise_conv2d_vjp":
            planes, rows = ops._depthwise_blocks(15, 9, 7, 9, np.dtype(dtype))
            assert {"one": planes == 15, "blocks": 1 < planes < 15 and rows == 9,
                    "bands": rows < 9}[layout]
        fresh = op(*head, gy, *tail)
        given = gy.copy()
        out = gy if into == "gy" else np.empty_like(gy)
        got = op(*head, gy, *tail, out=out)
        got_x, ref_x = (got, fresh) if name == "relu_vjp" else (got[0], fresh[0])
        assert got_x is out
        assert got_x.dtype == ref_x.dtype and got_x.tobytes() == ref_x.tobytes()
        for a, b in zip(got[1:] if name != "relu_vjp" else (), fresh[1:]):
            assert a.tobytes() == b.tobytes()
        if into == "other":
            assert gy.tobytes() == given.tobytes()

    @pytest.mark.parametrize("name", ["relu_vjp", "batchnorm2d_vjp", "depthwise_conv2d_vjp"])
    def test_out_is_checked(self, rng, name):
        op, head, gy, tail = self.call(rng, name, np.float64)
        bad = {"shape": np.empty(self.SHAPE[:-1] + (8,)),
               "dtype": np.empty(self.SHAPE, np.float32),
               "layout": np.empty(self.SHAPE[::-1]).T}
        for out in bad.values():
            with pytest.raises(ShapeError, match="dL/dx buffer"):
                op(*head, gy, *tail, out=out)


class TestLinear:
    def test_identity(self):
        y = ops.linear(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, np.array([[1.0, 2.0]]))

    def test_affine(self):
        y = ops.linear(np.array([[1.0, 1.0]]), np.array([[2.0], [3.0]]), np.array([1.0]))
        assert y.item() == 6.0

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        r = rng.normal(size=(3, 5))
        gx, gw, gb = ops.linear_vjp(x, w, r)
        out = lambda: ops.linear(x, w, b)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6
        assert mixed_err(gb, central_diff_proj(out, r, b)) <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))

    @pytest.mark.parametrize("shape", [(1, 7680, 256), (64, 7680, 256), (2, 10240, 32),
                                       (3, 5, 7)])
    def test_weight_gradient_adds_in_bands(self, rng, shape):
        # dL/dw adds into the given buffer one band of rows at a time, bit
        # for bit what adding the whole product does
        n, d_in, d_out = shape
        x = rng.normal(size=(n, d_in)).astype(np.float32)
        w = rng.normal(size=(d_in, d_out)).astype(np.float32)
        gy = rng.normal(size=(n, d_out)).astype(np.float32)
        acc = rng.normal(size=w.shape).astype(np.float32)
        expected = acc + x.T @ gy
        gx, gw, gb = ops.linear_vjp(x, w, gy, acc)
        assert gw is acc and np.array_equal(acc, expected)
        assert np.array_equal(gx, gy @ w.T) and np.array_equal(gb, gy.sum(axis=0))
        assert np.array_equal(ops.linear_vjp(x, w, gy)[1], x.T @ gy)

    def test_weight_gradient_holds_no_second_copy(self, rng):
        x = rng.normal(size=(2, 7680)).astype(np.float32)
        w = rng.normal(size=(7680, 256)).astype(np.float32)
        gy = rng.normal(size=(2, 256)).astype(np.float32)
        acc = np.zeros_like(w)
        tracemalloc.start()
        try:
            ops.linear_vjp(x, w, gy, acc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ops.FLAT_SHIFT_BYTES < w.nbytes


class TestChannelSplitConcat:
    def test_split_values(self):
        x = np.arange(4.0).reshape(1, 4, 1, 1)
        x1, x2 = ops.channel_split(x)
        np.testing.assert_array_equal(x1.ravel(), [0.0, 1.0])
        np.testing.assert_array_equal(x2.ravel(), [2.0, 3.0])

    def test_concat_basic(self):
        a = np.full((1, 1, 1, 1), 1.0)
        b = np.full((1, 1, 1, 1), 2.0)
        np.testing.assert_array_equal(ops.channel_concat(a, b).ravel(), [1.0, 2.0])

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_split_concat_roundtrip_bit_exact(self, n, h, f, t):
        x = np.random.default_rng(n * 100 + h).normal(size=(n, 2 * h, f, t))
        x1, x2 = ops.channel_split(x)
        np.testing.assert_array_equal(ops.channel_concat(x1, x2), x)

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            ops.channel_split(np.zeros((1, 3, 2, 2)))

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.channel_concat(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestPixelShuffles:
    def test_shape_rule(self):
        x = np.zeros((1, 48, 80, 200))
        assert ops.pixel_unshuffle(x, 2).shape == (1, 192, 40, 100)

    def test_fixed_ordering(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # (1, 1, 2, 2)
        y = ops.pixel_unshuffle(x, 2)
        assert y.shape == (1, 4, 1, 1)
        np.testing.assert_array_equal(y.ravel(), [1.0, 2.0, 3.0, 4.0])

    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_exact(self, n, c, fb, tb):
        x = np.random.default_rng(c * 7 + fb).normal(size=(n, c, 2 * fb, 2 * tb))
        np.testing.assert_array_equal(ops.pixel_shuffle(ops.pixel_unshuffle(x, 2), 2), x)

    def test_inverse_direction_roundtrip(self, rng):
        y = rng.normal(size=(1, 8, 3, 5))
        np.testing.assert_array_equal(ops.pixel_unshuffle(ops.pixel_shuffle(y, 2), 2), y)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            ops.pixel_unshuffle(np.zeros((1, 1, 3, 4)), 2)
        with pytest.raises(ConfigError):
            ops.pixel_shuffle(np.zeros((1, 3, 2, 2)), 2)


class TestGlobalStatPool:
    def test_constant_input(self):
        x = np.full((2, 3, 4, 5), 7.0)
        y = ops.global_stat_pool(x)
        np.testing.assert_allclose(y[:, :12], 7.0)
        np.testing.assert_allclose(y[:, 12:], 0.0, atol=1e-4)

    def test_output_width_matches_head(self):
        x = np.zeros((1, 300, 10, 4))
        assert ops.global_stat_pool(x).shape == (1, 6000)

    def test_matches_two_pass_oracle(self, rng):
        x = rng.normal(size=(2, 3, 4, 6))
        assert mixed_err(ops.global_stat_pool(x), gsp_two_pass(x)) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 6), (1, 16, 10, 4), (4, 8, 20, 32)])
    def test_gradient_equals_the_closed_form(self, rng, shape, dtype):
        # built in one buffer, bit for bit the expression it stands for
        n, c, f, t = shape
        x = rng.normal(size=shape).astype(dtype)
        gy = rng.normal(size=(n, 2 * c * f)).astype(dtype)
        gmean, gstd = gy[:, : c * f].reshape(n, c, f), gy[:, c * f:].reshape(n, c, f)
        mean = x.mean(axis=3)
        std = np.sqrt(x.var(axis=3) + ops.GSP_VAR_EPS)
        expected = (gmean[..., None] / t
                    + gstd[..., None] * (x - mean[..., None]) / (t * std[..., None]))
        assert np.array_equal(ops.global_stat_pool_vjp(x, gy), expected)

    def test_gradient_vs_finite_differences(self, rng):
        x = rng.normal(size=(2, 3, 4, 6))
        r = rng.normal(size=(2, 24))
        gx = ops.global_stat_pool_vjp(x, r)
        assert mixed_err(gx, central_diff_proj(lambda: ops.global_stat_pool(x), r, x)) <= 1e-6
