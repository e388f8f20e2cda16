"""Primitive op semantics and VJPs against independent oracles."""

import inspect
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


def padded_taps(x, kh, kw, pad):
    """(i, j, tap view) of the zero-padded x for every tap of a stride-1 conv."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    fo, to = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    return [(i, j, xp[:, :, i : i + fo, j : j + to]) for i in range(kh) for j in range(kw)]


class TestConv2d:
    def test_scalar_product(self):
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        assert ops.conv2d(x, w, 1, 0).item() == 6.0

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        np.testing.assert_array_equal(ops.conv2d(x, w, 1, 1), x)

    def test_matches_direct_loop_oracle(self, rng):
        for c, kh, kw, stride, pad in [(3, 3, 3, 1, 0), (3, 3, 3, 1, 1), (3, 3, 3, 2, 1),
                                       (3, 1, 1, 1, 0), (3, 1, 1, 2, 0), (1, 3, 3, 1, 1),
                                       (3, 1, 3, 1, 0), (3, 3, 1, 2, 1), (3, 3, 3, 2, 0)]:
            x = rng.normal(size=(2, c, 7, 6))
            w = rng.normal(size=(4, c, kh, kw))
            got = ops.conv2d(x, w, stride, pad)
            ref = conv2d_direct(x, w, stride, pad)
            assert mixed_err(got, ref) <= 1e-6
            if stride == 1:
                # depthwise is the dense conv with a block-diagonal kernel
                wd = rng.normal(size=(c, 1, kh, kw))
                dense = np.zeros((c, c, kh, kw))
                dense[np.arange(c), np.arange(c)] = wd[:, 0]
                got = ops.depthwise_conv2d(x, wd, pad)
                assert mixed_err(got, conv2d_direct(x, dense, stride, pad)) <= 1e-6

    @pytest.mark.parametrize("c, kh, kw, stride, pad", [
        (1, 3, 3, 1, 1), (3, 1, 3, 1, 0), (3, 3, 1, 1, 1), (2, 3, 1, 2, 1),
        (2, 3, 3, 1, 0), (2, 3, 3, 2, 0), (2, 5, 5, 1, 2), (2, 1, 1, 1, 1)])
    def test_tap_gradients(self, rng, c, kh, kw, stride, pad):
        # the per-tap VJPs on kernels the benchmark nets do not use
        x = rng.normal(size=(2, c, 7, 6))
        w = rng.normal(size=(3, c, kh, kw))
        r = rng.normal(size=ops.conv2d(x, w, stride, pad).shape)
        gx, gw = ops.conv2d_vjp(x, w, r, stride, pad)
        out = lambda: ops.conv2d(x, w, stride, pad)
        assert gx.shape == x.shape and gw.shape == w.shape
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_vjp_peak_memory_stays_near_input_size(self, rng):
        # at stride 1 the padded input, padded dL/dx, widened dL/dy and one
        # tap's product are ~4.4x the input; the kh*kw-fold window copy was ~11x
        x = rng.standard_normal((4, 16, 80, 32), dtype=np.float32)
        w = rng.standard_normal((16, 16, 3, 3), dtype=np.float32)
        gy = rng.standard_normal(x.shape, dtype=np.float32)
        for stride in (1, 2):
            g = np.ascontiguousarray(gy[:, :, ::stride, ::stride])
            tracemalloc.start()
            try:
                ops.conv2d_vjp(x, w, g, stride, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * x.nbytes

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((4, 32, 80, 32), (32, 32, 3, 3)), ((1, 48, 80, 200), (24, 48, 3, 3))],
        ids=["toy", "registry"])
    def test_stride1_forward_peak_is_output_plus_bands(self, rng, x_shape, w_shape):
        # the padded band, its widened output and one tap's GEMM are each at
        # most DENSE_BAND_BYTES; the padded input and window copy are gone
        x = rng.standard_normal(x_shape, dtype=np.float32)
        w = rng.standard_normal(w_shape, dtype=np.float32)
        peak, y = traced_peak(ops.conv2d, x, w, 1, 1)
        assert peak <= y.nbytes + 4 * ops.DENSE_BAND_BYTES

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        r = rng.normal(size=(1, 3, 5, 5))
        gx, gw = ops.conv2d_vjp(x, w, r, 1, 1)
        out = lambda: ops.conv2d(x, w, 1, 1)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_strided_gradients(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        y = ops.conv2d(x, w, 2, 1)
        r = rng.normal(size=y.shape)
        gx, gw = ops.conv2d_vjp(x, w, r, 2, 1)
        out = lambda: ops.conv2d(x, w, 2, 1)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    def test_pointwise_gradients(self, rng, stride):
        # unpadded 1x1 kernels take the matmul path; the odd frequency extent
        # leaves the last row out of every stride-2 window
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(4, 3, 1, 1))
        r = rng.normal(size=ops.conv2d(x, w, stride, 0).shape)
        gx, gw = ops.conv2d_vjp(x, w, r, stride, 0)
        out = lambda: ops.conv2d(x, w, stride, 0)
        assert gx.shape == x.shape and gw.shape == w.shape
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError, match="channels"):
            ops.conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)))

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ConfigError):
            ops.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            ops.conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)))


class TestConvDtype:
    @pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)])
    def test_float32_in_float32_out(self, rng, k, stride, pad):
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 4, k, k)).astype(np.float32)
        wd = rng.normal(size=(4, 1, k, k)).astype(np.float32)
        y = ops.conv2d(x, w, stride, pad)
        outs = [y, *ops.conv2d_vjp(x, w, np.ones_like(y), stride, pad)]
        if stride == 1:  # depthwise convs run at stride 1 only
            yd = ops.depthwise_conv2d(x, wd, pad)
            outs += [yd, *ops.depthwise_conv2d_vjp(x, wd, np.ones_like(yd), pad)]
        assert [o.dtype for o in outs] == [np.float32] * (6 if stride == 1 else 3)

    @pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)])
    def test_forward_outputs_own_contiguous_memory(self, rng, k, stride, pad):
        # the ledger counts nbytes, which is the memory held only when the
        # output is contiguous and no larger buffer lies behind it
        x = rng.normal(size=(2, 4, 6, 6))
        ys = [ops.conv2d(x, rng.normal(size=(3, 4, k, k)), stride, pad)]
        if stride == 1:  # depthwise convs run at stride 1 only
            ys.append(ops.depthwise_conv2d(x, rng.normal(size=(4, 1, k, k)), pad))
        for y in ys:
            held = y
            while held.base is not None:
                held = held.base
            assert y.flags.c_contiguous and held.nbytes == y.nbytes


class TestDepthwiseConv2d:
    def test_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 2, 3, 3))
        w = np.ones((2, 1, 3, 3))
        y = ops.depthwise_conv2d(x, w, 1)
        assert y[0, 0, 1, 1] == 9.0
        assert y[0, 0, 0, 1] == 6.0
        assert y[0, 0, 0, 0] == 4.0

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w = np.zeros((2, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        np.testing.assert_array_equal(ops.depthwise_conv2d(x, w, 1), x)

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        r = rng.normal(size=(1, 2, 4, 4))
        gx, gw = ops.depthwise_conv2d_vjp(x, w, r, 1)
        out = lambda: ops.depthwise_conv2d(x, w, 1)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_takes_no_stride(self):
        for fn in (ops.depthwise_conv2d, ops.depthwise_conv2d_vjp):
            assert "stride" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("kh, kw, pad", [(3, 3, 3), (3, 3, 4), (1, 3, 1), (3, 1, 1)])
    def test_pad_at_least_a_kernel_side_rejected(self, rng, kh, kw, pad):
        # dL/dy's gather padding k - 1 - pad would be negative
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 1, kh, kw))
        gy = rng.normal(size=(1, 2, 7 + 2 * pad - kh, 7 + 2 * pad - kw))
        with pytest.raises(ConfigError, match="pad"):
            ops.depthwise_conv2d(x, w, pad)
        with pytest.raises(ConfigError, match="pad"):
            ops.depthwise_conv2d_vjp(x, w, gy, pad)

    @staticmethod
    def _forward_peak_and_bound(rng, shape):
        # one block's padded planes, widened output and tap product are each
        # at most DEPTHWISE_BLOCK_BYTES; no padded copy of the whole input
        x = rng.standard_normal(shape, dtype=np.float32)
        w = rng.standard_normal((shape[1], 1, 3, 3), dtype=np.float32)
        peak, y = traced_peak(ops.depthwise_conv2d, x, w, 1)
        return peak, y.nbytes + 4 * ops.DEPTHWISE_BLOCK_BYTES

    @staticmethod
    def _vjp_peak_and_bound(rng, shape):
        # one block's padded dL/dy, widened x, widened dL/dx and tap product;
        # dL/dx is exact-size, so no view pins a padded buffer
        x = rng.standard_normal(shape, dtype=np.float32)
        w = rng.standard_normal((shape[1], 1, 3, 3), dtype=np.float32)
        gy = rng.standard_normal(shape, dtype=np.float32)
        peak, (gx, gw) = traced_peak(ops.depthwise_conv2d_vjp, x, w, gy, 1)
        assert gx.base is None and gx.flags.c_contiguous
        return peak, gx.nbytes + gw.nbytes + 5 * ops.DEPTHWISE_BLOCK_BYTES

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
    @pytest.mark.parametrize("kh, kw, pad", [(3, 3, 1), (3, 3, 0), (5, 5, 2), (1, 3, 0)])
    def test_depthwise_matches_padded_reference(self, rng, monkeypatch, dtype, tol,
                                                kh, kw, pad):
        n, c, f, t = 3, 5, 9, 7  # 15 planes: blocks of 4, 4, 4 and 3
        x = rng.normal(size=(n, c, f, t)).astype(dtype)
        w = rng.normal(size=(c, 1, kh, kw)).astype(dtype)
        plane = (f + 2 * pad + 1) * (t + 2 * pad)  # padded x plus a spare row
        monkeypatch.setattr(ops, "DEPTHWISE_BLOCK_BYTES", 4 * plane * x.itemsize)
        taps = padded_taps(x, kh, kw, pad)
        y_ref = sum(xs * w[:, 0, i, j][None, :, None, None] for i, j, xs in taps)
        y = ops.depthwise_conv2d(x, w, pad)
        assert y.dtype == dtype and scaled_err(y, y_ref) <= tol

        gy = rng.normal(size=y.shape).astype(dtype)
        plane = (f + kh) * (t + kw - 1)  # dL/dy padded for the gather form
        monkeypatch.setattr(ops, "DEPTHWISE_BLOCK_BYTES", 4 * plane * x.itemsize)
        gx, gw = ops.depthwise_conv2d_vjp(x, w, gy, pad)
        # the scatter form: each tap adds gy * w at its offset, in tap order
        gxp = np.zeros((n, c, f + 2 * pad, t + 2 * pad), dtype=dtype)
        gw_ref = np.empty_like(w)
        for i, j, xs in taps:
            gxp[:, :, i : i + y.shape[2], j : j + y.shape[3]] += gy * w[:, 0, i, j][
                None, :, None, None]
            gw_ref[:, 0, i, j] = (xs * gy).sum(axis=(0, 2, 3))
        np.testing.assert_array_equal(gx, gxp[:, :, pad : pad + f, pad : pad + t])
        assert gw.dtype == dtype and scaled_err(gw, gw_ref) <= tol

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("kh, kw, pad", [(3, 3, 1), (3, 3, 0), (5, 5, 2), (1, 3, 1)])
    def test_dense_forward_matches_padded_reference(self, rng, monkeypatch, dtype, tol,
                                                    kh, kw, pad):
        n, c, o, f, t = 3, 5, 4, 9, 7
        x = rng.normal(size=(n, c, f, t)).astype(dtype)
        w = rng.normal(size=(o, c, kh, kw)).astype(dtype)
        # bands of two output rows per sample, the last one partial or single
        band = (2 + kh) * c * (t + 2 * pad) * x.itemsize
        monkeypatch.setattr(ops, "DENSE_BAND_BYTES", band)
        y_ref = sum(np.einsum("ncft,oc->noft", xs, w[:, :, i, j])
                    for i, j, xs in padded_taps(x, kh, kw, pad))
        y = ops.conv2d(x, w, 1, pad)
        assert y.dtype == dtype and y.flags.c_contiguous and y.base is None
        assert scaled_err(y, y_ref) <= tol


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
        dgamma = np.einsum("ncft,ncft->c", gy, xhat, optimize=True)[None, :, None, None]
        dbeta = gy.sum(axis=(0, 2, 3))[None, :, None, None]
        ref = gamma[None, :, None, None] * inv * (gy - dbeta / count - xhat * dgamma / count)
        gx, _, _ = ops.batchnorm2d_vjp(x, gamma, gy, mean, var, 1e-5)
        assert gx.dtype == dtype
        np.testing.assert_array_equal(gx, ref)

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

    def test_gradient_vs_finite_differences(self, rng):
        x = rng.normal(size=(2, 3, 4, 6))
        r = rng.normal(size=(2, 24))
        gx = ops.global_stat_pool_vjp(x, r)
        assert mixed_err(gx, central_diff_proj(lambda: ops.global_stat_pool(x), r, x)) <= 1e-6
