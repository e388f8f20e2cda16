"""Primitive op semantics and VJPs against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmem import ops
from revmem.errors import ConfigError, ShapeError

from conftest import central_diff_proj, conv2d_direct, gsp_two_pass, mixed_err


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
        for k, stride, pad in [(3, 1, 0), (3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]:
            x = rng.normal(size=(2, 3, 7, 6))
            w = rng.normal(size=(4, 3, k, k))
            got = ops.conv2d(x, w, stride, pad)
            ref = conv2d_direct(x, w, stride, pad)
            assert mixed_err(got, ref) <= 1e-6

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
        yd = ops.depthwise_conv2d(x, wd, stride, pad)
        outs = [y, *ops.conv2d_vjp(x, w, np.ones_like(y), stride, pad),
                yd, *ops.depthwise_conv2d_vjp(x, wd, np.ones_like(yd), stride, pad)]
        assert [o.dtype for o in outs] == [np.float32] * 6


class TestDepthwiseConv2d:
    def test_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 2, 3, 3))
        w = np.ones((2, 1, 3, 3))
        y = ops.depthwise_conv2d(x, w, 1, 1)
        assert y[0, 0, 1, 1] == 9.0
        assert y[0, 0, 0, 1] == 6.0
        assert y[0, 0, 0, 0] == 4.0

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        w = np.zeros((2, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        np.testing.assert_array_equal(ops.depthwise_conv2d(x, w, 1, 1), x)

    def test_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        r = rng.normal(size=(1, 2, 4, 4))
        gx, gw = ops.depthwise_conv2d_vjp(x, w, r, 1, 1)
        out = lambda: ops.depthwise_conv2d(x, w, 1, 1)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_strided_gradients_vs_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 5, 6))
        w = rng.normal(size=(2, 1, 3, 3))
        r = rng.normal(size=ops.depthwise_conv2d(x, w, 2, 1).shape)
        gx, gw = ops.depthwise_conv2d_vjp(x, w, r, 2, 1)
        out = lambda: ops.depthwise_conv2d(x, w, 2, 1)
        assert mixed_err(gx, central_diff_proj(out, r, x)) <= 1e-6
        assert mixed_err(gw, central_diff_proj(out, r, w)) <= 1e-6

    def test_vjp_peak_memory_stays_near_input_size(self, rng):
        # padded input + padded dL/dx + one tap product is ~3.2x the input;
        # a (kh*kw)-fold window copy would be ~11x
        x = rng.standard_normal((4, 32, 80, 32), dtype=np.float32)
        w = rng.standard_normal((32, 1, 3, 3), dtype=np.float32)
        gy = rng.standard_normal(x.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            ops.depthwise_conv2d_vjp(x, w, gy, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * x.nbytes

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            ops.depthwise_conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 1, 3, 3)))


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
