"""Angular-margin softmax: values, gradients, and batch symmetry."""

import math

import numpy as np
import pytest

from revmem.errors import ConfigError, ShapeError
from revmem.loss import aam_softmax_loss

from conftest import central_diff, mixed_err

# -log(sigma), sigma = e^{32 cos 0.2} / (e^{32 cos 0.2} + 1), for an embedding
# aligned with its class weight against one orthogonal class (cos 0.2 ~ 0.980067)
ALIGNED_GOLDEN = 2.3966233543351858e-14


class TestValues:
    def test_degenerate_margin_is_plain_cosine_ce(self, rng):
        emb = rng.normal(size=(5, 8))
        w = rng.normal(size=(8, 4))
        y = rng.integers(0, 4, 5)
        loss, _, _ = aam_softmax_loss(emb, y, w, margin=0.0, scale=1.0)
        e = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        wn = w / np.linalg.norm(w, axis=0, keepdims=True)
        logits = e @ wn
        p = np.exp(logits - logits.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        ref = -np.log(p[np.arange(5), y]).mean()
        assert abs(loss - ref) <= 1e-7

    def test_aligned_embedding_golden_value(self):
        w = np.zeros((8, 2))
        w[0, 0] = 2.0  # class 0 along axis 0
        w[1, 1] = 3.0  # class 1 orthogonal
        emb = np.zeros((1, 8))
        emb[0, 0] = 0.7
        loss, _, _ = aam_softmax_loss(emb, np.array([0]), w, margin=0.2, scale=32.0)
        assert loss == pytest.approx(ALIGNED_GOLDEN, rel=1e-2)

    def test_label_out_of_range(self, rng):
        with pytest.raises(ValueError, match="labels"):
            aam_softmax_loss(rng.normal(size=(2, 4)), np.array([0, 5]),
                             rng.normal(size=(4, 3)))

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            aam_softmax_loss(rng.normal(size=(2, 4)), np.array([0, 1]),
                             rng.normal(size=(5, 3)))

    @pytest.mark.parametrize("emb_dtype, w_dtype", [(np.float32, np.float64),
                                                     (np.float64, np.float32)])
    def test_dtype_mismatch_is_config_error(self, rng, emb_dtype, w_dtype):
        emb = rng.normal(size=(2, 4)).astype(emb_dtype)
        w = rng.normal(size=(4, 3)).astype(w_dtype)
        with pytest.raises(ConfigError, match=f"{np.dtype(emb_dtype)}.*{np.dtype(w_dtype)}"):
            aam_softmax_loss(emb, np.array([0, 1]), w)


class TestGradients:
    def test_vs_finite_differences(self, rng):
        # moderate scale: at 32 the softmax saturates and the true gradients
        # sink below any finite-difference resolution
        emb = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, 4)
        _, demb, dw = aam_softmax_loss(emb, y, w, margin=0.2, scale=4.0)

        def loss():
            return aam_softmax_loss(emb, y, w, margin=0.2, scale=4.0)[0]

        assert mixed_err(demb, central_diff(loss, emb)) <= 1e-6
        assert mixed_err(dw, central_diff(loss, w)) <= 1e-6

    def test_zero_margin_gradients(self, rng):
        emb = rng.normal(size=(3, 5))
        w = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, 3)
        _, demb, dw = aam_softmax_loss(emb, y, w, margin=0.0, scale=4.0)

        def loss():
            return aam_softmax_loss(emb, y, w, margin=0.0, scale=4.0)[0]

        assert mixed_err(demb, central_diff(loss, emb)) <= 1e-6
        assert mixed_err(dw, central_diff(loss, w)) <= 1e-6


class TestProperties:
    def test_batch_permutation_equivariance(self, rng):
        emb = rng.normal(size=(6, 8))
        w = rng.normal(size=(8, 4))
        y = rng.integers(0, 4, 6)
        perm = rng.permutation(6)
        loss_a, demb_a, dw_a = aam_softmax_loss(emb, y, w)
        loss_b, demb_b, dw_b = aam_softmax_loss(emb[perm], y[perm], w)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        np.testing.assert_allclose(demb_a[perm], demb_b, rtol=1e-10)
        np.testing.assert_allclose(dw_a, dw_b, rtol=1e-10)

    def test_monotonic_guard_sets_far_region_logit(self):
        # an embedding pointing away from its class weight (theta = pi) sits
        # past the non-monotone threshold, so its true-class logit is
        # scale * (cos theta - m sin m), not scale * cos(theta + m)
        margin, scale = 0.3, 32.0
        w = np.zeros((4, 2))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        emb = np.zeros((1, 4))
        emb[0, 0] = -1.0
        loss, _, _ = aam_softmax_loss(emb, np.array([0]), w, margin=margin, scale=scale)
        phi = -1.0 - margin * math.sin(margin)
        assert phi < math.cos(math.pi + margin)  # cos(theta + m) would turn back up
        assert loss == pytest.approx(np.logaddexp(scale * phi, 0.0) - scale * phi, rel=1e-12)


class TestInputChecks:
    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([False, True])],
                             ids=["float", "bool"])
    def test_non_integer_labels_are_config_errors(self, rng, labels):
        with pytest.raises(ConfigError, match="labels must be integers"):
            aam_softmax_loss(rng.normal(size=(2, 4)), labels, rng.normal(size=(4, 3)))

    def test_empty_batch_is_shape_error(self, rng):
        with pytest.raises(ShapeError, match="empty"):
            aam_softmax_loss(np.zeros((0, 4)), np.zeros(0, np.int64), rng.normal(size=(4, 3)))

    def test_zero_embedding_row_is_config_error(self, rng):
        emb = rng.normal(size=(3, 4))
        emb[1] = 0.0
        with pytest.raises(ConfigError, match="embedding row 1 has zero norm"):
            aam_softmax_loss(emb, np.array([0, 1, 2]), rng.normal(size=(4, 3)))

    def test_zero_weight_column_is_config_error(self, rng):
        w = rng.normal(size=(4, 3))
        w[:, 2] = 0.0
        with pytest.raises(ConfigError, match="weight column 2 has zero norm"):
            aam_softmax_loss(rng.normal(size=(3, 4)), np.array([0, 1, 2]), w)
