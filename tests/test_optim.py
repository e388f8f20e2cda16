"""Optimizer update rules and the quantized-state variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmem.errors import QuantizationError
from revmem.layers import Param
from revmem.optim import (
    Adam,
    Adam8,
    AdamW,
    Sgd,
    Sgd8,
    adam_update,
    make_optimizer,
    optimizer_state_nbytes,
    sgd_update,
)


def param(values):
    return Param(np.asarray(values, dtype=np.float64))


class TestSgdRule:
    def test_first_step(self):
        p = param([1.0])
        opt = Sgd([p], lr=0.1, momentum=0.9)
        p.grad[:] = 1.0
        opt.step()
        assert opt.m[0][0] == 1.0
        assert p.value[0] == pytest.approx(0.9)

    def test_second_step_accumulates_undampened(self):
        p = param([1.0])
        opt = Sgd([p], lr=0.1, momentum=0.9)
        p.grad[:] = 1.0
        opt.step()
        p.grad[:] = 1.0
        opt.step()
        assert opt.m[0][0] == pytest.approx(1.9)
        assert p.value[0] == pytest.approx(0.71)

    def test_zero_momentum_is_plain_descent(self):
        p = param([2.0])
        opt = Sgd([p], lr=0.5, momentum=0.0)
        for g in (1.0, -2.0):
            p.grad[:] = g
            opt.step()
        assert p.value[0] == pytest.approx(2.0 - 0.5 * 1.0 + 0.5 * 2.0)

    def test_shape_mismatch(self):
        with pytest.raises(Exception, match="shape"):
            sgd_update(np.zeros(3), np.zeros(2), np.zeros(3), 0.1, 0.9)


class TestAdamRule:
    def test_first_step_arithmetic(self):
        p = param([1.0])
        opt = Adam([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad[:] = 1.0
        opt.step()
        assert opt.m[0][0] == pytest.approx(0.1)
        assert opt.r[0][0] == pytest.approx(0.001)
        assert p.value[0] == pytest.approx(1.0 - 1e-3 * 0.1 / (np.sqrt(0.001) + 1e-8))
        assert p.value[0] == pytest.approx(0.9968377, abs=1e-7)

    def test_zero_gradient_zero_state_leaves_weight(self):
        p = param([3.0])
        opt = Adam([p], lr=1e-2)
        p.grad[:] = 0.0
        opt.step()
        assert p.value[0] == 3.0

    def test_bias_correction_flag(self):
        p1, p2 = param([1.0]), param([1.0])
        plain = Adam([p1], lr=1e-3, bias_correction=False)
        corrected = Adam([p2], lr=1e-3, bias_correction=True)
        p1.grad[:] = p2.grad[:] = 0.5
        plain.step()
        corrected.step()
        assert p1.value[0] != p2.value[0]
        # first corrected step is a full lr move: m_hat/sqrt(r_hat) = sign(g)
        assert p2.value[0] == pytest.approx(1.0 - 1e-3, rel=1e-5)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_second_moment_stays_nonnegative(self, grads):
        w = np.zeros(4)
        m = np.zeros(4)
        r = np.zeros(4)
        rng = np.random.default_rng(0)
        for g in grads:
            gv = rng.normal(g, 1.0, 4)
            w, m, r = adam_update(w, gv, m, r, 1e-3, 0.9, 0.999, 1e-8, 1)
            assert np.all(r >= 0)

    def test_adamw_decoupled_decay_applies_before_update(self):
        p = param([1.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad[:] = 0.0
        opt.step()
        # zero gradient: only the decay acts, w <- w - lr*wd*w
        assert p.value[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([param([1.0])], beta1=1.0)


class TestQuantizedVariants:
    def test_first_step_matches_dense_exactly(self):
        # zero states quantize exactly, so step 1 differs only by the final
        # state re-quantization, never in the weights
        pd, pq = param([1.0, -2.0, 0.5]), param([1.0, -2.0, 0.5])
        dense = Sgd([pd], lr=0.1, momentum=0.9)
        quantized = Sgd8([pq], lr=0.1, momentum=0.9, block_size=2)
        pd.grad[:] = pq.grad[:] = [0.3, -0.1, 0.2]
        dense.step()
        quantized.step()
        np.testing.assert_array_equal(pd.value, pq.value)

    def test_adam8_first_step_matches_dense(self):
        pd, pq = param([1.0, 2.0]), param([1.0, 2.0])
        dense = Adam([pd], lr=1e-2)
        quantized = Adam8([pq], lr=1e-2, block_size=2)
        pd.grad[:] = pq.grad[:] = [0.7, -0.4]
        dense.step()
        quantized.step()
        np.testing.assert_array_equal(pd.value, pq.value)

    def test_state_bytes_reduction_at_2048(self):
        n = 1_000_000
        dense = optimizer_state_nbytes(n, "sgd")
        quantized = optimizer_state_nbytes(n, "sgd8", block_size=2048)
        assert quantized / dense <= 0.2505
        assert 1 - quantized / dense >= 0.749

    def test_state_bytes_exact_formula(self):
        p = param(np.zeros(5000))
        opt = Sgd8([p], block_size=2048)
        assert opt.state_nbytes() == 5000 + 4 * 3
        opt2 = Adam8([p], block_size=2048)
        assert opt2.state_nbytes() == 2 * (5000 + 4 * 3)

    def test_quadratic_bowl_parity(self):
        # 8-bit and dense trajectories reach comparable minima
        rng = np.random.default_rng(7)
        a = rng.uniform(0.5, 1.5, 1000)
        c = rng.normal(size=1000)

        def run(maker):
            p = Param(np.zeros(1000))
            opt = maker(p)
            for _ in range(200):
                p.grad[:] = a * (p.value - c)
                opt.step()
                opt.zero_grad()
            return float(0.5 * (a * (p.value - c) ** 2).sum())

        dense = run(lambda p: Sgd([p], lr=0.05, momentum=0.9))
        quantized = run(lambda p: Sgd8([p], lr=0.05, momentum=0.9))
        assert abs(dense - quantized) / dense <= 0.05

    def test_identical_updates_when_states_representable(self):
        # states that normalize onto exact code values round-trip losslessly,
        # so the 8-bit optimizer reproduces the dense one bit for bit
        pd, pq = param([1.0, 1.0]), param([1.0, 1.0])
        dense = Sgd([pd], lr=0.25, momentum=0.5)
        quantized = Sgd8([pq], lr=0.25, momentum=0.5, block_size=2)
        # momenta after each step: [1.0, -0.5] then [1.0, 1.0]; normalized by
        # the block absmax both land exactly on code values
        for g in ([1.0, -0.5], [0.5, 1.25]):
            pd.grad[:] = pq.grad[:] = g
            dense.step()
            quantized.step()
        np.testing.assert_array_equal(pd.value, pq.value)

    @pytest.mark.parametrize("cls", [Sgd8, Adam8])
    def test_step_with_non_finite_gradient_changes_nothing(self, cls):
        # the bad gradient sits between two good ones: neither the parameter
        # before it nor any 8-bit state may take the step
        rng = np.random.default_rng(5)
        params = [param(rng.normal(size=7)) for _ in range(3)]
        opt = cls(params, block_size=4)
        for p in params:
            p.grad[:] = rng.normal(size=7)
        opt.step()
        params[0].grad[:] = rng.normal(size=7)
        params[1].grad[3] = np.nan
        slots = opt.m + getattr(opt, "r", [])
        values = [p.value.copy() for p in params]
        states = [(s.state.codes.copy(), s.state.absmax.copy()) for s in slots]
        with pytest.raises(QuantizationError, match="parameter 1"):
            opt.step()
        assert opt.step_count == 1
        for p, v in zip(params, values):
            np.testing.assert_array_equal(p.value, v)
        for s, (codes, absmax) in zip(slots, states):
            np.testing.assert_array_equal(s.state.codes, codes)
            np.testing.assert_array_equal(s.state.absmax, absmax)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("sgd", Sgd), ("sgd8", Sgd8),
                                          ("adam", Adam), ("adamw", Adam),
                                          ("adam8", Adam8)])
    def test_names(self, name, cls):
        opt = make_optimizer(name, [param([1.0])], lr=0.1)
        assert isinstance(opt, cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("lion", [param([1.0])], lr=0.1)

    def test_adamw_has_decay_adam_does_not(self):
        a = make_optimizer("adam", [param([1.0])], lr=0.1, weight_decay=0.5)
        w = make_optimizer("adamw", [param([1.0])], lr=0.1, weight_decay=0.5)
        assert a.weight_decay == 0.0
        assert w.weight_decay == 0.5
