"""Optimizer update rules and the quantized-state variants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmem.errors import QuantizationError, StateOverflowError
from revmem.layers import Param
from revmem.optim import (
    CHUNK_ELEMENTS,
    OPTIMIZERS,
    Adam,
    Sgd,
    make_optimizer,
    optimizer_state_nbytes,
)
from revmem.quant import BLOCK_SIZE, default_map, dequantize_blockwise, quantize_blockwise


def param(values):
    return Param(np.asarray(values, dtype=np.float64))


class TestSgdRule:
    def test_first_step(self):
        p = param([1.0])
        opt = Sgd([p], lr=0.1, momentum=0.9)
        p.grad[:] = 1.0
        opt.step()
        assert opt.slots[0][0].state[0] == 1.0
        assert p.value[0] == pytest.approx(0.9)

    def test_second_step_accumulates_undampened(self):
        p = param([1.0])
        opt = Sgd([p], lr=0.1, momentum=0.9)
        p.grad[:] = 1.0
        opt.step()
        p.grad[:] = 1.0
        opt.step()
        assert opt.slots[0][0].state[0] == pytest.approx(1.9)
        assert p.value[0] == pytest.approx(0.71)

    def test_zero_momentum_is_plain_descent(self):
        p = param([2.0])
        opt = Sgd([p], lr=0.5, momentum=0.0)
        for g in (1.0, -2.0):
            p.grad[:] = g
            opt.step()
        assert p.value[0] == pytest.approx(2.0 - 0.5 * 1.0 + 0.5 * 2.0)


class TestAdamRule:
    def test_first_step_arithmetic(self):
        p = param([1.0])
        opt = Adam([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad[:] = 1.0
        opt.step()
        m, r = (states[0].state for states in opt.slots)
        assert m[0] == pytest.approx(0.1)
        assert r[0] == pytest.approx(0.001)
        assert p.value[0] == pytest.approx(1.0 - 1e-3 * 0.1 / (np.sqrt(0.001) + 1e-8))
        assert p.value[0] == pytest.approx(0.9968377, abs=1e-7)

    def test_zero_gradient_zero_state_leaves_weight(self):
        p = param([3.0])
        opt = Adam([p], lr=1e-2)
        p.grad[:] = 0.0
        opt.step()
        assert p.value[0] == 3.0

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_second_moment_stays_nonnegative(self, grads):
        p = param(np.zeros(4))
        opt = Adam([p], lr=1e-3)
        rng = np.random.default_rng(0)
        for g in grads:
            p.grad[:] = rng.normal(g, 1.0, 4)
            opt.step()
            assert np.all(opt.slots[1][0].state >= 0)

    def test_adamw_decoupled_decay_applies_before_update(self):
        p = param([1.0])
        opt = Adam([p], lr=0.1, weight_decay=0.5)
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
        quantized = Sgd([pq], lr=0.1, momentum=0.9, block_size=2)
        pd.grad[:] = pq.grad[:] = [0.3, -0.1, 0.2]
        dense.step()
        quantized.step()
        np.testing.assert_array_equal(pd.value, pq.value)

    def test_adam8_first_step_matches_dense(self):
        pd, pq = param([1.0, 2.0]), param([1.0, 2.0])
        dense = Adam([pd], lr=1e-2)
        quantized = Adam([pq], lr=1e-2, block_size=2)
        pd.grad[:] = pq.grad[:] = [0.7, -0.4]
        dense.step()
        quantized.step()
        np.testing.assert_array_equal(pd.value, pq.value)

    def test_state_bytes_reduction_at_2048(self):
        n = 1_000_000
        dense = optimizer_state_nbytes(n, "sgd")
        quantized = optimizer_state_nbytes(n, "sgd8")  # blocks of BLOCK_SIZE = 2048
        assert quantized / dense <= 0.2505
        assert 1 - quantized / dense >= 0.749

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 24])
    def test_fresh_state_is_quantized_zeros(self, size):
        # a new slot is built without quantizing, with the same codes,
        # absmax, dtypes and shape as quantizing a zero tensor; B = 8
        shape = (size, 1)
        opt = Adam([Param(np.ones(shape, np.float32))], block_size=8)
        ref = quantize_blockwise(np.zeros(shape, np.float32), default_map(), 8)
        for slots in opt.slots:
            state = slots[0].state
            for got, want in ((state.codes, ref.codes), (state.absmax, ref.absmax)):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            assert (state.block_size, state.shape) == (ref.block_size, ref.shape)

    def test_state_bytes_exact_formula(self):
        p = param(np.zeros(5000))
        opt = Sgd([p], block_size=2048)
        assert opt.state_nbytes() == 5000 + 4 * 3
        opt2 = Adam([p], block_size=2048)
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
        quantized = run(lambda p: Sgd([p], lr=0.05, momentum=0.9, block_size=BLOCK_SIZE))
        assert abs(dense - quantized) / dense <= 0.05

    def test_identical_updates_when_states_representable(self):
        # states that normalize onto exact code values round-trip losslessly,
        # so the 8-bit optimizer reproduces the dense one bit for bit
        pd, pq = param([1.0, 1.0]), param([1.0, 1.0])
        dense = Sgd([pd], lr=0.25, momentum=0.5)
        quantized = Sgd([pq], lr=0.25, momentum=0.5, block_size=2)
        # momenta after each step: [1.0, -0.5] then [1.0, 1.0]; normalized by
        # the block absmax both land exactly on code values
        for g in ([1.0, -0.5], [0.5, 1.25]):
            pd.grad[:] = pq.grad[:] = g
            dense.step()
            quantized.step()
        np.testing.assert_array_equal(pd.value, pq.value)

    @pytest.mark.parametrize("cls", [Sgd, Adam], ids=["Sgd8", "Adam8"])
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
        slots = [s for states in opt.slots for s in states]
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


def reference_sgd(w, g, m, lr, momentum):
    """The whole-tensor, out-of-place SGD step that the chunked loop must reproduce."""
    m = momentum * m + g
    return w - lr * m, m


def reference_adam(w, g, m, r, lr, beta1, beta2, eps):
    """The whole-tensor, out-of-place Adam step that the chunked loop must reproduce."""
    m = beta1 * m + (1.0 - beta1) * g
    r = beta2 * r + (1.0 - beta2) * g * g
    return w - lr * m / (np.sqrt(r) + eps), m, r


def settings(name):
    """(rule, 8-bit state, lr, weight decay) of the optimizer ``build`` makes."""
    rule, eight_bit, decays = OPTIMIZERS[name]
    return rule, eight_bit, 0.05 if rule is Sgd else 1e-3, 0.05 if decays else 0.0


def build(name, params, block_size):
    return make_optimizer(name, params, settings(name)[2], weight_decay=0.05,
                          block_size=block_size)

# Several chunks each, with a ragged last chunk and a ragged last block at
# block size 2048, plus a single partial block.
SHAPES = [(2 * CHUNK_ELEMENTS + 3 * 2048 + 100,), (37, 1000), (3,)]


def reference_run(name, values, grads, block_size):
    """Parameters and states after whole-tensor steps; 8-bit states as QuantizedState."""
    rule, quantized, lr, wd = settings(name)
    qmap = default_map()
    ws = [v.copy() for v in values]
    states = [[np.zeros_like(w) for w in ws] for _ in range(rule.n_states)]
    if quantized:
        states = [[quantize_blockwise(np.zeros(w.shape, np.float32), qmap, block_size)
                   for w in ws] for _ in states]
    for gs in grads:
        for i, (w, g) in enumerate(zip(ws, gs)):
            s = [st[i] for st in states]
            if quantized:
                s = [dequantize_blockwise(q, qmap, dtype=w.dtype) for q in s]
            if rule is Sgd:
                w, *s = reference_sgd(w, g, *s, lr, 0.9)
            else:
                if wd:
                    w = w - lr * wd * w
                w, *s = reference_adam(w, g, *s, lr, 0.9, 0.999, 1e-8)
            if quantized:
                s = [quantize_blockwise(x, qmap, block_size) for x in s]
            ws[i] = w
            for st, x in zip(states, s):
                st[i] = x
    return ws, states


def chunked_run(name, values, grads, block_size):
    params = [Param(v.copy()) for v in values]
    opt = build(name, params, block_size)
    for gs in grads:
        for p, g in zip(params, gs):
            p.grad[...] = g
        opt.step()
        opt.zero_grad()
    return params, opt


def random_steps(shapes, dtype, steps=5, seed=11):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s).astype(dtype) for s in shapes]
    grads = [[rng.normal(0, 10.0 ** rng.integers(-4, 2), s).astype(dtype) for s in shapes]
             for _ in range(steps)]
    return values, grads


def assert_same_as_reference(name, shapes, dtype, block_size):
    values, grads = random_steps(shapes, dtype)
    ref_values, ref_states = reference_run(name, values, grads, block_size)
    params, opt = chunked_run(name, values, grads, block_size)
    for p, w in zip(params, ref_values):
        assert p.value.dtype == w.dtype
        np.testing.assert_array_equal(p.value, w)
    for slots, refs in zip(opt.slots, ref_states):
        for slot, ref in zip(slots, refs):
            if settings(name)[1]:
                np.testing.assert_array_equal(slot.state.codes, ref.codes)
                np.testing.assert_array_equal(slot.state.absmax, ref.absmax)
            else:
                assert slot.state.dtype == ref.dtype
                np.testing.assert_array_equal(slot.state, ref)


def snapshot(opt):
    arrays = [p.value.copy() for p in opt.params]
    for slots in opt.slots:
        for s in slots:
            arrays += [s.state.codes.copy(), s.state.absmax.copy()]
    return opt.step_count, arrays


class TestChunkedInPlaceStep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_matches_whole_tensor_reference_exactly(self, name, dtype):
        assert_same_as_reference(name, SHAPES, dtype, 2048)

    @pytest.mark.parametrize("name", ["sgd8", "adam8"])
    @pytest.mark.parametrize("block_size", [5000, 3 * CHUNK_ELEMENTS // 2])
    def test_chunks_are_whole_blocks_at_any_block_size(self, name, block_size):
        # 5000 gives 3-block chunks and a ragged last block; a block above
        # CHUNK_ELEMENTS gives one-block chunks
        assert_same_as_reference(name, [(4 * CHUNK_ELEMENTS + 7,), (9,)], np.float32,
                                 block_size)

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_step_writes_into_the_arrays_it_holds(self, name):
        values, grads = random_steps(SHAPES, np.float32, steps=2)
        params = [Param(v) for v in values]
        opt = build(name, params, 2048)
        eight_bit = settings(name)[1]
        held = [p.value for p in params]
        for slots in opt.slots:
            for s in slots:
                held += [s.state.codes, s.state.absmax] if eight_bit else [s.state]
        for gs in grads:
            for p, g in zip(params, gs):
                p.grad[...] = g
            opt.step()
        now = [p.value for p in params]
        for slots in opt.slots:
            for s in slots:
                now += [s.state.codes, s.state.absmax] if eight_bit else [s.state]
        assert all(a is b for a, b in zip(held, now))
        assert params[0].value is values[0]  # the caller's array took the step

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_step_lands_in_a_non_contiguous_value(self, name):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(300, 70))
        viewed = Param(base.T)  # Fortran-ordered: a flat reshape would copy
        dense = Param(np.ascontiguousarray(base.T))
        opts = [build(name, [p], 64) for p in (viewed, dense)]
        for _ in range(3):
            g = rng.normal(size=dense.value.shape)
            for p, opt in zip((viewed, dense), opts):
                p.grad[...] = g
                opt.step()
        assert np.shares_memory(viewed.value, base)
        np.testing.assert_array_equal(viewed.value, dense.value)
        np.testing.assert_array_equal(base.T, dense.value)

    def test_adam8_step_peak_stays_below_one_parameter(self):
        # whole-tensor dequantize and re-quantize peaked at about 9.5 MB here
        rng = np.random.default_rng(8)
        p = Param(rng.normal(size=327_680).astype(np.float32))
        opt = Adam([p], block_size=BLOCK_SIZE)
        p.grad[...] = rng.normal(size=p.value.shape)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= p.value.nbytes

    def test_adam8_step_that_would_overflow_changes_nothing(self):
        # (1 - beta2) * g * g overflows float32 for g = 1e22; the parameter
        # before it must not take the step either
        rng = np.random.default_rng(6)
        params = [Param(rng.normal(size=4).astype(np.float32)) for _ in range(3)]
        opt = Adam(params, block_size=4)
        for p in params:
            p.grad[:] = rng.normal(size=4)
        opt.step()
        for p in params:
            p.grad[:] = rng.normal(size=4)
        params[1].grad[0] = 1e22
        count, before = snapshot(opt)
        with pytest.raises(StateOverflowError, match=r"parameter 1 \(4,\)"):
            opt.step()
        after_count, after = snapshot(opt)
        assert after_count == count
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_sgd8_momentum_that_would_overflow_changes_nothing(self):
        params = [Param(np.ones(4, np.float32)) for _ in range(3)]
        opt = Sgd(params, block_size=4)
        params[1].grad[0] = 3e38  # fits the float32 scale: taken
        opt.step()
        assert opt.slots[0][1].state.absmax[0] == np.float32(3e38)
        count, before = snapshot(opt)
        # 0.9 * 3e38 + 3e38 does not fit
        with pytest.raises(QuantizationError, match="parameter 1"):
            opt.step()
        assert snapshot(opt)[0] == count
        for a, b in zip(before, snapshot(opt)[1]):
            np.testing.assert_array_equal(a, b)


class TestFactory:
    @pytest.mark.parametrize("name,cls,block_size", [
        ("sgd", Sgd, None), ("sgd8", Sgd, BLOCK_SIZE), ("adam", Adam, None),
        ("adamw", Adam, None), ("adam8", Adam, BLOCK_SIZE)],
        ids=["sgd-Sgd", "sgd8-Sgd8", "adam-Adam", "adamw-Adam", "adam8-Adam8"])
    def test_names(self, name, cls, block_size):
        opt = make_optimizer(name, [param([1.0])], lr=0.1)
        assert type(opt) is cls and opt.block_size == block_size

    @pytest.mark.parametrize("block_size", [0, 2.5])
    def test_block_size_must_be_a_positive_integer(self, block_size):
        with pytest.raises(QuantizationError, match="block size"):
            Sgd([param([1.0])], block_size=block_size)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("lion", [param([1.0])], lr=0.1)

    def test_adamw_has_decay_adam_does_not(self):
        a = make_optimizer("adam", [param([1.0])], lr=0.1, weight_decay=0.5)
        w = make_optimizer("adamw", [param([1.0])], lr=0.1, weight_decay=0.5)
        assert a.weight_decay == 0.0
        assert w.weight_decay == 0.5
