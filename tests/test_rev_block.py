"""Reversible block semantics: coupling, inversion, coupled backward."""

import weakref

import numpy as np
import pytest

from revmem import ops
from revmem.errors import StateError
from revmem.layers import Param, RevBlock, RevDownsample, Sequential

from conftest import central_diff_proj, mixed_err


class _ScalarLinear:
    """Minimal branch v -> k*v with one scalar parameter (test double)."""

    reversible = False

    def __init__(self, k):
        self.k = Param(np.array(k))

    def params(self):
        return [self.k]

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(x)
        return self.k.value * x

    def backward(self, gy, x):
        self.k.grad = self.k.grad + (gy * x).sum()
        return self.k.value * gy


def scalar_block(kf, kg):
    blk = RevBlock.__new__(RevBlock)
    blk.kind = "scalar"
    blk.half_width = 1
    blk.f = Sequential([_ScalarLinear(kf)])
    blk.g = Sequential([_ScalarLinear(kg)])
    return blk


def make_block(kind, half=4, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    return RevBlock(kind, half, rng=rng, dtype=dtype), rng


class TestRevForward:
    def test_zero_branches_identity(self):
        blk = scalar_block(0.0, 0.0)
        y1, y2 = blk.forward((np.array([1.5]), np.array([-2.0])))
        assert y1.item() == 1.5 and y2.item() == -2.0

    def test_scalar_arithmetic(self):
        blk = scalar_block(2.0, 1.0)
        y1, y2 = blk.forward((np.array([1.0]), np.array([3.0])))
        assert y1.item() == 7.0 and y2.item() == 10.0

    def test_shape_preserved(self):
        blk, rng = make_block("basic")
        x1 = rng.normal(size=(2, 4, 6, 5))
        x2 = rng.normal(size=(2, 4, 6, 5))
        y1, y2 = blk.forward((x1, x2))
        assert y1.shape == x1.shape and y2.shape == x2.shape


class TestRevInverse:
    def test_zero_branches(self):
        blk = scalar_block(0.0, 0.0)
        x1, x2 = blk.inverse((np.array([4.0]), np.array([5.0])))
        assert x1.item() == 4.0 and x2.item() == 5.0

    def test_scalar_inverse(self):
        blk = scalar_block(2.0, 1.0)
        x1, x2 = blk.inverse((np.array([7.0]), np.array([10.0])))
        assert x1.item() == 1.0 and x2.item() == 3.0

    @pytest.mark.parametrize("kind", ["basic", "bottleneck", "df_bottleneck"])
    def test_roundtrip_float32(self, kind):
        blk, rng = make_block(kind, dtype=np.float32)
        x1 = rng.normal(size=(2, 4, 8, 6)).astype(np.float32)
        x2 = rng.normal(size=(2, 4, 8, 6)).astype(np.float32)
        b1, b2 = blk.inverse(blk.forward((x1, x2)))
        assert max(np.abs(b1 - x1).max(), np.abs(b2 - x2).max()) <= 1e-4

    def test_missing_stats_raises(self):
        blk, rng = make_block("basic")
        y = rng.normal(size=(2, 4, 8, 6))
        with pytest.raises(StateError, match="statistics"):
            blk.inverse((y, y.copy()))


class TestRevBackward:
    def test_hand_chain_rule(self):
        # F(v)=2v, G(v)=v, upstream ones: dL/dz1 = 1 + 1*1 = 2; dL/dx2 = 1 + 2*2 = 5
        blk = scalar_block(2.0, 1.0)
        one = np.array([1.0])
        y = blk.forward((np.array([1.0]), np.array([3.0])))
        (x1, x2), (gx1, gx2) = blk.rev_backward(y, (one, one))
        assert x1.item() == 1.0 and x2.item() == 3.0
        assert gx1.item() == 2.0 and gx2.item() == 5.0

    def test_zero_branches_pass_gradients_through(self):
        blk = scalar_block(0.0, 0.0)
        g1, g2 = np.array([0.3]), np.array([-0.7])
        _, (gx1, gx2) = blk.rev_backward((np.array([1.0]), np.array([2.0])), (g1, g2))
        assert gx1.item() == 0.3 and gx2.item() == -0.7

    @pytest.mark.parametrize("kind", ["basic", "bottleneck", "df_bottleneck"])
    def test_matches_stored_mode_autodiff(self, kind):
        blk, rng = make_block(kind)
        x = ops.channel_split(rng.normal(size=(2, 8, 8, 6)))
        gy = ops.channel_split(rng.normal(size=(2, 8, 8, 6)))

        tape = []
        y = blk.forward(x, tape=tape)
        for p in blk.params():
            p.zero_grad()
        gx_stored = blk.backward(gy, tape[0])
        stored_grads = [p.grad.copy() for p in blk.params()]

        for p in blk.params():
            p.zero_grad()
        y2 = blk.forward(x)
        for a, b in zip(y, y2):
            np.testing.assert_array_equal(a, b)
        x_rec, gx_rev = blk.rev_backward(y2, gy)
        for got, ref in zip(gx_rev, gx_stored):
            assert mixed_err(got, ref) <= 1e-6
        for got, ref in zip(x_rec, x):
            assert mixed_err(got, ref) <= 1e-6
        for p, ref in zip(blk.params(), stored_grads):
            assert mixed_err(p.grad, ref) <= 1e-6

    def test_param_grad_slices_returned(self):
        blk = scalar_block(2.0, 1.0)
        one = np.array([1.0])
        y = blk.forward((np.array([1.0]), np.array([3.0])))
        for p in blk.params():
            p.zero_grad()
        blk.rev_backward(y, (one, one))
        # dL/dkf = x2 * dL/dz1 = 3*2; dL/dkg = z1 * dL/dy2 = 7*1
        assert blk.f.params()[0].grad.item() == 6.0
        assert blk.g.params()[0].grad.item() == 7.0

    def test_param_grads_vs_finite_differences(self):
        blk, rng = make_block("basic", half=3)
        x = ops.channel_split(rng.normal(size=(2, 6, 6, 5)))
        r = rng.normal(size=(2, 6, 6, 5))

        y = blk.forward(x)
        for p in blk.params():
            p.zero_grad()
        blk.rev_backward(y, ops.channel_split(r))
        for p in blk.params():
            fd = central_diff_proj(lambda: ops.channel_concat(*blk.forward(x)), r, p.value)
            assert mixed_err(p.grad, fd) <= 1e-6


class TestAlgorithmOneOrder:
    """rev_backward runs G's replay and VJP before F's replay (Gomez et al. 2017)."""

    def test_g_tape_released_before_f_replay(self, monkeypatch):
        blk, rng = make_block("df_bottleneck")
        y = blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6))))
        gy = ops.channel_split(rng.normal(size=(2, 8, 8, 6)))
        events, g_arrays, alive_at_f = [], [], []
        g_forward, g_backward, f_forward = blk.g.forward, blk.g.backward, blk.f.forward

        def traced_g_forward(x, tape=None, replay=False):
            out = g_forward(x, tape=tape, replay=replay)
            events.append("g_replay")
            # the tape's first entry is y1 itself, which the caller holds
            g_arrays.extend(weakref.ref(a) for a in tape if a is not x)
            return out

        def traced_g_backward(gy2, entries):
            events.append("g_vjp")
            return g_backward(gy2, entries)

        def traced_f_forward(x, tape=None, replay=False):
            events.append("f_replay")
            alive_at_f.extend(r for r in g_arrays if r() is not None)
            return f_forward(x, tape=tape, replay=replay)

        monkeypatch.setattr(blk.g, "forward", traced_g_forward)
        monkeypatch.setattr(blk.g, "backward", traced_g_backward)
        monkeypatch.setattr(blk.f, "forward", traced_f_forward)
        blk.rev_backward(y, gy)
        assert events == ["g_replay", "g_vjp", "f_replay"]
        assert len(g_arrays) == 4  # BN, ReLU, depthwise and last-conv inputs
        assert alive_at_f == []

    @pytest.mark.parametrize("kind", ["basic", "bottleneck", "df_bottleneck"])
    def test_equals_backward_on_rebuilt_tape(self, kind):
        # the same arithmetic as a stored-tape backward over the rebuilt
        # inputs, so every result is bit-identical; the tapes end empty
        blk, rng = make_block(kind)
        y = blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6))))
        gy = ops.channel_split(rng.normal(size=(2, 8, 8, 6)))
        x_rec = blk.inverse(y)
        f_tape, g_tape = [], []
        blk.f.forward(x_rec[1], tape=f_tape, replay=True)
        blk.g.forward(y[0], tape=g_tape, replay=True)
        for p in blk.params():
            p.zero_grad()
        gx_ref = blk.backward(gy, (f_tape, g_tape))
        assert f_tape == [] and g_tape == []
        ref = [p.grad.copy() for p in blk.params()]
        for p in blk.params():
            p.zero_grad()
        x_got, gx_got = blk.rev_backward(y, gy)
        for got, want in zip(x_got + gx_got, x_rec + gx_ref):
            np.testing.assert_array_equal(got, want)
        for p, want in zip(blk.params(), ref):
            np.testing.assert_array_equal(p.grad, want)


class TestRevDownsample:
    def test_delegates_to_rearrangement(self, rng):
        x = rng.normal(size=(1, 3, 4, 6))
        (y,) = RevDownsample(2).forward((x,))
        assert y.shape == (1, 12, 2, 3)
        np.testing.assert_array_equal(y, ops.pixel_unshuffle(x, 2))
        np.testing.assert_array_equal(ops.pixel_shuffle(y, 2), x)

    def test_shape_rule_production_size(self):
        x = np.zeros((2, 48, 80, 200))
        assert ops.pixel_unshuffle(x, 2).shape == (2, 192, 40, 100)

    def test_pair_matches_whole_tensor(self, rng):
        # rearranging each half equals rearranging the whole tensor and splitting it
        x = rng.normal(size=(2, 6, 4, 8))
        layer = RevDownsample(2)
        halves = layer.forward(ops.channel_split(x))
        whole = ops.channel_split(ops.pixel_unshuffle(x, 2))
        for a, b in zip(halves, whole):
            np.testing.assert_array_equal(a, b)
        (gx,) = layer.backward((ops.pixel_unshuffle(x, 2),), None)
        np.testing.assert_array_equal(
            ops.channel_concat(*layer.backward(halves, None)), gx)
