"""Reversible block semantics: coupling, inversion, coupled backward."""

import tracemalloc
import weakref

import numpy as np
import pytest

from revmem import layers, ops
from revmem.errors import StateError
from revmem.layers import (
    DFBottleneck, Param, ResidualBlock, RevBlock, RevDownsample, Sequential, make_residual_fn,
)

from conftest import central_diff_proj, fresh_backward, mixed_err, scaled_err


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
        (x1, x2), (gx1, gx2) = blk.rev_backward(list(y), [one, one])
        assert x1.item() == 1.0 and x2.item() == 3.0
        assert gx1.item() == 2.0 and gx2.item() == 5.0

    def test_zero_branches_pass_gradients_through(self):
        blk = scalar_block(0.0, 0.0)
        g1, g2 = np.array([0.3]), np.array([-0.7])
        _, (gx1, gx2) = blk.rev_backward([np.array([1.0]), np.array([2.0])], [g1, g2])
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
        x_rec, gx_rev = blk.rev_backward(list(y2), list(gy))
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
        blk.rev_backward(list(y), [one, one])
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
        blk.rev_backward(list(y), list(ops.channel_split(r)))
        for p in blk.params():
            fd = central_diff_proj(lambda: ops.channel_concat(*blk.forward(x)), r, p.value)
            assert mixed_err(p.grad, fd) <= 1e-6


class TestCotangentOwnership:
    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "gy1_is_gy2"])
    @pytest.mark.parametrize("kind", ["basic", "df_bottleneck"])
    def test_backwards_leave_the_cotangent_pair_alone(self, rng, monkeypatch, kind, shared):
        # both backwards read gy2 and gz1 twice, so neither branch may write
        # the cotangent it is handed, even where gy1 and gy2 are one array;
        # with every VJP making a fresh dL/dx they give the same bits
        blk, _ = make_block(kind)
        x = ops.channel_split(rng.normal(size=(2, 8, 8, 6)))
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", x[0].nbytes)
        if kind == "df_bottleneck":
            assert len(layers._channel_groups(x[0], blk.g.layers[0])) == 4
        g1 = rng.normal(size=x[0].shape)
        g2 = g1 if shared else rng.normal(size=x[1].shape)
        given = [g1.copy(), g2.copy()]

        def unchanged():
            return [g1.tobytes(), g2.tobytes()] == [g.tobytes() for g in given]

        results = []
        for backward in (Sequential.backward, fresh_backward):
            monkeypatch.setattr(Sequential, "backward", backward)
            for p in blk.params():
                p.zero_grad()
            tape = []
            y = blk.forward(x, tape=tape)
            stored = blk.backward((g1, g2), tape[0])
            assert unchanged()
            _, rev = blk.rev_backward(list(y), [g1, g2])
            assert unchanged()
            results.append([*stored, *rev] + [p.grad.copy() for p in blk.params()])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()


class TestAlgorithmOneOrder:
    """rev_backward runs G's replay and VJP before F's replay (Gomez et al. 2017)."""

    def test_g_tape_released_before_f_replay(self, monkeypatch):
        # a tape-path kind; the DF bottleneck's grouped path has its own twin
        blk, rng = make_block("bottleneck")
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
        blk.rev_backward(list(y), list(gy))
        assert events == ["g_replay", "g_vjp", "f_replay"]
        assert len(g_arrays) == 4  # BN, ReLU, 3x3-conv and last-conv inputs
        assert alive_at_f == []

    def test_pair_released_after_last_use(self, monkeypatch):
        # y2 is last read to rebuild x2 and gy1 to form gz1, so neither
        # outlives G's half; the lists passed in end empty
        blk, rng = make_block("bottleneck")
        y = list(blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6)))))
        gy = list(ops.channel_split(rng.normal(size=(2, 8, 8, 6))))
        y2, gy1 = weakref.ref(y[1]), weakref.ref(gy[0])
        seen = {}
        f_forward, f_backward = blk.f.forward, blk.f.backward

        def traced_f_forward(x, tape=None, replay=False):
            seen["y2 at f_replay"] = y2() is not None
            return f_forward(x, tape=tape, replay=replay)

        def traced_f_backward(gz1, entries):
            seen["gy1 at f_vjp"] = gy1() is not None
            return f_backward(gz1, entries)

        monkeypatch.setattr(blk.f, "forward", traced_f_forward)
        monkeypatch.setattr(blk.f, "backward", traced_f_backward)
        blk.rev_backward(y, gy)
        assert seen == {"y2 at f_replay": False, "gy1 at f_vjp": False}
        assert y == [] and gy == []

    def test_grouped_g_runs_before_f(self, monkeypatch):
        # the DF branch's twin of the two tape-path tests: every op of G's
        # fused replay and VJP runs before F's first, y2 is gone by F's
        # replay and gy1 by F's VJP, and of G's arrays only x2 and gz1 are
        # alive when F starts: the first group's shares, into which G
        # folded the rest
        blk, rng = make_block("df_bottleneck")
        y = list(blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6)))))
        gy = list(ops.channel_split(rng.normal(size=(2, 8, 8, 6))))
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 6 * 2 * 8 * 6 * 8)  # 3 groups
        assert len(layers._channel_groups(y[0], blk.g.layers[0])) == 3
        y2, gy1 = weakref.ref(y[1]), weakref.ref(gy[0])
        events, g_results, seen = [], [], {}
        weights = {id(p.value): name for name, branch in (("g", blk.g), ("f", blk.f))
                   for p in branch.params()}

        def spy(name, fn):
            def call(*args, **kwargs):
                branch = next((weights[id(a.base)] for a in args
                               if isinstance(a, np.ndarray) and id(a.base) in weights), None)
                if branch == "f" and "f" not in events:
                    seen["g arrays at f"] = [r() for r in g_results if r() is not None]
                    seen["y2 at f"] = y2() is not None
                if branch == "f" and name.endswith("_vjp") and "f_vjp" not in seen:
                    seen["f_vjp"] = gy1() is not None
                out = fn(*args, **kwargs)
                if branch is not None:
                    events.append(branch)
                if branch == "g":
                    g_results.extend(weakref.ref(a) for a in
                                     (out if isinstance(out, tuple) else (out,)))
                return out

            return call

        for name in ("conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp",
                     "batchnorm2d", "batchnorm2d_vjp"):
            monkeypatch.setattr(ops, name, spy(name, getattr(ops, name)))
        (_, x2), (gz1, _) = blk.rev_backward(y, gy)
        assert events == ["g"] * (len(events) // 2) + ["f"] * (len(events) // 2)
        assert len(events) == 2 * 3 * 8  # per group: 4 replay and 4 VJP ops
        alive = seen.pop("g arrays at f")
        assert len(alive) == 2 and alive[0] is x2 and alive[1] is gz1
        assert seen == {"y2 at f": False, "f_vjp": False}
        assert y == [] and gy == []

    @pytest.mark.parametrize("kind", ["basic", "bottleneck", "df_bottleneck"])
    def test_equals_backward_on_rebuilt_tape(self, kind):
        # the same arithmetic as a stored-tape backward over the rebuilt
        # inputs, so every result is bit-identical; the tapes end empty
        blk, rng = make_block(kind)
        y = blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6))))
        self.check_equals_backward_on_rebuilt_tape(blk, y, rng)

    def test_three_groups_fold_alike(self, monkeypatch):
        # with three DF groups, rev_backward folds each share into the
        # rebuilt pair and the cotangent in group order, ((y2 - s1) - s2) -
        # s3; stored backward and inverse fold in the same order, so all
        # three stay bit-identical
        blk, rng = make_block("df_bottleneck")
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 6 * 2 * 8 * 6 * 8)
        y = blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6))))
        assert len(layers._channel_groups(y[0], blk.g.layers[0])) == 3
        x_got = self.check_equals_backward_on_rebuilt_tape(blk, y, rng)
        np.testing.assert_array_equal(x_got[1], minus_shares(blk.g, y[0], y[1]))
        np.testing.assert_array_equal(x_got[0], minus_shares(blk.f, x_got[1], y[0]))

    @staticmethod
    def check_equals_backward_on_rebuilt_tape(blk, y, rng):
        """Asserts rev_backward's pair equals inverse(y), and its cotangent
        and gradients a stored backward's over the rebuilt tape, bit for
        bit; returns the pair."""
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
        x_got, gx_got = blk.rev_backward(list(y), list(gy))
        for got, want in zip(x_got + gx_got, x_rec + gx_ref):
            np.testing.assert_array_equal(got, want)
        for p, want in zip(blk.params(), ref):
            np.testing.assert_array_equal(p.grad, want)
        return x_got


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


def df_branch(width, dtype, seed=0):
    return make_residual_fn("df_bottleneck", width, rng=np.random.default_rng(seed),
                            dtype=dtype)


def minus_shares(branch, x, y):
    """y minus each channel group's share of branch(x), in group order, each
    share computed op by op on the captured statistics."""
    conv1, bn, _, dw, conv2 = branch.layers
    mean, var = bn.saved_stats
    for g in layers._channel_groups(x, conv1):
        h = ops.conv2d(x, conv1.w.value[g], conv1.stride)
        b, _, _ = ops.batchnorm2d(h, bn.gamma.value[g], bn.beta.value[g], bn.eps,
                                  stats=(mean[g], var[g]))
        d = ops.depthwise_conv2d(ops.relu(b), dw.w.value[g])
        y = y - ops.conv2d(d, conv2.w.value[:, g], conv2.stride)
    return y


class TestGroupedDFBranch:
    """The DF branch's 4x-wide middle runs one group of mid channels at a time."""

    @pytest.mark.parametrize("x_shape, groups", [
        ((4, 8, 80, 32), 4),  # train-rev-df, stage 1
        ((4, 8, 40, 16), 2),  # train-rev-df, stage 2
        ((2, 4, 8, 6), 1),  # the test blocks
        ((1, 24, 80, 200), 4),  # DF-RevNet89, stage 1
    ])
    def test_group_rule(self, x_shape, groups):
        # the fewest groups whose arrays fit max(x's bytes, FLAT_SHIFT_BYTES)
        branch = df_branch(x_shape[1], np.float32)
        x = np.zeros(x_shape, np.float32)
        got = layers._channel_groups(x, branch.layers[0])
        assert len(got) == groups
        assert [g.start for g in got[1:]] == [g.stop for g in got[:-1]]
        assert got[0].start == 0 and got[-1].stop == 4 * x_shape[1]
        budget = max(x.nbytes, ops.FLAT_SHIFT_BYTES)
        assert all((g.stop - g.start) * x.nbytes // x_shape[1] <= budget for g in got)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_groups_match_whole_tensor(self, rng, monkeypatch, dtype, tol):
        branch = df_branch(8, dtype)
        bn = branch.layers[1]
        x = rng.standard_normal((2, 8, 6, 5)).astype(dtype)
        gy = rng.standard_normal(x.shape).astype(dtype)

        def run():
            out = branch.forward(x)  # capture
            stats = [a.copy() for a in bn.saved_stats]
            for p in branch.params():
                p.zero_grad()
            rest, gx = branch.replay_vjp(gy, x, [out])
            taped = branch.forward(x, tape=[], replay=True)
            np.testing.assert_array_equal(rest, minus_shares(branch, x, out))
            np.testing.assert_array_equal(taped, out)
            return out, gx, stats, [p.grad.copy() for p in branch.params()]

        assert len(layers._channel_groups(x, branch.layers[0])) == 1
        whole = run()
        # 12 mid channels' worth of budget: groups of 10, 11 and 11 of 32
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        sizes = [g.stop - g.start for g in layers._channel_groups(x, branch.layers[0])]
        assert sizes == [10, 11, 11]
        grouped = run()
        for got, want in zip(grouped[2] + grouped[3], whole[2] + whole[3]):
            np.testing.assert_array_equal(got, want)
        assert scaled_err(grouped[0], whole[0]) <= tol
        assert scaled_err(grouped[1], whole[1]) <= tol

    @pytest.mark.parametrize("site", ["rev_block", "checkpoint", "stored"])
    def test_replay_vjp_holds_no_wide_array(self, rng, monkeypatch, site):
        # at train-rev-df's stage-1 shape the middle is (4, 32, 80, 32), four
        # groups of (4, 8, 80, 32); no op returns more than a group, and the
        # rise stays under the narrow output and dL/dx (and, for a
        # ResidualBlock's checkpoint, dL/dx plus the skip's), four group
        # arrays (h, r, dL/dd and dL/dr) and the depthwise VJP's three
        # blocks, plus, in stored mode, the tape's three wide arrays; run as
        # one group, the same fused call rises by 6.4 MB
        x = rng.standard_normal((4, 8, 80, 32), dtype=np.float32)
        gy = rng.standard_normal(x.shape, dtype=np.float32)
        group = x.nbytes  # 8 of the 32 mid channels
        taped = 0
        if site == "rev_block":
            branch = df_branch(8, np.float32)
            y = branch.forward(x)
            run, narrow = (lambda: branch.replay_vjp(gy, x, [y])), 2
        elif site == "checkpoint":
            block = ResidualBlock("df_bottleneck", 8, 8, rng=rng, dtype=np.float32)
            block.forward(x)
            run, narrow = (lambda: block.backward_from_input(gy, x)), 3
        else:
            branch = df_branch(8, np.float32)

            def run():
                tape = []
                branch.forward(x, tape=tape)
                return branch.backward(gy, tape)

            narrow, taped = 2, 3 * 4 * group
        largest = []

        def spy(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                largest.append(max(a.nbytes for a in (out if isinstance(out, tuple) else (out,))))
                return out

            return call

        for name in ("conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp",
                     "batchnorm2d", "batchnorm2d_vjp", "relu", "relu_vjp"):
            monkeypatch.setattr(ops, name, spy(getattr(ops, name)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            rise = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert max(largest) == group
        slack = 3 * np.getbufsize() * 4 + (64 << 10)  # ufunc buffers, per-plane taps
        assert rise <= narrow * x.nbytes + taped + 4 * group + 3 * ops.FLAT_SHIFT_BYTES + slack

    def test_rev_backward_holds_six_half_streams(self, rng):
        # at train-rev-df's stage-1 pair, (4, 8, 80, 32) a stream, with the
        # lists holding the only references: each branch folds its group
        # shares into the rebuilt stream and the cotangent, so at G's
        # depthwise VJP y1, x2, gz1, gy2 and a group's h and r are alive,
        # six half-streams (a group is 8 of the 32 mid channels), beside the
        # dL/dd that the VJP overwrites with its dL/dr, and its columns.
        # Summing the shares apart from y2 and gy1 held two half-streams
        # more, and a fresh dL/dr beside dL/dd one more
        blk = RevBlock("df_bottleneck", 8, rng=rng, dtype=np.float32)
        y0 = blk.forward(tuple(rng.standard_normal((2, 4, 8, 80, 32), dtype=np.float32)))
        gy0 = list(rng.standard_normal((2, 4, 8, 80, 32), dtype=np.float32))
        half = y0[0].nbytes
        assert len(layers._channel_groups(y0[0], blk.g.layers[0])) == 4
        blk.rev_backward(list(map(np.copy, y0)), list(map(np.copy, gy0)))  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            blk.rev_backward(list(map(np.copy, y0)), list(map(np.copy, gy0)))
            rise = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        per_plane = 3 * 4 * 8 * 9 * 4  # the depthwise VJP's taps and per-plane dL/dw
        slack = 3 * np.getbufsize() * 4 + (64 << 10)  # ufunc buffers
        assert rise <= (6 + 1) * half + 2 * ops.FLAT_SHIFT_BYTES + per_plane + slack

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stored_backward_equals_fused_replay(self, rng, monkeypatch, dtype):
        # a stored branch tapes the groups the fused replay runs, and both
        # backwards run one per-group VJP over them in the same order, so
        # the output, dL/dx and every gradient agree bit for bit
        branch = df_branch(8, dtype)
        x = rng.standard_normal((2, 8, 6, 5)).astype(dtype)
        gy = rng.standard_normal(x.shape).astype(dtype)
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        assert len(layers._channel_groups(x, branch.layers[0])) == 3
        tape = []
        out = branch.forward(x, tape=tape)
        for p in branch.params():
            p.zero_grad()
        gx = branch.backward(gy, tape)
        assert tape == []
        ref = [p.grad.copy() for p in branch.params()]
        for p in branch.params():
            p.zero_grad()
        rest, gx_fused = branch.replay_vjp(gy, x, [out])
        np.testing.assert_array_equal(rest, minus_shares(branch, x, out))
        np.testing.assert_array_equal(gx_fused, gx)
        for p, want in zip(branch.params(), ref):
            np.testing.assert_array_equal(p.grad, want)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_checkpoint_groups_match_taped(self, rng, monkeypatch, dtype, tol):
        # a ResidualBlock's checkpoint backward replays its DF branch group by
        # group; with three groups it matches the taped backward
        block = ResidualBlock("df_bottleneck", 8, 8, rng=rng, dtype=dtype)
        x = rng.standard_normal((2, 8, 6, 5)).astype(dtype)
        gy = rng.standard_normal(x.shape).astype(dtype)
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        assert len(layers._channel_groups(x, block.branch.layers[0])) == 3
        tape = []
        block.forward(x, tape=tape)
        for p in block.params():
            p.zero_grad()
        gx_taped = block.backward(gy, tape)
        ref = [p.grad.copy() for p in block.params()]
        for p in block.params():
            p.zero_grad()
        assert scaled_err(block.backward_from_input(gy, x), gx_taped) <= tol
        for p, want in zip(block.params(), ref):
            assert scaled_err(p.grad, want) <= tol

    def test_every_branch_replay_is_one_replay_vjp(self, rng, monkeypatch):
        # a RevBlock's backward replays G, then F, each with one replay_vjp
        # call that pops its y and the cotangent it adds dL/dx to; a
        # ResidualBlock's checkpoint backward replays its branch with one
        # call and neither, for a plain and a DF chain alike
        calls = []

        def spy(replay_vjp):
            def call(self, gy, x, ys=None, gs=None):
                calls.append((self, ys is not None, gs is not None))
                return replay_vjp(self, gy, x, ys, gs)

            return call

        # a DFBottleneck replays through Sequential's one replay_vjp
        assert not {"replay_vjp", "rebuild"} & set(vars(DFBottleneck))
        monkeypatch.setattr(Sequential, "replay_vjp", spy(Sequential.replay_vjp))
        for kind in ("basic", "df_bottleneck"):
            calls.clear()
            blk, _ = make_block(kind)
            y = list(blk.forward(ops.channel_split(rng.normal(size=(2, 8, 8, 6)))))
            blk.rev_backward(y, list(ops.channel_split(rng.normal(size=(2, 8, 8, 6)))))
            block = ResidualBlock(kind, 8, 8, rng=rng, dtype=np.float64)
            x = rng.normal(size=(2, 8, 8, 6))
            block.forward(x)
            block.backward_from_input(rng.normal(size=x.shape), x)
            assert calls == [(blk.g, True, True), (blk.f, True, True),
                             (block.branch, False, False)]
