"""Residual branch composition, skip wiring, and parameter gradients."""

import weakref

import numpy as np
import pytest

from revmem import layers, ops
from revmem.errors import ConfigError
from revmem.optim import OPTIMIZERS, make_optimizer
from revmem.layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    DFBottleneck,
    Param,
    ReLU,
    ResidualBlock,
    Sequential,
    make_residual_fn,
)

from conftest import central_diff_proj, fresh_backward, mixed_err


def branch(kind, width=8, c_in=None, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return make_residual_fn(kind, width, rng=rng, dtype=dtype, c_in=c_in)


class TestComposition:
    def test_basic_is_conv_bn_relu_conv(self):
        b = branch("basic")
        kinds = [type(l) for l in b.layers]
        assert kinds == [Conv2d, BatchNorm2d, ReLU, Conv2d]
        assert b.layers[0].w.value.shape[2:] == b.layers[3].w.value.shape[2:] == (3, 3)

    def test_bottleneck_is_conv_bn_relu_conv_conv(self):
        b = branch("bottleneck")
        kinds = [type(l) for l in b.layers]
        assert kinds == [Conv2d, BatchNorm2d, ReLU, Conv2d, Conv2d]
        assert [l.w.value.shape[2] for l in b.layers if isinstance(l, Conv2d)] == [1, 3, 1]
        assert len(b.layers[0].w.value) == 2  # quarter of the branch width

    def test_df_is_conv_bn_relu_dconv_conv(self):
        b = branch("df_bottleneck")
        kinds = [type(l) for l in b.layers]
        assert kinds == [Conv2d, BatchNorm2d, ReLU, DepthwiseConv2d, Conv2d]
        assert len(b.layers[0].w.value) == 32  # 4x expansion
        assert len(b.layers[4].w.value) == 8

    def test_all_branch_convs_are_stride_one(self):
        for kind in ("basic", "bottleneck", "df_bottleneck"):
            for l in branch(kind).layers:
                if isinstance(l, (Conv2d, DepthwiseConv2d)):
                    assert l.stride == 1

    def test_width_preserved(self, rng):
        x = rng.normal(size=(2, 8, 6, 5))
        for kind in ("basic", "bottleneck", "df_bottleneck"):
            assert branch(kind).forward(x).shape == x.shape

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            branch("inverted")


class TestReluTape:
    @pytest.mark.parametrize("kind", ["basic", "bottleneck"])
    def test_relu_tapes_its_output_as_the_next_layers_input(self, kind, rng):
        # conv, BN, ReLU, next layer: the ReLU's entry and the next layer's
        # are one array, the ReLU's output; BN's output is not taped
        b = branch(kind)
        x = rng.normal(size=(2, 8, 6, 5))
        tape = []
        b.forward(x, tape=tape)
        y_bn = b.layers[1].forward(b.layers[0].forward(x))
        assert tape[3] is tape[2]
        np.testing.assert_array_equal(tape[2], np.maximum(y_bn, 0))
        assert len({id(a) for a in tape}) == len(tape) - 1

    def test_df_tapes_each_groups_relu_output_once(self, rng, monkeypatch):
        # a DF branch tapes x, then each channel group's chain tape
        # [x, h, r, r, d]: x, the first conv's rows, their BN's ReLU output,
        # taped by the ReLU and by the depthwise conv as one array, and the
        # depthwise conv's output; each array but x is one group's own
        b = branch("df_bottleneck")
        conv1, bn, _, dw, _ = b.layers
        x = rng.normal(size=(2, 8, 6, 5))
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        groups = layers._channel_groups(x, conv1)
        assert len(groups) == 3
        tape = []
        b.forward(x, tape=tape)
        assert tape[0] is x and len(tape) == 1 + len(groups)
        mean, var = bn.saved_stats
        for g, (x_g, h, r, r_dw, d) in zip(groups, tape[1:]):
            assert x_g is x and r_dw is r
            np.testing.assert_array_equal(h, ops.conv2d(x, conv1.w.value[g]))
            y, _, _ = ops.batchnorm2d(h, bn.gamma.value[g], bn.beta.value[g], bn.eps,
                                      stats=(mean[g], var[g]))
            np.testing.assert_array_equal(r, np.maximum(y, 0))
            np.testing.assert_array_equal(d, ops.depthwise_conv2d(r, dw.w.value[g]))
        assert len({id(a) for e in tape[1:] for a in e[1:]}) == 3 * len(groups)

    def test_only_a_df_bottleneck_tapes_groups(self, rng, monkeypatch):
        # a hand-built chain of the DF branch's five layer types is a plain
        # chain, one tape entry per layer; only make_residual_fn's
        # DFBottleneck tapes x followed by each group's own chain tape
        rng_w = np.random.default_rng(0)
        chain = Sequential([
            Conv2d(8, 32, 1, rng=rng_w, dtype=np.float64),
            BatchNorm2d(32, dtype=np.float64),
            ReLU(),
            DepthwiseConv2d(32, 3, rng=rng_w, dtype=np.float64),
            Conv2d(32, 8, 1, rng=rng_w, dtype=np.float64),
        ])
        df = branch("df_bottleneck")
        assert type(chain) is Sequential and isinstance(df, DFBottleneck)
        x = rng.normal(size=(2, 8, 6, 5))
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        tape = []
        chain.forward(x, tape=tape)
        assert len(tape) == len(chain.layers) and tape[0] is x
        assert all(isinstance(e, np.ndarray) for e in tape)
        tape = []
        df.forward(x, tape=tape)
        assert tape[0] is x and len(tape) == 1 + len(layers._channel_groups(x, df.layers[0])) == 4
        assert all(isinstance(e, list) and len(e) == len(chain.layers) and e[0] is x
                   for e in tape[1:])


class TestZeroBranch:
    @pytest.mark.parametrize("kind", ["basic", "bottleneck", "df_bottleneck"])
    def test_zero_weights_give_zero_output(self, kind, rng):
        b = branch(kind)
        for l in b.layers:
            if isinstance(l, (Conv2d, DepthwiseConv2d)):
                l.w.value[...] = 0.0
        x = rng.normal(size=(2, 8, 4, 4))
        np.testing.assert_array_equal(b.forward(x), np.zeros_like(x))


class TestBranchGradients:
    @pytest.mark.parametrize("kind", ["basic", "bottleneck", "df_bottleneck"])
    def test_param_gradients_vs_finite_differences(self, kind, rng):
        b = branch(kind, width=4)
        x = rng.normal(size=(2, 4, 4, 4))
        r = rng.normal(size=x.shape)
        tape = []
        b.forward(x, tape=tape)
        for p in b.params():
            p.zero_grad()
        b.backward(r, tape)
        for p in b.params():
            fd = central_diff_proj(lambda: b.forward(x), r, p.value)
            assert mixed_err(p.grad, fd) <= 1e-6


class TestResidualBlock:
    def test_identity_skip_when_shape_preserved(self, rng):
        blk = ResidualBlock("basic", 8, 8, rng=rng, dtype=np.float64)
        assert blk.proj is None
        for l in blk.branch.layers:
            if isinstance(l, Conv2d):
                l.w.value[...] = 0.0
        x = rng.normal(size=(1, 8, 4, 4))
        np.testing.assert_array_equal(blk.forward(x), x)

    def test_projection_on_width_change(self, rng):
        blk = ResidualBlock("basic", 8, 16, rng=rng, dtype=np.float64)
        assert blk.proj is not None and blk.proj.w.value.shape[2] == 1
        x = rng.normal(size=(1, 8, 4, 4))
        assert blk.forward(x).shape == (1, 16, 4, 4)

    def test_downsampling_block_halves_space(self, rng):
        blk = ResidualBlock("basic", 8, 16, rng=rng, dtype=np.float64, stride=2)
        assert blk.proj.stride == 2
        x = rng.normal(size=(1, 8, 8, 6))
        assert blk.forward(x).shape == (1, 16, 4, 3)

    def test_checkpoint_backward_matches_taped(self, rng):
        blk = ResidualBlock("df_bottleneck", 8, 8, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 8, 4, 4))
        gy = rng.normal(size=(2, 8, 4, 4))
        tape = []
        blk.forward(x, tape=tape)
        for p in blk.params():
            p.zero_grad()
        gx_taped = blk.backward(gy, tape)
        assert tape == []
        ref = [p.grad.copy() for p in blk.params()]
        for p in blk.params():
            p.zero_grad()
        gx_ckpt = blk.backward_from_input(gy, x)
        np.testing.assert_array_equal(gx_taped, gx_ckpt)
        for p, g in zip(blk.params(), ref):
            np.testing.assert_array_equal(p.grad, g)


class TestSegmentReplay:
    @pytest.mark.parametrize("method", ["backward_from_input", "replay_vjp"])
    def test_frees_its_cotangent_after_the_last_layers_vjp(self, rng, monkeypatch, method):
        # a stem-like segment handed its cotangent by pop, as run_backward
        # hands it: the cotangent is dropped once the ReLU's VJP has
        # returned, so BN's VJP runs without it
        seg = Sequential([Conv2d(1, 4, 3, rng=rng, dtype=np.float64),
                          BatchNorm2d(4, dtype=np.float64), ReLU()])
        x = rng.normal(size=(2, 1, 6, 5))
        gs = [rng.normal(size=seg.forward(x).shape)]
        gy = weakref.ref(gs[0])
        bn, seen = seg.layers[1], []
        bn_backward = bn.backward

        def traced_backward(g, entry, **kwargs):
            seen.append(gy() is not None)
            return bn_backward(g, entry, **kwargs)

        monkeypatch.setattr(bn, "backward", traced_backward)
        getattr(seg, method)(gs.pop(), x)
        assert seen == [False]


class TestGradientRouting:
    @pytest.mark.parametrize("make, x_shape, vjp", [
        (lambda rng: Conv2d(3, 4, 3, rng=rng, dtype=np.float64), (2, 3, 5, 4), "conv2d_vjp"),
        (lambda rng: Conv2d(3, 4, 1, stride=2, rng=rng, dtype=np.float64), (2, 3, 5, 4),
         "conv2d_vjp"),
        (lambda rng: DepthwiseConv2d(3, rng=rng, dtype=np.float64), (2, 3, 5, 4),
         "depthwise_conv2d_vjp"),
        (lambda rng: BatchNorm2d(3, dtype=np.float64), (2, 3, 5, 4), "batchnorm2d_vjp"),
        (lambda rng: layers.Linear(6, 4, rng=rng, dtype=np.float64), (3, 6), "linear_vjp"),
    ], ids=["conv3x3", "conv1x1_stride2", "depthwise", "batchnorm", "linear"])
    def test_backward_hands_each_grad_to_the_vjp(self, rng, monkeypatch, make, x_shape, vjp):
        # the op is handed each Param.grad, in params() order, as its last
        # arguments and adds the parameter cotangents straight into them
        layer = make(rng)
        x = rng.normal(size=x_shape)
        tape = []
        gy = rng.normal(size=layer.forward(x, tape).shape)
        original, calls = getattr(ops, vjp), []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ops, vjp, recording)
        grads = [p.grad for p in layer.params()]
        priors = [rng.normal(size=g.shape) for g in grads]
        for g, prior in zip(grads, priors):
            g[...] = prior
        gx = layer.backward(gy, tape.pop())
        (args,) = calls
        assert all(a is g for a, g in zip(args[-len(grads):], grads))
        fresh = original(*args[:-len(grads)])
        np.testing.assert_array_equal(gx, fresh[0])
        for g, prior, ref in zip(grads, priors, fresh[1:]):
            np.testing.assert_allclose(g, prior + ref, rtol=1e-12)


class TestCotangentOwnership:
    """No backward writes the gy it is handed, which its caller may read
    again; inside a chain, each VJP after the first writes dL/dx into the
    cotangent the chain's own VJP made, with the bits of a fresh dL/dx."""

    @staticmethod
    def unit(rng, monkeypatch, name):
        x = rng.normal(size=(2, 8, 6, 5))
        if name == "segment":  # stem-like: the chain's first VJP is the ReLU's
            return Sequential([Conv2d(8, 4, 3, rng=rng, dtype=np.float64),
                               BatchNorm2d(4, dtype=np.float64), ReLU()]), x
        kind = name.removeprefix("residual_")
        if kind == name:
            unit = chain = branch(kind)
        else:
            unit = ResidualBlock(kind, 8, 8, rng=rng, dtype=np.float64)
            chain = unit.branch
        if kind == "df_bottleneck":  # three channel groups
            monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
            assert len(layers._channel_groups(x, chain.layers[0])) == 3
        return unit, x

    @staticmethod
    def run(unit, x, gy, method):
        if method == "backward":
            tape = []
            unit.forward(x, tape=tape)
            return unit.backward(gy, tape)
        unit.forward(x)  # captures the statistics a replay reads
        if method == "replay_vjp":
            return unit.replay_vjp(gy, x)[1]
        return unit.backward_from_input(gy, x)

    @pytest.mark.parametrize("name, method", [
        (name, method) for name in ("segment", "basic", "df_bottleneck")
        for method in ("backward", "replay_vjp", "backward_from_input")
    ] + [(name, method) for name in ("residual_basic", "residual_df_bottleneck")
         for method in ("backward", "backward_from_input")])
    def test_handed_cotangent_is_left_alone(self, rng, monkeypatch, name, method):
        # the same call with every VJP making a fresh dL/dx gives the same
        # dL/dx and gradients, bit for bit
        unit, x = self.unit(rng, monkeypatch, name)
        gy = rng.normal(size=unit.forward(x).shape)
        given = gy.copy()
        results = []
        for backward in (Sequential.backward, fresh_backward):
            monkeypatch.setattr(Sequential, "backward", backward)
            for p in unit.params():
                p.zero_grad()
            gx = self.run(unit, x, gy, method)
            assert gy.tobytes() == given.tobytes()
            results.append([gx] + [p.grad.copy() for p in unit.params()])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name, into_gy", [
        ("segment", {"relu_vjp": False, "batchnorm2d_vjp": True}),
        ("basic", {"relu_vjp": True, "batchnorm2d_vjp": True}),
        ("df_bottleneck", {"depthwise_conv2d_vjp": True, "relu_vjp": True,
                           "batchnorm2d_vjp": True}),
    ])
    def test_later_vjps_write_into_the_chains_cotangent(self, rng, monkeypatch, name,
                                                        into_gy):
        # each VJP after a chain's first is handed its gy as out; the first,
        # whose gy is the caller's, makes a fresh dL/dx
        unit, x = self.unit(rng, monkeypatch, name)
        gy = rng.normal(size=unit.forward(x).shape)
        seen = {op: set() for op in into_gy}

        def spy(op, fn):
            def call(*args, out=None):
                seen[op].add(out is not None and out is args[1 if op == "relu_vjp" else 2])
                return fn(*args, out=out)

            return call

        for op in into_gy:
            monkeypatch.setattr(ops, op, spy(op, getattr(ops, op)))
        self.run(unit, x, gy, "backward")
        assert seen == {op: {flag} for op, flag in into_gy.items()}


class TestNarrowing:
    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_param_view_writes_land_in_its_slice(self, rng, name):
        # a gradient and an optimizer step through a view write only the
        # whole Param's slice, the step bit-equal to one on a lone copy
        whole = Param(rng.normal(size=(6, 5, 3, 3)))
        index = (slice(None), slice(1, 3))
        part = whole.view(index)
        assert part.value.base is whole.value and part.grad.base is whole.grad
        alone = Param(whole.value[index].copy())
        before = whole.value.copy()
        g = rng.normal(size=part.grad.shape)
        part.grad += g
        alone.grad += g
        outside = np.ones(whole.value.shape, bool)
        outside[index] = False
        np.testing.assert_array_equal(whole.grad[index], g)
        assert not whole.grad[outside].any()
        make_optimizer(name, [part], 1e-2).step()
        make_optimizer(name, [alone], 1e-2).step()
        np.testing.assert_array_equal(whole.value[index], alone.value)
        np.testing.assert_array_equal(whole.value[outside], before[outside])

    @pytest.mark.parametrize("case", ["conv_rows", "conv_1x1_columns", "conv_3x3_columns",
                                      "depthwise", "batchnorm"])
    def test_vjp_accumulates_through_a_view_only_into_its_slice(self, rng, case):
        # a DF group's layers hand their VJPs Param.views of the whole
        # layer's gradients; the cotangent lands in the group's slice alone
        g = slice(1, 3)
        x = rng.normal(size=(2, 2, 6, 5))
        gy = rng.normal(size=x.shape)
        if case == "batchnorm":
            gamma, beta = Param(rng.uniform(0.5, 1.5, 6)), Param(rng.normal(size=6))
            _, mean, var = ops.batchnorm2d(x, gamma.value[g], beta.value[g])
            wholes, index = [gamma, beta], g
            parts = [p.view(index) for p in wholes]
            args = (x, parts[0].value, gy, mean, var, 1e-5)
            vjp = ops.batchnorm2d_vjp
        else:
            shape, index = {
                "conv_rows": ((6, 2, 3, 3), g),
                "conv_1x1_columns": ((2, 6, 1, 1), (slice(None), g)),
                "conv_3x3_columns": ((2, 6, 3, 3), (slice(None), g)),
                "depthwise": ((6, 1, 3, 3), g),
            }[case]
            wholes = [Param(rng.normal(size=shape))]
            parts = [wholes[0].view(index)]
            w = parts[0].value
            if case == "depthwise":
                vjp, args = ops.depthwise_conv2d_vjp, (x, w, gy)
            else:
                gy = rng.normal(size=ops.conv2d(x, w).shape)
                vjp, args = ops.conv2d_vjp, (x, w, gy, 1)
        fresh = vjp(*args)[1:]
        priors = []
        for p in wholes:
            p.grad[...] = rng.normal(size=p.grad.shape)
            priors.append(p.grad.copy())
        vjp(*args, *(p.grad for p in parts))
        for p, prior, ref in zip(wholes, priors, fresh):
            outside = np.ones(p.grad.shape, bool)
            outside[index] = False
            np.testing.assert_allclose(p.grad[index], prior[index] + ref, rtol=1e-12)
            np.testing.assert_array_equal(p.grad[outside], prior[outside])

    def test_narrowed_capture_updates_only_its_running_slice(self, rng, monkeypatch):
        # a DF group's BN capture updates its slice of the whole layer's
        # running statistics in place, bit-equal to the whole-tensor
        # update, and leaves the rest and the whole's captured ones alone
        b = branch("df_bottleneck")
        bn = b.layers[1]
        bn.running_mean[...] = rng.normal(size=bn.gamma.size)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=bn.gamma.size)
        x = rng.normal(size=(2, 8, 6, 5))
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        g = layers._channel_groups(x, b.layers[0])[1]
        part = list(b._chains(x))[1].layers[1]
        arrays = bn.running_mean, bn.running_var
        before = [a.copy() for a in arrays]
        stats = rng.normal(size=bn.gamma.size), rng.uniform(0.5, 2.0, size=bn.gamma.size)
        part.capture(stats[0][g], stats[1][g])
        outside = np.ones(bn.gamma.size, bool)
        outside[g] = False
        m = bn.momentum
        for run, new, old, stat in zip(arrays, (bn.running_mean, bn.running_var), before, stats):
            assert new is run
            np.testing.assert_array_equal(run[g], ((1 - m) * old + m * stat)[g])
            np.testing.assert_array_equal(run[outside], old[outside])
        assert bn.saved_stats is None
