"""Dual-mode execution, saved-store accounting, and the memory ledger."""

import collections
import gc
import inspect
import weakref

import numpy as np
import pytest

from revmem import layers, ops, zoo
from revmem.engine import (
    MODES,
    MemoryLedger,
    Network,
    ledger_plan,
    run_backward,
    run_forward,
    walk,
)
from revmem.errors import ConfigError, ShapeError, StateError
from revmem.layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    GlobalStatPool,
    Linear,
    Planned,
    ReLU,
    ResidualBlock,
    RevBlock,
)
from revmem.optim import OPTIMIZERS, make_optimizer

from conftest import mixed_err, random_toy_spec


def toy_net(dtype=np.float64, blocks=(1, 1), width=8, kind="basic", seed=3):
    return zoo.build(zoo.toy_spec(list(blocks), width, kind), dtype=dtype, seed=seed)


def batch(rng, n=2, frames=8, dtype=np.float64):
    return rng.normal(size=(n, 1, 80, frames)).astype(dtype)


def batch_norms(layers):
    """Every BatchNorm2d in `layers` or in their children."""
    return [bn for l in layers
            for bn in ([l] if isinstance(l, BatchNorm2d) else batch_norms(l.children()))]


class TestRunForward:
    def test_unknown_mode_rejected(self, rng):
        net = toy_net()
        with pytest.raises(ConfigError, match="mode"):
            run_forward(net, batch(rng), "eager")

    def test_input_spec_enforced(self, rng):
        net = toy_net()
        with pytest.raises(ShapeError):
            run_forward(net, rng.normal(size=(2, 1, 40, 8)), "stored")

    @pytest.mark.parametrize("net_dtype, batch_dtype",
                             [(np.float32, np.float64), (np.float64, np.float32)])
    def test_batch_dtype_must_match_network(self, rng, net_dtype, batch_dtype):
        net = toy_net(dtype=net_dtype)
        with pytest.raises(ConfigError) as info:
            run_forward(net, batch(rng, dtype=batch_dtype), "reversible")
        msg = str(info.value)
        assert np.dtype(net_dtype).name in msg and np.dtype(batch_dtype).name in msg

    def test_empty_net_passthrough_caches_nothing(self, rng):
        net = zoo.build(zoo.NetworkSpec("empty", []), dtype=np.float64)
        x = batch(rng)
        out, store, ledger = run_forward(net, x, "reversible")
        np.testing.assert_array_equal(out, x)
        assert ledger.activations == 0
        assert ledger.weights == 0

    def test_empty_batch_rejected(self, rng):
        net = toy_net()
        with pytest.raises(ShapeError, match="empty"):
            run_forward(net, batch(rng)[:0], "reversible")

    def test_embedding_shape_and_finiteness(self, rng):
        net = toy_net(dtype=np.float32)
        out, _, _ = run_forward(net, batch(rng, dtype=np.float32), "reversible")
        assert out.shape == (2, net.embedding_dim)
        assert np.all(np.isfinite(out))

    def test_modes_produce_identical_outputs(self, rng):
        # caching policy must not change the forward values at all; at 32
        # frames the DF branches' middles run in three channel groups, which
        # both modes run alike, so each batch norm captures equal statistics
        net = toy_net(dtype=np.float64, kind="df_bottleneck")
        bns = batch_norms(net.layers)
        for frames, groups in ((8, 1), (32, 3)):
            x = batch(rng, frames=frames)
            stream = np.zeros((2, 4, 80, frames))  # one half of the first run's input
            branch = next(l for l in net.layers if isinstance(l, RevBlock)).f
            assert len(layers._channel_groups(stream, branch.layers[0])) == groups
            stored, _, _ = run_forward(net, x, "stored")
            stats = [bn.saved_stats for bn in bns]
            reversible, _, _ = run_forward(net, x, "reversible")
            np.testing.assert_array_equal(stored, reversible)
            for (mean, var), bn in zip(stats, bns):
                np.testing.assert_array_equal(bn.saved_stats[0], mean)
                np.testing.assert_array_equal(bn.saved_stats[1], var)

    def test_run_input_freed_at_split(self, rng, monkeypatch):
        # reversible mode saves no downsampling block's output, so once the
        # next run has split it into its pair nothing holds it
        net = zoo.build(zoo.toy_spec([1, 1], 8, "basic", "type1"), np.float64, seed=3)
        i = next(i for i, l in enumerate(net.layers) if isinstance(l, ResidualBlock))
        block, head = net.layers[i], net.layers[i + 1]
        assert isinstance(head, RevBlock)
        seen = {}
        block_forward, head_forward = block.forward, head.forward

        def spy_block(x, tape=None, replay=False):
            y = block_forward(x, tape=tape, replay=replay)
            seen["out"] = weakref.ref(y)
            return y

        def spy_head(xs, tape=None, replay=False):
            seen["alive at split"] = seen["out"]() is not None
            return head_forward(xs, tape=tape, replay=replay)

        monkeypatch.setattr(block, "forward", spy_block)
        monkeypatch.setattr(head, "forward", spy_head)
        run_forward(net, batch(rng), "reversible")
        assert seen["alive at split"] is False

    def test_cached_tensor_count_depth_independent(self, rng):
        counts = []
        for depth in (4, 32):
            net = toy_net(dtype=np.float32, blocks=(depth, depth))
            _, store, _ = run_forward(net, batch(rng, dtype=np.float32), "reversible")
            counts.append(store.full_tensor_count())
        assert counts[0] == counts[1]

    def test_stored_bytes_grow_linearly_with_depth(self, rng):
        led = {}
        for depth in (4, 8, 16):
            net = toy_net(dtype=np.float32, blocks=(depth, depth))
            _, _, ledger = run_forward(net, batch(rng, dtype=np.float32), "stored")
            led[depth] = ledger.activations
        # the depth-independent part cancels in each difference, and doubling
        # the added depth doubles the added bytes
        ratio = (led[16] - led[8]) / (led[8] - led[4])
        assert abs(ratio - 2.0) <= 0.05 * 2.0


class TestRunBackward:
    def test_gradients_match_across_modes(self, rng):
        net = toy_net()
        x = batch(rng)
        out, store, _ = run_forward(net, x, "stored")
        r = rng.normal(size=out.shape)
        net.zero_grad()
        run_backward(net, store, r, "stored")
        ref = [p.grad.copy() for p in net.params()]
        net.zero_grad()
        out2, store2, _ = run_forward(net, x, "reversible")
        run_backward(net, store2, r, "reversible")
        for p, g in zip(net.params(), ref):
            assert mixed_err(p.grad, g) <= 1e-6

    def test_zero_loss_gradient_gives_zero_param_grads(self, rng):
        net = toy_net()
        out, store, _ = run_forward(net, batch(rng), "reversible")
        net.zero_grad()
        run_backward(net, store, np.zeros_like(out), "reversible")
        assert all(np.all(p.grad == 0) for p in net.params())

    def test_store_consumed_once(self, rng):
        net = toy_net()
        out, store, _ = run_forward(net, batch(rng), "stored")
        run_backward(net, store, np.zeros_like(out), "stored")
        with pytest.raises(StateError, match="consumed"):
            run_backward(net, store, np.zeros_like(out), "stored")

    def test_mode_mismatch_rejected(self, rng):
        net = toy_net()
        out, store, _ = run_forward(net, batch(rng), "stored")
        with pytest.raises(StateError, match="mode"):
            run_backward(net, store, np.zeros_like(out), "reversible")

    def test_store_bound_to_network(self, rng):
        net, other = toy_net(), toy_net(seed=9)
        out, store, _ = run_forward(net, batch(rng), "stored")
        with pytest.raises(StateError, match="different network"):
            run_backward(other, store, np.zeros_like(out), "stored")

    def test_cotangent_shape_checked(self, rng):
        net = toy_net()
        out, store, _ = run_forward(net, batch(rng), "stored")
        with pytest.raises(ShapeError, match="cotangent shape"):
            run_backward(net, store, np.zeros((out.shape[0], out.shape[1] + 1)), "stored")
        # a rejected cotangent leaves the store usable
        run_backward(net, store, np.zeros_like(out), "stored")

    def test_cotangent_dtype_checked(self, rng):
        net = toy_net(dtype=np.float32)
        out, store, _ = run_forward(net, batch(rng, dtype=np.float32), "reversible")
        with pytest.raises(ConfigError) as info:
            run_backward(net, store, np.zeros(out.shape, np.float64), "reversible")
        assert "float64" in str(info.value) and "float32" in str(info.value)

    def test_state_checks_precede_cotangent_checks(self, rng):
        net = toy_net()
        out, store, _ = run_forward(net, batch(rng), "stored")
        bad = np.zeros((1, 1), np.float32)
        with pytest.raises(StateError, match="mode"):
            run_backward(net, store, bad, "reversible")
        run_backward(net, store, np.zeros_like(out), "stored")
        with pytest.raises(StateError, match="consumed"):
            run_backward(net, store, bad, "stored")

    def test_grad_accumulation_is_additive(self, rng):
        net = toy_net()
        x = batch(rng)
        net.zero_grad()
        out, store, _ = run_forward(net, x, "stored")
        r = rng.normal(size=out.shape)
        run_backward(net, store, r, "stored")
        once = [p.grad.copy() for p in net.params()]
        out, store, _ = run_forward(net, x, "stored")
        run_backward(net, store, r, "stored")
        for p, g in zip(net.params(), once):
            np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-12)

    def test_running_stats_identical_across_modes(self, rng):
        x = batch(rng)
        stats = {}
        for mode in ("stored", "reversible"):
            net = toy_net(seed=11)
            out, store, _ = run_forward(net, x, mode)
            run_backward(net, store, np.ones_like(out), mode)
            bn = [l for l in net.layers if isinstance(l, BatchNorm2d)][0]
            stats[mode] = (bn.running_mean.copy(), bn.running_var.copy())
        np.testing.assert_array_equal(stats["stored"][0], stats["reversible"][0])
        np.testing.assert_array_equal(stats["stored"][1], stats["reversible"][1])

    def test_random_mixed_nets_agree(self, rng):
        for i in range(5):
            spec = random_toy_spec(np.random.default_rng(500 + i))
            net = zoo.build(spec, dtype=np.float64, seed=i)
            x = batch(rng)
            out, store, _ = run_forward(net, x, "stored")
            r = rng.normal(size=out.shape)
            net.zero_grad()
            run_backward(net, store, r, "stored")
            ref = [p.grad.copy() for p in net.params()]
            net.zero_grad()
            _, store2, _ = run_forward(net, x, "reversible")
            run_backward(net, store2, r, "reversible")
            for p, g in zip(net.params(), ref):
                assert mixed_err(p.grad, g) <= 1e-6

    @pytest.mark.parametrize("mode", ["stored", "reversible"])
    def test_backward_releases_store_but_keeps_counts(self, rng, mode):
        net = toy_net(dtype=np.float32, kind="df_bottleneck")
        x = batch(rng, dtype=np.float32)
        out, store, ledger = run_forward(net, x, mode)
        nbytes, count = store.activation_nbytes(), store.full_tensor_count()
        saved = [weakref.ref(a) for a in store.activation_arrays() if a is not x]
        assert saved and nbytes == ledger.activations
        run_backward(net, store, np.ones_like(out), mode)
        assert store.entries == [] and store.activation_arrays() == []
        assert all(r() is None for r in saved)  # freed while the store lives
        assert store.activation_nbytes() == nbytes
        assert store.full_tensor_count() == count


# conv(3) puts an odd channel count at a run head (rev_ds before the first
# block), and the second rev_ds sits between two rev_res stages of one run
ODD_HEAD_SPEC = """{
  "name": "odd-head",
  "stages": [
    {"op": "conv", "c": 3},
    {"op": "rev_ds", "r": 2, "c_out": 12},
    {"op": "rev_res", "kind": "basic", "c_half": 6, "repeat": 2},
    {"op": "rev_ds", "r": 2, "c_out": 48},
    {"op": "rev_res", "kind": "df_bottleneck", "c_half": 24, "repeat": 1},
    {"op": "pooling"},
    {"op": "fc", "d_in": 1920, "d_out": 16}
  ],
  "embedding_dim": 16
}"""


class TestRunShapes:
    def test_odd_head_modes_agree(self, rng):
        net = zoo.build(zoo.spec_from_json(ODD_HEAD_SPEC), dtype=np.float64, seed=5)
        x = batch(rng)
        out, store, _ = run_forward(net, x, "stored")
        r = rng.normal(size=out.shape)
        net.zero_grad()
        gx = run_backward(net, store, r, "stored")
        ref = [p.grad.copy() for p in net.params()]
        net.zero_grad()
        out2, store2, _ = run_forward(net, x, "reversible")
        gx2 = run_backward(net, store2, r, "reversible")
        np.testing.assert_array_equal(out, out2)
        assert mixed_err(gx2, gx) <= 1e-6
        for p, g in zip(net.params(), ref):
            assert mixed_err(p.grad, g) <= 1e-6

    @pytest.mark.parametrize("mode", ["stored", "reversible"])
    def test_odd_head_plan_matches_real_run(self, rng, mode):
        net = zoo.build(zoo.spec_from_json(ODD_HEAD_SPEC), dtype=np.float32, seed=5)
        _, store, ledger = run_forward(net, batch(rng, dtype=np.float32), mode)
        assert ledger.activations == ledger_plan(net, 2, 8, mode).activations
        assert store.activation_nbytes() == ledger.activations

    @pytest.mark.parametrize("mode", ["stored", "reversible"])
    @pytest.mark.parametrize("spec, runs", [
        (zoo.spec_from_json(ODD_HEAD_SPEC), 1),
        (zoo.toy_spec([3, 2], 8, "basic"), 2),
    ], ids=["odd-head", "two-runs"])
    def test_forward_splits_and_concats_once_per_run(self, rng, monkeypatch, mode, spec, runs):
        calls = {"channel_split": 0, "channel_concat": 0}

        def counted(name):
            original = getattr(ops, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        net = zoo.build(spec, dtype=np.float32, seed=1)
        for name in calls:
            monkeypatch.setattr(ops, name, counted(name))
        run_forward(net, batch(rng, dtype=np.float32), mode)
        assert calls == {"channel_split": runs, "channel_concat": runs}

    @pytest.mark.parametrize("mode, shuffles", [("stored", (3, 1)), ("reversible", (5, 1))])
    @pytest.mark.parametrize("spec, runs, case", [
        (zoo.spec_from_json(ODD_HEAD_SPEC), 1, 0),
        (zoo.toy_spec([3, 2], 8, "basic"), 2, 1),
    ], ids=["odd-head", "two-runs"])
    def test_backward_joins_only_the_cotangent(self, rng, monkeypatch, mode, shuffles,
                                               spec, runs, case):
        # the rebuilt input of a run's head is never read, so reversible mode
        # joins and shuffles it no more than stored mode does; the odd head's
        # second downsampler sits inside the run and must rebuild its input
        calls = {"channel_concat": 0, "pixel_shuffle": 0}

        def counted(name):
            original = getattr(ops, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        net = zoo.build(spec, dtype=np.float32, seed=1)
        out, store, _ = run_forward(net, batch(rng, dtype=np.float32), mode)
        for name in calls:
            monkeypatch.setattr(ops, name, counted(name))
        run_backward(net, store, np.ones_like(out), mode)
        assert calls == {"channel_concat": runs, "pixel_shuffle": shuffles[case]}

    # after an 8-channel stem, layers that take 7 channels, or 3 in a
    # RevBlock, whose F branch's first conv gets a half of 4, or a second
    # pooling, which gets the first one's (n, 1280): (the layers, the message)
    WRONG_WIDTH = {
        "rev-basic": (lambda r, d: [RevBlock("basic", 3, rng=r, dtype=d)],
                      "input has 4 channels but kernel expects 3"),
        "rev-df_bottleneck": (lambda r, d: [RevBlock("df_bottleneck", 3, rng=r, dtype=d)],
                              "input has 4 channels but kernel expects 3"),
        "depthwise": (lambda r, d: [DepthwiseConv2d(7, rng=r, dtype=d)],
                      "input has 8 channels but depthwise kernel has 7"),
        "batch-norm": (lambda r, d: [BatchNorm2d(7, dtype=d)],
                       "input has 8 channels but batch norm gamma/beta have shapes (7,)/(7,)"),
        "linear": (lambda r, d: [GlobalStatPool(), Linear(7, 8, rng=r, dtype=d)],
                   "linear expects d_in=7, got 1280"),
        "pooling": (lambda r, d: [GlobalStatPool(), GlobalStatPool()],
                    "input must be rank-4 (n, c, f, t), got shape (2, 1280)"),
    }

    @pytest.mark.parametrize("case", WRONG_WIDTH)
    def test_layer_of_the_wrong_width_raises_alike(self, rng, case):
        # a plan refuses the width with the op's own message, as a run does
        dtype = np.float32
        build_rng = np.random.default_rng(0)
        make, message = self.WRONG_WIDTH[case]
        net = Network([Conv2d(1, 8, 3, rng=build_rng, dtype=dtype), *make(build_rng, dtype)],
                      (1, 80), 8, dtype)
        for mode in MODES:
            with pytest.raises(ShapeError) as ran:
                run_forward(net, batch(rng, dtype=dtype), mode)
            with pytest.raises(ShapeError) as planned:
                ledger_plan(net, 2, 8, mode)
            assert str(ran.value) == message
            assert str(planned.value) == str(ran.value)

    def test_odd_width_run_head_raises_alike(self, rng):
        # 7 channels reach the run's first block, which cannot halve them: a
        # plan refuses the split as a run does, not at the block's pair
        dtype = np.float32
        build_rng = np.random.default_rng(0)
        net = Network([Conv2d(1, 7, 3, rng=build_rng, dtype=dtype),
                       RevBlock("basic", 4, rng=build_rng, dtype=dtype)], (1, 80), 8, dtype)
        for mode in MODES:
            with pytest.raises(ConfigError) as ran:
                run_forward(net, batch(rng, dtype=dtype), mode)
            with pytest.raises(ConfigError) as planned:
                ledger_plan(net, 2, 8, mode)
            assert str(ran.value) == "channel_split requires an even channel count, got 7"
            assert str(planned.value) == str(ran.value)


class TestLedger:
    def test_plan_matches_real_run_both_modes(self, rng):
        # the plan's one shape walk against real arrays, on nets mixing
        # residual kinds, projections, strided and odd-channel downsampling
        specs = [zoo.toy_spec([2, 1], 8, kind) for kind in ("basic", "df_bottleneck")]
        specs += [random_toy_spec(np.random.default_rng(seed)) for seed in range(500, 510)]
        specs.append(zoo.spec_from_json(ODD_HEAD_SPEC))
        for i, spec in enumerate(specs):
            for dtype in (np.float32, np.float64):
                net = zoo.build(spec, dtype=dtype, seed=i)
                x = batch(rng, dtype=dtype)
                for mode in ("stored", "reversible"):
                    _, store, ledger = run_forward(net, x, mode)
                    plan = ledger_plan(net, 2, 8, mode)
                    assert ledger.activations == plan.activations
                    assert ledger.weights == plan.weights
                    assert ledger.gradients == plan.gradients
                    assert ledger.workspace == plan.workspace
                    assert store.activation_nbytes() == plan.activations

    @pytest.mark.parametrize("spec", [zoo.spec_from_json(ODD_HEAD_SPEC),
                                      zoo.toy_spec([1, 1], 8, "bottleneck", "type1")],
                             ids=["odd-head", "type1"])
    def test_plan_leaves_layer_state_untouched(self, rng, spec):
        # planning reads shapes only: no batch norm statistic, running
        # statistic, weight or gradient may change, not even its array
        net = zoo.build(spec, dtype=np.float64, seed=5)
        out, store, _ = run_forward(net, batch(rng), "stored")
        run_backward(net, store, rng.normal(size=out.shape), "stored")
        bns = batch_norms(net.layers)
        assert bns
        arrays = [(bn.saved_stats, bn.running_mean, bn.running_var) for bn in bns]
        copies = [[a.copy() for a in (*bn.saved_stats, bn.running_mean, bn.running_var)]
                  for bn in bns]
        params = [(p, p.value, p.grad, p.value.copy(), p.grad.copy()) for p in net.params()]
        for mode in ("stored", "reversible"):
            for optimizer in ("none", "sgd8", "adam8"):
                ledger_plan(net, 4, 32, mode, optimizer)
        for bn, (saved, mean, var), copy in zip(bns, arrays, copies):
            assert bn.saved_stats is saved
            assert bn.running_mean is mean and bn.running_var is var
            for a, b in zip((*bn.saved_stats, bn.running_mean, bn.running_var), copy):
                np.testing.assert_array_equal(a, b)
        for p, value, grad, value_copy, grad_copy in params:
            assert p.value is value and p.grad is grad
            np.testing.assert_array_equal(p.value, value_copy)
            np.testing.assert_array_equal(p.grad, grad_copy)

    @pytest.mark.parametrize("n, frames", [(0, 8), (-3, 200), (2, 0), (2, -4)])
    def test_plan_rejects_sizes_below_one(self, n, frames):
        net = toy_net(dtype=np.float32)
        with pytest.raises(ConfigError, match="at least 1"):
            ledger_plan(net, n, frames, "stored")

    @pytest.mark.parametrize("n, frames", [(2.5, 8), (2, 8.0), (True, 8), (2, False), ("2", 8)])
    def test_plan_rejects_sizes_that_are_not_integers(self, n, frames):
        # a fractional batch would plan fractional bytes, and a bool passes as 0 or 1
        net = toy_net(dtype=np.float32)
        with pytest.raises(ConfigError, match="integers of at least 1"):
            ledger_plan(net, n, frames, "stored")

    def test_plan_takes_numpy_integers(self):
        net = toy_net(dtype=np.float32)
        planned = ledger_plan(net, np.int64(2), np.int32(8), "stored")
        assert planned == ledger_plan(net, 2, 8, "stored")
        assert type(planned.activations) is int

    def test_counting_saved_bytes_leaves_no_reference_cycle(self, rng):
        # saved arrays must die with the store, not wait for the cyclic GC
        net = toy_net(dtype=np.float32, kind="df_bottleneck")
        x = batch(rng, dtype=np.float32)
        gc.collect()
        gc.disable()
        try:
            out, store, _ = run_forward(net, x, "stored")
            assert store.activation_nbytes() > 0
            saved = weakref.ref([a for a in store.activation_arrays() if a is not x][-1])
            del out, store
            assert saved() is None
        finally:
            gc.enable()

    def test_weights_bytes_exact(self):
        net = toy_net(dtype=np.float32)
        plan = ledger_plan(net, 1, 8, "stored")
        assert plan.weights == 4 * net.param_count

    def test_reversible_activation_bytes_depth_invariant(self):
        vals = set()
        for depth in (4, 8, 16, 32):
            net = toy_net(dtype=np.float32, blocks=(depth, depth))
            vals.add(ledger_plan(net, 2, 8, "reversible").activations)
        assert len(vals) == 1

    def test_reversible_compresses_toy_activations(self):
        net = toy_net(dtype=np.float32, blocks=(4, 4))
        sto = ledger_plan(net, 1, 8, "stored").activations
        rev = ledger_plan(net, 1, 8, "reversible").activations
        assert rev <= 0.25 * sto

    def test_resnet34_activations_dominate(self):
        net = zoo.build("ResNet34", dtype=np.float32)
        plan = ledger_plan(net, 64, 200, "stored", optimizer="sgd")
        assert plan.shares()["activations"] >= 0.85

    def test_optimizer_state_accounting(self):
        for dtype in (np.float32, np.float64):
            net = toy_net(dtype=dtype)
            n, width = net.param_count, np.dtype(dtype).itemsize
            assert ledger_plan(net, 1, 8, "stored", "sgd").optimizer_states == width * n
            assert ledger_plan(net, 1, 8, "stored", "adamw").optimizer_states == 2 * width * n
            # 8-bit state is quantized per tensor, so the plan must equal the real optimizers
            for name in OPTIMIZERS:
                got = ledger_plan(net, 1, 8, "stored", optimizer=name).optimizer_states
                assert got == make_optimizer(name, net.params(), 1e-3).state_nbytes(), name

    def test_csv_report_format(self):
        led = MemoryLedger(activations=100, weights=50, gradients=50,
                           optimizer_states=0, workspace=0)
        text = led.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "category,bytes,share"
        assert lines[1].startswith("activations,100,0.5")
        assert len(lines) == 6


def consumer_net(stages, c, f, dtype=np.float32):
    """A conv-stem net of `stages` closed by pooling and an fc, its last stage
    leaving c channels over f frequency rows."""
    spec = zoo.NetworkSpec("relu-consumer", stages + [zoo.Pooling(), zoo.Fc(2 * c * f, 16)], 16)
    return zoo.build(spec, dtype=dtype, seed=2)


def plan_store(net, mode="stored", n=2, frames=8):
    """The store of the engine's walk on a planned batch, which ledger_plan counts."""
    return walk(net, Planned((n, *net.input_spec, frames)), mode)[1]


def record_calls(monkeypatch, layer):
    """A list that gets (input, output) of each call of `layer`'s forward,
    planned or real."""
    calls, forward = [], layer.forward

    def record(x, tape=None, replay=False):
        calls.append((x, forward(x, tape=tape, replay=replay)))
        return calls[-1][1]

    monkeypatch.setattr(layer, "forward", record)
    return calls


def descendants(layers):
    """`layers` and all their sublayers."""
    return [d for l in layers for d in (l, *descendants(l.children()))]


def primitives(layers):
    """The childless layers among `layers` and their descendants, in forward order."""
    return [p for l in layers for p in (primitives(l.children()) if l.children() else [l])]


# Each net's stages after the conv stem (conv, batch norm, ReLU), its last
# width and frequency rows, and the childless layers that take a ReLU's
# output as their input, in walk order. A run's split halves and a downsampler's
# rearrangement are copies, so no layer takes the stem ReLU's output ahead
# of a run.
RELU_CONSUMERS = {
    "stem-to-residual-block": ([zoo.Res("basic", 8, 1)], 8, 80, ["Conv2d", "Conv2d"]),
    "stem-to-conv": ([zoo.Conv(8)], 8, 80, ["Conv2d", "GlobalStatPool"]),
    "branch-conv-after-run-head": ([zoo.RevRes("df_bottleneck", 4, 1)], 8, 80,
                                   ["DepthwiseConv2d", "DepthwiseConv2d"]),
    "downsampler-led-run": ([zoo.RevDs(2, 32), zoo.RevRes("bottleneck", 16, 1)], 32, 40,
                            ["Conv2d", "Conv2d"]),
    "downsampler-only-run": ([zoo.RevDs(2, 32), zoo.Conv(8)], 8, 40, ["GlobalStatPool"]),
    "stem-to-pool": ([], 8, 80, ["GlobalStatPool"]),
}


class TestReluTape:
    @pytest.mark.parametrize("case", RELU_CONSUMERS)
    def test_plan_marks_each_relu_consumer(self, monkeypatch, case):
        # each consumer tapes the very Planned its ReLU made and taped, so
        # the planned store holds it once
        stages, c, f, consumers = RELU_CONSUMERS[case]
        net = consumer_net([zoo.Conv(8)] + stages, c, f)
        walked = []  # (layer, input, output, what it taped) per planned primitive

        def recording(layer, forward):
            def record(x, tape=None, replay=False):
                size = len(tape) if tape is not None else 0
                y = forward(x, tape=tape, replay=replay)
                if isinstance(x, Planned):
                    walked.append((layer, x, y,
                                   tape[-1] if tape and len(tape) > size else None))
                return y

            return record

        for layer in primitives(net.layers):
            monkeypatch.setattr(layer, "forward", recording(layer, layer.forward))
        store = plan_store(net)
        relu_outputs = [y for l, _, y, _ in walked if isinstance(l, ReLU)]
        taken = [(l, x, taped) for l, x, _, taped in walked
                 if any(x is y for y in relu_outputs)]
        assert [type(l).__name__ for l, _, _ in taken] == consumers
        assert all(taped is x for _, x, taped in taken)
        taped = [t for *_, t in walked if t is not None]
        assert len(store.activation_arrays()) == len(taped) - len(consumers)

    @pytest.mark.parametrize("mode", ["stored", "reversible"])
    @pytest.mark.parametrize("case", RELU_CONSUMERS)
    def test_plan_matches_real_run(self, rng, case, mode):
        stages, c, f, _ = RELU_CONSUMERS[case]
        net = consumer_net([zoo.Conv(8)] + stages, c, f)
        _, store, ledger = run_forward(net, batch(rng, dtype=np.float32), mode)
        assert ledger.activations == ledger_plan(net, 2, 8, mode).activations
        assert store.activation_nbytes() == ledger.activations
        if mode == "stored":
            assert store.full_tensor_count() == len(plan_store(net).activation_arrays())

    @pytest.mark.parametrize("case", ["stem-to-residual-block", "stem-to-conv"])
    def test_reversible_saves_a_relu_output_once(self, rng, monkeypatch, case):
        # the stem's segment saves only its input, the batch; a residual
        # block after it saves its own input, the stem ReLU's output, once,
        # and the plan books the same arrays
        stages, c, f, _ = RELU_CONSUMERS[case]
        net = consumer_net([zoo.Conv(8)] + stages, c, f)
        calls = record_calls(monkeypatch, net.layers[2])
        x = batch(rng, dtype=np.float32)
        _, store, ledger = run_forward(net, x, "reversible")
        planned = plan_store(net, "reversible")
        outputs = [y for _, y in calls]
        (stem, saved), *rest = zip(net.units, store.entries)
        assert isinstance(stem, layers.Sequential) and stem.layers[:3] == net.layers[:3]
        assert saved is x and planned.entries[0].shape == x.shape
        blocks = [e for u, e in zip(net.units, store.entries) if isinstance(u, ResidualBlock)]
        planned_blocks = [e for u, e in zip(net.units, planned.entries)
                          if isinstance(u, ResidualBlock)]
        if case == "stem-to-residual-block":
            assert len(blocks) == 1 and blocks[0] is outputs[0]
            assert planned_blocks[0] is outputs[1]
        else:  # the conv stage, the pooling and the fc join the stem's segment
            assert rest == [] and not blocks and not planned_blocks
        arrays = store.activation_arrays()
        assert sum(a is outputs[0] for a in arrays) == len(blocks)
        assert ledger.activations == ledger_plan(net, 2, 8, "reversible").activations
        assert ledger.activations == sum(a.nbytes for a in arrays)

    @pytest.mark.parametrize("name, activations", [
        ("DF-RevNet66", 372_736_000),  # stem conv, then a conv stage
        ("RevNet46", 563_968_000),  # stem conv, then a residual stage
    ])
    def test_registry_plan_books_a_stem_relu_once(self, monkeypatch, name, activations):
        # the stem's segment saves only the planned batch; a residual block
        # after it saves the stem ReLU's output, booked once
        net = zoo.build(name, dtype=np.float32)
        calls = record_calls(monkeypatch, net.layers[2])
        store = plan_store(net, "reversible", 64, 200)
        outputs = [y for _, y in calls]
        (stem, saved), (unit, entry) = list(zip(net.units, store.entries))[:2]
        assert isinstance(stem, layers.Sequential) and stem.layers[:3] == net.layers[:3]
        assert saved.shape == (64, *net.input_spec, 200)
        block = isinstance(net.layers[3], ResidualBlock)
        assert (unit is net.layers[3] and entry is outputs[0]) == block
        assert sum(a is outputs[0] for a in store.activation_arrays()) == block
        assert ledger_plan(net, 64, 200, "reversible").activations == activations

    @pytest.mark.parametrize("spec", [
        zoo.toy_spec([1, 2], 8, "bottleneck", "type1"),
    ], ids=["type1-bottleneck"])
    def test_stored_tensor_count_drops_by_one_per_branch(self, rng, monkeypatch, spec):
        # against a ReLU that tapes its input: each branch's ReLU output is
        # its next layer's input, so the branch caches one array fewer; no
        # stem ReLU here feeds a layer that tapes its input (a DF branch runs
        # its ReLU once per channel group: see the next test)
        net = zoo.build(spec, dtype=np.float32, seed=1)
        x = batch(rng, dtype=np.float32)
        branches = sum(2 if isinstance(l, RevBlock) else isinstance(l, ResidualBlock)
                       for l in net.layers)
        assert branches > 0
        _, store, _ = run_forward(net, x, "stored")

        def tape_input(self, x, tape=None, replay=False):
            if tape is not None:
                tape.append(x)
            return ops.relu(x)

        monkeypatch.setattr(ReLU, "forward", tape_input)
        _, input_store, _ = run_forward(net, x, "stored")
        assert input_store.full_tensor_count() - store.full_tensor_count() == branches

    @pytest.mark.parametrize("spec", [
        zoo.toy_spec([2, 1], 8, "df_bottleneck"),
        zoo.spec_from_json(ODD_HEAD_SPEC),
    ], ids=["type2-df", "odd-head"])
    def test_df_branch_tapes_each_group_relu_output_once(self, rng, monkeypatch, spec):
        # a DF branch tapes its input, then each channel group's chain tape
        # [x, h, r, r, d]: every ReLU output, a group's r included, comes
        # from a ReLU layer, and r is taped twice, by the branch's ReLU and
        # by its depthwise conv, as one array; the store's bytes equal the
        # plan
        net = zoo.build(spec, dtype=np.float32, seed=1)
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 1 << 12)  # several groups a branch
        relu, relu_layer, groups = ops.relu, ReLU.forward, []
        relu_outputs, layer_outputs, group_outputs = [], set(), []
        df_relus = {id(l.layers[2]) for l in descendants(net.layers)
                    if isinstance(l, layers.DFBottleneck)}

        def spy_relu(x):
            y = relu(x)
            relu_outputs.append(y)
            return y

        def spy_layer(self, x, tape=None, replay=False):
            y = relu_layer(self, x, tape=tape, replay=replay)
            layer_outputs.add(id(y))
            if id(self) in df_relus:
                group_outputs.append(y)
            return y

        def spy_groups(x, conv1):
            got = channel_groups(x, conv1)
            groups.append(len(got))
            return got

        channel_groups = layers._channel_groups
        monkeypatch.setattr(ops, "relu", spy_relu)
        monkeypatch.setattr(ReLU, "forward", spy_layer)
        monkeypatch.setattr(layers, "_channel_groups", spy_groups)
        _, store, ledger = run_forward(net, batch(rng, dtype=np.float32), "stored")
        taped = collections.Counter()
        stack = list(store.entries)
        while stack:
            obj = stack.pop()
            if isinstance(obj, np.ndarray):
                taped[id(obj)] += 1
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
        assert {id(y) for y in relu_outputs} == layer_outputs
        assert len(group_outputs) == sum(groups) > len(groups)
        assert [taped[id(y)] for y in group_outputs] == [2] * sum(groups)
        assert ledger.activations == ledger_plan(net, 2, 8, "stored").activations
        assert store.activation_nbytes() == ledger.activations


class TestCapacity:
    def test_reversible_fits_more_than_stored(self):
        # the planned total is affine in the batch, so the smaller per-sample
        # slope fits more samples into any large enough budget
        net = toy_net(dtype=np.float32, blocks=(4, 4))

        def per_sample(mode):
            return (ledger_plan(net, 2, 8, mode).total()
                    - ledger_plan(net, 1, 8, mode).total())

        assert 0 < per_sample("reversible") < per_sample("stored")


# The benchmark's nets at its batch and frames (perfbench/workloads.py; the
# two DF workloads share one net), the odd head, whose run a downsampler
# leads, and a run of a downsampler alone, which never splits.
WALK_NETS = {
    "train-df": lambda: (zoo.build(zoo.toy_spec([4, 4], 16, "df_bottleneck", "type2"),
                                   np.float32, seed=1), 4, 32),
    "train-wide-q8": lambda: (zoo.build(zoo.toy_spec([1, 1], 64, "basic", "type1"),
                                        np.float32, seed=1), 2, 8),
    "odd-head": lambda: (zoo.build(zoo.spec_from_json(ODD_HEAD_SPEC), np.float32, seed=1),
                         2, 8),
    "downsampler-only-run": lambda: (consumer_net(
        [zoo.Conv(8), zoo.RevDs(2, 32), zoo.Conv(8)], 8, 40), 2, 8),
}


class TestOneWalk:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", WALK_NETS)
    def test_plan_walks_as_run_forward(self, rng, monkeypatch, case, mode):
        net, n, frames = WALK_NETS[case]()
        _, store, _ = run_forward(net, batch(rng, n, frames, np.float32), mode)
        pairs = []
        forward = RevBlock.forward

        def record_pair(self, x, tape=None, replay=False):
            y = forward(self, x, tape=tape, replay=replay)
            if isinstance(x[0], Planned):
                pairs.append((x, y))
            return y

        def refuse(*args, **kwargs):
            raise AssertionError("a plan called an op")

        monkeypatch.setattr(RevBlock, "forward", record_pair)
        # a plan runs the layers' own forwards, so it may call no op of
        # revmem.ops, only the shape arithmetic: conv_out_size and the ops'
        # checked output shapes (conv2d_shape, ...), which take x's shape
        for name, fn in vars(ops).items():
            if (inspect.isfunction(fn) and fn.__module__ == ops.__name__
                    and not name.startswith("_") and name != "conv_out_size"
                    and not name.endswith("_shape")):
                monkeypatch.setattr(ops, name, refuse)
        planned = plan_store(net, mode, n, frames)
        assert len(planned.entries) == len(store.entries) == len(net.units)
        if mode == "stored":  # each unit's tape holds as many entries
            assert [len(t) for t in planned.entries] == [len(t) for t in store.entries]
        else:
            assert [p.shape for p in planned.entries] == [a.shape for a in store.entries]
        assert len(pairs) == sum(isinstance(l, RevBlock) for l in net.layers)
        for pair in (p for x_y in pairs for p in x_y):
            assert len(pair) == 2 and all(isinstance(s, Planned) for s in pair)
            assert pair[0].shape == pair[1].shape and pair[0] is not pair[1]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", ["train-df", "train-wide-q8", "df-type1"])
    def test_plan_stores_what_run_forward_stores(self, rng, case, mode):
        # the planned store nests as the real one does, down to each DF
        # channel group's own tape, with a shape wherever an array sits; the
        # DF nets' branches run in two to four groups
        nets = {**WALK_NETS, "df-type1": lambda: (zoo.build(
            zoo.toy_spec([1, 1], 16, "df_bottleneck", "type1"), np.float32, seed=1), 2, 32)}
        net, n, frames = nets[case]()

        def shapes(entry):
            if isinstance(entry, (list, tuple)):
                return type(entry)(shapes(e) for e in entry)
            return None if entry is None else tuple(entry.shape)

        _, store, _ = run_forward(net, batch(rng, n, frames, np.float32), mode)
        planned = shapes(plan_store(net, mode, n, frames).entries)
        assert planned == shapes(store.entries)


@pytest.mark.parametrize("case", [*zoo.REGISTRY_NAMES, *WALK_NETS])
def test_units_are_layers_partitioning_the_net(case):
    # each unit is one layer: a maximal RevRun of reversible layers, a
    # maximal Sequential segment of plain primitives, or a composite;
    # their members are net.layers in order, and every walk, planned or
    # real, saves one entry per unit
    if case in WALK_NETS:
        net, n, frames = WALK_NETS[case]()
    else:
        net, n, frames = zoo.build(case, np.float32), 1, 8
    groups = (layers.Sequential, layers.RevRun)
    kinds = [type(u) if isinstance(u, groups) else None for u in net.units]
    assert [m for u in net.units for m in (u.layers if isinstance(u, groups) else [u])] \
        == net.layers
    assert all(a is None or a is not b for a, b in zip(kinds, kinds[1:]))
    for unit, kind in zip(net.units, kinds):
        if kind is layers.RevRun:
            assert all(m.reversible for m in unit.layers)
        elif kind is layers.Sequential:
            assert all(not m.reversible and not m.children() for m in unit.layers)
        else:
            assert unit.children() and not unit.reversible
    x = np.zeros((n, *net.input_spec, frames), np.float32)
    for mode in MODES:
        for arg in (x, Planned(x.shape)):
            assert len(walk(net, arg, mode)[1].entries) == len(net.units)


class TestSegments:
    @pytest.mark.parametrize("case", WALK_NETS)
    def test_reversible_store_saves_each_segment_input(self, rng, monkeypatch, case):
        # one entry per unit: a segment of plain primitives holds the very
        # array its first layer took, a composite its own input, and a run
        # its output
        net, n, frames = WALK_NETS[case]()
        segments = [u for u in net.units if isinstance(u, layers.Sequential)]
        assert segments
        firsts = {id(u): record_calls(monkeypatch, u.layers[0]) for u in segments}
        calls = {id(u): record_calls(monkeypatch, u) for u in net.units}
        _, store, _ = run_forward(net, batch(rng, n, frames, np.float32), "reversible")
        assert len(store.entries) == len(net.units)
        for unit, saved in zip(net.units, store.entries):
            (x, y), = calls[id(unit)]
            assert saved is (y if unit.reversible else x)
            if id(unit) in firsts:
                assert saved is firsts[id(unit)][0][0]
            elif not unit.reversible:
                assert isinstance(unit, ResidualBlock)

    @pytest.mark.parametrize("case, activations", [("train-df", 860_160),
                                                   ("train-wide-q8", 496_640)])
    def test_benchmark_reversible_activations_pinned(self, rng, case, activations):
        net, n, frames = WALK_NETS[case]()
        _, _, ledger = run_forward(net, batch(rng, n, frames, np.float32), "reversible")
        assert ledger.activations == ledger_plan(net, n, frames, "reversible").activations
        assert ledger.activations == activations

    @pytest.mark.parametrize("case", ["train-df", "train-wide-q8"])
    def test_batch_norm_statistics_equal_across_modes(self, rng, case):
        # a segment's replay reads the captured statistics and leaves the
        # running ones alone, so both modes leave every batch norm alike
        bns, x, g = {}, None, None
        for mode in MODES:
            net, n, frames = WALK_NETS[case]()
            if x is None:
                x = batch(rng, n, frames, np.float32)
            out, store, _ = run_forward(net, x, mode)
            if g is None:
                g = rng.normal(size=out.shape).astype(out.dtype)
            run_backward(net, store, g, mode)
            bns[mode] = batch_norms(net.layers)
        assert len(bns["stored"]) == len(bns["reversible"]) > 0
        for a, b in zip(bns["stored"], bns["reversible"]):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
            assert all(np.array_equal(p, q) for p, q in zip(a.saved_stats, b.saved_stats))

    def test_replay_skips_an_output_nothing_reads(self, rng, monkeypatch):
        # the fc's backward reads only its input, so the replay of the
        # pooling-and-fc segment stops there and a reversible step runs the
        # fc once. Replaying the fc as well, onto a tape that holds its
        # input, leaves every gradient as it was
        linear, calls, grads = ops.linear, collections.Counter(), {}
        x = batch(rng, 4, 32, np.float32)
        for replay_fc in (False, True):
            net = WALK_NETS["train-df"]()[0]
            fc = net.layers[-1]
            assert isinstance(fc, layers.Linear) and net.units[-1].layers[-1] is fc
            if replay_fc:
                def forward(x, tape=None, replay=False, fc=fc):
                    y = layers.Layer.forward(fc, x, replay=replay)
                    tape is None or tape.append(x)
                    return y
                monkeypatch.setattr(fc, "tapes_output", True, raising=False)
                monkeypatch.setattr(fc, "forward", forward)
            monkeypatch.setattr(ops, "linear",
                                lambda *a, k=replay_fc: calls.update([k]) or linear(*a))
            out, store, _ = run_forward(net, x, "reversible")
            run_backward(net, store, np.ones_like(out), "reversible")
            grads[replay_fc] = [p.grad for p in net.params()]
        assert calls == {False: 1, True: 2}
        assert len(grads[False]) == len(grads[True]) > 0
        assert all(np.array_equal(a, b) for a, b in zip(grads[False], grads[True]))

        # a ResidualBlock's checkpoint replays its branch by the same rule:
        # a basic branch skips its last conv, and a DF branch, here in three
        # channel groups, every group's share of it; dL/dx and every
        # gradient equal the taped backward's
        x = rng.standard_normal((2, 8, 6, 5))
        gy = rng.standard_normal(x.shape)
        monkeypatch.setattr(ops, "FLAT_SHIFT_BYTES", 12 * 2 * 6 * 5 * x.itemsize)
        conv2d, weights = ops.conv2d, []
        monkeypatch.setattr(ops, "conv2d", lambda x, w, *a: weights.append(w) or conv2d(x, w, *a))
        for kind, groups in (("basic", 1), ("df_bottleneck", 3)):
            block = ResidualBlock(kind, 8, 8, rng=rng, dtype=np.float64)
            last = block.branch.layers[-1].w.value
            tape = []
            block.forward(x, tape=tape)
            taped = [w is last or w.base is last for w in weights]
            assert sum(taped) == groups
            for p in block.params():
                p.zero_grad()
            gx_taped = block.backward(gy, tape)
            ref = [p.grad.copy() for p in block.params()]
            for p in block.params():
                p.zero_grad()
            weights.clear()
            np.testing.assert_array_equal(block.backward_from_input(gy, x), gx_taped)
            assert len(weights) == len(taped) - groups
            assert not any(w is last or w.base is last for w in weights)
            for p, want in zip(block.params(), ref):
                np.testing.assert_array_equal(p.grad, want)
            weights.clear()

    @pytest.mark.parametrize("mode", MODES)
    def test_downsampler_plan_raises_the_run_message(self, rng, mode):
        net = WALK_NETS["downsampler-only-run"]()[0]
        with pytest.raises(ConfigError) as planned:
            ledger_plan(net, 2, 7, mode)
        with pytest.raises(ConfigError) as ran:
            run_forward(net, batch(rng, 2, 7, np.float32), mode)
        assert str(planned.value) == str(ran.value)
        assert str(ran.value) == "spatial dims (80, 7) must be divisible by ratio 2"


# activations stored, activations reversible and workspace, in bytes, of
# every registry net's float32 plan at batch 64 and 200 frames
REGISTRY_PLANS = {
    "ResNet34": (2_970_910_720, 1_036_288_000, 15_360),
    "ResNet101": (10_478_714_880, 5_967_872_000, 32_768),
    "ResNet152": (15_295_610_880, 8_720_384_000, 48_128),
    "DF-ResNet56": (12_211_486_720, 1_150_976_000, 70_400),
    "DF-ResNet110": (19_879_198_720, 1_740_800_000, 144_128),
    "DF-ResNet179": (31_806_750_720, 2_658_304_000, 228_096),
    "DF-ResNet233": (39_474_462_720, 3_248_128_000, 301_824),
    "RevNet46": (3_373_312_000, 563_968_000, 18_336),
    "RevNet126": (6_961_070_080, 569_344_000, 49_152),
    "RevNet140": (12_848_896_000, 1_653_760_000, 34_848),
    "RevNet178": (10_573_742_080, 569_344_000, 71_808),
    "RevNet230": (21_928_960_000, 1_653_760_000, 59_904),
    "RevNet57": (4_069_888_000, 367_360_000, 19_512),
    "RevNet137": (7_673_774_080, 372_736_000, 50_496),
    "RevNet197": (10_475_438_080, 372_736_000, 70_464),
    "RevNet155": (17_208_064_000, 1_457_152_000, 41_088),
    "RevNet245": (23_745_280_000, 1_457_152_000, 61_056),
    "DF-RevNet66": (12_367_790_080, 372_736_000, 64_512),
    "DF-RevNet126": (23_549_870_080, 372_736_000, 148_992),
    "DF-RevNet258": (40_802_222_080, 372_736_000, 268_800),
    "DF-RevNet354": (51_025_838_080, 372_736_000, 367_104),
    "DF-RevNet89": (17_086_382_080, 372_736_000, 76_992),
    "DF-RevNet149": (23_156_654_080, 372_736_000, 144_576),
    "DF-RevNet281": (40_409_006_080, 372_736_000, 264_384),
    "DF-RevNet377": (50_632_622_080, 372_736_000, 362_688),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", zoo.REGISTRY_NAMES)
def test_registry_plan_is_pinned(name, mode):
    stored, reversible, workspace = REGISTRY_PLANS[name]
    plan = ledger_plan(zoo.build(name, dtype=np.float32), 64, 200, mode)
    assert (plan.activations, plan.workspace) == (
        stored if mode == "stored" else reversible, workspace)
