"""Dual-mode execution, saved-store accounting, and the memory ledger."""

import gc
import weakref

import numpy as np
import pytest

from revmem import ops, zoo
from revmem.engine import (
    MemoryLedger,
    ledger_plan,
    run_backward,
    run_forward,
)
from revmem.errors import ConfigError, ShapeError, StateError
from revmem.layers import BatchNorm2d, Layer
from revmem.optim import Adam8, Sgd8

from conftest import mixed_err, random_toy_spec


def toy_net(dtype=np.float64, blocks=(1, 1), width=8, kind="basic", seed=3):
    return zoo.build(zoo.toy_spec(list(blocks), width, kind), dtype=dtype, seed=seed)


def batch(rng, n=2, frames=8, dtype=np.float64):
    return rng.normal(size=(n, 1, 80, frames)).astype(dtype)


def batch_norms(layers):
    """Every BatchNorm2d in `layers` or in their children."""
    found = []
    for l in layers:
        if isinstance(l, BatchNorm2d):
            found.append(l)
        children = [v for v in vars(l).values() if isinstance(v, Layer)]
        found += batch_norms(children + getattr(l, "layers", []))
    return found


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
        # caching policy must not change the forward values at all
        net = toy_net(dtype=np.float64, kind="df_bottleneck")
        x = batch(rng)
        stored, _, _ = run_forward(net, x, "stored")
        reversible, _, _ = run_forward(net, x, "reversible")
        np.testing.assert_array_equal(stored, reversible)

    def test_cached_tensor_count_depth_independent(self, rng):
        counts = []
        for depth in (4, 32):
            net = toy_net(dtype=np.float32, blocks=(depth, depth))
            _, store, _ = run_forward(net, batch(rng, dtype=np.float32), "reversible")
            counts.append(store.full_tensor_count())
        assert counts[0] == counts[1]

    def test_stored_bytes_grow_linearly_with_depth(self, rng):
        led = {}
        for depth in (4, 8):
            net = toy_net(dtype=np.float32, blocks=(depth, depth))
            _, _, ledger = run_forward(net, batch(rng, dtype=np.float32), "stored")
            led[depth] = ledger.activations
        base = ledger_plan(toy_net(dtype=np.float32, blocks=(4, 4)), 2, 8, "reversible")
        # subtract the depth-independent part, then the rev-stage share doubles
        fixed = base.activations
        ratio = (led[8] - fixed) / (led[4] - fixed)
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
        net = toy_net(dtype=np.float32)
        n = net.param_count
        assert ledger_plan(net, 1, 8, "stored", optimizer="sgd").optimizer_states == 4 * n
        assert ledger_plan(net, 1, 8, "stored", optimizer="adamw").optimizer_states == 8 * n
        # 8-bit state is quantized per tensor, so the plan must equal the real optimizers
        for name, cls in (("sgd8", Sgd8), ("adam8", Adam8)):
            got = ledger_plan(net, 1, 8, "stored", optimizer=name, block_size=2048)
            assert got.optimizer_states == cls(net.params(), block_size=2048).state_nbytes()

    def test_csv_report_format(self):
        led = MemoryLedger(activations=100, weights=50, gradients=50,
                           optimizer_states=0, workspace=0)
        text = led.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "category,bytes,share"
        assert lines[1].startswith("activations,100,0.5")
        assert len(lines) == 6


class TestCapacity:
    def test_reversible_fits_more_than_stored(self):
        # the planned total is affine in the batch, so the smaller per-sample
        # slope fits more samples into any large enough budget
        net = toy_net(dtype=np.float32, blocks=(4, 4))

        def per_sample(mode):
            return (ledger_plan(net, 2, 8, mode).total()
                    - ledger_plan(net, 1, 8, mode).total())

        assert 0 < per_sample("reversible") < per_sample("stored")
