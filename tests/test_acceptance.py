"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.

Comparison conventions for gradient equivalence:
  * float64: per-element relative error, magnitudes below 1e-8 compared
    absolutely (tolerance 1e-6);
  * float32: error relative to each tensor's own scale (tolerance 1e-3) --
    per-element ratios on entries thousands of times smaller than the tensor
    scale measure float32 rounding noise, not algorithmic agreement, and the
    input reconstruction itself is only guaranteed to 1e-4 at this width.
"""

import time
import tracemalloc

import numpy as np
import pytest

from revmem import ops, quant, zoo
from revmem.engine import (
    ledger_plan,
    run_backward,
    run_forward,
)
from revmem.eer import eer_from_scores
from revmem.layers import Param, RevBlock
from revmem.loss import aam_softmax_loss
from revmem.optim import Adam, Adam8, Sgd, Sgd8, make_optimizer, optimizer_state_nbytes
from revmem.synth import SynthDataset

from conftest import mixed_err, random_toy_spec, scaled_err


def _report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


def _mode_gradient_gap(net, x, r, err_fn):
    out, store, _ = run_forward(net, x, "stored")
    net.zero_grad()
    run_backward(net, store, r, "stored")
    ref = [p.grad.copy() for p in net.params()]
    net.zero_grad()
    _, store2, _ = run_forward(net, x, "reversible")
    run_backward(net, store2, r, "reversible")
    return max(err_fn(p.grad, g) for p, g in zip(net.params(), ref))


def test_c01_gradient_equivalence_across_modes():
    t0 = time.time()
    worst64 = worst32 = 0.0
    for i in range(20):
        spec = random_toy_spec(np.random.default_rng(4200 + i))
        data_rng = np.random.default_rng(i)
        x64 = data_rng.normal(size=(2, 1, 80, 8))

        net = zoo.build(spec, dtype=np.float64, seed=100 + i)
        out_shape = net.out_shape(x64.shape)
        r64 = data_rng.normal(size=out_shape)
        worst64 = max(worst64, _mode_gradient_gap(net, x64, r64, mixed_err))

        net32 = zoo.build(spec, dtype=np.float32, seed=100 + i)
        worst32 = max(worst32, _mode_gradient_gap(
            net32, x64.astype(np.float32), r64.astype(np.float32), scaled_err))
    elapsed = time.time() - t0
    assert worst64 <= 1e-6
    assert worst32 <= 1e-3
    assert elapsed <= 120.0
    _report(1, f"20 mixed toy nets, gradient gap {worst64:.2e} (f64, tol 1e-6), "
               f"{worst32:.2e} (f32, tol 1e-3), {elapsed:.1f}s")


def test_c02_inverse_reconstruction():
    worst = {}
    for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-12)):
        w = 0.0
        for kind in ("basic", "bottleneck", "df_bottleneck"):
            for i in range(100):
                rng = np.random.default_rng(9000 + i)
                block = RevBlock(kind, 4, rng=rng, dtype=dtype)
                x = rng.normal(size=(2, 8, 8, 6)).astype(dtype)
                back = block.inverse(block.forward(ops.channel_split(x)))
                err = float(np.abs(ops.channel_concat(*back) - x).max())
                w = max(w, err)
        assert w <= tol
        worst[np.dtype(dtype).name] = w
    _report(2, f"100 blocks/kind: recon error {worst['float32']:.2e} (f32, tol 1e-4), "
               f"{worst['float64']:.2e} (f64, tol 1e-12)")


def test_c03_constant_activation_memory_vs_depth():
    depths = (4, 8, 16, 32)
    rev_bytes, sto_bytes = [], []
    for d in depths:
        net = zoo.build(zoo.toy_spec([d, d], 8, "df_bottleneck"), dtype=np.float32)
        rev_bytes.append(ledger_plan(net, 2, 8, "reversible").activations)
        sto_bytes.append(ledger_plan(net, 2, 8, "stored").activations)
    assert len(set(rev_bytes)) == 1  # exact equality
    d = np.asarray(depths, dtype=np.float64)
    y = np.asarray(sto_bytes, dtype=np.float64)
    design = np.vstack([d, np.ones_like(d)]).T
    coef, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(residual[0]) if residual.size else 0.0
    r2 = 1.0 - ss_res / float(((y - y.mean()) ** 2).sum())
    assert r2 >= 0.999
    assert coef[0] > 0
    _report(3, f"reversible bytes constant at {rev_bytes[0]}; stored affine "
               f"(R^2 = {r2:.6f}) over depths {depths}")


def _step_rise(net, x, g, mode):
    """tracemalloc peak of one forward and backward above what was resident."""
    tracemalloc.start()
    try:
        _, store, _ = run_forward(net, x, mode)
        run_backward(net, store, g, mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_c03_measured_rise_vs_depth():
    # the measured twin of C03: the whole step's rise, transients included
    t0 = time.time()
    rises = {"reversible": [], "stored": []}
    x = np.random.default_rng(3).normal(size=(4, 1, 80, 32)).astype(np.float32)
    for d in (2, 8):
        net = zoo.build(zoo.toy_spec([d, d], 8, "df_bottleneck"), dtype=np.float32)
        g = np.ones((4, net.embedding_dim), np.float32)
        for mode, found in rises.items():
            found.append(_step_rise(net, x, g, mode))
    elapsed = time.time() - t0
    rev, sto = rises["reversible"], rises["stored"]
    assert abs(rev[1] - rev[0]) <= 0.02 * rev[0]
    assert sto[1] > 2 * sto[0]
    _report(3, f"measured reversible rise {rev[0] / 1e6:.2f} / {rev[1] / 1e6:.2f} MB, "
               f"stored {sto[0] / 1e6:.2f} / {sto[1] / 1e6:.2f} MB at depth 2 / 8, "
               f"{elapsed:.1f}s")


def test_c04_stored_resnet34_activations_dominate():
    net = zoo.build("ResNet34", dtype=np.float32)
    plan = ledger_plan(net, 64, 200, "stored", optimizer="sgd")
    share = plan.shares()["activations"]
    assert share >= 0.85
    _report(4, f"ResNet34 batch 64: activations {share:.1%} of tracked bytes "
               f"({plan.activations / 2**30:.2f} GiB)")


def test_c05_optimizer_state_memory_reduction():
    n = 1_000_000
    dense = optimizer_state_nbytes(n, "sgd")  # 4 bytes per element
    quantized = optimizer_state_nbytes(n, "sgd8", block_size=2048)
    expected = n + 4 * ((n + 2047) // 2048)
    assert quantized == expected  # exact ledger arithmetic
    ratio = quantized / dense
    assert ratio <= 0.2505
    adam_ratio = (optimizer_state_nbytes(n, "adam8", block_size=2048)
                  / optimizer_state_nbytes(n, "adamw"))
    assert adam_ratio <= 0.2505
    _report(5, f"8-bit state bytes ratio {ratio:.6f} (tol 0.2505) at B=2048, "
               f"10^6 elements; exact bytes {quantized}")


def test_c06_quantizer_oracle_agreement_and_bound():
    qmap = quant.default_map()
    rng = np.random.default_rng(77)
    total = 0
    gap = qmap.max_adjacent_gap()
    for block in (1, 7, 2048, 5000):
        x = rng.normal(size=300_000).astype(np.float32)
        total += x.size
        state = quant.quantize_blockwise(x, qmap, block)
        ref = quant.nearest_codes_exhaustive(x, qmap, block)
        assert np.array_equal(state.codes, ref)  # 100% agreement
        back = quant.dequantize_blockwise(state, qmap, np.float64)
        lengths = np.diff(np.append(np.arange(0, x.size, block), x.size))
        bound = np.repeat(state.absmax.astype(np.float64), lengths) * gap / 2
        assert np.all(np.abs(back - x.astype(np.float64)) <= bound * (1 + 1e-9))
    assert total >= 1_000_000
    _report(6, f"{total} elements across B in {{1, 7, 2048, 5000}}: 100% oracle "
               f"agreement, roundtrip within absmax x {gap / 2:.6f}")


def _train_loss_curve(optim_name, kind, lr, seed=0, steps=200, classes=24,
                      noise=2.0, width=8, batch=8):
    spec = zoo.toy_spec([1, 1], width, kind)
    net = zoo.build(spec, dtype=np.float32, seed=seed)
    data = SynthDataset(classes, frames=8, noise=noise, seed=seed)
    head_rng = np.random.default_rng(seed + 1)
    head = Param(head_rng.normal(0, 0.1, (net.embedding_dim, classes)).astype(np.float32))
    opt = make_optimizer(optim_name, net.params() + [head], lr, weight_decay=0.05)
    losses = []
    for _ in range(steps):
        x, y = data.batch(batch)
        emb, store, _ = run_forward(net, x, "reversible")
        loss, demb, dhead = aam_softmax_loss(emb, y, head.value)
        run_backward(net, store, demb.astype(np.float32), "reversible")
        head.grad += dhead.astype(np.float32)
        opt.step()
        opt.zero_grad()
        losses.append(loss)
    return losses


def test_c07_quantized_training_parity():
    # quadratic bowl, d = 1000, 200 steps, fixed seed
    rng = np.random.default_rng(7)
    curv = rng.uniform(0.8, 1.2, 1000)
    target = rng.normal(size=1000)

    def bowl(opt_maker):
        p = Param(np.zeros(1000))
        opt = opt_maker(p)
        for _ in range(200):
            p.grad[:] = curv * (p.value - target)
            opt.step()
            opt.zero_grad()
        return float(0.5 * (curv * (p.value - target) ** 2).sum())

    pairs = {
        "sgd": (bowl(lambda p: Sgd([p], lr=0.03, momentum=0.9)),
                bowl(lambda p: Sgd8([p], lr=0.03, momentum=0.9))),
        "adamw": (bowl(lambda p: Adam([p], lr=0.002, weight_decay=0.01)),
                  bowl(lambda p: Adam8([p], lr=0.002, weight_decay=0.01))),
    }
    for name, (dense, quantized) in pairs.items():
        assert abs(dense - quantized) / dense <= 0.05, f"bowl {name}"

    # toy embedding training, 200 steps, fixed seed
    sgd = _train_loss_curve("sgd", "basic", 3e-4)[-1]
    sgd8 = _train_loss_curve("sgd8", "basic", 3e-4)[-1]
    adamw = _train_loss_curve("adamw", "df_bottleneck", 3e-5)[-1]
    adam8 = _train_loss_curve("adam8", "df_bottleneck", 3e-5)[-1]
    rel_sgd = abs(sgd - sgd8) / sgd
    rel_adam = abs(adamw - adam8) / adamw
    assert rel_sgd <= 0.05
    assert rel_adam <= 0.05
    _report(7, f"final-loss gaps: bowl sgd {abs(pairs['sgd'][0] - pairs['sgd'][1]) / pairs['sgd'][0]:.4f}, "
               f"bowl adam {abs(pairs['adamw'][0] - pairs['adamw'][1]) / pairs['adamw'][0]:.4f}, "
               f"aam sgd {rel_sgd:.4f}, aam adam {rel_adam:.4f} (tol 0.05)")


# reference parameter counts for the tabulated architecture rows
_TABLE_PARAMS = {
    "RevNet46": 6.7e6, "RevNet126": 15.0e6, "RevNet140": 15.8e6,
    "RevNet57": 6.1e6, "RevNet137": 14.2e6, "RevNet155": 15.6e6,
    "DF-RevNet66": 4.8e6, "DF-RevNet89": 4.5e6,
}

_TABLE_FC = {
    "RevNet46": 6000, "RevNet57": 6000,
    "RevNet126": 7680, "RevNet137": 7680, "RevNet178": 7680, "RevNet197": 7680,
    "DF-RevNet66": 7680, "DF-RevNet89": 7680, "DF-RevNet126": 7680,
    "DF-RevNet149": 7680, "DF-RevNet258": 7680, "DF-RevNet281": 7680,
    "DF-RevNet354": 7680, "DF-RevNet377": 7680,
    "RevNet140": 24000, "RevNet155": 24000, "RevNet230": 24000, "RevNet245": 24000,
}


def test_c08_architecture_fidelity():
    for name in zoo.REGISTRY_NAMES:
        spec = zoo.registry_spec(name)
        net = zoo.build(spec, dtype=np.float32)
        assert net.param_count == spec.param_count(), name
    for name, target in _TABLE_PARAMS.items():
        count = zoo.registry_spec(name).param_count()
        assert abs(count - target) / target <= 0.02, (name, count, target)
    for name, d_in in _TABLE_FC.items():
        fc = [s for s in zoo.registry_spec(name).stages if isinstance(s, zoo.Fc)][0]
        assert (fc.d_in, fc.d_out) == (d_in, 256), name
    _report(8, f"all {len(zoo.REGISTRY_NAMES)} registry nets build; "
               f"{len(_TABLE_PARAMS)} tabulated parameter counts within 2%; "
               f"fc dims exact for {len(_TABLE_FC)} nets")


def test_c10_eer_utility():
    value = eer_from_scores([0.9, 0.8, 0.7], [0.75, 0.3, 0.1])
    assert value == pytest.approx(1 / 3, abs=1e-9)
    assert eer_from_scores([0.9, 0.8], [0.2, 0.1]) == 0.0
    assert eer_from_scores([0.1, 0.4, 0.9], [0.1, 0.4, 0.9]) == pytest.approx(0.5)
    _report(10, f"threshold-sweep EER = {value:.9f} on the three-score case; "
                f"separated -> 0, identical -> 0.5")
