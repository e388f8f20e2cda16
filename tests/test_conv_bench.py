"""Smoke test of scripts/conv_bench.py on the benchmark's toy nets.

The script records the conv, batch-norm and ReLU-VJP calls of one training
step and times each on its own; a change to an op's signature that the
recorder or the timer does not follow fails here instead of in a manual
run. It also checks the held bytes: a result that pins a larger buffer than
itself shows up there.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from revmem import ops

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "conv_bench.py"


@pytest.fixture
def conv_bench(monkeypatch):
    # loading pins the BLAS thread variables and puts src/ on sys.path;
    # monkeypatch restores both afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("conv_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_bytes(name, x_shape, w_shape, tail):
    """float32 bytes of the call's new results: y for a conv, y and any
    captured (mean, var) for a batch norm, and dL/dx for every VJP, whose
    parameter cotangents are added into the accumulators passed, but none
    for a VJP given ``out``, which writes dL/dx into its gy."""
    x_bytes = 4 * np.prod(x_shape)
    if "out" in tail:
        return 0
    if name.endswith("_vjp"):
        return x_bytes
    if name == "batchnorm2d":
        return x_bytes + (0 if tail else 8 * w_shape[0])
    stride = tail[0] if tail else 1
    fo, to = (ops.conv_out_size(d, stride) for d in x_shape[2:])
    return 4 * x_shape[0] * w_shape[0] * fo * to


@pytest.mark.parametrize("net", ["train-rev-df", "train-wide-q8"])
def test_records_and_measures_every_op(conv_bench, net):
    originals = [getattr(ops, name) for name in conv_bench.OPS]
    calls = conv_bench.layer_calls(*conv_bench.NETS[net])
    assert [getattr(ops, name) for name in conv_bench.OPS] == originals  # restored
    assert all(count >= 1 for count in calls.values())
    expected = set(conv_bench.OPS)
    if net == "train-wide-q8":
        expected -= {"depthwise_conv2d", "depthwise_conv2d_vjp"}
    assert {key[0] for key in calls} == expected
    # reversible mode replays every batch norm it captured
    assert {key[3] for key in calls if key[0] == "batchnorm2d"} == {(), ("replay",)}
    rng = np.random.default_rng(0)
    for name, x_shape, w_shape, tail in sorted(calls):
        # a dense call passes its stride, a depthwise one nothing; only the
        # VJPs of ReLU, batch norm and depthwise conv are given out=
        if name in ("conv2d", "conv2d_vjp"):
            assert len(tail) == 1 and tail[0] != "out"
        elif name in ("relu_vjp", "batchnorm2d_vjp", "depthwise_conv2d_vjp"):
            assert tail in ((), ("out",))
        elif name != "batchnorm2d":
            assert tail == ()
        sec, peak, held, in_bytes = conv_bench.measure(name, x_shape, w_shape, tail, 1, rng)
        assert sec > 0 and peak > 0 and peak >= held and in_bytes > 0
        # no result is a view pinning a larger buffer, and no call keeps
        # scratch alive
        assert held == result_bytes(name, x_shape, w_shape, tail), name


def test_records_the_vjps_a_chain_hands_its_own_cotangent(conv_bench):
    # a chain's last VJP gets the caller's cotangent and makes a fresh
    # dL/dx; every earlier one writes into the cotangent the chain made. A
    # conv, batch norm and ReLU segment ends in its ReLU, and a DF group
    # chain's batch norm and depthwise conv always have a later layer
    calls = conv_bench.layer_calls(*conv_bench.NETS["train-rev-df"])

    def tails(op):
        return {key[3] for key in calls if key[0] == op}

    assert tails("relu_vjp") == {(), ("out",)}
    assert tails("batchnorm2d_vjp") == tails("depthwise_conv2d_vjp") == {("out",)}


@pytest.mark.parametrize("name, x_shape, w_shape", [
    ("relu_vjp", (2, 3, 6, 5), ()),
    ("batchnorm2d_vjp", (2, 3, 6, 5), (3,)),
    ("depthwise_conv2d_vjp", (2, 3, 6, 5), (3, 1, 3, 3)),
])
def test_out_calls_write_into_a_gy_restored_between_calls(conv_bench, name, x_shape,
                                                          w_shape):
    args, kwargs, restore = conv_bench._arguments(name, x_shape, w_shape, ("out",),
                                                  np.random.default_rng(0))
    gy = kwargs["out"]
    assert gy is args[1 if name == "relu_vjp" else 2]
    first = gy.copy()
    fresh = getattr(ops, name)(*args)
    got = getattr(ops, name)(*args, **kwargs)
    assert (got if name == "relu_vjp" else got[0]) is gy
    np.testing.assert_array_equal(gy, fresh if name == "relu_vjp" else fresh[0])
    restore()
    np.testing.assert_array_equal(gy, first)


def test_against_times_another_checkout_as_its_layers_called_it(conv_bench):
    rng = np.random.default_rng(0)
    try:
        other = conv_bench.load_ops(SCRIPT.parents[1])
        assert other is not ops and other.conv2d_vjp is not ops.conv2d_vjp
        for call in [("conv2d_vjp", (2, 3, 6, 5), (4, 3, 3, 3), (1,)),
                     ("relu_vjp", (2, 3, 6, 5), (), ("out",))]:
            assert all(sec > 0 for sec in conv_bench.compare(*call, 2, rng, other))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "revmem_against"]:
            del sys.modules[name]
