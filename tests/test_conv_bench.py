"""Smoke test of scripts/conv_bench.py on the benchmark's toy nets.

The script records the conv calls of one training step and times each on
its own; a change to an op's signature that the recorder or the timer does
not follow fails here instead of in a manual run.
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


@pytest.mark.parametrize("net", ["train-rev-df", "train-wide-q8"])
def test_records_and_measures_every_op(conv_bench, net):
    originals = [getattr(ops, name) for name in conv_bench.OPS]
    calls = conv_bench.layer_calls(*conv_bench.NETS[net])
    assert [getattr(ops, name) for name in conv_bench.OPS] == originals  # restored
    assert all(count >= 1 for count in calls.values())
    first = {}
    for key in sorted(calls):
        first.setdefault(key[0], key)
    expected = set(conv_bench.OPS) if net == "train-rev-df" else {"conv2d", "conv2d_vjp"}
    assert set(first) == expected
    rng = np.random.default_rng(0)
    for name, x_shape, w_shape, tail in first.values():
        # a depthwise call passes pad alone, a dense one stride and pad
        assert len(tail) == (1 if name.startswith("depthwise") else 2)
        sec, peak, in_bytes = conv_bench.measure(name, x_shape, w_shape, tail, 1, rng)
        assert sec > 0 and peak > 0 and in_bytes > 0
