"""Smoke tests of scripts/peak_sites.py on the benchmark's toy DF net: in both
modes, and at two batch sizes.

The script splits a training step into phases and wraps every op; if a
phase misses part of the step, or the wrappers miss the op the step peaks
in, its report no longer shows where the peak sits.
"""

import importlib.util
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from revmem import engine, ops, zoo

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# numpy's small-object caches fill over the first steps of a process, so two
# steps' peaks may differ by a few kB; every array of the toy is larger
DRIFT = 32 << 10


@pytest.fixture
def peak_sites(monkeypatch):
    # loading pins the BLAS thread variables and puts src/ and scripts/ on
    # sys.path; monkeypatch restores them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", [str(SCRIPTS)] + sys.path)
    monkeypatch.delitem(sys.modules, "conv_bench", raising=False)
    spec = importlib.util.spec_from_file_location("peak_sites", SCRIPTS / "peak_sites.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# where each mode's step peaks: in reversible mode the stem segment's ReLU
# VJP, the segment's first, which keeps a fresh dL/dx since the segment's
# cotangent is its caller's; in stored mode the backward's depthwise VJP of a
# channel group of stage 2, the first the backward walks, while stage 1's
# tape is still whole. Each is (op, x, w): w is the group's kernel or none
PEAK_OPS = {
    "reversible": ("relu_vjp", (4, 16, 80, 32), ()),
    "stored": ("depthwise_conv2d_vjp", (4, 16, 40, 16), (16, 1, 3, 3)),
}


@pytest.mark.parametrize("mode", PEAK_OPS)
def test_reported_maximum_is_the_step_peak(peak_sites, mode):
    originals = {name: getattr(ops, name) for name in peak_sites.OPS}
    assert {"conv2d", "depthwise_conv2d_vjp", "relu_vjp", "linear"} <= set(originals)
    assert "conv_out_size" not in originals  # takes no array
    cfg = peak_sites.NETS["train-rev-df"]
    report = peak_sites.profile(*cfg, mode)
    assert {name: getattr(ops, name) for name in peak_sites.OPS} == originals  # restored

    # the same set-up, warmed up the same way, and one step with the peak
    # never reset; the first set-up of a process also allocates one-time
    # caches, which the warm-up leaves resident, so rises above resident
    # are compared
    tracemalloc.start()
    try:
        _, phases = peak_sites.setup(*cfg, mode)
        for _, fn in phases:
            fn()
        resident = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _, fn in phases:
            fn()
        step_rise = tracemalloc.get_traced_memory()[1] - resident
    finally:
        tracemalloc.stop()
    assert abs((report.peak - report.resident) - step_rise) <= DRIFT

    # the step peaks inside an op the report lists
    phase = max(report.phase_peaks, key=report.phase_peaks.get)
    assert phase == "backward"
    (op, x_shape, w_shape, _), site = max(report.sites[phase].items(),
                                          key=lambda kv: kv[1].peak)
    assert abs(site.peak - report.peak) <= DRIFT
    assert (op, x_shape, w_shape) == PEAK_OPS[mode]
    # the w column holds a weight, never a cotangent
    relu_vjps = [key for key in report.sites[phase] if key[0] == "relu_vjp"]
    assert relu_vjps and all(key[2] == () for key in relu_vjps)
    assert 0 < site.entry < site.peak
    assert set(report.sites) == set(peak_sites.PHASES)


def test_batch_sizes_give_per_sample_slopes(peak_sites, monkeypatch, capsys):
    # the toy DF net at two batch sizes, given out of order: one report
    # each, in batch order, then one line of per-sample slopes, which are
    # the reports' rises above resident and the plan's slope
    reports, profile = [], peak_sites.profile

    def recorded(*args):
        reports.append(profile(*args))
        return reports[-1]

    monkeypatch.setattr(peak_sites, "profile", recorded)
    assert peak_sites.main(["--net", "train-rev-df", "--batch", "4", "2", "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert out.index("(reversible, batch 2, 32 frames)") < out.index("(reversible, batch 4, 32 ")
    slope = peak_sites.slopes(*reports, (2, 4))
    spec, _, frames = peak_sites.NETS["train-rev-df"]
    net = zoo.build(spec, np.float32, seed=1)
    plans = [engine.ledger_plan(net, b, frames, "reversible", "adam8").total() for b in (2, 4)]
    assert [r.plan for r in reports] == plans
    assert slope["plan"] == (plans[1] - plans[0]) / 2
    line = (f"  per-sample slope, batch 2 -> 4: forward {slope['forward'] / 1e6:.2f} MB, "
            f"backward {slope['backward'] / 1e6:.2f} MB, step {slope['step'] / 1e6:.2f} MB; "
            f"plan {slope['plan'] / 1e6:.2f} MB\n")
    assert out.endswith(line)
    # a sample's saved activations are alive when the backward starts
    assert slope["backward"] >= slope["plan"]


def test_net_choices_name_each_net_once(peak_sites, capsys):
    # conv_bench's nets include two registry nets, listed once each
    with pytest.raises(SystemExit):
        peak_sites.main(["--help"])
    choices = re.search(r"--net \{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    assert len(choices) == len(set(choices))
    assert {"train-rev-df", "DF-RevNet89", "ResNet34", "RevNet57"} <= set(choices)
