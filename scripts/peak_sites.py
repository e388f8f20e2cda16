#!/usr/bin/env python3
"""Where a training step's memory peaks: per phase, the ops with the highest tracemalloc peak.

Builds each net of scripts/conv_bench.py's NETS in float32 at seed 1 and
steps it with revmem.loss.Trainer, the step ``revmem train`` runs, with
adam8 and a 10-class AAM head, on one fixed batch. tracemalloc runs from
before the build, so "resident" covers the weights, gradients, optimizer
state, the head and the batch. After one warm-up step it takes two more
steps on the same batch:

1. one with nothing patched, which gives each phase's peak (forward with
   the loss, backward, optimizer step) and so the step's peak;
2. one under the benchmark's span tracer (perfbench/tracer.py) in memory
   mode, with every public function of revmem.ops hooked, which gives each
   op call's peak and the bytes live when it was entered.

The two steps allocate the same arrays. tracemalloc traces the tracer's
span records too, so the bytes they hold at a call (the traced step's
growth per record times the records made before it) are taken off its
numbers.
Peaks count numpy buffers and Python objects, not RSS; the first net of a
process also counts the one-time caches its set-up fills in its resident
bytes. BLAS is pinned to one thread.

    python3 scripts/peak_sites.py [--net NAME ...] [--mode reversible] [--top 5]
                                  [--batch N [N ...]]

``--net`` takes the names of conv_bench.py's nets, its default, or of any
registry net, which runs at batch 1 and 200 frames.

Columns: the op, its input's shape, its weight's shape (a conv's kernel, a
batch norm's gamma or an fc's weight; none for other ops), its trailing
arguments as scripts/conv_bench.py keys them ("out" for a VJP that writes
into its gy), the calls in that phase, the highest peak of one call and
the bytes live at that call's entry, in MB. Each report's header also
gives the plan total, ``ledger_plan`` with adam8 at the same batch and
frames.

``--batch`` profiles each net at the batch sizes given instead of its own.
With more than one, each net ends with the per-sample slope of every phase
peak's rise above resident between consecutive sizes, beside the plan
total's slope, which is the planned activations a sample.
"""

import conv_bench  # pins BLAS to one thread; puts src/ and perfbench/ on sys.path

import argparse
import inspect
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from revmem import engine, ops, zoo
from revmem.loss import Trainer
from tracer import Tracer

NETS = conv_bench.NETS  # the default nets; any registry net runs at batch 1 and 200 frames
PHASES = ("forward", "backward", "step")
CLASSES = 10
# every public function of revmem.ops whose first argument is an array
OPS = tuple(name for name, fn in vars(ops).items()
            if inspect.isfunction(fn) and fn.__module__ == ops.__name__
            and not name.startswith("_")
            and next(iter(inspect.signature(fn).parameters.values())).annotation
            == "np.ndarray")


@dataclass
class Site:
    calls: int = 0
    peak: int = 0
    entry: int = 0  # bytes live at the entry of the call that peaked highest


@dataclass
class Report:
    resident: int
    phase_peaks: dict
    plan: int  # ledger_plan's total with adam8
    sites: dict = field(default_factory=dict)  # phase -> {(op, x, w, args): Site}

    @property
    def peak(self) -> int:
        return max(self.phase_peaks.values())


def setup(spec, batch, frames, mode):
    """A Trainer of the net spec builds, and its step's phases in order on
    one fixed batch, each as (name, function)."""
    trainer = Trainer(zoo.build(spec, np.float32, seed=1), CLASSES, "adam8", mode, seed=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch, *trainer.net.input_spec, frames), dtype=np.float32)
    labels = np.arange(batch) % CLASSES
    return trainer, (("forward", lambda: trainer.forward(x, labels)),
                     ("backward", trainer.backward), ("step", trainer.step))


def _op_hooks():
    """Tracer hooks for every op in OPS, each call's span named by
    conv_bench's _call_key: (op, x shape, w shape, trailing arguments).

    Equal keys are one object, so a span's name adds no bytes after the first.
    """
    keys = {}

    def hook(op):
        def name(args, kwargs):
            key = conv_bench._call_key(op, args, kwargs)
            return keys.setdefault(key, key)

        return (ops, op, name, None)

    return [hook(op) for op in OPS]


def profile(spec, batch, frames, mode="reversible") -> Report:
    """Phase peaks of one plain step and op sites of one traced step."""
    tracemalloc.start()
    try:
        trainer, phases = setup(spec, batch, frames, mode)
        for _, fn in phases:  # warm-up
            fn()
        resident = tracemalloc.get_traced_memory()[0]
        phase_peaks = {}
        for name, fn in phases:
            tracemalloc.reset_peak()
            fn()
            phase_peaks[name] = tracemalloc.get_traced_memory()[1]
        plan = engine.ledger_plan(trainer.net, batch, frames, mode, "adam8").total()
        report = Report(resident, phase_peaks, plan)
        tracer = Tracer(_op_hooks(), memory=True)
        before = tracemalloc.get_traced_memory()[0]
        with tracer:
            for i, (name, fn) in enumerate(phases):
                with tracer.operation(i, name):  # each op span's .op is its phase
                    fn()
        # a step ends where it began, so what the traced step left is records
        per_record = (tracemalloc.get_traced_memory()[0] - before) / len(tracer.spans)
        sites = defaultdict(lambda: defaultdict(Site))
        highest = {}  # (phase, key) -> index of the span that peaked highest
        for i, span in enumerate(tracer.spans):
            if span.parent < 0:
                continue  # a phase's own span
            phase = PHASES[span.op]
            site = sites[phase][span.name]
            site.calls += 1
            if span.peak > site.peak:
                site.peak, site.entry = span.peak, span.peak - span.rise
                highest[phase, span.name] = i
        for (phase, key), i in highest.items():
            site = sites[phase][key]
            site.peak -= round(per_record * i)
            site.entry -= round(per_record * i)
        report.sites = {phase: dict(sites[phase]) for phase in PHASES}
        return report
    finally:
        tracemalloc.stop()


def _mb(b):
    return f"{b / 1e6:.2f}"


def slopes(small, large, batches):
    """Per-sample slope of each phase peak and of the plan total, in bytes,
    between the reports at batch sizes ``batches``.

    A phase's slope is that of its rise above resident, so the one-time
    caches of a process's first set-up, resident in its first report
    alone, cancel; the batch itself, resident too, is left out.
    """
    n = batches[1] - batches[0]
    out = {phase: ((large.phase_peaks[phase] - large.resident)
                   - (small.phase_peaks[phase] - small.resident)) / n
           for phase in PHASES}
    out["plan"] = (large.plan - small.plan) / n
    return out


def print_report(name, mode, batch, frames, report, top):
    print(f"\n{name} ({mode}, batch {batch}, {frames} frames): resident "
          f"{_mb(report.resident)} MB, step peak {_mb(report.peak)} MB, "
          f"plan {_mb(report.plan)} MB, peak / plan {report.peak / report.plan:.2f}")
    for phase in PHASES:
        print(f"  {phase}: peak {_mb(report.phase_peaks[phase])} MB")
        rows = sorted(report.sites[phase].items(), key=lambda kv: -kv[1].peak)[:top]
        for (op, xs, ws, tail), site in rows:
            print(f"    {op:22} {str(xs):>17} {str(ws) if ws else '-':>16} "
                  f"{' '.join(map(str, tail)):>6} "
                  f"{site.calls:5d} {_mb(site.peak):>8} {_mb(site.entry):>8}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    nets = list(dict.fromkeys([*NETS, *zoo.REGISTRY_NAMES]))  # NETS names two registry nets
    ap.add_argument("--net", nargs="+", choices=nets, default=list(NETS))
    ap.add_argument("--mode", choices=engine.MODES, default="reversible")
    ap.add_argument("--top", type=int, default=5, help="ops listed per phase")
    ap.add_argument("--batch", type=int, nargs="+",
                    help="batch sizes to profile each net at, instead of its own")
    args = ap.parse_args(argv)
    if args.top < 1:
        ap.error("--top must be at least 1")
    if args.batch and (min(args.batch) < 1 or len(set(args.batch)) < len(args.batch)):
        ap.error("--batch sizes must be distinct and at least 1")
    print(f"numpy {np.__version__}, float32, adam8, BLAS threads 1; "
          f"columns: op, x, w, args, calls, peak MB, MB live at entry")
    for name in args.net:
        spec, batch, frames = NETS.get(name, (name, 1, 200))
        batches = sorted(args.batch) if args.batch else [batch]
        reports = [profile(spec, b, frames, args.mode) for b in batches]
        for b, report in zip(batches, reports):
            print_report(name, args.mode, b, frames, report, args.top)
        for i in range(len(batches) - 1):
            slope = slopes(*reports[i:i + 2], batches[i:i + 2])
            print(f"  per-sample slope, batch {batches[i]} -> {batches[i + 1]}: "
                  + ", ".join(f"{phase} {_mb(slope[phase])} MB" for phase in PHASES)
                  + f"; plan {_mb(slope['plan'])} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
