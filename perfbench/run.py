"""Closed-loop benchmark of revmem's training step.

Run from the repository root:

    python3 perfbench/run.py --workload train-rev-df --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # each workload, then derived ratios

One process drives the library's public API from outside in a closed loop:
each training step starts when the previous one has finished. ``--trace 0``
measures the end-to-end metrics with nothing patched. ``--trace 1`` is a
separate run: it alternates untraced steps with steps that wrap each layer's
public functions (see tracer.py), and reports per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object; the
lines before it name every metric with its unit, and record the environment.

Metric names, units and workload reasons come from BENCHMARK.json at the
repository root. The library is imported from ``src/``; without it the
benchmark exits with status 2 and prints no result. Exit status 1 means an
operation or check failed; the result line is printed first.
"""

import os

# One BLAS thread, set before numpy is first imported: at two threads on a
# 2-CPU machine the step times were slower and twice as noisy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5  # set up at least this many times, and for at least
SETUP_SECONDS = 3.0  # this long, so a cheap set-up still gets a steady median
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

clock = time.perf_counter


def load_library():
    """Import revmem from this checkout's src/, never from anywhere else."""
    if not (SRC / "revmem" / "__init__.py").is_file():
        print(f"error: no revmem sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import revmem

    if Path(revmem.__file__).resolve().parent != (SRC / "revmem").resolve():
        raise SystemExit(f"error: imported revmem from {revmem.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


# -- statistics ---------------------------------------------------------------

def tail(values):
    """(value, percentile, samples): the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank; the maximum if too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n


def traced_peak(fn) -> int:
    """The tracemalloc peak of the allocations fn makes."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- the closed loop ------------------------------------------------------------

class Loop:
    """Step times and failures of one lane of the closed loop."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations = []
        self.failed = 0

    @property
    def steps_per_s(self):
        return len(self.durations) / sum(self.durations)

    def step(self, wl, i):
        """One timed step; its check runs untimed and unrecorded."""
        tracer = self.tracer
        ok, done = False, None
        t0 = clock()
        try:
            with tracer.operation(i, "bench.step") if tracer else nullcontext():
                result = wl.run(i)
            done = clock()
            with tracer.paused() if tracer else nullcontext():
                ok = wl.check(i, result)
        except Exception:
            traceback.print_exc()
        self.durations.append((done or clock()) - t0)
        if not ok:
            self.failed += 1
            print(f"failed: step {i}", file=sys.stderr)


def closed_loop(wl, seconds, lanes, between=None):
    """Run steps, taking the lanes in turn, until every lane has run and the
    next step would end after the deadline.

    ``between(progress)`` runs after each step, outside its time, with the
    share of ``seconds`` used so far. A traced run has an untraced and a
    traced lane, so both see the same machine and process state.
    """
    start = clock()
    i = 0
    while True:
        lane = lanes[i % len(lanes)]
        with lane.tracer or nullcontext():
            lane.step(wl, i)
        i += 1
        if between:
            between((clock() - start) / seconds)
        elapsed = clock() - start
        if i >= len(lanes) and elapsed + elapsed / i > seconds:
            return


def setup(name, seed, workloads):
    """Build a workload and warm it up; returns (workload, seconds, warm-up ok)."""
    t0 = clock()
    wl = workloads.make(name, seed)
    ok = wl.warm_up()
    return wl, clock() - t0, ok


def post_checks(wl):
    checks = wl.post_checks()
    for label, ok in checks:
        if not ok:
            print(f"failed check: {label}", file=sys.stderr)
    return len(checks), sum(not ok for _, ok in checks)


# -- one workload ---------------------------------------------------------------

def run_untraced(name, seed, seconds, workloads):
    wl, spent, warm_ok = setup(name, seed, workloads)
    setups = [spent]

    def set_up_again(progress):
        # Repeat the set-up through the timed run, not all before it: the
        # machine's speed drifts over tens of seconds, and set-ups spread like
        # this sample the same stretch of it as the steps do.
        nonlocal warm_ok
        share = min(progress, 1.0)
        while len(setups) < SETUP_REPEATS * share or sum(setups) < SETUP_SECONDS * share:
            spent, ok = setup(name, seed, workloads)[1:]
            setups.append(spent)
            warm_ok = warm_ok and ok

    loop = Loop()
    closed_loop(wl, seconds, [loop], set_up_again)
    set_up_again(1.0)
    # every set-up feeds the setup_s median, but the warm-ups count as one
    # check, failed if any of them failed
    attempted, failed = 1 + len(loop.durations), int(not warm_ok) + loop.failed
    peak = traced_peak(wl.peak_op)
    n_checks, n_failed = post_checks(wl)
    attempted += n_checks
    failed += n_failed

    value, pct, n = tail(loop.durations)
    metrics = {
        "samples_per_s": wl.cfg.batch * loop.steps_per_s,
        "step_s_p50": statistics.median(loop.durations),
        "step_s_tail": value,
        "peak_bytes": peak,
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"step_s_tail is p{pct} of {n} steps",
        f"setup_s is the median of {len(setups)} set-ups",
        f"ledger_error = {wl.ledger_error(peak):.4f} ratio (not gated)",
    ]
    return metrics, attempted, failed, notes


def run_traced(name, seed, seconds, workloads):
    from tracer import CONV_OPS, COPY_OPS, OPS, Total, Tracer, revmem_hooks

    # zoo.build and engine.ledger_plan run only in the set-up, so trace one
    setup_trace = Tracer(revmem_hooks())
    with setup_trace, setup_trace.operation(-1, "bench.setup"):
        wl, _, ok = setup(name, seed, workloads)
    attempted, failed = 1, int(not ok)
    # one untimed step first: a cold first step would count against whichever
    # lane ran it and skew the tracing overhead
    warm, base, loop = Loop(), Loop(), Loop(Tracer(revmem_hooks()))
    warm.step(wl, 0)
    closed_loop(wl, seconds, [base, loop])
    tracer = loop.tracer
    for part in (warm, base, loop):
        attempted += len(part.durations)
        failed += part.failed

    peak = traced_peak(wl.peak_op)
    gc.collect()
    with Tracer(revmem_hooks(), memory=True) as mem:
        tracemalloc.start()
        try:
            with mem.operation(-1, "bench.step"):
                result = wl.peak_op()
        finally:
            tracemalloc.stop()
    counts = wl.layer_counts(result)
    result = None
    n_checks, n_failed = post_checks(wl)
    attempted += n_checks
    failed += n_failed

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.csv"
    tracer.write_csv(spans_path)

    totals = tracer.totals()
    setup_totals = setup_trace.totals()
    n = len(loop.durations)

    def t(name) -> Total:
        return totals.get(name, Total())

    def peak_of(name):
        return max((s.peak for s in mem.spans if s.name == name), default=0)

    def self_s(module):
        return sum(v.self_seconds for k, v in totals.items() if k.startswith(module + ".")) / n

    m = {}
    for op in OPS:
        m[f"ops.{op}.s"] = t(f"ops.{op}").seconds / n
        m[f"ops.{op}.calls"] = t(f"ops.{op}").calls / n
    conv_flops = sum(t(f"ops.{op}").work for op in CONV_OPS)
    conv_s = sum(t(f"ops.{op}").seconds for op in CONV_OPS)
    m["ops.conv.flops"] = conv_flops / n
    m["ops.conv.gflops_per_s"] = conv_flops / conv_s / 1e9 if conv_s else 0.0
    m["ops.copy_bytes"] = sum(t(f"ops.{op}").work for op in COPY_OPS) / n
    transient, transient_op = max(((s.rise, s.name) for s in mem.spans
                                   if s.name.startswith("ops.")), default=(0, ""))
    m["ops.transient_bytes_max"] = transient
    for span in ("RevBlock.forward", "RevBlock.rev_backward", "RevBlock.backward",
                 "ResidualBlock.forward", "ResidualBlock.backward_from_input",
                 "RevDownsample", "recompute"):
        m[f"layers.{span}.s"] = t(f"layers.{span}").seconds / n
    m["layers.recompute.calls"] = t("layers.recompute").calls / n
    branch = t("layers.branch").calls
    m["layers.recompute_ratio"] = t("layers.recompute").calls / branch if branch else 0.0
    m["layers.self_s"] = self_s("layers")
    for span in ("run_forward", "run_backward"):
        m[f"engine.{span}.s"] = t(f"engine.{span}").seconds / n
    m["engine.forward_peak_bytes"] = peak_of("engine.run_forward")
    m["engine.backward_peak_bytes"] = peak_of("engine.run_backward")
    m["engine.ledger_error"] = wl.ledger_error(peak)
    m["engine.ledger_plan.s"] = setup_totals.get("engine.ledger_plan", Total()).seconds
    m["engine.self_s"] = self_s("engine")
    m["optim.step.s"] = t("optim.step").seconds / n
    m["optim.zero_grad.s"] = t("optim.zero_grad").seconds / n
    m["optim.step_peak_bytes"] = peak_of("optim.step")
    m["optim.self_s"] = self_s("optim")
    for span in ("quantize", "dequantize"):
        total = t(f"quant.{span}")
        m[f"quant.{span}.s"] = total.seconds / n
        m[f"quant.{span}.calls"] = total.calls / n
        m[f"quant.{span}.elems_per_s"] = total.work / total.seconds if total.seconds else 0.0
    m["quant.nearest_codes.s"] = t("quant.nearest_codes").seconds / n
    m["quant.self_s"] = self_s("quant")
    m["loss.aam_softmax.s"] = t("loss.aam_softmax").seconds / n
    m["synth.batch.s"] = t("synth.batch").seconds / n
    build = setup_totals.get("zoo.build", Total())
    m["zoo.build.s"] = build.seconds
    m["zoo.weight_bytes"] = build.work
    for key in ("engine.saved_bytes", "engine.saved_tensors",
                "engine.ledger_activation_gap_bytes", "optim.state_bytes",
                "optim.state_bytes_gap"):
        m[key] = counts[key]
    m["trace.overhead_ratio"] = base.steps_per_s / loop.steps_per_s

    notes = [
        f"traced {n} steps, interleaved with {len(base.durations)} untraced; "
        f"tracing overhead {m['trace.overhead_ratio']:.4f}x "
        f"({base.steps_per_s:.6g} -> {loop.steps_per_s:.6g} steps/s)",
        f"largest single-op transient: {transient} B in {transient_op or 'none'}",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return m, attempted, failed, notes


# -- entry point ------------------------------------------------------------------

def run_one(name, seed, seconds, trace, spec, workloads):
    runner = run_traced if trace else run_untraced
    values, attempted, failed, notes = runner(name, seed, seconds, workloads)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics computed {sorted(set(values) ^ set(units))} "
                           "differ from BENCHMARK.json")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {why}")
    for k, unit in units.items():
        print(f"   {k} = {values[k]:.6g} {unit}")
    for line in notes:
        print(f"   {line}")
    print(f"   {attempted - failed}/{attempted} operations passed")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return metrics, attempted, failed


def run_child(name, seed, seconds, trace):
    """Run one workload in a fresh process of this script.

    Returns (result, report): the child's last stdout line parsed as JSON, and
    the lines before it. The child's standard error is passed through.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines() or [""]
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        raise SystemExit(f"error: workload {name} exited with {proc.returncode} "
                         "and printed no result") from None


def run_all(names, args):
    """Run each workload in a fresh process, as when it is measured alone: the
    allocator state a workload leaves behind changes the next one's times."""
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result, report = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(line for line in report if not line.startswith("env ")))
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    if not args.trace:
        print("== derived (reversible over stored, train-*-df; not gated)")
        for label, key, unit in (("recompute_cost", "step_s_p50", "s/s"),
                                 ("peak_ratio", "peak_bytes", "B/B")):
            ratio = (metrics[f"train-rev-df/{key}"]["value"]
                     / metrics[f"train-stored-df/{key}"]["value"])
            metrics[f"derived/{label}"] = {"value": ratio, "unit": unit}
            print(f"   {label} = {key}(train-rev-df) / {key}(train-stored-df) = {ratio:.4f}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    import workloads

    if set(names) != set(workloads.NAMES):
        raise SystemExit(f"error: BENCHMARK.json workloads {names} != {workloads.NAMES}")
    print("env " + json.dumps(environment(), sort_keys=True))

    if args.workload != "all":
        metrics, attempted, failed = run_one(args.workload, args.seed, args.seconds,
                                             args.trace, spec, workloads)
    else:
        metrics, attempted, failed = run_all(names, args)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
