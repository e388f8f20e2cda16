#!/usr/bin/env python3
"""Median time and tracemalloc peak of each conv op and VJP at the benchmark's layer shapes.

Runs one reversible training step of each benchmark net (the configurations
in perfbench/workloads.py) and of DF-RevNet89 at batch 1 and 200 frames to
collect the distinct conv calls it makes, then times every call on its own with fresh random float32 inputs. BLAS is pinned
to one thread before numpy is imported, as in the benchmark. The library is
imported from src/ of this checkout.

    python3 scripts/conv_bench.py [--reps 20]

Columns: the op, input and kernel shapes, the call's trailing arguments as
given (stride and pad for a dense conv, pad for a depthwise one), calls per
training step, median milliseconds per call, the tracemalloc peak of one
call in MB and that peak over the input's bytes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from revmem import engine, ops, zoo

# (net spec or registry name, batch, frames): the benchmark nets, and the
# paper's reversible DF net at registry scale
NETS = {
    "train-rev-df": (zoo.toy_spec([4, 4], 16, "df_bottleneck", "type2"), 4, 32),
    "train-wide-q8": (zoo.toy_spec([1, 1], 64, "basic", "type1"), 2, 8),
    "DF-RevNet89": ("DF-RevNet89", 1, 200),
}
OPS = ("conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp")


def layer_calls(spec, batch, frames):
    """Counter of (op, x shape, w shape, trailing arguments) over one reversible step.

    The trailing arguments are those after the arrays (x, w, and gy for a
    VJP), as the layer passed them.
    """
    calls = Counter()
    originals = {name: getattr(ops, name) for name in OPS}

    def recording(name):
        fn = originals[name]

        def call(x, w, *rest):
            tail = rest[1:] if name.endswith("_vjp") else rest  # a VJP's rest opens with gy
            calls[(name, x.shape, w.shape, tail)] += 1
            return fn(x, w, *rest)

        return call

    net = zoo.build(spec, np.float32, seed=0)
    x = np.random.default_rng(0).standard_normal((batch, *net.input_spec, frames),
                                                 dtype=np.float32)
    for name in OPS:
        setattr(ops, name, recording(name))
    try:
        emb, store, _ = engine.run_forward(net, x, "reversible")
        engine.run_backward(net, store, np.ones_like(emb), "reversible")
    finally:
        for name, fn in originals.items():
            setattr(ops, name, fn)
    return calls


def measure(name, x_shape, w_shape, tail, reps, rng):
    """Median seconds, tracemalloc peak and input bytes of fn(x, w[, gy], *tail)."""
    x = rng.standard_normal(x_shape, dtype=np.float32)
    w = rng.standard_normal(w_shape, dtype=np.float32)
    forward = getattr(ops, name.removesuffix("_vjp"))
    args = (x, w)
    if name.endswith("_vjp"):
        args += (rng.standard_normal(forward(x, w, *tail).shape, dtype=np.float32),)
    args += tuple(tail)
    fn = getattr(ops, name)
    fn(*args)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return float(np.median(times)), peak, x.nbytes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=20, help="timed calls per shape")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, float32, {args.reps} reps, BLAS threads 1")
    for net_name, cfg in NETS.items():
        print(f"\n{net_name}")
        print(f"{'op':22} {'x':>17} {'w':>16} {'args':>6} calls {'ms':>7} {'peak MB':>8} "
              f"{'/input':>6}")
        for (name, xs, ws, tail), count in sorted(layer_calls(*cfg).items()):
            sec, peak, in_bytes = measure(name, xs, ws, tail, args.reps, rng)
            print(f"{name:22} {str(xs):>17} {str(ws):>16} {' '.join(map(str, tail)):>6} "
                  f"{count:5d} {1e3 * sec:7.2f} {peak / 1e6:8.2f} {peak / in_bytes:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
