#!/usr/bin/env python3
"""Median time, peak and held bytes of the conv, batch-norm and ReLU-VJP ops at real layer shapes.

Runs one reversible training step of each benchmark net (the configurations
in perfbench/workloads.py), of DF-RevNet89 and of ResNet34 at batch 1 and
200 frames to collect the distinct calls it makes to the ops in OPS, which
the benchmark's span tracer (perfbench/tracer.py) records, then times every
call on its own with fresh random float32 inputs. BLAS is pinned to one
thread before numpy is imported, as in the benchmark. The library is
imported from src/ of this checkout.

    python3 scripts/conv_bench.py [--reps 20]

Columns: the op, the input's shape and the kernel's (gamma's for a batch
norm, none for relu_vjp), the call's trailing arguments (the stride of a
dense conv, "replay" for a batch norm given its statistics, else none),
calls per training step, median milliseconds per call, the tracemalloc peak
of one call in MB, the MB its results keep alive once it has returned, and
the peak over the input's bytes. Held bytes above the results' own size
mean a result is a view that pins a larger buffer.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from revmem import engine, ops, zoo
from tracer import Tracer

# (net spec or registry name, batch, frames): the benchmark nets, the
# paper's reversible DF net and, for registry-scale stride-2 dense convs,
# the type1 baseline ResNet34
NETS = {
    "train-rev-df": (zoo.toy_spec([4, 4], 16, "df_bottleneck", "type2"), 4, 32),
    "train-wide-q8": (zoo.toy_spec([1, 1], 64, "basic", "type1"), 2, 8),
    "DF-RevNet89": ("DF-RevNet89", 1, 200),
    "ResNet34": ("ResNet34", 1, 200),
}
CONV_OPS = ("conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp")
OPS = CONV_OPS + ("batchnorm2d", "batchnorm2d_vjp", "relu_vjp")


def _call_key(name, args, kwargs):
    """(op, x shape, w shape, trailing arguments) of one call.

    w is a conv's kernel or a batch norm's gamma; relu_vjp has none. The
    trailing arguments of a conv are those after its arrays (x, w, and gy
    for a VJP), as the layer passed them; a batch norm given its statistics
    has ("replay",), any other call none.
    """
    x = args[0]
    if name == "relu_vjp":
        return name, x.shape, (), ()
    if name in CONV_OPS:
        tail = args[3:] if name.endswith("_vjp") else args[2:]
    else:
        tail = ("replay",) if kwargs.get("stats") is not None else ()
    return name, x.shape, args[1].shape, tuple(tail)


def layer_calls(spec, batch, frames):
    """Counter of _call_key over one reversible step, each call a traced span."""
    net = zoo.build(spec, np.float32, seed=0)
    x = np.random.default_rng(0).standard_normal((batch, *net.input_spec, frames),
                                                 dtype=np.float32)
    with Tracer((ops, name, functools.partial(_call_key, name), None)
                for name in OPS) as tracer:
        emb, store, _ = engine.run_forward(net, x, "reversible")
        engine.run_backward(net, store, np.ones_like(emb), "reversible")
    return Counter(span.name for span in tracer.spans)


def _arguments(name, x, w_shape, tail, rng):
    """Random float32 arguments (and keywords) of one call with _call_key's shapes."""
    if name == "relu_vjp":
        return (ops.relu(x), rng.standard_normal(x.shape, dtype=np.float32)), {}
    if name in CONV_OPS:
        w = rng.standard_normal(w_shape, dtype=np.float32)
        args = (x, w)
        if name.endswith("_vjp"):
            y = getattr(ops, name.removesuffix("_vjp"))(x, w, *tail)
            args += (rng.standard_normal(y.shape, dtype=np.float32),)
        return args + tuple(tail), {}
    gamma = rng.uniform(0.5, 1.5, w_shape).astype(np.float32)
    beta = rng.standard_normal(w_shape, dtype=np.float32)
    _, mean, var = ops.batchnorm2d(x, gamma, beta)
    if name == "batchnorm2d":
        return (x, gamma, beta), {"stats": (mean, var)} if tail else {}
    return (x, gamma, rng.standard_normal(x.shape, dtype=np.float32), mean, var), {}


def measure(name, x_shape, w_shape, tail, reps, rng):
    """Median seconds, tracemalloc peak, held bytes and input bytes of one call.

    Held bytes are the numpy buffers the call allocated that are still
    alive while its results are.
    """
    x = rng.standard_normal(x_shape, dtype=np.float32)
    args, kwargs = _arguments(name, x, w_shape, tail, rng)
    fn = getattr(ops, name)
    fn(*args, **kwargs)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        buffers = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        del out
    finally:
        tracemalloc.stop()
    held = sum(trace.size for trace in buffers.traces)
    return float(np.median(times)), peak, held, x.nbytes


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
              f"{'held MB':>8} {'/input':>6}")
        for (name, xs, ws, tail), count in sorted(layer_calls(*cfg).items()):
            sec, peak, held, in_bytes = measure(name, xs, ws, tail, args.reps, rng)
            print(f"{name:22} {str(xs):>17} {str(ws) if ws else '-':>16} "
                  f"{' '.join(map(str, tail)):>6} "
                  f"{count:5d} {1e3 * sec:7.2f} {peak / 1e6:8.2f} {held / 1e6:8.2f} "
                  f"{peak / in_bytes:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
