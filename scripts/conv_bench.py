#!/usr/bin/env python3
"""Median time, peak and held bytes of the conv, batch-norm and ReLU-VJP ops at real layer shapes.

Runs one reversible training step of each benchmark net (the configurations
in perfbench/workloads.py), of DF-RevNet89 and of ResNet34 at batch 1 and
200 frames to collect the distinct calls it makes to the ops in OPS, which
the benchmark's span tracer (perfbench/tracer.py) records, then times every
call on its own with fresh random float32 inputs. A VJP with parameters is
called as a layer calls it, with zeroed accumulators to add its parameter
cotangents into, and a VJP that a chain hands its own cotangent (``out=``)
writes dL/dx into its gy, which is refilled between calls, outside the timed
span. BLAS is pinned to one thread before numpy is imported, as in the
benchmark. The library is imported from src/ of this checkout.

    python3 scripts/conv_bench.py [--reps 20] [--against CHECKOUT]

Columns: the op, the input's shape and the kernel's (gamma's for a batch
norm, none for relu_vjp), the call's trailing arguments (the stride of a
dense conv, "replay" for a batch norm given its statistics, "out" for a VJP
that writes into its gy), calls per training step, median milliseconds per
call, the tracemalloc peak of one call in MB, the MB its results keep alive
once it has returned, and the peak over the input's bytes. Held bytes above the results' own size
mean a result is a view that pins a larger buffer.

``--against`` times the ops of another checkout (a directory holding its
src/revmem) in the same process, on the same arrays, alternating call by
call with this checkout's, so the machine's drift falls on both alike.
Both are called alike, so the other checkout's ops must take the same
arguments: VJPs that add into accumulators and write dL/dx into ``out=``.
The columns are then the op and its shapes, calls per step, this
checkout's and the other's median milliseconds per call, and their ratio.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import importlib
import sys
import time
import tracemalloc
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from revmem import engine, ops, zoo
from tracer import Tracer
from workloads import TRAIN

# (net spec or registry name, batch, frames): the benchmark's reversible
# nets as its workloads configure them, the paper's reversible DF net and,
# for registry-scale stride-2 dense convs, the type1 baseline ResNet34
NETS = {name: (zoo.toy_spec(list(c.stage_blocks), c.width, c.kind, c.net_type), c.batch, c.frames)
        for name, c in TRAIN.items() if name in ("train-rev-df", "train-wide-q8")}
NETS |= {"DF-RevNet89": ("DF-RevNet89", 1, 200), "ResNet34": ("ResNet34", 1, 200)}
CONV_OPS = ("conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp")
OPS = CONV_OPS + ("batchnorm2d", "batchnorm2d_vjp", "relu_vjp")
# each VJP's parameter-cotangent accumulators, in the order of its results
ACCUMULATORS = {"conv2d_vjp": ("gw",), "depthwise_conv2d_vjp": ("gw",),
                "batchnorm2d_vjp": ("dgamma", "dbeta")}


def _call_key(name, args, kwargs):
    """(op, x shape, w shape, trailing arguments) of one call of any op.

    w is a conv's kernel, a batch norm's gamma or an fc's weight, the second
    argument of those ops; other ops have none. The trailing arguments are
    those after x that are not arrays (accumulators), as the layer passed
    them: a dense conv's stride, a rearrangement's ratio. A batch norm's
    are ("replay",) if it is given its statistics, else none. A call given
    ``out=`` adds "out".
    """
    if name.startswith("batchnorm2d"):
        tail = ("replay",) if kwargs.get("stats") is not None else ()
    else:
        tail = tuple(a for a in args[1:] if not isinstance(a, np.ndarray))
    if kwargs.get("out") is not None:
        tail += ("out",)
    weighted = name.removesuffix("_vjp") in (*CONV_OPS, "batchnorm2d", "linear")
    return name, args[0].shape, args[1].shape if weighted else (), tail


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


def _arguments(name, x_shape, w_shape, tail, rng):
    """Random float32 arguments and keywords of one call with _call_key's
    shapes, and a function that restores them between calls.

    A VJP's accumulators, each w's shape, are zeros passed by keyword. With
    "out" in tail, gy is passed as ``out`` too, as a chain passes the
    cotangent it owns; the restore writes gy's first values back into it,
    so repeated calls do not compound.
    """
    x = rng.standard_normal(x_shape, dtype=np.float32)
    kwargs = {a: np.zeros(w_shape, np.float32) for a in ACCUMULATORS.get(name, ())}
    if name == "relu_vjp":
        args = (ops.relu(x), rng.standard_normal(x.shape, dtype=np.float32))
    elif name in CONV_OPS:
        w = rng.standard_normal(w_shape, dtype=np.float32)
        stride = tuple(a for a in tail if a != "out")
        args = (x, w)
        if name.endswith("_vjp"):
            y = getattr(ops, name.removesuffix("_vjp"))(x, w, *stride)
            args += (rng.standard_normal(y.shape, dtype=np.float32),)
        args += stride
    else:
        gamma = rng.uniform(0.5, 1.5, w_shape).astype(np.float32)
        beta = rng.standard_normal(w_shape, dtype=np.float32)
        _, mean, var = ops.batchnorm2d(x, gamma, beta)
        if name == "batchnorm2d":
            return (x, gamma, beta), {"stats": (mean, var)} if tail else {}, lambda: None
        args = (x, gamma, rng.standard_normal(x.shape, dtype=np.float32), mean, var)
    if "out" not in tail:
        return args, kwargs, lambda: None
    gy = args[1] if name == "relu_vjp" else args[2]
    kwargs["out"], first = gy, gy.copy()
    return args, kwargs, lambda: np.copyto(gy, first)


def load_ops(checkout):
    """The ops module of another checkout's src/revmem, under a package name
    of its own, so it sits beside this checkout's revmem.ops."""
    name = "revmem_against"
    package = types.ModuleType(name)
    package.__path__ = [str(Path(checkout).resolve() / "src" / "revmem")]
    sys.modules[name] = package
    return importlib.import_module(f"{name}.ops")


def _median_times(fns, args, kwargs, restore, reps):
    """Median seconds of each function's call, the functions alternating
    call by call, in reverse order every other round; ``restore`` runs
    before each call, untimed."""
    for fn in fns:
        restore()
        fn(*args, **kwargs)
    times = [[] for _ in fns]
    for rep in range(reps):
        order = range(len(fns)) if rep % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            restore()
            start = time.perf_counter()
            fns[i](*args, **kwargs)
            times[i].append(time.perf_counter() - start)
    return [float(np.median(t)) for t in times]


def compare(name, x_shape, w_shape, tail, reps, rng, against):
    """Median seconds of one call of this checkout's op and of ``against``'s
    (an ops module from load_ops), timed alternately on the same arrays."""
    args, kwargs, restore = _arguments(name, x_shape, w_shape, tail, rng)
    return tuple(_median_times([getattr(ops, name), getattr(against, name)],
                               args, kwargs, restore, reps))


def measure(name, x_shape, w_shape, tail, reps, rng):
    """Median seconds, tracemalloc peak, held bytes and input bytes of one call.

    Held bytes are the numpy buffers the call allocated that are still
    alive while its results are; a VJP's accumulators are not among them,
    nor the gy it writes into.
    """
    args, kwargs, restore = _arguments(name, x_shape, w_shape, tail, rng)
    fn = getattr(ops, name)
    sec = _median_times([fn], args, kwargs, restore, reps)[0]
    restore()
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
    return sec, peak, held, args[0].nbytes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=20, help="timed calls per shape")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="another checkout whose ops to time alternately with these")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    if args.against and not (Path(args.against) / "src" / "revmem" / "ops.py").is_file():
        ap.error(f"--against: no src/revmem/ops.py under {args.against}")
    against = load_ops(args.against) if args.against else None
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, float32, {args.reps} reps, BLAS threads 1")
    for net_name in NETS:
        print(f"\n{net_name}")
        head = f"{'op':22} {'x':>17} {'w':>16} {'args':>6} calls"
        print(head + (f" {'ms':>7} {'other ms':>8} {'ratio':>6}" if against else
                      f" {'ms':>7} {'peak MB':>8} {'held MB':>8} {'/input':>6}"))
        for (name, xs, ws, tail), count in sorted(layer_calls(*NETS[net_name]).items()):
            row = (f"{name:22} {str(xs):>17} {str(ws) if ws else '-':>16} "
                   f"{' '.join(map(str, tail)):>6} {count:5d}")
            if against:
                sec, other = compare(name, xs, ws, tail, args.reps, rng, against)
                print(f"{row} {1e3 * sec:7.2f} {1e3 * other:8.2f} {sec / other:6.2f}")
                continue
            sec, peak, held, in_bytes = measure(name, xs, ws, tail, args.reps, rng)
            print(f"{row} {1e3 * sec:7.2f} {peak / 1e6:8.2f} {held / 1e6:8.2f} "
                  f"{peak / in_bytes:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
