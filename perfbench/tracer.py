"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces library functions with timing wrappers under the names
their callers look up (a module attribute or a class attribute) and puts the
originals back when it is closed. The library itself is never edited, so a
wrapper only sees calls that go through the patched name: ``layers`` calls
``ops.<op>`` through the module, while ``optim`` binds ``quantize_blockwise``
and ``dequantize_blockwise`` at import, so those two are patched on
``revmem.optim`` and not on ``revmem.quant``.

Each call records a span: name, start, end, parent span and the id of the
benchmark operation (a training step, or -1 for a set-up) it belongs to. Spans stay in
memory until the run ends. With ``memory=True`` the tracer also records, per
span, the ``tracemalloc`` peak during the call. ``tracemalloc`` keeps a
single global peak, so the tracer keeps its own stack of peaks: a child's
reset of the global peak is first folded into the parent's running peak.
"""

from __future__ import annotations

import csv
import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the root
    op: int = -1  # benchmark operation id
    work: float = 0.0  # flops, bytes or elements, computed from shapes
    rise: int = 0  # traced peak above the bytes live at entry (memory mode)
    peak: int = 0  # traced peak since tracemalloc started (memory mode)


@dataclass
class Total:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    work: float = 0.0


class Tracer:
    def __init__(self, hooks, memory: bool = False):
        self.hooks = list(hooks)
        self.memory = memory
        self.spans: list[Span] = []
        self.op = -1
        self.suspended = False
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []  # [bytes at entry, running peak]
        self._originals = []

    # -- installation ----------------------------------------------------

    def __enter__(self):
        """Install the wrappers; a tracer can be entered again after it exits."""
        for owner, attr, name, work in self.hooks:
            if attr not in vars(owner):
                raise AttributeError(f"{owner!r} defines no attribute {attr!r} to trace")
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            idx = self._enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if work is not None:
                self.spans[idx].work = work(args, kwargs, result)
            return result

        return traced

    # -- spans -------------------------------------------------------------

    @contextmanager
    def operation(self, op: int, name: str):
        """Root span for one benchmark operation; library spans nest inside."""
        self.op = op
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def paused(self):
        """Run library calls unrecorded, e.g. for the benchmark's own checks."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], peak)
            tracemalloc.reset_peak()
            self._peaks.append([current, current])
        self.spans.append(Span(name, 0.0, parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _exit(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            entry, running = self._peaks.pop()
            span.peak = max(running, peak)
            span.rise = span.peak - entry
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], span.peak)
            tracemalloc.reset_peak()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, Total]:
        """Inclusive time, self time, calls and work per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, Total] = {}
        for s, covered in zip(self.spans, child_time):
            t = out.setdefault(s.name, Total())
            t.seconds += s.end - s.start
            t.self_seconds += s.end - s.start - covered
            t.calls += 1
            t.work += s.work
        return out

    def write_csv(self, path):
        names = [f.name for f in fields(Span)]
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(names)
            for s in self.spans:
                out.writerow([getattr(s, n) for n in names])


# -- the revmem call sites -----------------------------------------------------

OPS = (
    "conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp",
    "batchnorm2d", "batchnorm2d_vjp", "relu", "relu_vjp",
    "channel_split", "channel_concat", "pixel_unshuffle", "pixel_shuffle",
    "global_stat_pool", "global_stat_pool_vjp", "linear", "linear_vjp",
)
CONV_OPS = ("conv2d", "conv2d_vjp", "depthwise_conv2d", "depthwise_conv2d_vjp")
COPY_OPS = ("channel_split", "channel_concat", "pixel_unshuffle", "pixel_shuffle")


def _conv_flops(args, kwargs, result):
    # one multiply-add per output element and kernel tap of one input channel
    w = args[1]
    out = result if isinstance(result, np.ndarray) else args[2]
    flops = 2 * out.size * int(np.prod(w.shape[1:]))
    return flops if isinstance(result, np.ndarray) else 2 * flops  # vjp: gx and gw


def _written_bytes(args, kwargs, result):
    parts = result if isinstance(result, tuple) else (result,)
    return sum(p.nbytes for p in parts)


def _branch_name(args, kwargs):
    replay = kwargs.get("replay", args[3] if len(args) > 3 else False)
    return "layers.recompute" if replay else "layers.branch"


def revmem_hooks():
    """(owner, attribute, span name, work function) for every traced call site."""
    from revmem import engine, layers, loss, ops, optim, quant, synth, zoo

    hooks = []
    for op in OPS:
        work = _conv_flops if op in CONV_OPS else _written_bytes if op in COPY_OPS else None
        hooks.append((ops, op, f"ops.{op}", work))
    hooks += [
        (optim, "quantize_blockwise", "quant.quantize", lambda a, k, r: r.n_elements),
        (optim, "dequantize_blockwise", "quant.dequantize", lambda a, k, r: a[0].n_elements),
        (quant, "nearest_codes", "quant.nearest_codes", None),
        (layers.Sequential, "forward", _branch_name, None),
        (layers.RevBlock, "forward", "layers.RevBlock.forward", None),
        (layers.RevBlock, "backward", "layers.RevBlock.backward", None),
        (layers.RevBlock, "rev_backward", "layers.RevBlock.rev_backward", None),
        (layers.ResidualBlock, "forward", "layers.ResidualBlock.forward", None),
        (layers.ResidualBlock, "backward_from_input",
         "layers.ResidualBlock.backward_from_input", None),
    ]
    hooks += [(layers.RevDownsample, m, "layers.RevDownsample", None)
              for m in ("forward", "backward", "backward_from_input", "rev_backward")]
    hooks += [
        (optim.Optimizer, "step", "optim.step", None),
        (optim.Optimizer, "zero_grad", "optim.zero_grad", None),
        (engine, "run_forward", "engine.run_forward", None),
        (engine, "run_backward", "engine.run_backward", None),
        (engine, "ledger_plan", "engine.ledger_plan", None),
        (loss, "aam_softmax_loss", "loss.aam_softmax", None),
        (synth.SynthDataset, "batch", "synth.batch", None),
        (zoo, "build", "zoo.build", lambda a, k, r: r.param_nbytes()),
    ]
    return hooks
