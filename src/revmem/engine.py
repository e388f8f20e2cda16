"""Dual-mode network execution and the byte-exact memory ledger.

A network is a flat sequence of layers. Consecutive reversible layers
(coupling blocks and rearrangement downsamplers) form *reversible runs*.
Plain layers take and return tensors. Run members take and return tuples of
channel streams: the engine hands a run's tensor to its members as one
stream, splits it into the pair (x1, x2) once, at the run's first coupling
block, and concatenates the pair once, at the run's end. Backward walks a
run with the same split point.

Consecutive plain primitives (childless, non-reversible layers: a conv
stage's conv, batch norm and ReLU, the pooling and the fc) form *segments*.

Stored mode caches every primitive's input on a tape, a ReLU's output in
place of its input, and walks it backward; a whole segment or run keeps one
list of tape entries. Reversible mode caches only the input of each segment
and of each composite layer (a ``ResidualBlock``), the final output of each
reversible run, and per-batch-norm statistics. Its backward replays a
segment from the saved input with ``Sequential.replay_vjp``, as a
``ResidualBlock`` replays its branch: segment checkpointing (Chen et al.
2016). Gradients inside a run are computed by reconstructing block inputs
from block outputs, back to the run's first coupling block; downsamplers
ahead of it need only the cotangent. Both
modes accumulate gradients into the same Param objects and must agree to
rounding error; a replay computes what the forward did, bit for bit.

``walk`` runs the units forward on arrays or, to plan, on ``Planned`` ones.
The ledger counts semantic bytes only (element count times scalar width);
``MemoryLedger`` lists what its categories leave out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .layers import Param, Planned, RevBlock, Sequential
from .optim import optimizer_state_nbytes
from . import ops

MODES = ("stored", "reversible")

LEDGER_CATEGORIES = ("activations", "weights", "gradients", "optimizer_states", "workspace")


@dataclass
class MemoryLedger:
    """Bytes a step holds, per category.

    ``activations`` are the arrays kept for backward, ``weights`` and
    ``gradients`` one copy each of the network's parameters,
    ``optimizer_states`` the state of a named optimizer (``ledger_plan``
    only: run_forward's ledger has no optimizer and books 0) and
    ``workspace`` the captured batch-norm statistics. No category includes:

    - op and recompute transients: what reversible backward rebuilds (a
      segment's tape from its saved input; in a ``RevBlock``, one branch at
      a time: a basic or bottleneck branch's tape, or one channel group of
      a DF bottleneck's middle) and each op's scratch buffers. At toy scale
      they are about 2.4 MB whatever the depth: on ``toy_spec([d, d], 16,
      "df_bottleneck")`` at batch 4 and 32 frames, the measured rise of a
      reversible forward and backward exceeds the planned total by 2.5,
      2.4 and 1.8 MB at d = 2, 8 and 32. They grow with the activations:
      DF-RevNet89 at batch 1 and 200 frames, stepping with adam8 and the
      AAM head, peaks at 65.3 MB of whole-process ``tracemalloc`` against a
      50.8 MB plan, 1.28 times the plan (``scripts/peak_sites.py``);
    - the optimizer step's chunk buffers;
    - allocator slack;
    - parameters outside the network, such as the AAM head that training
      adds: its weight, gradient and optimizer state.
    """

    activations: int = 0
    weights: int = 0
    gradients: int = 0
    optimizer_states: int = 0
    workspace: int = 0

    def total(self) -> int:
        return (self.activations + self.weights + self.gradients
                + self.optimizer_states + self.workspace)

    def shares(self) -> dict[str, float]:
        tot = self.total()
        return {k: (getattr(self, k) / tot if tot else 0.0) for k in LEDGER_CATEGORIES}

    def to_csv(self) -> str:
        """CSV rows `category,bytes,share` in fixed category order."""
        shares = self.shares()
        lines = ["category,bytes,share"]
        lines += [f"{k},{getattr(self, k)},{shares[k]:.6f}" for k in LEDGER_CATEGORIES]
        return "\n".join(lines) + "\n"


class Network:
    """An instantiated layer stack with (channel, frequency) input spec."""

    def __init__(self, layers, input_spec, embedding_dim, dtype):
        self.layers = list(layers)
        self.input_spec = input_spec
        self.embedding_dim = embedding_dim
        self.dtype = np.dtype(dtype)
        self.units = _group_units(self.layers)

    def params(self) -> list[Param]:
        return [p for l in self.layers for p in l.params()]

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def param_nbytes(self) -> int:
        return sum(p.nbytes for p in self.params())

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def out_shape(self, shape):
        return walk(self, Planned(shape), "reversible")[0].shape

    def stat_nbytes(self) -> int:
        return sum(l.stat_nbytes() for l in self.layers)


def _group_units(layers):
    """Group the layers into units, in order.

    ("run", [i..]) is a maximal run of reversible layers, ("segment", [i..])
    a maximal run of plain primitives (childless, non-reversible layers) and
    ("layer", i) a composite layer, such as a ResidualBlock.
    """
    units = []
    for i, layer in enumerate(layers):
        kind = "run" if layer.reversible else "layer" if layer.children() else "segment"
        if kind != "layer" and units and units[-1][0] == kind:
            units[-1][1].append(i)
        else:
            units.append((kind, i if kind == "layer" else [i]))
    return units


class SavedStore:
    """Per-step cache of tensors retained for backward, or of planned arrays.

    Stored mode keeps one entry per unit: a composite layer's tape, or one
    list of tape entries for a whole segment or reversible run. Reversible
    mode keeps one array per unit: the input of a segment or a composite
    layer, and the output of a reversible run. Batch statistics live on the
    batch-norm layers and are booked as workspace, not activations. The
    output's shape and dtype are kept to check the cotangent that
    run_backward receives. ``walk`` on a ``Planned`` input runs the same
    forwards, which fill a store with ``Planned`` arrays in the same places,
    and ``ledger_plan`` counts them.

    run_backward releases the store as it walks it: it pops each entry, and
    each tape entry inside it, as that entry's VJP runs, so no array is held
    past its last use and the store holds none afterwards. run_forward
    counts the cached bytes and tensors once, when it finishes, so the
    counts keep their forward-time values.
    """

    def __init__(self, net: Network, mode: str):
        self.net = net
        self.mode = mode
        self.entries = []  # aligned with net.units
        self.out_shape = None
        self.out_dtype = None
        self.consumed = False
        self._nbytes = 0  # set by run_forward, kept when backward releases the arrays
        self._tensors = 0

    def activation_arrays(self):
        """All cached arrays (or planned arrays), deduplicated by object identity.

        Walks the nested payloads with an explicit stack: a self-referencing
        nested function would form a reference cycle holding every array
        until the cyclic garbage collector runs.
        """
        seen = {}
        stack = [payload for _, _, payload in reversed(self.entries)]
        while stack:
            obj = stack.pop()
            if isinstance(obj, (list, tuple)):
                stack.extend(reversed(obj))
            elif obj is not None:  # a downsampler's tape entry holds nothing
                seen[id(obj)] = obj
        return list(seen.values())

    def activation_nbytes(self) -> int:
        return self._nbytes

    def full_tensor_count(self) -> int:
        return self._tensors


def _run_head(net: Network, idxs):
    """Index of a run's first coupling block, where its tensor splits into a pair.

    Downsamplers ahead of it rearrange the whole tensor, whose channel count
    may be odd. None when the run has no coupling block.
    """
    return next((i for i in idxs if isinstance(net.layers[i], RevBlock)), None)


def _split(x):
    """A run head's split of x into a pair, planned when x is ``Planned``."""
    if not isinstance(x, Planned):
        return ops.channel_split(x)
    n, c, f, t = x.shape
    return Planned((n, c // 2, f, t)), Planned((n, c - c // 2, f, t))


def _join(streams):
    if len(streams) == 1:
        return streams[0]
    if not isinstance(streams[0], Planned):
        return ops.channel_concat(*streams)
    n, _, f, t = streams[0].shape
    return Planned((n, sum(s.shape[1] for s in streams), f, t))


def walk(net: Network, x, mode: str):
    """Run the network's units on x in `mode`, returning (output, SavedStore).

    Every layer's ``forward`` takes a ``Planned`` x as it takes an array, so
    on a ``Planned`` x the walk plans: the store holds a ``Planned`` wherever
    a real one holds an array. Callers check x.
    """
    store = SavedStore(net, mode)
    for kind, idxs in net.units:
        tape = [] if mode == "stored" else None
        if kind == "layer":
            y = net.layers[idxs].forward(x, tape=tape)
            store.entries.append(("layer", idxs, tape) if tape is not None
                                 else ("input", idxs, x))
            x = y
            del y  # x alone holds the output, so a run's split can drop it
        elif kind == "segment":  # one tape for all its primitives, or its input
            store.entries.append(("segment", idxs, tape) if tape is not None
                                 else ("segment_in", idxs, x))
            for i in idxs:
                x = net.layers[i].forward(x, tape=tape)
        else:  # reversible run: split once at its head, concat once at its end
            head = _run_head(net, idxs)
            xs, x = (x,), None  # the split frees the run's input unless it is saved
            for i in idxs:
                if i == head:
                    xs = _split(xs[0])
                xs = net.layers[i].forward(xs, tape=tape)
            x = _join(xs)
            store.entries.append(("run", idxs, tape) if tape is not None
                                 else ("run_out", idxs, x))
    return x, store


def run_forward(net: Network, batch: np.ndarray, mode: str):
    """Execute the network, returning (output, SavedStore, MemoryLedger)."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if batch.ndim != 4:
        raise ShapeError(f"batch must be rank-4 (n, c, f, t), got {batch.shape}")
    if batch.shape[0] == 0:
        raise ShapeError(f"batch is empty: shape {batch.shape}")
    c_in, f_in = net.input_spec
    if net.layers and (batch.shape[1] != c_in or batch.shape[2] != f_in):
        raise ShapeError(
            f"batch shape {batch.shape} does not match input spec "
            f"(n, {c_in}, {f_in}, T)"
        )
    if batch.dtype != net.dtype:
        raise ConfigError(
            f"batch dtype {batch.dtype} does not match network dtype {net.dtype}; "
            "cast the batch before running the network"
        )

    x, store = walk(net, batch, mode)
    store.out_shape, store.out_dtype = x.shape, x.dtype
    arrays = store.activation_arrays()
    store._nbytes, store._tensors = sum(a.nbytes for a in arrays), len(arrays)

    return x, store, MemoryLedger(
        activations=store._nbytes,
        weights=net.param_nbytes(),
        gradients=net.param_nbytes(),
        workspace=net.stat_nbytes(),
    )


def run_backward(net: Network, store: SavedStore, g_out: np.ndarray, mode: str):
    """Walk the network backward, accumulating gradients into every Param.

    Releases the store as it walks: each entry, and each tape entry inside
    it, is popped as its VJP runs, and the saved output and the cotangent of
    a run are dropped once split, so every cached array is freed after its
    last use. The store keeps its byte and tensor counts. Returns the
    cotangent of the network input.
    """
    if store.net is not net:
        raise StateError("saved store belongs to a different network")
    if store.mode != mode:
        raise StateError(f"saved store was built in {store.mode!r} mode, not {mode!r}")
    if store.consumed:
        raise StateError("saved store already consumed by a previous backward pass")
    if g_out.shape != store.out_shape:
        raise ShapeError(
            f"cotangent shape {g_out.shape} does not match output shape {store.out_shape}"
        )
    if g_out.dtype != store.out_dtype:
        raise ConfigError(
            f"cotangent dtype {g_out.dtype} does not match output dtype {store.out_dtype}; "
            "cast the cotangent before running backward"
        )
    store.consumed = True

    g = g_out
    while store.entries:
        kind, idx, payload = store.entries.pop()
        if kind == "layer":
            g = net.layers[idx].backward(g, payload.pop())
        elif kind == "input":
            g = net.layers[idx].backward_from_input(g, payload)
        elif kind == "segment":
            g = Sequential([net.layers[i] for i in idx]).backward(g, payload)
        elif kind == "segment_in":  # replay from the saved input
            g = Sequential([net.layers[i] for i in idx]).replay_vjp(g, payload)[1]
        else:  # reversible run, walked with the same split point as forward
            head = _run_head(net, idx)
            gs = [g] if head is None else list(ops.channel_split(g))
            g = None  # gs now holds the cotangent; keep no second reference
            if kind == "run":
                for i in reversed(idx):
                    gs = net.layers[i].backward(gs, payload.pop())
                    if i == head:
                        gs = (_join(gs),)
            else:  # run_out: rebuild inputs from outputs back to the head; the
                # downsamplers ahead of it need only the cotangent
                # rev_backward empties the lists it is given, so each
                # stream is freed after its last use
                ys = None if head is None else list(ops.channel_split(payload))
                payload = None  # only ys is read from here on
                for i in reversed(idx):
                    if ys is None:
                        gs = net.layers[i].backward(gs)
                    else:
                        ys, gs = net.layers[i].rev_backward(ys, gs)
                    if i == head:
                        ys, gs = None, (_join(gs),)
            g = gs[0]
    return g


# -- analytic ledger -------------------------------------------------------

def ledger_plan(net: Network, batch: int, frames: int, mode: str,
                optimizer: str = "none") -> MemoryLedger:
    """Ledger for a hypothetical run, computed from shapes alone.

    Runs run_forward's own ``walk`` on a ``Planned`` input and counts the
    planned store's arrays once each, by identity, as run_forward counts
    real ones: a ReLU's output that its consumer tapes or saves too, or a
    run's output that the next unit saves as its input, is booked once.
    Batch statistics are every layer's ``stat_elems()``. The result matches
    the ledger a real run_forward would produce byte for byte, and also
    books the state of a named optimizer for the network's parameters. It
    leaves out what ``MemoryLedger`` lists, the optimizer step's buffers and
    any head outside the network among them.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
               for v in (batch, frames)):
        raise ConfigError(
            f"batch and frames must be integers of at least 1, got {batch!r} and {frames!r}"
        )
    batch, frames = int(batch), int(frames)
    width = net.dtype.itemsize
    c_in, f_in = net.input_spec
    _, store = walk(net, Planned((batch, c_in, f_in, frames)), mode)
    params = net.params()
    weights = sum(p.nbytes for p in params)
    return MemoryLedger(
        activations=width * sum(math.prod(a.shape) for a in store.activation_arrays()),
        weights=weights,
        gradients=weights,
        # 8-bit optimizers quantize each tensor in its own blocks
        optimizer_states=sum(optimizer_state_nbytes(p.size, optimizer, width)
                             for p in params),
        workspace=width * sum(l.stat_elems() for l in net.layers),
    )
