"""Dual-mode network execution and the byte-exact memory ledger.

A network is a flat sequence of layers, grouped into *units*, each one
layer object (``net.units``). Consecutive reversible layers (coupling
blocks and rearrangement downsamplers) form a ``RevRun``, which owns its
split point: it hands its tensor to its members as one stream, splits it
into the pair (x1, x2) once, at its first coupling block, and concatenates
the pair once, at its end. Consecutive plain primitives (childless,
non-reversible layers: a conv stage's conv, batch norm and ReLU, the
pooling and the fc) form a *segment*, one ``Sequential``. A composite
layer (a ``ResidualBlock``) is a unit of its own.

Stored mode gives each unit its own tape, on which every primitive caches
its input (a ReLU its output), and calls the unit's ``backward``, which
pops it. Reversible mode caches only the input of each segment and
composite, the output of each run, and per-batch-norm statistics. Its
backward calls ``backward_from_input``, which replays a segment or a
``ResidualBlock``'s branch from the saved input with
``Sequential.replay_vjp``: segment checkpointing (Chen et al. 2016); or a
run's ``backward_from_output``, which reconstructs block inputs from block
outputs, back to the run's first coupling block; downsamplers ahead of it
need only the cotangent. Both modes accumulate gradients into the same
Param objects and must agree to rounding error; a replay computes what the
forward did, bit for bit.

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
from .layers import Param, Planned, RevRun, Sequential
from .optim import optimizer_state_nbytes

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
      they are about 2 MB whatever the depth: on ``toy_spec([d, d], 16,
      "df_bottleneck")`` at batch 4 and 32 frames, a reversible forward and
      backward rises 1.98, 2.00 and 2.10 MB above the planned activations
      and workspace at d = 2, 8 and 32 (README.md's Notes give the
      command). They grow with the activations: DF-RevNet89 at batch 1 and
      200 frames, stepping with adam8 and the AAM head, peaks at 58.9 MB of
      whole-process ``tracemalloc`` against a 50.8 MB plan, 1.16 times the
      plan (``python3 scripts/peak_sites.py --net DF-RevNet89``);
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

    def stat_nbytes(self) -> int:
        return sum(l.stat_nbytes() for l in self.layers)


def _group_units(layers):
    """Group the layers into units, in order: a ``RevRun`` for each maximal
    run of reversible layers, a ``Sequential`` for each maximal run of plain
    primitives (childless, non-reversible layers), and each composite layer,
    such as a ``ResidualBlock``, as itself.
    """
    groups = []  # (unit class, members); None for a composite
    for layer in layers:
        kind = RevRun if layer.reversible else None if layer.children() else Sequential
        if kind is not None and groups and groups[-1][0] is kind:
            groups[-1][1].append(layer)
        else:
            groups.append((kind, [layer]))
    return [members[0] if kind is None else kind(members) for kind, members in groups]


class SavedStore:
    """Per-step cache of tensors retained for backward, or of planned arrays.

    ``entries`` holds one payload per item of ``net.units``. Stored mode
    keeps each unit's own tape, which the unit's ``backward`` pops. Reversible
    mode keeps one array per unit: the input of a segment or a composite
    layer, which its ``backward_from_input`` replays from, and the output of
    a ``RevRun``, which its ``backward_from_output`` rebuilds the run's
    inputs from. Batch statistics live on the batch-norm layers and are
    booked as workspace, not activations. The output's shape and dtype are
    kept to check the cotangent that run_backward receives. ``walk`` on a
    ``Planned`` input runs the same forwards, which fill a store with
    ``Planned`` arrays in the same places, and ``ledger_plan`` counts them.

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
        stack = self.entries[::-1]
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


def walk(net: Network, x, mode: str):
    """Run the network's units on x in `mode`, returning (output, SavedStore).

    Every layer's ``forward`` takes a ``Planned`` x as it takes an array, so
    on a ``Planned`` x the walk plans: the store holds a ``Planned`` wherever
    a real one holds an array. Callers check x.
    """
    store = SavedStore(net, mode)
    xs, x = [x], None  # xs alone holds the current array, so a run's split can free it
    for unit in net.units:
        tape = [] if mode == "stored" else None
        # a run's entry is its output, known once it has run
        entry = tape if tape is not None or unit.reversible else xs[0]
        xs.append(unit.forward(xs.pop(), tape=tape))
        store.entries.append(xs[0] if entry is None else entry)
    return xs.pop(), store


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
    it, is popped as its VJP runs, and a run drops its saved output and its
    cotangent once it splits them, so every cached array is freed after its
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

    gs = [g_out]  # handed over by pop, so a run's split can free the cotangent
    for unit in reversed(net.units):
        if mode == "stored":
            backward = unit.backward
        else:
            backward = unit.backward_from_output if unit.reversible else unit.backward_from_input
        gs.append(backward(gs.pop(), store.entries.pop()))
    return gs.pop()


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
