"""Dual-mode network execution and the byte-exact memory ledger.

A network is a flat sequence of layers. Consecutive reversible layers
(coupling blocks and rearrangement downsamplers) form *reversible runs*.
Plain layers take and return tensors. Run members take and return tuples of
channel streams: the engine hands a run's tensor to its members as one
stream, splits it into the pair (x1, x2) once, at the run's first coupling
block, and concatenates the pair once, at the run's end. Backward walks a
run with the same split point.

Stored mode caches every primitive's input on a tape and walks it backward;
a whole run keeps one list of tape entries. Reversible mode caches only the
inputs of non-reversible layers, the final output of each reversible run,
and per-batch-norm statistics; gradients inside a run are computed by
reconstructing block inputs from block outputs, back to the run's first
coupling block; downsamplers ahead of it need only the cotangent. Both modes
accumulate gradients into the same Param objects and must agree to rounding
error.

The ledger counts semantic bytes only (element count times scalar width);
``MemoryLedger`` lists what its categories leave out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .layers import Param, RevBlock
from .optim import optimizer_state_nbytes
from .quant import BLOCK_SIZE
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

    - op and recompute transients: the branch tape a ``RevBlock`` rebuilds
      in reversible backward (one branch at a time) and each op's scratch
      buffers. A measured step rise exceeds the planned total by about
      7 MB on ``toy_spec([d, d], 16, "df_bottleneck")`` at batch 4 and 32
      frames, whatever the depth d (7.4, 7.2 and 6.6 MB at d = 2, 8 and
      32);
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
        for l in self.layers:
            shape = l.out_shape(shape)
        return shape

    def stat_nbytes(self) -> int:
        return sum(l.stat_nbytes() for l in self.layers)


def _group_units(layers):
    """Group consecutive reversible layers into runs: [("layer", i)] or ("run", [i..])."""
    units = []
    i = 0
    while i < len(layers):
        if layers[i].reversible:
            j = i
            while j < len(layers) and layers[j].reversible:
                j += 1
            units.append(("run", list(range(i, j))))
            i = j
        else:
            units.append(("layer", i))
            i += 1
    return units


class SavedStore:
    """Per-step cache of tensors retained for backward.

    Stored mode keeps one entry per unit: a layer's tape, or one list of
    tape entries for a whole reversible run. Reversible mode keeps the inputs
    of non-reversible layers and one output tensor per reversible run. Batch
    statistics live on the batch-norm layers and are booked as workspace,
    not activations. The output's shape and dtype are kept to check the
    cotangent that run_backward receives.

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
        """All cached ndarrays, deduplicated by object identity.

        Walks the nested payloads with an explicit stack: a self-referencing
        nested function would form a reference cycle holding every array
        until the cyclic garbage collector runs.
        """
        seen = {}
        stack = [payload for _, _, payload in reversed(self.entries)]
        while stack:
            obj = stack.pop()
            if isinstance(obj, np.ndarray):
                seen[id(obj)] = obj
            elif isinstance(obj, (list, tuple)):
                stack.extend(reversed(obj))
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


def _join(streams):
    return streams[0] if len(streams) == 1 else ops.channel_concat(*streams)


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

    store = SavedStore(net, mode)
    x = batch
    for kind, idxs in net.units:
        tape = [] if mode == "stored" else None
        if kind == "layer":
            y = net.layers[idxs].forward(x, tape=tape)
            store.entries.append(("layer", idxs, tape) if tape is not None
                                 else ("input", idxs, x))
            x = y
        else:  # reversible run: split once at its head, concat once at its end
            head = _run_head(net, idxs)
            xs = (x,)
            for i in idxs:
                if i == head:
                    xs = ops.channel_split(xs[0])
                xs = net.layers[i].forward(xs, tape=tape)
            x = _join(xs)
            store.entries.append(("run", idxs, tape) if tape is not None
                                 else ("run_out", idxs, x))
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
                optimizer: str = "none", block_size: int = BLOCK_SIZE) -> MemoryLedger:
    """Ledger for a hypothetical run, computed from shapes alone.

    One ``out_shape`` walk with a tape gives stored mode's cached shapes and
    every batch norm's statistics. The result matches the ledger a real
    run_forward would produce byte for byte, and also books the state of a
    named optimizer for the network's parameters. It leaves out what
    ``MemoryLedger`` lists, the optimizer step's buffers and any head
    outside the network among them.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if batch < 1 or frames < 1:
        raise ConfigError(f"batch and frames must be at least 1, got {batch} and {frames}")
    width = net.dtype.itemsize
    c_in, f_in = net.input_spec
    shape = (batch, c_in, f_in, frames)

    tape = []
    act_elems = 0
    prev_was_run = False
    for kind, idxs in net.units:
        # reversible mode saves a layer's input (unless it is the previous
        # run's saved output) and each run's output
        if mode == "reversible" and kind == "layer" and not prev_was_run:
            act_elems += math.prod(shape)
        for i in ([idxs] if kind == "layer" else idxs):
            shape = net.layers[i].out_shape(shape, tape)
        if mode == "reversible" and kind == "run":
            act_elems += math.prod(shape)
        prev_was_run = kind == "run"
    if mode == "stored":
        act_elems = sum(math.prod(s) for _, s in tape)
    stat_elems = sum(layer.stat_elems for layer, _ in tape)

    params = net.params()
    n_params = sum(p.size for p in params)
    return MemoryLedger(
        activations=act_elems * width,
        weights=n_params * width,
        gradients=n_params * width,
        # 8-bit optimizers quantize each tensor in its own blocks
        optimizer_states=sum(optimizer_state_nbytes(p.size, optimizer, width, block_size)
                             for p in params),
        workspace=stat_elems * width,
    )
