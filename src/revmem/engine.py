"""Dual-mode network execution and the byte-exact memory ledger.

A network is a flat sequence of layers. Consecutive reversible layers
(coupling blocks and rearrangement downsamplers) form *reversible runs*.

Stored mode caches every primitive's input on a tape and walks it backward.
Reversible mode caches only the inputs of non-reversible layers, the final
output of each reversible run, and per-batch-norm statistics; gradients
inside a run are computed by reconstructing block inputs from block outputs.
Both modes accumulate gradients into the same Param objects and must agree
to rounding error.

The ledger counts semantic bytes only (element count times scalar width):
allocator slack and framework overhead are deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError, StateError
from .layers import Param, RevBlock
from .optim import optimizer_state_nbytes
from . import ops

MODES = ("stored", "reversible")

LEDGER_CATEGORIES = ("activations", "weights", "gradients", "optimizer_states", "workspace")


@dataclass
class MemoryLedger:
    """Byte counts per category, queryable at any point in a step."""

    activations: int = 0
    weights: int = 0
    gradients: int = 0
    optimizer_states: int = 0
    workspace: int = 0
    peak: int = 0

    def total(self) -> int:
        return (self.activations + self.weights + self.gradients
                + self.optimizer_states + self.workspace)

    def touch(self):
        self.peak = max(self.peak, self.total())

    def shares(self) -> dict[str, float]:
        tot = self.total()
        return {k: (getattr(self, k) / tot if tot else 0.0) for k in LEDGER_CATEGORIES}

    def rows(self) -> list[tuple[str, int, float]]:
        shares = self.shares()
        return [(k, getattr(self, k), shares[k]) for k in LEDGER_CATEGORIES]

    def to_csv(self) -> str:
        lines = ["category,bytes,share"]
        for name, nbytes, share in self.rows():
            lines.append(f"{name},{nbytes},{share:.6f}")
        return "\n".join(lines) + "\n"


class Network:
    """An instantiated layer stack with (channel, frequency) input spec."""

    def __init__(self, layers, name="net", input_spec=(1, 80), embedding_dim=None,
                 dtype=np.float32, spec=None):
        self.layers = list(layers)
        self.name = name
        self.input_spec = input_spec
        self.embedding_dim = embedding_dim
        self.dtype = np.dtype(dtype)
        self.spec = spec
        self.units = _group_units(self.layers)

    def params(self) -> list[Param]:
        return [p for l in self.layers for p in l.params()]

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    @property
    def layer_count(self) -> int:
        return len(self.layers)

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

    Stored mode keeps one tape entry per layer; reversible mode keeps the
    inputs of non-reversible layers and one output tensor per reversible
    run. Batch statistics live on the batch-norm layers and are booked as
    workspace, not activations.
    """

    def __init__(self, net: Network, mode: str):
        self.net = net
        self.mode = mode
        self.entries = []  # aligned with net.units
        self.consumed = False

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
        return sum(a.nbytes for a in self.activation_arrays())

    def full_tensor_count(self) -> int:
        return len(self.activation_arrays())


def run_forward(net: Network, batch: np.ndarray, mode: str):
    """Execute the network, returning (output, SavedStore, MemoryLedger)."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if batch.ndim != 4:
        raise ShapeError(f"batch must be rank-4 (n, c, f, t), got {batch.shape}")
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
        if kind == "layer":
            layer = net.layers[idxs]
            if mode == "stored":
                tape = []
                y = layer.forward(x, tape=tape)
                store.entries.append(("layer", idxs, tape))
            else:
                store.entries.append(("input", idxs, x))
                y = layer.forward(x, tape=None)
            x = y
        else:  # reversible run
            if mode == "stored":
                for i in idxs:
                    tape = []
                    x = net.layers[i].forward(x, tape=tape)
                    store.entries.append(("layer", i, tape))
            else:
                for i in idxs:
                    x = net.layers[i].forward(x, tape=None)
                store.entries.append(("run_out", idxs, x))

    ledger = MemoryLedger(
        activations=store.activation_nbytes(),
        weights=net.param_nbytes(),
        gradients=net.param_nbytes(),
        workspace=net.stat_nbytes(),
    )
    ledger.touch()
    return x, store, ledger


def run_backward(net: Network, store: SavedStore, g_out: np.ndarray, mode: str):
    """Walk the network backward, accumulating gradients into every Param.

    Returns the cotangent of the network input.
    """
    if store.net is not net:
        raise StateError("saved store belongs to a different network")
    if store.mode != mode:
        raise StateError(f"saved store was built in {store.mode!r} mode, not {mode!r}")
    if store.consumed:
        raise StateError("saved store already consumed by a previous backward pass")
    store.consumed = True

    g = g_out
    for kind, idx, payload in reversed(store.entries):
        if kind == "layer":
            g = net.layers[idx].backward(g, payload[0])
        elif kind == "input":
            g = net.layers[idx].backward_from_input(g, payload)
        else:  # run_out
            y = payload
            for i in reversed(idx):
                layer = net.layers[i]
                y, g = layer.rev_backward(y, g)
    return g


# -- pair-level reversible ops (thin, test-facing surface) ----------------

def rev_forward(block: RevBlock, x1, x2):
    return block.couple(x1, x2)


def rev_inverse(block: RevBlock, y1, y2):
    return block.invert(y1, y2)


def rev_backward(block: RevBlock, y1, y2, gy1, gy2):
    """Coupled-chain-rule backward; returns reconstructed inputs, input
    cotangents, and this call's parameter gradient contributions for F and G."""
    before_f = [p.grad.copy() for p in block.f.params()]
    before_g = [p.grad.copy() for p in block.g.params()]
    x1, x2, gx1, gx2 = block.rev_backward_pair(y1, y2, gy1, gy2)
    grads_f = [p.grad - b for p, b in zip(block.f.params(), before_f)]
    grads_g = [p.grad - b for p, b in zip(block.g.params(), before_g)]
    return x1, x2, gx1, gx2, grads_f, grads_g


def rev_downsample(x, r=2):
    return ops.pixel_unshuffle(x, r)


def rev_downsample_inverse(y, r=2):
    return ops.pixel_shuffle(y, r)


# -- analytic ledger -------------------------------------------------------

def ledger_plan(net: Network, batch: int, frames: int, mode: str,
                optimizer: str = "none", block_size: int = 2048) -> MemoryLedger:
    """Ledger for a hypothetical run, computed from shapes alone.

    Matches the ledger a real run_forward would produce byte for byte, and
    can additionally account optimizer state for a named optimizer.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    width = net.dtype.itemsize
    c_in, f_in = net.input_spec
    shape = (batch, c_in, f_in, frames)

    act_elems = 0
    stat_elems = 0
    prev_was_run = False
    for kind, idxs in net.units:
        if kind == "layer":
            layer = net.layers[idxs]
            if mode == "stored":
                act_elems += layer.plan_cached(shape)
            else:
                # a run's saved output is the same tensor as this input
                if not prev_was_run:
                    act_elems += _elems(shape)
            stat_elems += layer.plan_stats(shape)
            shape = layer.out_shape(shape)
            prev_was_run = False
        else:
            for i in idxs:
                layer = net.layers[i]
                if mode == "stored":
                    act_elems += layer.plan_cached(shape)
                stat_elems += layer.plan_stats(shape)
                shape = layer.out_shape(shape)
            if mode == "reversible":
                act_elems += _elems(shape)
            prev_was_run = True

    n_params = net.param_count
    ledger = MemoryLedger(
        activations=act_elems * width,
        weights=n_params * width,
        gradients=n_params * width,
        optimizer_states=optimizer_state_nbytes(n_params, optimizer, width, block_size),
        workspace=stat_elems * width,
    )
    ledger.touch()
    return ledger


def _elems(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def ledger_report(ledger: MemoryLedger) -> str:
    """CSV rows `category,bytes,share` in fixed category order."""
    return ledger.to_csv()


def max_batch(net: Network, mode: str, budget_bytes: int, frames: int = 200,
              optimizer: str = "none", block_size: int = 2048) -> int:
    """Largest batch whose ledger total fits the budget (memory affine in n)."""
    one = ledger_plan(net, 1, frames, mode, optimizer, block_size).total()
    two = ledger_plan(net, 2, frames, mode, optimizer, block_size).total()
    per_sample = two - one
    fixed = one - per_sample
    if budget_bytes < fixed + per_sample:
        raise CapacityError(
            f"budget {budget_bytes} cannot fit a single sample "
            f"(fixed {fixed} + per-sample {per_sample})"
        )
    if per_sample <= 0:
        raise ConfigError("per-sample memory must be positive")
    return int((budget_bytes - fixed) // per_sample)


def gpus_required(total_batch: int, per_gpu_max: int) -> int:
    """Devices needed for a target total batch given a per-device maximum."""
    if total_batch < 1 or per_gpu_max < 1:
        raise ConfigError("batch sizes must be positive")
    return math.ceil(total_batch / per_gpu_max)
