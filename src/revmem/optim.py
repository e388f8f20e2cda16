"""Stateful optimizers with 32-bit and quantized 8-bit state storage.

Update rules (non-dampened momentum, no bias correction unless asked for):

    SGD:   m <- beta * m + g;            w <- w - lr * m
    Adam:  m <- b1 * m + (1 - b1) * g;   r <- b2 * r + (1 - b2) * g^2
           w <- w - lr * m / (sqrt(r) + eps)
    AdamW: Adam with weight_decay set: decoupled decay w <- w - lr * wd * w,
           then the Adam update.

Every optimizer updates in place, one chunk of ``CHUNK_ELEMENTS`` elements at
a time: a step writes into the array each ``Param`` holds (``p.value``) and
into the state arrays the optimizer already owns, and rebinds none of them.
For each chunk it loads the state's slice, runs the rule on the slices of the
parameter, gradient and state, and stores the state back. Dense state is a
slice, so loading and storing it cost nothing. The 8-bit variants keep each
state tensor as a QuantizedState. A chunk there is whole quantization blocks,
so loading it dequantizes those blocks, and storing it quantizes them back
into the slot's existing ``codes``/``absmax``. Blocks are independent, so the
codes equal those of quantizing the whole tensor, and the arithmetic runs in
the same order as the whole-tensor rule, so every number is the same. What a
step allocates is a few chunk-sized buffers whatever the tensor size: one
``Adam8`` step on a 327,680-element float32 tensor peaks at about 0.7 MB of
``tracemalloc``, against about 9 MB for whole-tensor dequantize and
re-quantize.

Parameters themselves stay in full precision. Re-quantizing refuses
non-finite state and block maxima beyond the float32 block scale, so an 8-bit
step checks every parameter before it writes anything: see
``_Optimizer8._check``. A refused step leaves every parameter, state and
``step_count`` as it was.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuantizationError, ShapeError, StateOverflowError
from .quant import (
    BLOCK_SIZE,
    QuantizedState,
    default_map,
    dequantize_blockwise,
    quantize_blockwise,
    quantized_nbytes,
)

# Elements updated per chunk. An 8-bit optimizer rounds this down to whole
# quantization blocks, and takes one block if a block is larger.
CHUNK_ELEMENTS = 1 << 14
# A state bound at or above this refuses an 8-bit step: the float32 maximum,
# less a margin for the rounding of the float32 arithmetic.
_STATE_LIMIT = float(np.finfo(np.float32).max) * (1.0 - 2.0**-16)


def sgd_update(w, g, m, lr: float, momentum: float):
    """One SGD-with-momentum step on raw arrays, in place; returns (w, m)."""
    if w.shape != g.shape or w.shape != m.shape:
        raise ShapeError(f"mismatched shapes {w.shape}/{g.shape}/{m.shape}")
    m *= momentum
    m += g
    w -= lr * m
    return w, m


def adam_update(w, g, m, r, lr: float, beta1: float, beta2: float, eps: float,
                step: int, bias_correction: bool = False):
    """One Adam step on raw arrays, in place; returns (w, m, r)."""
    if w.shape != g.shape:
        raise ShapeError(f"mismatched shapes {w.shape}/{g.shape}")
    scaled = (1.0 - beta1) * g
    m *= beta1
    m += scaled
    np.multiply(g, 1.0 - beta2, out=scaled)
    scaled *= g
    r *= beta2
    r += scaled
    if bias_correction:
        move = m / (1.0 - beta1**step)
        denom = r / (1.0 - beta2**step)
        move *= lr
        np.sqrt(denom, out=denom)
    else:
        move = lr * m
        denom = np.sqrt(r)
    denom += eps
    move /= denom
    w -= move
    return w, m, r


class _Slot8:
    """A quantized state tensor, loaded and stored a run of whole blocks at a time."""

    def __init__(self, shape, block_size: int):
        self.qmap = default_map()
        self.block_size = block_size
        self.state = quantize_blockwise(
            np.zeros(shape, np.float32), self.qmap, block_size
        )

    def _blocks(self, lo: int, hi: int) -> slice:
        return slice(lo // self.block_size, -(-hi // self.block_size))

    def load(self, lo: int, hi: int, dtype) -> np.ndarray:
        """Dequantize elements [lo, hi); lo is a block start."""
        part = QuantizedState(self.state.codes[lo:hi], self.state.absmax[self._blocks(lo, hi)],
                              self.block_size, (hi - lo,))
        return dequantize_blockwise(part, self.qmap, dtype=dtype)

    def store(self, lo: int, hi: int, dense: np.ndarray) -> None:
        """Quantize ``dense`` into elements [lo, hi) of the existing codes and absmax."""
        part = quantize_blockwise(dense, self.qmap, self.block_size)
        self.state.codes[lo:hi] = part.codes
        self.state.absmax[self._blocks(lo, hi)] = part.absmax

    @property
    def nbytes(self) -> int:
        return self.state.nbytes


class Optimizer:
    """Base: owns Params and their state, and runs the one chunked update loop.

    A subclass lists its per-Param states (``_states``) and gives the rule
    for one chunk (``_rule``). Dense state is loaded as a slice, which the
    rule updates in place, so storing it is a no-op; ``_Optimizer8`` loads
    and stores quantized chunks instead.
    """

    _chunk = CHUNK_ELEMENTS

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self._check()
        self.step_count += 1
        state_lists = self._states()
        for i, p in enumerate(self.params):
            states = [s[i] for s in state_lists]
            w, g = p.value.reshape(-1), p.grad.reshape(-1)
            for lo in range(0, w.size, self._chunk):
                hi = min(lo + self._chunk, w.size)
                parts = [self._load(s, lo, hi, w.dtype) for s in states]
                self._rule(w[lo:hi], g[lo:hi], *parts)
                for s, part in zip(states, parts):
                    self._store(s, lo, hi, part)
            if not np.may_share_memory(w, p.value):  # a non-contiguous value was copied
                p.value[...] = w.reshape(p.value.shape)

    def state_nbytes(self) -> int:
        return sum(s.nbytes for states in self._states() for s in states)

    def _new_state(self, p):
        return np.zeros(p.value.shape, p.value.dtype)  # C order, so a flat view is a view

    def _states(self) -> list[list]:
        return []

    def _load(self, state, lo: int, hi: int, dtype) -> np.ndarray:
        return state.reshape(-1)[lo:hi]

    def _store(self, state, lo: int, hi: int, part: np.ndarray) -> None:
        pass

    def _check(self) -> None:
        pass

    def _rule(self, w, g, *states) -> None:
        raise NotImplementedError


class Sgd(Optimizer):
    def __init__(self, params, lr: float = 0.1, momentum: float = 0.9):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.m = [self._new_state(p) for p in self.params]

    def _states(self):
        return [self.m]

    def _rule(self, w, g, m):
        sgd_update(w, g, m, self.lr, self.momentum)

    def _state_bounds(self, g_max: float, m_max: float) -> list[float]:
        return [abs(self.momentum) * m_max + g_max]


class Adam(Optimizer):
    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, bias_correction: bool = False):
        super().__init__(params)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.bias_correction = bias_correction
        self.m = [self._new_state(p) for p in self.params]
        self.r = [self._new_state(p) for p in self.params]

    def _states(self):
        return [self.m, self.r]

    def _rule(self, w, g, m, r):
        if self.weight_decay:
            w -= self.lr * self.weight_decay * w
        adam_update(w, g, m, r, self.lr, self.beta1, self.beta2, self.eps,
                    self.step_count, self.bias_correction)

    def _state_bounds(self, g_max: float, m_max: float, r_max: float) -> list[float]:
        return [self.beta1 * m_max + (1.0 - self.beta1) * g_max,
                self.beta2 * r_max + (1.0 - self.beta2) * g_max * g_max]


class _Optimizer8(Optimizer):
    """Mixin for a rule whose state is blockwise-quantized 8-bit.

    Placed ahead of the dense rule's class; ``_quantize_with`` must run
    before that class's ``__init__`` builds the states.
    """

    def _quantize_with(self, block_size: int) -> None:
        if block_size < 1 or int(block_size) != block_size:
            raise QuantizationError(f"block size must be a positive integer, got {block_size}")
        self.block_size = int(block_size)
        self._chunk = max(1, CHUNK_ELEMENTS // self.block_size) * self.block_size

    def _new_state(self, p):
        return _Slot8(p.value.shape, self.block_size)

    def _load(self, slot, lo, hi, dtype):
        return slot.load(lo, hi, dtype)

    def _store(self, slot, lo, hi, part):
        slot.store(lo, hi, part)

    def _check(self) -> None:
        """Refuse, before anything is written, a step that re-quantizing would reject.

        One pass over each gradient's max and min: a non-finite gradient is
        refused, and so is one whose new state could reach the float32 block
        scale. The bound is conservative. It combines the tensor's max |g|
        with each state's largest stored absmax by the triangle inequality
        (``_state_bounds``) and keeps a margin for float32 rounding, so a
        step whose real block maxima would have fit can still be refused.
        """
        state_lists = self._states()
        for i, p in enumerate(self.params):
            if not p.grad.size:
                continue
            hi, lo = float(p.grad.max()), float(p.grad.min())
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise QuantizationError(
                    f"non-finite gradient in parameter {i} {p.value.shape}; step not taken"
                )
            g_max = max(hi, -lo)
            state_maxes = [float(s[i].state.absmax.max()) for s in state_lists]
            if not all(b < _STATE_LIMIT for b in self._state_bounds(g_max, *state_maxes)):
                raise StateOverflowError(
                    f"gradient max |g| {g_max:.3g} in parameter {i} {p.value.shape} could "
                    "overflow the 8-bit state's float32 block scale; step not taken"
                )


class Sgd8(_Optimizer8, Sgd):
    """SGD with momentum held as blockwise-quantized 8-bit state."""

    def __init__(self, params, lr: float = 0.1, momentum: float = 0.9,
                 block_size: int = BLOCK_SIZE):
        self._quantize_with(block_size)
        super().__init__(params, lr, momentum)


class Adam8(_Optimizer8, Adam):
    """Adam/AdamW with both moments held as blockwise-quantized 8-bit state."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, bias_correction: bool = False,
                 block_size: int = BLOCK_SIZE):
        self._quantize_with(block_size)
        super().__init__(params, lr, beta1, beta2, eps, weight_decay, bias_correction)


def make_optimizer(name: str, params, lr: float, weight_decay: float = 0.0,
                   block_size: int = BLOCK_SIZE) -> Optimizer:
    """Build a named optimizer with the default momentum, betas and eps.

    ``weight_decay`` applies to ``adamw`` and ``adam8`` only; ``block_size``
    to the 8-bit variants only.
    """
    name = name.lower()
    if name == "sgd":
        return Sgd(params, lr)
    if name == "sgd8":
        return Sgd8(params, lr, block_size=block_size)
    if name == "adam":
        return Adam(params, lr)
    if name == "adamw":
        return Adam(params, lr, weight_decay=weight_decay)
    if name == "adam8":
        return Adam8(params, lr, weight_decay=weight_decay, block_size=block_size)
    raise ValueError(f"unknown optimizer {name!r}")


def optimizer_state_nbytes(n_params: int, name: str, scalar_width: int = 4,
                           block_size: int = BLOCK_SIZE) -> int:
    """Analytic state bytes for a parameter count, without building anything."""
    name = name.lower()
    per_state_dense = n_params * scalar_width
    per_state_8bit = quantized_nbytes(n_params, block_size)
    if name == "sgd":
        return per_state_dense
    if name == "sgd8":
        return per_state_8bit
    if name in ("adam", "adamw"):
        return 2 * per_state_dense
    if name == "adam8":
        return 2 * per_state_8bit
    if name in ("none", ""):
        return 0
    raise ValueError(f"unknown optimizer {name!r}")
