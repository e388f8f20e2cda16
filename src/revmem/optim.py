"""Stateful optimizers with 32-bit and quantized 8-bit state storage.

Update rules (non-dampened momentum, no bias correction):

    SGD:   m <- beta * m + g;            w <- w - lr * m
    Adam:  m <- b1 * m + (1 - b1) * g;   r <- b2 * r + (1 - b2) * g^2
           w <- w - lr * m / (sqrt(r) + eps)
    AdamW: Adam with weight_decay set: decoupled decay w <- w - lr * wd * w,
           then the Adam update.

``OPTIMIZERS`` names the five optimizers: each is a rule, ``Sgd`` or
``Adam``, with float or 8-bit state, and with or without weight decay.

Every optimizer updates in place, one chunk of ``CHUNK_ELEMENTS`` elements at
a time: a step writes into the array each ``Param`` holds (``p.value``) and
into the state it already owns, and rebinds none of them. The state is one
slot per parameter for each of the rule's states. For each chunk the step
loads each slot's slice, runs the rule on the slices of the parameter,
gradient and state, and stores the state back. A float slot loads a view,
which the rule updates in place, so storing it is a no-op. With
``block_size`` set, each slot holds a QuantizedState instead. A chunk there
is whole quantization blocks, so loading it dequantizes those blocks, and
storing it quantizes them back into the slot's existing ``codes``/``absmax``.
Blocks are independent, so the codes equal those of quantizing the whole
tensor, and the arithmetic runs in the same order as the whole-tensor rule,
so every number is the same. What a step allocates is a few chunk-sized
buffers whatever the tensor size: one 8-bit Adam step on a 327,680-element
float32 tensor peaks at about 0.7 MB of ``tracemalloc``, against about 9 MB
for whole-tensor dequantize and re-quantize.

Parameters themselves stay in full precision. Re-quantizing refuses
non-finite state and block maxima beyond the float32 block scale, so an 8-bit
step checks every parameter before it writes anything: see
``Optimizer._check``. A refused step leaves every parameter, state and
``step_count`` as it was.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuantizationError, StateOverflowError
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


class _Slot:
    """A float state tensor; a chunk loads as a flat view the rule updates in place."""

    def __init__(self, value: np.ndarray):
        self.state = np.zeros(value.shape, value.dtype)  # C order, so a flat view is a view

    def load(self, lo: int, hi: int, dtype) -> np.ndarray:
        return self.state.reshape(-1)[lo:hi]

    def store(self, lo: int, hi: int, part: np.ndarray) -> None:
        pass

    @property
    def nbytes(self) -> int:
        return self.state.nbytes


class _Slot8(_Slot):
    """A quantized state tensor, loaded and stored a run of whole blocks at a time."""

    def __init__(self, value: np.ndarray, block_size: int):
        self.qmap = default_map()
        self.block_size = block_size
        # quantized zeros: ZERO_CODE (0x00) everywhere and absmax 0 in every block
        self.state = QuantizedState(np.zeros(value.size, np.uint8),
                                    np.zeros(-(-value.size // block_size), np.float32),
                                    block_size, value.shape)

    def _blocks(self, lo: int, hi: int) -> slice:
        return slice(lo // self.block_size, -(-hi // self.block_size))

    def load(self, lo: int, hi: int, dtype) -> np.ndarray:
        """Dequantize elements [lo, hi); lo is a block start."""
        part = QuantizedState(self.state.codes[lo:hi], self.state.absmax[self._blocks(lo, hi)],
                              self.block_size, (hi - lo,))
        return dequantize_blockwise(part, self.qmap, dtype=dtype)

    def store(self, lo: int, hi: int, part: np.ndarray) -> None:
        """Quantize ``part`` into elements [lo, hi) of the existing codes and absmax."""
        quantized = quantize_blockwise(part, self.qmap, self.block_size)
        self.state.codes[lo:hi] = quantized.codes
        self.state.absmax[self._blocks(lo, hi)] = quantized.absmax


class Optimizer:
    """Base: owns Params and their state slots, and runs the one chunked update loop.

    A subclass gives its number of states (``n_states``), the rule for one
    chunk (``_rule``) and, for the 8-bit check, a bound on each new state
    (``_state_bounds``). ``slots[k][i]`` holds state k of parameter i: a
    float array, or with ``block_size`` set an 8-bit QuantizedState in
    blocks of that size.
    """

    n_states = 0

    def __init__(self, params, block_size: int | None = None):
        self.params = list(params)
        self.step_count = 0
        self.block_size = block_size
        self._chunk = CHUNK_ELEMENTS
        if block_size is not None:
            if block_size < 1 or int(block_size) != block_size:
                raise QuantizationError(f"block size must be a positive integer, got {block_size}")
            self.block_size = int(block_size)
            self._chunk = max(1, CHUNK_ELEMENTS // self.block_size) * self.block_size
        self.slots = [[_Slot(p.value) if block_size is None else _Slot8(p.value, self.block_size)
                       for p in self.params] for _ in range(self.n_states)]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        if self.block_size is not None:
            self._check()
        self.step_count += 1
        for i, p in enumerate(self.params):
            slots = [s[i] for s in self.slots]
            w, g = p.value.reshape(-1), p.grad.reshape(-1)
            for lo in range(0, w.size, self._chunk):
                hi = min(lo + self._chunk, w.size)
                parts = [s.load(lo, hi, w.dtype) for s in slots]
                self._rule(w[lo:hi], g[lo:hi], *parts)
                for s, part in zip(slots, parts):
                    s.store(lo, hi, part)
            if not np.may_share_memory(w, p.value):  # a non-contiguous value was copied
                p.value[...] = w.reshape(p.value.shape)

    def state_nbytes(self) -> int:
        return sum(s.nbytes for slots in self.slots for s in slots)

    def _check(self) -> None:
        """Refuse, before anything is written, a step that re-quantizing would reject.

        One pass over each gradient's max and min: a non-finite gradient is
        refused, and so is one whose new state could reach the float32 block
        scale. The bound is conservative. It combines the tensor's max |g|
        with each state's largest stored absmax by the triangle inequality
        (``_state_bounds``) and keeps a margin for float32 rounding, so a
        step whose real block maxima would have fit can still be refused.
        """
        for i, p in enumerate(self.params):
            if not p.grad.size:
                continue
            hi, lo = float(p.grad.max()), float(p.grad.min())
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise QuantizationError(
                    f"non-finite gradient in parameter {i} {p.value.shape}; step not taken"
                )
            g_max = max(hi, -lo)
            state_maxes = [float(s[i].state.absmax.max()) for s in self.slots]
            if not all(b < _STATE_LIMIT for b in self._state_bounds(g_max, *state_maxes)):
                raise StateOverflowError(
                    f"gradient max |g| {g_max:.3g} in parameter {i} {p.value.shape} could "
                    "overflow the 8-bit state's float32 block scale; step not taken"
                )


class Sgd(Optimizer):
    n_states = 1

    def __init__(self, params, lr: float = 0.1, momentum: float = 0.9,
                 block_size: int | None = None):
        super().__init__(params, block_size)
        self.lr = lr
        self.momentum = momentum

    def _rule(self, w, g, m):
        m *= self.momentum
        m += g
        w -= self.lr * m

    def _state_bounds(self, g_max: float, m_max: float) -> list[float]:
        return [abs(self.momentum) * m_max + g_max]


class Adam(Optimizer):
    n_states = 2

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, block_size: int | None = None):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        super().__init__(params, block_size)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay

    def _rule(self, w, g, m, r):
        if self.weight_decay:
            w -= self.lr * self.weight_decay * w
        scaled = (1.0 - self.beta1) * g
        m *= self.beta1
        m += scaled
        np.multiply(g, 1.0 - self.beta2, out=scaled)
        scaled *= g
        r *= self.beta2
        r += scaled
        move = self.lr * m
        denom = np.sqrt(r)
        denom += self.eps
        move /= denom
        w -= move

    def _state_bounds(self, g_max: float, m_max: float, r_max: float) -> list[float]:
        return [self.beta1 * m_max + (1.0 - self.beta1) * g_max,
                self.beta2 * r_max + (1.0 - self.beta2) * g_max * g_max]


# name -> (rule, 8-bit state, takes weight decay)
OPTIMIZERS = {
    "sgd": (Sgd, False, False),
    "sgd8": (Sgd, True, False),
    "adam": (Adam, False, False),
    "adamw": (Adam, False, True),
    "adam8": (Adam, True, True),
}


def _lookup(name: str):
    try:
        return OPTIMIZERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}") from None


def make_optimizer(name: str, params, lr: float, weight_decay: float = 0.0,
                   block_size: int = BLOCK_SIZE) -> Optimizer:
    """Build a named optimizer with the default momentum, betas and eps.

    ``weight_decay`` applies to ``adamw`` and ``adam8`` only; ``block_size``
    to the 8-bit variants only.
    """
    rule, eight_bit, decays = _lookup(name)
    decay = {"weight_decay": weight_decay} if decays else {}
    return rule(params, lr, block_size=block_size if eight_bit else None, **decay)


def optimizer_state_nbytes(n_params: int, name: str, scalar_width: int = 4) -> int:
    """Analytic state bytes for a parameter count, without building anything."""
    if name.lower() in ("none", ""):
        return 0
    rule, eight_bit, _ = _lookup(name)
    per_state = quantized_nbytes(n_params, BLOCK_SIZE) if eight_bit else n_params * scalar_width
    return rule.n_states * per_state
