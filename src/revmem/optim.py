"""Stateful optimizers with 32-bit and quantized 8-bit state storage.

Update rules (non-dampened momentum, no bias correction unless asked for):

    SGD:   m <- beta * m + g;            w <- w - lr * m
    Adam:  m <- b1 * m + (1 - b1) * g;   r <- b2 * r + (1 - b2) * g^2
           w <- w - lr * m / (sqrt(r) + eps)
    AdamW: decoupled decay w <- w - lr * wd * w, then the Adam update.

The 8-bit variants keep each state tensor as a QuantizedState; a step
dequantizes, applies the exact 32-bit rule, and re-quantizes. Parameters
themselves stay in full precision. Re-quantizing refuses non-finite state, so
an 8-bit step checks every gradient before it updates anything: a step that
raises for a non-finite gradient leaves every parameter and state as it was.
"""

from __future__ import annotations

import numpy as np

from .errors import QuantizationError, ShapeError
from .quant import (
    DynamicTreeMap,
    QuantizedState,
    default_map,
    dequantize_blockwise,
    quantize_blockwise,
    quantized_nbytes,
)


def sgd_update(w, g, m, lr: float, momentum: float):
    """One SGD-with-momentum step on raw arrays; returns (w, m)."""
    if w.shape != g.shape or w.shape != m.shape:
        raise ShapeError(f"mismatched shapes {w.shape}/{g.shape}/{m.shape}")
    m = momentum * m + g
    return w - lr * m, m


def adam_update(w, g, m, r, lr: float, beta1: float, beta2: float, eps: float,
                step: int, bias_correction: bool = False):
    """One Adam step on raw arrays; returns (w, m, r)."""
    if w.shape != g.shape:
        raise ShapeError(f"mismatched shapes {w.shape}/{g.shape}")
    m = beta1 * m + (1.0 - beta1) * g
    r = beta2 * r + (1.0 - beta2) * g * g
    if bias_correction:
        mh = m / (1.0 - beta1**step)
        rh = r / (1.0 - beta2**step)
    else:
        mh, rh = m, r
    return w - lr * mh / (np.sqrt(rh) + eps), m, r


class _Slot8:
    """A quantized state tensor with dequantize/update/requantize plumbing."""

    def __init__(self, shape, block_size: int, qmap: DynamicTreeMap):
        self.qmap = qmap
        self.block_size = block_size
        self.state = quantize_blockwise(
            np.zeros(shape, np.float32), qmap, block_size
        )

    def load(self, dtype) -> np.ndarray:
        return dequantize_blockwise(self.state, self.qmap, dtype=dtype)

    def store(self, dense: np.ndarray) -> None:
        self.state = quantize_blockwise(dense, self.qmap, self.block_size)

    @property
    def nbytes(self) -> int:
        return self.state.nbytes


class Optimizer:
    """Base: owns Params and per-Param state slots."""

    states_per_param = 0

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        for i, p in enumerate(self.params):
            self._update(i, p)

    def _update(self, idx, p):
        raise NotImplementedError

    def state_nbytes(self) -> int:
        return 0


class Sgd(Optimizer):
    states_per_param = 1

    def __init__(self, params, lr: float = 0.1, momentum: float = 0.9):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.m = [np.zeros_like(p.value) for p in self.params]

    def _update(self, idx, p):
        p.value, self.m[idx] = sgd_update(p.value, p.grad, self.m[idx], self.lr, self.momentum)

    def state_nbytes(self) -> int:
        return sum(m.nbytes for m in self.m)


class Adam(Optimizer):
    states_per_param = 2

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, bias_correction: bool = False):
        super().__init__(params)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.bias_correction = bias_correction
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.r = [np.zeros_like(p.value) for p in self.params]

    def _update(self, idx, p):
        if self.weight_decay:
            p.value = p.value - self.lr * self.weight_decay * p.value
        p.value, self.m[idx], self.r[idx] = adam_update(
            p.value, p.grad, self.m[idx], self.r[idx],
            self.lr, self.beta1, self.beta2, self.eps,
            self.step_count, self.bias_correction,
        )

    def state_nbytes(self) -> int:
        return sum(m.nbytes for m in self.m) + sum(r.nbytes for r in self.r)


def AdamW(params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
          eps: float = 1e-8, weight_decay: float = 0.05, bias_correction: bool = False):
    return Adam(params, lr, beta1, beta2, eps, weight_decay, bias_correction)


class _Optimizer8(Optimizer):
    """Base of the optimizers whose state is blockwise-quantized 8-bit."""

    def step(self):
        for i, p in enumerate(self.params):
            if not np.isfinite(p.grad).all():
                raise QuantizationError(
                    f"non-finite gradient in parameter {i} {p.value.shape}; step not taken"
                )
        super().step()


class Sgd8(_Optimizer8):
    """SGD with momentum held as blockwise-quantized 8-bit state."""

    states_per_param = 1

    def __init__(self, params, lr: float = 0.1, momentum: float = 0.9,
                 block_size: int = 2048, qmap: DynamicTreeMap | None = None):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.qmap = qmap or default_map()
        self.m = [_Slot8(p.value.shape, block_size, self.qmap) for p in self.params]

    def _update(self, idx, p):
        m = self.m[idx].load(p.value.dtype)
        p.value, m = sgd_update(p.value, p.grad, m, self.lr, self.momentum)
        self.m[idx].store(m)

    def state_nbytes(self) -> int:
        return sum(s.nbytes for s in self.m)


class Adam8(_Optimizer8):
    """Adam/AdamW with both moments held as blockwise-quantized 8-bit state."""

    states_per_param = 2

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, bias_correction: bool = False,
                 block_size: int = 2048, qmap: DynamicTreeMap | None = None):
        super().__init__(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.bias_correction = bias_correction
        self.qmap = qmap or default_map()
        self.m = [_Slot8(p.value.shape, block_size, self.qmap) for p in self.params]
        self.r = [_Slot8(p.value.shape, block_size, self.qmap) for p in self.params]

    def _update(self, idx, p):
        m = self.m[idx].load(p.value.dtype)
        r = self.r[idx].load(p.value.dtype)
        if self.weight_decay:
            p.value = p.value - self.lr * self.weight_decay * p.value
        p.value, m, r = adam_update(
            p.value, p.grad, m, r, self.lr, self.beta1, self.beta2, self.eps,
            self.step_count, self.bias_correction,
        )
        self.m[idx].store(m)
        self.r[idx].store(r)

    def state_nbytes(self) -> int:
        return sum(s.nbytes for s in self.m) + sum(s.nbytes for s in self.r)


def make_optimizer(name: str, params, lr: float, momentum: float = 0.9,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                   weight_decay: float = 0.0, block_size: int = 2048) -> Optimizer:
    name = name.lower()
    if name == "sgd":
        return Sgd(params, lr, momentum)
    if name == "sgd8":
        return Sgd8(params, lr, momentum, block_size)
    if name == "adam":
        return Adam(params, lr, beta1, beta2, eps, weight_decay=0.0)
    if name == "adamw":
        return Adam(params, lr, beta1, beta2, eps, weight_decay=weight_decay)
    if name == "adam8":
        return Adam8(params, lr, beta1, beta2, eps, weight_decay=weight_decay,
                     block_size=block_size)
    raise ValueError(f"unknown optimizer {name!r}")


def optimizer_state_nbytes(n_params: int, name: str, scalar_width: int = 4,
                           block_size: int = 2048) -> int:
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
