"""Additive-angular-margin softmax for embedding training.

Embeddings and class weight columns are L2-normalized internally; the true
class logit is scale * cos(theta + margin), all others scale * cos(theta),
followed by softmax cross-entropy averaged over the batch. Where
theta + margin would pass pi (non-monotone region), the guarded form
cos(theta) - margin * sin(margin) is used instead.

``Trainer`` is the one training step against that loss, which
``revmem train`` and ``scripts/peak_sites.py`` both run.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import run_backward, run_forward
from .errors import ConfigError, ShapeError
from .layers import Param
from .optim import OPTIMIZERS, Sgd, make_optimizer
from .quant import BLOCK_SIZE

_SIN_FLOOR = 1e-12  # keeps the margin chain rule finite for aligned pairs


def aam_softmax_loss(embeddings: np.ndarray, labels: np.ndarray, weights: np.ndarray,
                     margin: float = 0.2, scale: float = 32.0):
    """Returns (loss, dL/dembeddings, dL/dweights).

    Labels must be integers in [0, K). An empty batch, or an all-zero
    embedding row or weight column, whose direction is undefined, is
    rejected.
    """
    if embeddings.ndim != 2:
        raise ShapeError(f"embeddings must be (n, d), got {embeddings.shape}")
    if weights.ndim != 2 or weights.shape[0] != embeddings.shape[1]:
        raise ShapeError(
            f"weights must be (d={embeddings.shape[1]}, K), got {weights.shape}"
        )
    if embeddings.dtype != weights.dtype:
        raise ConfigError(
            f"embeddings dtype {embeddings.dtype} does not match head weights dtype "
            f"{weights.dtype}; cast one before computing the loss"
        )
    if not 0.0 <= margin < math.pi / 2:
        raise ValueError(f"margin must lie in [0, pi/2), got {margin}")
    n, d = embeddings.shape
    k = weights.shape[1]
    if n == 0:
        raise ShapeError(f"batch is empty: embeddings have shape {embeddings.shape}")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if labels.dtype.kind not in "iu":  # a bool array would index as a mask
        raise ConfigError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")

    e_norm = np.linalg.norm(embeddings, axis=1, keepdims=True)
    w_norm = np.linalg.norm(weights, axis=0, keepdims=True)
    for what, norm in (("embedding row", e_norm), ("weight column", w_norm)):
        if not norm.all():  # its direction, and so the loss, is undefined
            raise ConfigError(f"{what} {np.flatnonzero(norm == 0)[0]} has zero norm")
    e = embeddings / e_norm
    w = weights / w_norm
    cos = e @ w  # (n, K)

    cos_m, sin_m = math.cos(margin), math.sin(margin)
    rows = np.arange(n)
    cos_y = cos[rows, labels]
    sin_y = np.sqrt(np.maximum(1.0 - cos_y**2, _SIN_FLOOR))
    in_range = cos_y > math.cos(math.pi - margin)
    phi = np.where(in_range, cos_y * cos_m - sin_y * sin_m, cos_y - margin * sin_m)

    logits = scale * cos
    logits[rows, labels] = scale * phi

    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    loss = float(-(shifted[rows, labels] - np.log(expv.sum(axis=1))).mean())

    # backward: softmax CE -> logits -> cosines -> normalized vectors -> raw
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits *= scale / n

    dcos = dlogits.copy()
    dphi_dcos = np.where(in_range, cos_m + sin_m * cos_y / sin_y, 1.0)
    dcos[rows, labels] *= dphi_dcos

    de = dcos @ w.T
    dw = e.T @ dcos
    demb = (de - e * (de * e).sum(axis=1, keepdims=True)) / e_norm
    dweights = (dw - w * (dw * w).sum(axis=0, keepdims=True)) / w_norm
    return loss, demb, dweights


class Trainer:
    """One AAM training step of ``net`` against a head of ``classes`` weight columns.

    The head is drawn from ``default_rng(seed + 1)`` in the net's dtype. One
    optimizer, ``optim`` with weight decay 0.05 at ``lr`` (by default 0.02
    for the SGD rule and 1e-3 for Adam's), updates the net and the head.
    The step runs as three phases, so a profiler can measure each on its
    own: ``forward`` runs the net and the loss, ``backward`` the net's
    backward and the head's gradient, and ``step`` the update and
    ``zero_grad``.
    """

    def __init__(self, net, classes, optim, mode, lr=None, *, seed=0, block_size=BLOCK_SIZE):
        self.net, self.mode = net, mode
        rng = np.random.default_rng(seed + 1)
        self.head = Param(rng.normal(0, 0.1, (net.embedding_dim, classes)).astype(net.dtype))
        if lr is None:
            lr = 0.02 if OPTIMIZERS[optim][0] is Sgd else 1e-3
        self.opt = make_optimizer(optim, net.params() + [self.head], lr, weight_decay=0.05,
                                  block_size=block_size)
        self._held = None  # what backward needs of the last forward

    def forward(self, x, labels):
        """The net and the loss on one batch: (loss, embeddings, run_forward's ledger)."""
        emb, store, ledger = run_forward(self.net, x, self.mode)
        loss, demb, dhead = aam_softmax_loss(emb, labels, self.head.value)
        self._held = store, demb.astype(emb.dtype), dhead
        return loss, emb, ledger

    def backward(self):
        """The last forward's backward: the net's gradients and the head's."""
        store, demb, dhead = self._held
        self._held = None
        run_backward(self.net, store, demb, self.mode)
        self.head.grad += dhead.astype(self.head.value.dtype)

    def step(self):
        """The optimizer's update, then ``zero_grad``."""
        self.opt.step()
        self.opt.zero_grad()
