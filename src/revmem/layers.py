"""Layer objects: parameters, primitives, residual branches, reversible blocks.

Execution protocol (used by the engine):

* ``forward(x, tape=None, replay=False)`` computes the layer output. When
  ``tape`` is a list, the layer appends one entry holding whatever its
  backward needs (stored mode). With ``tape=None`` nothing is retained beyond
  per-layer batch-norm statistics (reversible mode). ``replay=True`` makes
  batch norms reuse the statistics captured on the step's first forward
  instead of recomputing them, and suppresses running-stat updates.
* ``backward(gy, entry)`` consumes that tape entry, accumulates parameter
  gradients, and returns the input cotangent. A ``Sequential`` pops its
  entries as it walks them, so each cached input is freed after its last
  use and the tape is empty afterwards.
* ``out_shape(shape, tape=None)`` is the shape-only twin of ``forward``: it
  returns the output shape, and when ``tape`` is a list it appends
  ``(layer, input shape)`` wherever ``forward(x, tape)`` appends an array.
  The ledger is planned from that one walk: the shapes on the tape are what
  stored mode caches, and each entry's ``stat_elems`` (``2 * c`` for a
  batch norm, else 0) is what the layer captures as batch statistics.

Members of a reversible run (``RevBlock``, ``RevDownsample``) take and
return tuples of channel streams instead of single tensors: a ``RevBlock``
works on the pair ``(x1, x2)``, and a ``RevDownsample`` rearranges each
stream it is given, one stream ahead of the run's first block and two after
it. ``RevBlock.inverse(y)`` reconstructs the inputs from the outputs, and
``rev_backward(y, gy)`` does so and runs the coupled chain rule, so no
forward activation of the block is ever read. ``rev_backward`` alone takes
lists instead of tuples: it empties them, so each stream is freed after its
last use, and returns new lists.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError, StateError


class Param:
    """A learnable tensor with an additive gradient accumulator.

    ``value`` is the array passed in, not a copy, and an optimizer step
    writes into it in place: an array (or view) handed to a Param changes
    when the optimizer steps.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0

    @property
    def size(self) -> int:
        return int(self.value.size)

    @property
    def nbytes(self) -> int:
        return int(self.value.nbytes)


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _tape_shape(tape, layer, shape):
    """Planning twin of forward's ``tape.append(x)``."""
    if tape is not None:
        tape.append((layer, shape))


class Layer:
    reversible = False
    stat_elems = 0  # batch-statistic scalars captured per forward

    def params(self) -> list[Param]:
        return []

    def out_shape(self, shape, tape=None):
        _tape_shape(tape, self, shape)
        return shape

    def forward(self, x, tape=None, replay=False):
        raise NotImplementedError

    def backward(self, gy, entry):
        raise NotImplementedError

    def backward_from_input(self, gy, x):
        """Backward given only the cached input (reversible-mode path)."""
        return self.backward(gy, x)

    def stat_nbytes(self) -> int:
        return 0


class Conv2d(Layer):
    def __init__(self, c_in, c_out, k, stride=1, pad=None, *, rng, dtype):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride = stride
        self.pad = k // 2 if pad is None else pad
        self.w = Param(he_uniform(rng, (c_out, c_in, k, k), c_in * k * k, dtype))

    def params(self):
        return [self.w]

    def out_shape(self, shape, tape=None):
        n, c, f, t = shape
        if c != self.c_in:
            raise ShapeError(f"{type(self).__name__} expects {self.c_in} channels, got {c}")
        _tape_shape(tape, self, shape)
        return (n, self.c_out, ops.conv_out_size(f, self.k, self.stride, self.pad),
                ops.conv_out_size(t, self.k, self.stride, self.pad))

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(x)
        return ops.conv2d(x, self.w.value, self.stride, self.pad)

    def backward(self, gy, x):
        gx, gw = ops.conv2d_vjp(x, self.w.value, gy, self.stride, self.pad)
        self.w.grad += gw
        return gx


class DepthwiseConv2d(Conv2d):
    """One k x k filter per channel at stride 1, padded to keep the size;
    shares Conv2d's geometry and tape."""

    stride = 1

    def __init__(self, c, k=3, *, rng, dtype):
        self.c_in = self.c_out = c
        self.k = k
        self.pad = k // 2
        self.w = Param(he_uniform(rng, (c, 1, k, k), k * k, dtype))

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(x)
        return ops.depthwise_conv2d(x, self.w.value, self.pad)

    def backward(self, gy, x):
        gx, gw = ops.depthwise_conv2d_vjp(x, self.w.value, gy, self.pad)
        self.w.grad += gw
        return gx


class BatchNorm2d(Layer):
    """Training-mode batch norm with capture/replay of batch statistics.

    The statistics used on the step's forward pass are kept on the layer so
    that reversible recomputation replays exactly them; running statistics
    are updated only on capture forwards, never on replays.
    """

    eps = 1e-5
    momentum = 0.1  # running-statistics update rate

    def __init__(self, c, *, dtype):
        self.c = c
        self.stat_elems = 2 * c
        self.gamma = Param(np.ones(c, dtype))
        self.beta = Param(np.zeros(c, dtype))
        self.running_mean = np.zeros(c, dtype)
        self.running_var = np.ones(c, dtype)
        self.saved_stats = None

    def params(self):
        return [self.gamma, self.beta]

    def out_shape(self, shape, tape=None):
        if shape[1] != self.c:
            raise ShapeError(f"batch norm expects {self.c} channels, got {shape[1]}")
        _tape_shape(tape, self, shape)
        return shape

    def forward(self, x, tape=None, replay=False):
        if replay:
            if self.saved_stats is None:
                raise StateError("batch norm replay requested but no captured statistics")
            y, _, _ = ops.batchnorm2d(
                x, self.gamma.value, self.beta.value, self.eps, stats=self.saved_stats
            )
        else:
            y, mean, var = ops.batchnorm2d(x, self.gamma.value, self.beta.value, self.eps)
            self.saved_stats = (mean, var)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        if tape is not None:
            tape.append(x)
        return y

    def backward(self, gy, x):
        if self.saved_stats is None:
            raise StateError("batch norm backward requires captured statistics")
        mean, var = self.saved_stats
        gx, dgamma, dbeta = ops.batchnorm2d_vjp(x, self.gamma.value, gy, mean, var, self.eps)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return gx

    def stat_nbytes(self):
        if self.saved_stats is None:
            return 0
        mean, var = self.saved_stats
        return int(mean.nbytes + var.nbytes)


class ReLU(Layer):
    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(x)
        return ops.relu(x)

    def backward(self, gy, x):
        return ops.relu_vjp(x, gy)


class GlobalStatPool(Layer):
    def out_shape(self, shape, tape=None):
        _tape_shape(tape, self, shape)
        n, c, f, t = shape
        return (n, 2 * c * f)

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(x)
        return ops.global_stat_pool(x)

    def backward(self, gy, x):
        return ops.global_stat_pool_vjp(x, gy)


class Linear(Layer):
    def __init__(self, d_in, d_out, *, rng, dtype):
        self.d_in, self.d_out = d_in, d_out
        self.w = Param(he_uniform(rng, (d_in, d_out), d_in, dtype))
        self.b = Param(np.zeros(d_out, dtype))

    def params(self):
        return [self.w, self.b]

    def out_shape(self, shape, tape=None):
        n, d = shape
        if d != self.d_in:
            raise ShapeError(f"linear expects width {self.d_in}, got {d}")
        _tape_shape(tape, self, shape)
        return (n, self.d_out)

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(x)
        return ops.linear(x, self.w.value, self.b.value)

    def backward(self, gy, x):
        gx, gw, gb = ops.linear_vjp(x, self.w.value, gy)
        self.w.grad += gw
        self.b.grad += gb
        return gx


class Sequential(Layer):
    """A flat chain of primitive layers; tape entries are one per sub-layer."""

    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        return [p for l in self.layers for p in l.params()]

    def out_shape(self, shape, tape=None):
        for l in self.layers:
            shape = l.out_shape(shape, tape)
        return shape

    def forward(self, x, tape=None, replay=False):
        for l in self.layers:
            x = l.forward(x, tape=tape, replay=replay)
        return x

    def backward(self, gy, entries):
        # pops each entry as its VJP runs, so a cached input is freed right
        # after its last use
        for l in reversed(self.layers):
            gy = l.backward(gy, entries.pop())
        return gy

    def stat_nbytes(self):
        return sum(l.stat_nbytes() for l in self.layers)


RESIDUAL_KINDS = ("basic", "bottleneck", "df_bottleneck")


def make_residual_fn(kind, width, *, rng, dtype, stride=1, c_in=None):
    """Residual branch for one stream of `width` channels.

    basic:          conv3x3 -> BN -> ReLU -> conv3x3
    bottleneck:     conv1x1 (w/4) -> BN -> ReLU -> conv3x3 -> conv1x1 (w)
    df_bottleneck:  conv1x1 (4w) -> BN -> ReLU -> dwconv3x3 -> conv1x1 (w)

    `stride` applies to the first conv (downsampling blocks); `c_in` lets the
    first conv take a different input width than the branch output.
    """
    c_in = width if c_in is None else c_in
    if kind == "basic":
        return Sequential([
            Conv2d(c_in, width, 3, stride=stride, rng=rng, dtype=dtype),
            BatchNorm2d(width, dtype=dtype),
            ReLU(),
            Conv2d(width, width, 3, rng=rng, dtype=dtype),
        ])
    if kind == "bottleneck":
        if width % 4:
            raise ConfigError(f"bottleneck width {width} must be divisible by 4")
        mid = width // 4
        return Sequential([
            Conv2d(c_in, mid, 1, stride=stride, rng=rng, dtype=dtype),
            BatchNorm2d(mid, dtype=dtype),
            ReLU(),
            Conv2d(mid, mid, 3, rng=rng, dtype=dtype),
            Conv2d(mid, width, 1, rng=rng, dtype=dtype),
        ])
    if kind == "df_bottleneck":
        mid = 4 * width
        return Sequential([
            Conv2d(c_in, mid, 1, stride=stride, rng=rng, dtype=dtype),
            BatchNorm2d(mid, dtype=dtype),
            ReLU(),
            DepthwiseConv2d(mid, 3, rng=rng, dtype=dtype),
            Conv2d(mid, width, 1, rng=rng, dtype=dtype),
        ])
    raise ConfigError(f"unknown residual kind {kind!r}")


class ResidualBlock(Layer):
    """Non-reversible y = skip(x) + branch(x).

    The skip is the identity when shapes are preserved, otherwise a bare
    1x1 projection conv (stride-matched).
    """

    def __init__(self, kind, c_in, c_out, *, rng, dtype, stride=1):
        self.branch = make_residual_fn(kind, c_out, rng=rng, dtype=dtype,
                                       stride=stride, c_in=c_in)
        if c_in != c_out or stride != 1:
            self.proj = Conv2d(c_in, c_out, 1, stride=stride, pad=0, rng=rng, dtype=dtype)
        else:
            self.proj = None

    def params(self):
        ps = self.branch.params()
        if self.proj is not None:
            ps = ps + self.proj.params()
        return ps

    def out_shape(self, shape, tape=None):
        # the tape's x is the branch's first entry, and the projection runs
        # untaped, so the branch's walk is the whole plan
        return self.branch.out_shape(shape, tape)

    def forward(self, x, tape=None, replay=False):
        sub = [] if tape is not None else None
        y = self.branch.forward(x, tape=sub, replay=replay)
        skip = x if self.proj is None else self.proj.forward(x)
        if tape is not None:
            tape.append((x, sub))
        return y + skip

    def backward(self, gy, entry):
        x, sub = entry
        gx = self.branch.backward(gy, sub)
        if self.proj is None:
            gx = gx + gy
        else:
            gx = gx + self.proj.backward(gy, x)
        return gx

    def backward_from_input(self, gy, x):
        # checkpoint style: rebuild the branch tape from the cached input
        sub = []
        self.branch.forward(x, tape=sub, replay=True)
        return self.backward(gy, (x, sub))

    def stat_nbytes(self):
        return self.branch.stat_nbytes()


class RevBlock(Layer):
    """Additive-coupling block on a stream pair: y1 = x1 + F(x2); y2 = x2 + G(y1).

    Every method takes and returns pairs: the engine splits a run's tensor
    evenly on the channel axis (fixed first/second half) at the run's first
    block and concatenates it at the run's end. The block is exactly
    invertible, so its backward can reconstruct (x1, x2) from (y1, y2) and
    needs no cached activations.
    """

    reversible = True

    def __init__(self, kind, half_width, *, rng, dtype):
        self.half_width = half_width
        self.f = make_residual_fn(kind, half_width, rng=rng, dtype=dtype)
        self.g = make_residual_fn(kind, half_width, rng=rng, dtype=dtype)

    def params(self):
        return self.f.params() + self.g.params()

    def out_shape(self, shape, tape=None):
        # planned on the whole tensor; each branch sees one half
        n, c, f, t = shape
        if c != 2 * self.half_width:
            raise ShapeError(
                f"reversible block expects {2 * self.half_width} channels, got {c}"
            )
        half = (n, self.half_width, f, t)
        self.g.out_shape(self.f.out_shape(half, tape), tape)
        return shape

    def forward(self, x, tape=None, replay=False):
        x1, x2 = x
        if x1.shape != x2.shape:
            raise ShapeError(f"stream shapes differ: {x1.shape} vs {x2.shape}")
        f_tape, g_tape = ([], []) if tape is not None else (None, None)
        y1 = x1 + self.f.forward(x2, tape=f_tape, replay=replay)
        y2 = x2 + self.g.forward(y1, tape=g_tape, replay=replay)
        if tape is not None:
            tape.append((f_tape, g_tape))
        return y1, y2

    def backward(self, gy, entry):
        f_tape, g_tape = entry
        gy1, gy2 = gy
        gz1 = gy1 + self.g.backward(gy2, g_tape)
        gx2 = gy2 + self.f.backward(gz1, f_tape)
        return gz1, gx2

    def inverse(self, y):
        y1, y2 = y
        x2 = y2 - self.g.forward(y1, replay=True)
        x1 = y1 - self.f.forward(x2, replay=True)
        return x1, x2

    def rev_backward(self, y, gy):
        """Reconstruct the inputs and backpropagate without stored activations.

        Takes the output pair and its cotangent as two-element lists and
        empties them, so each array is dropped after its last use: y2 once
        x2 is rebuilt and gy1 once gz1 is formed. Runs in the order of
        RevNet's Algorithm 1 (Gomez et al. 2017): G's tape is rebuilt and
        consumed by G's VJP before F is replayed, so at most one branch tape
        is alive at a time. Returns the input pair and its cotangent as new
        lists.
        """
        y2, y1 = y.pop(), y.pop()
        gy2, gy1 = gy.pop(), gy.pop()
        g_tape = []
        x2 = y2 - self.g.forward(y1, tape=g_tape, replay=True)
        del y2
        gz1 = gy1 + self.g.backward(gy2, g_tape)
        del gy1
        f_tape = []
        x1 = y1 - self.f.forward(x2, tape=f_tape, replay=True)
        del y1
        gx2 = gy2 + self.f.backward(gz1, f_tape)
        return [x1, x2], [gz1, gx2]

    def stat_nbytes(self):
        return self.f.stat_nbytes() + self.g.stat_nbytes()


class RevDownsample(Layer):
    """Invertible downsampling by tensor rearrangement (nothing cached).

    Takes and returns a tuple of streams and rearranges each one. On a pair
    this equals rearranging the concatenated tensor and splitting the result,
    because output channel c*r*r + i*r + j keeps the two halves apart.
    """

    reversible = True

    def __init__(self, r=2):
        self.r = r

    def out_shape(self, shape, tape=None):
        n, c, f, t = shape
        if f % self.r or t % self.r:
            raise ConfigError(
                f"spatial dims ({f}, {t}) not divisible by ratio {self.r}"
            )
        return (n, c * self.r * self.r, f // self.r, t // self.r)

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(None)
        return tuple(ops.pixel_unshuffle(s, self.r) for s in x)

    def backward(self, gy, entry=None):
        return self._shuffle(gy)

    def backward_from_input(self, gy, x):
        return self._shuffle(gy)

    def rev_backward(self, y, gy):
        # pops each stream as it is rearranged, so both lists end empty
        def drain(streams):
            return [ops.pixel_shuffle(streams.pop(0), self.r) for _ in range(len(streams))]

        return drain(y), drain(gy)

    def _shuffle(self, streams):
        # the rearrangement is a permutation, so its VJP is its inverse
        return tuple(ops.pixel_shuffle(s, self.r) for s in streams)
