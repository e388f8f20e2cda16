"""Layer objects: parameters, primitives, residual branches, reversible blocks and runs.

Execution protocol (used by the engine):

* ``forward(x, tape=None, replay=False)`` computes the layer output. When
  ``tape`` is a list, the layer appends one entry holding whatever its
  backward needs (stored mode). With ``tape=None`` nothing is retained beyond
  per-layer batch-norm statistics (reversible mode). ``replay=True`` makes
  batch norms reuse the statistics captured on the step's first forward
  instead of recomputing them, and suppresses running-stat updates. A
  primitive's ``forward`` is ``Layer.forward``, around its ``_apply`` (the
  op call) and ``_shape`` (the output shape, checked).
* ``backward(gy, entry)`` of a primitive or a ``RevBlock`` consumes that
  tape entry, accumulates parameter gradients, and returns the input
  cotangent. A chain (``Sequential``, ``RevRun``) and a ``ResidualBlock``
  take the tape itself, ``backward(gy, entries)``, and pop their entries
  off it as they walk them, so each cached input is freed after its last
  use and the tape is empty afterwards. No backward writes the gy it is
  handed, since callers read it again: a ``RevBlock`` reads gy2 and gz1
  twice, a ``ResidualBlock``'s skip reads gy, and every DF channel group
  reads the branch's one gy. Inside a ``Sequential``, though, each
  cotangent after the first is one the chain's own VJPs made and nothing
  else reads, so the chain hands it to each later layer with
  ``owned=True``: ``ReLU``, ``BatchNorm2d`` and ``DepthwiseConv2d`` then
  write dL/dx into it (their ops' ``out=``), and every other primitive
  ignores the keyword.
* A primitive with parameters hands each ``Param.grad`` to its VJP op,
  which adds the parameter cotangent straight into it: no layer writes
  ``.grad`` itself, and no second parameter-sized cotangent is made beside
  it. A DF group's narrowed layers hand ``Param.view``s, so their
  cotangents land in the whole Param's slice.
* A ``ReLU`` tapes its output, not its input: ``y > 0`` exactly where
  ``x > 0``, so the mask is the same. The layer that takes ``y`` next
  usually tapes it too, as its input, and the two entries are one array,
  which the engine counts once.
* ``forward`` also takes a ``Planned`` shape in place of each array, and
  then returns ``Planned`` ones and calls no op: a primitive returns
  ``Planned(_shape(x.shape))``, a sum of ``Planned`` arrays is a new one,
  and a ufunc written into a ``Planned`` ``out=`` returns that one. It
  tapes what it tapes on arrays, a ``DFBottleneck``'s channel groups
  included, so the engine's one walk, run on planned arrays, plans the
  ledger, a ReLU's output shared with its consumer included.
* ``replay_vjp(gy, x, ys=None, gs=None)`` of a chain (a ``Sequential``)
  replays it from x on the captured statistics and backpropagates gy,
  returning ``(y - chain(x), dL/dx)`` with y popped off ``ys``, or None
  without ``ys``, when work that only y would read is skipped. With
  ``gs`` the second item is ``g + dL/dx``, g popped off ``gs``, as a
  chain's ``backward(gy, entries, gs)`` returns it; ``rebuild(ys, x)``
  forms the first item alone. ``RevBlock.rev_backward`` and every
  ``backward_from_input`` replay each chain this way. Both are defined on
  ``Sequential`` alone, as one loop over the chains ``_chains(x)`` lists:
  a plain chain is its own one chain, and a ``DFBottleneck`` lists its
  layers narrowed to each channel group. Each chain is replayed and
  walked back before the next, and its shares fold into the popped y and
  g (``_fold``). ``replay(x, tape, keep_output)`` is the replay both
  share: without ``keep_output`` it skips a last layer whose backward
  reads only its input.
* The engine runs a network as *units*, each one layer: a ``RevRun``, a
  ``Sequential`` segment of plain primitives, or a ``ResidualBlock``. In
  stored mode it calls a unit's ``backward`` on the unit's own tape. In
  reversible mode it saves a unit's input and calls
  ``backward_from_input(gy, x)``, which replays the unit from x, or saves a
  ``RevRun``'s output and calls ``backward_from_output(gy, y)``, which
  rebuilds the run's inputs from y.
* ``children()`` lists a composite's sublayers, over which ``params()``,
  ``stat_nbytes()`` and ``stat_elems()`` sum by default.

Members of a reversible run (``RevBlock``, ``RevDownsample``) take and
return tuples of channel streams instead of single tensors: a ``RevBlock``
works on the pair ``(x1, x2)``, and a ``RevDownsample`` rearranges each
stream it is given, one stream ahead of the run's first block and two after
it. The ``RevRun`` that holds them splits its tensor into the pair at its
first block and joins the pair at its end. ``RevBlock.inverse(y)``
reconstructs the inputs from the outputs, and ``rev_backward(y, gy)`` does
so and runs the coupled chain rule, so no forward activation of the block
is ever read. ``rev_backward`` alone takes lists instead of tuples: it
empties them, so each stream is freed after its last use, and returns new
lists.
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

    def view(self, index) -> Param:
        """A Param over ``value[index]`` and ``grad[index]``. With a basic
        index both are views, so a gradient or a step written through it
        lands in this Param's slice."""
        part = object.__new__(Param)
        part.value, part.grad = self.value[index], self.grad[index]
        return part

    @property
    def size(self) -> int:
        return int(self.value.size)

    @property
    def nbytes(self) -> int:
        return int(self.value.nbytes)


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Planned:
    """One array of a planned forward, by its shape alone. Like an array, it
    is one object wherever a forward passes it on, so plans count by identity."""

    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = tuple(shape)

    def __add__(self, other):
        return Planned(self.shape)  # a sum is a new array

    def __array_ufunc__(self, ufunc, method, *inputs, out):
        return out[0]  # a ufunc given out= writes into that array


class Layer:
    reversible = False
    tapes_output = False  # forward tapes its output, which the next layer receives

    def children(self):
        """The sublayers, in forward order."""
        return ()

    def params(self) -> list[Param]:
        return [p for c in self.children() for p in c.params()]

    def forward(self, x, tape=None, replay=False):
        """A primitive's forward: ``_apply`` on an array, ``_shape`` on a
        ``Planned`` x. Tapes x, or the output when ``tapes_output`` is set."""
        y = Planned(self._shape(x.shape)) if isinstance(x, Planned) else self._apply(x, replay)
        if tape is not None:
            tape.append(y if self.tapes_output else x)
        return y

    def _shape(self, shape):
        """The output shape for an input shape, checked as a plan needs."""
        return shape

    def _apply(self, x, replay):
        raise NotImplementedError

    def backward(self, gy, entry, owned=False):
        raise NotImplementedError

    def stat_nbytes(self) -> int:
        return sum(c.stat_nbytes() for c in self.children())

    def stat_elems(self) -> int:
        """Batch-statistic scalars a forward captures."""
        return sum(c.stat_elems() for c in self.children())


class Conv2d(Layer):
    def __init__(self, c_in, c_out, k, stride=1, *, rng, dtype):
        self.stride = stride
        self.w = Param(he_uniform(rng, (c_out, c_in, k, k), c_in * k * k, dtype))

    def params(self):
        return [self.w]

    def _shape(self, shape):
        return ops.conv2d_shape(shape, self.w.value, self.stride)

    def _apply(self, x, replay):
        return ops.conv2d(x, self.w.value, self.stride)

    def backward(self, gy, x, owned=False):
        return ops.conv2d_vjp(x, self.w.value, gy, self.stride, self.w.grad)[0]


class DepthwiseConv2d(Conv2d):
    """One k x k filter per channel at stride 1, padded to keep the size;
    shares Conv2d's parameter and tape."""

    stride = 1

    def __init__(self, c, k=3, *, rng, dtype):
        self.w = Param(he_uniform(rng, (c, 1, k, k), k * k, dtype))

    def _shape(self, shape):
        return ops.depthwise_conv2d_shape(shape, self.w.value)

    def _apply(self, x, replay):
        return ops.depthwise_conv2d(x, self.w.value)

    def backward(self, gy, x, owned=False):
        return ops.depthwise_conv2d_vjp(x, self.w.value, gy, self.w.grad,
                                        out=gy if owned else None)[0]


class BatchNorm2d(Layer):
    """Training-mode batch norm with capture/replay of batch statistics.

    The statistics used on the step's forward pass are kept on the layer so
    that reversible recomputation replays exactly them; running statistics
    are updated only on capture forwards, never on replays.
    """

    eps = 1e-5
    momentum = 0.1  # running-statistics update rate

    def __init__(self, c, *, dtype):
        self.gamma = Param(np.ones(c, dtype))
        self.beta = Param(np.zeros(c, dtype))
        self.running_mean = np.zeros(c, dtype)
        self.running_var = np.ones(c, dtype)
        self.saved_stats = None

    def params(self):
        return [self.gamma, self.beta]

    def _shape(self, shape):
        return ops.batchnorm2d_shape(shape, self.gamma.value, self.beta.value)

    def replayed_stats(self):
        """The statistics captured on the step's first forward, for a replay."""
        if self.saved_stats is None:
            raise StateError("batch norm replay requested but no captured statistics")
        return self.saved_stats

    def capture(self, mean, var):
        """Keep a capture forward's statistics for replay; update the running
        ones in place, so a narrowed layer's update lands in the whole's."""
        self.saved_stats = (mean, var)
        for running, stat in ((self.running_mean, mean), (self.running_var, var)):
            running *= 1 - self.momentum
            running += self.momentum * stat

    def _apply(self, x, replay):
        if replay:
            y, _, _ = ops.batchnorm2d(
                x, self.gamma.value, self.beta.value, self.eps, stats=self.replayed_stats()
            )
        else:
            y, mean, var = ops.batchnorm2d(x, self.gamma.value, self.beta.value, self.eps)
            self.capture(mean, var)
        return y

    def backward(self, gy, x, owned=False):
        if self.saved_stats is None:
            raise StateError("batch norm backward requires captured statistics")
        mean, var = self.saved_stats
        return ops.batchnorm2d_vjp(x, self.gamma.value, gy, mean, var, self.eps,
                                   self.gamma.grad, self.beta.grad,
                                   out=gy if owned else None)[0]

    def stat_nbytes(self):
        if self.saved_stats is None:
            return 0
        mean, var = self.saved_stats
        return int(mean.nbytes + var.nbytes)

    def stat_elems(self):
        return 2 * self.gamma.size


class ReLU(Layer):
    """Tapes its output y, which the next layer's tape usually holds too.

    ``backward`` takes y or x alike: ``relu_vjp`` reads only where its first
    argument is positive, and ``y > 0`` exactly where ``x > 0``.
    """

    tapes_output = True

    def _apply(self, x, replay):
        return ops.relu(x)

    def backward(self, gy, y, owned=False):
        return ops.relu_vjp(y, gy, out=gy if owned else None)


class GlobalStatPool(Layer):
    def _shape(self, shape):
        return ops.global_stat_pool_shape(shape)

    def _apply(self, x, replay):
        return ops.global_stat_pool(x)

    def backward(self, gy, x, owned=False):
        return ops.global_stat_pool_vjp(x, gy)


class Linear(Layer):
    def __init__(self, d_in, d_out, *, rng, dtype):
        self.w = Param(he_uniform(rng, (d_in, d_out), d_in, dtype))
        self.b = Param(np.zeros(d_out, dtype))

    def params(self):
        return [self.w, self.b]

    def _shape(self, shape):
        return ops.linear_shape(shape, self.w.value, self.b.value)

    def _apply(self, x, replay):
        return ops.linear(x, self.w.value, self.b.value)

    def backward(self, gy, x, owned=False):
        return ops.linear_vjp(x, self.w.value, gy, self.w.grad, self.b.grad)[0]


class Sequential(Layer):
    """A flat chain of primitive layers; tape entries are one per sub-layer.

    ``replay_vjp`` and ``rebuild`` run the chain as the chains ``_chains(x)``
    lists, one after another, and fold their shares into one result
    (``_fold``). A plain chain is its own one chain; a ``DFBottleneck`` is
    one chain per channel group.
    """

    def __init__(self, layers):
        self.layers = list(layers)

    def children(self):
        return self.layers

    def _chains(self, x):
        """The chains whose shares on x fold into this chain's results."""
        return (self,)

    def forward(self, x, tape=None, replay=False):
        for l in self.layers:
            x = l.forward(x, tape=tape, replay=replay)
        return x

    def backward(self, gy, entries, gs=None):
        """dL/dx, or ``gs.pop() + dL/dx`` with a list ``gs``: a coupling
        block adds its branch's dL/dx to the cotangent it passes through.
        Pops each entry as its VJP runs, so a cached input is freed right
        after its last use. gy stays the caller's, so the last layer is
        called as any caller calls it; every later cotangent is one the
        chain's own VJPs made, so each layer before the last is handed it
        with ``owned=True`` and may write its dL/dx into it."""
        for i, l in enumerate(reversed(self.layers)):
            entry = entries.pop()
            gy = l.backward(gy, entry, owned=True) if i else l.backward(gy, entry)
        return _fold(None, gy, gs, np.add)

    def replay(self, x, tape, keep_output):
        """Replay the chain on x onto ``tape`` on the captured statistics and
        return its output. Without ``keep_output``, a last layer that does
        not tape its output is not run, since its backward reads only its
        input, which is taped for it, and None is returned."""
        if keep_output or self.layers[-1].tapes_output:
            return self.forward(x, tape, replay=True)
        tape.append(Sequential(self.layers[:-1]).forward(x, tape, replay=True))
        return None

    def replay_vjp(self, gy, x, ys=None, gs=None):
        """Replay each of x's chains onto a tape and walk it back for gy,
        one chain after another.

        Returns (y - chain(x), dL/dx), popping y off ``ys``. With ``gs`` the
        second item is ``gs.pop() + dL/dx``, as ``backward`` returns it.
        Each chain's share of the output folds into the first item before
        its tape is walked, and its share of dL/dx into the second. Without
        ``ys`` the first item is None, and ``replay`` skips each chain's
        last layer where it can. The last chain is handed gy by pop, so a
        caller that keeps no reference to it frees it once that chain's last
        VJP has returned.
        """
        gys, gy = [gy], None
        chains = self._chains(x)
        rest = gx = None
        for chain in chains:
            tape = []
            out = chain.replay(x, tape, keep_output=ys is not None)
            if ys is not None:
                rest = _fold(rest, out, ys, np.subtract)
            del out  # the tape alone holds what backward reads, so pops free it
            last = chain is chains[-1]
            gx = _fold(gx, chain.backward(gys.pop() if last else gys[0], tape), gs, np.add)
        return rest, gx

    def rebuild(self, ys, x):
        """``ys.pop() - chain(x)`` on the captured statistics, folded as
        ``replay_vjp`` folds it, without a tape or a VJP."""
        rest = None
        for chain in self._chains(x):
            rest = _fold(rest, chain.forward(x, replay=True), ys, np.subtract)
        return rest

    def backward_from_input(self, gy, x):
        # checkpoint style: replay the chain from its saved input; gy is
        # handed over by pop, as replay_vjp hands it to backward
        gys, gy = [gy], None
        return self.replay_vjp(gys.pop(), x)[1]


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
        return DFBottleneck([
            Conv2d(c_in, mid, 1, stride=stride, rng=rng, dtype=dtype),
            BatchNorm2d(mid, dtype=dtype),
            ReLU(),
            DepthwiseConv2d(mid, 3, rng=rng, dtype=dtype),
            Conv2d(mid, width, 1, rng=rng, dtype=dtype),
        ])
    raise ConfigError(f"unknown residual kind {kind!r}")


def _channel_groups(x, conv1):
    """Slices of conv1's output channels: as few groups as keep each group's
    array within max(x's bytes, FLAT_SHIFT_BYTES), balanced to one channel.
    Scalars are as wide as conv1's weights, so a ``Planned`` x is grouped
    as an array of its shape is.

    Balanced rather than filled in order, a group has one channel only where
    one channel fills half the budget: a one-channel group's batch
    statistics round differently from the whole tensor's.
    """
    n, _, f, t = x.shape
    w = conv1.w.value
    mid, stride, width = w.shape[0], conv1.stride, w.itemsize
    channel = n * ops.conv_out_size(f, stride) * ops.conv_out_size(t, stride) * width
    count = -(-mid // max(1, max(math.prod(x.shape) * width, ops.FLAT_SHIFT_BYTES) // channel))
    bounds = [mid * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fold(total, part, base, op):
    """Fold one chain's share into a running total.

    Returns ``op(total, part)`` written into total. The first share, with
    total None, becomes the total: ``op(base.pop(), part)`` written into
    part, or part itself when ``base`` is None (only with np.add). So a
    chain loop computes ``((base op s1) op s2) op ...`` with no array beyond
    its shares, and never writes the one popped off ``base``. A share is a
    chain's output or dL/dx, which nothing else reads: no residual branch
    ends in a layer that tapes its output.
    """
    if total is None:
        return part if base is None else op(base.pop(), part, out=part)
    return op(total, part, out=total)


def _narrowed(layer, **attrs):
    """A shallow copy of layer with ``attrs`` set in place of its own."""
    part = object.__new__(type(layer))
    vars(part).update(vars(layer), **attrs)
    return part


class DFBottleneck(Sequential):
    """The DF bottleneck branch (conv1x1, BN, ReLU, dwconv3x3, conv1x1), whose
    4x-wide middle runs one group of channels at a time.

    Everything between the two 1x1 convs is per channel. So each channel
    group g runs as a plain chain of the branch's five layers narrowed to g
    (``_chains``): g's rows of the first conv, BN on g's statistics
    (captured group by group), the ReLU, g's depthwise filters and g's
    columns of the last conv, whose share adds into the output. The narrowed
    layers' parameters are ``Param.view``s and their BN statistics slices of
    the whole layer's, so their gradients, running statistics and steps
    land in g's slice of the whole. Groups are as few as keep each group's
    array within the larger of x's bytes and ``ops.FLAT_SHIFT_BYTES``.

    The branch defines only what differs from a plain chain: ``_chains``,
    and the taped forward and its ``backward``. Untaped, a forward keeps
    nothing of a group; taped, it tapes x and then each group's chain tape
    [x, h, r, r, d], which ``backward`` pops group by group. ``replay_vjp``
    and ``rebuild`` are the plain chain's, which walk each group's tape back
    right after replaying it. So no mode holds a 4x-wide array, and a stored
    branch computes what its replay does, bit for bit. A ``Planned`` x runs
    the same group loop, so a plan tapes what a run tapes.

    Each method folds the group shares straight into the array it returns,
    in group order (``_fold``): ``rebuild`` and ``replay_vjp`` form
    ``((y - s1) - s2) - ...`` from the popped y and the shares s of the
    output, and ``backward`` and ``replay_vjp`` form
    ``((g + p1) + p2) + ...`` from a popped cotangent g and the shares p of
    dL/dx. So a coupling block's backward holds one array for the rebuilt
    input and one for the cotangent, not y or g beside a sum of shares.
    """

    def forward(self, x, tape=None, replay=False):
        # a capture gives the whole BN its groups' statistics, concatenated
        if tape is not None:
            tape.append(x)
        out, stats = None, []
        for chain in self._chains(x):
            sub = None if tape is None else []
            out = _fold(out, chain.forward(x, sub, replay), None, np.add)
            if tape is not None:
                tape.append(sub)
            stats.append(chain.layers[1].saved_stats)
        if not (replay or isinstance(x, Planned)):
            self.layers[1].saved_stats = tuple(np.concatenate(s) for s in zip(*stats))
        return out

    def backward(self, gy, entries, gs=None):
        # the tape is x, then each group's chain tape; pops the groups in
        # forward order, as replay_vjp runs them
        entries.reverse()
        x, gx = entries.pop(), None
        for chain in self._chains(x):
            gx = _fold(gx, chain.backward(gy, entries.pop()), gs, np.add)
        return gx

    def _chains(self, x):
        """The branch narrowed to each channel group of x, in group order.

        Built per call, not kept: a kept chain would hold the slices of its
        BN's captured statistics alive beside the whole's.
        """
        conv1, bn, relu, dw, conv2 = self.layers
        chains = []
        for g in _channel_groups(x, conv1):
            stats = None if bn.saved_stats is None else tuple(s[g] for s in bn.saved_stats)
            chains.append(Sequential([
                _narrowed(conv1, w=conv1.w.view(g)),
                _narrowed(bn, gamma=bn.gamma.view(g), beta=bn.beta.view(g),
                          running_mean=bn.running_mean[g], running_var=bn.running_var[g],
                          saved_stats=stats),
                relu,
                _narrowed(dw, w=dw.w.view(g)),
                _narrowed(conv2, w=conv2.w.view((slice(None), g))),
            ]))
        return chains


class ResidualBlock(Layer):
    """Non-reversible y = skip(x) + branch(x).

    The skip is the identity when shapes are preserved, otherwise a bare
    1x1 projection conv (stride-matched).
    """

    def __init__(self, kind, c_in, c_out, *, rng, dtype, stride=1):
        self.branch = make_residual_fn(kind, c_out, rng=rng, dtype=dtype,
                                       stride=stride, c_in=c_in)
        if c_in != c_out or stride != 1:
            self.proj = Conv2d(c_in, c_out, 1, stride=stride, rng=rng, dtype=dtype)
        else:
            self.proj = None

    def children(self):
        return (self.branch,) if self.proj is None else (self.branch, self.proj)

    def forward(self, x, tape=None, replay=False):
        sub = [] if tape is not None else None
        y = self.branch.forward(x, tape=sub, replay=replay)
        skip = x if self.proj is None else self.proj.forward(x)
        if tape is not None:
            tape.append((x, sub))
        return y + skip

    def backward(self, gy, entries):
        x, sub = entries.pop()
        gx = self.branch.backward(gy, sub)
        return gx + (gy if self.proj is None else self.proj.backward(gy, x))

    def backward_from_input(self, gy, x):
        # checkpoint style: replay the branch from the cached input
        gx = self.branch.backward_from_input(gy, x)
        return gx + (gy if self.proj is None else self.proj.backward(gy, x))


class RevBlock(Layer):
    """Additive-coupling block on a stream pair: y1 = x1 + F(x2); y2 = x2 + G(y1).

    Every method takes and returns pairs: a ``RevRun`` splits its tensor
    evenly on the channel axis (fixed first/second half) at its first block
    and concatenates it at its end. The block is exactly
    invertible, so its backward can reconstruct (x1, x2) from (y1, y2) and
    needs no cached activations.
    """

    reversible = True

    def __init__(self, kind, half_width, *, rng, dtype):
        self.f = make_residual_fn(kind, half_width, rng=rng, dtype=dtype)
        self.g = make_residual_fn(kind, half_width, rng=rng, dtype=dtype)

    def children(self):
        return self.f, self.g

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

    # backward, inverse and rev_backward fold a branch's shares into the
    # pair in the same order (``_fold``), so their results are bit-equal

    def backward(self, gy, entry):
        f_tape, g_tape = entry
        gy1, gy2 = gy
        gz1 = self.g.backward(gy2, g_tape, [gy1])
        gx2 = self.f.backward(gz1, f_tape, [gy2])
        return gz1, gx2

    def inverse(self, y):
        y1, y2 = y
        x2 = self.g.rebuild([y2], y1)
        x1 = self.f.rebuild([y1], x2)
        return x1, x2

    def rev_backward(self, y, gy):
        """Reconstruct the inputs and backpropagate without stored activations.

        Takes the output pair and its cotangent as two-element lists and
        empties them, so each array is dropped after its last use. Runs in
        the order of RevNet's Algorithm 1 (Gomez et al. 2017): G is replayed
        and backpropagated before F is replayed, so at most one branch's
        arrays are alive at a time. Each branch's ``replay_vjp`` pops the
        output it rebuilds from and the cotangent it adds its dL/dx to, and
        folds its shares into new arrays in group order: x2 = ((y2 - s1) -
        s2) - ... and gz1 = ((gy1 + p1) + p2) + ..., then x1 from y1 and
        dL/dx2 from gy2 alike. So during G's group loop y1, x2, gz1, gy2 and
        one group's arrays are alive, and during F's x2, x1, gz1, dL/dx2 and
        one group's arrays. Returns the input pair and its cotangent as new
        lists.
        """
        gs = [gy.pop()]  # gy2: G's cotangent, then the base of dL/dx2
        x2, gz1 = self.g.replay_vjp(gs[0], y[0], y, gy)  # pops y2 and gy1
        x1, gx2 = self.f.replay_vjp(gz1, x2, y, gs)  # pops y1 and gy2
        return [x1, x2], [gz1, gx2]


class RevDownsample(Layer):
    """Invertible downsampling by tensor rearrangement (nothing cached).

    Takes and returns a tuple of streams and rearranges each one. On a pair
    this equals rearranging the concatenated tensor and splitting the result,
    because output channel c*r*r + i*r + j keeps the two halves apart.
    """

    reversible = True

    def __init__(self, r=2):
        self.r = r

    def forward(self, x, tape=None, replay=False):
        if tape is not None:
            tape.append(None)
        if isinstance(x[0], Planned):
            return tuple(Planned(ops.pixel_unshuffle_shape(s.shape, self.r)) for s in x)
        return tuple(ops.pixel_unshuffle(s, self.r) for s in x)

    def backward(self, gy, entry=None):
        # the rearrangement is a permutation, so its VJP is its inverse
        return tuple(ops.pixel_shuffle(s, self.r) for s in gy)

    backward_from_input = backward  # never called by the engine; bound for a tracer to hook

    def rev_backward(self, y, gy):
        # pops each stream as it is rearranged, so both lists end empty
        def drain(streams):
            return [ops.pixel_shuffle(streams.pop(0), self.r) for _ in range(len(streams))]

        return drain(y), drain(gy)


class RevRun(Layer):
    """A maximal run of reversible layers, taking and returning one tensor.

    Its members take and return tuples of streams. The run hands its tensor
    to them as one stream, splits it into the pair (x1, x2) once, at its
    head (its first ``RevBlock``), and concatenates the pair once, at its
    end. Downsamplers ahead of the head rearrange the whole tensor, whose
    channel count may be odd. Both backwards walk the run with the same
    split point.
    """

    reversible = True

    def __init__(self, layers):
        self.layers = list(layers)
        self.head = next((l for l in self.layers if isinstance(l, RevBlock)), None)

    def children(self):
        return self.layers

    def forward(self, x, tape=None, replay=False):
        xs, x = (x,), None  # the split frees the input unless a caller holds it
        for l in self.layers:
            if l is self.head:
                xs = self._split(xs[0])
            xs = l.forward(xs, tape=tape, replay=replay)
        return self._join(xs)

    def backward(self, gy, entries):
        # pops each member's tape entry as its VJP runs
        gs, gy = self._end_streams(gy), None
        for l in reversed(self.layers):
            gs = l.backward(gs, entries.pop())
            if l is self.head:
                gs = (self._join(gs),)
        return gs[0]

    def backward_from_output(self, gy, y):
        """Backward from the run's output alone: rebuild each block's inputs
        from its outputs back to the head; the downsamplers ahead of it need
        only the cotangent. ``rev_backward`` empties the lists it is given,
        so each stream is freed after its last use."""
        gs, gy = self._end_streams(gy), None
        ys, y = (None if self.head is None else list(self._split(y))), None
        for l in reversed(self.layers):
            if ys is None:
                gs = l.backward(gs)
            else:
                ys, gs = l.rev_backward(ys, gs)
            if l is self.head:
                ys, gs = None, (self._join(gs),)
        return gs[0]

    def _end_streams(self, x):
        """A tensor at the run's end as a list of its streams."""
        return [x] if self.head is None else list(self._split(x))

    @staticmethod
    def _split(x):
        """The head's split of x into a pair, planned when x is ``Planned``."""
        if not isinstance(x, Planned):
            return ops.channel_split(x)
        half = ops.channel_split_shape(x.shape)
        return Planned(half), Planned(half)

    @staticmethod
    def _join(streams):
        if len(streams) == 1:
            return streams[0]
        if not isinstance(streams[0], Planned):
            return ops.channel_concat(*streams)
        return Planned(ops.channel_concat_shape(*(s.shape for s in streams)))
