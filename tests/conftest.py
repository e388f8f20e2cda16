"""Shared test utilities: independent numeric oracles and toy-net factories.

The finite-difference and direct-convolution oracles here are deliberately
written from scratch (loops, two-pass formulas) so they share no code with
the package's analytic paths.
"""

import numpy as np
import pytest

from revmem import zoo


def central_diff(loss_fn, x, h=1e-5):
    """Elementwise central-difference gradient of a scalar loss."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


def central_diff_proj(out_fn, r, x, h=1e-5):
    """Central differences of sum(out_fn() * r), differencing the outputs
    before projecting so the estimate is not drowned by cancellation of a
    large scalar loss."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = np.asarray(out_fn(), dtype=np.float64)
        flat[i] = keep - h
        down = np.asarray(out_fn(), dtype=np.float64)
        flat[i] = keep
        gf[i] = float(((up - down) * r).sum()) / (2 * h)
    return g


def mixed_err(got, ref, floor=1e-8):
    """Max error, relative above `floor`, absolute below it."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    err = np.abs(got - ref)
    return float((err / np.maximum(np.abs(ref), floor)).max()) if err.size else 0.0


def scaled_err(got, ref):
    """Max error relative to the reference tensor's own scale (for float32
    comparisons, where per-element ratios on near-zero entries measure
    rounding noise rather than agreement)."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    denom = max(float(np.abs(ref).max()), 1e-30)
    return float(np.abs(got - ref).max()) / denom


def conv2d_direct(x, w, stride=1, pad=0):
    """Quadruple-loop cross-correlation oracle."""
    n, c_in, f, t = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    fo = (f + 2 * pad - kh) // stride + 1
    to = (t + 2 * pad - kw) // stride + 1
    y = np.zeros((n, c_out, fo, to), dtype=x.dtype)
    for b in range(n):
        for o in range(c_out):
            for u in range(fo):
                for v in range(to):
                    acc = 0.0
                    for c in range(c_in):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[b, c, u * stride + i, v * stride + j] * w[o, c, i, j]
                    y[b, o, u, v] = acc
    return y


def gsp_two_pass(x):
    """Direct two-pass mean/std pooling oracle."""
    n, c, f, t = x.shape
    out = np.zeros((n, 2 * c * f), dtype=np.float64)
    for b in range(n):
        k = 0
        for ci in range(c):
            for fi in range(f):
                seq = x[b, ci, fi].astype(np.float64)
                m = seq.sum() / t
                v = ((seq - m) ** 2).sum() / t
                out[b, k] = m
                out[b, c * f + k] = np.sqrt(v + 1e-10)
                k += 1
    return out


def random_toy_spec(rng, embedding_dim=32):
    """A random miniature mixing residual kinds, rearrangement and strided
    downsampling, always ending in pooling + fc."""
    kinds = ["basic", "bottleneck", "df_bottleneck"]
    width = int(rng.choice([8, 16]))
    n_stages = int(rng.integers(1, 3))
    type1 = rng.random() < 0.3
    stages = [zoo.Conv(width)]
    c = width
    f_div = 1
    for s in range(n_stages):
        kind = kinds[int(rng.integers(0, 3))]
        reps = int(rng.integers(1, 3))
        if s > 0:
            if type1:
                c *= 2
                stages.append(zoo.Ds(kinds[int(rng.integers(0, 3))], c))
            else:
                stages.append(zoo.Conv(c // 4))
                stages.append(zoo.RevDs(2, c))
            f_div *= 2
        stages.append(zoo.RevRes(kind, c // 2, reps))
    stages += [zoo.Pooling(), zoo.Fc(2 * c * (80 // f_div), embedding_dim)]
    return zoo.NetworkSpec("rand-toy", stages, embedding_dim)


def fresh_backward(self, gy, entries, gs=None):
    """``Sequential.backward`` with every VJP making a fresh dL/dx, to
    monkeypatch in its place as the reference for the in-place walk."""
    for l in reversed(self.layers):
        gy = l.backward(gy, entries.pop())
    return gy if gs is None else gs.pop() + gy


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
