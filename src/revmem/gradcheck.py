"""Self-contained correctness checks: finite differences, reconstruction,
and stored-vs-reversible gradient agreement.

Everything here runs in float64. The finite-difference side never touches
the analytic VJPs, so it stays an independent oracle. `run_all_checks`
returns one row per check; a fault can be injected into a named op's VJP to
exercise the failure-reporting path.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .engine import run_backward, run_forward
from .layers import RevBlock, make_residual_fn
from .zoo import build, toy_spec

FD_STEP = 1e-5
FD_TOL = 1e-6
RECON_TOL_F64 = 1e-12
EQUIV_TOL = 1e-6

# ops whose VJP `--inject-vjp-fault` can corrupt (`ops.<name>_vjp`)
FAULT_OPS = ("conv2d", "depthwise_conv2d", "batchnorm2d", "linear", "global_stat_pool",
             "relu")


def max_mixed_err(got, ref, floor: float = 1e-8) -> float:
    """Max elementwise error: relative above `floor`, absolute below."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    err = np.abs(got - ref)
    scale = np.maximum(np.abs(ref), floor)
    return float((err / scale).max()) if err.size else 0.0


def fd_grad(out_fn, r: np.ndarray, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of sum(out_fn() * r), perturbing x in place.

    The output tensors are differenced before projecting onto r, so the
    estimate is not polluted by cancellation of a large scalar sum.
    """
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


class CheckResult:
    def __init__(self, name: str, max_error: float, tol: float):
        self.name = name
        self.max_error = max_error
        self.tol = tol

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name},{self.max_error:.3e},{self.tol:.0e},{status}"


def _fault_wrap(vjp, corrupt: bool):
    if not corrupt:
        return vjp

    def wrapped(*args, **kwargs):
        out = vjp(*args, **kwargs)
        if isinstance(out, tuple):
            return tuple(o * 1.01 for o in out)
        return out * 1.01

    return wrapped


def _op_checks(rng, fault_op=None):
    results = []
    vjps = {op: _fault_wrap(getattr(ops, f"{op}_vjp"), op == fault_op) for op in FAULT_OPS}

    def check(name, analytic, numeric):
        results.append(CheckResult(name, max_mixed_err(analytic, numeric), FD_TOL))

    # conv2d: both input and kernel cotangents
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    r = rng.normal(size=(1, 3, 5, 5))
    gx, gw = vjps["conv2d"](x, w, r, 1, 1)
    conv_out = lambda: ops.conv2d(x, w, 1, 1)
    check("conv2d_dx", gx, fd_grad(conv_out, r, x))
    check("conv2d_dw", gw, fd_grad(conv_out, r, w))

    xd = rng.normal(size=(1, 2, 4, 4))
    wd = rng.normal(size=(2, 1, 3, 3))
    rd = rng.normal(size=(1, 2, 4, 4))
    gx, gw = vjps["depthwise_conv2d"](xd, wd, rd, 1)
    dconv_out = lambda: ops.depthwise_conv2d(xd, wd, 1)
    check("depthwise_conv2d_dx", gx, fd_grad(dconv_out, rd, xd))
    check("depthwise_conv2d_dw", gw, fd_grad(dconv_out, rd, wd))

    xb = rng.normal(size=(2, 3, 3, 4))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.normal(size=3)
    rb = rng.normal(size=xb.shape)
    bn_out = lambda: ops.batchnorm2d(xb, gamma, beta, 1e-5)[0]
    y, mean, var = ops.batchnorm2d(xb, gamma, beta, 1e-5)
    gx, dgamma, dbeta = vjps["batchnorm2d"](xb, gamma, rb, mean, var, 1e-5)
    check("batchnorm2d_dx", gx, fd_grad(bn_out, rb, xb))
    check("batchnorm2d_dgamma", dgamma, fd_grad(bn_out, rb, gamma))
    check("batchnorm2d_dbeta", dbeta, fd_grad(bn_out, rb, beta))

    xl = rng.normal(size=(3, 4))
    wl = rng.normal(size=(4, 5))
    bl = rng.normal(size=5)
    rl = rng.normal(size=(3, 5))
    gx, gw, gb = vjps["linear"](xl, wl, rl)
    lin_out = lambda: ops.linear(xl, wl, bl)
    check("linear_dx", gx, fd_grad(lin_out, rl, xl))
    check("linear_dw", gw, fd_grad(lin_out, rl, wl))
    check("linear_db", gb, fd_grad(lin_out, rl, bl))

    xg = rng.normal(size=(2, 3, 4, 6))
    rg = rng.normal(size=(2, 24))
    gx = vjps["global_stat_pool"](xg, rg)
    check("global_stat_pool_dx", gx, fd_grad(lambda: ops.global_stat_pool(xg), rg, xg))

    xr = np.array([-1.0, 2.0])
    results.append(CheckResult("relu_mask", max_mixed_err(
        vjps["relu"](xr, np.ones(2)), np.array([0.0, 1.0])), FD_TOL))

    # strided 1x1 conv (matmul path); drawn last so the rows above keep their
    # random draws
    x1 = rng.normal(size=(1, 3, 5, 5))
    w1 = rng.normal(size=(2, 3, 1, 1))
    r1 = rng.normal(size=(1, 2, 3, 3))
    gx, gw = vjps["conv2d"](x1, w1, r1, 2, 0)
    pconv_out = lambda: ops.conv2d(x1, w1, 2, 0)
    check("conv2d_1x1_s2_dx", gx, fd_grad(pconv_out, r1, x1))
    check("conv2d_1x1_s2_dw", gw, fd_grad(pconv_out, r1, w1))

    # strided dense 3x3 conv: the per-tap strided-slice VJP, drawn last too
    x3 = rng.normal(size=(1, 2, 5, 6))
    w3 = rng.normal(size=(3, 2, 3, 3))
    r3 = rng.normal(size=(1, 3, 3, 3))
    gx, gw = vjps["conv2d"](x3, w3, r3, 2, 1)
    s3conv_out = lambda: ops.conv2d(x3, w3, 2, 1)
    check("conv2d_3x3_s2_dx", gx, fd_grad(s3conv_out, r3, x3))
    check("conv2d_3x3_s2_dw", gw, fd_grad(s3conv_out, r3, w3))

    return results


def _branch_param_check(rng, kind="basic"):
    branch = make_residual_fn(kind, 4, rng=rng, dtype=np.float64)
    x = rng.normal(size=(2, 4, 4, 4))
    r = rng.normal(size=(2, 4, 4, 4))

    tape = []
    branch.forward(x, tape=tape)
    for p in branch.params():
        p.zero_grad()
    branch.backward(r, tape)
    worst = 0.0
    for p in branch.params():
        worst = max(worst, max_mixed_err(
            p.grad, fd_grad(lambda: branch.forward(x), r, p.value)))
    return CheckResult(f"residual_branch_{kind}_params", worst, FD_TOL)


def _reconstruction_check(rng, kind):
    half = 4
    block = RevBlock(kind, half, rng=rng, dtype=np.float64)
    x = rng.normal(size=(2, 2 * half, 8, 6))
    back = block.inverse(block.forward(ops.channel_split(x)))
    err = np.abs(ops.channel_concat(*back) - x).max()
    return CheckResult(f"rev_inverse_{kind}", float(err), RECON_TOL_F64)


def _block_equivalence_check(rng, kind):
    half = 4
    block = RevBlock(kind, half, rng=rng, dtype=np.float64)
    x = ops.channel_split(rng.normal(size=(2, 2 * half, 8, 6)))
    gy = ops.channel_split(rng.normal(size=(2, 2 * half, 8, 6)))

    tape = []
    y = block.forward(x, tape=tape)
    for p in block.params():
        p.zero_grad()
    gx_stored = block.backward(gy, tape[0])
    stored = [p.grad.copy() for p in block.params()]

    for p in block.params():
        p.zero_grad()
    y2 = block.forward(x)
    _, gx_rev = block.rev_backward(list(y2), list(gy))
    worst = max_mixed_err(ops.channel_concat(*gx_rev), ops.channel_concat(*gx_stored))
    for p, ref in zip(block.params(), stored):
        worst = max(worst, max_mixed_err(p.grad, ref))
    return CheckResult(f"rev_backward_vs_stored_{kind}", worst, EQUIV_TOL)


def net_gradient_gap(net, x, seed: int = 0) -> float:
    """Max mixed error between stored- and reversible-mode parameter gradients."""
    rng = np.random.default_rng(seed)
    out, store, _ = run_forward(net, x, "stored")
    r = rng.normal(size=out.shape)
    net.zero_grad()
    run_backward(net, store, r.astype(out.dtype), "stored")
    stored = [p.grad.copy() for p in net.params()]

    net.zero_grad()
    out2, store2, _ = run_forward(net, x, "reversible")
    run_backward(net, store2, r.astype(out2.dtype), "reversible")
    worst = 0.0
    for p, ref in zip(net.params(), stored):
        worst = max(worst, max_mixed_err(p.grad, ref))
    return worst


def _net_equivalence_check(rng, name, spec):
    net = build(spec, dtype=np.float64, seed=7)
    if not net.layers:
        return CheckResult(name, 0.0, EQUIV_TOL)
    x = rng.normal(size=(2, 1, 80, 8))  # 8 frames divide every toy rearrangement
    return CheckResult(name, net_gradient_gap(net, x), EQUIV_TOL)


def run_all_checks(seed: int = 0, fault_op: str | None = None) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = _op_checks(rng, fault_op)
    results.append(_branch_param_check(rng, "basic"))
    for kind in ("basic", "bottleneck", "df_bottleneck"):
        results.append(_reconstruction_check(rng, kind))
        results.append(_block_equivalence_check(rng, kind))
    results.append(_net_equivalence_check(
        rng, "net_equivalence_basic_t2", toy_spec([1, 1], 8, "basic")))
    results.append(_net_equivalence_check(
        rng, "net_equivalence_df_t2", toy_spec([1, 1], 8, "df_bottleneck")))
    # no reversible blocks at all: the mode comparison passes vacuously
    results.append(_net_equivalence_check(
        rng, "net_equivalence_zero_depth", toy_spec([0], 8, "basic")))
    return results
