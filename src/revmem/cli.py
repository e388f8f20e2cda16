"""Command-line front end for desk-scale experiments.

    revmem gradcheck  [--seed N] [--out PATH] [--inject-vjp-fault OP]
    revmem train      [--net NAME | --spec FILE] [--mode M] [--optim NAME]
                      [--batch N] [--frames T] [--steps N] [--seed N] [--lr LR]
                      [--classes K] [--block N] [--f64] [--out PATH]
    revmem memreport  [--net NAME | --spec FILE] [--mode M] [--optim NAME]
                      [--batch N] [--frames T] [--sweep-depths 4,8,16] [--f64]
                      [--out PATH]
    revmem quantbench [--elements N] [--blocks 2048,...] [--seed N] [--out PATH]
    revmem eer        (--scores FILE | --emb FILE) [--out PATH]

Exit codes: 0 success, 1 check or validation failure, 2 configuration error.
Every reported number is a deterministic function of the config and seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import gradcheck as gc
from .eer import cosine_scores, eer_from_scores, read_embedding_file, read_score_file
from .engine import MODES, ledger_plan
from .errors import ConfigError, QuantizationError, RevmemError, StateOverflowError
from .loss import Trainer
from .optim import OPTIMIZERS
from .quant import (
    BLOCK_SIZE,
    default_map,
    dequantize_blockwise,
    nearest_codes_exhaustive,
    quantize_blockwise,
)
from .synth import SynthDataset
from .zoo import RevRes, build, registry_spec, spec_from_json, toy_spec


def _dtype(cfg):
    return np.float64 if cfg.f64 else np.float32


def _load_spec(cfg):
    if cfg.net and cfg.spec_path:
        raise ConfigError("--net and --spec are mutually exclusive")
    if cfg.spec_path:
        try:
            with open(cfg.spec_path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read --spec file: {exc}") from exc
        return spec_from_json(text)
    if cfg.net:
        return registry_spec(cfg.net)
    return None


def _write_file(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str):
    """Raise ConfigError unless path can be opened for writing; leave it as it was."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(path)


def _write(cfg, text: str):
    if cfg.out:
        _write_file(cfg.out, text)
    else:
        sys.stdout.write(text)


def cmd_gradcheck(cfg) -> int:
    results = gc.run_all_checks(seed=cfg.seed, fault_op=cfg.inject_vjp_fault)
    lines = ["check,max_error,tolerance,status"]
    lines += [r.row() for r in results]
    _write(cfg, "\n".join(lines) + "\n")
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"gradcheck failed: {r.name} (max error {r.max_error:.3e} > {r.tol:.0e})",
              file=sys.stderr)
    return 1 if failed else 0


def _diverged(cfg, rows: list[str], message: str) -> int:
    """Write the loss log so far and report the divergence (exit code 1)."""
    _write(cfg, "\n".join(rows) + "\n")
    print(message, file=sys.stderr)
    return 1


def _embeddings_path(out: str) -> str:
    """The embeddings CSV beside the log: `<dir>/<stem>_embeddings.csv`."""
    return os.path.splitext(out)[0] + "_embeddings.csv"


def cmd_train(cfg) -> int:
    if cfg.out:  # fail before training, not after the last step
        _check_writable(cfg.out)
        _check_writable(_embeddings_path(cfg.out))
    spec = _load_spec(cfg)
    if spec is None:
        spec = toy_spec([2, 2], 16, "df_bottleneck")
    dtype = _dtype(cfg)
    net = build(spec, dtype=dtype, seed=cfg.seed)
    data = SynthDataset(cfg.classes, frames=cfg.frames, seed=cfg.seed, dtype=dtype)
    trainer = Trainer(net, cfg.classes, cfg.optim, cfg.mode, cfg.lr, seed=cfg.seed,
                      block_size=cfg.block_size)
    # total_bytes is run_forward's ledger: no optimizer state, no AAM head
    rows = ["step,loss,activation_bytes,total_bytes"]
    for step in range(cfg.steps + 1):
        x, labels = data.batch(cfg.batch)
        loss, emb, ledger = trainer.forward(x, labels)
        rows.append(f"{step},{loss:.9e},{ledger.activations},{ledger.total()}")
        if not np.isfinite(loss):
            return _diverged(cfg, rows, f"training diverged at step {step}")
        if step == cfg.steps:  # the last step is an evaluation: no backward, no update
            break
        trainer.backward()
        try:
            trainer.step()
        except QuantizationError as exc:  # an 8-bit step refused, nothing written
            reason = ("8-bit state overflow" if isinstance(exc, StateOverflowError)
                      else "non-finite gradient")
            return _diverged(cfg, rows, f"training diverged at step {step} ({reason}): {exc}")
    _write(cfg, "\n".join(rows) + "\n")
    if cfg.out:
        _write_file(_embeddings_path(cfg.out),
                    "".join(str(int(lab)) + "," + ",".join(f"{v:.8e}" for v in vec) + "\n"
                            for lab, vec in zip(labels, emb)))
    return 0


def cmd_memreport(cfg) -> int:
    spec = _load_spec(cfg)
    if spec is None:
        raise ConfigError("memreport needs --net or --spec")
    if cfg.sweep_depths:
        rows = ["depth,mode,activations,weights,gradients,optimizer_states,workspace,total"]
        for depth in cfg.sweep_depths:
            deep = type(spec)(
                name=f"{spec.name}-d{depth}",
                stages=[RevRes(s.kind, s.c_half, depth) if isinstance(s, RevRes) else s
                        for s in spec.stages],
                embedding_dim=spec.embedding_dim,
            )
            net = build(deep, dtype=_dtype(cfg))
            led = ledger_plan(net, cfg.batch, cfg.frames, cfg.mode, cfg.optim)
            rows.append(f"{depth},{cfg.mode},{led.activations},{led.weights},"
                        f"{led.gradients},{led.optimizer_states},{led.workspace},"
                        f"{led.total()}")
        _write(cfg, "\n".join(rows) + "\n")
        return 0
    net = build(spec, dtype=_dtype(cfg))
    led = ledger_plan(net, cfg.batch, cfg.frames, cfg.mode, cfg.optim)
    _write(cfg, led.to_csv())
    return 0


_DISTRIBUTIONS = ("gaussian", "heavy_tailed", "sparse")


def _draw(dist: str, rng, n: int) -> np.ndarray:
    if dist == "gaussian":
        return rng.normal(size=n).astype(np.float32)
    if dist == "heavy_tailed":
        return rng.standard_t(3, size=n).astype(np.float32)
    if dist == "sparse":
        x = rng.normal(size=n).astype(np.float32)
        x[rng.random(n) < 0.99] = 0.0
        return x
    raise ConfigError(f"unknown distribution {dist!r}")


def cmd_quantbench(cfg) -> int:
    qmap = default_map()
    rng = np.random.default_rng(cfg.seed)
    rows = ["distribution,block_size,elements,agreement,max_error,error_bound,"
            "mean_error,state_bytes,dense_bytes,bytes_ratio"]
    all_agree = True
    for dist in _DISTRIBUTIONS:
        data = _draw(dist, rng, cfg.elements)
        for block in cfg.blocks:
            state = quantize_blockwise(data, qmap, block)
            ref_codes = nearest_codes_exhaustive(data, qmap, block)
            agreement = float((state.codes == ref_codes).mean())
            all_agree &= agreement == 1.0
            back = dequantize_blockwise(state, qmap, dtype=np.float64)
            err = np.abs(back - data.astype(np.float64))
            bound = (float(state.absmax.max()) * qmap.max_adjacent_gap() / 2
                     if data.size else 0.0)
            dense = data.size * 4
            rows.append(f"{dist},{block},{data.size},{agreement:.6f},"
                        f"{err.max():.6e},{bound:.6e},{err.mean():.6e},"
                        f"{state.nbytes},{dense},{state.nbytes / dense:.6f}")
    _write(cfg, "\n".join(rows) + "\n")
    if not all_agree:
        print("quantbench: table-lookup codes disagree with exhaustive oracle",
              file=sys.stderr)
        return 1
    return 0


def cmd_eer(cfg) -> int:
    if bool(cfg.scores) == bool(cfg.emb):
        raise ConfigError("eer needs exactly one of --scores or --emb")
    if cfg.scores:
        pos, neg = read_score_file(cfg.scores)
    else:
        embeddings, labels = read_embedding_file(cfg.emb)
        pos, neg = cosine_scores(embeddings, labels)
    if pos.size == 0 or neg.size == 0:
        raise ConfigError("need at least one target and one nontarget trial")
    value = eer_from_scores(pos, neg)
    print(f"eer {value:.9f}")
    if cfg.out:
        _write_file(cfg.out, f"metric,value\neer,{value:.9f}\n")
    return 0


def _count(text: str, minimum: int = 1) -> int:
    """argparse type for sizes and counts: an int of at least `minimum`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _counts(text: str, minimum: int = 1) -> tuple:
    """argparse type for a comma-separated list of sizes (`--blocks`)."""
    values = tuple(_count(v, minimum) for v in text.split(",") if v)
    if not values:
        raise argparse.ArgumentTypeError("must be at least 1 value, got none")
    return values


def _depths(text: str) -> tuple:
    """argparse type for `--sweep-depths`: 0 leaves a reversible stage empty."""
    return _counts(text, 0)


def _steps(text: str) -> int:
    """argparse type for `--steps`: 0 runs one evaluation and no update."""
    return _count(text, 0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="revmem",
                                description="Reversible-network training and "
                                            "8-bit optimizer-state experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, train_opts=False):
        sp.add_argument("--net", help="registry network name")
        sp.add_argument("--spec", dest="spec_path", help="network JSON file")
        sp.add_argument("--mode", choices=MODES, default="reversible")
        sp.add_argument("--optim", default="adamw", choices=list(OPTIMIZERS))
        sp.add_argument("--batch", type=_count, default=6)
        if train_opts:
            sp.add_argument("--steps", type=_steps, default=200)
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--f64", action="store_true", help="64-bit scalars")
        sp.add_argument("--out", help="output CSV path (default stdout)")
        sp.add_argument("--frames", type=_count, default=8)
        if train_opts:
            sp.add_argument("--lr", type=float, default=None)
            sp.add_argument("--classes", type=_count, default=3)
            sp.add_argument("--block", dest="block_size", type=_count, default=BLOCK_SIZE)

    sp = sub.add_parser("gradcheck", help="finite-difference and equivalence checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output CSV path (default stdout)")
    sp.add_argument("--inject-vjp-fault", metavar="OP", choices=gc.FAULT_OPS,
                    help="corrupt the named op's VJP (testing hook)")

    sp = sub.add_parser("train", help="toy training on synthetic speakers")
    common(sp, train_opts=True)

    sp = sub.add_parser("memreport", help="analytic memory ledger")
    common(sp)
    sp.add_argument("--sweep-depths", type=_depths, default=(),
                    help="comma list; rebuild with every reversible stage at "
                         "this depth and emit bytes per depth")

    sp = sub.add_parser("quantbench", help="codec agreement and error report")
    sp.add_argument("--elements", type=_count, default=1_000_000)
    sp.add_argument("--blocks", type=_counts, default=(BLOCK_SIZE,))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("eer", help="equal error rate from scores or embeddings")
    sp.add_argument("--scores", help="score file: 'target|nontarget <score>' lines")
    sp.add_argument("--emb", help="embeddings CSV: label,v0,v1,...")
    sp.add_argument("--out", help="output CSV path (default stdout)")

    return p


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "train": cmd_train,
    "memreport": cmd_memreport,
    "quantbench": cmd_quantbench,
    "eer": cmd_eer,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RevmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
