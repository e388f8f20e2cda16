"""The benchmark's workloads: three training configurations.

Every workload drives the library's public API from outside, one training
step at a time. Each workload derives all of its inputs (weights, synthetic
batches and the AAM head) from the benchmark seed, so the library only
receives the generated arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from revmem import engine, loss, optim, quant, synth, zoo
from revmem.layers import Param

CLASSES = 8


@dataclass(frozen=True)
class TrainConfig:
    stage_blocks: tuple
    width: int
    kind: str
    net_type: str
    mode: str
    optimizer: str
    batch: int
    frames: int


TRAIN = {
    "train-rev-df": TrainConfig((4, 4), 16, "df_bottleneck", "type2",
                                "reversible", "adam8", batch=4, frames=32),
    "train-stored-df": TrainConfig((4, 4), 16, "df_bottleneck", "type2",
                                   "stored", "adam", batch=4, frames=32),
    "train-wide-q8": TrainConfig((1, 1), 64, "basic", "type1",
                                 "reversible", "adam8", batch=2, frames=8),
}
NAMES = tuple(TRAIN)


def make(name: str, seed: int):
    return TrainRun(TRAIN[name], seed)


class TrainRun:
    """Closed-loop training: synth batch -> run_forward -> loss -> run_backward
    -> opt.step -> zero_grad."""

    def __init__(self, cfg: TrainConfig, seed: int):
        self.cfg = cfg
        spec = zoo.toy_spec(list(cfg.stage_blocks), cfg.width, cfg.kind, cfg.net_type)
        rng = np.random.default_rng(seed)
        self.net = zoo.build(spec, np.float32, seed=int(rng.integers(1 << 31)))
        self.head = Param(rng.normal(0.0, 0.1, (self.net.embedding_dim, CLASSES))
                          .astype(np.float32))
        self.opt = optim.make_optimizer(cfg.optimizer, self.net.params() + [self.head], 1e-3)
        self.data = synth.SynthDataset(CLASSES, frames=cfg.frames,
                                       seed=int(rng.integers(1 << 31)))
        self.plan = engine.ledger_plan(self.net, cfg.batch, cfg.frames, cfg.mode,
                                       cfg.optimizer)

    def warm_up(self):
        return self.check(0, self.run(0))

    def _forward_backward(self, x, labels):
        emb, store, ledger = engine.run_forward(self.net, x, self.cfg.mode)
        loss_value, demb, dhead = loss.aam_softmax_loss(emb, labels, self.head.value)
        engine.run_backward(self.net, store, demb.astype(emb.dtype), self.cfg.mode)
        self.head.grad += dhead.astype(self.head.value.dtype)
        return loss_value, ledger.activations, store.full_tensor_count()

    def run(self, i):
        x, labels = self.data.batch(self.cfg.batch)
        result = self._forward_backward(x, labels)
        self.opt.step()
        self.opt.zero_grad()
        return result

    def check(self, i, result) -> bool:
        """Every loss is finite; the first timed step's activation bytes match the plan."""
        loss_value, activations, _ = result
        return math.isfinite(loss_value) and (i != 0 or activations == self.plan.activations)

    def peak_op(self):
        """The untimed step whose traced peak is reported."""
        return self.run(-1)

    def ledger_error(self, peak: int) -> float:
        return abs(peak - self.plan.total()) / peak

    def post_checks(self) -> list[tuple[str, bool]]:
        step_ok, oracle_ok = self._oracle_step()
        checks = [("step after timing has a finite loss", step_ok)]
        if oracle_ok is not None:
            checks.append(("largest 8-bit state matches nearest_codes_exhaustive", oracle_ok))
        return checks

    def _oracle_step(self):
        """One more step, recording the largest tensor the optimizer quantizes.

        Returns (step passed its check, codes agree with the exhaustive
        oracle or None when the optimizer keeps no 8-bit state).
        """
        original = optim.quantize_blockwise
        largest = {}

        def capture(tensor, qmap=None, block_size=2048):
            state = original(tensor, qmap, block_size)
            if tensor.size > largest.get("size", 0):
                largest.update(size=tensor.size, tensor=np.array(tensor), state=state,
                               qmap=qmap, block_size=block_size)
            return state

        optim.quantize_blockwise = capture
        try:
            result = self.run(-1)
        finally:
            optim.quantize_blockwise = original
        oracle_ok = None
        if largest:
            codes = quant.nearest_codes_exhaustive(largest["tensor"], largest["qmap"],
                                                   largest["block_size"])
            oracle_ok = bool(np.array_equal(codes, largest["state"].codes))
        return self.check(-1, result), oracle_ok

    def layer_counts(self, result) -> dict[str, float]:
        """Exact per-step byte counts read from the library's own accounting."""
        _, activations, tensors = result
        params = self.opt.params
        return {
            "engine.saved_bytes": activations,
            "engine.saved_tensors": tensors,
            "engine.ledger_activation_gap_bytes": activations - self.plan.activations,
            "optim.state_bytes": self.opt.state_nbytes(),
            "optim.state_bytes_gap": self.opt.state_nbytes() - optim.optimizer_state_nbytes(
                sum(p.size for p in params), self.cfg.optimizer),
        }

