"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train-rev-df --seeds 1-10

Runs one untraced benchmark process at a time, for BENCHMARK.json's
``run_seconds`` each, the run length the bounds are set for. For every
metric it prints the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
beside the metric's bound. A spread above a third of the bound is marked.
Raw results are kept as JSON lines in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import OUT, ROOT, run_child


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    with open(OUT / f"spread-{args.workload}.jsonl", "a") as fh:
        for seed in args.seeds:
            t0 = time.monotonic()
            result, report = run_child(args.workload, seed, spec["run_seconds"], 0)
            wall = time.monotonic() - t0
            if not result["correct"]:
                print("\n".join(report), file=sys.stderr)
                return 1
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"seed {seed} ({wall:.1f} s wall): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<32} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = " <-- over a third of the bound" if spread > bound / 3 else ""
        print(f"{name:<32} {med:>12.6g} {spread:>10.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
