"""Spread report: run one workload with several seeds and show how steady
each metric is.

    python3 perfbench/spread.py --workload exists --runs 10
    python3 perfbench/spread.py --workload exists --runs 5 --first-seed 11 --trace 1

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
distance as a share of the median.  For an end-to-end metric it also shows
that share against the metric's bound in ``BENCHMARK.json``: the benchmark
aims for spreads below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed} failed with exit {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    incorrect = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        line = run_once(args.workload, seed, args.seconds, args.trace)
        incorrect += not line["correct"] or line["failed"] > 0
        shown = []
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            if name in bounds:
                shown.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']} "
              + " ".join(shown), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {incorrect} with failures")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = stats.quartiles(vals)
        share = stats.spread(vals)
        verdict = ""
        if name in bounds:
            ok = "ok" if share < bounds[name] / 3 else "WIDE"
            verdict = f"{bounds[name]:.2f} ({ok}: aim below {bounds[name] / 3:.3f})"
        print(f"{name:42s} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f}  {verdict}  {units[name]}")
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
