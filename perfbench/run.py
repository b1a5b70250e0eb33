"""Run the scvoting benchmark and print its metrics.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh single-threaded worker processes, one after
another: a few that only set up, then one that also runs the timed loop;
``setup_s`` is the median of all their set-up times.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.  The
last line of standard output is one JSON object; the lines before it show
every metric by name and unit, and a results record is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The seed a workload runs with when --seed is not given.
DEFAULT_SEEDS = {"audit": 1, "optimize": 1, "exists": 1, "cli": 1}
SETUP_SAMPLES = 5
# every process of one run must end well inside the three minutes a run may take
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scvoting").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", str(OUT)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) ran past {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload; return its results record."""
    record = environment(workload, seed)
    record.update(seconds=seconds, trace=int(trace))
    if trace:
        result = worker(workload, seed, seconds, "trace")
        layers = result.pop("layers")
        for name, value in list(layers.items()):
            # search-space size per second of the routine's own time
            if name.endswith(".committees") and layers.get(name[:-11] + ".self_s"):
                layers[name + "_per_s"] = value / layers[name[:-11] + ".self_s"]
        record.update(result, layers=layers)
        metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
        missing = [m["name"] for m in spec["per_layer"]
                   if m["unit"] != "count" and m["name"] not in layers]
        if missing:
            raise BenchError(f"{workload}: the traced run measured no {missing}")
    else:
        runs = [worker(workload, seed, seconds, "setup") for _ in range(SETUP_SAMPLES - 1)]
        result = worker(workload, seed, seconds, "e2e")
        runs.append(dict(result))
        result["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        record.update(result, setup_samples=[r["setup_s"] for r in runs],
                      setup_wall_samples=[r["setup_wall_s"] for r in runs])
        metrics = {m["name"]: (result[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["error_rate"] = record["failed"] / record["attempted"]
    return record


def report(record: dict) -> None:
    w = record["workload"]
    print(f"== {w}: seed {record['seed']}, {record['seconds']} s, trace {record['trace']}, "
          f"python {record['python']}, nproc {record['nproc']}, "
          f"commit {record['git_commit'] or 'unknown'}, source sha256 {record['source_sha256'][:16]}")
    for name, m in record["metrics"].items():
        print(f"{w:9s} {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"{w:9s} {'error_rate':42s} {record['error_rate']:>14.6g} ratio "
          f"({record['failed']} failed of {record['attempted']} ops)")
    if record["trace"]:
        print(f"{w:9s} every layer, per cycle of {record['cycle_ops']} ops "
              f"(setup.* once per run):")
        for name, value in sorted(record["layers"].items()):
            if name not in record["metrics"] and value:
                print(f"{w:9s}   {name:40s} {value:>14.6g}")
    else:
        print(f"{w:9s} wall clock: set-up {statistics.median(record['setup_wall_samples']):.6g} s, "
              f"p50 {record['wall_op_s_p50']:.6g} s, p90 {record['wall_op_s_p90']:.6g} s, "
              f"{record['wall_ops_per_s']:.6g} ops/s")
        print(f"{w:9s} p50 lands on {record['p50_kind']} (meant: {record['p50_kind_designed']}), "
              f"p90 on {record['p90_kind']} (meant: {record['p90_kind_designed']}) "
              f"with {record['beyond_p90']} of {record['ops']} ops beyond it")
    print(f"{w:9s} fingerprint {record['fingerprint']}")
    for problem in record["problems"]:
        print(f"{w:9s} PROBLEM {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(DEFAULT_SEEDS) + ["all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "scvoting" / "__init__.py").is_file():
        print(f"error: no scvoting sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(DEFAULT_SEEDS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
            record = measure(name, seed, seconds, bool(args.trace), spec)
            (OUT / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=2) + "\n")
            report(record)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    line = {
        "correct": all(r["failed"] == 0 and not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}." if prefix else "") + name: m
            for r in records
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
