"""One workload in a fresh, single-threaded process.

Sets the workload up, runs its closed loop (one client: each op starts when
the previous one has returned), then checks every output outside the
timing and prints one JSON object on stdout.  ``run.py`` starts this file;
it is not meant to be run by hand.

Modes:
  setup  stop at the first timed op and report the set-up time only
  e2e    the untraced timed loop that gives the end-to-end metrics
  trace  an untraced pass of whole cycles, then the same cycles traced

Every time reported is in reference seconds (see ``speed.py``); the wall
times it comes from are reported next to it.
"""

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# enough ops that both reported percentiles keep MIN_BEYOND samples above them
MIN_OPS = stats.min_samples(0.9)


class Loop:
    """Runs ops one after another and keeps, per input, the first output and
    whether every later output equals it."""

    def __init__(self, cycle, gauge: speed.Gauge):
        self.cycle = cycle
        self.gauge = gauge
        self.first: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.wall_durations: list[float] = []
        self.durations: list[float] = []  # reference seconds, once the loop is done
        self.ops: list = []
        self.op_failed: list[bool] = []

    def run_op(self, op):
        failed = False
        started = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a failing op is counted, and the loop goes on
            elapsed = time.perf_counter() - started
            failed = True
            self.errors.setdefault(op.key, traceback.format_exc(limit=3))
        else:
            elapsed = time.perf_counter() - started
            if op.key not in self.first:
                self.first[op.key] = (op, out)
            elif self.first[op.key][1] != out:
                failed = True
                self.errors.setdefault(op.key, "output differs from an earlier run of the same input")
        self.wall_durations.append(elapsed)
        self.ops.append(op)
        self.op_failed.append(failed)

    def run(self, seconds: float, min_ops: int = 0, whole_cycles: bool = False, tracer=None):
        """Run ops in cycle order until ``seconds`` have passed and at least
        ``min_ops`` ops are done; with ``whole_cycles`` only stop at a cycle's end."""
        first_slice = len(self.gauge.slices)
        started = time.perf_counter()
        done = 0
        while True:
            op = self.cycle[done % len(self.cycle)]
            self.gauge.sample()
            if tracer is None:
                self.run_op(op)
            else:
                tracer.op = len(self.wall_durations)
                with tracer.span("op"):
                    self.run_op(op)
            done += 1
            if whole_cycles and done % len(self.cycle):
                continue
            if time.perf_counter() - started >= seconds and done >= min_ops:
                break
        self.gauge.sample()
        self.durations = speed.reference_times(self.wall_durations, self.gauge.slices[first_slice:])
        return done


def check_outputs(workload, loops) -> tuple[int, list[str], str]:
    """Failed ops, problems found and the fingerprint of every output."""
    firsts = {}
    for loop in loops:
        for key, pair in loop.first.items():
            firsts.setdefault(key, pair)
    problems = []
    for loop in loops:
        problems += [f"{key}: {error}" for key, error in loop.errors.items()]
    bad_keys = set()
    digest = hashlib.sha256()
    for key in sorted(firsts):
        op, out = firsts[key]
        try:
            found = workload.check(op, out)
        except Exception:  # a check that crashes is a failed check
            found = [traceback.format_exc(limit=3)]
        if found:
            bad_keys.add(key)
            problems += [f"{key}: {p}" for p in found]
        canonical = json.dumps([key, workload.canonical(op, out)], sort_keys=True)
        digest.update(canonical.encode())
    failed = sum(
        bad or op.key in bad_keys
        for loop in loops
        for op, bad in zip(loop.ops, loop.op_failed)
    )
    return failed, problems, digest.hexdigest()


def _by_kind(loop) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for op, elapsed in zip(loop.ops, loop.durations):
        times.setdefault(op.kind, []).append(elapsed)
    return times


def warm_up(workload):
    """Run each code path once, on its smallest input of a seed-independent cost."""
    smallest = {}
    for op in workload.cycle:
        if op.kind not in workload.warm_kinds:
            continue
        if op.path not in smallest or op.size < smallest[op.path].size:
            smallest[op.path] = op
    for op in smallest.values():
        op.call()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "e2e", "trace"], required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    gauge = speed.Gauge()
    gauge.sample(speed.WINDOW)
    started = time.perf_counter()
    import workloads  # imports scvoting, which set-up time covers

    build = workloads.BUILDERS[args.workload]
    tracer = tracing.Tracer()
    if args.mode == "trace":
        with tracing.instrument(tracer):
            workload = build(args.seed, workdir)
    else:
        workload = build(args.seed, workdir)
    warm_up(workload)
    gc.collect()
    setup_wall_s = time.perf_counter() - started
    gauge.sample(speed.WINDOW)
    setup_factor = gauge.factor()
    result = {
        "setup_s": setup_wall_s * setup_factor,
        "setup_wall_s": setup_wall_s,
        "cycle_ops": len(workload.cycle),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    loop = Loop(workload.cycle, gauge)
    if args.mode == "e2e":
        loop.run(args.seconds, min_ops=max(MIN_OPS, len(workload.cycle)))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        loops = [loop]
        d = loop.durations
        p50, p90 = stats.percentile(d, 0.5), stats.percentile(d, 0.9)
        # over whole cycles only, so the op mix behind the rate is always the same
        whole = len(d) - len(d) % len(workload.cycle)
        result.update(
            ops=len(d),
            op_s_p50=p50,
            op_s_p90=p90,
            ops_per_s=whole / sum(d[:whole]),
            peak_rss_mb=rss_kib / 1024,
            wall_op_s_p50=stats.percentile(loop.wall_durations, 0.5),
            wall_op_s_p90=stats.percentile(loop.wall_durations, 0.9),
            wall_ops_per_s=len(d) / sum(loop.wall_durations),
            beyond_p90=stats.samples_beyond(len(d), 0.9),
            p50_kind=loop.ops[d.index(p50)].kind,
            p90_kind=loop.ops[d.index(p90)].kind,
            kinds={
                kind: [len(times), statistics.median(times)]
                for kind, times in _by_kind(loop).items()
            },
        )
    else:
        cycles = loop.run(args.seconds / 2, whole_cycles=True) // len(workload.cycle)
        setup_spans, setup_counts = len(tracer.spans), tracer.counts
        tracer.counts = tracing.Counter()
        traced = Loop(workload.cycle, gauge)
        first_slice = len(gauge.slices)
        with tracing.instrument(tracer):
            traced.run(0.0, min_ops=cycles * len(workload.cycle), whole_cycles=True, tracer=tracer)
        traced_factor = gauge.factor(since=first_slice)
        tracer.write(Path(args.out) / f"spans-{args.workload}-seed{args.seed}.jsonl")
        loops = [loop, traced]
        # per cycle of the op mix, and once per run for the set-up
        layers = tracing.summarize(tracer.spans[setup_spans:], tracer.counts,
                                   divisor=cycles, time_scale=traced_factor)
        setup = tracing.summarize(tracer.spans[:setup_spans], setup_counts, time_scale=setup_factor)
        layers.update({f"setup.{name}": value for name, value in setup.items()})
        layers["trace.overhead_ratio"] = sum(traced.durations) / sum(loop.durations)
        layers["trace.cycles"] = cycles
        result.update(ops=len(loop.durations) + len(traced.durations), layers=layers)

    failed, problems, fingerprint = check_outputs(workload, loops)
    result.update(
        attempted=sum(len(lp.durations) for lp in loops),
        failed=failed,
        problems=problems[:20],
        fingerprint=fingerprint,
        p50_kind_designed=workload.p50_kind,
        p90_kind_designed=workload.p90_kind,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
