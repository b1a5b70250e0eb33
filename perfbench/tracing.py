"""Spans recorded around the calls the benchmark makes into each layer.

A :class:`Tracer` keeps every span in memory: a name, start and end times
from ``time.perf_counter``, the id of the enclosing span and the id of the
op it belongs to.  :func:`instrument` wraps the public functions of the
``scvoting`` layers for the length of a ``with`` block, so spans also nest
inside ``scvoting.cli.run``.  Nothing is wrapped outside that block, which
keeps the untraced run free of any tracing cost.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | str
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | str = "setup"
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.id} closed while {popped} is open")

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((s.end - s.start) - covered)
    return result


def summarize(spans, counts, divisor: float = 1.0, time_scale: float = 1.0) -> dict[str, float]:
    """``<name>.calls`` and ``<name>.self_s`` per span name, plus extra counts,
    each divided by ``divisor``; self times are multiplied by ``time_scale``."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own * time_scale
    for name, value in counts.items():
        out[name] = out.get(name, 0) + value
    return {name: value / divisor for name, value in out.items()}


# -- the layers ----------------------------------------------------------------


def _cli_name(args, kwargs, result):
    argv = list(args[0] if args else kwargs["argv"])
    sub = next((a for a in argv if not a.startswith("-")), "none")
    return f"cli.run.{sub}"


def _maximize_name(args, kwargs, result):
    variant = args[1] if len(args) > 1 else kwargs["variant"]
    return f"pav.maximize.{variant}"


def _exists_name(args, kwargs, result):
    return "search.sw_jr_exists." + ("none" if result is None else "found")


def _count_violated(tracer, name, args, result):
    tracer.counts[f"{name}.violated"] += not result.satisfied


def _count_steps(tracer, name, args, result):
    _, trace = result
    for step in trace.steps:
        tracer.counts[f"{name}.steps.{step.phase}"] += 1


def _count_committees(tracer, name, args, result):
    inst = args[0]
    if name == "pav.maximize.iw-pav":
        size = sum(comb(sub.size, sub.quota) for sub in inst.subsets)
    else:
        size = 1
        for sub in inst.subsets:
            size *= comb(sub.size, sub.quota)
    tracer.counts[f"{name}.committees"] += size


# (module, function, span name or namer, extra counter)
LAYER_CALLS = (
    ("core", "parse_instance", "core.parse_instance", None),
    ("core", "serialize_instance", "core.serialize_instance", None),
    ("core", "generate_instance", "core.generate_instance", None),
    ("axioms", "check_sw_jr", "axioms.check_sw_jr", _count_violated),
    ("axioms", "check_iw_jr", "axioms.check_iw_jr", _count_violated),
    ("axioms", "check_weak_sw_jr", "axioms.check_weak_sw_jr", _count_violated),
    ("axioms", "check_jr", "axioms.check_jr", _count_violated),
    ("axioms", "verdict_to_json", "axioms.verdict_to_json", None),
    ("greedy", "solve_greedy", "greedy.solve_greedy", _count_steps),
    ("greedy", "trace_to_json_lines", "greedy.trace_to_json_lines", None),
    ("pav", "sw_pav_score", "pav.sw_pav_score", None),
    ("pav", "iw_pav_score", "pav.iw_pav_score", None),
    ("pav", "maximize", _maximize_name, _count_committees),
    ("search", "sw_jr_exists", _exists_name, _count_committees),
    ("search", "encode_set_cover", "search.encode_set_cover", None),
    ("cli", "run", _cli_name, None),
)


def _wrap(tracer, fn, namer, counter):
    fixed = namer if isinstance(namer, str) else None

    def traced(*args, **kwargs):
        span = tracer.begin(fixed or "pending")
        try:
            result = fn(*args, **kwargs)
        finally:
            # an exception still closes the span, under its plain name
            tracer.end(span)
        if fixed is None:
            span.name = namer(args, kwargs, result)
        if counter is not None:
            counter(tracer, span.name, args, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route the layers' public functions through ``tracer`` inside the block.

    A function is replaced in its defining module, in ``scvoting.cli`` and
    in the ``scvoting`` package namespace, wherever that name is bound to
    it.  Calls between modules through other bindings, such as the leaf
    re-verification inside ``sw_jr_exists``, stay untraced and count as
    their caller's self time.
    """
    import importlib

    package = importlib.import_module("scvoting")
    cli = importlib.import_module("scvoting.cli")
    patched = []
    try:
        for module_name, attr, namer, counter in LAYER_CALLS:
            home = importlib.import_module(f"scvoting.{module_name}")
            original = getattr(home, attr)
            wrapper = _wrap(tracer, original, namer, counter)
            for module in {id(m): m for m in (home, cli, package)}.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
