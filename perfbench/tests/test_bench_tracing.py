"""Self-time arithmetic on nested spans, and the layer wrappers."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, 0, "op", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "b", 2.0, 3.0),
        Span(3, 0, 0, "c", 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, 0, "op", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 5.0),
        Span(2, 0, 0, "b", 3.0, 7.0),
        Span(3, 0, 0, "c", 9.0, 12.0),
    ]
    # children cover [1, 7] and [9, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_summarize_divides_per_cycle():
    spans = [Span(0, None, 0, "op", 0.0, 4.0), Span(1, 0, 0, "a", 1.0, 2.0)]
    summary = tracing.summarize(spans, {"a.extra": 6}, divisor=2)
    assert summary == pytest.approx(
        {"op.calls": 0.5, "op.self_s": 1.5, "a.calls": 0.5, "a.self_s": 0.5, "a.extra": 3.0}
    )


def test_tracer_nests_spans_and_records_the_op():
    tracer = tracing.Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.op) == (None, outer.id, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_instrument_wraps_layers_only_inside_the_block():
    import scvoting as sv
    from scvoting import axioms, fixtures

    original = axioms.check_sw_jr
    tracer = tracing.Tracer()
    inst = fixtures.no_swjr_instance()
    committee = sv.Committee.of(inst, [0, 2])
    with tracing.instrument(tracer):
        verdict = sv.check_axiom(inst, committee, sv.JR)
    assert axioms.check_sw_jr is original
    assert [s.name for s in tracer.spans] == ["axioms.check_jr", "axioms.check_sw_jr"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert tracer.counts["axioms.check_jr.violated"] == (not verdict.satisfied)
