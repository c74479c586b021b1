"""Span capture and the per-layer figures built from it."""

import sys
import threading
import types

import pytest

import layers
import tracing


_FAKE_SOURCE = """
class Program:
    def run(self, x):
        return inner(x) + 1


def inner(x):
    return x * 2
"""


@pytest.fixture
def fake():
    """A stand-in layer module whose functions look each other up by
    global name, as the program's modules do."""
    module = types.ModuleType("perfbench_fake_layer")
    exec(_FAKE_SOURCE, module.__dict__)
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_missing_boundaries_are_reported_by_name(fake):
    tracer = tracing.Tracer()
    boundaries = (
        tracing.Boundary("fake.run", "perfbench_fake_layer", "Program.run"),
        tracing.Boundary("fake.gone", "perfbench_fake_layer", "Program.removed"),
        tracing.Boundary("fake.module_gone", "perfbench_no_such_module", "f"),
    )
    missing = tracing.install(tracer, boundaries, context_sites=())
    assert missing == ["fake.gone", "fake.module_gone"]
    assert fake.Program().run(1) == 3
    assert [s[2] for s in tracer.spans] == ["fake.run"]


def test_the_repo_exposes_every_boundary():
    # Resolving (not installing) every boundary of the real program.
    for boundary in tracing.BOUNDARIES:
        assert tracing._resolve(boundary.module, boundary.attr), boundary.name
    for name, module, attr in tracing.CONTEXT_SITES:
        assert tracing._resolve(module, attr), name


def test_spans_nest_and_carry_the_request_across_threads(fake):
    tracer = tracing.Tracer()
    boundaries = (
        tracing.Boundary("fake.run", "perfbench_fake_layer", "Program.run"),
        tracing.Boundary("fake.inner", "perfbench_fake_layer", "inner"),
    )
    assert tracing.install(tracer, boundaries, context_sites=()) == []
    saved = tracer.enter_context("req-1", None)
    try:
        fake.Program().run(2)
        rid, parent = tracer.context()
        done = []

        def worker():
            inner_saved = tracer.enter_context(rid, parent)
            try:
                fake.inner(3)
            finally:
                tracer.restore_context(inner_saved)
            done.append(True)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and done
    finally:
        tracer.restore_context(saved)
    by_name = {}
    for sid, parent_id, name, start, end, request, attrs in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent_id, request))
    (run_sid, run_parent, run_rid), = by_name["fake.run"]
    assert run_parent is None and run_rid == "req-1"
    # Called from inside run: a child of it. The call on the other
    # thread has the same request id.
    assert by_name["fake.inner"][0][1] == run_sid
    assert [r for _, _, r in by_name["fake.inner"]] == ["req-1", "req-1"]


def test_self_time_subtracts_covered_child_time():
    parent = {"start": 0.0, "end": 10.0}
    children = [
        {"start": 1.0, "end": 4.0},
        {"start": 3.0, "end": 5.0},  # overlaps the first (another thread)
        {"start": 9.0, "end": 12.0},  # runs past the parent's end
    ]
    assert layers.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)


def _telemetry():
    zero = {"seconds": 0.0, "count": 0}
    return {
        "span_seconds": {s: dict(zero) for s in layers.TELEMETRY_STAGES},
        "plan_cache": {"hits": 0, "misses": 0, "evictions": 0},
        "service": {"submitted": 0, "completed": 0, "coalesced": 0,
                    "shed": 0, "timed_out": 0, "failed": 0},
        "pool": {"batches": 0, "morsels": 0, "busy_seconds": 0.0,
                 "capacity_seconds": 0.0},
    }


def test_metrics_of_a_missing_boundary_are_listed_not_dropped():
    trace = {"missing": ["codegen.lower.lower_plan"], "spans": []}
    result = layers.layer_metrics(trace, [], _telemetry(), 10.0, 10.0)
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    assert "codegen.lower.lower_ms" in result["missing_metrics"]
    assert result["metrics"]["codegen.lower.lower_ms"] == 0.0
    assert result["missing_boundaries"] == ["codegen.lower.lower_plan"]


def test_telemetry_delta_sums_stages_across_labels():
    def snap(compile_sum, count):
        return {
            "histograms": {
                "span_seconds{backend=vectorized,stage=compile,strategy=swole}":
                    {"sum": compile_sum, "count": count},
                "span_seconds{stage=compile,strategy=hybrid}":
                    {"sum": 1.0, "count": 1},
                "span_seconds{stage=serve}": {"sum": 2.0, "count": 4},
            },
            "sources": {"plan_cache": {"hits": count, "misses": 0, "evictions": 0}},
        }

    delta = layers.telemetry_delta(snap(1.0, 2), snap(3.5, 7))
    assert delta["span_seconds"]["compile"] == {"seconds": 2.5, "count": 5}
    assert delta["span_seconds"]["serve"] == {"seconds": 0.0, "count": 0}
    assert delta["plan_cache"]["hits"] == 5
