"""Per-layer metrics from a traced run, and the program's own telemetry.

:func:`layer_metrics` turns the spans written by the traced server
(:mod:`tracing`), the client's records of the same run and the deltas
of the server's ``stats`` op into the per-layer figures of the report.
Each figure names the boundaries it is computed from; when one of them
is missing from the program, the figure reads 0 and is listed under
``missing_metrics`` rather than silently dropped.

Figures are taken over the measured window's requests. Two kinds of
work happen only while compiling, which on the fixed-parameter
workloads is the warm-up: ``storage.scan_*`` (views are taken when a
program is built) and the model-vs-wall ranking's cycle estimates.
Those use the traced server's whole life.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import summary

#: Templates with their own kernel-time figure (the tpch_power set).
KERNEL_TEMPLATES = ("Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19")

#: Telemetry span stages compared against traced boundaries.
COMPARED_STAGES = {
    "compile": ("codegen.pipeline.compile_pipeline",),
    "execute": ("engine.executor.execute",),
    "queue_wait": ("server.service.submit", "engine.facade.execute"),
    "serve": ("server.service.serve",),
}
TELEMETRY_STAGES = (
    "compile", "execute", "morsel_execute", "merge", "queue_wait", "serve",
)

_KERNEL_SPANS = (
    "codegen.npexec.run_setup",
    "codegen.npexec.run_final",
    "codegen.npexec.execute",
)

#: name -> (unit, better, boundaries the figure needs).
PER_LAYER: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "server.protocol.decode_us": (
        "us", "lower",
        ("server.protocol.parse_request", "server.protocol.parse_query_spec"),
    ),
    "server.protocol.encode_us": (
        "us", "lower", ("server.protocol.to_wire", "server.protocol.dump_line"),
    ),
    "server.service.queue_wait_ms": (
        "ms", "lower", ("server.service.submit", "engine.facade.execute"),
    ),
    "server.service.coalesced_frac": ("fraction", "higher", ()),
    "server.service.shed": ("count", "lower", ()),
    "engine.plan_cache.lookup_us": (
        "us", "lower", ("engine.plan_cache.get_or_compile",),
    ),
    "engine.plan_cache.hit_rate": (
        "fraction", "higher", ("engine.plan_cache.get_or_compile",),
    ),
    "engine.plan_cache.evictions": ("count", "lower", ()),
    "engine.facade.execute_ms": ("ms", "lower", ("engine.facade.execute",)),
    "engine.executor.self_ms": (
        "ms", "lower", ("engine.executor.execute",) + _KERNEL_SPANS,
    ),
    "engine.executor.morsels": ("count", "lower", ("engine.executor.execute",)),
    "engine.pool.busy_frac": ("fraction", "higher", ()),
    "plan.ops.validate_us": (
        "us", "lower",
        ("plan.ops.validate", "plan.ops.plan_fingerprint",
         "codegen.pipeline.compile_pipeline"),
    ),
    "plan.passes.optimize_ms": ("ms", "lower", ("plan.passes.run_passes",)),
    "codegen.pipeline.compile_ms": (
        "ms", "lower", ("codegen.pipeline.compile_pipeline",),
    ),
    "codegen.lower.lower_ms": ("ms", "lower", ("codegen.lower.lower_plan",)),
    "codegen.vectorize.emit_ms": (
        "ms", "lower", ("codegen.vectorize.compile_physical",),
    ),
    "codegen.vectorize.source_lines": (
        "lines", "lower", ("codegen.vectorize.compile_physical",),
    ),
    "codegen.vectorize.fallbacks": (
        "count", "lower", ("codegen.pipeline.compile_pipeline",),
    ),
    "codegen.npexec.setup_ms": (
        "ms", "lower", ("codegen.npexec.run_setup", "engine.facade.execute"),
    ),
    **{
        f"codegen.npexec.kernel_ms.{q}": (
            "ms", "lower", ("codegen.npexec.run_final", "codegen.npexec.execute"),
        )
        for q in KERNEL_TEMPLATES
    },
    "storage.scan_view_us": ("us", "lower", ("storage.scan_view",)),
    "storage.scan_bytes": (
        "bytes", "lower",
        ("storage.scan_view", "codegen.vectorize.compile_physical"),
    ),
    "datagen.cache.load_s": ("s", "lower", ("datagen.cache.load_dataset",)),
    "plan.passes.model_wall_spearman": (
        "rho", "higher",
        ("codegen.pipeline.compile_pipeline",) + _KERNEL_SPANS[1:],
    ),
    "trace.overhead_frac": ("fraction", "lower", ()),
    "share.compile_frac": (
        "fraction", "lower", ("codegen.pipeline.compile_pipeline",),
    ),
    "share.kernel_frac": ("fraction", "lower", _KERNEL_SPANS),
    "share.outside_execute_frac": (
        "fraction", "lower", ("engine.facade.execute",),
    ),
    "client.plan_cache_hit_frac": ("fraction", "higher", ()),
    **{
        f"obs.disagreement.{stage}": ("fraction", "lower", names)
        for stage, names in COMPARED_STAGES.items()
    },
}


# -- telemetry (the program's own ``stats`` op) --------------------------

_STAGE = re.compile(r"^span_seconds\{(?:.*,)?stage=([^,}]+)")


def _span_totals(snapshot: dict) -> Dict[str, Tuple[float, int]]:
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for key, hist in snapshot.get("histograms", {}).items():
        match = _STAGE.match(key)
        if match:
            totals[match.group(1)][0] += hist.get("sum", 0.0)
            totals[match.group(1)][1] += hist.get("count", 0)
    return {stage: (v[0], v[1]) for stage, v in totals.items()}


def telemetry_delta(before: dict, after: dict) -> dict:
    """What the server's own telemetry counted between two scrapes."""
    b_spans, a_spans = _span_totals(before), _span_totals(after)
    spans = {}
    for stage in TELEMETRY_STAGES:
        s0, c0 = b_spans.get(stage, (0.0, 0))
        s1, c1 = a_spans.get(stage, (0.0, 0))
        spans[stage] = {"seconds": s1 - s0, "count": c1 - c0}
    sources = {}
    for source, fields in (
        ("plan_cache", ("hits", "misses", "evictions")),
        ("service", ("submitted", "completed", "coalesced", "shed",
                     "timed_out", "failed")),
        ("pool", ("batches", "morsels", "busy_seconds", "capacity_seconds")),
    ):
        b = before.get("sources", {}).get(source, {})
        a = after.get("sources", {}).get(source, {})
        sources[source] = {f: a.get(f, 0) - b.get(f, 0) for f in fields}
    return {"span_seconds": spans, **sources}


# -- spans ------------------------------------------------------------------


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: Iterable[dict]) -> float:
    """The span's duration minus the part its children cover."""
    covered = summary.union_length(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children
        if c["end"] > span["start"] and c["start"] < span["end"]
    )
    return _dur(span) - covered


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    trace: dict,
    records: List,
    telemetry: dict,
    traced_qps: float,
    untraced_qps: float,
) -> dict:
    """Per-layer figures of one traced run (see module docstring).

    ``records`` are the client's records of the traced window;
    ``telemetry`` the :func:`telemetry_delta` over that window.
    """
    spans: List[dict] = trace["spans"]
    missing_boundaries = list(trace.get("missing", []))
    window = {r.rid for r in records}
    template_of = {r.rid: r.template for r in records}
    by_name: Dict[str, List[dict]] = defaultdict(list)
    in_window: Dict[str, List[dict]] = defaultdict(list)
    per_request: Dict[str, Dict[str, List[dict]]] = defaultdict(
        lambda: defaultdict(list)
    )
    children: Dict[int, List[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)
        if s["request"] in window:
            in_window[s["name"]].append(s)
            per_request[s["request"]][s["name"]].append(s)

    def per_request_sum(names, rids=None) -> List[float]:
        out = []
        for rid, named in per_request.items():
            if rids is not None and rid not in rids:
                continue
            found = [s for n in names for s in named.get(n, ())]
            if found:
                out.append(sum(_dur(s) for s in found))
        return out

    m: Dict[str, float] = {}
    m["server.protocol.decode_us"] = 1e6 * _mean(per_request_sum(
        ("server.protocol.parse_request", "server.protocol.parse_query_spec")
    ))
    m["server.protocol.encode_us"] = 1e6 * _mean(per_request_sum(
        ("server.protocol.to_wire", "server.protocol.dump_line")
    ))
    waits = []
    for named in per_request.values():
        if named.get("server.service.submit") and named.get("engine.facade.execute"):
            waits.append(
                named["engine.facade.execute"][0]["start"]
                - named["server.service.submit"][0]["start"]
            )
    m["server.service.queue_wait_ms"] = 1e3 * _mean(waits)
    service = telemetry["service"]
    m["server.service.coalesced_frac"] = (
        service["coalesced"] / service["completed"] if service["completed"] else 0.0
    )
    m["server.service.shed"] = float(service["shed"])

    lookups = in_window["engine.plan_cache.get_or_compile"]
    hits = [s for s in lookups if s["attrs"].get("hit")]
    m["engine.plan_cache.lookup_us"] = 1e6 * _mean([_dur(s) for s in hits])
    m["engine.plan_cache.hit_rate"] = len(hits) / len(lookups) if lookups else 0.0
    m["engine.plan_cache.evictions"] = float(telemetry["plan_cache"]["evictions"])

    executes = in_window["engine.facade.execute"]
    m["engine.facade.execute_ms"] = 1e3 * _mean([_dur(s) for s in executes])
    runs = in_window["engine.executor.execute"]
    m["engine.executor.self_ms"] = 1e3 * _mean(
        [self_time(s, children[s["id"]]) for s in runs]
    )
    m["engine.executor.morsels"] = _mean(
        [float(s["attrs"]["morsels"]) for s in runs
         if s["attrs"].get("morsels") is not None]
    )
    pool = telemetry["pool"]
    m["engine.pool.busy_frac"] = (
        pool["busy_seconds"] / pool["capacity_seconds"]
        if pool["capacity_seconds"] else 0.0
    )

    compiles = in_window["codegen.pipeline.compile_pipeline"]
    n_compiles = len(compiles)
    m["plan.ops.validate_us"] = (
        1e6 * sum(
            _dur(s) for n in ("plan.ops.validate", "plan.ops.plan_fingerprint")
            for s in in_window[n]
        ) / n_compiles if n_compiles else 0.0
    )
    m["plan.passes.optimize_ms"] = 1e3 * _mean(
        [_dur(s) for s in in_window["plan.passes.run_passes"]]
    )
    m["codegen.pipeline.compile_ms"] = 1e3 * _mean([_dur(s) for s in compiles])
    m["codegen.lower.lower_ms"] = 1e3 * _mean(
        [_dur(s) for s in in_window["codegen.lower.lower_plan"]]
    )
    emits = in_window["codegen.vectorize.compile_physical"]
    m["codegen.vectorize.emit_ms"] = 1e3 * _mean([_dur(s) for s in emits])
    m["codegen.vectorize.source_lines"] = _mean(
        [float(s["attrs"].get("source_lines", 0)) for s in emits]
    )
    m["codegen.vectorize.fallbacks"] = float(
        sum(1 for s in compiles if s["attrs"].get("fallback"))
    )
    setups = in_window["codegen.npexec.run_setup"]
    m["codegen.npexec.setup_ms"] = (
        1e3 * sum(_dur(s) for s in setups) / len(executes) if executes else 0.0
    )
    kernel_ms: Dict[str, float] = {}
    for q in KERNEL_TEMPLATES:
        rids = {rid for rid, t in template_of.items() if t == q}
        kernel_ms[q] = 1e3 * _mean(per_request_sum(
            ("codegen.npexec.run_final", "codegen.npexec.execute"), rids
        ))
        m[f"codegen.npexec.kernel_ms.{q}"] = kernel_ms[q]

    views = by_name["storage.scan_view"]
    programs = len(by_name["codegen.vectorize.compile_physical"])
    m["storage.scan_view_us"] = 1e6 * _mean([_dur(s) for s in views])
    m["storage.scan_bytes"] = (
        sum(s["attrs"].get("nbytes", 0) for s in views) / programs
        if programs else 0.0
    )
    loads = by_name["datagen.cache.load_dataset"]
    m["datagen.cache.load_s"] = _dur(loads[0]) if loads else 0.0

    model = {}
    for s in by_name["codegen.pipeline.compile_pipeline"]:
        attrs = s["attrs"]
        if attrs.get("query") in kernel_ms and attrs.get("estimated_cycles"):
            model[attrs["query"]] = {
                "estimated_cycles": attrs["estimated_cycles"],
                "strategy": attrs.get("strategy"),
                "encodings": attrs.get("encodings", []),
            }
    ranked = [q for q in model if kernel_ms.get(q, 0.0) > 0.0]
    for q in model:
        model[q]["kernel_ms"] = kernel_ms.get(q, 0.0)
    m["plan.passes.model_wall_spearman"] = (
        summary.spearman(
            [model[q]["estimated_cycles"] for q in ranked],
            [kernel_ms[q] for q in ranked],
        )
        if len(ranked) >= 3 else 0.0
    )

    m["trace.overhead_frac"] = (
        1.0 - traced_qps / untraced_qps if untraced_qps else 0.0
    )
    latency_s = sum(r.received - r.sent for r in records)
    kernel_union = 0.0
    for named in per_request.values():
        kernel_union += summary.union_length(
            (s["start"], s["end"]) for n in _KERNEL_SPANS for s in named.get(n, ())
        )
    shares = {
        "share.compile_frac": sum(_dur(s) for s in compiles),
        "share.kernel_frac": kernel_union,
        "share.outside_execute_frac": latency_s - sum(_dur(s) for s in executes),
    }
    for name, seconds in shares.items():
        m[name] = seconds / latency_s if latency_s else 0.0
    reported = [r for r in records if r.plan_cache is not None]
    m["client.plan_cache_hit_frac"] = (
        sum(1 for r in reported if r.plan_cache == "hit") / len(reported)
        if reported else 0.0
    )

    traced_totals = {
        "compile": sum(_dur(s) for s in compiles),
        "execute": sum(_dur(s) for s in runs),
        "queue_wait": sum(waits),
        "serve": sum(_dur(s) for s in in_window["server.service.serve"]),
    }
    comparison = {}
    for stage, traced in traced_totals.items():
        told = telemetry["span_seconds"][stage]["seconds"]
        disagreement = abs(told - traced) / traced if traced else 0.0
        comparison[stage] = {
            "telemetry_s": told,
            "traced_s": traced,
            "disagreement": disagreement,
        }
        m[f"obs.disagreement.{stage}"] = disagreement

    missing_metrics = sorted(
        name for name, (_, _, needs) in PER_LAYER.items()
        if any(n in missing_boundaries for n in needs)
    )
    for name in missing_metrics:
        m[name] = 0.0
    return {
        "metrics": {name: m[name] for name in PER_LAYER},
        "missing_boundaries": missing_boundaries,
        "missing_metrics": missing_metrics,
        "model_vs_wall": model,
        "telemetry_vs_trace": comparison,
        "span_counts": {name: len(v) for name, v in sorted(by_name.items())},
    }

