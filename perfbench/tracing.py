"""Span capture at the program's layer boundaries, from outside.

:func:`install` rebinds module and class attributes of the running
server so each call through a listed boundary records a span: name,
start, end, the span that caused it (its parent) and the client-sent
request id. The program's own files are untouched; the rebinding
happens in the server process, before the server's ``main`` runs (see
``launcher.py``).

Spans are appended to an in-memory list and written out once, when the
server has drained. A boundary whose module or attribute no longer
exists is returned by name from :func:`install`, so a refactor that
removes a layer shows up in the report instead of silently reading 0.

Request ids reach worker threads through thread-local context: the
service's ``_serve`` sets it for the request it runs, and a morsel batch
carries its creator's context to the pool threads that drain it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


def _nbytes(view) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in view.values()))


def _compile_attrs(args, kwargs, result) -> dict:
    notes = getattr(result, "notes", {}) or {}
    explain = notes.get("explain", "")
    encodings = [
        line.strip()[len("encoding="):].strip()
        for line in explain.splitlines()
        if line.strip().startswith("encoding=")
    ]
    return {
        "query": getattr(result, "name", None),
        "strategy": getattr(result, "strategy", None),
        "estimated_cycles": notes.get("estimated_cycles"),
        "encodings": encodings,
        "fallback": "backend_fallback" in notes,
    }


def _executor_attrs(args, kwargs, result) -> dict:
    metrics = getattr(getattr(result, "report", None), "metrics", None)
    return {"morsels": getattr(metrics, "morsels", None)}


def _request_id(obj) -> Optional[str]:
    rid = getattr(obj, "id", None)
    return None if rid is None else str(rid)


@dataclass(frozen=True)
class Boundary:
    """One traced call site.

    ``module`` is where the callee is *looked up* at call time (the
    consumer's namespace for names bound by ``from x import f``);
    ``attr`` is ``"func"`` or ``"Class.method"``. ``request`` extracts
    the request id from ``(args, result)`` where the thread context does
    not carry it; ``attrs`` adds per-span details.
    """

    name: str
    module: str
    attr: str
    request: Optional[Callable[[tuple, Any], Optional[str]]] = None
    attrs: Optional[Callable[[tuple, dict, Any], dict]] = None


#: The layer boundaries, innermost last. Names are the per-layer metric
#: prefixes of the report.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("datagen.cache.load_dataset", "repro.server.__main__", "load_dataset"),
    Boundary(
        "server.protocol.parse_request",
        "repro.server.tcp",
        "parse_request",
        request=lambda args, result: _request_id(result),
    ),
    Boundary(
        "server.protocol.parse_query_spec",
        "repro.server.service",
        "parse_query_spec",
    ),
    Boundary(
        "server.protocol.to_wire",
        "repro.server.protocol",
        "QueryResponse.to_wire",
        request=lambda args, result: _request_id(args[0]),
    ),
    Boundary(
        "server.protocol.dump_line",
        "repro.server.tcp",
        "dump_line",
        request=lambda args, result: (
            str(args[0].get("id")) if isinstance(args[0], dict) else None
        ),
    ),
    Boundary(
        "server.service.submit",
        "repro.server.service",
        "QueryService.submit",
        request=lambda args, result: _request_id(args[1]),
    ),
    Boundary("server.service.serve", "repro.server.service", "QueryService._serve"),
    Boundary("engine.facade.execute", "repro.engine.facade", "Engine.execute"),
    Boundary(
        "engine.plan_cache.get_or_compile",
        "repro.engine.plan_cache",
        "PlanCache.get_or_compile",
        attrs=lambda args, kwargs, result: {"hit": bool(result[1])},
    ),
    Boundary(
        "codegen.pipeline.compile_pipeline",
        "repro.codegen.pipeline",
        "compile_pipeline",
        attrs=_compile_attrs,
    ),
    Boundary("plan.ops.validate", "repro.codegen.pipeline", "validate"),
    Boundary("plan.ops.plan_fingerprint", "repro.codegen.pipeline", "plan_fingerprint"),
    Boundary("plan.passes.run_passes", "repro.codegen.pipeline", "run_passes"),
    Boundary("codegen.lower.lower_plan", "repro.codegen.pipeline", "lower_plan"),
    Boundary(
        "codegen.vectorize.compile_physical",
        "repro.codegen.pipeline",
        "compile_physical",
        attrs=lambda args, kwargs, result: {
            "source_lines": getattr(result, "source", "").count("\n")
        },
    ),
    Boundary(
        "engine.executor.execute",
        "repro.engine.executor",
        "MorselExecutor.execute",
        attrs=_executor_attrs,
    ),
    Boundary("codegen.npexec.execute", "repro.codegen.npexec", "VectorizedProgram.execute"),
    Boundary("codegen.npexec.run_setup", "repro.codegen.npexec", "VectorizedProgram.run_setup"),
    Boundary("codegen.npexec.run_final", "repro.codegen.npexec", "VectorizedProgram.run_final"),
    Boundary(
        "storage.scan_view",
        "repro.storage.database",
        "Database.scan_view",
        attrs=lambda args, kwargs, result: {"nbytes": _nbytes(result)},
    ),
)

#: Context carriers (no span of their own): where a request id has to
#: hop threads. Missing ones are reported like missing boundaries.
CONTEXT_SITES = (
    ("server.service.serve:context", "repro.server.service", "QueryService._serve"),
    ("engine.pool.MorselBatch:context", "repro.engine.pool", "MorselBatch.__init__"),
    ("engine.pool.MorselBatch.drain:context", "repro.engine.pool", "MorselBatch.drain"),
)


class Tracer:
    """In-memory span sink shared by every wrapped call."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- thread context --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> Tuple[Optional[str], Optional[int]]:
        """(request id, innermost open span) of the calling thread."""
        stack = self._stack()
        return getattr(self._local, "rid", None), (stack[-1] if stack else None)

    def enter_context(self, rid: Optional[str], parent: Optional[int]):
        saved = (getattr(self._local, "rid", None), self._stack())
        self._local.rid = rid
        self._local.stack = [parent] if parent is not None else []
        return saved

    def restore_context(self, saved) -> None:
        self._local.rid, self._local.stack = saved[0], saved[1]

    # -- spans -----------------------------------------------------------

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        spans, ids, tracer = self.spans, self._ids, self

        def traced(*args, **kwargs):
            rid, parent = tracer.context()
            stack = tracer._stack()
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = {}
                if error is not None:
                    attrs["error"] = error
                else:
                    if boundary.request is not None:
                        rid = boundary.request(args, result) or rid
                    if boundary.attrs is not None:
                        attrs.update(boundary.attrs(args, kwargs, result))
                spans.append((sid, parent, boundary.name, start, end, rid, attrs))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, missing: List[str]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "missing": missing,
                    "spans": [
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request": rid,
                            "attrs": attrs,
                        }
                        for sid, parent, name, start, end, rid, attrs in self.spans
                    ],
                },
                fh,
            )


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value), or None."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None or not callable(value):
        return None
    return owner, parts[-1], value


def _serve_with_context(tracer: Tracer, fn: Callable) -> Callable:
    def serve(self, pending, *args, **kwargs):
        request = getattr(pending, "request", None)
        saved = tracer.enter_context(_request_id(request), None)
        try:
            return fn(self, pending, *args, **kwargs)
        finally:
            tracer.restore_context(saved)

    return serve


def _capture_on_init(tracer: Tracer, fn: Callable) -> Callable:
    def init(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        self._perfbench_context = tracer.context()

    return init


def _drain_with_context(tracer: Tracer, fn: Callable) -> Callable:
    def drain(self, *args, **kwargs):
        rid, parent = getattr(self, "_perfbench_context", (None, None))
        saved = tracer.enter_context(rid, parent)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.restore_context(saved)

    return drain


_CONTEXT_WRAPPERS = {
    "server.service.serve:context": _serve_with_context,
    "engine.pool.MorselBatch:context": _capture_on_init,
    "engine.pool.MorselBatch.drain:context": _drain_with_context,
}


def install(
    tracer: Tracer,
    boundaries: Tuple[Boundary, ...] = BOUNDARIES,
    context_sites=CONTEXT_SITES,
) -> List[str]:
    """Wrap every boundary and context site; return the names of those
    that could not be found."""
    missing: List[str] = []
    for boundary in boundaries:
        found = _resolve(boundary.module, boundary.attr)
        if found is None:
            missing.append(boundary.name)
            continue
        owner, leaf, value = found
        setattr(owner, leaf, tracer.wrap(boundary, value))
    # Context carriers wrap last, i.e. outermost, so the serve span is
    # recorded inside its request's context.
    for name, module, attr in context_sites:
        found = _resolve(module, attr)
        if found is None:
            missing.append(name)
            continue
        owner, leaf, value = found
        setattr(owner, leaf, _CONTEXT_WRAPPERS[name](tracer, value))
    return missing

