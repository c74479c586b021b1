"""The benchmark's workloads and their seeded request streams.

Each workload is sized so one layer does most of its work:

* ``tpch_power`` — the eight paper queries at SF 0.5 with fixed
  parameters on a 2-worker server, one client: vectorized kernels,
  encoded scans and morsel fan-out dominate.
* ``adhoc_compile`` — a fresh parameterisation of Q1/Q3/Q6/Q14/Q19 per
  request at SF 0.01, one client: every plan is new, so the plan cache
  misses and evicts and compile dominates.

Both are driven by one client (``CLIENTS``). On a few shared vCPUs a
second concurrent client makes two requests compete for the processor,
so a host that takes CPU time away from the guest stretches latency far
more than it stretches the work. Measured on a 2-vCPU virtual machine,
with CPU time taken away by a real-time busy loop in 6 ms bursts on a
random vCPU: 15 % taken raised p95 by 25 % with two clients, by 10 %
with one. A third workload of sub-millisecond queries (Q4/Q5/Q6/Q13/Q14
at SF 0.01) was dropped for the same reason: a request much shorter than
the host's multi-millisecond scheduling stalls has a p95 that measures
the stalls (it doubled with 10 % taken). The serving-path layers it
meant to stress are still measured, per layer, in the traced runs of
both workloads.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

import templates
from repro.plan.serde import plan_to_wire


#: Closed-loop clients per run (see the module docstring for why one).
CLIENTS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sf: float
    workers: int
    templates: Tuple[str, ...]
    adhoc: bool = False

    def server_args(self) -> List[str]:
        args = ["--dataset", "tpch", "--sf", str(self.sf), "--port", "0"]
        args += ["--workers", str(self.workers)]
        return args


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tpch_power",
            why="8 paper queries, SF 0.5, 2 workers, 1 client: kernels, "
            "encoded scans and morsel fan-out dominate",
            sf=0.5,
            workers=2,
            templates=("Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19"),
        ),
        Workload(
            name="adhoc_compile",
            why="fresh Q1/Q3/Q6/Q14/Q19 parameters per request, SF 0.01, "
            "1 client: plan cache misses, compile dominates",
            sf=0.01,
            workers=1,
            templates=templates.ADHOC_TEMPLATES,
            adhoc=True,
        ),
    )
}


def query_json(template: str, params: dict) -> bytes:
    """The wire query spec (plan envelope) of one parameterisation."""
    plan = templates.PLANS[template](params)
    return json.dumps(plan_to_wire(plan), separators=(",", ":")).encode()


def request_line(rid: str, query: bytes) -> bytes:
    return b'{"id":"' + rid.encode() + b'","query":' + query + b"}\n"


class RequestStream:
    """The seeded request sequence of one workload run.

    Templates come in shuffled blocks that hold each template once, so
    every run sends the same mix whatever its seed or length. For an
    ad-hoc workload no parameters repeat within ``FRESH_WINDOW`` draws
    of their template: a repeat, if a long run gets to one, finds its
    plan long evicted from the 64-entry plan cache. ``params`` keeps
    each request's parameters by key for the answer check.
    """

    #: Draws of one template within which parameters never repeat. The
    #: smallest ad-hoc parameter space (Q1's cutoff day) has 2161 values.
    FRESH_WINDOW = 1024

    def __init__(self, workload: Workload, seed: int, prefix: str) -> None:
        self.workload = workload
        self._rng = random.Random(seed)
        self.prefix = prefix
        self._block: List[str] = []
        self.params: List[dict] = []
        self._recent: Dict[str, deque] = {}
        self._fixed = {
            t: query_json(t, templates.FIXED[t]) for t in workload.templates
        }

    def _next_template(self) -> str:
        if not self._block:
            self._block = list(self.workload.templates)
            self._rng.shuffle(self._block)
        return self._block.pop()

    def draw(self) -> Tuple[str, object, bytes]:
        """(template, key, query json) of the next request."""
        template = self._next_template()
        if not self.workload.adhoc:
            return template, None, self._fixed[template]
        recent = self._recent.setdefault(
            template, deque(maxlen=self.FRESH_WINDOW)
        )
        while True:
            params = templates.draw_adhoc(template, self._rng)
            ident = json.dumps(params, sort_keys=True)
            if ident not in recent:
                break
        recent.append(ident)
        self.params.append(params)
        return template, len(self.params) - 1, query_json(template, params)


class PreparedStream:
    """A request stream, partly drawn ahead of the timed window.

    Ad-hoc requests cost a plan build and a fingerprint to draw; drawing
    them before timing keeps that client-side work out of the measured
    latency. Past the prepared ones it draws on demand and counts how
    many it had to (``drawn_late``).
    """

    def __init__(self, stream: RequestStream, n: int) -> None:
        self.stream = stream
        self._ready = [stream.draw() for _ in range(n)]
        self.sent = 0
        self.drawn_late = 0

    def __call__(self) -> Tuple[str, str, object, bytes]:
        """Next ``(rid, template, key, request line)``."""
        if self.sent < len(self._ready):
            template, key, query = self._ready[self.sent]
        else:
            template, key, query = self.stream.draw()
            self.drawn_late += 1
        self.sent += 1
        rid = f"{self.stream.prefix}{self.sent}"
        return rid, template, key, request_line(rid, query)
