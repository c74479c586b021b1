"""Pure arithmetic of the benchmark: percentiles, geomean, outcomes.

Kept free of I/O so the rules the report relies on are unit-tested
(``tests/test_summary.py``).
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

#: A reported percentile needs at least this many samples above it.
MIN_TAIL_SAMPLES = 10

#: Request outcomes. Every attempted request gets exactly one.
OK = "ok"
TRANSPORT = "transport_error"
SHED = "shed"
DEADLINE = "deadline_exceeded"
WRONG = "wrong_answer"
ERROR = "server_error"
OUTCOMES = (OK, TRANSPORT, SHED, DEADLINE, WRONG, ERROR)

#: Wire error codes the server answers a refused request with.
_SHED_CODES = ("queue_full", "shutting_down")
_DEADLINE_CODES = ("deadline_exceeded",)


def samples_needed(q: float) -> int:
    """Smallest sample count leaving ``MIN_TAIL_SAMPLES`` above the
    nearest-rank ``q`` percentile."""
    n = MIN_TAIL_SAMPLES
    while tail_count(n, q) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile of n."""
    return n - max(1, math.ceil(q * n))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of ``samples``.

    Raises ``ValueError`` when fewer than ``MIN_TAIL_SAMPLES`` samples
    lie beyond it: such a figure is one or two outliers, not a tail.
    """
    n = len(samples)
    if n == 0 or tail_count(n, q) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves "
            f"{max(tail_count(n, q), 0) if n else 0} above it; "
            f"need {MIN_TAIL_SAMPLES} ({samples_needed(q)} samples)"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * n)) - 1]


def time_slices(
    times: Sequence[float], start: float, elapsed: float, most: int, least: int
) -> List[List[int]]:
    """Indices of ``times`` split into equal slices of the run.

    Uses as many slices, up to ``most``, as leave every slice at least
    ``least`` entries; raises ``ValueError`` when even one slice has
    fewer.
    """
    for k in range(min(most, len(times) // least), 0, -1):
        width = elapsed / k
        parts: List[List[int]] = [[] for _ in range(k)]
        for i, t in enumerate(times):
            parts[min(max(int((t - start) / width), 0), k - 1)].append(i)
        if all(len(part) >= least for part in parts):
            return parts
    raise ValueError(f"{len(times)} samples cannot fill a slice of {least}")


def geomean_of_medians(by_template: Dict[str, Sequence[float]]) -> float:
    """Geometric mean over templates of each template's median, so a 2x
    change on any one template moves the figure by the same factor."""
    medians = [statistics.median(v) for v in by_template.values() if v]
    if not medians:
        raise ValueError("no template has a latency sample")
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def classify(
    response: Optional[dict], expected: Optional[dict] = None
) -> str:
    """The outcome of one request.

    ``response`` is the decoded wire response, or ``None`` when the
    transport failed (connect, send, receive or decode). ``expected``
    is the reference answer; a successful response that differs from it
    is a wrong answer.
    """
    if response is None:
        return TRANSPORT
    if response.get("status") == "ok":
        if expected is not None and response.get("value") != expected:
            return WRONG
        return OK
    code = (response.get("error") or {}).get("code")
    if code in _SHED_CODES:
        return SHED
    if code in _DEADLINE_CODES:
        return DEADLINE
    return ERROR


def tally(outcomes: Iterable[str]) -> dict:
    """Counts per outcome plus ``attempted``, ``failed``, ``error_rate``.

    Every attempt is counted once, under exactly one outcome.
    """
    counts = Counter(outcomes)
    unknown = set(counts) - set(OUTCOMES)
    if unknown:
        raise ValueError(f"unknown outcomes {sorted(unknown)}")
    attempted = sum(counts.values())
    failed = attempted - counts[OK]
    summary = {name: counts[name] for name in OUTCOMES}
    summary["attempted"] = attempted
    summary["failed"] = failed
    summary["error_rate"] = failed / attempted if attempted else 0.0
    return summary


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (ties get their average rank)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("spearman needs two equal-length series of >= 2")
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def union_length(intervals: Iterable[tuple]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
