"""Runtime library for the vectorized NumPy execution backend.

The generated kernels (:mod:`repro.codegen.vectorize`) are ``exec``'d
with this module's helpers bound into their globals. Everything here is
plain NumPy over whole columns — no event emission, no simulated-cost
accounting — but every helper is written to be *byte-identical* to the
instrumented executor's semantics (:mod:`repro.codegen.physexec`):

- grouped results are ``{"keys": int64 ascending, "aggs": int64 2-D}``,
  exactly what ``HashTable.items()`` + ``grouped_result`` produce;
- arithmetic happens at int64 width with ndarray-only casts and the
  same floor-division / zero-check behaviour as ``Arith.evaluate``;
- scalar aggregates come back as Python ints.

Hash probes become membership tests against the build's key set: a
direct-address bitmap when the keys span a compact range, binary search
(``np.searchsorted``) over the sorted unique keys otherwise. Grouping
counts over dense key ranges (one ``np.add.at`` per aggregate into an
int64 table) and falls back to argsort + ``np.add.reduceat`` for sparse
keys. Both are int64-exact, so the answers match the instrumented
backend's hash-table scatter adds bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanError

__all__ = [
    "VectorizedProgram",
    "group_sorted",
    "key_set",
    "member",
    "count_by",
    "distribution",
    "i64",
    "int_div",
    "rows_of",
    "RUNTIME_ENV",
]


def rows_of(view: Dict[str, np.ndarray]) -> int:
    """Row count of a column dict (any column — they are aligned)."""
    return int(next(iter(view.values())).shape[0])


def i64(value):
    """``Arith``'s operand widening: ndarrays go to int64, scalars stay.

    ``np.int64`` scalars (what ``Const.evaluate`` returns) are *not*
    ndarrays and pass through untouched, matching the instrumented
    expression evaluator exactly.
    """
    if isinstance(value, np.ndarray):
        return value.astype(np.int64, copy=False)
    return value


def int_div(lhs, rhs):
    """``Arith(op="div")``: zero-checked int64 floor division."""
    if isinstance(lhs, np.ndarray):
        lhs = lhs.astype(np.int64, copy=False)
    if isinstance(rhs, np.ndarray):
        rhs = rhs.astype(np.int64, copy=False)
    rhs_array = np.asarray(rhs)
    if rhs_array.size and (rhs_array == 0).any():
        raise PlanError("division by zero in expression")
    return np.floor_divide(lhs, rhs)


#: A direct-address bitmap may hold this many slots per build key (or
#: 64 Ki slots, whichever is more); sparser key sets probe by binary
#: search instead. Bitmaps stay O(build) bytes.
_LOOKUP_SLOTS_PER_KEY = 16
_LOOKUP_MIN_SLOTS = 1 << 16


def key_set(values: np.ndarray) -> Dict[str, Any]:
    """Build-side state of a hash semijoin/join/groupjoin: the sorted
    unique int64 ``keys`` plus, when their span is compact, a
    direct-address ``lookup = (base, bitmap)`` for :func:`member`.

    ``bitmap[k - base]`` is True exactly for the build keys; its last
    slot is a False sentinel that every out-of-range probe is clamped
    to.
    """
    keys = np.unique(values).astype(np.int64, copy=False)
    lookup = None
    if keys.size:
        base = int(keys[0])
        span = int(keys[-1]) - base
        if span <= max(_LOOKUP_MIN_SLOTS, _LOOKUP_SLOTS_PER_KEY * keys.size):
            bitmap = np.zeros(span + 2, dtype=bool)
            bitmap[keys - np.int64(base)] = True
            lookup = (np.int64(base), bitmap)
    return {"keys": keys, "lookup": lookup}


def member(values: np.ndarray, built: Dict[str, Any]) -> np.ndarray:
    """Membership of ``values`` (any integer dtype) in a :func:`key_set`.

    The vectorized replacement for a hash-set semijoin probe. Compact
    key sets take one subtraction, one clamp and one gather: the offset
    ``values - base`` is formed in int64 (wrapping) and read as uint64,
    so every probe below ``base`` or above the largest key lands past
    the bitmap and is clamped onto its False sentinel — exact for every
    int64, extremes included. Sparse key sets fall back to binary
    search over the sorted keys.
    """
    lookup = built["lookup"]
    if lookup is not None:
        base, bitmap = lookup
        offset = np.subtract(
            values, base, dtype=np.int64, casting="unsafe"
        ).view(np.uint64)
        np.minimum(offset, np.uint64(bitmap.size - 1), out=offset)
        return bitmap[offset.view(np.int64)]
    table = built["keys"]
    if table.size == 0:
        return np.zeros(values.shape[0], dtype=bool)
    values = values.astype(np.int64, copy=False)
    pos = np.searchsorted(table, values)
    pos[pos == table.size] = table.size - 1
    return table[pos] == values


def _dense_codes(keys: np.ndarray):
    """``(codes, base_keys)`` when the key range is narrow enough for
    counting-sort grouping, else ``None`` (caller falls back to sort).

    The spread bound keeps the per-aggregate tables O(n): dense keys
    (dictionary codes, group expressions, FK ids) qualify; sparse ones
    (hashes, wide surrogate keys) take the argsort path.
    """
    if keys.size == 0:
        return None
    kmin = int(keys.min())
    spread = int(keys.max()) - kmin
    if spread > max(65536, 4 * keys.size):
        return None
    codes = (keys - np.int64(kmin)).astype(np.intp, copy=False)
    base = np.arange(spread + 1, dtype=np.int64) + np.int64(kmin)
    return codes, base


def group_sorted(
    keys: np.ndarray,
    deltas: List[Optional[np.ndarray]],
    mask: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Group int64 ``deltas`` columns by int64 ``keys``; keys ascending.

    A ``None`` delta is a ``count`` aggregate: it is filled with the
    per-group row counts the grouping computes anyway, so no column of
    ones is ever built.

    Dense key ranges group by counting: ``np.bincount`` of the shifted
    codes gives the occupancy, and each delta is summed with one
    ``np.add.at`` into an int64 table — exact mod 2**64, like the
    hash-table scatter adds. Sparse ranges fall back to a stable
    argsort plus one ``np.add.reduceat`` per run boundary. Both are
    bit-identical to the instrumented backend.

    ``mask`` selects the rows to group (the generated kernels pass the
    selection vector straight through): the dense path diverts the
    unselected rows into a sentinel bucket that never reaches the
    output, which beats materialising ``keys[mask]`` plus one boolean
    subset copy per delta column.
    """
    naggs = max(len(deltas), 1)
    if keys.size == 0:
        return {
            "keys": np.empty(0, dtype=np.int64),
            "aggs": np.zeros((0, naggs), dtype=np.int64),
        }
    dense = _dense_codes(keys)
    if dense is not None:
        codes, base = dense
        length = base.size
        if mask is not None:
            # Unselected rows land in bucket ``base.size`` — counted,
            # summed, and then sliced away with everything past it.
            codes = np.where(mask, codes, length)
            length += 1
        occupancy = np.bincount(codes, minlength=length)[: base.size]
        present = np.flatnonzero(occupancy)
        counts = occupancy[present].astype(np.int64, copy=False)
        cols = []
        for delta in deltas:
            if delta is None:
                cols.append(counts)
                continue
            # ``np.add.at`` has a fast indexed loop (NumPy >= 1.25) only
            # when the values already match the table's int64 dtype; an
            # int8 delta takes the generic loop (9 ms vs 0.26 ms per
            # 187k rows, NumPy 2.4 on a 2-vCPU Xeon). The kernels emit
            # every delta as int64 for that reason.
            table = np.zeros(length, dtype=np.int64)
            np.add.at(table, codes, delta)
            cols.append(table[present])
        aggs = (
            np.stack(cols, axis=1)
            if cols
            else np.zeros((present.size, 1), dtype=np.int64)
        )
        return {"keys": base[present], "aggs": aggs}
    if mask is not None:
        keys = keys[mask]
        deltas = [None if d is None else d[mask] for d in deltas]
        if keys.size == 0:
            return {
                "keys": np.empty(0, dtype=np.int64),
                "aggs": np.zeros((0, naggs), dtype=np.int64),
            }
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    runs = np.diff(np.append(starts, keys.shape[0])).astype(np.int64)
    cols = [
        runs
        if delta is None
        else np.add.reduceat(
            np.asarray(delta, dtype=np.int64)[order], starts
        )
        for delta in deltas
    ]
    aggs = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((starts.size, 1), dtype=np.int64)
    )
    return {"keys": sorted_keys[starts], "aggs": aggs}


def count_by(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-key row counts, keys ascending (outer groupjoin's state)."""
    dense = _dense_codes(keys)
    if dense is not None:
        codes, base = dense
        occupancy = np.bincount(codes, minlength=base.size)
        present = np.flatnonzero(occupancy)
        return base[present], occupancy[present].astype(np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.astype(np.int64, copy=False), counts.astype(np.int64)


def distribution(per_key: np.ndarray, missing: int) -> Dict[str, np.ndarray]:
    """Count-of-counts over per-key counts, folding ``missing`` build
    keys (rows the outer join never matched) into the zero bucket."""
    values, counts = np.unique(per_key, return_counts=True)
    values = values.astype(np.int64, copy=False)
    counts = counts.astype(np.int64)
    if missing:
        if values.size and values[0] == 0:
            counts[0] += missing
        else:
            values = np.concatenate(
                (np.zeros(1, dtype=np.int64), values)
            )
            counts = np.concatenate(
                (np.asarray([missing], dtype=np.int64), counts)
            )
    return {"keys": values, "aggs": counts.reshape(-1, 1)}


#: Globals every generated kernel is ``exec``'d with (the expression
#: compiler adds per-kernel ``_E*`` / ``_C*`` / ``_FK*`` bindings on
#: top of a copy of this).
RUNTIME_ENV: Dict[str, Any] = {
    "np": np,
    "_rows": rows_of,
    "_key_set": key_set,
    "_member": member,
    "_group": group_sorted,
    "_count_by": count_by,
    "_distribution": distribution,
    "_i64": i64,
    "_div": int_div,
}


class VectorizedProgram:
    """A compiled physical plan as a list of executable column kernels.

    ``kernels`` pairs each pipeline with its generated function
    ``fn(view, state, lo) -> result | None``; ``data`` caches the base
    columns per pipeline so the serving path does no per-query dict
    rebuilding. ``source`` is the full generated Python text (the
    vectorized analogue of the instrumented backend's pseudo-C).
    """

    def __init__(
        self,
        kernels: List[Tuple[Any, Callable]],
        data: List[Dict[str, np.ndarray]],
        source: str,
        finalize: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> None:
        if not kernels:
            raise PlanError("vectorized program needs at least one pipeline")
        self.kernels = kernels
        self.data = data
        self.source = source
        #: Post-merge cleanup applied once to the final (serial) or
        #: merged (parallel) result — eager aggregation's victim-key
        #: deletion lives here so morsel partials stay mergeable.
        self.finalize = finalize

    def execute(self) -> Dict[str, Any]:
        """Run every pipeline in order; the last one yields the answer."""
        state: Dict[str, Dict[str, Any]] = {}
        result: Optional[Dict[str, Any]] = None
        for (pipe, fn), view in zip(self.kernels, self.data):
            result = fn(view, state, 0)
        if result is None:
            raise PlanError("physical plan produced no result")
        if self.finalize is not None:
            result = self.finalize(result)
        return result

    def run_setup(self) -> Dict[str, Dict[str, Any]]:
        """Run the build pipelines (all but the last) into fresh state."""
        state: Dict[str, Dict[str, Any]] = {}
        for (pipe, fn), view in zip(self.kernels[:-1], self.data[:-1]):
            fn(view, state, 0)
        return state

    def run_final(
        self,
        view: Dict[str, np.ndarray],
        state: Optional[Dict[str, Dict[str, Any]]],
        lo: int,
    ) -> Dict[str, Any]:
        """Run the final pipeline over one morsel's row-range view."""
        _, fn = self.kernels[-1]
        return fn(view, state if state is not None else {}, lo)
