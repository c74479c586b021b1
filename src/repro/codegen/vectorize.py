"""Vectorized backend: physical pipelines -> generated Python kernels.

The second execution backend. Where :mod:`repro.codegen.physexec`
*interprets* a :class:`~repro.plan.physical.PhysicalPlan` op by op —
doing the work and emitting priced access events — this module
*generates* one plain-Python function per pipeline (whole-column NumPy
statements, no events, no hash tables), compiles the text with
``compile``/``exec``, and returns a
:class:`~repro.codegen.npexec.VectorizedProgram` ready to serve.

The generated code is the access-aware program the paper's compiler
would emit, minus the simulation harness:

- predicates become boolean-mask expressions honoring the same
  value-mask / key-mask semantics the passes decided;
- hash builds become key sets (sorted unique keys plus a
  direct-address bitmap when compact) and hash probes test the raw FK
  column against them (``_key_set`` / ``_member``);
- grouped aggregation becomes one ``_group`` call: counting over dense
  keys (one ``np.add.at`` per aggregate), argsort + ``np.add.reduceat``
  over sparse ones; ``count`` aggregates pass ``None`` and take the
  group sizes (int64-exact, so results match the hash-table path bit
  for bit);
- an arithmetic subtree used more than once in a kernel is computed
  once into a temporary (per data variable: ``v`` or a ``sub*``
  subset);
- FK-index offset arrays, InSet constant tables, build-side column
  dicts, and non-inlinable expressions are bound into the kernel's
  globals at compile time (``_FK*`` / ``_C*`` / ``_T*`` / ``_E*``).

Expressions are inlined into the source where the node type maps to a
NumPy operator (Col/Const/Compare/And/Or/Arith/InSet/StrMatch);
anything else (Case, dictionary probes) falls back to the bound
expression object's own vectorized ``evaluate``.

Every op's semantics mirror the instrumented executor exactly — that
equivalence is pinned by the backend sweep in
``tests/test_backend_equivalence.py`` across all TPC-H query x
strategy cells, serial and morsel-parallel.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..errors import PlanError
from ..plan import passes as PS
from ..plan.expressions import (
    And,
    Arith,
    Col,
    Compare,
    Const,
    Expr,
    InSet,
    Or,
    StrMatch,
    conjuncts,
)
from ..plan.physical import (
    BitmapBuild,
    BitmapSemiProbe,
    CarriedGather,
    ColumnMaterialize,
    DisjunctBitmapProbe,
    DisjunctIndexProbe,
    EagerAggregate,
    ExistsBitmapBuild,
    ExistsBitmapProbe,
    FilterStage,
    GroupAgg,
    GroupBuild,
    GroupDistribution,
    GroupJoinAgg,
    HashJoinCarryProbe,
    HashSemiProbe,
    IndexGather,
    JoinBuild,
    MultiBitmapBuild,
    OuterGroupJoinAgg,
    PhysicalPlan,
    Pipeline,
    ScalarAgg,
    SemiHashBuild,
)
from ..storage.database import Database
from .npexec import RUNTIME_ENV, VectorizedProgram

_ARITH_SYMBOL = {"add": "+", "sub": "-", "mul": "*"}


class VectorizeError(PlanError):
    """A physical shape the vectorized backend cannot lower (the
    caller falls back to the instrumented backend)."""


class _Env:
    """Kernel globals: runtime helpers plus compile-time bound values."""

    def __init__(self) -> None:
        self.bindings: Dict[str, object] = dict(RUNTIME_ENV)
        self._counts: Dict[str, int] = {}
        self._fk_cache: Dict[Tuple[str, str], str] = {}

    def bind(self, prefix: str, value: object) -> str:
        i = self._counts.get(prefix, 0)
        self._counts[prefix] = i + 1
        name = f"{prefix}{i}"
        self.bindings[name] = value
        return name

    def fk_offsets(self, db: Database, table: str, fk_column: str) -> str:
        key = (table, fk_column)
        name = self._fk_cache.get(key)
        if name is None:
            name = self.bind("_FK", db.fk_index(table, fk_column).offsets)
            self._fk_cache[key] = name
        return name


class _Temps:
    """Per-kernel common-subexpression table: an ``Arith`` subtree in
    ``shared`` is computed once per data variable (``v`` or a ``sub*``
    subset) into a temporary that later occurrences reuse."""

    def __init__(
        self,
        shared: FrozenSet[Arith],
        out: Callable[[str], None],
        name: Callable[[str], str],
    ) -> None:
        self.shared = shared
        self.names: Dict[Tuple[Arith, str], str] = {}
        self._out = out
        self._name = name

    def hoist(self, key: Tuple[Arith, str], src: str) -> str:
        name = self._name("e")
        self._out(f"{name} = {src}")
        self.names[key] = name
        return name


_SCALARS = frozenset((str, int, bool, type(None)))


def _shared_arith(node: object) -> FrozenSet[Arith]:
    """``Arith`` subtrees occurring more than once in the expressions
    reachable from ``node`` (physical ops, aggregates, expressions).
    The children of a repeated subtree are not counted again: they are
    computed once, inside its temporary."""
    seen: set = set()
    shared: set = set()

    def visit(item: object) -> None:
        kind = type(item)
        if kind in _SCALARS:
            return  # names, modes and constants hold no expression
        if kind is Arith:
            if item in seen:
                shared.add(item)
                return
            seen.add(item)
        if kind is tuple or kind is list:
            for child in item:
                visit(child)
        elif hasattr(kind, "__dataclass_fields__"):
            for child in vars(item).values():
                visit(child)

    visit(node)
    return frozenset(shared)


def compile_expr(
    expr: Expr, data: str, env: _Env, temps: Optional[_Temps] = None
) -> str:
    """Python source for ``expr`` evaluated over the columns of the
    dict variable named ``data``; falls back to a bound expression
    object for node types without an inline form. With ``temps``,
    repeated arithmetic is emitted once into a kernel temporary."""
    if isinstance(expr, Col):
        return f"{data}[{expr.name!r}]"
    if isinstance(expr, Const):
        return f"np.int64({expr.value})"
    if isinstance(expr, Compare):
        left = compile_expr(expr.left, data, env, temps)
        right = compile_expr(expr.right, data, env, temps)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, And):
        return "(" + " & ".join(
            compile_expr(term, data, env, temps) for term in expr.terms
        ) + ")"
    if isinstance(expr, Or):
        return "(" + " | ".join(
            compile_expr(term, data, env, temps) for term in expr.terms
        ) + ")"
    if isinstance(expr, Arith):
        key = (expr, data)
        if temps is not None and key in temps.names:
            return temps.names[key]
        left = compile_expr(expr.left, data, env, temps)
        right = compile_expr(expr.right, data, env, temps)
        if expr.op == "div":
            src = f"_div({left}, {right})"
        else:
            src = f"(_i64({left}) {_ARITH_SYMBOL[expr.op]} _i64({right}))"
        if temps is not None and expr in temps.shared:
            return temps.hoist(key, src)
        return src
    if isinstance(expr, InSet):
        child = compile_expr(expr.child, data, env, temps)
        table = env.bind(
            "_C", np.asarray(expr.values, dtype=np.int64)
        )
        return f"np.isin(np.asarray({child}), {table})"
    if isinstance(expr, StrMatch):
        term = f"({data}[{expr.flag_column!r}] != 0)"
        return f"(~{term})" if expr.negated else term
    bound = env.bind("_E", expr)
    return f"{bound}.evaluate({data})"


def _bool(src: str) -> str:
    return f"np.asarray({src}, dtype=bool)"


class _KernelEmitter:
    """Generates the body of one pipeline's kernel function."""

    def __init__(self, pipe: Pipeline, db: Database, env: _Env) -> None:
        self.pipe = pipe
        self.db = db
        self.env = env
        self.view_cols = frozenset(db.data(pipe.table).keys())
        self.lines: List[str] = []
        self.has_mask = False
        self.has_result = False
        self.finalize = None
        self._tmp = 0
        self.temps = _Temps(_shared_arith(pipe.ops), self.out, self.name)

    # -- small emission helpers -----------------------------------------

    def out(self, line: str) -> None:
        self.lines.append("    " + line if line else "")

    def name(self, stem: str) -> str:
        self._tmp += 1
        return f"{stem}{self._tmp}"

    def expr(self, expr: Expr, data: str) -> str:
        """``compile_expr`` with this kernel's shared temporaries."""
        return compile_expr(expr, data, self.env, self.temps)

    def selected(self, src: str) -> str:
        """``src`` narrowed to the live selection (no-op without one)."""
        return f"{src}[mask]" if self.has_mask else src

    def narrow(self, term: str) -> None:
        """``ctx.narrow``: AND ``term`` into the mask (or adopt it)."""
        if self.has_mask:
            self.out(f"mask = mask & {term}")
        else:
            self.out(f"mask = {term}")
            self.has_mask = True

    def mask_or_ones(self) -> str:
        return "mask" if self.has_mask else "np.ones(n, dtype=bool)"

    def fk_offsets_slice(self, fk_column: str) -> str:
        full = self.env.fk_offsets(self.db, self.pipe.table, fk_column)
        off = self.name("off")
        self.out(f"{off} = {full}[lo:lo + n]")
        return off

    def key_set(self, column: str) -> str:
        """Build-side key set over the selected key values (both access
        styles of ``_read_keys`` produce them in row order)."""
        return f"_key_set({self.selected(f'v[{column!r}]')})"

    def member(self, op) -> str:
        """Probe ``op.fk_column`` against ``op.state``'s key set."""
        hit = self.name("hit")
        self.out(
            f"{hit} = _member(v[{op.fk_column!r}], state[{op.state!r}])"
        )
        return hit

    def carried_snapshot(self, carry: Tuple[str, ...]) -> str:
        """Full-length payload columns for a build-side state entry."""
        items = ", ".join(
            f"{c!r}: carried.get({c!r}, v.get({c!r}))" for c in carry
        )
        return "{" + items + "}"

    def agg_delta(self, agg, data: str) -> str:
        """An aggregate's int64 delta column; ``None`` for a count,
        which the grouping runtime fills from its per-group row
        counts."""
        if agg.func == "count":
            return "None"
        return f"np.asarray({self.expr(agg.expr, data)}, dtype=np.int64)"

    def group_deltas(self, aggregates, data: str) -> str:
        """``_group``'s delta list, one named column per summed
        aggregate."""
        names = []
        for agg in aggregates:
            delta = self.agg_delta(agg, data)
            if delta != "None":
                name = self.name("d")
                self.out(f"{name} = {delta}")
                delta = name
            names.append(delta)
        return ", ".join(names)

    # -- operators -------------------------------------------------------

    def emit_op(self, op) -> None:
        handler = _HANDLERS.get(type(op))
        if handler is None:
            raise VectorizeError(
                f"vectorized backend cannot lower {type(op).__name__}"
            )
        handler(self, op)

    def op_filter(self, op: FilterStage) -> None:
        view_conjs = [
            conj
            for conj in op.conjuncts
            if conj.columns() <= self.view_cols
        ]
        carried_conjs = [
            conj for conj in op.conjuncts if conj not in view_conjs
        ]
        for conj in view_conjs:
            self.narrow(_bool(self.expr(conj, "v")))
        if carried_conjs:
            full = self.name("full")
            self.out(f"{full} = dict(v)")
            self.out(f"{full}.update(carried)")
            for conj in carried_conjs:
                self.narrow(_bool(self.expr(conj, full)))

    def op_semihash_build(self, op: SemiHashBuild) -> None:
        self.out(f"state[{op.state!r}] = {self.key_set(op.key_column)}")

    def op_join_build(self, op: JoinBuild) -> None:
        self.out(
            f"state[{op.state!r}] = {{"
            f"**{self.key_set(op.key_column)}, "
            f"'carried': {self.carried_snapshot(op.carry)}, 'rows': n}}"
        )

    def op_group_build(self, op: GroupBuild) -> None:
        self.out(f"state[{op.state!r}] = {self.key_set(op.key_column)}")

    def op_bitmap_build(self, op: BitmapBuild) -> None:
        mask = "mask.copy()" if self.has_mask else "np.ones(n, dtype=bool)"
        self.out(
            f"state[{op.state!r}] = {{'mask': {mask}, 'rows': n, "
            f"'carried': {self.carried_snapshot(op.carry)}}}"
        )

    def op_hash_semi_probe(self, op: HashSemiProbe) -> None:
        hit = self.member(op)
        self.narrow(f"~{hit}" if op.negate else hit)

    def op_bitmap_semi_probe(self, op: BitmapSemiProbe) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        self.narrow(f"state[{op.state!r}]['mask'][{off}]")

    def op_column_materialize(self, op: ColumnMaterialize) -> None:
        entry = self.name("entry")
        src = self.expr(op.expr, "v")
        self.out(
            f"{entry} = state.setdefault("
            f"{op.state!r}, {{'columns': {{}}, 'rows': n}})"
        )
        self.out(f"{entry}['columns'][{op.column!r}] = np.asarray({src})")

    def op_index_gather(self, op: IndexGather) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        for column in op.columns:
            self.out(
                f"carried[{column!r}] = "
                f"state[{op.state!r}]['columns'][{column!r}][{off}]"
            )

    def op_carried_gather(self, op: CarriedGather) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        for column in op.columns:
            self.out(
                f"carried[{column!r}] = "
                f"state[{op.state!r}]['carried'][{column!r}][{off}]"
            )

    def op_hash_join_carry_probe(self, op: HashJoinCarryProbe) -> None:
        self.narrow(self.member(op))
        off = self.fk_offsets_slice(op.fk_column)
        for column in op.carry:
            self.out(
                f"carried[{column!r}] = "
                f"state[{op.state!r}]['carried'][{column!r}][{off}]"
            )

    def op_exists_bitmap_build(self, op: ExistsBitmapBuild) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        probe_rows = self.db.table(op.probe_table).num_rows
        exists = self.name("exists")
        self.out(f"{exists} = np.zeros({probe_rows}, dtype=bool)")
        set_at = f"{off}[mask]" if self.has_mask else off
        self.out(f"{exists}[{set_at}] = True")
        self.out(
            f"state[{op.state!r}] = "
            f"{{'exists': {exists}, 'rows': {probe_rows}}}"
        )

    def op_exists_bitmap_probe(self, op: ExistsBitmapProbe) -> None:
        bit = self.name("bit")
        self.out(
            f"{bit} = state[{op.state!r}]['exists'][lo:lo + n]"
        )
        self.narrow(f"~{bit}" if op.anti else bit)

    def op_multi_bitmap_build(self, op: MultiBitmapBuild) -> None:
        masks = ", ".join(
            _bool(self.expr(bp, "v")) for bp in op.disjuncts
        )
        self.out(
            f"state[{op.state!r}] = {{'masks': [{masks}], 'rows': n}}"
        )

    def op_disjunct_index_probe(self, op: DisjunctIndexProbe) -> None:
        build_cols = sorted(
            set().union(*(bp.columns() for bp, _ in op.disjuncts))
        )
        build_data = self.db.data(op.state)
        table = self.env.bind(
            "_T", {c: build_data[c] for c in build_cols}
        )
        off = self.fk_offsets_slice(op.fk_column)
        rows = self.name("brows")
        items = ", ".join(f"{c!r}: {table}[{c!r}][{off}]" for c in build_cols)
        self.out(f"{rows} = {{{items}}}")
        arms = " | ".join(
            f"({_bool(self.expr(bp, rows))}"
            f" & {_bool(self.expr(pp, 'v'))})"
            for bp, pp in op.disjuncts
        )
        self.narrow(f"({arms})")

    def op_disjunct_bitmap_probe(self, op: DisjunctBitmapProbe) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        bitmaps = self.name("bitmaps")
        self.out(f"{bitmaps} = state[{op.state!r}]['masks']")
        arms = " | ".join(
            f"({bitmaps}[{i}][{off}]"
            f" & {_bool(self.expr(pp, 'v'))})"
            for i, (_, pp) in enumerate(op.disjuncts)
        )
        self.narrow(f"({arms})")

    def op_outer_groupjoin_agg(self, op: OuterGroupJoinAgg) -> None:
        # All four aggregation modes reduce to "count the selected
        # probe rows per FK value": key masking sends unselected rows
        # to the throwaway entry and value masking adds zero deltas,
        # and the distribution tail folds absent and zero-count keys
        # into the same bucket either way.
        build_rows = self.db.table(op.build_table).num_rows
        uk, cnt = self.name("uk"), self.name("cnt")
        fks = self.selected(f"v[{op.fk_column!r}]")
        self.out(
            f"{uk}, {cnt} = _count_by({fks}.astype(np.int64))"
        )
        self.out(
            f"state[{op.state!r}] = {{'keys': {uk}, 'counts': {cnt}, "
            f"'rows': {build_rows}}}"
        )

    def op_group_distribution(self, op: GroupDistribution) -> None:
        built = self.name("built")
        self.out(f"{built} = state[{op.state!r}]")
        self.out(
            f"result = _distribution({built}['counts'], "
            f"{built}['rows'] - {built}['keys'].shape[0])"
        )
        self.has_result = True

    def op_groupjoin_agg(self, op: GroupJoinAgg) -> None:
        base_cols = [
            c
            for c in sorted(
                set().union(
                    *(
                        a.expr.columns()
                        for a in op.aggregates
                        if a.expr is not None
                    ),
                    frozenset(),
                )
            )
            if c in self.view_cols
        ]
        hit = self.member(op)
        smask, keys, sub = (
            self.name("smask"),
            self.name("keys"),
            self.name("sub"),
        )
        self.out(
            f"{smask} = mask & {hit}" if self.has_mask else f"{smask} = {hit}"
        )
        self.out(f"{keys} = v[{op.fk_column!r}][{smask}].astype(np.int64)")
        items = ", ".join(f"{c!r}: v[{c!r}][{smask}]" for c in base_cols)
        self.out(f"{sub} = {{{items}}}")
        deltas = ", ".join(self.agg_delta(agg, sub) for agg in op.aggregates)
        self.out(f"result = _group({keys}, [{deltas}])")
        self.has_result = True

    def _subset_inputs(self, cols: List[str]) -> str:
        """``sub`` dict of selected base columns plus selected carried
        values (the conditional/gathered aggregation input)."""
        sub = self.name("sub")
        items = ", ".join(
            f"{c!r}: {self.selected(f'v[{c!r}]')}" for c in cols
        )
        self.out(f"{sub} = {{{items}}}")
        if self.has_mask:
            self.out(f"for _nm, _vv in carried.items(): {sub}[_nm] = _vv[mask]")
        else:
            self.out(f"for _nm, _vv in carried.items(): {sub}[_nm] = _vv")
        return sub

    def op_scalar_agg(self, op: ScalarAgg) -> None:
        base_cols = [
            c
            for c in sorted(
                set().union(
                    *(
                        a.expr.columns()
                        for a in op.aggregates
                        if a.expr is not None
                    ),
                    frozenset(),
                )
            )
            if c in self.view_cols
        ]
        self.out("result = {}")
        if op.mode == PS.VALUE_MASK:
            # §III-A: evaluate over the whole column, mask the deltas.
            # A where-reduction skips the unmasked rows without ever
            # materialising a 0/1 multiplier column; int64 addition is
            # commutative mod 2**64, so the answer is still exact.
            for agg in op.aggregates:
                if agg.func == "count":
                    count = "int(mask.sum())" if self.has_mask else "n"
                    self.out(f"result[{agg.name!r}] = {count}")
                    continue
                src = self.expr(agg.expr, "v")
                values = f"np.asarray({src}, dtype=np.int64)"
                total = f"np.sum({values}, dtype=np.int64)"
                if self.has_mask:
                    total = (
                        f"np.sum({values}, dtype=np.int64, "
                        "where=mask, initial=np.int64(0))"
                    )
                self.out(f"result[{agg.name!r}] = int({total})")
        elif op.mode in (PS.CONDITIONAL, PS.GATHERED):
            sub = self._subset_inputs(base_cols)
            for agg in op.aggregates:
                if agg.func == "count":
                    count = "int(mask.sum())" if self.has_mask else "n"
                    self.out(f"result[{agg.name!r}] = {count}")
                    continue
                self.out(
                    f"result[{agg.name!r}] = int(np.sum("
                    f"{self.agg_delta(agg, sub)}, dtype=np.int64))"
                )
        else:
            raise VectorizeError(
                f"unknown scalar aggregation mode {op.mode!r}"
            )
        self.has_result = True

    def op_group_agg(self, op: GroupAgg) -> None:
        base_cols = [
            c
            for c in sorted(
                set().union(
                    *(
                        a.expr.columns()
                        for a in op.aggregates
                        if a.expr is not None
                    ),
                    frozenset(),
                )
            )
            if c in self.view_cols
        ]
        if op.mode in (PS.KEY_MASK, PS.VALUE_MASK):
            # Masked modes evaluate keys and deltas over the whole
            # column (matching the instrumented error semantics), then
            # drop the masked rows: key masking blends them into the
            # throwaway entry (removed from the result) and value
            # masking zeroes their deltas and drops never-hit groups —
            # both equal to grouping only the selected rows.
            keys = self.name("keys")
            key_src = self.expr(op.key, "v")
            self.out(f"{keys} = np.asarray({key_src}, dtype=np.int64)")
            deltas = self.group_deltas(op.aggregates, "v")
            if self.has_mask:
                # The runtime folds the mask into the grouping itself
                # (sentinel bucket) — no per-delta subset copies.
                self.out(f"result = _group({keys}, [{deltas}], mask)")
            else:
                self.out(f"result = _group({keys}, [{deltas}])")
        elif op.mode in (PS.CONDITIONAL, PS.GATHERED):
            cols = sorted(
                (set(op.key.columns()) & self.view_cols) | set(base_cols)
            )
            sub = self._subset_inputs(cols)
            keys = self.name("keys")
            key_src = self.expr(op.key, sub)
            self.out(f"{keys} = np.asarray({key_src}, dtype=np.int64)")
            deltas = ", ".join(
                self.agg_delta(agg, sub) for agg in op.aggregates
            )
            self.out(f"result = _group({keys}, [{deltas}])")
        else:
            raise VectorizeError(
                f"unknown grouped aggregation mode {op.mode!r}"
            )
        self.has_result = True

    def op_eager_aggregate(self, op: EagerAggregate) -> None:
        # §III-E vectorized: group the probe rows that pass the main
        # predicate by FK (unselected rows belong to the throwaway
        # entry, i.e. are dropped), then delete the keys whose build
        # row fails the build predicate. The victim set is static per
        # database, so it is computed here at compile time; the
        # deletion itself runs as the program's finalize step so morsel
        # partials stay mergeable (filter once, after the merge).
        query = op.query
        join = query.join
        if query.table != self.pipe.table:
            raise VectorizeError(
                "eager aggregation pipeline scans an unexpected table"
            )
        build_data = self.db.data(join.build_table)
        build_conjs = conjuncts(join.build_predicate)
        if build_conjs:
            keep = np.ones(
                int(next(iter(build_data.values())).shape[0]), dtype=bool
            )
            for conj in build_conjs:
                keep = keep & np.asarray(conj.evaluate(build_data), bool)
            victims = build_data[join.pk_column][~keep].astype(np.int64)
        else:
            victims = np.empty(0, dtype=np.int64)

        def cleanup(merged: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            keep_keys = ~np.isin(merged["keys"], victims)
            return {
                "keys": merged["keys"][keep_keys],
                "aggs": merged["aggs"][keep_keys],
            }

        self.finalize = cleanup
        for conj in query.predicate_conjuncts():
            self.narrow(_bool(self.expr(conj, "v")))
        keys = self.name("keys")
        self.out(f"{keys} = v[{join.fk_column!r}].astype(np.int64)")
        deltas = self.group_deltas(query.aggregates, "v")
        if self.has_mask:
            self.out(f"result = _group({keys}, [{deltas}], mask)")
        else:
            self.out(f"result = _group({keys}, [{deltas}])")
        self.has_result = True

    # -- assembly --------------------------------------------------------

    def emit(self, fn_name: str) -> str:
        for op in self.pipe.ops:
            self.emit_op(op)
        header = [
            f"def {fn_name}(v, state, lo):",
            f"    # pipeline {self.pipe.label!r} over {self.pipe.table}",
            "    n = _rows(v)",
            "    carried = {}",
        ]
        footer = ["    return result" if self.has_result else "    return None"]
        return "\n".join(header + self.lines + footer)


_HANDLERS = {
    FilterStage: _KernelEmitter.op_filter,
    SemiHashBuild: _KernelEmitter.op_semihash_build,
    JoinBuild: _KernelEmitter.op_join_build,
    GroupBuild: _KernelEmitter.op_group_build,
    BitmapBuild: _KernelEmitter.op_bitmap_build,
    MultiBitmapBuild: _KernelEmitter.op_multi_bitmap_build,
    ExistsBitmapBuild: _KernelEmitter.op_exists_bitmap_build,
    HashSemiProbe: _KernelEmitter.op_hash_semi_probe,
    HashJoinCarryProbe: _KernelEmitter.op_hash_join_carry_probe,
    BitmapSemiProbe: _KernelEmitter.op_bitmap_semi_probe,
    ExistsBitmapProbe: _KernelEmitter.op_exists_bitmap_probe,
    CarriedGather: _KernelEmitter.op_carried_gather,
    DisjunctIndexProbe: _KernelEmitter.op_disjunct_index_probe,
    DisjunctBitmapProbe: _KernelEmitter.op_disjunct_bitmap_probe,
    ColumnMaterialize: _KernelEmitter.op_column_materialize,
    IndexGather: _KernelEmitter.op_index_gather,
    GroupJoinAgg: _KernelEmitter.op_groupjoin_agg,
    OuterGroupJoinAgg: _KernelEmitter.op_outer_groupjoin_agg,
    GroupDistribution: _KernelEmitter.op_group_distribution,
    ScalarAgg: _KernelEmitter.op_scalar_agg,
    GroupAgg: _KernelEmitter.op_group_agg,
    EagerAggregate: _KernelEmitter.op_eager_aggregate,
}


def compile_physical(
    physical: PhysicalPlan, db: Database, name: str = "query"
) -> VectorizedProgram:
    """Generate, ``exec``, and wrap one kernel per pipeline."""
    env = _Env()
    sources: List[str] = [
        f"# vectorized kernels for {name} [{physical.strategy}]",
    ]
    fn_names: List[str] = []
    finalize = None
    for idx, pipe in enumerate(physical.pipelines):
        fn_name = f"_kernel_{idx}"
        emitter = _KernelEmitter(pipe, db, env)
        sources.append(emitter.emit(fn_name))
        fn_names.append(fn_name)
        if emitter.finalize is not None:
            finalize = emitter.finalize
    source = "\n\n".join(sources) + "\n"
    code = compile(source, f"<vectorized:{name}>", "exec")
    namespace = env.bindings
    exec(code, namespace)  # noqa: S102 - the source is generated above
    kernels = [
        (pipe, namespace[fn_name])
        for pipe, fn_name in zip(physical.pipelines, fn_names)
    ]
    # Serve each kernel the scan view its pipeline was planned for:
    # columns the access-encoding pass chose stream as physical codes
    # (narrow dtypes), everything else decoded. The kernels are value
    # safe over codes — keys and aggregate deltas cast through int64
    # and comparisons promote — so output stays byte-identical.
    data = [
        db.scan_view(pipe.table, pipe.encodings)
        for pipe in physical.pipelines
    ]
    return VectorizedProgram(kernels, data, source, finalize=finalize)


__all__ = ["VectorizeError", "compile_expr", "compile_physical"]
