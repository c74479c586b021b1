"""The vectorized backend is a drop-in replacement, bit for bit.

The contract of :mod:`repro.codegen.vectorize` is byte-identity: for
every query the engine can run, the generated whole-column NumPy
kernels must return exactly what the instrumented interpreter returns —
same keys, same aggregates, same Python scalar types — under every
strategy, serially and morsel-parallel. These tests pin that contract:

* the full TPC-H pipeline sweep (8 queries x 4 strategies, 32 cells),
  serial and parallel (``morsel_rows`` pinned to defeat the vectorized
  fan-out floor, so the parallel path really executes);
* the Fig. 7/8 microbenchmark queries, including the division variant
  (floor semantics and the divide-by-zero guard);
* the degenerate plan shapes from the pipeline edge-case suite (empty
  anti-join build, all-unmatched outer groupjoin, empty-bitmap
  disjunct);
* the grouping runtime's two internal paths (dense ``np.add.at`` vs
  sorted reduceat) against each other, against int64 wraparound
  semantics, and for the ``count`` sentinel;
* membership: direct-address bitmap lookups against binary search,
  across probe dtypes and int64 extremes;
* common-subexpression reuse in the generated source;
* the engine-level seams: backend-qualified plan-cache keys, the
  recorded effective backend, and the instrumented fallback when
  vectorization fails.
"""

import numpy as np
import pytest

from repro.codegen import npexec
from repro.codegen.pipeline import compile_pipeline
from repro.codegen.vectorize import VectorizeError
from repro.datagen import microbench as mb
from repro.engine import Engine, ExecutionKnobs
from repro.engine.program import results_equal
from repro.plan.builder import PlanBuilder, scan
from repro.plan.expressions import And, Col, Const, DictEq
from repro.plan.logical import AggSpec
from repro.tpch import PIPELINE_QUERIES, STRATEGIES, logical_plan


@pytest.fixture(scope="module")
def tpch_engine(tpch_db):
    # morsel_rows pinned: the vectorized fan-out floor would otherwise
    # run this tiny dataset serially, and the sweep must also cover the
    # morsel-parallel merge path.
    with Engine(
        db=tpch_db, workers=4, knobs=ExecutionKnobs(morsel_rows=1500)
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def micro_engine(micro_db):
    with Engine(
        db=micro_db, workers=4, knobs=ExecutionKnobs(morsel_rows=4096)
    ) as engine:
        yield engine


class TestTpchSweep:
    """All 32 TPC-H query x strategy cells, serial and parallel."""

    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_byte_identical(self, tpch_engine, name, strategy):
        plan = logical_plan(name)
        instrumented = tpch_engine.execute(
            plan, strategy, workers=1, backend="instrumented"
        )
        for workers in (1, 4):
            vectorized = tpch_engine.execute(
                plan, strategy, workers=workers, backend="vectorized"
            )
            assert results_equal(instrumented, vectorized), (
                name,
                strategy,
                workers,
            )


class TestEncodedSweep:
    """Serving code streams must be invisible in the answers: every
    cell, both backends, encoding auto vs off, byte for byte."""

    @pytest.fixture(scope="class")
    def decoded_engine(self, tpch_db):
        with Engine(
            db=tpch_db,
            workers=4,
            encoding="off",
            knobs=ExecutionKnobs(morsel_rows=1500),
        ) as engine:
            yield engine

    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_byte_identical(
        self, tpch_engine, decoded_engine, name, strategy
    ):
        plan = logical_plan(name)
        for backend in ("instrumented", "vectorized"):
            encoded = tpch_engine.execute(
                plan, strategy, workers=1, backend=backend
            )
            decoded = decoded_engine.execute(
                plan, strategy, workers=1, backend=backend
            )
            assert results_equal(encoded, decoded), (
                name,
                strategy,
                backend,
            )


class TestMicrobenchQueries:
    """The Fig. 7/8 queries, including floor division and its guard."""

    @pytest.mark.parametrize(
        "query",
        [mb.q1(30, "mul"), mb.q1(30, "div"), mb.q1(90, "mul"), mb.q2(30)],
        ids=["q1-mul-30", "q1-div-30", "q1-mul-90", "q2-30"],
    )
    @pytest.mark.parametrize("strategy", ("datacentric", "hybrid", "swole"))
    def test_byte_identical(self, micro_engine, query, strategy):
        instrumented = micro_engine.execute(
            query, strategy, workers=1, backend="instrumented"
        )
        for workers in (1, 4):
            vectorized = micro_engine.execute(
                query, strategy, workers=workers, backend="vectorized"
            )
            assert results_equal(instrumented, vectorized), (
                strategy,
                workers,
            )


#: A predicate no row satisfies (all stored columns are non-negative).
IMPOSSIBLE = Col("l_commitdate") < Const(-1)


def _edge_case_plans():
    """The degenerate shapes from the pipeline edge-case suite."""
    empty_anti = (
        PlanBuilder.scan("orders")
        .exists_join(
            scan("lineitem").filter(IMPOSSIBLE),
            pk_column="o_orderkey",
            fk_column="l_orderkey",
            anti=True,
        )
        .group_agg(
            AggSpec("count", None, name="order_count"),
            key="o_orderpriority",
        )
        .build("be-q4-empty-build")
    )
    all_unmatched = (
        PlanBuilder.scan("orders")
        .filter(Col("o_orderdate") < Const(-1))
        .outer_group_join(
            "customer",
            fk_column="o_custkey",
            pk_column="c_custkey",
            count_name="c_count",
        )
        .group_agg(AggSpec("count", None, name="custdist"), key="c_count")
        .build("be-q13-all-unmatched")
    )
    disjuncts = (
        (
            And(
                [
                    DictEq("p_brand", "Brand#12"),
                    And([Col("p_size") >= 1, Col("p_size") <= 5]),
                ]
            ),
            And([Col("l_quantity") >= 1, Col("l_quantity") <= 11]),
        ),
        (
            And([Col("p_size") >= 999]),  # matches no part: empty bitmap
            And([Col("l_quantity") >= 0]),
        ),
    )
    empty_disjunct = (
        PlanBuilder.scan("lineitem")
        .disjunct_join(
            "part",
            fk_column="l_partkey",
            pk_column="p_partkey",
            disjuncts=disjuncts,
        )
        .group_agg(
            AggSpec(
                "sum",
                Col("l_extendedprice") * (Const(100) - Col("l_discount")),
                name="revenue",
            )
        )
        .build("be-q19-empty-disjunct")
    )
    return {
        "empty-anti-build": empty_anti,
        "all-unmatched-outer": all_unmatched,
        "empty-disjunct": empty_disjunct,
    }


class TestEdgeCasePlans:
    """Degenerate plan shapes agree across backends under every
    strategy (empty intermediates stress the kernels' zero-row paths)."""

    @pytest.mark.parametrize("shape", sorted(_edge_case_plans()))
    def test_byte_identical(self, tpch_engine, shape):
        plan = _edge_case_plans()[shape]
        for strategy in STRATEGIES:
            instrumented = tpch_engine.execute(
                plan, strategy, workers=1, backend="instrumented"
            )
            vectorized = tpch_engine.execute(
                plan, strategy, workers=4, backend="vectorized"
            )
            assert results_equal(instrumented, vectorized), (shape, strategy)


class TestGroupingRuntime:
    """The two grouping paths agree with each other and with int64
    wraparound reference sums."""

    def _reference(self, keys, deltas, mask=None):
        if mask is not None:
            keys = keys[mask]
            deltas = [None if d is None else d[mask] for d in deltas]
        uniq = np.unique(keys)
        aggs = np.stack(
            [
                np.array(
                    [
                        (keys == k).sum()
                        if d is None
                        else d[keys == k].sum(dtype=np.int64)
                        for k in uniq
                    ],
                    dtype=np.int64,
                )
                for d in deltas
            ],
            axis=1,
        ) if deltas else np.zeros((uniq.size, 1), dtype=np.int64)
        return {"keys": uniq, "aggs": aggs}

    def _check(self, keys, deltas, mask=None):
        got = npexec.group_sorted(keys, deltas, mask)
        want = self._reference(keys, deltas, mask)
        assert np.array_equal(got["keys"], want["keys"])
        assert got["aggs"].dtype == np.int64
        assert np.array_equal(got["aggs"], want["aggs"])

    def test_dense_keys_take_bincount_path(self, rng):
        keys = rng.integers(0, 100, size=10_000, dtype=np.int64)
        assert npexec._dense_codes(keys) is not None
        deltas = [rng.integers(-1000, 1000, size=keys.size, dtype=np.int64)]
        self._check(keys, deltas)

    def test_sparse_keys_take_sort_path(self, rng):
        keys = rng.integers(0, 2**40, size=1000, dtype=np.int64)
        assert npexec._dense_codes(keys) is None
        deltas = [rng.integers(-1000, 1000, size=keys.size, dtype=np.int64)]
        self._check(keys, deltas)

    @pytest.mark.parametrize("spread", (100, 2**40))
    def test_mask_folds_into_both_paths(self, rng, spread):
        keys = rng.integers(0, spread, size=5000, dtype=np.int64)
        deltas = [
            rng.integers(-(2**40), 2**40, size=keys.size, dtype=np.int64),
            rng.integers(0, 2, size=keys.size, dtype=np.int64),
        ]
        mask = rng.integers(0, 2, size=keys.size, dtype=bool)
        self._check(keys, deltas, mask)

    def test_all_false_mask_yields_empty_groups(self):
        keys = np.arange(100, dtype=np.int64)
        deltas = [np.ones(100, dtype=np.int64)]
        got = npexec.group_sorted(keys, deltas, np.zeros(100, dtype=bool))
        assert got["keys"].size == 0
        assert got["aggs"].shape == (0, 1)

    def test_add_at_path_wraps_like_int64(self):
        # Deltas whose int64 sum overflows: the dense path's np.add.at
        # must wrap mod 2^64 exactly as repeated int64 addition does.
        keys = np.zeros(4, dtype=np.int64)
        assert npexec._dense_codes(keys) is not None
        big = np.int64(2**62)
        deltas = [np.array([big, big, big, big], dtype=np.int64)]
        with np.errstate(over="ignore"):
            expected = np.int64(0)
            for d in deltas[0]:
                expected = expected + d
        got = npexec.group_sorted(keys, deltas)
        assert got["aggs"][0, 0] == expected

    def test_dense_path_has_no_row_cliff(self, rng):
        # Serial scans of more than 2^21 rows stay on the dense path.
        n = (1 << 21) + 1
        keys = rng.integers(-3, 5, size=n, dtype=np.int64)
        assert npexec._dense_codes(keys) is not None
        deltas = [
            rng.integers(-(2**62), 2**62, size=n, dtype=np.int64),
            None,
        ]
        mask = rng.integers(0, 2, size=n, dtype=bool)
        self._check(keys, deltas)
        self._check(keys, deltas, mask)

    @pytest.mark.parametrize("spread", (100, 2**40))
    @pytest.mark.parametrize("masked", (False, True))
    def test_count_sentinel_fills_group_sizes(self, rng, spread, masked):
        keys = rng.integers(0, spread, size=3000, dtype=np.int64)
        assert (npexec._dense_codes(keys) is not None) == (spread == 100)
        deltas = [None, rng.integers(-50, 50, size=keys.size), None]
        mask = (
            rng.integers(0, 2, size=keys.size, dtype=bool) if masked else None
        )
        self._check(keys, deltas, mask)

    @pytest.mark.parametrize("spread", (64, 2**40))
    def test_count_by_matches_unique(self, rng, spread):
        keys = rng.integers(0, spread, size=4000, dtype=np.int64)
        got_keys, got_counts = npexec.count_by(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        assert np.array_equal(got_keys, uniq)
        assert got_counts.dtype == np.int64
        assert np.array_equal(got_counts, counts)


class TestMembership:
    """Direct-address bitmap lookups agree with binary search over the
    sorted unique build keys for every probe value and dtype."""

    I64_MIN = np.iinfo(np.int64).min
    I64_MAX = np.iinfo(np.int64).max

    def _check(self, build, probe):
        built = npexec.key_set(np.asarray(build))
        keys = built["keys"]
        assert keys.dtype == np.int64
        assert np.array_equal(keys, np.unique(np.asarray(build, np.int64)))
        wide = np.asarray(probe).astype(np.int64)
        pos = np.minimum(np.searchsorted(keys, wide), max(keys.size - 1, 0))
        want = (
            keys[pos] == wide if keys.size else np.zeros(wide.size, bool)
        )
        got = npexec.member(np.asarray(probe), built)
        assert got.dtype == bool
        assert np.array_equal(got, want)
        return built

    def test_dense_build_uses_bitmap(self, rng):
        build = rng.integers(1000, 5000, size=2000, dtype=np.int64)
        probe = rng.integers(0, 6000, size=20_000, dtype=np.int64)
        assert self._check(build, probe)["lookup"] is not None

    def test_int64_extremes(self):
        edges = np.array(
            [self.I64_MIN, self.I64_MIN + 1, -1, 0, 1,
             self.I64_MAX - 1, self.I64_MAX],
            dtype=np.int64,
        )
        for build in (
            np.array([self.I64_MIN, self.I64_MIN + 3], dtype=np.int64),
            np.array([self.I64_MAX - 3, self.I64_MAX], dtype=np.int64),
            np.array([-2, 0, 2], dtype=np.int64),
        ):
            assert self._check(build, edges)["lookup"] is not None
            # Narrow probes against extreme bases: the int64 offset
            # wraps, and must still clamp onto the sentinel.
            self._check(build, np.array(
                [-(2**31), -1, 0, 1, 2**31 - 1], dtype=np.int32
            ))

    def test_negative_keys(self, rng):
        build = rng.integers(-70_000, -60_000, size=500, dtype=np.int64)
        probe = rng.integers(-80_000, 80_000, size=10_000, dtype=np.int64)
        assert self._check(build, probe)["lookup"] is not None

    @pytest.mark.parametrize("dtype", (np.int8, np.int16, np.int32))
    def test_narrow_probe_columns(self, rng, dtype):
        info = np.iinfo(dtype)
        # Keys packed near the top of the dtype's range keep the build
        # compact; probes cover both ends of the range.
        low = max(int(info.min), int(info.max) - 60_000)
        build = rng.integers(low, info.max, size=50).astype(dtype)
        probe = np.concatenate((
            np.arange(info.min, info.min + 300),
            np.arange(info.max - 300, info.max + 1),
            rng.integers(info.min, info.max, size=2000),
        )).astype(dtype)
        assert self._check(build, probe)["lookup"] is not None

    def test_empty_build(self):
        built = self._check(
            np.empty(0, dtype=np.int32), np.arange(-5, 5, dtype=np.int32)
        )
        assert built["lookup"] is None

    def test_single_key_build(self):
        for key in (self.I64_MIN, 0, 7, self.I64_MAX):
            probe = np.array(
                [self.I64_MIN, key, 0, 7, self.I64_MAX], dtype=np.int64
            )
            built = self._check(np.array([key], dtype=np.int64), probe)
            assert built["lookup"] is not None

    def test_sparse_build_falls_back_to_search(self, rng):
        build = rng.integers(0, 2**40, size=1000, dtype=np.int64)
        probe = np.concatenate((build[:500], build[:500] + 1))
        assert self._check(build, probe)["lookup"] is None
        # Spread two keys to the int64 extremes: no bitmap either.
        built = self._check(
            np.array([self.I64_MIN, self.I64_MAX], dtype=np.int64),
            np.array([self.I64_MIN, 0, self.I64_MAX], dtype=np.int64),
        )
        assert built["lookup"] is None


class TestGeneratedSource:
    """Shape of the generated kernels."""

    def test_repeated_arithmetic_is_computed_once(self, tpch_db):
        # Q1's charge sum multiplies the disc_price expression by the
        # tax factor: the product is emitted once, as a temporary.
        source = compile_pipeline(
            logical_plan("Q1"), tpch_db, "swole", backend="vectorized"
        ).source
        product = (
            "_i64(v['l_extendedprice']) * "
            "_i64((_i64(np.int64(100)) - _i64(v['l_discount'])))"
        )
        assert source.count(product) == 1

    def test_count_aggregates_build_no_ones_column(self, tpch_db):
        source = compile_pipeline(
            logical_plan("Q1"), tpch_db, "swole", backend="vectorized"
        ).source
        assert "np.ones(" not in source
        assert "None], mask)" in source


class TestEngineSeams:
    """Backend selection is visible and isolated at the engine layer."""

    def test_plan_cache_keys_are_backend_qualified(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            plan = logical_plan("Q6")
            engine.execute(plan, "swole", backend="vectorized")
            misses = engine.cache_stats.misses
            # Same query on the other backend must compile again, not
            # serve the vectorized program from the cache.
            engine.execute(plan, "swole", backend="instrumented")
            assert engine.cache_stats.misses == misses + 1
            engine.execute(plan, "swole", backend="instrumented")
            assert engine.cache_stats.misses == misses + 1  # now cached

    def test_explain_names_the_backend(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            assert "vectorized" in engine.explain(
                logical_plan("Q1"), "swole", backend="vectorized"
            )
            assert "instrumented" in engine.explain(
                logical_plan("Q1"), "swole", backend="instrumented"
            )

    def test_vectorize_failure_falls_back(self, tpch_db, monkeypatch):
        import repro.codegen.pipeline as pipeline_mod

        def boom(*_args, **_kwargs):
            raise VectorizeError("synthetic: op not vectorizable")

        monkeypatch.setattr(pipeline_mod, "compile_physical", boom)
        plan = logical_plan("Q6")
        compiled = compile_pipeline(
            plan, tpch_db, "swole", backend="vectorized"
        )
        assert compiled.notes["backend"] == "instrumented"
        assert "synthetic" in compiled.notes["backend_fallback"]

    def test_unknown_backend_rejected(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            with pytest.raises(Exception, match="backend"):
                engine.execute(logical_plan("Q6"), "swole", backend="simd")
