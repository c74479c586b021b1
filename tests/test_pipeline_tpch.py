"""The staged lowering pipeline on the paper's TPC-H queries.

Every TPC-H query compiles from its logical operator tree through the
strategy pass framework. The central invariant: for every query and
every strategy, the compiled program answers *byte-identically* to the
plain-NumPy reference, at a simulated cost within a band of the cycles
the hand-coded strategy programs measured before the pipeline replaced
them (frozen in ``tests/data/oracle_cycles.json`` at SF 0.002).
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.microbench import swole_decisions, technique_labels
from repro.codegen.pipeline import compile_pipeline
from repro.core.planner import plan_query
from repro.datagen import microbench as mb
from repro.engine import Engine, ExecutionKnobs, Session, reference
from repro.engine.program import results_equal
from repro.plan.ops import from_query, plan_fingerprint
from repro.tpch import (
    PIPELINE_QUERIES,
    STRATEGIES,
    logical_plan,
    plans,
    reference_result,
)
from repro.tpch.base import QUERY_MODULES

#: The generic compiler must land within this cost band of the oracle —
#: wide enough for bookkeeping differences (selection-vector charging,
#: merged prepass masks), tight enough to catch a lost technique.
COST_BAND = (0.70, 1.30)

#: Simulated cycles of the hand-coded strategy programs (decoded
#: scans, fresh Session, the paper machine) on the SF 0.002 ``tpch_db``
#: fixture: query -> strategy -> cycles.
ORACLE_CYCLES = json.loads(
    (Path(__file__).parent / "data" / "oracle_cycles.json").read_text()
)


def _compile(name, strategy, db, **kwargs):
    return compile_pipeline(logical_plan(name), db, strategy, **kwargs)


def _assert_byte_identical(value, expected, cell):
    assert set(value) == set(expected), cell
    for key, want in expected.items():
        got = value[key]
        if isinstance(want, np.ndarray):
            got = np.asarray(got)
            assert got.dtype == want.dtype, (cell, key, got.dtype)
            assert got.shape == want.shape, (cell, key)
            assert got.tobytes() == want.tobytes(), (cell, key)
        else:
            assert type(got) is type(want) and got == want, (cell, key)


@pytest.mark.parametrize("name", PIPELINE_QUERIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
class TestPipelineVsOracle:
    def test_results_byte_identical(self, tpch_db, name, strategy):
        pipe = _compile(name, strategy, tpch_db).run(Session())
        _assert_byte_identical(
            pipe.value, reference_result(name, tpch_db), (name, strategy)
        )

    def test_results_match_reference(self, tpch_db, name, strategy):
        expected = reference_result(name, tpch_db)
        result = _compile(name, strategy, tpch_db).run(Session())
        assert set(result.value) == set(expected)
        for key in expected:
            lhs, rhs = expected[key], result.value[key]
            if isinstance(lhs, np.ndarray):
                assert np.array_equal(lhs, np.asarray(rhs)), (
                    name,
                    strategy,
                    key,
                )
            else:
                assert lhs == rhs, (name, strategy, key)

    def test_cost_within_band_of_oracle(self, tpch_db, name, strategy):
        # The oracles always read decoded values, so the band compares
        # like with like: encoding off. The compressed access path's
        # cycle advantage is pinned separately below.
        pipe = _compile(
            name, strategy, tpch_db, encoding="off"
        ).run(Session())
        ratio = pipe.cycles / ORACLE_CYCLES[name][strategy]
        assert COST_BAND[0] <= ratio <= COST_BAND[1], (
            name,
            strategy,
            ratio,
        )

    def test_encoded_no_costlier_than_decoded(self, tpch_db, name, strategy):
        # Streaming codes instead of 8-byte values must answer
        # byte-identically and stay within 1% of the decoded cycles:
        # on compute-bound kernels the overlap model already hides the
        # streams under arithmetic, so narrowing them saves nothing and
        # the late-materialization decode is the only marginal term.
        # Access-bound kernels (Q6 swole) win outright — pinned by the
        # compression bench.
        encoded = _compile(name, strategy, tpch_db).run(Session())
        decoded = _compile(
            name, strategy, tpch_db, encoding="off"
        ).run(Session())
        assert results_equal(encoded, decoded), (name, strategy)
        assert encoded.cycles <= decoded.cycles * 1.01, (
            name,
            strategy,
            encoded.cycles / decoded.cycles,
        )

    def test_access_bound_scan_wins_encoded(self, tpch_db, name, strategy):
        # The headline SWOLE result: on the scan-dominated Q6 the
        # compressed access path must beat the decoded one outright.
        if name != "Q6" or strategy != "swole":
            pytest.skip("access-bound headline cell only")
        encoded = _compile(name, strategy, tpch_db).run(Session())
        decoded = _compile(
            name, strategy, tpch_db, encoding="off"
        ).run(Session())
        assert encoded.cycles < decoded.cycles * 0.85, (
            encoded.cycles / decoded.cycles
        )


class TestGroupedOrdering:
    @pytest.mark.parametrize("name", ("Q1", "Q3"))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_grouped_keys_ascending(self, tpch_db, name, strategy):
        result = _compile(name, strategy, tpch_db).run(Session())
        keys = np.asarray(result.value["keys"])
        assert np.all(keys[:-1] < keys[1:]), (name, strategy)

    def test_q1_count_column_last(self, tpch_db):
        result = _compile("Q1", "swole", tpch_db).run(Session())
        counts = result.value["aggs"][:, 5]
        shipdate = tpch_db.table("lineitem")["l_shipdate"]
        assert int(counts.sum()) == int((shipdate <= 10471).sum())


class TestCompileRouting:
    def test_pipeline_queries_carry_ir_notes(self, tpch_db):
        for name in PIPELINE_QUERIES:
            compiled = _compile(name, "swole", tpch_db)
            assert compiled.notes["fingerprint"].startswith("ir:")
            assert "explain" in compiled.notes

    def test_no_hand_coded_program_on_execution_path(
        self, tpch_db, micro_db
    ):
        # The engine has one compiler: TPC-H trees and legacy
        # microbench queries alike come out of the staged pipeline, on
        # both backends.
        for backend in ("instrumented", "vectorized"):
            with Engine(db=tpch_db, backend=backend) as engine:
                for name in ("Q4", "Q5", "Q13", "Q19"):
                    compiled = engine.compile(logical_plan(name), "swole")
                    assert compiled.notes["fingerprint"].startswith("ir:")
            with Engine(db=micro_db, backend=backend) as engine:
                for strategy in STRATEGIES:
                    compiled = engine.compile(mb.q4(50, 50), strategy)
                    assert "explain" in compiled.notes

    def test_oracle_stays_hand_coded(self):
        # The answer oracle is plain NumPy written against the columns:
        # it shares no code with the compiler it checks.
        compiler = ("repro.codegen", "repro.plan", "repro.engine")
        for name in ("Q1", "Q4", "Q13"):
            module = QUERY_MODULES[name]
            origins = {
                getattr(value, "__module__", None)
                or getattr(value, "__name__", "")
                for value in vars(module).values()
            }
            assert not [o for o in origins if o.startswith(compiler)]

    def test_fingerprint_matches_plan(self, tpch_db):
        compiled = _compile("Q6", "hybrid", tpch_db)
        assert compiled.notes["fingerprint"] == plan_fingerprint(
            logical_plan("Q6")
        )


class TestExplain:
    def test_explain_shows_all_three_stages(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q3"), "swole")
        assert "== Logical plan ==" in text
        assert "== Passes ==" in text
        assert "== Physical plan ==" in text
        engine.shutdown()

    def test_explain_shows_cost_estimates(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q3"), "swole")
        assert "est cycles" in text
        assert "bitmap" in text
        engine.shutdown()

    def test_explain_decisions_line(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q1"), "swole")
        assert "decisions:" in text
        # The §III-B pass weighs hybrid vs key masking vs value masking
        # and prints all three estimates before its pick.
        assert "key_masking=" in text
        assert "value_masking=" in text
        assert "aggregation=value_mask" in text
        engine.shutdown()

    @pytest.mark.parametrize("name", ("Q4", "Q5", "Q13", "Q19"))
    def test_explain_renders_three_stages_for_new_queries(
        self, tpch_db, name
    ):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan(name), "swole")
        assert "== Logical plan ==" in text
        assert "== Passes ==" in text
        assert "== Physical plan ==" in text
        engine.shutdown()

    def test_explain_accepts_logical_plans(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q6"), "datacentric")
        assert "== Physical plan ==" in text
        assert "Filter[branch]" in text
        engine.shutdown()


class TestEngineIntegration:
    def test_pipeline_queries_cache_by_ir(self, tpch_db):
        engine = Engine(db=tpch_db)
        # Two separately built copies of one tree: same fingerprint ->
        # same cache slot.
        by_lookup = engine.compile(logical_plan("Q6"), "swole")
        by_builder = engine.compile(plans.q6_plan(), "swole")
        assert by_lookup is by_builder
        engine.shutdown()

    def test_parallel_run_matches_serial(self, tpch_db):
        # morsel_rows pinned: below the vectorized fan-out floor the
        # default policy would (correctly) keep this scan serial.
        engine = Engine(
            db=tpch_db,
            workers=4,
            knobs=ExecutionKnobs(morsel_rows=2048),
        )
        for name in ("Q1", "Q6"):
            plan = logical_plan(name)
            serial = engine.execute(plan, "swole", workers=1)
            parallel = engine.execute(plan, "swole", workers=4)
            assert parallel.metrics.workers == 4
            assert results_equal(serial, parallel), name
        engine.shutdown()


class TestMicroQueriesThroughPipeline:
    """from_query lifts legacy microbench queries onto the operator
    tree; the pipeline must agree with the independent reference
    evaluator and with the SWOLE planner there too."""

    @pytest.mark.parametrize(
        "query", [mb.q1(30), mb.q2(30), mb.q4(50, 50)], ids=["q1", "q2", "q4"]
    )
    @pytest.mark.parametrize("strategy", ("datacentric", "hybrid"))
    def test_matches_codegen(self, micro_db, query, strategy):
        pipe = compile_pipeline(from_query(query), micro_db, strategy)
        expected = reference.evaluate(query, micro_db)
        result = pipe.run(Session()).value
        assert set(result) == set(expected)
        for key, want in expected.items():
            assert np.array_equal(np.asarray(result[key]), want), key

    @pytest.mark.parametrize(
        "query", [mb.q1(30), mb.q2(30), mb.q4(50, 50)], ids=["q1", "q2", "q4"]
    )
    def test_matches_swole_planner(self, micro_db, query):
        # The passes call the planner's choose_* helpers, so the
        # pipeline picks exactly the techniques plan_query picks.
        machine = repro.PAPER_MACHINE
        _, decisions = swole_decisions(query, micro_db, machine)
        assert technique_labels(decisions) == plan_query(
            query, micro_db, machine
        ).describe()
        pipe = compile_pipeline(from_query(query), micro_db, "swole")
        expected = reference.evaluate(query, micro_db)
        result = pipe.run(Session()).value
        for key, want in expected.items():
            assert np.array_equal(np.asarray(result[key]), want), key


class TestStrategyRegistry:
    def test_available_strategies_typed(self):
        names = repro.available_strategies()
        assert isinstance(names, list)
        assert all(isinstance(n, str) for n in names)
        assert "swole" in names
        assert tuple(names) == STRATEGIES
