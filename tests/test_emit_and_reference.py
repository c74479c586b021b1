"""Tests for the program shapes the compiler emits per strategy and
technique, and for the reference engine.

A compiled program's ``source`` on the instrumented backend is its
physical plan: one line per operator, tagged with the access pattern
the strategy or technique lowers it to.
"""

import numpy as np
import pytest

from repro.bench.microbench import compile_forced, swole_decisions
from repro.codegen.pipeline import compile_pipeline
from repro.core import planner as P
from repro.datagen import microbench as mb
from repro.engine import ExecutionKnobs, Session, reference
from repro.engine.events import RandomAccess
from repro.engine.machine import PAPER_MACHINE
from repro.engine.program import results_equal
from repro.plan import passes as PS
from repro.plan.expressions import Col, Const
from repro.plan.logical import AggSpec, Query
from repro.plan.ops import from_query


def emitted(query, db, strategy):
    return compile_pipeline(from_query(query), db, strategy).source


class TestEmitters:
    def test_datacentric_shape(self, micro_db):
        source = emitted(mb.q1(13), micro_db, "datacentric")
        assert "Filter[branch] r_x[i] < 13 AND r_y[i] == 1" in source
        assert "ScalarAgg[conditional] [sum=sum((r_a[i] * r_b[i]))]" in source

    def test_hybrid_has_three_inner_loops(self, micro_db):
        # prepass (cmp[j]), selection vector (idx[k]), gathered agg
        source = emitted(mb.q1(13), micro_db, "hybrid")
        assert "Filter[prepass]" in source
        assert "ScalarAgg[gathered]" in source

    def test_value_masking_multiplies_by_cmp(self, micro_db):
        source = compile_forced(
            mb.q1(13), micro_db, agg_mode=PS.VALUE_MASK
        ).source
        assert "Filter[prepass]" in source
        assert "ScalarAgg[value_mask]" in source

    def test_access_merging_uses_tmp(self, micro_db):
        source = compile_forced(
            mb.q3(13, "r_x"), micro_db, agg_mode=PS.VALUE_MASK
        ).source
        assert "merged reads: ['r_x']" in source

    def test_key_masking_masks_key_and_drops_throwaway(self, micro_db):
        source = compile_forced(
            mb.q2(13), micro_db, agg_mode=PS.KEY_MASK
        ).source
        assert "GroupAgg[key_mask] key[r_c]" in source

    def test_bitmap_semijoin_modes(self, micro_db):
        query = mb.q4(10, 20)
        _, decisions = swole_decisions(query, micro_db, PAPER_MACHINE)
        for mode, tag in (
            (P.BITMAP_MASK, "BitmapBuild[mask]"),
            (P.BITMAP_OFFSETS, "BitmapBuild[offsets]"),
        ):
            modes = {join: mode for join in decisions.join_modes}
            source = compile_forced(
                query, micro_db, join_modes=modes
            ).source
            assert tag in source
            assert "BitmapSemiProbe r_fk via fkindex" in source

    def test_eager_aggregation_inverts_predicate(self, micro_db):
        source = compile_forced(
            mb.q5(13), micro_db, groupjoin_mode=P.EAGER
        ).source
        assert "EagerAggregate key=r_fk (cleanup scan over S)" in source

    def test_build_prefix_covers_join(self, micro_db):
        source = emitted(mb.q4(10, 20), micro_db, "datacentric")
        assert "pipeline 'build S' over S" in source
        assert "SemiHashBuild[branch] keys=s_pk" in source
        assert "HashSemiProbe[branch] r_fk" in source

    def test_interpreter_mentions_iterators(self, micro_db):
        source = emitted(mb.q5(13), micro_db, "interpreter")
        assert "Volcano per-tuple dispatch" in source


class TestReferenceEngine:
    def test_scalar_no_predicate(self, micro_db):
        query = Query(
            table="R", aggregates=(AggSpec("sum", Col("r_a"), name="s"),)
        )
        out = reference.evaluate(query, micro_db)
        assert out["s"] == int(
            micro_db.table("R")["r_a"].astype(np.int64).sum()
        )

    def test_empty_selection(self, micro_db):
        query = Query(
            table="R",
            predicate=Col("r_x") < Const(0),
            aggregates=(
                AggSpec("sum", Col("r_a"), name="s"),
                AggSpec("count", name="n"),
            ),
        )
        out = reference.evaluate(query, micro_db)
        assert out == {"s": 0, "n": 0}

    def test_grouped_keys_sorted(self, micro_db):
        out = reference.evaluate(mb.q2(60), micro_db)
        assert (np.diff(out["keys"]) > 0).all()

    def test_semijoin_filters_by_valid_keys(self, micro_db):
        everything = reference.evaluate(mb.q4(100, 100), micro_db)
        filtered = reference.evaluate(mb.q4(100, 10), micro_db)
        assert filtered["sum"] <= everything["sum"]


class TestRofStrategy:
    """ROF's staging-point prefetching (paper §II-A3) is the
    ``ht_prefetch`` execution knob: hash-table accesses are priced as
    software-prefetched, hiding part of their latency."""

    @staticmethod
    def run_hybrid(query, db, session):
        compiled = compile_pipeline(from_query(query), db, "hybrid")
        return compiled.run(session)

    @staticmethod
    def prefetching(**kwargs):
        return Session(knobs=ExecutionKnobs(ht_prefetch=True), **kwargs)

    def test_prefetch_marked_on_hash_accesses(self, micro_db):
        result = self.run_hybrid(mb.q2(50), micro_db, self.prefetching())
        ht_events = [
            e
            for _, e, _ in result.report.events
            if isinstance(e, RandomAccess) and e.kind.startswith("ht_")
        ]
        assert ht_events and all(e.prefetched for e in ht_events)

    def test_prefetch_flag_restored_after_run(self, micro_db):
        session = Session()
        self.run_hybrid(mb.q2(50), micro_db, session)
        assert session.ht_prefetch is False
        prefetching = self.prefetching()
        self.run_hybrid(mb.q2(50), micro_db, prefetching)
        assert prefetching.ht_prefetch is True

    def test_rof_cheaper_than_hybrid_on_hash_heavy_query(self):
        config = mb.MicrobenchConfig(
            num_rows=100_000, s_rows=1_000, c_cardinality=30_000
        )
        db = mb.generate(config)
        from repro.bench.microbench import scaled_machine

        machine = scaled_machine(config)
        hybrid = self.run_hybrid(mb.q2(80), db, Session(machine=machine))
        rof = self.run_hybrid(
            mb.q2(80), db, self.prefetching(machine=machine)
        )
        assert rof.cycles < hybrid.cycles  # prefetching hides ht latency

    def test_rof_same_answers(self, micro_db):
        for query in (mb.q1(40), mb.q4(40, 60), mb.q5(40)):
            a = self.run_hybrid(query, micro_db, Session())
            b = self.run_hybrid(query, micro_db, self.prefetching())
            assert results_equal(a, b)


class TestBenchCli:
    def test_fig2_runs(self, capsys):
        from repro.bench.__main__ import run_figure

        run_figure("fig2", rows=1000, sf=0.002)
        out = capsys.readouterr().out
        assert "Value Masking" in out

    def test_unknown_figure_rejected(self):
        from repro.bench.__main__ import run_figure

        with pytest.raises(SystemExit):
            run_figure("fig99", rows=1000, sf=0.002)


class TestTpchReport:
    def test_report_table_and_row_lookup(self, tpch_db, tpch_config):
        from repro.bench.tpch import run_fig6

        report = run_fig6(tpch_config, queries=("Q1", "Q6"), db=tpch_db)
        text = report.format_table()
        assert "Q1" in text and "Q6" in text and "sw/hy" in text
        assert report.row("Q1").swole_speedup > 0
        with pytest.raises(KeyError):
            report.row("Q2")
