"""The ad-hoc generator keeps the property its workload exists for."""

import json
import random

import pytest

import reference
import templates
from repro.datagen import tpch as tpchgen
from repro.engine.plan_cache import PlanCache
from workloads import WORKLOADS, PreparedStream, RequestStream


def test_distinct_fingerprints_exceed_the_plan_cache():
    stream = PreparedStream(RequestStream(WORKLOADS["adhoc_compile"], 7, "x"), 0)
    fingerprints = set()
    n = 500
    for _ in range(n):
        _, _, _, line = stream()
        fingerprints.add(json.loads(line)["query"]["fingerprint"])
    assert len(fingerprints) == n
    assert len(fingerprints) > 4 * PlanCache().capacity


def test_same_seed_same_stream_other_seed_other_stream():
    def lines(seed):
        stream = PreparedStream(
            RequestStream(WORKLOADS["adhoc_compile"], seed, "x"), 0
        )
        return [stream()[3] for _ in range(20)]

    assert lines(1) == lines(1)
    assert lines(1) != lines(2)


def test_fixed_workloads_send_each_template_once_per_block():
    workload = WORKLOADS["tpch_power"]
    stream = PreparedStream(RequestStream(workload, 5, "x"), 0)
    drawn = [stream()[1] for _ in range(3 * len(workload.templates))]
    for block in range(3):
        chunk = drawn[block * 8:(block + 1) * 8]
        assert sorted(chunk) == sorted(workload.templates)


@pytest.fixture(scope="module")
def tables():
    db = tpchgen.generate(tpchgen.TpchConfig(scale_factor=0.01))
    return reference.Tables.from_database(db)


def test_adhoc_answers_are_non_empty_at_sf_001(tables):
    rng = random.Random(11)
    for i in range(1000):
        template = templates.ADHOC_TEMPLATES[i % len(templates.ADHOC_TEMPLATES)]
        params = templates.draw_adhoc(template, rng)
        answer = reference.evaluate(tables, template, params)
        assert not reference.is_empty(answer), (template, params)


def test_long_runs_never_exhaust_or_repeat_within_the_window():
    stream = RequestStream(WORKLOADS["adhoc_compile"], 9, "x")
    window = RequestStream.FRESH_WINDOW
    draws = {}
    # Q1 has the smallest space (2161 cutoff days); go past one window.
    for _ in range(len(templates.ADHOC_TEMPLATES) * (window + 200)):
        template, key, _ = stream.draw()
        draws.setdefault(template, []).append(
            json.dumps(stream.params[key], sort_keys=True)
        )
    for template, idents in draws.items():
        for i in range(len(idents)):
            assert idents[i] not in idents[max(0, i - window):i], template
