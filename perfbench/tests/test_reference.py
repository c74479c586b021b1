"""The answer reference, pinned against the repo's hand-coded oracles."""

import random

import pytest

import reference
import templates
from repro.datagen import tpch as tpchgen
from repro.plan.ops import plan_fingerprint
from repro.tpch import plans as repo_plans
from repro.tpch.base import reference_result


@pytest.fixture(scope="module")
def db():
    return tpchgen.generate(tpchgen.TpchConfig(scale_factor=0.01))


@pytest.fixture(scope="module")
def tables(db):
    return reference.Tables.from_database(db)


def _wire(value):
    return {
        k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in value.items()
    }


@pytest.mark.parametrize("template", sorted(templates.FIXED))
def test_fixed_parameters_match_the_hand_coded_oracle(db, tables, template):
    expected = _wire(reference_result(template, db))
    assert reference.evaluate(tables, template, templates.FIXED[template]) == expected


@pytest.mark.parametrize("template", sorted(templates.FIXED))
def test_fixed_templates_are_the_repo_plans(template):
    built = templates.PLANS[template](templates.FIXED[template])
    assert plan_fingerprint(built) == plan_fingerprint(
        repo_plans.logical_plan(template)
    )


def test_reference_imports_no_compiler_or_engine_module():
    source = open(reference.__file__).read()
    for banned in ("repro", "templates"):
        assert f"import {banned}" not in source
        assert f"from {banned}" not in source


def test_adhoc_answers_match_the_engine(db, tables):
    from repro import Engine

    engine = Engine(db, backend="vectorized")
    rng = random.Random(3)
    try:
        for i in range(25):
            template = templates.ADHOC_TEMPLATES[i % len(templates.ADHOC_TEMPLATES)]
            params = templates.draw_adhoc(template, rng)
            got = _wire(engine.execute(templates.PLANS[template](params)).value)
            assert got == reference.evaluate(tables, template, params), (
                template, params,
            )
    finally:
        engine.shutdown()
