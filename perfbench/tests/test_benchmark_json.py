"""BENCHMARK.json names exactly what the benchmark reports."""

import json
from pathlib import Path

import layers
from workloads import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()
    }


def test_end_to_end_metrics_match():
    import runner

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
