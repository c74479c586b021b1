"""The arithmetic the report's figures rest on."""

import math

import pytest

import summary


def test_percentile_needs_ten_samples_beyond_it():
    assert summary.samples_needed(0.95) == 200
    assert summary.tail_count(200, 0.95) == 10
    with pytest.raises(ValueError):
        summary.percentile(list(range(199)), 0.95)
    samples = list(range(1, 201))
    # Nearest rank: the 190th smallest of 200, with 10 samples above.
    assert summary.percentile(samples, 0.95) == 190
    assert sum(1 for s in samples if s > 190) == 10


def test_median_needs_ten_samples_beyond_it_too():
    with pytest.raises(ValueError):
        summary.percentile([1.0] * 19, 0.5)
    assert summary.percentile(list(range(20)), 0.5) == 9


def test_geomean_weighs_every_template_alike():
    base = {"Q1": [100.0, 100.0, 100.0], "Q6": [1.0, 1.0, 50.0]}
    g = summary.geomean_of_medians(base)
    assert g == pytest.approx(math.sqrt(100.0 * 1.0))
    # Halving the fast template moves it as much as halving the slow one.
    fast = summary.geomean_of_medians({"Q1": [100.0], "Q6": [0.5]})
    slow = summary.geomean_of_medians({"Q1": [50.0], "Q6": [1.0]})
    assert fast == pytest.approx(slow) == pytest.approx(g / math.sqrt(2))


def test_geomean_uses_medians_not_means():
    assert summary.geomean_of_medians({"Q": [1.0, 2.0, 1000.0]}) == 2.0


def _ok(value):
    return {"status": "ok", "value": value}


def _err(code):
    return {"status": "error", "error": {"code": code, "message": "x"}}


def test_each_failure_counted_once_against_attempted():
    expected = {"revenue": 5}
    outcomes = [
        summary.classify(_ok({"revenue": 5}), expected),
        summary.classify(_ok({"revenue": 6}), expected),
        summary.classify(_err("queue_full"), expected),
        summary.classify(_err("shutting_down"), expected),
        summary.classify(_err("deadline_exceeded"), expected),
        summary.classify(None, expected),
        summary.classify(_err("execution_failed"), expected),
    ]
    counts = summary.tally(outcomes)
    assert counts["attempted"] == 7
    assert counts[summary.OK] == 1
    assert counts[summary.WRONG] == 1
    assert counts[summary.SHED] == 2
    assert counts[summary.DEADLINE] == 1
    assert counts[summary.TRANSPORT] == 1
    assert counts[summary.ERROR] == 1
    assert counts["failed"] == 6
    assert sum(counts[o] for o in summary.OUTCOMES) == counts["attempted"]
    assert counts["error_rate"] == pytest.approx(6 / 7)


def test_an_error_answer_is_never_also_a_wrong_answer():
    # A refused request carries no value; it counts as shed only.
    assert summary.classify(_err("queue_full"), {"v": 1}) == summary.SHED


def test_unchecked_ok_answers_are_ok():
    assert summary.classify(_ok({"v": 1}), None) == summary.OK


def test_spearman():
    assert summary.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert summary.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert summary.spearman([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)


def test_union_length_merges_overlaps():
    assert summary.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert summary.union_length([]) == 0


def test_time_slices_keep_enough_samples_per_slice():
    times = [i * 0.01 for i in range(1000)]  # 100 per second over 10 s
    parts = summary.time_slices(times, 0.0, 10.0, most=5, least=200)
    assert [len(p) for p in parts] == [200] * 5
    # Fewer samples: fewer, wider slices, never one under the minimum.
    parts = summary.time_slices(times[:450], 0.0, 4.5, most=5, least=200)
    assert [len(p) for p in parts] == [225, 225]
    assert sorted(i for p in parts for i in p) == list(range(450))
    with pytest.raises(ValueError):
        summary.time_slices(times[:150], 0.0, 1.5, most=5, least=200)


def test_time_slices_shrink_when_the_rate_is_uneven():
    # A stall: the first half of the run answers 50, the second 400.
    times = [i * 0.1 for i in range(50)] + [5 + i * 0.0125 for i in range(400)]
    parts = summary.time_slices(times, 0.0, 10.0, most=5, least=200)
    assert len(parts) == 1
