"""The benchmark's own arithmetic: percentiles, self time, latency, tallies."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIRECTORY = Path(__file__).resolve().parents[1]
if str(BENCH_DIRECTORY) not in sys.path:
    sys.path.insert(0, str(BENCH_DIRECTORY))

from benchstats import (  # noqa: E402
    OpTally,
    Span,
    coverage,
    due_time_latencies,
    median,
    nearest_rank,
    self_seconds,
    span_self_seconds,
    union_seconds,
)
from benchtrace import Tracer  # noqa: E402


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "e2ebench_run", BENCH_DIRECTORY / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_nearest_rank_returns_an_observed_value():
    values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 10.0, 6.0]
    assert nearest_rank(values, 0.5) == 5.0
    assert nearest_rank(values, 0.99) == 10.0
    assert nearest_rank(values, 0.1) == 1.0
    assert nearest_rank(values, 0.11) == 2.0
    assert nearest_rank([4.2], 0.99) == 4.2


@pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
def test_nearest_rank_rejects_fractions_outside_the_unit_interval(q):
    with pytest.raises(ValueError):
        nearest_rank([1.0, 2.0], q)


def test_percentiles_and_medians_of_nothing_are_errors():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        median([])


def test_median_of_units_resists_one_slow_unit():
    assert median([1.0, 1.1, 0.9, 1.0, 9.0]) == 1.0
    assert median([1.0, 3.0]) == 2.0


def test_due_time_latency_charges_generator_lateness():
    # Due at 10.0 and 10.5; submitted on time and 0.25 s late; served in 0.1 s.
    latencies = due_time_latencies([10.0, 10.5], [10.0, 10.75], [0.1, 0.1])
    assert latencies == pytest.approx([0.1, 0.35])
    with pytest.raises(ValueError):
        due_time_latencies([1.0], [1.0, 2.0], [0.1])


def test_union_counts_overlap_once():
    assert union_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_seconds([]) == 0.0


def test_self_time_subtracts_the_children_covered_part_once():
    spans = [
        Span("outer", 0.0, 10.0, None, 1),
        Span("inner", 1.0, 4.0, 0, 1),
        Span("inner", 3.0, 5.0, 0, 1),  # overlaps its sibling by 1 s
        Span("leaf", 1.5, 2.0, 1, 1),
    ]
    assert span_self_seconds(spans) == pytest.approx([6.0, 2.5, 2.0, 0.5])
    assert self_seconds(spans) == pytest.approx(
        {"outer": 6.0, "inner": 4.5, "leaf": 0.5}
    )


def test_coverage_ignores_phase_spans_and_clips_to_the_unit():
    spans = [
        Span("bench.replay", 0.0, 10.0, None, 1, layer=False),
        Span("service.submit", 2.0, 4.0, 0, 1),
        Span("service.engine", 3.0, 12.0, None, 2),
    ]
    assert coverage(spans, 0.0, 10.0) == pytest.approx(0.8)


def test_a_failed_check_fails_every_operation_it_covers():
    tally = OpTally()
    assert tally.check(100, True, "first")
    assert not tally.check(40, False, "second")
    assert (tally.attempted, tally.failed, tally.errors) == (140, 40, ["second"])


class _Layer:
    def work(self, depth):
        if depth:
            return self.work(depth - 1) + 1
        return 0

    def helper(self):
        return self.work(0)


def test_tracer_records_nested_spans_only_while_installed():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = _Layer.__dict__["work"]
    tracer.add_method(_Layer, "work", "layer.work")
    tracer.add_method(_Layer, "helper", "layer.helper", outermost_only=True)

    assert _Layer().work(1) == 1
    assert tracer.take() == []

    tracer.install()
    try:
        assert _Layer().work(1) == 1
        assert _Layer().helper() == 0
        with tracer.span("phase", layer=False):
            _Layer().helper()
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["work"] is original

    spans = tracer.take()
    names = [(span.name, span.parent) for span in spans]
    assert names == [
        ("layer.work", None),
        ("layer.work", 0),
        ("layer.helper", None),
        ("layer.work", 2),
        ("phase", None),
        ("layer.helper", 4),
        ("layer.work", 5),
    ]
    assert tracer.take() == []


def test_outermost_only_skips_calls_inside_another_layer():
    tracer = Tracer()
    tracer.add_method(_Layer, "work", "layer.work", outermost_only=True)
    tracer.add_method(_Layer, "helper", "layer.helper")
    tracer.install()
    try:
        _Layer().helper()
        _Layer().work(0)
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.take()] == ["layer.helper", "layer.work"]


class _FakeUnit:
    def __init__(self, setup, seconds, ops, ops_seconds, work):
        self.start, self.end = 0.0, setup + seconds
        self.setup_seconds = setup
        self.seconds = seconds
        self.ops, self.ops_seconds = ops, ops_seconds
        self.work = work


def test_end_to_end_metrics_are_means_over_units():
    runner = _load_runner()
    units = [
        _FakeUnit(0.1, 2.0, 1000, 1.0, {}),
        _FakeUnit(0.3, 9.0, 1000, 4.0, {}),
        _FakeUnit(0.2, 3.0, 1000, 2.0, {}),
    ]
    metrics = runner.end_to_end(units)
    assert metrics["setup_s"]["unit"] == "s"
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert metrics["pass_s"]["value"] == pytest.approx(14.0 / 3)
    # Per-unit rates 1000, 250 and 500 per second.
    assert metrics["ops_per_s"]["value"] == pytest.approx(1750.0 / 3)
    assert metrics["peak_rss_mb"]["value"] > 0


def test_same_work_compares_only_the_named_counters():
    runner = _load_runner()
    first = _FakeUnit(0, 1, 1, 1, {"core.swaps": 5, "vnet.hits": 3})
    second = _FakeUnit(0, 1, 1, 1, {"core.swaps": 5, "vnet.hits": 4})
    assert runner.same_work([first, second], ("core.",))
    assert not runner.same_work([first, second], ("",))
