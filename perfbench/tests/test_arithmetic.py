"""Unit tests of the benchmark's own arithmetic: reference seconds,
the percentile rule and nested self-time subtraction."""

from __future__ import annotations

import pytest

from perfbench import probe
from perfbench.probe import REF_SLICE_S, to_ref_seconds
from perfbench.stats import MIN_BEYOND, percentile
from perfbench.trace import Tracer


# -- reference seconds -------------------------------------------------------


def test_reference_speed_maps_wall_to_itself():
    marks = [(t * 0.02, REF_SLICE_S) for t in range(1, 51)]
    assert to_ref_seconds(marks, 0.0, 1.0) == pytest.approx(1.0)


def test_a_slow_host_is_scaled_down_stretch_by_stretch():
    # first half at reference speed, second half twice as slow
    marks = [(0.5, REF_SLICE_S), (1.0, 2 * REF_SLICE_S)]
    assert to_ref_seconds(marks, 0.0, 1.0) == pytest.approx(0.5 + 0.25)


def test_interval_cuts_stretches_at_its_ends():
    marks = [(1.0, REF_SLICE_S), (2.0, 4 * REF_SLICE_S)]
    # [0.5, 1.0] at reference speed, [1.0, 1.5] four times slower
    assert to_ref_seconds(marks, 0.5, 1.5) == pytest.approx(0.5 + 0.125)


def test_tail_after_the_last_mark_uses_the_last_slice():
    marks = [(1.0, 2 * REF_SLICE_S)]
    assert to_ref_seconds(marks, 0.0, 3.0) == pytest.approx(1.5)


def test_interval_without_marks_uses_the_next_one():
    marks = [(1.0, REF_SLICE_S), (5.0, 2 * REF_SLICE_S)]
    assert to_ref_seconds(marks, 2.0, 3.0) == pytest.approx(0.5)


def test_empty_interval_and_missing_probe():
    assert to_ref_seconds([(1.0, REF_SLICE_S)], 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        to_ref_seconds([], 0.0, 1.0)


def test_probe_clock_excludes_probe_time():
    p = probe.Probe()
    before = p.work_clock()
    p.sample()
    p.sample()
    # the two samples are not charged to the program's clock
    assert p.work_clock() - before < p.probe_seconds
    assert len(p.marks) == 2 and all(s > 0 for _c, s in p.marks)


# -- percentile rule ---------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1, 1001)), 0.99) == 990  # rank 990, 10 beyond
    with pytest.raises(ValueError):
        percentile(list(range(1, 1000)), 0.99)  # rank 990, 9 beyond
    assert MIN_BEYOND == 10


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0] * 10
    assert percentile(samples, 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile(samples, 1.0)


# -- nested self time --------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = _FakeClock()
    tracer = Tracer(clock, lambda: 0.0)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        tracer.run_span("merkle", "merkle.leaf", leaf, (), {}, False)
        clock.now += 1.0

    def outer():
        clock.now += 3.0
        tracer.run_span("statedb", "statedb.middle", middle, (), {}, False)
        tracer.run_span("merkle", "merkle.leaf", leaf, (), {}, False)

    clock.now = 10.0
    tracer.run_span("chain", "chain.outer", outer, (), {}, True)
    clock.now += 4.0  # untraced time after the span

    assert tracer.self_time["merkle"] == pytest.approx(4.0)
    assert tracer.self_time["statedb"] == pytest.approx(2.0)
    assert tracer.self_time["chain"] == pytest.approx(3.0)
    assert tracer.calls["merkle"] == 2
    assert tracer.top_level == pytest.approx(9.0)
    assert tracer.untraced(13.0) == pytest.approx(4.0)
    assert sum(tracer.self_time.values()) + tracer.untraced(13.0) == pytest.approx(13.0)
    assert tracer.durations["chain.outer"] == [pytest.approx(9.0)]
    # parent links: the leaf spans point at their enclosing spans
    by_id = {s[0]: s for s in tracer.spans}
    outer_id = next(s[0] for s in tracer.spans if s[1] == "chain.outer")
    middle_id = next(s[0] for s in tracer.spans if s[1] == "statedb.middle")
    parents = sorted(by_id[s[0]][4] for s in tracer.spans if s[1] == "merkle.leaf")
    assert parents == sorted([outer_id, middle_id])


def test_an_opaque_span_keeps_nested_work_as_its_own():
    clock = _FakeClock()
    tracer = Tracer(clock, lambda: 0.0)

    def leaf():
        clock.now += 2.0

    def reads():
        clock.now += 1.0
        tracer.run_span("merkle", "merkle.leaf", leaf, (), {}, False)

    tracer.run_span("workload", "workload.reads", reads, (), {}, False, opaque=True)
    tracer.run_span("merkle", "merkle.leaf", leaf, (), {}, False)

    assert tracer.self_time["workload"] == pytest.approx(3.0)
    assert tracer.self_time["merkle"] == pytest.approx(2.0)
    assert tracer.calls["merkle"] == 1
    assert tracer.top_level == pytest.approx(5.0)


def test_self_time_is_kept_when_a_span_raises():
    clock = _FakeClock()
    tracer = Tracer(clock, lambda: 0.0)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.run_span("core", "core.boom", boom, (), {}, False)
    assert tracer.self_time["core"] == pytest.approx(1.0)
    assert tracer.stack == []


def test_patch_and_uninstall_restore_the_original():
    class Target:
        def work(self, x):
            return x + 1

        @property
        def value(self):
            return 7

    class Child(Target):
        pass

    original = Target.__dict__["work"]
    tracer = Tracer(_FakeClock(), lambda: 0.0)
    tracer.patch(Target, "work", "runtime")
    tracer.patch(Target, "value", "merkle")
    tracer.patch(Child, "work", "executor")  # inherited attribute
    assert Child().work(1) == 2 and Target().value == 7
    assert tracer.calls["executor"] == 1 and tracer.calls["runtime"] == 1
    assert tracer.calls["merkle"] == 1
    tracer.uninstall()
    assert Target.__dict__["work"] is original
    assert "work" not in Child.__dict__
    assert isinstance(Target.__dict__["value"], property)
