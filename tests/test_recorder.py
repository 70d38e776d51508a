"""Recorder behavior: timing fidelity, nesting repair, calibrated overhead."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from helpers import site
from planeprof.instrument.events import TAG_SLEEP, CodeSite, EventKind, SiteKind
from planeprof.instrument.recorder import Recorder
from planeprof.model.aggregate import aggregate_functions

# generous slack for a shared, virtualized host
SCHEDULER_SLACK_S = 0.25


def busy_wait(seconds: float) -> None:
    end = time.monotonic_ns() + int(seconds * 1e9)
    while time.monotonic_ns() < end:
        pass


class TestRegions:
    def test_busy_region_duration(self, recorder):
        s = site("one_ms", SiteKind.REGION)
        with recorder.region(s):
            busy_wait(0.001)
        profile = aggregate_functions(recorder.events())
        wall = profile.rows[s].cumtime_ns
        assert 1_000_000 <= wall <= 1_000_000 + 50_000_000

    def test_empty_region_within_overhead_budget(self, recorder):
        s = site("empty", SiteKind.REGION)
        with recorder.region(s):
            pass
        profile = aggregate_functions(recorder.events())
        wall = profile.rows[s].cumtime_ns
        assert 0 <= wall <= recorder.calibration.overhead_budget_ns

    def test_mismatched_exit_recorded_not_fatal(self, recorder):
        good, bad = site("good", SiteKind.REGION), site("bad", SiteKind.REGION)
        recorder.enter(good)
        recorder.exit(bad)  # never entered
        recorder.exit(good)
        violations = recorder.violations
        assert len(violations) == 1
        assert violations[0].site == bad
        assert "exit without matching enter" in violations[0].detail
        # stream still aggregates
        profile = aggregate_functions(recorder.events())
        assert good in profile.rows
        assert bad not in profile.rows

    def test_equal_but_distinct_site_closes_its_bracket(self, recorder):
        opened = site("work")
        twin = CodeSite(opened.file, opened.line, opened.symbol, opened.kind)
        assert twin == opened and twin is not opened
        recorder.enter(opened)
        recorder.exit(twin)
        assert recorder.violations == []
        assert [rec[0] for _, recs in recorder.records() for rec in recs] == ["E", "X"]

    def test_events_monotonic_per_thread(self, recorder):
        s = site("tick", SiteKind.REGION)
        for _ in range(100):
            with recorder.region(s):
                pass
        events = recorder.events()
        last = {}
        for e in events:
            assert e.wall_ns >= last.get(e.thread_id, 0)
            last[e.thread_id] = e.wall_ns

    def test_cpu_ns_monotonic_per_thread(self, recorder):
        s = site("tick", SiteKind.REGION)
        for _ in range(200):
            with recorder.region(s):
                pass
        last = {}
        for e in recorder.events():
            assert e.cpu_ns >= last.get(e.thread_id, 0)
            last[e.thread_id] = e.cpu_ns

    def test_disabled_recorder_records_nothing(self, calibration):
        rec = Recorder(enabled=False, calibration=calibration)
        with rec.region(site("x", SiteKind.REGION)):
            pass
        assert rec.events() == []

    def test_threads_do_not_interleave_buffers(self, recorder):
        s = site("worker", SiteKind.REGION)

        def work():
            for _ in range(50):
                with recorder.region(s):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = recorder.events()
        assert len(events) == 4 * 50 * 2
        by_thread = {}
        for e in events:
            by_thread.setdefault(e.thread_id, []).append(e)
        # the OS may reuse idents for short-lived threads, never more than 4
        assert 1 <= len(by_thread) <= 4
        for evs in by_thread.values():
            depth = 0
            for e in evs:
                depth += 1 if e.kind is EventKind.ENTER else -1
                assert depth in (0, 1)


class TestDrain:
    def test_drain_hands_over_and_forgets(self, recorder):
        s = site("tick", SiteKind.REGION)
        for _ in range(2):
            with recorder.region(s):
                pass
        worker = threading.Thread(target=recorder.enter, args=(s,))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert recorder.buffered() == 4  # this thread's log only
        before = recorder.records()
        assert [len(recs) for _, recs in before] == [4, 1]
        assert recorder.drain() == before
        assert [recs for _, recs in recorder.records()] == [[], []]
        assert recorder.buffered() == 0
        with recorder.region(s):
            pass
        assert [len(recs) for _, recs in recorder.drain()] == [2, 0]

    def test_records_appended_during_drains_are_kept(self, recorder):
        s = site("tick", SiteKind.REGION)
        pairs = 3_000

        def work():
            for _ in range(pairs):
                recorder.enter(s)
                recorder.exit(s)

        drained = {}
        workers = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            while any(w.is_alive() for w in workers):
                for ident, recs in recorder.drain():
                    drained.setdefault(ident, []).extend(recs)
            for w in workers:
                w.join(timeout=10)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for ident, recs in recorder.drain():
            drained.setdefault(ident, []).extend(recs)
        # idents may be reused, so count per record code, not per thread
        codes = [rec[0] for recs in drained.values() for rec in recs]
        assert codes.count("E") == codes.count("X") == 4 * pairs
        for recs in drained.values():
            walls = [rec[2] for rec in recs]
            assert walls == sorted(walls)


class TestSleep:
    def test_three_sleeps_aggregate(self, recorder):
        for _ in range(3):
            recorder.sleep(0.05)
        profile = aggregate_functions(recorder.events())
        (row,) = [r for r in profile.rows.values() if r.tag == TAG_SLEEP]
        assert row.ncalls_total == 3
        assert 0.15 <= row.cumtime_s <= 0.15 + SCHEDULER_SLACK_S

    def test_zero_sleep_still_emits_pair(self, recorder):
        recorder.sleep(0.0)
        events = recorder.events()
        assert [e.kind for e in events] == [EventKind.ENTER, EventKind.EXIT]
        assert events[0].tag == TAG_SLEEP
        assert events[1].wall_ns - events[0].wall_ns < 50_000_000

    def test_negative_sleep_rejected(self, recorder):
        with pytest.raises(ValueError):
            recorder.sleep(-1.0)

    def test_sleep_fidelity(self, recorder):
        recorder.sleep(0.1)
        profile = aggregate_functions(recorder.events())
        (row,) = profile.rows.values()
        assert 0.1 <= row.cumtime_s <= 0.1 + SCHEDULER_SLACK_S


class TestTraceDecorator:
    def test_wraps_function_site(self, recorder):
        @recorder.trace
        def traced_fn():
            return 41 + 1

        assert traced_fn() == 42
        assert traced_fn() == 42
        profile = aggregate_functions(recorder.events())
        (row,) = profile.rows.values()
        assert row.ncalls_total == 2
        assert row.site.symbol.endswith("traced_fn")
        assert row.site.kind is SiteKind.FUNCTION

    def test_exception_still_exits(self, recorder):
        @recorder.trace
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            boom()
        profile = aggregate_functions(recorder.events())
        (row,) = profile.rows.values()
        assert row.ncalls_total == 1
        assert recorder.violations == []


class TestCalibration:
    def test_calibration_fields_sane(self, calibration):
        assert calibration.wall_cost_ns >= 1
        assert calibration.cpu_cost_ns >= 1
        assert calibration.pair_overhead_ns > 0
        assert calibration.overhead_budget_ns >= 8 * calibration.pair_overhead_ns

    def test_expensive_cpu_clock_uses_cached_mode(self, calibration):
        if calibration.cpu_cost_ns > 1_000:
            assert calibration.cpu_refresh_wall_ns > 0
        else:
            assert calibration.cpu_refresh_wall_ns == 0

    def test_measure_does_not_disturb_events(self, recorder):
        s = site("keep", SiteKind.REGION)
        with recorder.region(s):
            pass
        recorder.measure_pair_overhead_ns(pairs=200)
        assert len(recorder.events()) == 2
