"""Function/region/thread aggregation against constructed streams and the oracle."""

from __future__ import annotations

import os
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MS,
    US,
    assert_conservation,
    assert_stats_match_oracle,
    ev,
    oracle_aggregate,
    random_stream,
    site,
    stream,
)
from planeprof.instrument.dumpio import (
    DumpFormatError,
    DumpMeta,
    DumpStream,
    read_dump,
    write_dump,
)
from planeprof.instrument.events import ClockCalibration, CodeSite, SiteKind
from planeprof.model.aggregate import (
    ROWS_VERSION,
    MalformedStream,
    UnknownScope,
    aggregate_functions,
    aggregate_regions,
    aggregate_threads,
    bracketed_span_ns,
    rows_path,
    walk_cached,
    walk_stream,
)


class TestAggregateFunctions:
    def test_parent_child_split(self):
        # f runs 10 ms and calls g for 4 ms: f keeps 6 ms exclusive.
        events = stream(
            ("enter", "f", 0),
            ("enter", "g", 3 * MS),
            ("exit", "g", 7 * MS),
            ("exit", "f", 10 * MS),
        )
        rows = aggregate_functions(events).rows
        f, g = site("f"), site("g")
        assert rows[f].tottime_ns == 6 * MS
        assert rows[f].cumtime_ns == 10 * MS
        assert rows[g].tottime_ns == rows[g].cumtime_ns == 4 * MS
        assert_stats_match_oracle(aggregate_functions(events), events)

    def test_single_call_no_children(self):
        events = stream(("enter", "f", 5), ("exit", "f", 105))
        rows = aggregate_functions(events).rows
        assert rows[site("f")].tottime_ns == rows[site("f")].cumtime_ns == 100

    def test_recursion_primitive_counting(self):
        # f -> f -> g: two calls of f, one primitive; cumtime spans the
        # outer activation only.
        events = stream(
            ("enter", "f", 0),
            ("enter", "f", 2 * MS),
            ("enter", "g", 4 * MS),
            ("exit", "g", 6 * MS),
            ("exit", "f", 8 * MS),
            ("exit", "f", 10 * MS),
        )
        profile = aggregate_functions(events)
        f = profile.rows[site("f")]
        assert f.ncalls_total == 2
        assert f.ncalls_primitive == 1
        assert f.ncalls_label == "2/1"
        assert f.cumtime_ns == 10 * MS
        assert f.tottime_ns == 8 * MS  # everything except g's 2 ms
        assert_stats_match_oracle(profile, events)

    def test_empty_stream(self):
        assert aggregate_functions([]).rows == {}

    def test_unmatched_exit_is_dropped(self):
        events = stream(
            ("enter", "f", 0),
            ("exit", "g", 10),  # never entered
            ("exit", "f", 100),
        )
        rows = aggregate_functions(events).rows
        assert rows[site("f")].cumtime_ns == 100
        assert site("g") not in rows

    def test_unclosed_enter_is_dropped(self):
        events = stream(
            ("enter", "f", 0),
            ("enter", "g", 10),
            ("exit", "g", 20),
            # f never exits
        )
        rows = aggregate_functions(events).rows
        assert site("f") not in rows
        assert rows[site("g")].cumtime_ns == 10

    def test_clock_regression_raises(self):
        events = stream(("enter", "f", 100), ("exit", "f", 50))
        with pytest.raises(MalformedStream):
            aggregate_functions(events)

    def test_multi_thread_streams_are_independent(self):
        events = stream(
            ("enter", "f", 0, 1),
            ("enter", "f", 0, 2),
            ("exit", "f", 100, 1),
            ("exit", "f", 300, 2),
        )
        profile = aggregate_functions(events)
        f = profile.rows[site("f")]
        assert f.ncalls_total == 2
        assert f.ncalls_primitive == 2  # not recursion: different threads
        assert f.cumtime_ns == 400

    def test_tag_from_enter_event(self):
        events = [
            ev("enter", "nap", 0, tag="sleep", site_kind=SiteKind.REGION),
            ev("exit", "nap", 50, site_kind=SiteKind.REGION),
        ]
        profile = aggregate_functions(events)
        assert profile.rows[site("nap", SiteKind.REGION)].tag == "sleep"


class TestOracleEquivalence:
    def test_randomized_streams_match_oracle_exactly(self):
        rng = random.Random(20260810)
        for _ in range(300):
            events = random_stream(rng)
            profile = aggregate_functions(events)
            assert_stats_match_oracle(profile, events)

    def test_conservation_on_random_streams(self):
        rng = random.Random(7)
        for _ in range(100):
            events = random_stream(rng)
            profile = aggregate_functions(events)
            assert_conservation(profile, events)

    def test_root_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            inner = random_stream(rng, max_events=20)
            start = inner[0].wall_ns - 10 * US
            end = inner[-1].wall_ns + 10 * US
            events = [ev("enter", "root", start)] + inner + [ev("exit", "root", end)]
            profile = aggregate_functions(events)
            assert profile.rows[site("root")].cumtime_ns == end - start


class TestAggregateRegions:
    def _scoped(self, *regions, scope_span=(0, 100 * MS)):
        events = [ev("enter", "fn", scope_span[0])]
        for symbol, a, b in regions:
            events.append(ev("enter", symbol, a, site_kind=SiteKind.REGION))
            events.append(ev("exit", symbol, b, site_kind=SiteKind.REGION))
        events.append(ev("exit", "fn", scope_span[1]))
        return events

    def test_sleep_share_of_start_function(self):
        # 5.0029 s sleep inside a 5.0859 s function: ~98.4 % of scope time.
        events = self._scoped(
            ("boot", 0, 6 * MS),
            ("nap", 10 * MS, 5_012_929 * US // 1000 * 1000),
            scope_span=(0, 5_085_870_000),
        )
        profile = aggregate_regions(events, site("fn"))
        nap = profile.rows[site("nap", SiteKind.REGION)]
        assert 98.0 <= nap.pct_time <= 99.0

    def test_region_spanning_whole_function(self):
        events = self._scoped(("whole", 0, 100 * MS))
        profile = aggregate_regions(events, site("fn"))
        assert profile.rows[site("whole", SiteKind.REGION)].pct_time == 100.0

    def test_two_disjoint_regions_30_70(self):
        events = self._scoped(("a", 0, 30 * MS), ("b", 30 * MS, 100 * MS))
        profile = aggregate_regions(events, site("fn"))
        a = profile.rows[site("a", SiteKind.REGION)]
        b = profile.rows[site("b", SiteKind.REGION)]
        assert abs(a.pct_time - 30.0) <= 1.0
        assert abs(b.pct_time - 70.0) <= 1.0

    def test_hits_and_per_hit(self):
        events = [
            ev("enter", "fn", 0),
            ev("enter", "r", 10, site_kind=SiteKind.REGION),
            ev("exit", "r", 30, site_kind=SiteKind.REGION),
            ev("enter", "r", 50, site_kind=SiteKind.REGION),
            ev("exit", "r", 90, site_kind=SiteKind.REGION),
            ev("exit", "fn", 100),
        ]
        profile = aggregate_regions(events, site("fn"))
        r = profile.rows[site("r", SiteKind.REGION)]
        assert r.hits == 2
        assert r.time_ns == 60
        assert r.per_hit_s == pytest.approx(30e-9)

    def test_unknown_scope(self):
        events = stream(("enter", "f", 0), ("exit", "f", 10))
        with pytest.raises(UnknownScope):
            aggregate_regions(events, site("missing"))

    def test_region_outside_scope_not_counted(self):
        events = [
            ev("enter", "other", 0),
            ev("enter", "r", 1, site_kind=SiteKind.REGION),
            ev("exit", "r", 9, site_kind=SiteKind.REGION),
            ev("exit", "other", 10),
            ev("enter", "fn", 20),
            ev("exit", "fn", 40),
        ]
        profile = aggregate_regions(events, site("fn"))
        assert profile.rows == {}

    def test_region_closure_invariant(self):
        events = self._scoped(("a", 0, 20 * MS), ("b", 30 * MS, 90 * MS))
        profile = aggregate_regions(events, site("fn"))
        assert sum(r.time_ns for r in profile.rows.values()) <= profile.scope_time_ns


class TestAggregateThreads:
    def test_single_call_with_self_time(self):
        # one 0.77 s call with 1.2 ms of self time
        events = stream(
            ("enter", "linker", 0),
            ("enter", "child", 1_200_000),
            ("exit", "child", 770 * MS),
            ("exit", "linker", 770 * MS),
        )
        rows = {r.site.symbol: r for r in aggregate_threads(events)}
        linker = rows["linker"]
        assert linker.ncall == 1
        assert linker.tsub_ns == 1_200_000
        assert linker.ttot_ns == 770 * MS
        assert linker.tavg_s == pytest.approx(0.77)

    def test_zero_events(self):
        assert aggregate_threads([]) == []

    def test_symmetric_threads_have_identical_stats(self):
        events = []
        for thread in (1, 2):
            events.extend(
                stream(
                    ("enter", "work", 0, thread),
                    ("enter", "inner", 10 * MS, thread),
                    ("exit", "inner", 40 * MS, thread),
                    ("exit", "work", 100 * MS, thread),
                )
            )
        rows = aggregate_threads(events)
        by_thread = {}
        for r in rows:
            by_thread.setdefault(r.name, {})[r.site.symbol] = (r.ncall, r.tsub_ns, r.ttot_ns)
        t1, t2 = by_thread.values()
        assert t1 == t2

    def test_ttot_at_least_tsub(self):
        rng = random.Random(3)
        for _ in range(30):
            events = random_stream(rng)
            for r in aggregate_threads(events):
                assert r.ttot_ns >= r.tsub_ns
                assert r.tavg_s * r.ncall == pytest.approx(r.ttot_s)


class TestBracketedSpan:
    def test_matches_top_level_sum(self):
        events = stream(
            ("enter", "a", 0),
            ("exit", "a", 10),
            ("enter", "b", 20),
            ("exit", "b", 50),
        )
        assert bracketed_span_ns(events) == {1: 40}


# Two threads whose blocks interleave, the higher thread id first. Thread
# 2 closes ``work`` before ``poll`` and tags ``poll`` "x"; thread 9 closes
# ``poll`` first and tags it "poll". Merging in ascending thread id gives
# the rows in the order work, poll, main and the tag "x".
_HEADER = """profile-dump 4
run_id r
entity e
end_header
"""
# two threads whose blocks interleave 9/2/9/2/9, higher id first; clocks
# are deltas from the thread's own previous enter or exit
_INTERLEAVED = """\
T\t9
site\t0\ta.py\t1\tmain\tF\t-
E\t100\t1\t0
site\t1\ta.py\t5\tpoll\tR\tpoll
E\t10\t1\t1
site\t2\ta.py\t5\tpoll\tR\t-
X\t40\t1\t2
T\t2
E\t105\t1\t0
site\t3\ta.py\t9\twork\tF\t-
E\t15\t0\t3
E\t5\t0\t3
X\t5\t0\t3
T\t9
E\t10\t1\t1
X\t10\t1\t2
T\t2
X\t10\t0\t3
site\t4\ta.py\t5\tpoll\tR\tx
E\t2\t0\t4
X\t2\t0\t2
X\t56\t0\t0
T\t9
X\t130\t1\t0
site\t5\ta.py\t7\tlonely\tF\t-
E\t1\t1\t5
end_events
counts\t15\t0
end_dump
"""


class TestStreamedWalk:
    @pytest.fixture
    def interleaved(self, tmp_path):
        path = tmp_path / "interleaved.dump"
        path.write_text(_HEADER + _INTERLEAVED)
        return path

    def test_interleaved_threads_match_materialized(self, interleaved):
        dump = read_dump(interleaved)
        events = dump.events
        # the writer lays the same records out the same way
        again = write_dump(interleaved.with_name("again.dump"), dump.meta, dump.calibration, events)
        assert again.read_text().endswith("end_header\n" + _INTERLEAVED)
        scope = CodeSite("a.py", 1, "main", SiteKind.FUNCTION)
        with DumpStream(interleaved) as stream:
            streamed = walk_stream(stream, scope_symbol="main")
        assert streamed.scope == scope
        profile = streamed.function_profile()
        expected = aggregate_functions(events)
        assert list(profile.rows.items()) == list(expected.rows.items())
        assert [s.symbol for s in profile.rows] == ["work", "poll", "main"]
        assert profile.rows[CodeSite("a.py", 5, "poll", SiteKind.REGION)].tag == "x"
        assert profile.wall_span_ns == expected.wall_span_ns == 95 + 200
        work = profile.rows[CodeSite("a.py", 9, "work", SiteKind.FUNCTION)]
        assert (work.ncalls_total, work.ncalls_primitive, work.tottime_ns, work.cumtime_ns) == (
            2, 1, 20, 20
        )
        main = profile.rows[scope]
        assert (main.tottime_ns, main.cumtime_ns) == (73 + 150, 295)
        assert streamed.thread_table() == aggregate_threads(events)
        assert [r.name for r in streamed.thread_table()] == ["2", "2", "2", "9", "9"]
        assert streamed.spans() == bracketed_span_ns(events) == {2: 95, 9: 200}
        regions = streamed.region_profile()
        expected_regions = aggregate_regions(events, scope)
        assert list(regions.rows.items()) == list(expected_regions.rows.items())
        assert regions.scope_time_ns == expected_regions.scope_time_ns == 295
        assert regions.rows[CodeSite("a.py", 5, "poll", SiteKind.REGION)].hits == 3

    def test_sorted_event_list_gives_the_same_rows(self, interleaved):
        events = read_dump(interleaved).events
        by_thread = sorted(events, key=lambda e: e.thread_id)  # stable within a thread
        a, b = aggregate_functions(events), aggregate_functions(by_thread)
        assert list(a.rows.items()) == list(b.rows.items())

    def test_missing_scope_symbol_finds_nothing(self, interleaved):
        with DumpStream(interleaved) as stream:
            streamed = walk_stream(stream, scope_symbol="absent")
        assert streamed.scope is None
        with pytest.raises(UnknownScope):
            streamed.region_profile()

    def test_backwards_clock_names_file_and_line(self, tmp_path):
        path = tmp_path / "regressed.dump"
        # thread 9's exit at 170 goes back to 1, a delta of 1 - 160
        path.write_text(_HEADER + _INTERLEAVED.replace("\nX\t10\t1\t2\n", "\nX\t-159\t1\t2\n"))
        with DumpStream(path) as stream:
            with pytest.raises(DumpFormatError) as info:
                walk_stream(stream)
        assert str(info.value) == (
            f"{path}: line 20: wall clock regressed on thread 9: 1 < 160"
        )


def _walked(path, cached=False):
    with DumpStream(path) as stream:
        return walk_cached(stream) if cached else walk_stream(stream)


def _read_from_rows(path):
    """The walk of ``path`` taken from its rows file; reading a record fails."""
    with DumpStream(path) as stream:
        stream.records = None  # a hit never calls it
        return walk_cached(stream)


def _tables(result):
    profile = result.function_profile()
    return (
        list(profile.rows.items()),
        profile.wall_span_ns,
        result.thread_table(),
        result.spans(),
    )


class TestRowsFile:
    """A walk kept beside its dump reads back as the same tables."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1 << 32), nthreads=st.integers(1, 4))
    def test_round_trip_over_oracle_streams(self, seed, nthreads):
        rng = random.Random(seed)
        idents = rng.sample([1, 2, 9, 140_000_000_000_001, 140_000_000_000_002], nthreads)
        per_thread = []
        for ident in idents:
            events = random_stream(rng, symbols=("a", "b", "c", "d", "c d"))
            tags = [rng.choice((None, None, "poll", "x")) for _ in events]
            per_thread.append(
                [e._replace(thread_id=ident, tag=tag) for e, tag in zip(events, tags)]
            )
        # interleave the threads' blocks, keeping each thread's order
        events = []
        while any(per_thread):
            block = rng.choice([t for t in per_thread if t])
            cut = rng.randrange(1, len(block) + 1)
            events += block[:cut]
            del block[:cut]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "e.dump"
            write_dump(path, DumpMeta(run_id="r", entity="e"), ClockCalibration(1, 1, 0, 1), events)
            walked = _walked(path)
            assert _tables(_walked(path, cached=True)) == _tables(walked)
            assert rows_path(path).is_file()
            cached = _read_from_rows(path)
            assert _tables(cached) == _tables(walked)
        # the threads overlap in time, so the oracle holds thread by thread
        for ident in idents:
            oracle = oracle_aggregate(e for e in events if e.thread_id == ident)
            rows = {r.site: r for r in cached.thread_table() if r.name == str(ident)}
            assert {s: (r.ncall, r.tsub_ns, r.ttot_ns) for s, r in rows.items()} == {
                s: (o.ncalls_total, o.tottime_ns, o.cumtime_ns) for s, o in oracle.items()
            }

    @pytest.fixture
    def interleaved(self, tmp_path):
        path = tmp_path / "interleaved.dump"
        path.write_text(_HEADER + _INTERLEAVED)
        return path

    def test_file_layout(self, interleaved):
        _walked(interleaved, cached=True)
        stat = interleaved.stat()
        assert rows_path(interleaved).read_text() == (
            f"{ROWS_VERSION}\n"
            f"key\t{stat.st_size}\t{stat.st_mtime_ns}\t{stat.st_ctime_ns}\t15\t0\n"
            "thread\t2\t95\n"
            "row\ta.py\t9\twork\tF\t-\t2\t1\t20\t20\n"
            "row\ta.py\t5\tpoll\tR\tx\t1\t1\t2\t2\n"
            "row\ta.py\t1\tmain\tF\t-\t1\t1\t73\t95\n"
            "thread\t9\t200\n"
            "row\ta.py\t5\tpoll\tR\tpoll\t2\t2\t50\t50\n"
            "row\ta.py\t1\tmain\tF\t-\t1\t1\t150\t200\n"
            "end\n"
        )

    def test_in_place_rewrite_with_old_mtime_is_a_miss(self, interleaved):
        before = _tables(_walked(interleaved, cached=True))
        stat = interleaved.stat()
        # file times may tick as coarsely as the kernel clock: a rewrite
        # within the tick of the last change would keep the change time
        time.sleep(0.05)
        # thread 9's poll closes 10 ns later: same size, same counts
        changed = _INTERLEAVED.replace("\nX\t40\t1\t2\n", "\nX\t50\t1\t2\n", 1)
        interleaved.write_text(_HEADER + changed)
        os.utime(interleaved, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        again = interleaved.stat()
        assert (again.st_size, again.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        after = _tables(_walked(interleaved, cached=True))
        assert after != before
        assert after == _tables(_walked(interleaved))
        assert _tables(_read_from_rows(interleaved)) == after

    @pytest.mark.parametrize(
        "damage",
        [
            "garbage", "truncated", "version", "key", "counts",
            "bad-row", "no-end", "not-utf8", "empty",
        ],
    )
    def test_bad_rows_file_is_a_miss_and_rewritten(self, interleaved, damage):
        expected = _tables(_walked(interleaved, cached=True))
        rows = rows_path(interleaved)
        good = rows.read_bytes()
        size = str(interleaved.stat().st_size).encode()
        bad = {
            "garbage": b"not a rows file\n",
            "truncated": good[: len(good) // 2],
            "version": good.replace(b"planeprof-rows 1", b"planeprof-rows 2"),
            "key": good.replace(b"key\t" + size, b"key\t" + str(int(size) + 1).encode()),
            "counts": good.replace(b"\t15\t0\n", b"\t14\t0\n", 1),
            "bad-row": good.replace(b"\t2\t1\t20\t20\n", b"\t2\t1\t20\t+20\n"),
            "no-end": good.replace(b"end\n", b""),
            "not-utf8": good.replace(b"work", b"w\xffrk"),
            "empty": b"",
        }[damage]
        assert bad != good
        rows.write_bytes(bad)
        with DumpStream(interleaved) as stream:
            calls = []
            records = stream.records
            stream.records = lambda: calls.append(1) or records()
            assert _tables(walk_cached(stream)) == expected
        assert calls == [1]
        assert rows.read_bytes() == good
        assert _tables(_read_from_rows(interleaved)) == expected

    def test_torn_dump_with_old_rows_file_fails_as_before(self, interleaved):
        _walked(interleaved, cached=True)
        data = interleaved.read_bytes()
        interleaved.write_bytes(data[: data.index(b"end_events")])
        with pytest.raises(DumpFormatError, match="unterminated event section"):
            _walked(interleaved, cached=True)
