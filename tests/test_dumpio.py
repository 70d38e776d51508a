"""Dump files: round trip, stable layout, violation records."""

from __future__ import annotations

import dataclasses
import tempfile
import threading
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import site
from planeprof.instrument.dumpio import (
    DumpFormatError,
    DumpInfo,
    DumpMeta,
    DumpStream,
    DumpWriter,
    read_dump,
    read_dump_info,
    write_dump,
    write_records,
)
from planeprof.instrument.events import (
    CodeSite,
    EventKind,
    NestingViolation,
    ProfileEvent,
    SiteKind,
)
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.instrument.recorder import ClockCalibration

CAL = ClockCalibration(90, 8000, 1_000_000, 1500)
META = DumpMeta(
    run_id="run-77",
    entity="host-z1s1h1",
    role="host_node",
    pid=4242,
    scenario="tiny",
    seed=7,
    levels=("coarse", "function"),
    scale_factor=0.01,
)


def sample_events():
    f = site("poll_wait", SiteKind.REGION)
    return [
        ProfileEvent(1, f, EventKind.ENTER, 1000, 10, tag="poll"),
        ProfileEvent(1, f, EventKind.EXIT, 2500, 12),
        ProfileEvent(
            2,
            site("spin"),
            EventKind.SAMPLE,
            3000,
            15,
            stack=(site("main"), site("spin")),
        ),
    ]


class TestRoundTrip:
    def test_full_roundtrip(self, tmp_path):
        violations = [
            NestingViolation(1, 999, site("oops", SiteKind.REGION), "exit without matching enter")
        ]
        coarse = CoarseBreakdown(1.5, 0.25, 0.125)
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events(), violations, coarse)
        dump = read_dump(path)
        assert dump.meta == META
        assert dump.calibration == CAL
        assert dump.events == sample_events()
        assert dump.violations == violations
        assert dump.coarse == coarse

    def test_no_coarse_footer(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, [])
        dump = read_dump(path)
        assert dump.coarse is None
        assert dump.events == []

    def test_field_order_is_stable(self, tmp_path):
        a = write_dump(tmp_path / "a.dump", META, CAL, sample_events())
        b = write_dump(tmp_path / "b.dump", META, CAL, sample_events())
        assert a.read_text() == b.read_text()

    def test_header_layout(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, [])
        lines = path.read_text().splitlines()
        assert lines[0] == "profile-dump 4"
        keys = [l.split(" ", 1)[0] for l in lines[1:13]]
        assert keys == [
            "run_id", "entity", "role", "pid", "scenario", "seed", "levels",
            "scale_factor", "wall_cost_ns", "cpu_cost_ns", "cpu_refresh_wall_ns",
            "pair_overhead_ns",
        ]
        assert lines[13] == "end_header"
        assert lines[14:] == ["end_events", "counts\t0\t0", "end_dump"]

    def test_event_section_layout(self, tmp_path):
        f = site("poll_wait", SiteKind.REGION)
        g = site("main")
        events = sample_events() + [
            ProfileEvent(3, g, EventKind.ENTER, 3100, 1),
            ProfileEvent(3, CodeSite(f.file, f.line, f.symbol, f.kind), EventKind.ENTER, 3200, 2),
            ProfileEvent(1, f, EventKind.ENTER, 3300, 16, tag="poll"),
        ]
        path = write_dump(tmp_path / "x.dump", META, CAL, events)
        lines = path.read_text().splitlines()
        # a block opens only for enters and exits, a (site, tag) pair is
        # defined once before its first use, equal pairs share a number, and
        # clocks are deltas from the thread's last enter or exit, which a
        # sample does not move
        assert lines[14:-3] == [
            "T\t1",
            "site\t0\tx.py\t971\tpoll_wait\tR\tpoll",
            "E\t1000\t10\t0",
            "site\t1\tx.py\t971\tpoll_wait\tR\t-",
            "X\t1500\t2\t1",
            "S\t2\t3000\t15\tx.py:421:main|x.py:442:spin",
            "T\t3",
            "site\t2\tx.py\t421\tmain\tF\t-",
            "E\t3100\t1\t2",
            "E\t100\t1\t1",
            "T\t1",
            "E\t800\t4\t0",
        ]
        assert lines[-3:] == ["end_events", "counts\t6\t0", "end_dump"]
        again = write_dump(tmp_path / "again.dump", META, CAL, read_dump(path).events)
        assert again.read_bytes() == path.read_bytes()

    def test_deltas_are_kept_per_thread_across_blocks(self, tmp_path):
        f = site("work")
        path = tmp_path / "x.dump"
        write_records(path, META, CAL, [
            (7, [("E", f, 1_000_000, 500, None)]),
            (3, [("E", f, 2_000_000, 900, None)]),
            (7, [("X", f, 1_000_250, 530, None)]),
            (3, [("X", f, 2_000_040, 901, None)]),
        ])
        assert path.read_text().splitlines()[14:-3] == [
            "T\t7",
            "site\t0\tx.py\t451\twork\tF\t-",
            "E\t1000000\t500\t0",
            "T\t3",
            "E\t2000000\t900\t0",
            "T\t7",
            "X\t250\t30\t0",
            "T\t3",
            "X\t40\t1\t0",
        ]
        with DumpStream(path) as stream:
            assert [(r[0], r[2], r[3], r[5]) for r in stream.records()] == [
                ("E", 1_000_000, 500, 7),
                ("E", 2_000_000, 900, 3),
                ("X", 1_000_250, 530, 7),
                ("X", 2_000_040, 901, 3),
            ]

    def test_negative_delta_round_trips(self, tmp_path):
        f = site("work")
        events = [
            ProfileEvent(1, f, EventKind.ENTER, 5000, 70),
            ProfileEvent(1, f, EventKind.EXIT, 4000, 60),
        ]
        path = write_dump(tmp_path / "x.dump", META, CAL, events)
        assert path.read_text().splitlines()[16:-3] == ["E\t5000\t70\t0", "X\t-1000\t-10\t0"]
        assert read_dump(path).events == events
        again = write_dump(tmp_path / "again.dump", META, CAL, read_dump(path).events)
        assert again.read_bytes() == path.read_bytes()

    def test_one_site_with_two_tags_gets_two_numbers(self, tmp_path, recorder):
        where = site("poll_wait", SiteKind.REGION)
        for tag in ("a", "b", "a"):
            with recorder.region(where, tag=tag):
                pass
        path = write_records(tmp_path / "x.dump", META, CAL, recorder.records())
        lines = path.read_text().splitlines()
        assert [l for l in lines if l.startswith("site\t")] == [
            "site\t0\tx.py\t971\tpoll_wait\tR\ta",
            "site\t1\tx.py\t971\tpoll_wait\tR\t-",
            "site\t2\tx.py\t971\tpoll_wait\tR\tb",
        ]
        numbers = [l.rsplit("\t", 1)[1] for l in lines if l[:2] in ("E\t", "X\t")]
        assert numbers == ["0", "1", "2", "1", "0", "1"]
        with DumpStream(path) as stream:
            records = list(stream.records())
        assert [r[4] for r in records] == ["a", None, "b", None, "a", None]
        assert len({id(r[1]) for r in records}) == 1  # still one site object

    def test_info_reads_header_and_footer(self, tmp_path):
        violations = [NestingViolation(1, 999, site("oops", SiteKind.REGION), "detail")]
        coarse = CoarseBreakdown(1.5, 0.25, 0.125)
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events(), violations, coarse)
        lines = path.read_text().splitlines()
        assert lines[-4:] == ["end_events", "counts\t3\t1", "coarse\t1.5\t0.25\t0.125", "end_dump"]
        assert read_dump_info(path) == DumpInfo(META, CAL, 3, 1, coarse)
        bare = write_dump(tmp_path / "bare.dump", META, CAL, [])
        assert read_dump_info(bare) == DumpInfo(META, CAL, 0, 0, None)

    def test_recorder_records_match_materialized_events(self, tmp_path, recorder):
        outer = site("outer")
        inner = site("inner", SiteKind.REGION)
        recorder.enter(outer)
        with recorder.region(inner, tag="poll"):
            pass
        recorder.record_sample(7, (outer, inner), 5, 6)
        recorder.exit(outer)
        recorder.exit(inner)  # unmatched: a violation
        worker = threading.Thread(target=recorder.enter, args=(outer,))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        raw = write_records(
            tmp_path / "raw.dump", META, CAL, recorder.records(), recorder.violations
        )
        materialized = write_dump(
            tmp_path / "events.dump", META, CAL, recorder.events(), recorder.violations
        )
        assert raw.read_bytes() == materialized.read_bytes()
        assert read_dump_info(raw) == DumpInfo(META, CAL, len(recorder.events()), 1)

    def test_tabs_in_symbols_are_sanitized(self, tmp_path):
        weird = CodeSite("a\tb.py", 1, "fn\nwith newline", SiteKind.FUNCTION)
        events = [
            ProfileEvent(1, weird, EventKind.ENTER, 1, 1),
            ProfileEvent(1, weird, EventKind.EXIT, 2, 2),
        ]
        path = write_dump(tmp_path / "x.dump", META, CAL, events)
        dump = read_dump(path)
        assert dump.events[0].site.file == "a b.py"
        assert dump.events[0].site.symbol == "fn with newline"

    def test_tabs_in_tags_are_sanitized(self, tmp_path, recorder):
        where = site("poll_wait", SiteKind.REGION)
        with recorder.region(where, tag="a\tb"):
            pass
        with recorder.region(where, tag="line\nbreak"):
            pass
        path = write_records(tmp_path / "x.dump", META, CAL, recorder.records())
        assert [e.tag for e in read_dump(path).events] == ["a b", None, "line break", None]
        with DumpStream(path) as stream:
            assert [r[4] for r in stream.records()] == ["a b", None, "line break", None]


class TestErrors:
    def test_not_a_dump(self, tmp_path):
        path = tmp_path / "bad.dump"
        path.write_text("hello\n")
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_truncated_events(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        text = path.read_text().replace("end_events\n", "").replace("end_dump\n", "")
        path.write_text(text)
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_unknown_record_kind(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, [])
        text = path.read_text().replace("end_events", "Q\t1\t2\nend_events")
        path.write_text(text)
        with pytest.raises(DumpFormatError):
            read_dump(path)

    def test_counts_mismatch(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        path.write_text(path.read_text().replace("counts\t3\t0", "counts\t4\t0"))
        with pytest.raises(DumpFormatError, match="footer counts 4 events"):
            read_dump(path)

    def test_missing_counts_footer(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        path.write_text(path.read_text().replace("counts\t3\t0\n", ""))
        for reader in (read_dump, read_dump_info):
            with pytest.raises(DumpFormatError, match="missing counts footer"):
                reader(path)

    def test_version_1_is_rejected(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        path.write_text(path.read_text().replace("profile-dump 4", "profile-dump 1", 1))
        for reader in (read_dump, read_dump_info):
            with pytest.raises(DumpFormatError, match="'profile-dump 1'"):
                reader(path)

    def test_version_2_is_rejected(self, tmp_path):
        path = tmp_path / "v2.dump"
        path.write_text(
            "profile-dump 2\nrun_id r\nentity e\nend_header\n"
            "E\t1\t1000\t10\tf.py\t1\tpoll_wait\tR\tpoll\n"
            "X\t1\t2500\t12\tf.py\t1\tpoll_wait\tR\t-\n"
            "end_events\ncounts\t2\t0\nend_dump\n"
        )
        for reader in (read_dump, read_dump_info, DumpStream):
            with pytest.raises(DumpFormatError) as info:
                reader(path)
            assert str(info.value) == (
                f"{path}: unsupported dump format 'profile-dump 2'; expected 'profile-dump 4'"
            )

    def test_version_3_is_rejected(self, tmp_path):
        path = tmp_path / "v3.dump"
        path.write_text(
            "profile-dump 3\nrun_id r\nentity e\nend_header\n"
            "T\t1\nsite\t0\tf.py\t1\tpoll_wait\tR\n"
            "E\t1000\t10\t0\tpoll\nX\t2500\t12\t0\t-\n"
            "end_events\ncounts\t2\t0\nend_dump\n"
        )
        for reader in (read_dump, read_dump_info, DumpStream):
            with pytest.raises(DumpFormatError) as info:
                reader(path)
            assert str(info.value) == (
                f"{path}: unsupported dump format 'profile-dump 3'; expected 'profile-dump 4'"
            )

    @pytest.mark.parametrize(
        "bad, needle",
        [
            ("E\t1", "line 15: malformed 'E' record"),
            ("X\t1\tnot-a-time\t12\tf.py\t1\tpoll_wait\tR\t-", "line 15: malformed 'X' record"),
            ("S\t2\t3000\t15\t", "line 15: malformed 'S' record"),
            ("V\t1\t2\tf.py\t1\tsym\tQ\tdetail", "line 15: malformed 'V' record"),
            (
                "T\t1\nsite\t0\tf.py\t1\tpoll_wait\tR\t-\nX\tnot-a-time\t12\t0",
                "line 17: malformed 'X' record",
            ),
            ("T\tone", "line 15: malformed 'T' record"),
            ("T\t1\nsite\t0\tf.py\t1\tpoll_wait", "line 16: malformed 'site' record"),
            ("site\tzero\tf.py\t1\tpoll_wait\tR\t-", "line 15: malformed 'site' record"),
            (
                "site\t0\tf.py\t1\tpoll_wait\tR\t-\nE\t1000\t10\t0",
                "line 16: 'E' before any T line",
            ),
            (
                "T\t1\nsite\t0\tf.py\t1\tpoll_wait\tR\t-\nE\t1000\t10\t1",
                "line 17: unknown site number '1'",
            ),
            (
                "T\t1\nsite\t0\tf.py\t1\tpoll_wait\tR\t-\nE\t1000\t10\t0\n"
                "site\t0\tf.py\t2\tother\tF\t-",
                "line 18: site '0' defined twice",
            ),
            ("T\t1\nsite\t0\tf.py\t1\tpoll_wait\tR\t-\nE\t1000\t10\t0\t-",
             "line 17: malformed 'E' record"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, bad, needle):
        path = write_dump(tmp_path / "x.dump", META, CAL, [])
        path.write_text(path.read_text().replace("end_events", f"{bad}\nend_events"))
        with pytest.raises(DumpFormatError) as info:
            read_dump(path)
        assert str(info.value).startswith(f"{path}: {needle}")

    def test_torn_dump(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\nX\t") + 4])
        with pytest.raises(DumpFormatError, match=r"x\.dump: line 19: malformed 'X' record"):
            read_dump(path)
        with pytest.raises(DumpFormatError, match="no end_events"):
            read_dump_info(path)


class TestStream:
    def test_records_carry_the_recorder_layout(self, tmp_path):
        f = site("poll_wait", SiteKind.REGION)
        events = sample_events() + [
            ProfileEvent(1, f, EventKind.ENTER, 4000, 20),
            ProfileEvent(1, f, EventKind.EXIT, 4500, 21),
        ]
        path = write_dump(tmp_path / "x.dump", META, CAL, events)
        with DumpStream(path) as stream:
            assert (stream.meta, stream.calibration) == (META, CAL)
            records = list(stream.records())
        assert records[0] == ("E", f, 1000, 10, "poll", 1, None)
        assert records[1] == ("X", f, 2500, 12, None, 1, None)
        stack = (site("main"), site("spin"))
        assert records[2] == ("S", site("spin"), 3000, 15, None, 2, stack)
        # equal sites are one object, so the walk may compare them with ``is``
        assert records[0][1] is records[1][1] is records[3][1] is records[4][1]
        assert records[2][1] is records[2][6][-1]

    @pytest.mark.parametrize(
        "edit, needle",
        [
            # lines 15-20 are T, site, E, site, X and S; the edits go in
            # before the second site line
            (("\nsite\t1\t", "\nE\t1\t2\nsite\t1\t"), "line 18: malformed 'E' record"),
            (("\nsite\t1\t", "\nE\nsite\t1\t"), "line 18: malformed 'E' record"),
            (("\nsite\t1\t", "\nQ\t1\t2\nsite\t1\t"), "line 18: unknown event record 'Q'"),
            (("counts\t3\t0", "counts\t4\t0"), "line 22: footer counts 4 events"),
            (("\nsite\t1\t", "\nE\t1\t2\t7\nsite\t1\t"), "line 18: unknown site number '7'"),
        ],
    )
    def test_streamed_errors_name_file_and_line(self, tmp_path, edit, needle):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        path.write_text(path.read_text().replace(*edit))
        with DumpStream(path) as stream:
            with pytest.raises(DumpFormatError) as info:
                for _ in stream.records():
                    pass
        assert str(info.value).startswith(f"{path}: {needle}")

    def test_counts_are_checked_before_the_stream_ends(self, tmp_path):
        path = write_dump(tmp_path / "x.dump", META, CAL, sample_events())
        path.write_text(path.read_text().replace("counts\t3\t0", "counts\t2\t0"))
        seen = []
        with DumpStream(path) as stream:
            with pytest.raises(DumpFormatError, match="footer counts 2 events"):
                seen.extend(stream.records())
        assert len(seen) == 3  # every record came out, and then the check failed


_SITES = [
    site("work"),
    site("poll_wait", SiteKind.REGION),
    site("main"),
    CodeSite("y.py", 3, "work", SiteKind.FUNCTION),  # same symbol, another site
]
_CLOCK = st.integers(min_value=-10**6, max_value=10**12)  # deltas may be negative
_ENTER_EXIT = st.tuples(
    st.sampled_from(["E", "X"]),
    st.sampled_from(_SITES),
    _CLOCK,
    _CLOCK,
    st.sampled_from([None, "poll", "a b"]),
)
_SAMPLE = st.builds(
    lambda stack, wall, cpu, subject: ("S", stack[-1], wall, cpu, None, subject, tuple(stack)),
    st.lists(st.sampled_from(_SITES), min_size=1, max_size=3),
    _CLOCK,
    _CLOCK,
    st.sampled_from([1, 2]),
)
_VIOLATIONS = [NestingViolation(1, 999, site("oops", SiteKind.REGION), "detail")]
_COARSE = CoarseBreakdown(1.5, 0.25, 0.125)


def _batches(items, data):
    """``items`` cut at points drawn from ``data``; empty batches included."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _fresh(rec):
    """``rec`` with a new site object of equal value."""
    return (rec[0], dataclasses.replace(rec[1]), *rec[2:])


class TestDumpWriter:
    @settings(max_examples=80, deadline=None)
    @given(
        records=st.lists(st.one_of(_ENTER_EXIT, _ENTER_EXIT, _SAMPLE), max_size=40),
        fresh_sites=st.booleans(),
        data=st.data(),
    )
    def test_batches_of_one_thread_match_one_shot(self, records, fresh_sites, data):
        with tempfile.TemporaryDirectory() as tmp:
            self._batches_of_one_thread_match_one_shot(Path(tmp), records, fresh_sites, data)

    @staticmethod
    def _batches_of_one_thread_match_one_shot(tmp_path, records, fresh_sites, data):
        one_shot = write_records(
            tmp_path / "one.dump", META, CAL, [(7, records)], _VIOLATIONS, _COARSE
        )
        writer = DumpWriter(tmp_path / "batched.dump", META, CAL)
        for batch in _batches(records, data):
            if fresh_sites:
                # each batch's sites are freed after it is written, so their
                # ids may come back for other sites in a later batch
                batch = [_fresh(rec) for rec in batch]
            writer.write([(7, batch)])
            del batch
        batched = writer.close(_VIOLATIONS, _COARSE)
        assert batched.read_bytes() == one_shot.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(
        records=st.lists(
            st.tuples(st.sampled_from([1, 2, 3]), _ENTER_EXIT), max_size=40
        ),
        data=st.data(),
    )
    def test_interleaved_threads_read_back_per_thread(self, records, data):
        with tempfile.TemporaryDirectory() as tmp:
            self._interleaved_threads_read_back_per_thread(Path(tmp), records, data)

    @staticmethod
    def _interleaved_threads_read_back_per_thread(tmp_path, records, data):
        writer = DumpWriter(tmp_path / "x.dump", META, CAL)
        for batch in _batches(records, data):
            writer.write(
                [(t, [rec for _, rec in run]) for t, run in groupby(batch, key=lambda r: r[0])]
            )
        path = writer.close()
        expected = {t: [rec for u, rec in records if u == t] for t in (1, 2, 3)}
        seen = {t: [] for t in (1, 2, 3)}
        with DumpStream(path) as stream:
            for code, where, wall, cpu, tag, thread, _ in stream.records():
                seen[thread].append((code, where, wall, cpu, tag))
        assert seen == expected
        assert read_dump_info(path).events == len(records)

    def test_freed_site_does_not_lend_its_number(self, tmp_path):
        writer = DumpWriter(tmp_path / "x.dump", META, CAL)
        for i in range(50):
            # the site and its batch are freed once written: the next site
            # is likely to be allocated where this one was
            where = CodeSite("x.py", i, f"fn{i}", SiteKind.FUNCTION)
            writer.write([(1, [("E", where, 2 * i, 0, None), ("X", where, 2 * i + 1, 0, None)])])
            del where
        path = writer.close()
        with DumpStream(path) as stream:
            symbols = [rec[1].symbol for rec in stream.records()]
        assert symbols == [f"fn{i}" for i in range(50) for _ in range(2)]

    def test_dump_is_named_only_once_closed(self, tmp_path):
        path = tmp_path / "x.dump"
        part = tmp_path / "x.dump.part"
        writer = DumpWriter(path, META, CAL)
        writer.write([(1, [("E", site("work"), 10, 1, None)])])
        assert part.exists() and not path.exists()
        assert writer.close() == path
        assert path.exists() and not part.exists()
        discarded = DumpWriter(tmp_path / "y.dump", META, CAL)
        discarded.write([(1, [("E", site("work"), 10, 1, None)])])
        discarded.discard()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.dump"]
