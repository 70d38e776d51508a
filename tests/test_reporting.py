"""Rendering: golden tables, lossless exports, ordering rules."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import stream
from planeprof.analysis.categories import TimeCategory
from planeprof.analysis.hotspots import RECOMMENDATIONS, HotspotFinding, compare, find_hotspots
from planeprof.instrument.dumpio import DumpMeta, write_dump
from planeprof.instrument.events import CodeSite, SiteKind
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.instrument.recorder import ClockCalibration
from planeprof.model.stats import (
    FunctionProfile,
    FunctionStats,
    RegionProfile,
    RegionStats,
    ThreadStats,
)
from planeprof.reporting.exports import (
    ExportFormatError,
    export_csv,
    export_json,
    import_csv,
    import_json,
)
from planeprof.reporting.summary import render_summary, write_dump_index
from planeprof.reporting.tables import (
    FUNCTION_HEADER,
    LINE_HEADER,
    THREAD_HEADER,
    InvalidSortKey,
    ReportFormat,
    ReportKind,
    ReportSpec,
    render,
)

GOLDENS = Path(__file__).parent / "goldens"
MS = 1_000_000


def fsite(file, line, symbol, kind=SiteKind.FUNCTION):
    return CodeSite(file, line, symbol, kind)


def golden_function_profile() -> FunctionProfile:
    profile = FunctionProfile(run_id="golden", scenario="idle-shape")
    rows = [
        (fsite("testbed/orchestrator.py", 1, "run_scenario"), 1, 1, 1 * MS, 77_621 * MS, None),
        (fsite("testbed/orchestrator.py", 5, "start_all_phases"), 1, 1, 849 * MS, 77_613 * MS, None),
        (fsite("testbed/entity.py", 10, "poll_wait", SiteKind.REGION),
         111_580, 111_580, 59_322 * MS, 59_322 * MS, "poll"),
        (fsite("testbed/orchestrator.py", 90, "sleep", SiteKind.REGION),
         3, 3, 15_010 * MS, 15_010 * MS, "sleep"),
        (fsite("testbed/orchestrator.py", 25, "start_hosts"), 1, 1, 1 * MS, 5_183 * MS, None),
        (fsite("testbed/orchestrator.py", 22, "start_name_server"), 1, 1, 0, 5_010 * MS, None),
        (fsite("testbed/orchestrator.py", 21, "start_global_controller"), 1, 1, 0, 5_009 * MS, None),
        (fsite("testbed/entity.py", 11, "handle_message", SiteKind.REGION),
         3106, 3106, 13 * MS, 1_065 * MS, None),
    ]
    for site, nc, np_, tot, cum, tag in rows:
        profile.rows[site] = FunctionStats(site, nc, np_, tot, cum, tag)
    return profile


def golden_region_profile() -> RegionProfile:
    scope = fsite("testbed/orchestrator.py", 21, "start_global_controller")
    region = RegionProfile(scope=scope, scope_time_ns=5_085_870_000)
    for site, hits, t in [
        (fsite("testbed/orchestrator.py", 10, "spawn_entity", SiteKind.REGION), 1, 6_597_000),
        (fsite("testbed/orchestrator.py", 90, "sleep", SiteKind.REGION), 1, 5_002_929_000),
    ]:
        region.rows[site] = RegionStats(site, hits, t, 100.0 * t / region.scope_time_ns)
    return region


def golden_thread_rows() -> list[ThreadStats]:
    return [
        ThreadStats("101", fsite("testbed/entity.py", 20, "global_manager_main"),
                    1, 1_244_000, 770 * MS),
        ThreadStats("101", fsite("testbed/entity.py", 10, "poll_wait", SiteKind.REGION),
                    65_625, 333_069_000, 333_069_000),
        ThreadStats("102", fsite("testbed/entity.py", 26, "client_host_main"),
                    1, 372_231_000, 983_090_000),
    ]


def golden_changed_profile() -> FunctionProfile:
    """The golden profile after a change that polls more and sleeps longer."""
    profile = golden_function_profile()
    poll = fsite("testbed/entity.py", 10, "poll_wait", SiteKind.REGION)
    sleep = fsite("testbed/orchestrator.py", 90, "sleep", SiteKind.REGION)
    profile.rows[poll] = FunctionStats(poll, 120_004, 120_004, 64_511 * MS, 64_511 * MS, "poll")
    profile.rows[sleep] = FunctionStats(sleep, 4, 4, 20_013 * MS, 20_013 * MS, "sleep")
    return profile


def golden_findings() -> list[HotspotFinding]:
    """Ranked findings plus one without a dominant site."""
    return find_hotspots(golden_function_profile(), 5.0) + [
        HotspotFinding(TimeCategory.OTHER, None, 0.25, (), RECOMMENDATIONS[TimeCategory.OTHER])
    ]


# the kinds whose csv holds every field, so import_csv reads them back
CSV_KINDS = [
    ReportKind.FUNCTION_TABLE,
    ReportKind.LINE_TABLE,
    ReportKind.THREAD_TABLE,
    ReportKind.COARSE_TABLE,
]
GOLDEN_DATA = {
    ReportKind.FUNCTION_TABLE: golden_function_profile,
    ReportKind.LINE_TABLE: golden_region_profile,
    ReportKind.THREAD_TABLE: golden_thread_rows,
    ReportKind.COARSE_TABLE: lambda: {
        "gc": CoarseBreakdown(44.15, 0.64, 1.05),
        "client-1": CoarseBreakdown(1.0318, 0.046, 0.0139),
    },
    ReportKind.HOTSPOT_REPORT: golden_findings,
    ReportKind.COMPARE_REPORT: lambda: compare(golden_function_profile(), golden_changed_profile()),
}


class TestGoldens:
    def test_function_table_matches_golden_byte_for_byte(self):
        out = render(golden_function_profile(), ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        assert out == (GOLDENS / "function_table.txt").read_text()

    def test_line_table_matches_golden_byte_for_byte(self):
        out = render(golden_region_profile(), ReportSpec(kind=ReportKind.LINE_TABLE))
        assert out == (GOLDENS / "line_table.txt").read_text()

    def test_thread_table_matches_golden_byte_for_byte(self):
        out = render(golden_thread_rows(), ReportSpec(kind=ReportKind.THREAD_TABLE))
        assert out == (GOLDENS / "thread_table.txt").read_text()

    def test_headers_pinned(self):
        assert FUNCTION_HEADER == (
            "   ncalls  tottime  percall  cumtime  percall filename:lineno(function)"
        )
        assert LINE_HEADER == (
            "Line #      Hits         Time  Per Hit   % Time  Line Contents"
        )
        assert THREAD_HEADER.split() == ["name", "ncall", "tsub", "ttot", "tavg"]

    def test_poll_row_sorts_above_sleep_row(self):
        out = render(golden_function_profile(), ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        lines = out.splitlines()
        poll_at = next(i for i, l in enumerate(lines) if "poll_wait" in l)
        sleep_at = next(i for i, l in enumerate(lines) if "(sleep)" in l)
        assert poll_at < sleep_at  # 59.322 cumtime above 15.010

    def test_totals_line_shape(self):
        out = render(golden_function_profile(), ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        first = out.splitlines()[0]
        assert first.endswith("seconds")
        assert "function calls (" in first and "primitive calls)" in first


class TestRenderRules:
    def test_empty_profile_renders_header_only(self):
        out = render(FunctionProfile(), ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        lines = out.splitlines()
        assert lines[-1] == FUNCTION_HEADER

    def test_top_n_limits_data_rows(self):
        out = render(
            golden_function_profile(),
            ReportSpec(kind=ReportKind.FUNCTION_TABLE, top_n=3),
        )
        lines = out.splitlines()
        header_at = lines.index(FUNCTION_HEADER)
        assert len(lines) - header_at - 1 == 3

    def test_invalid_sort_key(self):
        with pytest.raises(InvalidSortKey):
            render(
                golden_function_profile(),
                ReportSpec(kind=ReportKind.FUNCTION_TABLE, sort_key="zorp"),
            )
        with pytest.raises(InvalidSortKey):
            render(golden_thread_rows(), ReportSpec(kind=ReportKind.THREAD_TABLE, sort_key="cumtime"))

    def test_equal_keys_keep_input_order(self):
        profile = FunctionProfile()
        for i in range(5):
            site = fsite("x.py", i, f"same_{i}")
            profile.rows[site] = FunctionStats(site, 1, 1, 100, 100)
        out = render(profile, ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        data = [l for l in out.splitlines() if "same_" in l]
        assert [f"same_{i}" in l for i, l in enumerate(data)] == [True] * 5

    def test_kind_type_mismatch(self):
        with pytest.raises(TypeError):
            render(golden_thread_rows(), ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        with pytest.raises(TypeError):
            render(golden_function_profile(), ReportSpec(kind=ReportKind.LINE_TABLE))

    def test_coarse_table_render(self):
        out = render(
            {"gc": CoarseBreakdown(44.15, 0.64, 1.05)},
            ReportSpec(kind=ReportKind.COARSE_TABLE),
        )
        assert "96.17" in out and "1.45" in out and "2.38" in out

    def test_hotspot_render_ranks(self):
        findings = find_hotspots(golden_function_profile(), min_share_pct=5.0)
        out = render(findings, ReportSpec(kind=ReportKind.HOTSPOT_REPORT))
        lines = out.splitlines()
        first_rank = next(l for l in lines if l.strip().startswith("1"))
        assert "io_wait_poll" in first_rank

    def test_compare_render(self):
        a = golden_function_profile()
        out = render(compare(a, a), ReportSpec(kind=ReportKind.COMPARE_REPORT))
        assert "regressions" not in out
        assert "io_wait_poll" in out


class TestExports:
    @pytest.mark.parametrize("kind", list(ReportKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_export_matches_golden(self, kind, suffix):
        export = export_csv if suffix == "csv" else export_json
        golden = GOLDENS / "exports" / f"{kind.value}.{suffix}"
        assert export(GOLDEN_DATA[kind](), kind) == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("kind", CSV_KINDS, ids=lambda k: k.value)
    def test_csv_roundtrip_exact(self, kind):
        data = GOLDEN_DATA[kind]()
        text = export_csv(data, kind)
        back = import_csv(text, kind)
        assert export_csv(back, kind) == text
        # every field the csv holds comes back with its value and type
        before, after = (json.loads(export_json(d, kind)) for d in (data, back))
        assert after["rows"] == before["rows"]
        if kind is ReportKind.LINE_TABLE:
            assert after["meta"] == before["meta"]

    @pytest.mark.parametrize(
        "kind", [ReportKind.HOTSPOT_REPORT, ReportKind.COMPARE_REPORT], ids=lambda k: k.value
    )
    def test_csv_without_every_field_is_not_imported(self, kind):
        with pytest.raises(ExportFormatError):
            import_csv(export_csv(GOLDEN_DATA[kind](), kind), kind)

    def test_csv_of_another_kind_is_not_imported(self):
        text = export_csv(golden_thread_rows(), ReportKind.THREAD_TABLE)
        with pytest.raises(ExportFormatError):
            import_csv(text, ReportKind.FUNCTION_TABLE)

    def test_structured_roundtrip_renders_byte_identical(self):
        profile = golden_function_profile()
        doc = export_json(profile, ReportKind.FUNCTION_TABLE)
        kind, back = import_json(doc)
        assert kind is ReportKind.FUNCTION_TABLE
        spec = ReportSpec(kind=ReportKind.FUNCTION_TABLE)
        assert render(back, spec) == render(profile, spec)
        # and the export itself is stable
        assert export_json(back, ReportKind.FUNCTION_TABLE) == doc

    def test_structured_roundtrip_other_kinds(self):
        for kind in ReportKind:
            if kind is ReportKind.FUNCTION_TABLE:
                continue
            data = GOLDEN_DATA[kind]()
            doc = export_json(data, kind)
            loaded, back = import_json(doc)
            assert loaded is kind
            assert export_json(back, kind) == doc
            spec = ReportSpec(kind=kind)
            assert render(back, spec) == render(data, spec)

    def test_csv_format_through_render(self):
        out = render(
            golden_function_profile(),
            ReportSpec(kind=ReportKind.FUNCTION_TABLE, format=ReportFormat.CSV),
        )
        assert out.splitlines()[0].startswith("file,line,symbol")


class TestSummaryAndIndex:
    @pytest.fixture
    def synthetic_run(self, tmp_path):
        run = tmp_path / "run-x"
        dumps = run / "dumps"
        dumps.mkdir(parents=True)
        cal = ClockCalibration(90, 8000, 1_000_000, 1500)
        for name, role in [("gc", "global_controller"), ("ns", "name_server")]:
            write_dump(
                dumps / f"{name}.dump",
                DumpMeta(run_id="run-x", entity=name, role=role, pid=1),
                cal,
                [],
                coarse=CoarseBreakdown(1.0, 0.25, 0.125),
            )
        (run / "timeline.txt").write_text("IDLE\t0.0\t0.000000\n", encoding="utf-8")
        return run

    def test_write_dump_index(self, synthetic_run):
        index = write_dump_index(synthetic_run / "dumps")
        lines = index.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3
        assert lines[1].split("\t")[:3] == ["gc.dump", "gc", "global_controller"]

    def test_index_is_idempotent(self, synthetic_run):
        a = write_dump_index(synthetic_run / "dumps").read_text()
        b = write_dump_index(synthetic_run / "dumps").read_text()
        assert a == b

    def test_render_summary(self, synthetic_run):
        out = render_summary(synthetic_run)
        assert "run-x" in out
        assert "gc" in out and "ns" in out
        assert "bootstrap timeline:" in out
        assert "global_controller=1" in out

    def test_summary_deterministic(self, synthetic_run):
        assert render_summary(synthetic_run) == render_summary(synthetic_run)

    def test_summary_reports_calibration_and_self_cost(self, synthetic_run):
        dumps = synthetic_run / "dumps"
        events = stream(("enter", "main", 0), ("exit", "main", 10),
                        ("enter", "main", 20), ("exit", "main", 30))
        write_dump(
            dumps / "orchestrator.dump",
            DumpMeta(run_id="run-x", entity="orchestrator", role="global_manager"),
            ClockCalibration(90, 8000, 1_000_000, 1500),
            events,
            coarse=CoarseBreakdown(1.0, 0.000008, 0.000002),
        )
        write_dump(
            dumps / "hand.dump",
            DumpMeta(run_id="run-x", entity="hand", role="host_node"),
            ClockCalibration(90, 400, 0, 1200),
            [],
        )
        lines = render_summary(synthetic_run).splitlines()
        # two pairs at 1500 ns against 10 us of CPU, not the 1 s elapsed
        assert [l for l in lines if l.startswith("  orchestrator")][0].endswith(
            "self_cost_of_cpu=30.00%"
        )
        assert [l for l in lines if l.startswith("  gc")][0].endswith("self_cost_of_cpu=0.00%")
        assert lines[-2:] == [
            "calibration: wall_cost_ns=90 cpu_cost_ns=8000 cpu_refresh_wall_ns=1000000 "
            "pair_overhead_ns=1500",
            "  hand.dump differs: wall_cost_ns=90 cpu_cost_ns=400 cpu_refresh_wall_ns=0 "
            "pair_overhead_ns=1200",
        ]
