"""Record semantics of the profiler's value types: immutable, equal by value,
and checked on every construction path."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from planeprof.analysis.categories import CategoryBreakdown, CategoryRules, TimeCategory
from planeprof.analysis.hotspots import CategoryDelta, CompareReport, HotspotFinding, SiteDelta
from planeprof.analysis.percentages import CoarsePercentages, ShareReport
from planeprof.cli import EXIT_CONFIG, main
from planeprof.instrument.dumpio import Dump, DumpInfo, DumpMeta
from planeprof.instrument.events import (
    ClockCalibration,
    CodeSite,
    EventKind,
    NestingViolation,
    ProfileEvent,
    SiteKind,
)
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.model.stats import (
    FunctionProfile,
    FunctionStats,
    RegionProfile,
    RegionStats,
    ThreadStats,
)
from planeprof.reporting.exports import export_json
from planeprof.reporting.tables import ReportKind, ReportSpec

SITE = CodeSite("x.py", 3, "f")
CAL = ClockCalibration(90, 8000, 1_000_000, 1500)
META = DumpMeta("run", "gc", "global_controller", 12, "quick", 7, ("coarse", "events"), 1.0)
STATS = FunctionStats(SITE, 2, 1, 10, 20)

FROZEN = {
    "CodeSite": SITE,
    "ProfileEvent": ProfileEvent(1, SITE, EventKind.ENTER, 5, 6),
    "NestingViolation": NestingViolation(1, 5, SITE, "exit without matching enter"),
    "ClockCalibration": CAL,
    "CoarseBreakdown": CoarseBreakdown(1.0, 0.5, 0.25),
    "DumpMeta": META,
    "DumpInfo": DumpInfo(META, CAL, 10, 0),
    "FunctionStats": STATS,
    "RegionStats": RegionStats(SITE, 1, 10, 50.0),
    "ThreadStats": ThreadStats("1", SITE, 1, 10, 20),
    "CoarsePercentages": CoarsePercentages(50.0, 25.0, 25.0),
    "ShareReport": ShareReport((10.0,), 10.0),
    "CategoryRules": CategoryRules((("poll", TimeCategory.IO_WAIT_POLL),)),
    "HotspotFinding": HotspotFinding(TimeCategory.OTHER, SITE, 50.0, (STATS,), "look"),
    "CategoryDelta": CategoryDelta(TimeCategory.OTHER, 1, 2),
    "SiteDelta": SiteDelta(SITE, 1, 2, 10, 20),
    "ReportSpec": ReportSpec(ReportKind.FUNCTION_TABLE),
}

# each check that a record makes, as (type, valid fields, the field set to a
# value that breaks it)
CHECKS = {
    "primitive-above-total": (FunctionStats, (SITE, 2, 1, 10, 20), "ncalls_primitive", 3),
    "negative-tottime": (FunctionStats, (SITE, 2, 1, 10, 20), "tottime_ns", -1),
    "cumtime-below-tottime": (FunctionStats, (SITE, 2, 1, 10, 20), "cumtime_ns", 9),
    "negative-hits": (RegionStats, (SITE, 1, 10, 50.0), "hits", -1),
    "pct-above-100": (RegionStats, (SITE, 1, 10, 50.0), "pct_time", 100.5),
    "ttot-below-tsub": (ThreadStats, ("1", SITE, 1, 10, 20), "ttot_ns", 9),
    "negative-user": (CoarseBreakdown, (1.0, 0.5, 0.25), "user_s", -0.1),
    "zero-share": (HotspotFinding, (TimeCategory.OTHER, SITE, 50.0, (), "look"), "share_pct", 0.0),
    "top-zero": (ReportSpec, (ReportKind.FUNCTION_TABLE, None, 5), "top_n", 0),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_fields_cannot_be_set(name):
    record = FROZEN[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert type(record)(*record) == record


@pytest.mark.parametrize(
    "make",
    [
        lambda: CodeSite("x.py", int("3"), "".join(["f"]), SiteKind.FUNCTION),
        lambda: DumpMeta("run", "gc", "global_controller", 12, "quick", 7,
                         tuple("coarse,events".split(",")), 1.0),
        lambda: ClockCalibration(*map(int, "90 8000 1000000 1500".split())),
    ],
    ids=["CodeSite", "DumpMeta", "ClockCalibration"],
)
def test_equal_values_give_equal_records_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != a._replace(**{a._fields[-1]: None})


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_construction_path_runs_the_check(check):
    cls, values, field, bad = CHECKS[check]
    good = cls(*values)
    broken = dict(zip(cls._fields, values), **{field: bad})
    with pytest.raises(ValueError):
        cls(**broken)
    with pytest.raises(ValueError):
        cls(*broken.values())
    with pytest.raises(ValueError):
        good._replace(**{field: bad})
    with pytest.raises(ValueError):
        cls._make(broken.values())


@pytest.mark.parametrize(
    "make",
    [
        lambda: FunctionProfile({SITE: STATS}, "run", sources=("gc",)),
        lambda: RegionProfile(SITE, 10, {SITE: RegionStats(SITE, 1, 10, 50.0)}),
        lambda: Dump(META, CAL, [ProfileEvent(1, SITE, EventKind.ENTER, 5, 6)]),
        lambda: CompareReport("quick", [CategoryDelta(TimeCategory.OTHER, 1, 2)], [], []),
        lambda: CategoryBreakdown(10, {TimeCategory.OTHER: 10}, {TimeCategory.OTHER: [STATS]}),
    ],
    ids=["FunctionProfile", "RegionProfile", "Dump", "CompareReport", "CategoryBreakdown"],
)
def test_mutable_records_compare_by_value(make):
    a, b = make(), make()
    assert a == b
    assert repr(a) == repr(b) and repr(a).startswith(f"{type(a).__name__}(")
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, a.__slots__[0], None)
    assert a != b
    assert b != tuple(getattr(b, name) for name in b.__slots__)


def test_export_row_that_fails_its_check_is_config_error(tmp_path, capsys):
    profile = FunctionProfile({SITE: STATS}, "run")
    doc = json.loads(export_json(profile, ReportKind.FUNCTION_TABLE))
    doc["rows"][0]["ncalls_primitive"] = doc["rows"][0]["ncalls_total"] + 1
    export = tmp_path / "edited.json"
    export.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["report", "--export", str(export), "--out", str(tmp_path / "t.txt")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {export}: ") and "primitive calls" in err
    assert not Path(tmp_path / "t.txt").exists()
