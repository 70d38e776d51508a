"""Lossless CSV and versioned structured (JSON) exports.

``_SCHEMAS`` holds one entry per report kind: a function that builds the
structured document from the data, one that rebuilds the data from it, and
the document list that holds the CSV rows, with a dotted path into a row for
each CSV column (a ``meta`` path reads the document's meta). A column's
header is its path without the ``meta`` and ``site`` steps, joined by ``_``.
Times stay integer nanoseconds and floats are written with ``repr``, so a
re-parse reproduces every numeric field exactly. The structured format is
also the merged-profile and findings file format. Hotspot and compare CSVs
leave fields out, so only their structured exports read back. Their types
are imported when one is read back, so the other kinds never load the
analysis modules.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Tuple

from planeprof.instrument.events import CodeSite, SiteKind
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.model.stats import (
    FunctionProfile,
    FunctionStats,
    RegionProfile,
    RegionStats,
    ThreadStats,
)
from planeprof.reporting.tables import ReportKind

if TYPE_CHECKING:
    from planeprof.analysis.hotspots import CompareReport

EXPORT_FORMAT = "planeprof-export"
EXPORT_VERSION = 1


class ExportFormatError(Exception):
    """The file is not a readable export."""


# what a malformed document or CSV raises while it is decoded
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, csv.Error)


# Fields that the exports write and read back under their attribute names: a
# name added to a tuple reaches every export and importer of that row type.
_SITE_PATHS = ("site.file", "site.line", "site.symbol")
_STATS = ("ncalls_total", "ncalls_primitive", "tottime_ns", "cumtime_ns")
_REGION = ("hits", "time_ns")
_THREAD = ("ncall", "tsub_ns", "ttot_ns")
_COARSE = ("elapsed_s", "user_s", "system_s")
_CATEGORY = ("before_ns", "after_ns")
_SITE_DELTA = ("ncalls_before", "ncalls_after", "tottime_before_ns", "tottime_after_ns")


def _pick(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _parse(d: dict, names, parse=int) -> dict:
    return {name: parse(d[name]) for name in names}


def _site_dict(site: CodeSite) -> dict:
    return {"file": site.file, "line": site.line, "symbol": site.symbol, "kind": site.kind.value}


def _site_from(d: dict, kind: SiteKind = SiteKind.FUNCTION) -> CodeSite:
    """``kind`` stands in where the export leaves the site kind out."""
    return CodeSite(d["file"], int(d["line"]), d["symbol"], SiteKind(d.get("kind", kind)))


def _stats_dict(s: FunctionStats) -> dict:
    return {"site": _site_dict(s.site), **_pick(s, _STATS)}


def _stats_from(d: dict) -> FunctionStats:
    return FunctionStats(site=_site_from(d["site"]), tag=d.get("tag") or None, **_parse(d, _STATS))


def _function_doc(profile: FunctionProfile) -> dict:
    return {
        "meta": {
            "run_id": profile.run_id,
            "scenario": profile.scenario,
            "scale_factor": profile.scale_factor,
            "sources": list(profile.sources),
            "wall_span_ns": profile.wall_span_ns,
        },
        "rows": [
            dict(_stats_dict(r), tag=r.tag)
            for r in sorted(profile.rows.values(), key=lambda r: r.site.label())
        ],
    }


def _function_data(doc: dict) -> FunctionProfile:
    meta = doc.get("meta", {})
    profile = FunctionProfile(
        run_id=meta.get("run_id", "-"),
        scenario=meta.get("scenario", "-"),
        scale_factor=float(meta.get("scale_factor", 1.0)),
        sources=tuple(meta.get("sources", ())),
        wall_span_ns=int(meta.get("wall_span_ns", 0)),
    )
    profile.rows.update((s.site, s) for s in map(_stats_from, doc["rows"]))
    return profile


def _region_doc(profile: RegionProfile) -> dict:
    return {
        "meta": {"scope": _site_dict(profile.scope), "scope_time_ns": profile.scope_time_ns},
        "rows": [
            {"site": _site_dict(r.site), "pct_time": r.pct_time, **_pick(r, _REGION)}
            for r in sorted(profile.rows.values(), key=lambda r: r.site.line)
        ],
    }


def _region_data(doc: dict) -> RegionProfile:
    meta = doc["meta"]
    profile = RegionProfile(
        scope=_site_from(meta["scope"]), scope_time_ns=int(meta["scope_time_ns"])
    )
    for row in doc["rows"]:
        site = _site_from(row["site"], SiteKind.REGION)
        profile.rows[site] = RegionStats(
            site=site, pct_time=float(row["pct_time"]), **_parse(row, _REGION)
        )
    return profile


def _thread_doc(rows) -> dict:
    return {
        "rows": [
            {"thread": r.name, "site": _site_dict(r.site), **_pick(r, _THREAD)}
            for r in sorted(rows, key=lambda r: (r.name, r.site.label()))
        ]
    }


def _thread_data(doc: dict) -> list:
    return [
        ThreadStats(name=row["thread"], site=_site_from(row["site"]), **_parse(row, _THREAD))
        for row in doc["rows"]
    ]


def _coarse_doc(breakdowns: Dict[str, CoarseBreakdown]) -> dict:
    return {
        "rows": [
            {"entity": name, **_pick(b, _COARSE)} for name, b in sorted(breakdowns.items())
        ]
    }


def _coarse_data(doc: dict) -> Dict[str, CoarseBreakdown]:
    return {row["entity"]: CoarseBreakdown(**_parse(row, _COARSE, float)) for row in doc["rows"]}


def _hotspot_doc(findings) -> dict:
    return {
        "rows": [
            {
                "category": f.category.value,
                "share_pct": f.share_pct,
                "site": _site_dict(f.site) if f.site else None,
                "recommendation": f.recommendation,
                "evidence": [_stats_dict(e) for e in f.evidence],
            }
            for f in findings
        ]
    }


def _hotspot_data(doc: dict) -> list:
    from planeprof.analysis.categories import TimeCategory
    from planeprof.analysis.hotspots import HotspotFinding

    return [
        HotspotFinding(
            category=TimeCategory(row["category"]),
            site=_site_from(row["site"]) if row.get("site") else None,
            share_pct=float(row["share_pct"]),
            evidence=tuple(_stats_from(e) for e in row.get("evidence", [])),
            recommendation=row["recommendation"],
        )
        for row in doc["rows"]
    ]


def _compare_doc(report: CompareReport) -> dict:
    return {
        "meta": {"scenario": report.scenario},
        "categories": [
            {"category": d.category.value, **_pick(d, _CATEGORY)} for d in report.categories
        ],
        "regressions": [d.category.value for d in report.regressions],
        "sites": [{"site": _site_dict(s.site), **_pick(s, _SITE_DELTA)} for s in report.sites],
    }


def _compare_data(doc: dict) -> CompareReport:
    from planeprof.analysis.categories import TimeCategory
    from planeprof.analysis.hotspots import CategoryDelta, CompareReport, SiteDelta

    categories = [
        CategoryDelta(category=TimeCategory(c["category"]), **_parse(c, _CATEGORY))
        for c in doc["categories"]
    ]
    regression_names = set(doc.get("regressions", []))
    return CompareReport(
        scenario=doc.get("meta", {}).get("scenario", "-"),
        categories=categories,
        sites=[
            SiteDelta(site=_site_from(s["site"]), **_parse(s, _SITE_DELTA))
            for s in doc.get("sites", [])
        ],
        regressions=[c for c in categories if c.category.value in regression_names],
    )


class _Schema(NamedTuple):
    to_doc: Callable[[Any], dict]
    from_doc: Callable[[dict], Any]
    csv_rows: str  # the document list that holds the CSV rows
    csv_paths: Tuple[str, ...]  # one dotted path per CSV column
    csv_lossless: bool = True  # the CSV holds every field that ``from_doc`` reads


_SCHEMAS: Dict[ReportKind, _Schema] = {
    ReportKind.FUNCTION_TABLE: _Schema(
        _function_doc, _function_data, "rows", (*_SITE_PATHS, "site.kind", "tag", *_STATS)
    ),
    ReportKind.LINE_TABLE: _Schema(
        _region_doc, _region_data, "rows",
        ("meta.scope.file", "meta.scope.line", "meta.scope.symbol", "meta.scope_time_ns",
         *_SITE_PATHS, *_REGION, "pct_time"),
    ),
    ReportKind.THREAD_TABLE: _Schema(
        _thread_doc, _thread_data, "rows", ("thread", *_SITE_PATHS, "site.kind", *_THREAD)
    ),
    ReportKind.COARSE_TABLE: _Schema(_coarse_doc, _coarse_data, "rows", ("entity", *_COARSE)),
    ReportKind.HOTSPOT_REPORT: _Schema(
        _hotspot_doc, _hotspot_data, "rows",
        ("category", "share_pct", *_SITE_PATHS, "recommendation"), csv_lossless=False,
    ),
    ReportKind.COMPARE_REPORT: _Schema(
        _compare_doc, _compare_data, "categories", ("category", *_CATEGORY), csv_lossless=False
    ),
}


def _csv_header(path: str) -> str:
    return "_".join(step for step in path.split(".") if step not in ("meta", "site"))


def _get(row: dict, path: str):
    value = row
    for step in path.split("."):
        if value is None:  # a hotspot finding without a site
            return None
        value = value[step]
    return value


def _put(row: dict, path: str, value: str) -> None:
    *parents, last = path.split(".")
    for step in parents:
        row = row.setdefault(step, {})
    row[last] = value


def _malformed(exc: Exception) -> ExportFormatError:
    return ExportFormatError(f"malformed export: {type(exc).__name__}: {exc}")


def export_csv(data, kind: ReportKind) -> str:
    schema = _SCHEMAS[kind]
    doc = schema.to_doc(data)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([_csv_header(p) for p in schema.csv_paths])
    for row in doc[schema.csv_rows]:
        row = dict(row, meta=doc.get("meta"))
        writer.writerow([_get(row, p) for p in schema.csv_paths])
    return out.getvalue()


def import_csv(text: str, kind: ReportKind):
    """Read back the CSV export of a kind whose CSV holds all of its fields:
    the function, line, thread and coarse tables."""
    schema = _SCHEMAS[kind]
    if not schema.csv_lossless:
        raise ExportFormatError(f"{kind.value} csv leaves fields out; read the structured export")
    doc: dict = {schema.csv_rows: []}
    try:
        for line in csv.DictReader(io.StringIO(text)):
            row: dict = {}
            for path in schema.csv_paths:
                _put(row, path, line[_csv_header(path)])
            doc["meta"] = row.pop("meta", {})
            doc[schema.csv_rows].append(row)
        return schema.from_doc(doc)
    except _MALFORMED as exc:
        raise _malformed(exc) from None


def export_json(data, kind: ReportKind) -> str:
    doc = {"format": EXPORT_FORMAT, "version": EXPORT_VERSION, "kind": kind.value}
    doc.update(_SCHEMAS[kind].to_doc(data))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def import_json(text: str):
    """Read a structured export; returns ``(kind, data)``."""
    try:
        doc = json.loads(text)
        if doc.get("format") != EXPORT_FORMAT:
            raise ExportFormatError("not a planeprof export")
        if doc.get("version") != EXPORT_VERSION:
            raise ExportFormatError(f"unsupported export version {doc.get('version')}")
        kind = ReportKind(doc["kind"])
        return kind, _SCHEMAS[kind].from_doc(doc)
    except _MALFORMED as exc:
        raise _malformed(exc) from None


def write_export(data, kind: ReportKind, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(export_json(data, kind), encoding="utf-8")
    return path


def read_export(path: Path | str):
    return import_json(Path(path).read_text(encoding="utf-8"))
