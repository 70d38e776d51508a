"""Text table rendering with pinned, golden-tested headers.

Each table kind has one header line whose bytes never change; values are
formatted at presentation time (half-up rounding, seconds in function
tables, microseconds in line tables). ``_KINDS`` holds one entry per report
kind; ``render`` checks the data and the sort key, then sorts and cuts the
kind's rows, the same way for every kind. Sorting is stable: rows with
equal keys keep their input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from planeprof.analysis.hotspots import CompareReport, HotspotFinding, SiteDelta
from planeprof.analysis.percentages import coarse_percentages, round_half_up
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.model.stats import FunctionProfile, RegionProfile, ThreadStats


class InvalidSortKey(Exception):
    """The sort key is not valid for this table kind."""


class ReportKind(str, Enum):
    FUNCTION_TABLE = "function_table"
    LINE_TABLE = "line_table"
    THREAD_TABLE = "thread_table"
    COARSE_TABLE = "coarse_table"
    HOTSPOT_REPORT = "hotspot_report"
    COMPARE_REPORT = "compare_report"


class ReportFormat(str, Enum):
    TEXT = "text"
    CSV = "csv"
    STRUCTURED = "structured"


@dataclass(frozen=True)
class ReportSpec:
    kind: ReportKind
    sort_key: Optional[str] = None
    top_n: Optional[int] = None
    output: Optional[Path] = None  # None = stdout
    format: ReportFormat = ReportFormat.TEXT

    def __post_init__(self) -> None:
        if self.top_n is not None and self.top_n < 1:
            raise ValueError("top_n must be >= 1 or None for unlimited")


FUNCTION_HEADER = "   ncalls  tottime  percall  cumtime  percall filename:lineno(function)"
LINE_HEADER = "Line #      Hits         Time  Per Hit   % Time  Line Contents"
LINE_RULE = "=" * len(LINE_HEADER)
THREAD_HEADER = "name                                      ncall      tsub      ttot      tavg"

_FUNCTION_SORTS = {
    "cumtime": ("cumulative time", lambda r: -r.cumtime_ns),
    "tottime": ("internal time", lambda r: -r.tottime_ns),
    "ncalls": ("call count", lambda r: -r.ncalls_total),
    "name": ("function name", lambda r: r.site.label()),
}
_LINE_SORTS = {
    "line": ("line number", lambda r: r.site.line),
    "time": ("line time, desc", lambda r: -r.time_ns),
    "hits": ("hit count, desc", lambda r: -r.hits),
}
_THREAD_SORTS = {
    "ttot": ("totaltime, desc", lambda r: -r.ttot_ns),
    "tsub": ("subtime, desc", lambda r: -r.tsub_ns),
    "ncall": ("callcount, desc", lambda r: -r.ncall),
    "name": ("name", lambda r: (r.name, r.site.label())),
}


def _f8(value_s: float) -> str:
    return f"{value_s:8.3f}"


def _render_function_table(profile: FunctionProfile, rows: list, label: str) -> str:
    total_s = profile.total_time_ns / 1e9
    lines = [
        f"{profile.total_calls} function calls "
        f"({profile.primitive_calls} primitive calls) in {total_s:.3f} seconds",
        "",
        f"Ordered by: {label}",
        "",
        FUNCTION_HEADER,
    ]
    for r in rows:
        lines.append(
            f"{r.ncalls_label:>9} {_f8(r.tottime_s)} {_f8(r.percall_tot_s)} "
            f"{_f8(r.cumtime_s)} {_f8(r.percall_cum_s)} {r.site.label()}"
        )
    return "\n".join(lines) + "\n"


def _render_line_table(profile: RegionProfile, rows: list, label: str) -> str:
    scope = profile.scope
    lines = [
        "Timer unit: 1e-06 s",
        "",
        f"Total time: {profile.scope_time_ns / 1e9:.6f} s",
        f"Function: {scope.symbol} at {scope.file}:{scope.line}",
        f"Ordered by: {label}",
        "",
        LINE_HEADER,
        LINE_RULE,
    ]
    for r in rows:
        time_us = r.time_ns / 1e3
        per_hit_us = (r.per_hit_s or 0.0) * 1e6
        lines.append(
            f"{r.site.line:>6} {r.hits:>9} {time_us:>12.1f} {per_hit_us:>8.1f} "
            f"{round_half_up(r.pct_time, 1):>8.1f}  {r.site.symbol}"
        )
    return "\n".join(lines) + "\n"


def _render_thread_table(_data, rows: List[ThreadStats], label: str) -> str:
    lines = [
        "Clock type: wall",
        "",
        f"Ordered by: {label}",
        "",
        THREAD_HEADER,
    ]
    for r in rows:
        name = f"{r.name}/{r.site.symbol}"
        if len(name) > 40:
            name = ".." + name[-38:]
        lines.append(
            f"{name:<40} {r.ncall:>6} {r.tsub_s:>9.6f} {r.ttot_s:>9.6f} {r.tavg_s:>9.6f}"
        )
    return "\n".join(lines) + "\n"


def _render_coarse_table(_data, items: List[Tuple[str, CoarseBreakdown]], _label) -> str:
    lines = [
        "Coarse time split (seconds)",
        "",
        "entity                 elapsed      user    system     other    user%     sys%   other%",
    ]
    for name, b in items:
        pc = coarse_percentages(b) if b.elapsed_s > 0 else None
        flags = " oversubscribed" if b.oversubscribed else ""
        pct = (
            f"{round_half_up(pc.user_pct):>8.2f} {round_half_up(pc.sys_pct):>8.2f} "
            f"{round_half_up(pc.other_pct):>8.2f}"
            if pc
            else f"{'-':>8} {'-':>8} {'-':>8}"
        )
        lines.append(
            f"{name:<20} {b.elapsed_s:>9.3f} {b.user_s:>9.3f} {b.system_s:>9.3f} "
            f"{b.other_s:>9.3f} {pct}{flags}"
        )
    lines.append("")
    lines.append("other = I/O wait + unattributed time")
    return "\n".join(lines) + "\n"


def _render_hotspots(_data, findings: List[HotspotFinding], _label) -> str:
    lines = [
        "Hotspot findings (ranked by share of run time)",
        "",
        "rank  category        share%  site",
    ]
    for i, f in enumerate(findings, 1):
        site = f.site.label() if f.site else "-"
        lines.append(
            f"{i:>4}  {f.category.value:<14} {round_half_up(f.share_pct):>7.2f}  {site}"
        )
        lines.append(f"      -> {f.recommendation}")
    if not findings:
        lines.append("(no findings above threshold)")
    return "\n".join(lines) + "\n"


def _moved_sites(report: CompareReport) -> List[SiteDelta]:
    """Sites that moved, largest absolute internal-time change first."""
    moved = [s for s in report.sites if s.tottime_delta_ns != 0 or s.ncalls_delta != 0]
    return sorted(moved, key=lambda s: (-abs(s.tottime_delta_ns), s.site.label()))


def _render_compare(report: CompareReport, sites: List[SiteDelta], _label) -> str:
    lines = [
        f"Before/after comparison for scenario {report.scenario!r}",
        "",
        "category         before_s   after_s   delta_s  delta%",
    ]
    for d in report.categories:
        pct = f"{round_half_up(d.delta_pct):>7.2f}" if d.delta_pct is not None else "      -"
        lines.append(
            f"{d.category.value:<14} {d.before_ns / 1e9:>10.3f} {d.after_ns / 1e9:>9.3f} "
            f"{d.delta_s:>9.3f} {pct}"
        )
    if report.regressions:
        lines.append("")
        lines.append("regressions:")
        for d in report.regressions:
            lines.append(f"  {d.category.value} grew by {d.delta_s:.3f} s")
    if sites:
        lines.append("")
        lines.append("site deltas (tottime_s, ncalls):")
        for s in sites:
            lines.append(
                f"  {s.site.label():<46} {s.tottime_delta_ns / 1e9:>+9.3f} "
                f"{s.ncalls_delta:>+8}"
            )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Kind:
    data_type: type  # what the kind renders
    rows: Callable[[Any], Iterable]  # the rows that sort_key and top_n act on
    # sort key name -> ("Ordered by" label, key function); the first is the default
    sorts: Dict[str, Tuple[str, Callable]]
    render: Callable[[Any, list, Optional[str]], str]  # (data, ordered rows, label) -> text


_KINDS: Dict[ReportKind, _Kind] = {
    ReportKind.FUNCTION_TABLE: _Kind(
        FunctionProfile, lambda p: p.rows.values(), _FUNCTION_SORTS, _render_function_table
    ),
    ReportKind.LINE_TABLE: _Kind(
        RegionProfile, lambda p: p.rows.values(), _LINE_SORTS, _render_line_table
    ),
    ReportKind.THREAD_TABLE: _Kind(list, lambda rows: rows, _THREAD_SORTS, _render_thread_table),
    ReportKind.COARSE_TABLE: _Kind(
        dict, lambda breakdowns: sorted(breakdowns.items()), {}, _render_coarse_table
    ),
    ReportKind.HOTSPOT_REPORT: _Kind(list, lambda findings: findings, {}, _render_hotspots),
    ReportKind.COMPARE_REPORT: _Kind(CompareReport, _moved_sites, {}, _render_compare),
}


def render(data, spec: ReportSpec) -> str:
    """Render ``data`` as the requested kind and format."""
    kind = _KINDS[spec.kind]
    if not isinstance(data, kind.data_type):
        raise TypeError(f"{spec.kind.value} needs a {kind.data_type.__name__}")
    if spec.sort_key is not None and spec.sort_key not in kind.sorts:
        raise InvalidSortKey(f"{spec.sort_key!r} is not a sort key for {spec.kind.value}")
    if spec.format is not ReportFormat.TEXT:
        from planeprof.reporting.exports import export_csv, export_json

        if spec.format is ReportFormat.CSV:
            return export_csv(data, spec.kind)
        return export_json(data, spec.kind)
    rows = list(kind.rows(data))
    label = None
    if kind.sorts:
        label, sort_key = kind.sorts[spec.sort_key or next(iter(kind.sorts))]
        rows.sort(key=sort_key)
    return kind.render(data, rows[: spec.top_n], label)


def write_report(data, spec: ReportSpec) -> Optional[Path]:
    """Render and write to ``spec.output``; None means caller prints."""
    document = render(data, spec)
    if spec.output is None:
        print(document, end="")
        return None
    spec.output.parent.mkdir(parents=True, exist_ok=True)
    spec.output.write_text(document, encoding="utf-8")
    return spec.output
