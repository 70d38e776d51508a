"""Rendering profiles and findings as text tables, CSV and structured JSON."""

from planeprof.reporting.exports import export_csv, export_json, import_csv, import_json
from planeprof.reporting.summary import render_summary, write_dump_index
from planeprof.reporting.tables import (
    InvalidSortKey,
    ReportFormat,
    ReportKind,
    ReportSpec,
    render,
    write_report,
)

__all__ = [
    "InvalidSortKey",
    "ReportFormat",
    "ReportKind",
    "ReportSpec",
    "export_csv",
    "export_json",
    "import_csv",
    "import_json",
    "render",
    "render_summary",
    "write_dump_index",
    "write_report",
]
