"""Rendering profiles and findings as text tables, CSV and structured JSON.

Import the submodules directly; this package re-exports only the names the
benchmark's layer timings use.
"""

from planeprof.reporting.exports import export_json, import_json
from planeprof.reporting.summary import render_summary, write_dump_index
from planeprof.reporting.tables import ReportKind, ReportSpec, render

__all__ = [
    "ReportKind",
    "ReportSpec",
    "export_json",
    "import_json",
    "render",
    "render_summary",
    "write_dump_index",
]
