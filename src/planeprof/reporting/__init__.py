"""Rendering profiles and findings as text tables, CSV and structured JSON.

Import the submodules directly; this package re-exports only the names the
benchmark's layer timings use, and imports each of them on first use (PEP
562), so that importing a submodule loads nothing else.
"""

from planeprof import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "ReportKind": "tables",
        "ReportSpec": "tables",
        "export_json": "exports",
        "import_json": "exports",
        "render": "tables",
        "render_summary": "summary",
        "write_dump_index": "summary",
    },
)
__all__ = [
    "ReportKind",
    "ReportSpec",
    "export_json",
    "import_json",
    "render",
    "render_summary",
    "write_dump_index",
]
