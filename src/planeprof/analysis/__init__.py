"""Percentage arithmetic, time-category classification and hotspot findings.

Import the submodules directly; this package re-exports only the names the
benchmark's layer timings use, and imports each of them on first use (PEP
562), so that importing a submodule loads nothing else.
"""

from planeprof import lazy_exports

__getattr__ = lazy_exports(
    __name__, {"classify": "categories", "compare": "hotspots", "find_hotspots": "hotspots"}
)
__all__ = ["classify", "compare", "find_hotspots"]
