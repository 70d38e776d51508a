"""Percentage arithmetic, time-category classification and hotspot findings.

Import the submodules directly; this package re-exports only the names the
benchmark's layer timings use.
"""

from planeprof.analysis.categories import classify
from planeprof.analysis.hotspots import compare, find_hotspots

__all__ = ["classify", "compare", "find_hotspots"]
