"""Raw timing evidence collection: events, recorder, dump files, process clocks.

Import the submodules directly; this package re-exports only the recorder
names the benchmark's layer timings use, and imports each of them on first
use (PEP 562), so that importing a submodule loads nothing else.
"""

from planeprof import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "CodeSite": "events",
        "Recorder": "recorder",
        "SiteKind": "events",
        "calibrate_clocks": "recorder",
    },
)
__all__ = ["CodeSite", "Recorder", "SiteKind", "calibrate_clocks"]
