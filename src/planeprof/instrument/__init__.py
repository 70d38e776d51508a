"""Raw timing evidence collection: events, recorder, dump files, process clocks.

Import the submodules directly; this package re-exports only the recorder
names the benchmark's layer timings use, so that importing a submodule
loads nothing else.
"""

from planeprof.instrument.events import CodeSite, SiteKind
from planeprof.instrument.recorder import Recorder, calibrate_clocks

__all__ = ["CodeSite", "Recorder", "SiteKind", "calibrate_clocks"]
