"""Turn raw event streams into tabular profiles and merge them across processes.

Import the submodules directly; this package re-exports only the names the
benchmark's layer timings use, and imports each of them on first use (PEP
562), so that importing a submodule loads nothing else.
"""

from planeprof import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "aggregate_regions": "aggregate",
        "aggregate_threads": "aggregate",
        "merge_profiles": "merge",
        "profile_from_dump": "aggregate",
    },
)
__all__ = ["aggregate_regions", "aggregate_threads", "merge_profiles", "profile_from_dump"]
