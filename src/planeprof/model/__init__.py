"""Turn raw event streams into tabular profiles and merge them across processes.

Import the submodules directly; this package re-exports only the names the
benchmark's layer timings use.
"""

from planeprof.model.aggregate import aggregate_regions, aggregate_threads, profile_from_dump
from planeprof.model.merge import merge_profiles

__all__ = ["aggregate_regions", "aggregate_threads", "merge_profiles", "profile_from_dump"]
