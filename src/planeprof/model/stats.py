"""Tabular profile schemas: function, region (statement) and thread rows.

Times are integer nanoseconds internally so sums and merges stay exact;
seconds appear only in rendered reports and derived per-call values.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from planeprof.instrument.events import CodeSite
from planeprof.structs import Checked, Struct

NS_PER_S = 1_000_000_000


class _FunctionFields(NamedTuple):
    site: CodeSite
    ncalls_total: int
    ncalls_primitive: int
    tottime_ns: int
    cumtime_ns: int
    tag: Optional[str] = None


class FunctionStats(Checked, _FunctionFields):
    """Call counts and exclusive/inclusive times for one code site.

    ``ncalls_primitive`` counts activations that were not re-entered
    recursively; inclusive time (``cumtime``) accrues once per primitive
    activation, so recursion never double counts.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.ncalls_primitive > self.ncalls_total:
            raise ValueError("primitive calls cannot exceed total calls")
        if self.tottime_ns < 0 or self.cumtime_ns < self.tottime_ns:
            raise ValueError("need cumtime >= tottime >= 0")

    @property
    def tottime_s(self) -> float:
        return self.tottime_ns / NS_PER_S

    @property
    def cumtime_s(self) -> float:
        return self.cumtime_ns / NS_PER_S

    @property
    def percall_tot_s(self) -> float:
        return self.tottime_s / self.ncalls_total if self.ncalls_total else 0.0

    @property
    def percall_cum_s(self) -> float:
        return self.cumtime_s / self.ncalls_primitive if self.ncalls_primitive else 0.0

    @property
    def ncalls_label(self) -> str:
        """``total/primitive`` when recursion occurred, else just the count."""
        if self.ncalls_total != self.ncalls_primitive:
            return f"{self.ncalls_total}/{self.ncalls_primitive}"
        return str(self.ncalls_total)

    def plus(self, other: "FunctionStats") -> "FunctionStats":
        """Field-wise sum; used by merge."""
        if other.site != self.site:
            raise ValueError("cannot add stats for different sites")
        return FunctionStats(
            site=self.site,
            ncalls_total=self.ncalls_total + other.ncalls_total,
            ncalls_primitive=self.ncalls_primitive + other.ncalls_primitive,
            tottime_ns=self.tottime_ns + other.tottime_ns,
            cumtime_ns=self.cumtime_ns + other.cumtime_ns,
            tag=self.tag if self.tag is not None else other.tag,
        )


class _RegionFields(NamedTuple):
    site: CodeSite
    hits: int
    time_ns: int
    pct_time: float


class RegionStats(Checked, _RegionFields):
    """Per-statement-region hits and time within one function scope."""

    __slots__ = ()

    def _check(self) -> None:
        if self.hits < 0:
            raise ValueError("hits must be >= 0")
        if not 0.0 <= self.pct_time <= 100.0:
            raise ValueError("pct_time must lie in [0, 100]")

    @property
    def time_s(self) -> float:
        return self.time_ns / NS_PER_S

    @property
    def per_hit_s(self) -> Optional[float]:
        return self.time_s / self.hits if self.hits > 0 else None


class _ThreadFields(NamedTuple):
    name: str
    site: CodeSite
    ncall: int
    tsub_ns: int
    ttot_ns: int


class ThreadStats(Checked, _ThreadFields):
    """Per-thread function row: calls, exclusive and inclusive time."""

    __slots__ = ()

    def _check(self) -> None:
        if self.ttot_ns < self.tsub_ns:
            raise ValueError("need ttot >= tsub")

    @property
    def tsub_s(self) -> float:
        return self.tsub_ns / NS_PER_S

    @property
    def ttot_s(self) -> float:
        return self.ttot_ns / NS_PER_S

    @property
    def tavg_s(self) -> float:
        return self.ttot_s / self.ncall if self.ncall else 0.0


class FunctionProfile(Struct):
    """A set of function rows plus the run identity they came from."""

    __slots__ = ("rows", "run_id", "scenario", "scale_factor", "sources", "wall_span_ns")

    def __init__(
        self,
        rows: Optional[Dict[CodeSite, FunctionStats]] = None,
        run_id: str = "-",
        scenario: str = "-",
        scale_factor: float = 1.0,
        sources: Tuple[str, ...] = (),
        wall_span_ns: int = 0,
    ) -> None:
        self.rows = {} if rows is None else rows
        self.run_id = run_id
        self.scenario = scenario
        self.scale_factor = scale_factor
        self.sources = sources
        self.wall_span_ns = wall_span_ns

    @property
    def total_calls(self) -> int:
        return sum(r.ncalls_total for r in self.rows.values())

    @property
    def primitive_calls(self) -> int:
        return sum(r.ncalls_primitive for r in self.rows.values())

    @property
    def total_time_ns(self) -> int:
        """Sum of exclusive times: every bracketed nanosecond exactly once."""
        return sum(r.tottime_ns for r in self.rows.values())

    def with_meta(self, **kwargs) -> "FunctionProfile":
        out = FunctionProfile(rows=dict(self.rows))
        for key in ("run_id", "scenario", "scale_factor", "sources", "wall_span_ns"):
            setattr(out, key, kwargs.get(key, getattr(self, key)))
        return out


class RegionProfile(Struct):
    """Region rows inside one function scope."""

    __slots__ = ("scope", "scope_time_ns", "rows")

    def __init__(
        self,
        scope: CodeSite,
        scope_time_ns: int,
        rows: Optional[Dict[CodeSite, RegionStats]] = None,
    ) -> None:
        self.scope = scope
        self.scope_time_ns = scope_time_ns
        self.rows = {} if rows is None else rows
