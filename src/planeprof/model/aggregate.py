"""Aggregation: record streams to function, region and thread tables.

One walk serves every table. It takes record tuples in the layout
:class:`planeprof.instrument.dumpio.DumpStream` yields, straight from a
dump file or, through :func:`records_of`, from materialized events, and
keeps a frame stack per thread, so a stream may interleave the blocks of
its threads. Closing a frame attributes its exclusive time (span minus
direct children spans) to the site; inclusive time accrues only for
primitive activations, so recursive re-entries are counted once. All
arithmetic is on integer nanoseconds, which makes the per-thread
conservation identity exact: the exclusive times of a fully bracketed
stream telescope to the sum of its top-level spans.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional

from planeprof.instrument.dumpio import Dump, DumpFormatError, DumpMeta, DumpStream, records_of
from planeprof.instrument.events import CodeSite, ProfileEvent, SiteKind
from planeprof.model.stats import (
    FunctionProfile,
    FunctionStats,
    RegionProfile,
    RegionStats,
    ThreadStats,
)

_NO_WALL = -(1 << 63)  # below any clock reading


class MalformedStream(Exception):
    """The stream cannot be repaired: a clock regression within a thread, or
    recursive activations closed inside one that never closes."""


class UnknownScope(Exception):
    """No activation of the requested function scope in the stream."""


class _Row:
    __slots__ = ("site", "ncalls", "nprim", "tot_ns", "cum_ns", "tag")

    def __init__(self, site: CodeSite) -> None:
        self.site = site
        self.ncalls = 0
        self.nprim = 0
        self.tot_ns = 0
        self.cum_ns = 0
        self.tag: Optional[str] = None


class _Thread:
    """One thread's walk: open frames, open count per site, closed rows.

    Sites are keyed by ``id()``: every site is held by a frame or a row
    for the whole walk, so no id is reused, and no site hash runs per
    event.
    """

    __slots__ = (
        "frames", "open", "last_wall", "span_ns", "rows", "scope_depth", "scope_ns", "regions"
    )

    def __init__(self) -> None:
        self.frames: List[list] = []  # [site, enter_wall, child_ns, primitive, tag]
        self.open: Dict[int, int] = {}
        self.last_wall = _NO_WALL
        self.span_ns = 0  # summed wall time of top-level frames
        self.rows: Dict[int, _Row] = {}
        self.scope_depth = 0
        self.scope_ns = 0
        self.regions: Dict[int, list] = {}  # id -> [site, hits, time_ns]


class Walk:
    """What one walk found, thread by thread in ascending thread id.

    Each table merges the threads in that order, so row order and the
    first-non-``None`` tag do not depend on how the stream interleaves
    its threads.
    """

    def __init__(
        self, threads: Dict[int, _Thread], scope: Optional[CodeSite], scope_seen: bool
    ) -> None:
        self._threads = sorted(threads.items())
        self.scope = scope
        self._scope_seen = scope_seen

    def function_profile(self) -> FunctionProfile:
        profile = FunctionProfile(wall_span_ns=sum(t.span_ns for _, t in self._threads))
        rows = profile.rows
        for _, thread in self._threads:
            for row in thread.rows.values():
                stats = FunctionStats(
                    site=row.site,
                    ncalls_total=row.ncalls,
                    ncalls_primitive=row.nprim,
                    tottime_ns=row.tot_ns,
                    cumtime_ns=row.cum_ns,
                    tag=row.tag,
                )
                present = rows.get(row.site)
                rows[row.site] = stats if present is None else present.plus(stats)
        return profile

    def thread_table(self) -> List[ThreadStats]:
        return [
            ThreadStats(
                name=str(ident),
                site=row.site,
                ncall=row.ncalls,
                tsub_ns=row.tot_ns,
                ttot_ns=row.cum_ns,
            )
            for ident, thread in self._threads
            for row in thread.rows.values()
        ]

    def region_profile(self) -> RegionProfile:
        """Region rows for statement blocks executed inside the scope.

        A region counts when its frame lies (at any depth) within an
        activation of the scope function; its share is taken against the
        scope's inclusive time. Regions directly inside a scope are
        expected to be disjoint, like source lines.
        """
        if self.scope is None or not self._scope_seen:
            label = "the scope" if self.scope is None else self.scope.label()
            raise UnknownScope(f"no activation of {label} in stream")
        totals: Dict[CodeSite, list] = {}  # site -> [hits, time_ns]
        scope_time_ns = 0
        for _, thread in self._threads:
            scope_time_ns += thread.scope_ns
            for site, hits, time_ns in thread.regions.values():
                total = totals.setdefault(site, [0, 0])
                total[0] += hits
                total[1] += time_ns
        profile = RegionProfile(scope=self.scope, scope_time_ns=scope_time_ns)
        for site, (hits, time_ns) in totals.items():
            pct = 100.0 * time_ns / scope_time_ns if scope_time_ns > 0 else 0.0
            profile.rows[site] = RegionStats(
                site=site, hits=hits, time_ns=time_ns, pct_time=min(pct, 100.0)
            )
        return profile

    def spans(self) -> Dict[int, int]:
        return {ident: thread.span_ns for ident, thread in self._threads}


def walk(
    records: Iterable[tuple],
    scope: Optional[CodeSite] = None,
    scope_symbol: Optional[str] = None,
) -> Walk:
    """Aggregate a record stream in one pass.

    Sites are compared with ``is``, so equal sites must be one object, as
    :class:`DumpStream` and :func:`records_of` yield them. Unmatched
    brackets are dropped (theirs is the violation the recorder already
    flagged); a backwards wall clock, and a site whose recursive
    activations close inside a primitive one that never closes, are
    unrepairable.
    Region rows are kept for ``scope``, or for the first ``FUNCTION`` site
    named ``scope_symbol`` in stream order.
    """
    threads: Dict[int, _Thread] = {}
    thread = None
    ident = None
    frames: List[list] = []
    open_count: Dict[int, int] = {}
    rows: Dict[int, _Row] = {}
    last_wall = _NO_WALL
    finding = scope is None and scope_symbol is not None
    scope_seen = False
    for code, site, wall, _, tag, tid in records:
        if tid != ident:
            if thread is not None:
                thread.last_wall = last_wall
            thread = threads.get(tid)
            if thread is None:
                thread = threads[tid] = _Thread()
            ident = tid
            frames, open_count, rows, last_wall = (
                thread.frames, thread.open, thread.rows, thread.last_wall
            )
        if wall < last_wall:
            raise MalformedStream(f"wall clock regressed on thread {tid}: {wall} < {last_wall}")
        last_wall = wall
        if finding and site.symbol == scope_symbol and site.kind is SiteKind.FUNCTION:
            scope, finding = site, False
        key = id(site)
        if code == "E":
            depth = open_count.get(key, 0)
            open_count[key] = depth + 1
            frames.append([site, wall, 0, depth == 0, tag])
            if site is scope:
                scope_seen = True
                thread.scope_depth += 1
        elif frames and frames[-1][0] is site:
            _, enter_wall, child_ns, primitive, tag = frames.pop()
            open_count[key] -= 1
            span = wall - enter_wall
            row = rows.get(key)
            if row is None:
                row = rows[key] = _Row(site)
            row.ncalls += 1
            row.tot_ns += span - child_ns
            if primitive:
                row.nprim += 1
                row.cum_ns += span
            if row.tag is None:
                row.tag = tag
            if frames:
                frames[-1][2] += span
            else:
                thread.span_ns += span
            if scope is None:
                continue
            if site is scope:
                thread.scope_depth -= 1
                if primitive:
                    thread.scope_ns += span
            elif thread.scope_depth and site.kind is SiteKind.REGION:
                region = thread.regions.get(key)
                if region is None:
                    region = thread.regions[key] = [site, 0, 0]
                region[1] += 1
                region[2] += span
    # A recursive activation's exclusive time is covered by its primitive
    # one's inclusive time only once that closes. In a stream whose
    # primitive frame never closes (lines reordered, or a thread id reused
    # after its thread died with the frame open) no valid row exists.
    for tid, thread in threads.items():
        for row in thread.rows.values():
            if row.cum_ns < row.tot_ns:
                raise MalformedStream(
                    f"thread {tid}: {row.site.label()} returned from recursive calls "
                    f"inside an activation that never returned"
                )
    return Walk(threads, scope, scope_seen)


def walk_stream(stream: DumpStream, scope_symbol: Optional[str] = None) -> Walk:
    """Walk a dump as it is read; a record the walk rejects names its line."""
    try:
        return walk(stream.records(), scope_symbol=scope_symbol)
    except MalformedStream as exc:
        raise DumpFormatError(f"{stream.path}: line {stream.line}: {exc}") from None


def _identified(profile: FunctionProfile, meta: DumpMeta) -> FunctionProfile:
    return profile.with_meta(
        run_id=meta.run_id,
        scenario=meta.scenario,
        scale_factor=meta.scale_factor,
        sources=(meta.entity,),
    )


def profile_from_path(path: Path | str) -> FunctionProfile:
    """Stream one dump file into its function profile, with its run identity."""
    with DumpStream(path) as stream:
        return _identified(walk_stream(stream).function_profile(), stream.meta)


def aggregate_functions(events: Iterable[ProfileEvent]) -> FunctionProfile:
    """Function table over all threads of one event stream."""
    return walk(records_of(events)).function_profile()


def aggregate_threads(events: Iterable[ProfileEvent]) -> List[ThreadStats]:
    """Per-thread function rows (exclusive tsub, inclusive ttot)."""
    return walk(records_of(events)).thread_table()


def aggregate_regions(events: Iterable[ProfileEvent], scope: CodeSite) -> RegionProfile:
    """Region rows for statement blocks executed inside ``scope``."""
    return walk(records_of(events, {scope: scope}), scope=scope).region_profile()


def bracketed_span_ns(events: Iterable[ProfileEvent]) -> Dict[int, int]:
    """Per-thread sum of top-level frame spans; the conservation baseline."""
    return walk(records_of(events)).spans()


def profile_from_dump(dump: Dump) -> FunctionProfile:
    """Aggregate a dump's events and attach its run identity."""
    return _identified(aggregate_functions(dump.events), dump.meta)
