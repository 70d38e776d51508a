"""Shared test utilities: synthetic event streams and the brute-force oracle.

The oracle computes function stats by a completely different route than
the production aggregator: an interval sweep for exclusive time (between
any two consecutive events, the innermost open frame owns the elapsed
time) and a union-of-intervals measure for inclusive time. Exact integer
arithmetic on both sides makes equality checks exact.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from planeprof.instrument.events import CodeSite, EventKind, ProfileEvent, SiteKind

US = 1_000  # ns per microsecond
MS = 1_000_000


def site(symbol: str, kind: SiteKind = SiteKind.FUNCTION, file: str = "x.py") -> CodeSite:
    # deterministic fake line per symbol keeps sites distinct and stable
    line = sum(ord(c) for c in symbol) % 997
    return CodeSite(file=file, line=line, symbol=symbol, kind=kind)


def ev(
    kind: str,
    symbol: str,
    wall_ns: int,
    thread: int = 1,
    tag: Optional[str] = None,
    site_kind: SiteKind = SiteKind.FUNCTION,
    cpu_ns: Optional[int] = None,
) -> ProfileEvent:
    return ProfileEvent(
        thread_id=thread,
        site=site(symbol, site_kind),
        kind=EventKind.ENTER if kind == "enter" else EventKind.EXIT,
        wall_ns=wall_ns,
        cpu_ns=wall_ns if cpu_ns is None else cpu_ns,
        tag=tag,
    )


def stream(*spec: Tuple) -> List[ProfileEvent]:
    """Build a stream from (kind, symbol, wall_ns[, thread[, tag]]) tuples."""
    out = []
    for item in spec:
        kind, symbol, wall = item[0], item[1], item[2]
        thread = item[3] if len(item) > 3 else 1
        tag = item[4] if len(item) > 4 else None
        out.append(ev(kind, symbol, wall, thread, tag))
    return out


@dataclass
class OracleRow:
    ncalls_total: int = 0
    ncalls_primitive: int = 0
    tottime_ns: int = 0
    cumtime_ns: int = 0
    intervals: List[Tuple[int, int]] = field(default_factory=list)


def _union_measure(intervals: List[Tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def oracle_aggregate(events: Iterable[ProfileEvent]) -> Dict[CodeSite, OracleRow]:
    """Independent function stats: sweep for tottime, interval union for cumtime."""
    per_thread: Dict[int, List[ProfileEvent]] = defaultdict(list)
    for e in events:
        per_thread[e.thread_id].append(e)
    rows: Dict[CodeSite, OracleRow] = defaultdict(OracleRow)
    for _, evs in sorted(per_thread.items()):
        stack: List[Tuple[CodeSite, int]] = []  # (site, enter_wall)
        open_count: Counter = Counter()
        last_wall = None
        for e in evs:
            if last_wall is not None and stack:
                rows[stack[-1][0]].tottime_ns += e.wall_ns - last_wall
            last_wall = e.wall_ns
            if e.kind is EventKind.ENTER:
                if open_count[e.site] == 0:
                    rows[e.site].ncalls_primitive += 1
                open_count[e.site] += 1
                rows[e.site].ncalls_total += 1
                stack.append((e.site, e.wall_ns))
            else:
                if stack and stack[-1][0] == e.site:
                    s, t0 = stack.pop()
                    open_count[s] -= 1
                    rows[s].intervals.append((t0, e.wall_ns))
    for row in rows.values():
        row.cumtime_ns = _union_measure(row.intervals)
    return dict(rows)


def random_stream(
    rng: random.Random, max_events: int = 50, symbols: Sequence[str] = ("a", "b", "c", "d")
) -> List[ProfileEvent]:
    """A random well-nested bracket stream with strictly increasing stamps."""
    events: List[ProfileEvent] = []
    stack: List[str] = []
    wall = rng.randrange(1, 1000) * US
    budget = rng.randrange(2, max_events + 1)
    while len(events) < budget - len(stack):
        if stack and (rng.random() < 0.4 or len(events) + len(stack) >= budget - 1):
            symbol = stack.pop()
            events.append(ev("exit", symbol, wall))
        else:
            symbol = rng.choice(symbols)
            stack.append(symbol)
            events.append(ev("enter", symbol, wall))
        wall += rng.randrange(0, 5000) * US
    while stack:
        events.append(ev("exit", stack.pop(), wall))
        wall += rng.randrange(0, 5000) * US
    return events


def assert_stats_match_oracle(profile, events) -> None:
    oracle = oracle_aggregate(events)
    assert set(profile.rows) == set(oracle), "site sets differ"
    for s, row in profile.rows.items():
        expect = oracle[s]
        assert row.ncalls_total == expect.ncalls_total, f"{s.symbol}: ncalls"
        assert row.ncalls_primitive == expect.ncalls_primitive, f"{s.symbol}: primitive"
        assert row.tottime_ns == expect.tottime_ns, f"{s.symbol}: tottime"
        assert row.cumtime_ns == expect.cumtime_ns, f"{s.symbol}: cumtime"


def assert_conservation(profile, events, clock_resolution_ns: int = 1) -> None:
    """Per-thread exclusive-time conservation plus the cum >= tot invariant."""
    from planeprof.model.aggregate import aggregate_functions, bracketed_span_ns

    spans = bracketed_span_ns(events)
    per_thread: Dict[int, List[ProfileEvent]] = defaultdict(list)
    for e in events:
        per_thread[e.thread_id].append(e)
    for thread_id, evs in per_thread.items():
        thread_profile = aggregate_functions(evs)
        total_tot = sum(r.tottime_ns for r in thread_profile.rows.values())
        tolerance = len(evs) * clock_resolution_ns
        assert abs(total_tot - spans[thread_id]) <= tolerance, (
            f"thread {thread_id}: sum tottime {total_tot} vs span {spans[thread_id]}"
        )
    for r in profile.rows.values():
        assert r.cumtime_ns >= r.tottime_ns >= 0
