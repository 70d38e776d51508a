"""Event recorder: per-thread append-only buffers with calibrated overhead.

Every event captures the monotonic wall clock. The per-thread CPU clock is
captured adaptively: on hosts where reading it is cheap it is read on every
event, otherwise it is refreshed at most once per ``cpu_refresh_wall_ns``
of wall time and intermediate events carry the cached (still monotonic)
value. The measured cost of both clocks and the chosen refresh interval are
recorded so dumps are self-describing.

The hot path takes no locks: each thread appends to its own buffer, and
buffers are only handed over at flush points (:meth:`Recorder.drain`).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from planeprof.instrument.events import (
    TAG_SLEEP,
    CodeSite,
    EventKind,
    NestingViolation,
    ProfileEvent,
    SiteKind,
)

_ENTER = "E"
_EXIT = "X"

# Above this per-read cost the CPU clock is too expensive to touch on every
# event (virtualized hosts commonly take several microseconds per read).
_CPU_COST_THRESHOLD_NS = 1_000
_DEFAULT_CPU_REFRESH_NS = 1_000_000


@dataclass(frozen=True)
class ClockCalibration:
    """Measured clock costs and the per-event overhead they imply."""

    wall_cost_ns: int
    cpu_cost_ns: int
    cpu_refresh_wall_ns: int
    pair_overhead_ns: int

    @property
    def overhead_budget_ns(self) -> int:
        """Upper bound a single empty enter/exit pair should stay under."""
        return max(20_000, 8 * self.pair_overhead_ns)


def _measure_clock_cost(clock: Callable[[], int], n: int = 2_000) -> int:
    t0 = time.perf_counter_ns()
    for _ in range(n):
        clock()
    return max(1, (time.perf_counter_ns() - t0) // n)


_calibration_lock = threading.Lock()
_cached_clock_costs: Optional[tuple[int, int]] = None


def _clock_costs() -> tuple[int, int]:
    global _cached_clock_costs
    with _calibration_lock:
        if _cached_clock_costs is None:
            wall = _measure_clock_cost(time.monotonic_ns)
            cpu = _measure_clock_cost(time.thread_time_ns, n=500)
            _cached_clock_costs = (wall, cpu)
        return _cached_clock_costs


def calibrate_clocks(cpu_refresh_wall_ns: Optional[int] = None) -> ClockCalibration:
    """Measure clock costs and enter/exit pair overhead on this host.

    The result is what a freshly constructed :class:`Recorder` embeds in
    its dumps; ``cmd calibrate`` exposes the same record on the CLI.
    """
    wall_cost, cpu_cost = _clock_costs()
    if cpu_refresh_wall_ns is None:
        cpu_refresh_wall_ns = 0 if cpu_cost <= _CPU_COST_THRESHOLD_NS else _DEFAULT_CPU_REFRESH_NS
    scratch = Recorder(calibration=ClockCalibration(wall_cost, cpu_cost, cpu_refresh_wall_ns, 0))
    pair = scratch.measure_pair_overhead_ns()
    return ClockCalibration(wall_cost, cpu_cost, cpu_refresh_wall_ns, pair)


class _ThreadLog:
    """Per-thread event buffer plus the open-bracket stack and CPU cache."""

    __slots__ = ("ident", "events", "stack", "cpu_ns", "cpu_wall_ns")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.events: List[tuple] = []
        self.stack: List[CodeSite] = []
        self.cpu_ns = time.thread_time_ns()
        self.cpu_wall_ns = time.monotonic_ns()


class Recorder:
    """Collects enter/exit events with bounded, measured overhead.

    A disabled recorder keeps the same surface but drops events, so
    instrumented code needs no branches of its own.
    """

    def __init__(
        self,
        enabled: bool = True,
        calibration: Optional[ClockCalibration] = None,
    ) -> None:
        self.enabled = enabled
        self.calibration = calibration if calibration is not None else calibrate_clocks()
        self._cpu_refresh_ns = self.calibration.cpu_refresh_wall_ns
        # creation-order list, not an ident-keyed dict: the OS reuses thread
        # idents, and a reused ident must not drop the finished thread's log
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._tls = threading.local()
        self._violations: List[NestingViolation] = []
        self._violations_lock = threading.Lock()

    # -- hot path ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._tls, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._logs_lock:
                self._logs.append(log)
            self._tls.log = log
        return log

    # enter/exit keep the stamp logic inline: at a few hundred ns per saved
    # call, method hops would dominate the budget for 10 us functions.

    def enter(
        self,
        site: CodeSite,
        tag: Optional[str] = None,
        _mono: Callable[[], int] = time.monotonic_ns,
        _cpu: Callable[[], int] = time.thread_time_ns,
    ) -> None:
        if not self.enabled:
            return
        log = getattr(self._tls, "log", None)
        if log is None:
            log = self._log()
        wall = _mono()
        if self._cpu_refresh_ns == 0 or wall - log.cpu_wall_ns >= self._cpu_refresh_ns:
            log.cpu_ns = _cpu()
            log.cpu_wall_ns = wall
        log.events.append((_ENTER, site, wall, log.cpu_ns, tag))
        log.stack.append(site)

    def exit(
        self,
        site: CodeSite,
        _mono: Callable[[], int] = time.monotonic_ns,
        _cpu: Callable[[], int] = time.thread_time_ns,
    ) -> None:
        if not self.enabled:
            return
        log = getattr(self._tls, "log", None)
        if log is None:
            log = self._log()
        stack = log.stack
        # ``is`` first: ``!=`` on a frozen dataclass builds two tuples
        if not stack or (stack[-1] is not site and stack[-1] != site):
            with self._violations_lock:
                self._violations.append(
                    NestingViolation(
                        thread_id=log.ident,
                        wall_ns=time.monotonic_ns(),
                        site=site,
                        detail="exit without matching enter",
                    )
                )
            return
        stack.pop()
        wall = _mono()
        if self._cpu_refresh_ns == 0 or wall - log.cpu_wall_ns >= self._cpu_refresh_ns:
            log.cpu_ns = _cpu()
            log.cpu_wall_ns = wall
        log.events.append((_EXIT, site, wall, log.cpu_ns, None))

    @contextmanager
    def region(self, site: CodeSite, tag: Optional[str] = None):
        self.enter(site, tag)
        try:
            yield
        finally:
            self.exit(site)

    def trace(self, fn: Callable) -> Callable:
        """Decorator wrapping a function in enter/exit at a Function site."""
        code = fn.__code__
        site = CodeSite(
            file=os.path.basename(code.co_filename),
            line=code.co_firstlineno,
            symbol=fn.__qualname__,
            kind=SiteKind.FUNCTION,
        )
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(site)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(site)

        wrapper.__profiled_site__ = site
        return wrapper

    def sleep(self, duration: float) -> None:
        """Sleep for ``duration`` seconds inside a Sleep-tagged region.

        The tag lets analysis classify the time without guessing from
        symbol names.
        """
        if duration < 0:
            raise ValueError("sleep duration must be >= 0")
        frame = sys._getframe(1)
        site = CodeSite(
            file=os.path.basename(frame.f_code.co_filename),
            line=frame.f_lineno,
            symbol="sleep",
            kind=SiteKind.REGION,
        )
        self.enter(site, tag=TAG_SLEEP)
        try:
            time.sleep(duration)
        finally:
            self.exit(site)

    # -- sampler support ---------------------------------------------------

    def record_sample(self, thread_id: int, stack: tuple, wall_ns: int, cpu_ns: int) -> None:
        """Append a Sample event observed for ``thread_id`` by the sampler."""
        if not self.enabled or not stack:
            return
        log = self._log()
        log.events.append(("S", stack[-1], wall_ns, cpu_ns, None, thread_id, stack))

    # -- snapshot / flush ---------------------------------------------------

    def records(self) -> List[Tuple[int, List[tuple]]]:
        """Snapshot the raw buffers: one ``(thread id, records)`` pair per
        thread log, in log-creation order.

        A record is ``(code, site, wall_ns, cpu_ns, tag)`` for an enter
        (code ``"E"``) or exit (``"X"``) of the log's thread, or
        ``("S", site, wall_ns, cpu_ns, tag, subject thread id, stack)`` for a
        stack sample. The codes are the dump record codes, so the dump
        writer formats these tuples as they are. Only records that
        :meth:`drain` has not handed over are left to snapshot.
        """
        with self._logs_lock:
            logs = list(self._logs)
        return [(log.ident, list(log.events)) for log in logs]

    def drain(self) -> List[Tuple[int, List[tuple]]]:
        """Hand over the buffered records, as :meth:`records` lays them
        out, and drop them from the buffers.

        Each log gives up the records it holds when the drain reaches it;
        one that its thread appends meanwhile stays for the next drain.
        """
        with self._logs_lock:
            logs = list(self._logs)
        out = []
        for log in logs:
            events = log.events
            n = len(events)
            out.append((log.ident, events[:n]))
            del events[:n]
        return out

    def buffered(self) -> int:
        """How many records the calling thread's log holds."""
        log = getattr(self._tls, "log", None)
        return 0 if log is None else len(log.events)

    def events(self) -> List[ProfileEvent]:
        """Materialize all buffered events in log-creation order.

        A reused thread ident appears as one stream whose segments come
        from disjoint thread lifetimes, so per-id wall monotonicity holds.
        """
        out: List[ProfileEvent] = []
        for ident, records in self.records():
            for rec in records:
                kind = rec[0]
                if kind == "S":
                    _, site, wall, cpu, tag, subject, stack = rec
                    out.append(
                        ProfileEvent(
                            thread_id=subject,
                            site=site,
                            kind=EventKind.SAMPLE,
                            wall_ns=wall,
                            cpu_ns=cpu,
                            tag=tag,
                            stack=stack,
                        )
                    )
                else:
                    _, site, wall, cpu, tag = rec
                    out.append(
                        ProfileEvent(
                            thread_id=ident,
                            site=site,
                            kind=EventKind.ENTER if kind == _ENTER else EventKind.EXIT,
                            wall_ns=wall,
                            cpu_ns=cpu,
                            tag=tag,
                        )
                    )
        return out

    @property
    def violations(self) -> List[NestingViolation]:
        with self._violations_lock:
            return list(self._violations)

    def clear(self) -> None:
        with self._logs_lock:
            self._logs = []
        self._tls = threading.local()
        with self._violations_lock:
            self._violations.clear()

    # -- calibration --------------------------------------------------------

    def measure_pair_overhead_ns(self, pairs: int = 2_000) -> int:
        """Median cost of one enter/exit pair around an empty body.

        Runs against a scratch recorder with the same CPU refresh setting,
        so calling it never disturbs buffered events.
        """
        scratch = Recorder(
            calibration=ClockCalibration(
                self.calibration.wall_cost_ns,
                self.calibration.cpu_cost_ns,
                self._cpu_refresh_ns,
                0,
            )
        )
        site = CodeSite(file="<calibration>", line=0, symbol="noop", kind=SiteKind.REGION)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(pairs):
                scratch.enter(site)
                scratch.exit(site)
            samples.append((time.perf_counter_ns() - t0) // pairs)
            scratch.clear()
        samples.sort()
        return samples[len(samples) // 2]
