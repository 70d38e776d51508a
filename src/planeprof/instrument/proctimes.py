"""Process-level clock split: elapsed wall time vs user and system CPU time.

This is the coarse granularity: the same numbers the Unix ``time`` utility
prints, as a structured record. ``other_s`` is the elapsed time not
accounted to user or system CPU, which on an orchestration workload is
dominated by I/O waits and sleeps.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path
from typing import NamedTuple

from planeprof.structs import Checked


class ProcessNotFound(Exception):
    """The requested process is gone or was never supervised here."""


class _CoarseFields(NamedTuple):
    elapsed_s: float
    user_s: float
    system_s: float


class CoarseBreakdown(Checked, _CoarseFields):
    """Elapsed/user/system split for one process.

    ``other_s`` is exactly ``max(0, elapsed - user - system)``;
    ``oversubscribed`` flags user+system exceeding elapsed, which happens
    when the process ran hot on more than one core. It can show up only
    when the host actually runs two of the process's threads at once; a
    host that reports several CPUs but delivers about one never sets it.
    """

    __slots__ = ()

    def _check(self) -> None:
        for name in self._fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def other_s(self) -> float:
        return max(0.0, self.elapsed_s - self.user_s - self.system_s)

    @property
    def oversubscribed(self) -> bool:
        return self.user_s + self.system_s > self.elapsed_s


class ProcessTimer:
    """Measures this process (or just this thread) like the ``time`` utility.

    Use as a context manager around a block, or call :meth:`checkpoint`
    for the split since construction. ``scope="process"`` sums CPU over
    all threads of this process, including threads that have exited, but
    not over child processes, reaped or not. A reaped child's CPU is in
    the rusage that ``os.wait4`` returns for it, which
    :func:`breakdown_from_rusage` converts. ``scope="thread"``
    accounts only the calling thread's CPU, which keeps per-entity numbers
    honest when many entities share one process.
    """

    def __init__(self, scope: str = "process") -> None:
        if scope not in ("process", "thread"):
            raise ValueError("scope must be 'process' or 'thread'")
        self._who = (
            resource.RUSAGE_SELF if scope == "process" else resource.RUSAGE_THREAD
        )
        self._t0 = time.monotonic()
        self._r0 = resource.getrusage(self._who)
        self.result: CoarseBreakdown | None = None

    def checkpoint(self) -> CoarseBreakdown:
        r1 = resource.getrusage(self._who)
        return CoarseBreakdown(
            elapsed_s=time.monotonic() - self._t0,
            user_s=max(0.0, r1.ru_utime - self._r0.ru_utime),
            system_s=max(0.0, r1.ru_stime - self._r0.ru_stime),
        )

    def __enter__(self) -> "ProcessTimer":
        return self

    def __exit__(self, *exc) -> None:
        self.result = self.checkpoint()


def breakdown_from_rusage(rusage, elapsed_s: float) -> CoarseBreakdown:
    """Build a breakdown from a reaped child's rusage and its wall span."""
    return CoarseBreakdown(
        elapsed_s=elapsed_s,
        user_s=rusage.ru_utime,
        system_s=rusage.ru_stime,
    )


def read_process_times(pid: int) -> CoarseBreakdown:
    """Checkpoint a live process's elapsed/user/system split from /proc.

    Works for any process this user may inspect; elapsed runs from the
    process start. Raises :class:`ProcessNotFound` once the pid is gone,
    at which point a supervisor should use the rusage it reaped instead.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        uptime_s = float(Path("/proc/uptime").read_text().split()[0])
    except (FileNotFoundError, ProcessLookupError) as exc:
        raise ProcessNotFound(f"no such process: {pid}") from exc
    # fields after the parenthesized comm; utime/stime are 14/15,
    # starttime is 22 (1-based, man proc)
    rest = stat.rsplit(")", 1)[1].split()
    ticks = float(os.sysconf("SC_CLK_TCK"))
    utime_s = int(rest[11]) / ticks
    stime_s = int(rest[12]) / ticks
    start_s = int(rest[19]) / ticks
    return CoarseBreakdown(
        elapsed_s=max(0.0, uptime_s - start_s),
        user_s=utime_s,
        system_s=stime_s,
    )
