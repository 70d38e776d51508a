"""Statistical stack sampler for in-process threads.

A background thread wakes on a fixed interval, snapshots the interpreter
frames of the target threads and records one Sample event per target and
tick. No target code is modified; the only intrusion is the sampler
thread itself.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from planeprof.instrument.events import CodeSite, EventKind, ProfileEvent, SiteKind
from planeprof.instrument.recorder import Recorder


@dataclass(frozen=True)
class SampleRun:
    """Outcome of one sampling window."""

    ticks: int
    samples: int
    target_terminated: bool


# sys._current_frames() holds the interpreter's thread-list lock while it
# builds frame objects. Before CPython 3.12, a garbage collection that one
# of those allocations starts can run Python callbacks that hand the GIL to
# a thread that then waits for that lock: every thread stops. Samplers in
# one process take turns, and collection is off while one takes a snapshot.
_SNAPSHOT_LOCK = threading.Lock()


def _current_frames() -> Dict[int, object]:
    with _SNAPSHOT_LOCK:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return sys._current_frames()
        finally:
            if collecting:
                gc.enable()


def _stack_from_frame(frame) -> Tuple[CodeSite, ...]:
    sites: List[CodeSite] = []
    while frame is not None:
        # f_lineno is None while a frame runs an instruction that has no
        # line of its own; such a sample names the function's def line
        line = frame.f_lineno
        sites.append(
            CodeSite(
                file=os.path.basename(frame.f_code.co_filename),
                line=frame.f_code.co_firstlineno if line is None else line,
                symbol=frame.f_code.co_name,
                kind=SiteKind.FUNCTION,
            )
        )
        frame = frame.f_back
    sites.reverse()
    return tuple(sites)


class StackSampler:
    """Samples the call stacks of selected threads at a fixed interval.

    ``targets`` restricts sampling to specific thread idents; by default
    every thread except the sampler itself is covered. If all explicit
    targets terminate mid-run the sampler stops early and flags the run.
    """

    def __init__(
        self,
        recorder: Recorder,
        interval_ms: float = 10.0,
        targets: Optional[Iterable[int]] = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        self._recorder = recorder
        self._interval_s = interval_ms / 1000.0
        self._targets = set(targets) if targets is not None else None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ticks = 0
        self._samples = 0
        self._target_terminated = False

    def _tick(self) -> bool:
        """Sample once; returns False when explicit targets are all gone."""
        frames = _current_frames()
        me = threading.get_ident()
        wall = time.monotonic_ns()
        cpu = time.process_time_ns()
        if self._targets is not None:
            live = self._targets & frames.keys()
            if not live:
                return False
            selected = live
        else:
            selected = frames.keys() - {me}
        self._ticks += 1
        for ident in selected:
            stack = _stack_from_frame(frames[ident])
            if stack:
                self._recorder.record_sample(ident, stack, wall, cpu)
                self._samples += 1
        return True

    def _loop(self, duration_s: float) -> None:
        t0 = time.monotonic()
        k = 1
        while not self._stop.is_set():
            due = t0 + k * self._interval_s
            now = time.monotonic()
            if due > t0 + duration_s:
                break
            if due > now:
                time.sleep(due - now)
            if self._stop.is_set():
                break
            if not self._tick():
                self._target_terminated = True
                break
            k += 1

    def run(self, duration_s: float) -> SampleRun:
        """Sample for ``duration_s`` seconds, blocking the calling thread."""
        if duration_s > 0:
            self._loop(duration_s)
        return SampleRun(self._ticks, self._samples, self._target_terminated)

    def start(self, duration_s: float = float("inf")) -> None:
        self._thread = threading.Thread(
            target=self._loop, args=(duration_s,), name="stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> SampleRun:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        return SampleRun(self._ticks, self._samples, self._target_terminated)


def sample_shares(events: Iterable[ProfileEvent]) -> Dict[str, float]:
    """Share of samples per innermost symbol, as percentages."""
    counts: Counter[str] = Counter()
    total = 0
    for ev in events:
        if ev.kind is EventKind.SAMPLE and ev.stack:
            counts[ev.stack[-1].symbol] += 1
            total += 1
    if total == 0:
        return {}
    return {symbol: 100.0 * n / total for symbol, n in counts.items()}
