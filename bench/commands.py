"""Start `planeprof` commands as subprocesses and measure each one.

Each command runs in its own session so that a watchdog can stop it and
every entity process it spawned. Wall time, CPU time and peak RSS come
from ``wait4``: its resource usage covers the command and every child it
reaped, and ``ru_maxrss`` is that of the largest of those processes.

Before each command a fixed pure-Python loop, the probe, is timed; the
probe times measure how fast the host runs while the commands do.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List


_PROBE_ITERATIONS = 300_000
# The probe's time in the host's fast phases on the 2-vCPU host the
# benchmark was built on.
REFERENCE_PROBE_S = 0.0176


def probe_s() -> float:
    """Time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(_PROBE_ITERATIONS):
        x += i * i
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Measured:
    """Outcome of one command."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    end_wall_s: float  # time.time() when the command was reaped
    stdout: str
    stderr: str


_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt the orphans of the commands this process starts.

    An entity process whose `planeprof run` was stopped is re-parented to
    this process instead of to init, so :func:`_end_group` can reap it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _end_group(pgid: int, grace_s: float = 10.0) -> None:
    """Kill what is left of a command's session and reap it."""
    until = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if time.monotonic() > until:
            raise RuntimeError(f"process group {pgid} did not end")
        time.sleep(0.02)


class Runner:
    """Runs commands from the checkout root with ``src`` on the path."""

    def __init__(self, root: Path, log_dir: Path, deadline: float) -> None:
        self.root = root
        self.log_dir = log_dir
        self.deadline = deadline  # time.monotonic() after which commands are stopped
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.probes: List[float] = []  # probe times, one before each command
        self._seq = 0

    def python(self, name: str, argv: List[str]) -> Measured:
        return self._run(name, [sys.executable, *argv])

    def planeprof(self, name: str, args: List[str]) -> Measured:
        return self._run(name, [sys.executable, "-m", "planeprof.cli", *args])

    def _run(self, name: str, argv: List[str]) -> Measured:
        self._seq += 1
        stem = self.log_dir / f"{self._seq:04d}-{name}"
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise TimeoutError(f"no time left to start {name}")
        self.probes.append(probe_s())
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            def stop() -> None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            watchdog = threading.Timer(budget, stop)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            end_wall = time.time()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _end_group(proc.pid)
        return Measured(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            end_wall_s=end_wall,
            stdout=Path(f"{stem}.out").read_text(encoding="utf-8", errors="replace"),
            stderr=Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace"),
        )
