"""The host record kept with every run.

This host reports two vCPUs but hands over the second only after about a
second of sustained demand, so a short, cold probe under-reports the
parallel capacity. The probe here burns two processes until the capacity
it sees stops rising and records how long that ramp took.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from commands import Runner

_WINDOW_S = 0.25
_STEADY_WINDOWS = 3
_STEADY_CORES = 0.15
_MIN_BURN_S = 1.5  # the ramp seen on a 2-vCPU host took 1.0-1.25 s
_MAX_BURN_S = 4.0


def _cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def burn_capacity() -> dict:
    """Cores delivered to two busy processes, once the host has ramped up."""
    burners = [
        subprocess.Popen([sys.executable, "-c", "while True: pass"], stdin=subprocess.DEVNULL)
        for _ in range(2)
    ]
    windows: List[float] = []
    try:
        t0 = time.monotonic()
        last_t, last_cpu = t0, 0.0
        while time.monotonic() - t0 < _MAX_BURN_S:
            time.sleep(_WINDOW_S)
            now = time.monotonic()
            cpu = sum(_cpu_s(p.pid) for p in burners)
            windows.append((cpu - last_cpu) / (now - last_t))
            last_t, last_cpu = now, cpu
            tail = windows[-_STEADY_WINDOWS:]
            if now - t0 >= _MIN_BURN_S and max(tail) - min(tail) <= _STEADY_CORES:
                break
    finally:
        for p in burners:
            p.kill()
        for p in burners:
            p.wait()
    steady = windows[-_STEADY_WINDOWS:]
    capacity = statistics.median(steady)
    ramped = next(i for i, w in enumerate(windows) if w >= 0.9 * capacity)
    return {
        "parallel_capacity_cores": round(capacity, 3),
        "ramp_s": _WINDOW_S * ramped,
        "steady": max(steady) - min(steady) <= _STEADY_CORES,
        "window_cores": [round(w, 3) for w in windows],
    }


def host_record(runner: Runner, work: Path) -> dict:
    """Python version, vCPUs, clock costs from `planeprof calibrate`, and
    the warmed two-process capacity."""
    out = work / "calibration.json"
    done = runner.planeprof("calibrate", ["calibrate", "--out", str(out)])
    if done.returncode != 0:
        raise RuntimeError(f"planeprof calibrate exited {done.returncode}: {done.stderr}")
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "calibration": json.loads(out.read_text(encoding="utf-8")),
        **burn_capacity(),
    }
