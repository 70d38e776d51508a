"""Percentage arithmetic over coarse breakdowns and repeated runs.

Pooling matters: the share of a component over several runs is
``sum(component) / sum(run)``, not the mean of the per-run shares. The two
differ whenever run lengths differ, and only pooling weighs each second
of runtime equally.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from typing import List, NamedTuple, Sequence

from planeprof.instrument.proctimes import CoarseBreakdown


class ZeroElapsed(Exception):
    """Percentages of a zero-length run are undefined."""


class ZeroRuntime(Exception):
    """A run time of zero makes the per-run share undefined."""


class LengthMismatch(Exception):
    """Component and run lists must pair up one to one."""


def round_half_up(value: float, digits: int = 2) -> float:
    """Round half away from zero; presentation-time only."""
    q = Decimal(10) ** -digits
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


class CoarsePercentages(NamedTuple):
    user_pct: float
    sys_pct: float
    other_pct: float


def coarse_percentages(b: CoarseBreakdown) -> CoarsePercentages:
    """Split elapsed time into user / system / other shares."""
    if b.elapsed_s <= 0:
        raise ZeroElapsed("elapsed time must be > 0")
    return CoarsePercentages(
        user_pct=100.0 * b.user_s / b.elapsed_s,
        sys_pct=100.0 * b.system_s / b.elapsed_s,
        other_pct=100.0 * b.other_s / b.elapsed_s,
    )


class ShareReport(NamedTuple):
    """Component share per run plus the pooled share across runs."""

    per_run_pct: tuple[float, ...]
    pooled_pct: float

    @property
    def mean_pct(self) -> float:
        """Arithmetic mean of per-run shares; reported alongside pooling
        because the two answer different questions."""
        return sum(self.per_run_pct) / len(self.per_run_pct)


def share_of_runtime(
    component_times: Sequence[float], run_times: Sequence[float]
) -> ShareReport:
    """Per-run and pooled share of a component over several runs."""
    if len(component_times) != len(run_times):
        raise LengthMismatch(
            f"{len(component_times)} component times vs {len(run_times)} run times"
        )
    if not run_times:
        raise LengthMismatch("need at least one run")
    per_run: List[float] = []
    for c, r in zip(component_times, run_times):
        if r <= 0:
            raise ZeroRuntime("run time must be > 0")
        per_run.append(100.0 * c / r)
    pooled = 100.0 * sum(component_times) / sum(run_times)
    return ShareReport(per_run_pct=tuple(per_run), pooled_pct=pooled)
