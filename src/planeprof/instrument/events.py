"""Event vocabulary shared by the recorder, dump files and aggregation.

A :class:`CodeSite` names a place in the code (file, line, symbol); a
:class:`ProfileEvent` is one timestamped observation at a site. Enter/Exit
pairs bracket function or region execution. :class:`ClockCalibration` is
what a recorder measured of its clocks, and every dump carries one.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


class SiteKind(str, Enum):
    FUNCTION = "function"
    REGION = "region"
    BUILTIN = "builtin"


class EventKind(str, Enum):
    ENTER = "enter"
    EXIT = "exit"


# Well-known tags attached by the instrumentation layer. Analysis gives
# tags precedence over site-name pattern rules, so blocking time never has
# to be guessed from symbols.
TAG_SLEEP = "sleep"
TAG_POLL = "poll"
TAG_HEARTBEAT = "heartbeat"
TAG_SPAWN = "spawn"

# The profiling levels, all of them on by default. ``coarse`` process clock
# splits are always collected; ``events`` turns the recorder on.
LEVELS = ("coarse", "events")


class CodeSite(NamedTuple):
    """A uniquely identified place in the code.

    ``(file, line, symbol)`` identifies a site within a run; ``kind`` says
    whether the site is a whole function, an inner statement region, or a
    builtin/runtime primitive.
    """

    file: str
    line: int
    symbol: str
    kind: SiteKind = SiteKind.FUNCTION

    def label(self) -> str:
        """Render as ``file:line(symbol)``, the table row key."""
        return f"{self.file}:{self.line}({self.symbol})"


class ProfileEvent(NamedTuple):
    """One observation: an enter or an exit.

    ``wall_ns`` comes from the process monotonic clock, ``cpu_ns`` from the
    per-thread CPU clock (possibly cached between refreshes, see
    :class:`planeprof.instrument.recorder.Recorder`). ``thread_id`` is the
    thread that recorded it.
    """

    thread_id: int
    site: CodeSite
    kind: EventKind
    wall_ns: int
    cpu_ns: int
    tag: Optional[str] = None


class NestingViolation(NamedTuple):
    """An exit that did not match the innermost open enter.

    Violations are recorded, not raised: the stream stays parseable and
    aggregation drops only the offending bracket.
    """

    thread_id: int
    wall_ns: int
    site: CodeSite
    detail: str


class ClockCalibration(NamedTuple):
    """Measured clock costs and the per-event overhead they imply."""

    wall_cost_ns: int
    cpu_cost_ns: int
    cpu_refresh_wall_ns: int
    pair_overhead_ns: int

    @property
    def overhead_budget_ns(self) -> int:
        """Upper bound a single empty enter/exit pair should stay under."""
        return max(20_000, 8 * self.pair_overhead_ns)
