"""Profile dump files: one self-describing text file per profiled process.

Layout (tab-separated records, one per line, stable field order):

    profile-dump 4
    run_id <id>
    entity <name>
    role <role>
    pid <pid>
    scenario <scenario id>
    seed <int>
    levels <comma separated>
    scale_factor <float>
    wall_cost_ns <int>          # measured cost of one wall clock read
    cpu_cost_ns <int>           # measured cost of one CPU clock read
    cpu_refresh_wall_ns <int>   # 0 = CPU clock read on every event
    pair_overhead_ns <int>      # calibrated enter/exit pair cost
    end_header
    T\t<thread>                 # opens the block of that thread's E/X records
    site\t<n>\t<file>\t<line>\t<symbol>\t<site kind>\t<tag or ->   # defines n
    E\t<wall delta>\t<cpu delta>\t<n>
    X\t... (same fields)
    V\t<thread>\t<wall_ns>\t<file>\t<line>\t<symbol>\t<site kind>\t<detail>
    end_events
    counts\t<events>\t<violations>     # events = E and X records
    coarse\t<elapsed_s>\t<user_s>\t<system_s>
    end_dump

An ``E`` or ``X`` record belongs to the thread of the last ``T`` line.
Its number names a (site, tag) pair: numbers count from 0 in each dump,
and each is defined by one ``site`` line before its first use, so one
site entered with two tags, or entered with a tag and exited without
one, has two numbers. Its wall and CPU clocks are differences from the
previous ``E`` or ``X`` record of the same thread, kept across that
thread's blocks; a thread's first record carries the absolute clocks. A
delta may be negative, and is read as it is: a backwards clock is the
consumer's to report. ``V`` records name their own thread, site and
absolute clock, and leave the open block and the deltas as they are.
Thread blocks may interleave, and a thread may open several.
``T`` and ``site`` lines are not counted in the footer. Versions 1 to 3
are rejected by name: re-run the scenario to get version-4 dumps.

All times are integer nanoseconds except the coarse footer, which keeps
the float seconds the OS reported. The coarse line is optional. The
footer lines have bounded length, so :func:`read_dump_info` reads the
header and the last few kilobytes and never the event lines.

:class:`DumpWriter` is the one writer and formatter of dumps. A profiled
process opens it when its run starts, which creates ``<name>.dump.part``
and writes the header, hands it each batch of records its recorder
drains during the run, and closes it at shutdown: the ``V`` lines and
the footer go in, and the file is renamed to ``<name>.dump``. A process
killed before then leaves the ``.part`` file, which no reader opens.
:func:`write_records` writes a whole dump in one batch. A one-thread
dump does not depend on how its records are cut into batches; where
threads interleave, the cuts can move ``T`` lines, never a thread's own
records. :class:`DumpStream` is the one parser: it yields the event
lines as record tuples with absolute clocks while it reads, and
:func:`read_dump` materializes them.
"""

from __future__ import annotations

import os
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from planeprof.instrument.events import (
    ClockCalibration,
    CodeSite,
    EventKind,
    NestingViolation,
    ProfileEvent,
    SiteKind,
)
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.structs import Struct

FORMAT_LINE = "profile-dump 4"

_KIND_CODE = {SiteKind.FUNCTION: "F", SiteKind.REGION: "R", SiteKind.BUILTIN: "B"}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}
_EVENT_CODE = {EventKind.ENTER: "E", EventKind.EXIT: "X"}
_RECORD_CODES = ("E", "X", "V", "T", "site")

# Room for the footer lines after ``end_events``, whose length is bounded.
_TAIL_BYTES = 4096
_END_EVENTS = b"\nend_events\n"

# One (thread id, record tuples) pair per recorder thread log; the tuple
# layout is the one :meth:`Recorder.records` documents.
Records = Iterable[Tuple[int, Sequence[tuple]]]


class DumpFormatError(Exception):
    """The file is not a readable profile dump."""


class DumpMeta(NamedTuple):
    """Identity of the process a dump describes."""

    run_id: str
    entity: str
    role: str = "-"
    pid: int = 0
    scenario: str = "-"
    seed: int = 0
    levels: tuple[str, ...] = ()
    scale_factor: float = 1.0


class Dump(Struct):
    """A whole dump, its events materialized."""

    __slots__ = ("meta", "calibration", "events", "violations", "coarse")

    def __init__(
        self,
        meta: DumpMeta,
        calibration: ClockCalibration,
        events: Optional[List[ProfileEvent]] = None,
        violations: Optional[List[NestingViolation]] = None,
        coarse: Optional[CoarseBreakdown] = None,
    ) -> None:
        self.meta = meta
        self.calibration = calibration
        self.events = [] if events is None else events
        self.violations = [] if violations is None else violations
        self.coarse = coarse


class DumpInfo(NamedTuple):
    """What a dump's header and footer say, read without its event lines."""

    meta: DumpMeta
    calibration: ClockCalibration
    events: int
    violations: int
    coarse: Optional[CoarseBreakdown] = None


def _clean(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ")


class DumpWriter:
    """One dump written while its records arrive, batch by batch.

    Opening creates ``<path>.part`` and writes the header; :meth:`write`
    appends one batch of records; :meth:`close` writes the ``V`` lines and
    the footer and renames the file to ``<path>``. So a dump exists under
    its name only once it is whole, and a process that dies before
    :meth:`close` leaves only the ``.part`` file. The site numbers, each
    thread's clocks and the open ``T`` block carry over from one batch to
    the next, so one thread's records give the same bytes however they
    are split into batches. The writer is not thread-safe: one thread at
    a time writes a batch.
    """

    def __init__(self, path: Path | str, meta: DumpMeta, calibration: ClockCalibration) -> None:
        self.path = Path(path)
        self._part = self.path.with_name(self.path.name + ".part")
        self._events = 0  # E and X records written so far
        # (id(site), tag) -> number; keyed by id() as hashing a site is
        # far dearer. Written records no longer hold their sites, so
        # ``_sites`` keeps every numbered site alive: a freed site's id could
        # otherwise be reused by another site and get its number.
        self._numbers: Dict[Tuple[int, Optional[str]], str] = {}
        self._sites: List[CodeSite] = []
        self._by_text: Dict[str, str] = {}  # site and tag text -> number
        self._clocks: Dict[int, Tuple[int, int]] = {}  # thread -> last (wall, cpu), block closed
        self._block: Optional[int] = None  # the open block's thread
        self._wall = self._cpu = 0  # the open block's last clocks
        self._file = self._part.open("w", encoding="utf-8")
        self._file.write(
            f"{FORMAT_LINE}\n"
            f"run_id {meta.run_id}\n"
            f"entity {meta.entity}\n"
            f"role {meta.role}\n"
            f"pid {meta.pid}\n"
            f"scenario {meta.scenario}\n"
            f"seed {meta.seed}\n"
            f"levels {','.join(meta.levels)}\n"
            f"scale_factor {meta.scale_factor!r}\n"
            f"wall_cost_ns {calibration.wall_cost_ns}\n"
            f"cpu_cost_ns {calibration.cpu_cost_ns}\n"
            f"cpu_refresh_wall_ns {calibration.cpu_refresh_wall_ns}\n"
            f"pair_overhead_ns {calibration.pair_overhead_ns}\n"
            "end_header\n"
        )

    def write(self, records: Records) -> None:
        """Append the event lines of one batch.

        This is the only place event lines are formatted. An enter or exit
        opens its thread's block with a ``T`` line unless that block is the
        open one, carries its clocks as deltas from its thread's previous
        enter or exit, and gets a ``site`` line for its (site, tag) pair
        before the pair's first use. Pairs with equal text share one
        number, and the lines depend only on the order of the records, so a
        dump read back and written again is byte-identical.
        """
        numbers = self._numbers
        by_text = self._by_text
        clocks = self._clocks
        lines: List[str] = []
        append = lines.append
        sites_before = len(by_text)
        blocks = 0
        block = self._block
        wall = self._wall
        cpu = self._cpu
        for thread, recs in records:
            for rec in recs:
                if thread != block:
                    clocks[block] = (wall, cpu)
                    block = thread
                    wall, cpu = clocks.get(thread, (0, 0))
                    blocks += 1
                    append(f"T\t{thread}")
                site = rec[1]
                tag = rec[4]
                number = numbers.get((id(site), tag))
                if number is None:
                    text = (
                        f"{_clean(site.file)}\t{site.line}\t{_clean(site.symbol)}"
                        f"\t{_KIND_CODE[site.kind]}\t{_clean(tag) if tag else '-'}"
                    )
                    number = by_text.get(text)
                    if number is None:
                        number = by_text[text] = str(len(by_text))
                        append(f"site\t{number}\t{text}")
                    numbers[id(site), tag] = number
                    self._sites.append(site)
                append(f"{rec[0]}\t{rec[2] - wall}\t{rec[3] - cpu}\t{number}")
                wall = rec[2]
                cpu = rec[3]
        self._block = block
        self._wall = wall
        self._cpu = cpu
        self._events += len(lines) - blocks - (len(by_text) - sites_before)
        if lines:
            lines.append("")
            self._file.write("\n".join(lines))

    def close(
        self,
        violations: Sequence[NestingViolation] = (),
        coarse: Optional[CoarseBreakdown] = None,
    ) -> Path:
        """Write the ``V`` lines and the footer, then give the file its name."""
        lines = [
            f"V\t{v.thread_id}\t{v.wall_ns}\t{_clean(v.site.file)}\t{v.site.line}"
            f"\t{_clean(v.site.symbol)}\t{_KIND_CODE[v.site.kind]}\t{_clean(v.detail)}"
            for v in violations
        ]
        lines.append("end_events")
        lines.append(f"counts\t{self._events}\t{len(violations)}")
        if coarse is not None:
            lines.append(f"coarse\t{coarse.elapsed_s!r}\t{coarse.user_s!r}\t{coarse.system_s!r}")
        lines.append("end_dump\n")
        with self._file:
            self._file.write("\n".join(lines))
        os.replace(self._part, self.path)
        return self.path

    def discard(self) -> None:
        """Close the file and delete it: the dump will not be finished."""
        self._file.close()
        self._part.unlink(missing_ok=True)


def records_of(
    events: Iterable[ProfileEvent], sites: Optional[Dict[CodeSite, CodeSite]] = None
) -> Iterator[tuple]:
    """Materialized events as the record tuples :class:`DumpStream` yields.

    Equal sites come out as one object, as a streamed dump's do: the one
    in ``sites`` if it holds an equal site, else the first seen.
    """
    by_value = {} if sites is None else sites
    # keyed by id() to skip the site hash; each value holds its site,
    # so no id is reused while the generator runs
    by_id: Dict[int, Tuple[CodeSite, CodeSite]] = {}
    for ev in events:
        seen = by_id.get(id(ev.site))
        if seen is None:
            seen = by_id[id(ev.site)] = (ev.site, by_value.setdefault(ev.site, ev.site))
        yield _EVENT_CODE[ev.kind], seen[1], ev.wall_ns, ev.cpu_ns, ev.tag, ev.thread_id


def write_dump(
    path: Path | str,
    meta: DumpMeta,
    calibration: ClockCalibration,
    events: Sequence[ProfileEvent],
    violations: Sequence[NestingViolation] = (),
    coarse: Optional[CoarseBreakdown] = None,
) -> Path:
    """Write a dump of materialized events."""
    records = groupby(records_of(events), key=itemgetter(5))
    return write_records(path, meta, calibration, records, violations, coarse)


def write_records(
    path: Path | str,
    meta: DumpMeta,
    calibration: ClockCalibration,
    records: Records,
    violations: Sequence[NestingViolation] = (),
    coarse: Optional[CoarseBreakdown] = None,
) -> Path:
    """Write a dump straight from a recorder's buffers (:meth:`Recorder.records`)."""
    writer = DumpWriter(path, meta, calibration)
    writer.write(records)
    return writer.close(violations, coarse)


def _parse_header(lines: Iterable[str]) -> tuple[DumpMeta, ClockCalibration, int]:
    """Parse the header from the start of ``lines``; return it and the
    number of lines it took."""
    it = iter(lines)
    first = next(it, "").strip()
    if first != FORMAT_LINE:
        if first.startswith("profile-dump "):
            raise DumpFormatError(f"unsupported dump format {first!r}; expected {FORMAT_LINE!r}")
        raise DumpFormatError("missing dump format line")
    fields = {}
    consumed = 1
    for line in it:
        consumed += 1
        if line == "end_header":
            break
        key, _, value = line.partition(" ")
        fields[key] = value
    else:
        raise DumpFormatError("unterminated header")
    try:
        meta = DumpMeta(
            run_id=fields["run_id"],
            entity=fields["entity"],
            role=fields.get("role", "-"),
            pid=int(fields.get("pid", 0)),
            scenario=fields.get("scenario", "-"),
            seed=int(fields.get("seed", 0)),
            levels=tuple(x for x in fields.get("levels", "").split(",") if x),
            scale_factor=float(fields.get("scale_factor", 1.0)),
        )
        calibration = ClockCalibration(
            wall_cost_ns=int(fields.get("wall_cost_ns", 0)),
            cpu_cost_ns=int(fields.get("cpu_cost_ns", 0)),
            cpu_refresh_wall_ns=int(fields.get("cpu_refresh_wall_ns", 0)),
            pair_overhead_ns=int(fields.get("pair_overhead_ns", 0)),
        )
    except (KeyError, ValueError) as exc:
        raise DumpFormatError(f"bad header field: {exc}") from exc
    return meta, calibration, consumed


def _parse_footer(lines: Iterable[str]) -> Tuple[int, int, Optional[CoarseBreakdown], int]:
    """Parse the lines after ``end_events``: (events, violations, coarse,
    the offset of the counts line among them)."""
    counts = None
    coarse = None
    for at, line in enumerate(lines):
        if line == "end_dump":
            if counts is None:
                raise DumpFormatError("missing counts footer")
            return counts[0], counts[1], coarse, counts[2]
        key, _, rest = line.partition("\t")
        try:
            if key == "counts":
                events, violations = rest.split("\t")
                counts = (int(events), int(violations), at)
            elif key == "coarse":
                elapsed, user, system = rest.split("\t")
                coarse = CoarseBreakdown(
                    elapsed_s=float(elapsed), user_s=float(user), system_s=float(system)
                )
        except ValueError:
            raise DumpFormatError(f"malformed {key} footer: {line!r}") from None
    raise DumpFormatError("missing end_dump")


class DumpStream:
    """One dump read front to back: the header on open, then its records.

    :meth:`records` yields one ``(code, site, wall_ns, cpu_ns, tag, thread)``
    tuple per ``E`` or ``X`` line: a record of :meth:`Recorder.records`
    followed by the open block's thread, with ``wall_ns`` and ``cpu_ns``
    absolute. Each ``site`` line becomes one :class:`CodeSite`, and equal
    sites are one object, so consumers may compare sites with ``is``. Every
    line is validated; ``V`` records are collected in :attr:`violations`. The
    counts footer is checked against the body before the generator
    finishes, so a consumer has used no result of a dump that fails it.
    :attr:`line` is the number of the line last read, for errors a
    consumer finds in a record.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.violations: List[NestingViolation] = []
        self.coarse: Optional[CoarseBreakdown] = None
        self.line = 0
        self._file = self.path.open(encoding="utf-8", newline="\n")
        try:
            self.meta, self.calibration, self.line = _parse_header(
                line.rstrip("\n") for line in self._file
            )
        except (DumpFormatError, UnicodeDecodeError) as exc:
            self._file.close()
            raise self._error(str(exc)) from None

    def __enter__(self) -> "DumpStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def records(self) -> Iterator[tuple]:
        # a site line's number, newline included as E/X lines end with it
        # -> its interned site and tag
        sites: Dict[str, Tuple[CodeSite, Optional[str]]] = {}
        by_value: Dict[CodeSite, CodeSite] = {}
        clocks: Dict[int, Tuple[int, int]] = {}  # thread -> last (wall, cpu), block closed
        thread: Optional[int] = None  # the open block's
        wall = cpu = 0  # the open block's last clocks
        uncounted = 0  # T and site lines
        first = self.line + 1
        code = ""
        try:
            for self.line, text in enumerate(self._file, first):
                fields = text.split("\t")
                code = fields[0]
                if code == "E" or code == "X":
                    _, wall_delta, cpu_delta, number = fields
                    site_tag = sites.get(number)
                    if site_tag is None:
                        number = number.rstrip("\n")  # a last line may lack its newline
                        site_tag = sites.get(number + "\n")
                        if site_tag is None:
                            raise DumpFormatError(
                                f"line {self.line}: unknown site number {number!r}"
                            )
                    if thread is None:
                        raise DumpFormatError(f"line {self.line}: {code!r} before any T line")
                    wall += int(wall_delta)
                    cpu += int(cpu_delta)
                    yield code, site_tag[0], wall, cpu, site_tag[1], thread
                elif code == "T":
                    _, thread_text = fields
                    clocks[thread] = (wall, cpu)
                    thread = int(thread_text)
                    wall, cpu = clocks.get(thread, (0, 0))
                    uncounted += 1
                elif code == "site":
                    _, number, file, lineno, symbol, kind, tag = fields
                    number += "\n"
                    if number in sites:
                        raise DumpFormatError(
                            f"line {self.line}: site {number[:-1]!r} defined twice"
                        )
                    int(number)  # numbers are integers, kept as their text
                    site = CodeSite(file, int(lineno), symbol, _CODE_KIND[kind])
                    tag = tag.rstrip("\n")
                    sites[number] = (by_value.setdefault(site, site), None if tag == "-" else tag)
                    uncounted += 1
                elif code == "V":
                    _, thread_text, violation_wall, file, lineno, symbol, kind, detail = fields
                    self.violations.append(
                        NestingViolation(
                            thread_id=int(thread_text),
                            wall_ns=int(violation_wall),
                            site=CodeSite(file, int(lineno), symbol, _CODE_KIND[kind]),
                            detail=detail.rstrip("\n"),
                        )
                    )
                else:
                    code = code.rstrip("\n")
                    if code == "end_events" and len(fields) == 1:
                        break
                    if code in _RECORD_CODES:
                        raise ValueError("no fields")
                    raise DumpFormatError(f"line {self.line}: unknown event record {code!r}")
            else:
                raise DumpFormatError("unterminated event section")
            body = self.line - first - len(self.violations) - uncounted
            events, violations, self.coarse, at = _parse_footer(
                line.rstrip("\n") for line in self._file
            )
        except (DumpFormatError, UnicodeDecodeError) as exc:
            raise self._error(str(exc)) from None
        except (ValueError, KeyError) as exc:
            raise self._error(f"line {self.line}: malformed {code!r} record ({exc})") from None
        if (events, violations) != (body, len(self.violations)):
            raise self._error(
                f"line {self.line + 1 + at}: footer counts {events} events and "
                f"{violations} violations, the body holds {body} and {len(self.violations)}"
            )

    def _error(self, message: str) -> DumpFormatError:
        return DumpFormatError(f"{self.path}: {message}")


def _event_of(rec: tuple) -> ProfileEvent:
    code, site, wall, cpu, tag, thread = rec
    kind = EventKind.ENTER if code == "E" else EventKind.EXIT
    return ProfileEvent(thread, site, kind, wall, cpu, tag)


def read_dump(path: Path | str) -> Dump:
    """Parse a whole dump into a :class:`Dump` of materialized events."""
    with DumpStream(path) as stream:
        events = [_event_of(rec) for rec in stream.records()]
    return Dump(stream.meta, stream.calibration, events, stream.violations, stream.coarse)


def read_dump_info(path: Path | str) -> DumpInfo:
    """Read a dump's header and footer only, seeking past its event lines."""
    path = Path(path)
    try:
        with path.open("rb") as f:
            meta, calibration, _ = _parse_header(
                raw.decode("utf-8").rstrip("\n") for raw in iter(f.readline, b"")
            )
            size = f.seek(0, os.SEEK_END)
            f.seek(max(0, size - _TAIL_BYTES))
            tail = f.read()
        at = tail.rfind(_END_EVENTS)
        if at < 0:
            raise DumpFormatError("no end_events line near the end: the dump is torn")
        events, violations, coarse, _ = _parse_footer(
            tail[at + len(_END_EVENTS):].decode("utf-8").splitlines()
        )
    except (DumpFormatError, UnicodeDecodeError) as exc:
        raise DumpFormatError(f"{path}: {exc}") from None
    return DumpInfo(meta, calibration, events, violations, coarse)
