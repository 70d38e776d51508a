"""Per-layer metrics, timed from the benchmark around planeprof's public calls.

The pass runs on a run directory the workload produced, after its timed
commands, so it never shares a process or a moment with them. Each call
is wrapped in a span (name, start, end); the metrics are derived from the
spans, and the spans are written out with the run's result.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from commands import Runner

# Calls under a millisecond are repeated and reported as a median.
_SMALL_REPEATS = 5
_FRESH_REPEATS = 3

_CALIBRATE_PROBE = (
    "import time\n"
    "from planeprof.instrument import calibrate_clocks\n"
    "t0 = time.perf_counter()\n"
    "calibrate_clocks()\n"
    "print(time.perf_counter() - t0)\n"
)
_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import planeprof.cli\n"
    "print(time.perf_counter() - t0)\n"
)

# name -> unit, in the order they are reported
UNITS = {
    "recorder.pair_ns": "ns",
    "recorder.materialize_ns_per_event": "ns",
    "recorder.calibrate_ms": "ms",
    "recorder.events": "count",
    "dumpio.write_ns_per_event": "ns",
    "dumpio.read_ns_per_event": "ns",
    "dumpio.bytes_per_event": "B",
    "summary.index_s": "s",
    "summary.render_s": "s",
    "aggregate.functions_ns_per_event": "ns",
    "aggregate.threads_ns_per_event": "ns",
    "aggregate.regions_ns_per_event": "ns",
    "merge.s": "s",
    "classify.s": "s",
    "hotspots.s": "s",
    "compare.s": "s",
    "tables.render_s": "s",
    "exports.write_s": "s",
    "exports.read_s": "s",
    "cli.import_s": "s",
    "testbed.bootstrap_s": "s",
    "testbed.poll_calls": "count",
    "testbed.client_p50_ms": "ms",
}


class Tracer:
    """In-memory spans, written out when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int]] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter_ns()))

    def seconds(self, name: str) -> float:
        """Median duration of the spans called ``name``."""
        return statistics.median((e - s) / 1e9 for n, s, e in self.spans if n == name)

    def repeat(self, name: str, call: Callable[[], object], times: int = _SMALL_REPEATS) -> None:
        for _ in range(times):
            with self.span(name):
                call()

    def to_json(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e} for n, s, e in self.spans]


def _fresh_seconds(runner: Runner, name: str, probe: str) -> float:
    """Median of a probe that prints its own elapsed seconds, each run in a
    fresh interpreter so no cache of an earlier call is reused."""
    values = []
    for _ in range(_FRESH_REPEATS):
        done = runner.python(name, ["-c", probe])
        if done.returncode != 0:
            raise RuntimeError(f"{name} probe exited {done.returncode}: {done.stderr}")
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values)


def _bootstrap_s(run_dir: Path) -> float:
    offsets = {}
    for line in (run_dir / "timeline.txt").read_text(encoding="utf-8").splitlines():
        phase, _, offset = line.split("\t")
        offsets[phase] = float(offset)
    return offsets["RUNNING"] - offsets["IDLE"]


def _busiest_events(run_dir: Path) -> int:
    rows = (run_dir / "dumps" / "index.txt").read_text(encoding="utf-8").splitlines()[1:]
    return max(int(row.split("\t")[4]) for row in rows)


def measure_layers(run_dir: Path, runner: Runner, tracer: Tracer) -> Dict[str, float]:
    """Time each layer on ``run_dir``'s dumps; returns metric -> value."""
    from planeprof.analysis import classify, compare, find_hotspots
    from planeprof.instrument import CodeSite, Recorder, SiteKind, calibrate_clocks
    from planeprof.instrument.dumpio import read_dump, write_dump
    from planeprof.model import (
        aggregate_regions,
        aggregate_threads,
        merge_profiles,
        profile_from_dump,
    )
    from planeprof.reporting import (
        ReportKind,
        ReportSpec,
        export_json,
        import_json,
        render,
        render_summary,
        write_dump_index,
    )

    # The recorder is timed first, while the heap is small: the busiest
    # entity's buffer size (from the run's index), recorded as pairs.
    pairs = _busiest_events(run_dir) // 2
    recorder = Recorder(calibration=calibrate_clocks())
    site = CodeSite(file="bench", line=1, symbol="pair", kind=SiteKind.REGION)
    enter, exit_ = recorder.enter, recorder.exit
    with tracer.span("recorder.pairs"):
        for _ in range(pairs):
            enter(site)
            exit_(site)
    with tracer.span("recorder.materialize"):
        materialized = len(recorder.events())

    paths = sorted((run_dir / "dumps").glob("*.dump"))
    with tracer.span("dumpio.read"):
        dumps = [read_dump(p) for p in paths]
    events = sum(len(d.events) for d in dumps)
    scratch = run_dir / "layer-scratch"
    scratch.mkdir(exist_ok=True)
    with tracer.span("dumpio.write"):
        for d in dumps:
            write_dump(scratch / f"{d.meta.entity}.dump", d.meta, d.calibration, d.events,
                       d.violations, d.coarse)

    with tracer.span("aggregate.functions"):
        profiles = [profile_from_dump(d) for d in dumps]
    with tracer.span("aggregate.threads"):
        for d in dumps:
            aggregate_threads(d.events)
    # a statement-region table needs a function scope: each entity's main loop
    scoped = []
    for d in dumps:
        mains = [e.site for e in d.events
                 if e.site.kind is SiteKind.FUNCTION and e.site.symbol.endswith("_main")]
        if mains:
            scoped.append((d, mains[0]))
    with tracer.span("aggregate.regions"):
        for d, scope in scoped:
            aggregate_regions(d.events, scope)
    scoped_events = sum(len(d.events) for d, _ in scoped)

    with tracer.span("merge"):
        merged = merge_profiles(profiles)
    tracer.repeat("classify", lambda: classify(merged))
    tracer.repeat("hotspots", lambda: find_hotspots(merged))
    tracer.repeat("compare", lambda: compare(merged, merged))
    spec = ReportSpec(kind=ReportKind.FUNCTION_TABLE)
    tracer.repeat("tables.render", lambda: render(merged, spec))
    tracer.repeat("exports.write", lambda: export_json(merged, ReportKind.FUNCTION_TABLE))
    exported = export_json(merged, ReportKind.FUNCTION_TABLE)
    tracer.repeat("exports.read", lambda: import_json(exported))
    with tracer.span("summary.index"):
        write_dump_index(run_dir / "dumps")
    with tracer.span("summary.render"):
        render_summary(run_dir)

    load = json.loads((run_dir / "load_report.json").read_text(encoding="utf-8"))
    polls = sum(r.ncalls_total for r in merged.rows.values() if r.site.symbol == "poll_wait")
    ns = 1e9
    return {
        "recorder.pair_ns": tracer.seconds("recorder.pairs") * ns / pairs,
        "recorder.materialize_ns_per_event": tracer.seconds("recorder.materialize") * ns / materialized,
        "recorder.calibrate_ms": _fresh_seconds(runner, "calibrate-probe", _CALIBRATE_PROBE) * 1e3,
        "recorder.events": events,
        "dumpio.write_ns_per_event": tracer.seconds("dumpio.write") * ns / events,
        "dumpio.read_ns_per_event": tracer.seconds("dumpio.read") * ns / events,
        "dumpio.bytes_per_event": sum(p.stat().st_size for p in paths) / events,
        "summary.index_s": tracer.seconds("summary.index"),
        "summary.render_s": tracer.seconds("summary.render"),
        "aggregate.functions_ns_per_event": tracer.seconds("aggregate.functions") * ns / events,
        "aggregate.threads_ns_per_event": tracer.seconds("aggregate.threads") * ns / events,
        "aggregate.regions_ns_per_event": tracer.seconds("aggregate.regions") * ns / scoped_events,
        "merge.s": tracer.seconds("merge"),
        "classify.s": tracer.seconds("classify"),
        "hotspots.s": tracer.seconds("hotspots"),
        "compare.s": tracer.seconds("compare"),
        "tables.render_s": tracer.seconds("tables.render"),
        "exports.write_s": tracer.seconds("exports.write"),
        "exports.read_s": tracer.seconds("exports.read"),
        "cli.import_s": _fresh_seconds(runner, "import-probe", _IMPORT_PROBE),
        "testbed.bootstrap_s": _bootstrap_s(run_dir),
        "testbed.poll_calls": polls,
        "testbed.client_p50_ms": load["latency_quantiles_s"]["p50"] * 1e3,
    }
