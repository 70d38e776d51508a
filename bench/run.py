"""planeprof's benchmark: run -> analyze -> report through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quick --seed 1 --seconds 20 --trace 0

Every end-to-end metric is measured on `planeprof` commands started one at
a time as subprocesses, so internal API or dump-format changes are measured
without touching this file. Each run attempts whole rounds of a workload's
fixed command list until ``--seconds`` have passed, checks every output
and reports each metric as the median of its samples, the CPU-bound ones
at a reference host speed. ``--trace 1`` adds one traced round:
the same commands followed by per-layer timings taken around planeprof's
public calls (see layers.py), and reports those instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The host record,
every sample and the trace spans go to standard error and to
``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
from checks import CheckFailed, Scenario
from commands import REFERENCE_PROBE_S, Measured, Runner, become_subreaper
from host import host_record

# The whole run must end within 180 s; commands still running at this
# point are stopped, and no round starts that is not expected to finish.
DEADLINE_S = 170.0
SETUP_REPEATS = 3
# `analyze` takes 0.3-1.5 s and the host's speed changes by 45% and more
# in phases of a few seconds; repeating it gives its median enough samples.
ANALYZE_REPEATS = 3

BENCH = Path(__file__).resolve().parent
QUICK_SCENARIO = Path("scenarios/quick.scenario")
REFERENCE_SCENARIO = BENCH / "scenarios" / "reference-process.scenario"

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_cpu_s": "CPU-s",
    "run_rss_mb": "MB",
    "post_run_us_per_event": "us",
    "dump_b_per_event": "B",
    "analyze_us_per_event": "us",
    "analyze_rss_b_per_event": "B",
    "report_us_per_event": "us",
}
# The host's speed drifts by 45% and more, in phases from seconds to
# minutes; these CPU-bound figures are reported at a reference speed.
SCALED = ("post_run_us_per_event", "analyze_us_per_event", "report_us_per_event")
# Samples kept in the record only. The event count of a fixed-window run
# moves with the host's state by up to 30% between runs minutes apart, so
# the absolute sizes and times that scale with it are no metric.
RECORD_UNITS = {
    "events": "count",
    "post_run_s": "s",
    "dump_mb": "MB",
    "analyze_s": "s",
    "analyze_rss_mb": "MB",
    "report_s": "s",
    "round_s": "s",
    "poll_count_ratio": "ratio",
    "probe_s": "s",
}


class OpFailed(Exception):
    """A command that must succeed exited with another code than 0."""


class Bench:
    """State of one benchmark run: commands, samples and operation counts."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = root / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        self.runner = Runner(root, self.work / "logs", self.started + DEADLINE_S)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []  # expected failures, with their reasons

    def path(self, *parts: str) -> Path:
        return self.work.joinpath(*parts)

    # -- commands ------------------------------------------------------------

    def command(self, name: str, args: List[str], counted: bool = True) -> Measured:
        """Run one `planeprof` command that must succeed."""
        done = self.runner.planeprof(name, args)
        if counted:
            self.attempted += 1
        if done.returncode != 0:
            if counted:
                self.failed += 1
            raise OpFailed(f"{name} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return done

    def run(self, scenario: Scenario, out: Path, counted: bool = True) -> None:
        """`planeprof run`, its run metrics and the checks of its outputs."""
        done = self.command(
            "run",
            ["run", "--scenario", str(scenario.path), "--out", str(out), "--seed", str(self.seed)],
            counted,
        )
        checks.check_run(out, scenario)
        events = checks.read_index(out)[0]
        dump_bytes = sum(p.stat().st_size for p in (out / "dumps").iterdir())
        post_run_s = done.end_wall_s - _window_end(out)
        self.record(
            run_s=done.wall_s,
            run_cpu_s=done.cpu_s,
            run_rss_mb=done.rss_mb,
            events=events,
            post_run_s=post_run_s,
            post_run_us_per_event=post_run_s * 1e6 / events,
            dump_mb=dump_bytes / 1e6,
            dump_b_per_event=dump_bytes / events,
        )

    def analyze(self, dumps: Path, findings: Path) -> None:
        """`planeprof analyze`, :data:`ANALYZE_REPEATS` times in a row."""
        events = checks.read_index(dumps)[0]
        for _ in range(ANALYZE_REPEATS):
            done = self.command(
                "analyze", ["analyze", "--dumps", str(dumps), "--out", str(findings)]
            )
            checks.check_findings(findings)
            self.record(
                analyze_s=done.wall_s,
                analyze_us_per_event=done.wall_s * 1e6 / events,
                analyze_rss_mb=done.rss_mb,
                analyze_rss_b_per_event=done.rss_mb * 2**20 / events,
            )

    def reports(self, commands: List[List[str]], dumps: Path) -> None:
        """The workload's fixed report list, all reading ``dumps``."""
        events = checks.read_index(dumps)[0]
        walls = [self.command(args[0], args).wall_s for args in commands]
        for i, wall in enumerate(walls):
            self.samples[f"report_us_per_event.{i}"].append(wall * 1e6 / events)
        self.record(report_s=sum(walls))

    def record(self, **values: float) -> None:
        for name, value in values.items():
            self.samples[name].append(value)

    # -- loop ----------------------------------------------------------------

    def setup(self, prepare: Callable[[int], None]) -> None:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prepare(i)
            self.samples["setup_s"].append(time.perf_counter() - t0)

    def loop(self, one_round: Callable[[Path], Path]) -> None:
        """Whole rounds until ``seconds`` have passed."""
        t0 = time.monotonic()
        rounds: List[float] = []
        rd: Optional[Path] = None
        while not rounds or time.monotonic() - t0 < self.seconds:
            if rounds and time.monotonic() + max(rounds) > self.started + DEADLINE_S - 10:
                print(f"stopping after {len(rounds)} rounds: the next may not fit the deadline",
                      file=sys.stderr)
                break
            if rd is not None:
                shutil.rmtree(rd)
            rd = self.path(f"round-{len(rounds)}")
            rd.mkdir()
            r0 = time.monotonic()
            one_round(rd)
            rounds.append(time.monotonic() - r0)
        self.samples["round_s"] = rounds

    def warm_imports(self) -> None:
        """Fill the bytecode caches the timed commands import from."""
        done = self.runner.python(
            "warm", ["-c", "import planeprof.cli, planeprof.testbed.entity"]
        )
        if done.returncode != 0:
            raise OpFailed(f"importing planeprof failed: {done.stderr.strip()}")


def _window_end(run_dir: Path) -> float:
    """Wall-clock end of the scenario window: Running plus the load duration."""
    running = None
    for line in (run_dir / "timeline.txt").read_text(encoding="utf-8").splitlines():
        phase, wall, _ = line.split("\t")
        if phase == "RUNNING":
            running = float(wall)
    if running is None:
        raise CheckFailed(f"{run_dir}/timeline.txt has no RUNNING phase")
    load = json.loads((run_dir / "load_report.json").read_text(encoding="utf-8"))
    return running + float(load["duration_s"])


# -- workloads ----------------------------------------------------------------

FUNCTION_TABLE = "function_table.txt"
FUNCTION_EXPORT = "function_table.json"
FUNCTION_RERENDER = "function_table.rerender.txt"


def function_tables(run_dir: Path, rd: Path) -> List[List[str]]:
    """Text and structured function tables of ``run_dir``, and a text
    re-render of the structured export; all three land in ``rd``."""
    return [
        ["report", "--dumps", str(run_dir), "--kind", "function_table",
         "--out", str(rd / FUNCTION_TABLE)],
        ["report", "--dumps", str(run_dir), "--kind", "function_table",
         "--format", "structured", "--out", str(rd / FUNCTION_EXPORT)],
        ["report", "--export", str(rd / FUNCTION_EXPORT), "--kind", "function_table",
         "--out", str(rd / FUNCTION_RERENDER)],
    ]


def check_function_tables(bench: Bench, run_dir: Path, rd: Path, scenario: Scenario) -> float:
    """Checks of :func:`function_tables`' outputs; returns the poll-count ratio."""
    export = rd / FUNCTION_EXPORT
    checks.check_function_table(export, run_dir)
    checks.check_identical(rd / FUNCTION_TABLE, rd / FUNCTION_RERENDER)
    ratio = checks.poll_count_ratio(export, scenario)
    bench.samples["poll_count_ratio"].append(ratio)
    return ratio


def quick(bench: Bench) -> Callable[[Path], Path]:
    """The shipped quick scenario: thread mode, 8 dumps, a 2 s window."""
    scenario = Scenario(bench.root / QUICK_SCENARIO)
    bench.setup(lambda i: bench.warm_imports())

    def one_round(rd: Path) -> Path:
        bench.run(scenario, rd / "run")
        bench.analyze(rd / "run", rd / "findings.json")
        entities = sorted(p.stem for p in (rd / "run" / "dumps").glob("*.dump"))
        threads = [rd / f"thread_table.{e}.json" for e in entities]
        bench.reports(
            function_tables(rd / "run", rd)
            + [
                ["report", "--dumps", str(rd / "run"), "--kind", "thread_table", "--entity", e,
                 "--format", "structured", "--out", str(out)]
                for e, out in zip(entities, threads)
            ],
            rd / "run",
        )
        ratio = check_function_tables(bench, rd / "run", rd, scenario)
        checks.check_poll_count(ratio, rd / FUNCTION_EXPORT)
        checks.check_merge_additivity(rd / FUNCTION_EXPORT, threads)
        return rd / "run"

    return one_round


def reference_process(bench: Bench) -> Callable[[Path], Path]:
    """The reference topology in process mode: 21 processes, 1 ms poll."""
    scenario = Scenario(REFERENCE_SCENARIO)
    bench.setup(lambda i: bench.warm_imports())

    def one_round(rd: Path) -> Path:
        bench.run(scenario, rd / "run")
        bench.analyze(rd / "run", rd / "findings.json")
        bench.reports(function_tables(rd / "run", rd), rd / "run")
        check_function_tables(bench, rd / "run", rd, scenario)
        return rd / "run"

    return one_round


def _tear(corpus: Path, torn: Path) -> None:
    """Copy a corpus and cut its largest dump in the middle of an event line."""
    shutil.copytree(corpus / "dumps", torn)
    victim = max(torn.glob("*.dump"), key=lambda p: p.stat().st_size)
    data = victim.read_bytes()
    middle = data.index(b"\nE\t", len(data) // 2)
    victim.write_bytes(data[: middle + 4])  # "\nE\t" and one digit of the thread id


def report_sweep(bench: Bench) -> Callable[[Path], Path]:
    """Read only: analyze, every report kind and format, and compare, on a
    corpus made in set-up; plus `analyze` of a corpus with a torn dump."""
    scenario = Scenario(REFERENCE_SCENARIO)
    corpora = [bench.path(f"corpus-{i}") for i in range(SETUP_REPEATS)]

    def prepare(i: int) -> None:
        bench.warm_imports()
        bench.run(scenario, corpora[i], counted=False)

    bench.setup(prepare)
    # The event count of a fixed-window run varies from run to run; the
    # timed commands read the corpus of median size.
    corpus = sorted(corpora, key=lambda c: checks.read_index(c)[0])[len(corpora) // 2]
    torn = bench.path("torn")
    _tear(corpus, torn)

    def one_round(rd: Path) -> Path:
        bench.analyze(corpus, rd / "findings.json")
        dumps = ["--dumps", str(corpus)]
        csv_table, compared = rd / "function_table.csv", rd / "compare.txt"
        bench.reports(
            function_tables(corpus, rd)
            + [
                ["report", *dumps, "--kind", "function_table", "--format", "csv",
                 "--out", str(csv_table)],
                ["report", *dumps, "--kind", "thread_table", "--entity", "orchestrator",
                 "--format", "csv", "--out", str(rd / "thread_table.csv")],
                ["report", *dumps, "--kind", "line_table", "--scope", "host_node_main",
                 "--out", str(rd / "line_table.txt")],
                ["report", *dumps, "--kind", "coarse_table", "--out", str(rd / "coarse.txt")],
                ["report", *dumps, "--kind", "hotspot_report", "--format", "csv",
                 "--out", str(rd / "hotspots.csv")],
                ["compare", "--before", str(corpus), "--after", str(corpus),
                 "--out", str(compared)],
            ],
            corpus,
        )
        check_function_tables(bench, corpus, rd, scenario)
        checks.check_csv_matches_export(csv_table, rd / FUNCTION_EXPORT)
        checks.check_self_compare(compared)
        torn_analyze(bench, torn, rd / "torn-findings.json")
        return corpus

    return one_round


def torn_analyze(bench: Bench, torn: Path, findings: Path) -> None:
    """`analyze` of a corpus with one dump cut mid-line: counted, never timed.

    Today `read_dump` raises an uncaught ValueError on the cut line and the
    CLI exits 1. It counts as succeeded once it exits 0 with findings.
    """
    done = bench.runner.planeprof(
        "analyze-torn", ["analyze", "--dumps", str(torn), "--out", str(findings)]
    )
    bench.attempted += 1
    if done.returncode == 0 and findings.is_file():
        return
    bench.failed += 1
    last = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    bench.failures.append(f"analyze of a torn dump exited {done.returncode}: {last[0]}")


WORKLOADS = {
    "quick": quick,
    "reference-process": reference_process,
    "report-sweep": report_sweep,
}


def end_to_end(samples: Dict[str, List[float]], probes: List[float]) -> Dict[str, dict]:
    """Each metric as the median of its samples in the run.

    The CPU-bound figures are scaled to the reference host speed: by
    ``REFERENCE_PROBE_S`` over the median probe time of the run.
    `report_us_per_event` sums the medians of the report list's commands.
    """
    parts = [v for k, v in samples.items() if k.startswith("report_us_per_event.")]
    values = {"report_us_per_event": sum(statistics.median(v) for v in parts)}
    for name in E2E_UNITS:
        if name not in values:
            values[name] = statistics.median(samples[name])
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    for name in SCALED:
        values[name] *= speed
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "planeprof" / "cli.py").is_file():
        print(f"error: no planeprof sources under {root / 'src'}; "
              "run from the root of a planeprof checkout", file=sys.stderr)
        return 2
    become_subreaper()
    bench = Bench(root, args.workload, args.seed, args.seconds)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    record["host"] = host_record(bench.runner, bench.work)
    print(json.dumps({"host": record["host"]}), file=sys.stderr)

    correct = True
    metrics: Dict[str, dict] = {}
    try:
        one_round = WORKLOADS[args.workload](bench)
        bench.loop(one_round)
        metrics = end_to_end(bench.samples, bench.runner.probes)
        if args.trace:
            metrics = traced(bench, one_round)
    except (OpFailed, CheckFailed, TimeoutError) as exc:
        correct = False
        record["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)

    bench.samples["probe_s"] = bench.runner.probes
    record["samples"] = bench.samples
    record["expected_failures"] = bench.failures
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record["result"] = result
    (bench.work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    units = {**E2E_UNITS, **RECORD_UNITS}
    for name, values in sorted(bench.samples.items()):
        print(f"{name:>24} median {statistics.median(values):10.4f} min {min(values):10.4f} "
              f"{units[name.partition('.')[0]]:<6} n={len(values)} "
              f"samples={[round(v, 4) for v in values]}", file=sys.stderr)
    for reason in sorted(set(bench.failures)):
        print(f"expected failure: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced(bench: Bench, one_round: Callable[[Path], Path]) -> Dict[str, dict]:
    """One more round, followed by the per-layer pass on its outputs.

    The tracing overhead is the traced round's wall time minus the median
    untraced round.
    """
    sys.path.insert(0, str(bench.root / "src"))
    from layers import UNITS, Tracer, measure_layers

    untraced = statistics.median(bench.samples["round_s"])
    rd = bench.path("traced")
    rd.mkdir()
    tracer = Tracer()
    t0 = time.monotonic()
    values = measure_layers(one_round(rd), bench.runner, tracer)
    overhead = time.monotonic() - t0 - untraced
    (bench.work / "trace.json").write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / untraced, "unit": "%"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
