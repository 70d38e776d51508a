"""Command line: run scenarios, analyze dumps, render reports, compare runs.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime failure
(bootstrap timeout, spawn failure, missing reply). An ``--out`` that names
a directory (a file, for ``run``) or a path that cannot be written is a
usage error (2). A command whose stdout reader has gone away keeps its
own code and says so in one stderr line.

Each command imports what only it runs: ``run`` the testbed and the
recorder, ``calibrate`` the recorder, and the commands that classify time
the analysis modules. So ``analyze``, ``report`` and ``compare`` start
without the testbed, the recorder or the run summary, and a function or
thread table without the analysis modules.

:func:`entry_point` runs a command as a process: it flushes the standard
streams and ends with ``os._exit``, as an entity does, skipping
interpreter teardown. :func:`main` returns the code, for in-process use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NoReturn, Optional, Tuple

from planeprof.instrument.dumpio import DumpFormatError, DumpStream, read_dump_info
from planeprof.instrument.events import LEVELS, CodeSite, SiteKind
from planeprof.model.aggregate import UnknownScope, profile_from_path, walk_cached, walk_stream
from planeprof.model.merge import RunIdMismatch, merge_profiles
from planeprof.model.stats import FunctionProfile, RegionProfile, ThreadStats
from planeprof.reporting.exports import ExportFormatError, read_export, write_export
from planeprof.reporting.tables import (
    InvalidSortKey,
    ReportFormat,
    ReportKind,
    ReportSpec,
    write_report,
)

if TYPE_CHECKING:
    from planeprof.analysis.categories import CategoryRules
    from planeprof.instrument.proctimes import CoarseBreakdown
    from planeprof.testbed.config import ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SITE_RUN_WINDOW = CodeSite("cli.py", 1, "run_window", SiteKind.REGION)


class CliError(Exception):
    """Usage-level problem; maps to exit code 2."""


def _parse_levels(raw: Optional[str]) -> Tuple[str, ...]:
    if not raw:
        return LEVELS
    levels = tuple(x.strip() for x in raw.split(",") if x.strip())
    unknown = [x for x in levels if x not in LEVELS]
    if unknown:
        raise CliError(f"unknown profiling levels: {unknown}; valid: {list(LEVELS)}")
    return levels


def _dump_paths(dump_dir: Path) -> List[Path]:
    if not dump_dir.is_dir():
        raise CliError(f"{dump_dir} is not a directory")
    paths = sorted(dump_dir.glob("*.dump"))
    if not paths:
        nested = dump_dir / "dumps"
        if nested.is_dir():
            paths = sorted(nested.glob("*.dump"))
    if not paths:
        raise CliError(f"no .dump files under {dump_dir}")
    return paths


def _merged_profile(dump_dir: Path) -> FunctionProfile:
    """Stream each dump into its profile, one at a time, and merge them."""
    return merge_profiles([profile_from_path(p) for p in _dump_paths(dump_dir)])


def _rules(path: Optional[str]) -> Optional[CategoryRules]:
    if not path:
        return None
    from planeprof.analysis.categories import load_rules

    return load_rules(path)


def _print_path(out: Path) -> int:
    """Print a finished command's output path; its outputs are on disk."""
    try:
        print(out)
    except BrokenPipeError:
        _drop_stdout()
    return EXIT_OK


def _drop_stdout() -> None:
    """Point stdout at the null device once its reader has gone, so that
    what it still buffers cannot fail again, and say so on stderr."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print("warning: stdout was closed before the output path was written", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    # The testbed is imported here, so analyze, report and compare never
    # load it. So is every module that the post-run step imports (the coarse
    # table's renderer imports the percentages), so that nothing is imported
    # after the run's window.
    from dataclasses import replace

    import planeprof.analysis.percentages  # noqa: F401
    import planeprof.reporting.summary  # noqa: F401
    from planeprof.instrument.recorder import Recorder
    from planeprof.testbed.config import ScenarioError, load_scenario
    from planeprof.testbed.orchestrator import (
        BootstrapTimeout,
        EntitySpawnFailed,
        NoActiveWorkflow,
        PortUnavailable,
        bootstrap,
    )

    try:
        config = load_scenario(args.scenario)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        levels = _parse_levels(args.levels)
        out = Path(args.out) if args.out else Path(f"run-{config.scenario_id}")
        out.mkdir(parents=True, exist_ok=True)
        # a rerun must not mix with a previous run's dumps, whole or
        # unfinished, nor with the rows files of their walks
        dumps = out / "dumps"
        for pattern in ("*.dump", "*.dump.part", "*.dump.rows*"):
            for stale in dumps.glob(pattern):
                stale.unlink()
        recorder = Recorder(enabled="events" in levels)
        run_id = f"{config.scenario_id}-seed{config.seed}"
        topo = bootstrap(config, run_dir=out, recorder=recorder, run_id=run_id, levels=levels)
        load_report = None
        try:
            remaining = config.run_duration_s
            if config.client_users > 0 and config.run_duration_s > 0:
                t0 = time.monotonic()
                load_report = topo.client_load(
                    users=config.client_users,
                    rate_rps=config.client_request_rate,
                    duration_s=config.run_duration_s,
                )
                remaining = config.run_duration_s - (time.monotonic() - t0)
            if remaining > 0:
                with recorder.region(SITE_RUN_WINDOW):
                    time.sleep(remaining)
        finally:
            coarse = topo.shutdown()
        _write_run_artifacts(out, topo, config, coarse, load_report)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        BootstrapTimeout,
        EntitySpawnFailed,
        PortUnavailable,
        NoActiveWorkflow,
        TimeoutError,
    ) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return _print_path(out)


def _write_run_artifacts(
    out: Path,
    topo,
    config: ScenarioConfig,
    coarse: Dict[str, Optional[CoarseBreakdown]],
    load_report,
) -> None:
    from dataclasses import asdict

    from planeprof.reporting.summary import read_dump_infos, render_summary, write_dump_index

    timeline_lines = []
    entries = sorted(topo.timeline.values(), key=lambda e: e.monotonic_s)
    base = entries[0].monotonic_s if entries else 0.0
    for e in entries:
        timeline_lines.append(
            f"{e.phase.name}\t{e.wall_s!r}\t{e.monotonic_s - base:.6f}"
        )
    (out / "timeline.txt").write_text("\n".join(timeline_lines) + "\n", encoding="utf-8")
    # each dump's header and footer are read once, for the coarse table,
    # the dump index and the summary
    dumps_dir = out / "dumps"
    infos = read_dump_infos(dumps_dir)
    # dump footers are the uniform coarse source: per-process splits in
    # process mode, per-thread splits in thread mode; supervisor rusage
    # (when available) refines the process-mode numbers
    breakdowns = {i.meta.entity: i.coarse for i in infos.values() if i.coarse is not None}
    for name, b in coarse.items():
        if b is not None:
            breakdowns[name] = b
    spec = ReportSpec(kind=ReportKind.COARSE_TABLE, output=out / "coarse.txt")
    write_report(breakdowns, spec)
    write_export(breakdowns, ReportKind.COARSE_TABLE, out / "coarse.json")
    if load_report is not None:
        (out / "load_report.json").write_text(
            json.dumps(asdict(load_report), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    write_dump_index(dumps_dir, infos)
    (out / "summary.txt").write_text(render_summary(out, infos), encoding="utf-8")


def cmd_analyze(args: argparse.Namespace) -> int:
    from planeprof.analysis.hotspots import find_hotspots

    merged = _merged_profile(Path(args.dumps))
    findings = find_hotspots(merged, min_share_pct=args.threshold, rules=_rules(args.rules))
    out = Path(args.out) if args.out else Path(args.dumps) / "findings.json"
    write_export(findings, ReportKind.HOTSPOT_REPORT, out)
    return _print_path(out)


def _region_profile(paths: List[Path], symbol: str) -> RegionProfile:
    """Regions in the first ``FUNCTION`` site named ``symbol``, in file
    order, taken from the first dump that holds one."""
    for path in paths:
        with DumpStream(path) as stream:
            result = walk_stream(stream, scope_symbol=symbol)
        if result.scope is not None:
            return result.region_profile()
    raise UnknownScope(f"no function site named {symbol!r} in any dump")


def _thread_table(paths: List[Path], entity: str) -> List[ThreadStats]:
    for path in paths:
        with DumpStream(path) as stream:
            if stream.meta.entity == entity:
                return walk_cached(stream).thread_table()
    raise CliError(f"no dump for entity {entity!r}")


# The report flags that one kind alone reads, and only from dumps.
_KIND_FLAGS = {
    "scope": ReportKind.LINE_TABLE,
    "entity": ReportKind.THREAD_TABLE,
    "threshold": ReportKind.HOTSPOT_REPORT,
    "rules": ReportKind.HOTSPOT_REPORT,
}


def cmd_report(args: argparse.Namespace) -> int:
    kind = ReportKind(args.kind)
    fmt = ReportFormat(args.format)
    for flag, reader in _KIND_FLAGS.items():
        if getattr(args, flag) is not None and (args.export or kind is not reader):
            raise CliError(f"--{flag} applies only to --kind {reader.value} read from --dumps")
    if args.export:
        try:
            loaded_kind, data = read_export(Path(args.export))
        except (ExportFormatError, UnicodeDecodeError) as exc:
            raise ExportFormatError(f"{args.export}: {exc}") from None
        if loaded_kind is not kind:
            raise CliError(f"export holds {loaded_kind.value}, not {kind.value}")
    else:
        dumps = Path(args.dumps)
        if kind is ReportKind.FUNCTION_TABLE:
            data = _merged_profile(dumps)
        elif kind is ReportKind.LINE_TABLE:
            if not args.scope:
                raise CliError("line_table needs --scope <function symbol>")
            data = _region_profile(_dump_paths(dumps), args.scope)
        elif kind is ReportKind.THREAD_TABLE:
            data = _thread_table(_dump_paths(dumps), args.entity or "orchestrator")
        elif kind is ReportKind.COARSE_TABLE:
            infos = [read_dump_info(p) for p in _dump_paths(dumps)]
            data = {i.meta.entity: i.coarse for i in infos if i.coarse is not None}
        else:
            from planeprof.analysis.hotspots import find_hotspots

            threshold = 1.0 if args.threshold is None else args.threshold
            data = find_hotspots(
                _merged_profile(dumps), min_share_pct=threshold, rules=_rules(args.rules)
            )
    suffix = {"text": "txt", "csv": "csv", "structured": "json"}[fmt.value]
    out = Path(args.out) if args.out else Path(f"{kind.value}.{suffix}")
    spec = ReportSpec(kind=kind, sort_key=args.sort, top_n=args.top, output=out, format=fmt)
    write_report(data, spec)
    return _print_path(out)


def cmd_compare(args: argparse.Namespace) -> int:
    from planeprof.analysis.hotspots import compare

    before = _merged_profile(Path(args.before))
    after = _merged_profile(Path(args.after))
    report = compare(before, after, rules=_rules(args.rules), regression_epsilon_s=args.epsilon)
    out = Path(args.out) if args.out else Path("compare_report.txt")
    spec = ReportSpec(kind=ReportKind.COMPARE_REPORT, output=out, top_n=args.top)
    write_report(report, spec)
    return _print_path(out)


def cmd_calibrate(args: argparse.Namespace) -> int:
    from planeprof.instrument.recorder import calibrate_clocks

    cal = calibrate_clocks()
    record = {
        "wall_cost_ns": cal.wall_cost_ns,
        "cpu_cost_ns": cal.cpu_cost_ns,
        "cpu_refresh_wall_ns": cal.cpu_refresh_wall_ns,
        "pair_overhead_ns": cal.pair_overhead_ns,
        "overhead_budget_ns": cal.overhead_budget_ns,
    }
    out = Path(args.out) if args.out else Path("calibration.json")
    out.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return _print_path(out)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_non_negative(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeprof",
        description="Profile a control-plane testbed at coarse, function, "
        "statement and thread granularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario and collect dumps")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--out", help="run directory (default run-<scenario_id>)")
    p.add_argument("--levels", help=f"comma list of {','.join(LEVELS)}")
    p.add_argument("--seed", type=int, help="override scenario seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="classify dumps and rank hotspots")
    p.add_argument("--dumps", required=True, help="run or dumps directory")
    p.add_argument(
        "--threshold", type=_finite_non_negative, default=1.0, help="min share %% per finding"
    )
    p.add_argument("--rules", help="category rules file")
    p.add_argument("--out", help="findings file (default <dumps>/findings.json)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="render one table from dumps or an export")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dumps", help="run or dumps directory")
    source.add_argument("--export", help="structured export to re-render")
    p.add_argument(
        "--kind",
        default="function_table",
        choices=[k.value for k in ReportKind if k is not ReportKind.COMPARE_REPORT],
    )
    p.add_argument(
        "--sort",
        help="sort key for a function, line or thread table; "
        "csv and structured exports hold every row in a fixed order",
    )
    p.add_argument(
        "--top",
        type=_positive_int,
        help="limit a text report to its top N rows; csv and structured exports ignore it",
    )
    p.add_argument("--format", default="text", choices=[f.value for f in ReportFormat])
    p.add_argument("--scope", help="function symbol for line_table")
    p.add_argument("--entity", help="entity for thread_table (default orchestrator)")
    p.add_argument(
        "--threshold",
        type=_finite_non_negative,
        help="min share %% per finding for hotspot_report (default 1.0)",
    )
    p.add_argument("--rules", help="category rules file for hotspot_report")
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="delta report between two runs")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument(
        "--epsilon", type=_finite_non_negative, default=0.05, help="regression flag threshold (s)"
    )
    p.add_argument("--top", type=_positive_int, help="limit site delta rows")
    p.add_argument("--rules", help="category rules file")
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("calibrate", help="measure per-event overhead on this host")
    p.add_argument("--out", help="output path (default calibration.json)")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _usage_errors() -> tuple:
    """The exceptions that exit 2. ``main`` calls this only once a command
    has raised, and a command that raised an analysis module's exception
    has loaded that module."""
    from planeprof.analysis.categories import RulesError
    from planeprof.analysis.hotspots import ScenarioMismatch

    return (
        CliError,
        InvalidSortKey,
        RulesError,
        ScenarioMismatch,
        RunIdMismatch,
        UnknownScope,
        DumpFormatError,
        ExportFormatError,
        FileNotFoundError,
        FileExistsError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
    )


def entry_point() -> NoReturn:
    """Run :func:`main` as the process and end it the way an entity ends.

    By the time ``main`` returns, every output is written and closed and
    a run's entities are reaped; a thread still alive is a daemon that
    teardown would stop as well. Only the standard streams may still hold
    output, so teardown would cost time and do nothing else.
    """
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    entry_point()
