"""Command-line behavior: artifacts, exit codes, determinism, idempotency."""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planeprof.cli
import planeprof.instrument.dumpio
import planeprof.reporting.summary as summary
from planeprof.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from planeprof.instrument.dumpio import (
    DumpInfo,
    DumpMeta,
    DumpStream,
    read_dump,
    write_dump,
    write_records,
)
from planeprof.instrument.events import CodeSite, SiteKind
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.instrument.recorder import ClockCalibration, Recorder
from planeprof.model.aggregate import (
    aggregate_regions,
    aggregate_threads,
    profile_from_dump,
    profile_from_path,
    rows_path,
    walk_stream,
)
from planeprof.reporting.exports import import_csv
from planeprof.reporting.tables import ReportKind
from planeprof.testbed.config import ScenarioConfig, write_scenario
from planeprof.testbed.entity import EntityConfig
from planeprof.testbed.workflows import LoadReport


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "tiny.scenario"
    cfg = ScenarioConfig(
        scenario_id="tiny",
        zones=1,
        sites_per_zone=1,
        hosts_per_site=2,
        client_users=10,
        run_duration_s=0.8,
        poll_timeout_ms=5.0,
        post_start_sleep_s={},
        heartbeat_interval_s=0.2,
        client_request_rate=30.0,
        bootstrap_deadline_s=15.0,
        entity_mode="thread",
        seed=7,
    )
    write_scenario(cfg, path)
    return path


@pytest.fixture(scope="module")
def run_dir(scenario_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "runA"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == EXIT_OK
    return out


def assert_streamed_equals_materialized(path):
    dump = read_dump(path)
    expected = profile_from_dump(dump)
    profile = profile_from_path(path)
    assert list(profile.rows.items()) == list(expected.rows.items())
    assert profile.wall_span_ns == expected.wall_span_ns
    assert (profile.run_id, profile.sources) == (expected.run_id, expected.sources)
    scopes = [e.site for e in dump.events if e.site.kind is SiteKind.FUNCTION]
    with DumpStream(path) as stream:
        streamed = walk_stream(stream, scope_symbol=scopes[0].symbol if scopes else None)
    assert streamed.thread_table() == aggregate_threads(dump.events)
    if scopes:
        assert streamed.scope == scopes[0]
        regions = streamed.region_profile()
        expected_regions = aggregate_regions(dump.events, scopes[0])
        assert list(regions.rows.items()) == list(expected_regions.rows.items())
        assert regions.scope_time_ns == expected_regions.scope_time_ns


class TestRun:
    def test_artifacts_present(self, run_dir):
        assert (run_dir / "timeline.txt").exists()
        assert (run_dir / "coarse.txt").exists()
        assert (run_dir / "coarse.json").exists()
        assert (run_dir / "summary.txt").exists()
        LoadReport(**json.loads((run_dir / "load_report.json").read_text()))
        dumps = sorted(p.name for p in (run_dir / "dumps").glob("*.dump"))
        assert "orchestrator.dump" in dumps
        assert "gc.dump" in dumps and "ns.dump" in dumps
        assert (run_dir / "dumps" / "index.txt").exists()

    def test_mode_flag_is_gone(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(scenario_file), "--mode", "thread"])
        assert exc.value.code == EXIT_CONFIG

    def test_bootstrap_only_run(self, scenario_file, tmp_path):
        # run_duration 0 with zero sleeps: dumps still land
        cfg = ScenarioConfig(
            scenario_id="boot-only",
            zones=1,
            sites_per_zone=1,
            hosts_per_site=1,
            client_users=0,
            run_duration_s=0.0,
            poll_timeout_ms=5.0,
            post_start_sleep_s={},
            heartbeat_interval_s=0.2,
            bootstrap_deadline_s=15.0,
            entity_mode="thread",
        )
        path = tmp_path / "boot.scenario"
        write_scenario(cfg, path)
        out = tmp_path / "boot-run"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        names = {p.stem for p in (out / "dumps").glob("*.dump")}
        assert {"orchestrator", "gc", "ns", "lc-z1s1", "wm-z1w1", "host-z1s1h1"} <= names

    def test_rerun_clears_stale_and_unfinished_dumps(self, scenario_file, tmp_path):
        out = tmp_path / "rerun"
        (out / "dumps").mkdir(parents=True)
        stale_files = (
            "ghost.dump",
            "ghost.dump.part",
            "ghost.dump.rows",
            "ghost.dump.rows.123.tmp",
            "orchestrator.dump.rows",
        )
        for stale in stale_files:
            (out / "dumps" / stale).write_text("from an earlier run\n")
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == EXIT_OK
        names = {p.name for p in (out / "dumps").iterdir()}
        assert "orchestrator.dump" in names
        assert not {n for n in names if n.startswith("ghost") or n.endswith((".part", ".rows"))}

    def test_missing_scenario_is_config_error(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.scenario")])
        assert code == EXIT_CONFIG

    def test_invalid_scenario_is_config_error(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("zones = 0\n", encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == EXIT_CONFIG

    def test_unknown_level_is_config_error(self, scenario_file, tmp_path, capsys):
        # the retired names function, line, thread and sample get no alias
        for levels in ("coarse,psychic", "function", "line", "thread", "sample"):
            code = main(
                [
                    "run",
                    "--scenario",
                    str(scenario_file),
                    "--out",
                    str(tmp_path / "x"),
                    "--levels",
                    levels,
                ]
            )
            assert code == EXIT_CONFIG
            unknown = levels.split(",")[-1]
            assert capsys.readouterr().err == (
                f"error: unknown profiling levels: ['{unknown}']; valid: ['coarse', 'events']\n"
            )

    def test_busy_port_is_runtime_failure(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        cfg = ScenarioConfig(
            scenario_id="busyport",
            hosts_per_site=0,
            workflows_per_zone=0,
            client_users=0,
            run_duration_s=0.0,
            post_start_sleep_s={},
            listen_port=port,
            entity_mode="thread",
        )
        path = tmp_path / "busy.scenario"
        write_scenario(cfg, path)
        try:
            code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r")])
        finally:
            blocker.close()
        assert code == EXIT_RUNTIME

    def test_bad_spawn_variable_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        to_env = EntityConfig.to_env

        def bad_env(cfg):
            return {**to_env(cfg), "CLOCK_CALIBRATION": "1,2,x,4"}

        monkeypatch.setattr(EntityConfig, "to_env", bad_env)
        cfg = ScenarioConfig(
            scenario_id="badenv",
            hosts_per_site=0,
            workflows_per_zone=0,
            client_users=0,
            run_duration_s=0.0,
            post_start_sleep_s={},
            entity_mode="process",
        )
        path = tmp_path / "badenv.scenario"
        write_scenario(cfg, path)
        out = tmp_path / "r"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_RUNTIME
        assert "global_controller" in capsys.readouterr().err
        log = (out / "logs" / "gc.stderr").read_text().splitlines()
        assert log == ["gc: fatal: CLOCK_CALIBRATION='1,2,x,4': invalid literal for int() "
                       "with base 10: 'x'"]

    def test_index_and_summary_match_full_parses(self, run_dir, monkeypatch):
        rows = ["# dump\tentity\trole\trun_id\tevents\tviolations"]
        for path in sorted((run_dir / "dumps").glob("*.dump")):
            d = read_dump(path)
            rows.append(
                f"{path.name}\t{d.meta.entity}\t{d.meta.role}\t{d.meta.run_id}"
                f"\t{len(d.events)}\t{len(d.violations)}"
            )
        assert (run_dir / "dumps" / "index.txt").read_text() == "\n".join(rows) + "\n"

        def info_from_full_parse(path):
            d = read_dump(path)
            return DumpInfo(d.meta, d.calibration, len(d.events), len(d.violations), d.coarse)

        monkeypatch.setattr(summary, "read_dump_info", info_from_full_parse)
        assert (run_dir / "summary.txt").read_text() == summary.render_summary(run_dir)

    def test_run_artifacts_never_parse_whole_dumps(self, scenario_file, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read_dump({path}) after a run")

        monkeypatch.setattr(planeprof.instrument.dumpio, "read_dump", refuse)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == EXIT_OK
        rows = (out / "dumps" / "index.txt").read_text().splitlines()[1:]
        assert sum(int(row.split("\t")[4]) for row in rows) > 0

    def test_coarse_level_records_no_events(self, scenario_file, tmp_path):
        out = tmp_path / "coarse-run"
        code = main(
            ["run", "--scenario", str(scenario_file), "--out", str(out), "--levels", "coarse"]
        )
        assert code == EXIT_OK
        paths = sorted((out / "dumps").glob("*.dump"))
        assert {"orchestrator", "gc", "ns"} <= {p.stem for p in paths}
        for path in paths:
            dump = read_dump(path)  # also checks the counts footer
            assert dump.events == []
            assert dump.meta.levels == ("coarse",)
        rows = (out / "dumps" / "index.txt").read_text().splitlines()[1:]
        assert [row.split("\t")[4] for row in rows] == ["0"] * len(paths)

    @pytest.mark.parametrize("levels", ["events", "coarse,events"])
    def test_events_level_records_events(self, scenario_file, tmp_path, levels):
        out = tmp_path / "events-run"
        code = main(
            ["run", "--scenario", str(scenario_file), "--out", str(out), "--levels", levels]
        )
        assert code == EXIT_OK
        paths = sorted((out / "dumps").glob("*.dump"))
        assert {"orchestrator", "gc", "ns"} <= {p.stem for p in paths}
        for path in paths:
            dump = read_dump(path)
            assert dump.events, path.name
            assert dump.meta.levels == tuple(levels.split(","))

    def test_same_seed_reproduces_message_counts(self, scenario_file, tmp_path):
        out_b = tmp_path / "runB"
        out_c = tmp_path / "runC"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_b)]) == EXIT_OK
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_c)]) == EXIT_OK
        b = json.loads((out_b / "load_report.json").read_text())
        c = json.loads((out_c / "load_report.json").read_text())
        assert b["sent"] == c["sent"]
        assert b["answered"] == c["answered"]
        assert b["per_instance"] == c["per_instance"]


class TestAnalyze:
    def test_findings_file_with_poll_on_top(self, run_dir, tmp_path):
        out = tmp_path / "findings.json"
        assert main(["analyze", "--dumps", str(run_dir), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "hotspot_report"
        assert doc["rows"][0]["category"] == "io_wait_poll"

    def test_idempotent_over_same_dumps(self, run_dir, tmp_path):
        out = tmp_path / "findings.json"
        main(["analyze", "--dumps", str(run_dir), "--out", str(out)])
        first = out.read_text()
        main(["analyze", "--dumps", str(run_dir), "--out", str(out)])
        assert out.read_text() == first

    def test_missing_dumps_dir(self, tmp_path):
        assert main(["analyze", "--dumps", str(tmp_path / "void")]) == EXIT_CONFIG

    def test_torn_dump_is_config_error(self, run_dir, tmp_path, capsys):
        # read first, so the torn copy carries a stale rows file of its victim
        first = ["analyze", "--dumps", str(run_dir), "--out", str(tmp_path / "first.json")]
        assert main(first) == EXIT_OK
        torn = shutil.copytree(run_dir / "dumps", tmp_path / "torn")
        victim = max(torn.glob("*.dump"), key=lambda p: p.stat().st_size)
        assert rows_path(victim).is_file()
        data = victim.read_bytes()
        middle = data.index(b"\nE\t", len(data) // 2)
        victim.write_bytes(data[: middle + 4])  # "\nE\t" and the first byte of the wall delta
        code = main(["analyze", "--dumps", str(torn), "--out", str(tmp_path / "f.json")])
        assert code == EXIT_CONFIG
        line = data.count(b"\n", 0, middle) + 2
        assert capsys.readouterr().err.startswith(
            f"error: {victim}: line {line}: malformed 'E' record"
        )

    def test_sample_record_is_config_error(self, run_dir, tmp_path, capsys):
        # an S line (a stack sample) is no record kind: the dump is rejected
        # whole, at that line, rather than read without it
        copy = shutil.copytree(run_dir / "dumps", tmp_path / "sampled")
        victim = copy / "gc.dump"
        lines = victim.read_text().split("\n")
        at = lines.index("end_header") + 1
        lines.insert(at, "S\t1\t3000\t15\tentity.py:20:host_node_main")
        victim.write_text("\n".join(lines))
        code = main(["analyze", "--dumps", str(copy), "--out", str(tmp_path / "f.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {victim}: line {at + 1}: unknown event record 'S'\n"
        )

    def test_backwards_wall_clock_is_config_error(self, run_dir, tmp_path, capsys):
        copy = shutil.copytree(run_dir / "dumps", tmp_path / "regressed")
        victim = copy / "gc.dump"
        lines = victim.read_text().split("\n")
        # an enter right after an enter or exit is not its thread's first
        # record, so a negative wall delta takes its clock back
        at = [
            i for i, line in enumerate(lines)
            if line.startswith("E\t") and lines[i - 1][:2] in ("E\t", "X\t")
        ][-1]
        fields = lines[at].split("\t")
        fields[1] = "-1"
        lines[at] = "\t".join(fields)
        victim.write_text("\n".join(lines))
        code = main(["analyze", "--dumps", str(copy), "--out", str(tmp_path / "f.json")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: line {at + 1}: wall clock regressed on thread ")
        assert "Traceback" not in err

    # Each stream leaves b's primitive activation open around a closed
    # recursive one: the first drops the misplaced `X b`, the second is
    # cut short. No valid row for b exists.
    @pytest.mark.parametrize(
        "spec", ["E b, E a, X b, E b, X b, X a", "X b, E b, E b, X b"]
    )
    def test_open_activation_around_closed_recursion_is_config_error(
        self, tmp_path, capsys, spec
    ):
        sites = {s: CodeSite("r.py", n, s, SiteKind.FUNCTION) for n, s in enumerate("ab")}
        records = [
            (code, sites[symbol], 10 * n, 0, None)
            for n, (code, symbol) in enumerate(item.split() for item in spec.split(", "))
        ]
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        path = write_records(
            dumps / "orchestrator.dump",
            DumpMeta(run_id="r", entity="orchestrator", role="global_manager"),
            ClockCalibration(50, 100, 0, 1000),
            [(1, records)],
        )
        end = path.read_text().splitlines().index("end_events") + 1
        for argv in (
            ["analyze", "--dumps", str(dumps), "--out", str(tmp_path / "f.json")],
            ["report", "--kind", "thread_table", "--dumps", str(dumps),
             "--out", str(tmp_path / "t.txt")],
        ):
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"error: {path}: line {end}: thread 1: r.py:1(b) returned from recursive "
                "calls inside an activation that never returned\n"
            )


@pytest.fixture(scope="module")
def recorded_dump(tmp_path_factory):
    """A small recorder-written dump: two threads, recursion, tags, a
    violation and a coarse footer."""
    rec = Recorder(calibration=ClockCalibration(50, 100, 0, 1000))
    outer = CodeSite("w.py", 1, "outer", SiteKind.FUNCTION)
    inner = CodeSite("w.py", 2, "inner", SiteKind.REGION)

    def work(depth):
        with rec.region(outer):
            for _ in range(2):
                with rec.region(inner, tag="t"):
                    pass
            if depth:
                work(depth - 1)

    worker = threading.Thread(target=work, args=(2,))
    worker.start()
    worker.join(timeout=10)
    work(1)
    rec.exit(inner)  # exit without enter: a violation
    path = write_records(
        tmp_path_factory.mktemp("recorded") / "orchestrator.dump",
        DumpMeta(run_id="r", entity="orchestrator", role="global_manager"),
        rec.calibration,
        rec.records(),
        rec.violations,
        CoarseBreakdown(1.0, 0.5, 0.25),
    )
    return path.read_bytes()


def _damaged(data: bytes, how: str, a: int, b: int) -> bytes:
    if how == "truncate":
        return data[: a % len(data)]
    if how == "flip":
        at = a % len(data)
        return data[:at] + bytes([data[at] ^ (1 << b % 8)]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    i, j = a % len(lines), b % len(lines)
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


class TestDamagedDumps:
    def test_recorded_dump_reads_cleanly(self, recorded_dump, tmp_path):
        (tmp_path / "orchestrator.dump").write_bytes(recorded_dump)
        assert main(["analyze", "--dumps", str(tmp_path), "--out", str(tmp_path / "f.json")]) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        how=st.sampled_from(["truncate", "flip", "delete", "duplicate", "swap"]),
        a=st.integers(min_value=0, max_value=1 << 16),
        b=st.integers(min_value=0, max_value=1 << 16),
    )
    def test_read_commands_exit_0_or_2(self, recorded_dump, how, a, b):
        with tempfile.TemporaryDirectory() as scratch:
            dumps = Path(scratch)
            (dumps / "orchestrator.dump").write_bytes(_damaged(recorded_dump, how, a, b))
            for argv in (
                ["analyze", "--dumps", scratch, "--out", str(dumps / "f.json")],
                ["report", "--kind", "thread_table", "--dumps", scratch,
                 "--out", str(dumps / "t.txt")],
            ):
                assert main(argv) in (EXIT_OK, EXIT_CONFIG)


class TestStreaming:
    """analyze, report and compare stream each dump into the walk."""

    def test_streamed_tables_equal_materialized(self, run_dir):
        for path in sorted((run_dir / "dumps").glob("*.dump")):
            assert_streamed_equals_materialized(path)

    def test_run_round_trips_byte_identically(self, run_dir, tmp_path):
        events = 0
        for path in sorted((run_dir / "dumps").glob("*.dump")):
            dump = read_dump(path)
            events += len(dump.events)
            again = write_dump(
                tmp_path / path.name, dump.meta, dump.calibration, dump.events,
                dump.violations, dump.coarse,
            )
            assert again.read_bytes() == path.read_bytes(), path.name
            assert_streamed_equals_materialized(path)
        assert events > 0

    def test_dump_readers_never_materialize(self, run_dir, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read_dump({path}) while streaming")

        monkeypatch.setattr(planeprof.instrument.dumpio, "read_dump", refuse)
        commands = [
            ["analyze", "--dumps", str(run_dir)],
            ["report", "--dumps", str(run_dir), "--kind", "function_table"],
            ["report", "--dumps", str(run_dir), "--kind", "thread_table", "--entity", "gc"],
            ["report", "--dumps", str(run_dir), "--kind", "line_table",
             "--scope", "start_global_controller"],
            ["compare", "--before", str(run_dir), "--after", str(run_dir)],
        ]
        for i, args in enumerate(commands):
            assert main([*args, "--out", str(tmp_path / f"out{i}")]) == EXIT_OK, args

    def test_cli_import_leaves_the_testbed_out(self):
        probe = (
            "import sys, planeprof.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('planeprof.testbed')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        loaded = done.stdout.strip()
        assert "planeprof.testbed.orchestrator" not in loaded
        assert "planeprof.testbed.entity" not in loaded

    def test_read_command_loads_only_what_it_runs(self, run_dir, tmp_path):
        # a fresh interpreter, as the command line starts: no dataclass code
        # generation, and no module that a thread table does not run
        probe = (
            "import sys, planeprof.cli; "
            "code = planeprof.cli.main(['report', '--dumps', sys.argv[1], '--kind', "
            "'thread_table', '--format', 'structured', '--out', sys.argv[2]]); "
            "print(code, sorted(sys.modules))"
        )
        out = tmp_path / "threads.json"
        done = subprocess.run(
            [sys.executable, "-c", probe, str(run_dir), str(out)],
            capture_output=True, text=True, check=True,
        )
        code, loaded = done.stdout.splitlines()[-1].split(" ", 1)
        assert code == str(EXIT_OK) and out.exists()
        unused = [
            "dataclasses",
            "decimal",
            "planeprof.analysis.hotspots",
            "planeprof.instrument.recorder",
            "planeprof.reporting.summary",
        ]
        assert [m for m in unused if repr(m) in loaded] == []


_POST_RUN_PROBE = """
import sys
import planeprof.cli
from planeprof.testbed.orchestrator import RunningTopology

shutdown = RunningTopology.shutdown
at_shutdown = []


def recorded(self, *args, **kwargs):
    coarse = shutdown(self, *args, **kwargs)
    at_shutdown.append(set(sys.modules))
    return coarse


RunningTopology.shutdown = recorded
code = planeprof.cli.main(["run", "--scenario", sys.argv[1], "--out", sys.argv[2]])
late = set(sys.modules) - at_shutdown[0]
print(code, sorted(m for m in late if m.startswith("planeprof") or m == "decimal"))
"""


def test_post_run_step_imports_nothing_new(scenario_file, tmp_path):
    """A module first imported after the run's window would be timed as
    post-run work: everything the post-run step runs is loaded before."""
    done = subprocess.run(
        [sys.executable, "-c", _POST_RUN_PROBE, str(scenario_file), str(tmp_path / "run")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"


class TestDumpSize:
    def test_quick_run_stays_under_24_bytes_per_event(self, tmp_path):
        scenario = Path(__file__).parents[1] / "scenarios" / "quick.scenario"
        out = tmp_path / "quick"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        dumps = out / "dumps"
        size = sum(p.stat().st_size for p in dumps.glob("*.dump"))
        rows = (dumps / "index.txt").read_text().splitlines()[1:]
        events = sum(int(row.split("\t")[4]) for row in rows)
        assert events > 1000
        assert size / events < 24


class TestReport:
    def test_top_n_rows(self, run_dir, tmp_path):
        out = tmp_path / "table.txt"
        code = main(
            ["report", "--dumps", str(run_dir), "--kind", "function_table",
             "--top", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if l.startswith("   ncalls"))
        assert len(lines) - header_at - 1 == 3

    def test_invalid_sort_key_is_config_error(self, run_dir, tmp_path):
        # the key is checked for every kind and format, not only text tables
        for extra in ([], ["--kind", "coarse_table"], ["--format", "csv"]):
            code = main(
                ["report", "--dumps", str(run_dir), "--sort", "bogus",
                 "--out", str(tmp_path / "t.txt"), *extra]
            )
            assert code == EXIT_CONFIG, extra

    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_top_zero_is_usage_error(self, run_dir, tmp_path, capsys, command):
        args = {
            "report": ["report", "--dumps", str(run_dir)],
            "compare": ["compare", "--before", str(run_dir), "--after", str(run_dir)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--top", "0", "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == EXIT_CONFIG
        assert "--top: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "flag", ["analyze --threshold", "report --threshold", "compare --epsilon"]
    )
    def test_bad_numeric_flag_is_usage_error(self, run_dir, tmp_path, capsys, flag, value):
        command, option = flag.split()
        args = {
            "analyze": ["analyze", "--dumps", str(run_dir)],
            "report": ["report", "--dumps", str(run_dir), "--kind", "hotspot_report"],
            "compare": ["compare", "--before", str(run_dir), "--after", str(run_dir)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*args, f"{option}={value}", "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == EXIT_CONFIG
        assert f"{option}: must be finite and >= 0, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize(
        "rules", ["poll = nonsense\n", "# ok\npoll_wait\n"], ids=["category", "no-equals"]
    )
    def test_bad_rules_file_is_config_error(self, run_dir, tmp_path, capsys, rules):
        path = tmp_path / "bad.rules"
        path.write_text(rules)
        code = main(
            ["report", "--dumps", str(run_dir), "--kind", "hotspot_report",
             "--rules", str(path), "--out", str(tmp_path / "h.txt")]
        )
        assert code == EXIT_CONFIG
        lineno = rules.count("\n")
        assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}: ")

    def test_csv_report_reimports_exactly(self, run_dir, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            ["report", "--dumps", str(run_dir), "--kind", "function_table",
             "--format", "csv", "--out", str(out)]
        )
        assert code == EXIT_OK
        profile = import_csv(out.read_text(), ReportKind.FUNCTION_TABLE)
        assert profile.rows  # parses back into stats

    def test_line_table_needs_scope(self, run_dir, tmp_path):
        code = main(
            ["report", "--dumps", str(run_dir), "--kind", "line_table",
             "--out", str(tmp_path / "l.txt")]
        )
        assert code == EXIT_CONFIG
        code = main(
            ["report", "--dumps", str(run_dir), "--kind", "line_table",
             "--scope", "start_global_controller", "--out", str(tmp_path / "l.txt")]
        )
        assert code == EXIT_OK
        assert "spawn_entity" in (tmp_path / "l.txt").read_text()

    def test_thread_table_for_entity(self, run_dir, tmp_path):
        out = tmp_path / "threads.txt"
        code = main(
            ["report", "--dumps", str(run_dir), "--kind", "thread_table",
             "--entity", "gc", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "poll_wait" in out.read_text()

    def test_structured_export_rerenders(self, run_dir, tmp_path):
        export = tmp_path / "profile.json"
        main(
            ["report", "--dumps", str(run_dir), "--kind", "function_table",
             "--format", "structured", "--out", str(export)]
        )
        rendered = tmp_path / "re.txt"
        code = main(
            ["report", "--export", str(export), "--kind", "function_table",
             "--out", str(rendered)]
        )
        assert code == EXIT_OK
        direct = tmp_path / "direct.txt"
        main(
            ["report", "--dumps", str(run_dir), "--kind", "function_table",
             "--out", str(direct)]
        )
        assert rendered.read_text() == direct.read_text()

    @pytest.mark.parametrize(
        "data",
        [
            b'{"format": "x"}',
            b"function_table\tnot json\n",
            b'{"format": "planeprof-export", "version": 1, "kind": "function_table"}',
            b'{"format": "planeprof-export", "version": 1, "kind": "nope", "rows": []}',
            b"\xff\xfe not utf-8",
        ],
        ids=["format", "not-json", "no-rows", "kind", "not-utf8"],
    )
    def test_malformed_export_is_config_error(self, tmp_path, capsys, data):
        export = tmp_path / "bad.json"
        export.write_bytes(data)
        code = main(["report", "--export", str(export), "--out", str(tmp_path / "t.txt")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {export}: ")


_FLAG_KIND = {
    "--scope": "line_table",
    "--entity": "thread_table",
    "--threshold": "hotspot_report",
    "--rules": "hotspot_report",
}
_REPORT_KINDS = [k.value for k in ReportKind if k is not ReportKind.COMPARE_REPORT]


class TestReportFlags:
    """A flag that one report kind reads from dumps is refused elsewhere."""

    @pytest.mark.parametrize(
        "flag, kind",
        [(f, k) for f in _FLAG_KIND for k in _REPORT_KINDS if k != _FLAG_KIND[f]]
        + [(f, "export") for f in _FLAG_KIND],
    )
    def test_flag_of_another_kind_is_usage_error(self, run_dir, tmp_path, capsys, flag, kind):
        value = {
            "--scope": "host_node_main",
            "--entity": "gc",
            "--threshold": "2",
            "--rules": str(tmp_path / "absent.rules"),
        }[flag]
        if kind == "export":
            source = ["--export", str(tmp_path / "t.json"), "--kind", _FLAG_KIND[flag]]
        else:
            source = ["--dumps", str(run_dir), "--kind", kind]
        out = tmp_path / "t.txt"
        assert main(["report", *source, flag, value, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {flag} applies only to --kind {_FLAG_KIND[flag]} read from --dumps\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("sources", [["--dumps", "--export"], []], ids=["both", "neither"])
    def test_one_of_dumps_and_export(self, run_dir, tmp_path, sources):
        args = [x for flag in sources for x in (flag, str(run_dir))]
        with pytest.raises(SystemExit) as exc:
            main(["report", *args, "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == EXIT_CONFIG

    def test_hotspot_threshold_defaults_to_one_percent(self, run_dir, tmp_path):
        base = ["report", "--dumps", str(run_dir), "--kind", "hotspot_report"]
        assert main([*base, "--out", str(tmp_path / "a.txt")]) == EXIT_OK
        assert main([*base, "--threshold", "1.0", "--out", str(tmp_path / "b.txt")]) == EXIT_OK
        assert main([*base, "--threshold", "50", "--out", str(tmp_path / "c.txt")]) == EXIT_OK
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()
        assert (tmp_path / "a.txt").read_text() != (tmp_path / "c.txt").read_text()


def _unread_copy(run_dir: Path, dest: Path) -> Path:
    """The run's dumps and index, without the rows files earlier reads left."""
    return shutil.copytree(run_dir / "dumps", dest, ignore=shutil.ignore_patterns("*.rows"))


_READS = {
    "analyze": lambda d, out: ["analyze", "--dumps", d, "--out", out],
    "compare": lambda d, out: ["compare", "--before", d, "--after", d, "--out", out],
    "function_table": lambda d, out: ["report", "--dumps", d, "--out", out],
    "thread_table": lambda d, out: [
        "report", "--dumps", d, "--kind", "thread_table", "--entity", "gc", "--out", out
    ],
    "hotspot_report": lambda d, out: [
        "report", "--dumps", d, "--kind", "hotspot_report", "--format", "csv", "--out", out
    ],
}


class TestRowsFiles:
    """The first read of a dump leaves its walk's rows; later reads use them."""

    @pytest.mark.parametrize("command", sorted(_READS))
    def test_only_the_first_read_walks(self, run_dir, tmp_path, monkeypatch, command):
        dumps = _unread_copy(run_dir, tmp_path / "dumps")
        names = sorted(p.name for p in dumps.glob("*.dump"))
        walked = []
        records = DumpStream.records

        def counted(stream):
            walked.append(stream.path.name)
            return records(stream)

        monkeypatch.setattr(DumpStream, "records", counted)
        outputs = []
        for read in ("first", "second", "third"):
            out = tmp_path / read
            assert main(_READS[command](str(dumps), str(out))) == EXIT_OK
            outputs.append(out.read_bytes())
        expected = ["gc.dump"] if command == "thread_table" else names
        assert walked == expected
        assert outputs[0] == outputs[1] == outputs[2]
        assert sorted(p.name for p in dumps.glob("*.rows")) == [n + ".rows" for n in expected]

    def test_failed_write_changes_no_output(self, run_dir, tmp_path, monkeypatch):
        dumps = _unread_copy(run_dir, tmp_path / "dumps")
        listing = sorted(p.name for p in dumps.iterdir())
        replace = os.replace

        def refuse_rows(src, dst):
            if str(dst).endswith(".rows"):
                raise PermissionError(13, "refused", str(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_rows)
        refused = tmp_path / "refused.json"
        assert main(["analyze", "--dumps", str(dumps), "--out", str(refused)]) == EXIT_OK
        assert sorted(p.name for p in dumps.iterdir()) == listing
        monkeypatch.undo()
        for read in ("walked", "from-rows"):
            out = tmp_path / f"{read}.json"
            assert main(["analyze", "--dumps", str(dumps), "--out", str(out)]) == EXIT_OK
            assert out.read_bytes() == refused.read_bytes()

    def test_directory_readers_ignore_rows_files(self, run_dir, tmp_path):
        dumps = _unread_copy(run_dir, tmp_path / "run" / "dumps")
        index = (dumps / "index.txt").read_text()
        assert main(["analyze", "--dumps", str(dumps), "--out", str(tmp_path / "f.json")]) == 0
        names = sorted(p.name for p in dumps.glob("*.dump"))
        assert sorted(p.name for p in dumps.glob("*.dump.rows")) == [n + ".rows" for n in names]
        for where in (dumps, tmp_path / "run"):
            assert [p.name for p in planeprof.cli._dump_paths(where)] == names
        assert list(summary.read_dump_infos(dumps)) == names
        summary.write_dump_index(dumps)
        assert (dumps / "index.txt").read_text() == index


class TestCompare:
    def test_self_compare_is_all_zero(self, run_dir, tmp_path):
        out = tmp_path / "cmp.txt"
        code = main(
            ["compare", "--before", str(run_dir), "--after", str(run_dir),
             "--out", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "regressions" not in text
        for line in text.splitlines():
            if line.startswith(("user_compute", "io_wait_poll", "sleep", "heartbeat")):
                assert "    0.000 " in line


class TestCalibrate:
    def test_writes_record(self, tmp_path):
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        for key in (
            "wall_cost_ns", "cpu_cost_ns", "cpu_refresh_wall_ns",
            "pair_overhead_ns", "overhead_budget_ns",
        ):
            assert key in doc
        assert doc["pair_overhead_ns"] > 0


def run_cli(*args, stdout=subprocess.PIPE, unbuffered=""):
    """``python -m planeprof.cli`` as its own process, ended by its exit
    path; its stdout is block-buffered unless ``unbuffered`` is set."""
    return subprocess.run(
        [sys.executable, "-m", "planeprof.cli", *map(str, args)],
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        text=True,
        timeout=120,
    )


class TestProcessExit:
    """What a command prints and returns, mostly through a real process
    that ``os._exit`` ends, and how an unusable ``--out`` ends it."""

    def test_run_and_analyze_print_their_paths(self, scenario_file, tmp_path):
        out = tmp_path / "run"
        done = run_cli("run", "--scenario", scenario_file, "--out", out)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, f"{out}\n", "")
        done = run_cli("analyze", "--dumps", out)
        findings = out / "findings.json"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, f"{findings}\n", "")
        assert json.loads(findings.read_text())["kind"] == "hotspot_report"

    def test_missing_dumps_is_config_error(self, tmp_path):
        done = run_cli("analyze", "--dumps", tmp_path / "void")
        assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
        assert done.stderr == f"error: {tmp_path / 'void'} is not a directory\n"

    # unbuffered, print() meets the closed pipe; buffered, the exit flush does
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_keeps_the_exit_code(self, run_dir, tmp_path, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = tmp_path / "findings.json"
        try:
            done = run_cli(
                "analyze", "--dumps", run_dir, "--out", out, stdout=write_end, unbuffered=unbuffered
            )
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_OK
        assert done.stderr == "warning: stdout was closed before the output path was written\n"
        assert json.loads(out.read_text())["kind"] == "hotspot_report"

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "--dumps", "{run}"],
            ["report", "--dumps", "{run}"],
            ["compare", "--before", "{run}", "--after", "{run}"],
            ["calibrate"],
        ],
        ids=lambda c: c[0],
    )
    def test_directory_out_is_usage_error(self, run_dir, tmp_path, command):
        args = [a.format(run=run_dir) for a in command]
        done = run_cli(*args, "--out", tmp_path)
        assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
        assert done.stderr == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("target", ["file", "under-a-file"])
    def test_unusable_run_out_is_usage_error(self, scenario_file, tmp_path, capsys, target):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a run directory\n")
        out = blocker if target == "file" else blocker / "run"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert blocker.read_text() == "not a run directory\n"

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        if os.access(locked, os.W_OK):
            pytest.skip("this user can write to a read-only directory")
        out = locked / "cal.json"
        assert main(["calibrate", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"


@pytest.fixture(scope="module")
def counted_run(scenario_file, tmp_path_factory):
    """A thread-mode ``run``: its run directory, the ``read_dump_info``
    calls it made per dump path, and the threads still alive after it
    that were not before."""
    out = tmp_path_factory.mktemp("runs") / "counted"
    reads = {}

    def counting(read):
        def read_dump_info(path):
            reads[Path(path)] = reads.get(Path(path), 0) + 1
            return read(path)

        return read_dump_info

    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as mp:
        for module in (planeprof.cli, summary):
            mp.setattr(module, "read_dump_info", counting(module.read_dump_info))
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == EXIT_OK
    left = [t for t in threading.enumerate() if t not in before]
    return out, reads, left


class TestRunEnd:
    """What ``os._exit`` after a run would cut short, and the run's one
    read of each dump's header and footer."""

    def test_no_thread_the_run_started_outlives_it(self, counted_run):
        _, _, left = counted_run
        assert [t.name for t in left] == []

    def test_each_dump_info_is_read_once(self, counted_run):
        out, reads, _ = counted_run
        dumps = sorted((out / "dumps").glob("*.dump"))
        assert len(dumps) >= 3
        assert reads == {path: 1 for path in dumps}

    def test_artifacts_equal_standalone_renders(self, counted_run, tmp_path):
        out, _, _ = counted_run
        assert (out / "summary.txt").read_text() == summary.render_summary(out)
        index = (out / "dumps" / "index.txt").read_text()
        copy = shutil.copytree(
            out / "dumps", tmp_path / "dumps", ignore=shutil.ignore_patterns("index.txt")
        )
        assert summary.write_dump_index(copy).read_text() == index
        # thread mode: every coarse record is a dump footer, none is rusage
        for name, fmt in (("coarse.txt", "text"), ("coarse.json", "structured")):
            again = tmp_path / name
            args = ["report", "--dumps", str(out), "--kind", "coarse_table", "--format", fmt]
            assert main([*args, "--out", str(again)]) == EXIT_OK
            assert again.read_bytes() == (out / name).read_bytes(), name
