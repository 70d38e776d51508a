"""Acceptance suite: one test per exit criterion, one PASS line each.

Criteria cover: reference-table arithmetic, sleep attribution through the
full testbed, idle poll dominance, exact oracle equivalence, conservation
invariants, the liveness detection bound, calibrated profiler overhead,
and golden report formats.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import fast_scenario
from helpers import assert_conservation, assert_stats_match_oracle, random_stream
from planeprof.analysis.categories import TimeCategory, classify
from planeprof.analysis.percentages import coarse_percentages, share_of_runtime
from planeprof.instrument.dumpio import read_dump
from planeprof.instrument.events import TAG_SLEEP
from planeprof.instrument.proctimes import CoarseBreakdown
from planeprof.instrument.recorder import Recorder
from planeprof.model.aggregate import (
    aggregate_functions,
    aggregate_regions,
    bracketed_span_ns,
    profile_from_dump,
)
from planeprof.model.merge import merge_profiles
from planeprof.testbed.config import NodeRole
from planeprof.testbed.entity import SITE_POLL, Entity, EntityConfig
from planeprof.testbed.orchestrator import PHASE_SITES, BootstrapPhase, bootstrap
from test_reporting import (
    GOLDENS,
    golden_function_profile,
    golden_region_profile,
    golden_thread_rows,
)
from planeprof.reporting.exports import export_csv, import_csv
from planeprof.reporting.tables import ReportKind, ReportSpec, render


def ok(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS - {message}")


@pytest.fixture(scope="module")
def sleep_run(tmp_path_factory):
    """One testbed run with the three 5 s post-start sleeps (~16 s)."""
    run_dir = tmp_path_factory.mktemp("acceptance") / "sleep-run"
    cfg = fast_scenario(
        scenario_id="sleepy",
        hosts_per_site=1,
        client_users=0,
        post_start_sleep_s={
            "global_controller": 5.0,
            "name_server": 5.0,
            "host_group": 5.0,
        },
        bootstrap_deadline_s=20.0,
    )
    topo = bootstrap(cfg, run_dir=run_dir)
    topo.shutdown()
    dumps = [read_dump(p) for p in topo.dump_paths]
    return topo, dumps


class TestAcceptance:
    def test_criterion_1_table_arithmetic_exact(self):
        pct = coarse_percentages(CoarseBreakdown(44.15, 0.64, 1.05))
        assert pct.user_pct == pytest.approx(1.45, abs=0.01)
        assert pct.sys_pct == pytest.approx(2.38, abs=0.01)
        assert pct.other_pct == pytest.approx(96.17, abs=0.01)
        gc = coarse_percentages(CoarseBreakdown(200.835, 83.637, 15.797))
        assert gc.user_pct == pytest.approx(41.64, abs=0.01)
        share = share_of_runtime(
            (81.948, 59.687, 85.439), (100.969, 77.621, 105.849)
        )
        assert share.per_run_pct[0] == pytest.approx(81.16, abs=0.01)
        assert share.per_run_pct[1] == pytest.approx(76.90, abs=0.01)
        assert share.per_run_pct[2] == pytest.approx(80.72, abs=0.01)
        assert share.pooled_pct == pytest.approx(79.83, abs=0.01)
        ok(1, "coarse splits 1.45/2.38/96.17 and 41.64; poll shares "
              "81.16/76.90/80.72 pooled 79.83, all within 0.01")

    def test_criterion_2_sleep_attribution(self, sleep_run):
        topo, dumps = sleep_run
        merged = merge_profiles([profile_from_dump(d) for d in dumps])
        sleep_cum_s = sum(
            r.cumtime_ns for r in merged.rows.values() if r.tag == TAG_SLEEP
        ) / 1e9
        assert 15.0 <= sleep_cum_s <= 15.2
        orch = next(d for d in dumps if d.meta.entity == "orchestrator")
        scope = PHASE_SITES[BootstrapPhase.GLOBAL_CONTROLLER_UP]
        regions = aggregate_regions(orch.events, scope)
        sleep_rows = [r for s, r in regions.rows.items() if s.symbol == "sleep"]
        assert sleep_rows, "no sleep region inside the controller start function"
        share = sum(r.pct_time for r in sleep_rows)
        assert share >= 98.0
        # an idle run is nothing but poll waits and configured sleeps
        shares = classify(merged).shares()
        idle_share = shares.get(TimeCategory.IO_WAIT_POLL, 0.0) + shares.get(
            TimeCategory.SLEEP, 0.0
        )
        assert idle_share >= 90.0
        ok(2, f"merged sleep cumtime {sleep_cum_s:.3f} s in [15.0, 15.2]; "
              f"controller-start sleep share {share:.1f}% >= 98%; "
              f"poll+sleep {idle_share:.1f}% of idle run")

    def test_criterion_3_poll_dominance(self):
        cfg = EntityConfig(
            name="idle-monitor",
            role=NodeRole.HOST_NODE,
            manager_addr=None,
            poll_timeout_ms=1.0,
            levels=("events",),
        )
        entity = Entity(cfg)
        t0 = time.monotonic()
        entity.run(10.0)
        span = time.monotonic() - t0
        poll = aggregate_functions(entity.rec.events()).rows[SITE_POLL]
        expected = 10.0 / 0.001
        assert abs(poll.ncalls_total - expected) <= 0.25 * expected
        poll_share = poll.tottime_ns / (span * 1e9)
        assert poll_share >= 0.70
        ok(3, f"idle loop: {poll.ncalls_total} poll invocations "
              f"(target 10000 +/- 25%), {100 * poll_share:.1f}% of wall in poll")

    def test_criterion_4_oracle_equivalence_1000_streams(self):
        rng = random.Random(0xACCE55)
        for _ in range(1000):
            events = random_stream(rng, max_events=50)
            assert len(events) <= 50
            profile = aggregate_functions(events)
            assert_stats_match_oracle(profile, events)
        ok(4, "1000 randomized well-nested streams match the interval "
              "oracle exactly on ncalls, primitive calls, tottime, cumtime")

    def test_criterion_5_conservation_suite(self, sleep_run):
        topo, dumps = sleep_run
        # synthetic profiles
        rng = random.Random(5)
        for _ in range(200):
            events = random_stream(rng)
            profile = aggregate_functions(events)
            assert_conservation(profile, events)
        # every dump from the real run
        profiles = []
        for dump in dumps:
            profile = profile_from_dump(dump)
            assert_conservation(profile, dump.events)
            spans = bracketed_span_ns(dump.events)
            assert profile.wall_span_ns == sum(spans.values())
            breakdown = classify(profile)
            if breakdown.total_ns > 0:
                assert sum(breakdown.shares().values()) == pytest.approx(100.0, abs=0.01)
            profiles.append(profile)
        # merge additivity, exact
        merged = merge_profiles(profiles)
        for site, row in merged.rows.items():
            assert row.tottime_ns == sum(
                p.rows[site].tottime_ns for p in profiles if site in p.rows
            )
            assert row.cumtime_ns == sum(
                p.rows[site].cumtime_ns for p in profiles if site in p.rows
            )
        ok(5, f"conservation, share closure and exact merge additivity hold "
              f"on 200 synthetic streams and {len(dumps)} run dumps")

    def test_criterion_6_liveness_bound_20_trials(self):
        rng = random.Random(616)
        interval, miss_limit = 0.2, 3
        bound = (miss_limit + 1) * interval
        latencies = []
        for trial in range(20):
            topo = bootstrap(
                fast_scenario(
                    hosts_per_site=1,
                    client_users=0,
                    heartbeat_interval_s=interval,
                    heartbeat_miss_limit=miss_limit,
                    poll_timeout_ms=5.0,
                )
            )
            try:
                victims = [
                    h.name
                    for h in topo.handles.values()
                    if h.role is not NodeRole.CLIENT_HOST
                ]
                victim = rng.choice(victims)
                time.sleep(rng.uniform(0.0, 0.4))
                kill_t = topo.kill(victim)
                deadline = time.monotonic() + bound + 1.0
                detected = None
                while time.monotonic() < deadline:
                    report = topo.manager.liveness_snapshot()
                    if report.failures:
                        detected = report.failures[0]
                        break
                    time.sleep(0.01)
                assert detected is not None, f"trial {trial}: {victim} never detected"
                assert detected.name == victim
                latency = detected.detected_at - kill_t
                latencies.append(latency)
                assert latency <= bound, f"trial {trial}: {latency:.3f}s > {bound}s"
            finally:
                topo.shutdown(grace_s=2.0)
        ok(6, f"20 randomized kills detected within {bound:.1f} s "
              f"(max observed {max(latencies):.3f} s)")

    def test_criterion_7_profiler_overhead(self, calibration, tmp_path):
        assert calibration.pair_overhead_ns > 0
        # the calibrated cost is recorded in every dump header
        rec = Recorder(enabled=True, calibration=calibration)
        from planeprof.instrument.dumpio import DumpMeta, write_dump

        path = write_dump(
            tmp_path / "cal.dump",
            DumpMeta(run_id="cal", entity="probe"),
            calibration,
            [],
        )
        reread = read_dump(path)
        assert reread.calibration.pair_overhead_ns == calibration.pair_overhead_ns

        def workload():
            return sum(i * i for i in range(1200))  # ~50 us, well over 10 us

        traced = rec.trace(workload)

        def bench(fn, n=200):
            t0 = time.perf_counter_ns()
            for _ in range(n):
                fn()
            return (time.perf_counter_ns() - t0) / n

        def measure_inflation(pairs=30):
            # back-to-back bare/traced slices see nearly identical ambient
            # load on this shared host, so their ratio isolates the
            # instrumentation cost; the median over many pairs is robust
            # to steal-time bursts in either direction
            import gc

            ratios = []
            bare_floor = float("inf")
            gc.disable()
            try:
                for _ in range(pairs):
                    bare = bench(workload)
                    instrumented = bench(traced)
                    bare_floor = min(bare_floor, bare)
                    ratios.append(instrumented / bare)
                    time.sleep(0.005)
            finally:
                gc.enable()
            ratios.sort()
            return bare_floor, ratios[len(ratios) // 2] - 1.0

        time.sleep(0.2)  # let earlier tests' threads drain
        bare_floor, inflation = measure_inflation()
        if inflation > 0.10:  # one cooldown retry against load bursts
            time.sleep(0.5)
            bare_floor, inflation = measure_inflation()
        assert bare_floor >= 10_000, "microbenchmark function must be >= 10 us"
        assert inflation <= 0.10, f"wall inflation {100 * inflation:.1f}% > 10%"
        ok(7, f"pair overhead {calibration.pair_overhead_ns} ns recorded; "
              f"{bare_floor / 1000:.0f} us functions inflated "
              f"{100 * max(inflation, 0.0):.1f}% <= 10%")

    def test_criterion_8_golden_report_formats(self):
        profile = golden_function_profile()
        out = render(profile, ReportSpec(kind=ReportKind.FUNCTION_TABLE))
        assert out == (GOLDENS / "function_table.txt").read_text()
        out = render(golden_region_profile(), ReportSpec(kind=ReportKind.LINE_TABLE))
        assert out == (GOLDENS / "line_table.txt").read_text()
        out = render(golden_thread_rows(), ReportSpec(kind=ReportKind.THREAD_TABLE))
        assert out == (GOLDENS / "thread_table.txt").read_text()
        csv_text = export_csv(profile, ReportKind.FUNCTION_TABLE)
        assert import_csv(csv_text, ReportKind.FUNCTION_TABLE).rows == profile.rows
        ok(8, "function/line/thread tables match stored goldens byte-for-byte; "
              "csv round-trip reproduces every stat field exactly")
