"""Testbed integration: bootstrap, liveness, workload, failure injection.

Most tests run the topology in thread mode (fast); one end-to-end test
exercises process mode with real child processes, dumps and rusage.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import time

import pytest

from conftest import fast_scenario
from planeprof.instrument.dumpio import read_dump
from planeprof.instrument.events import TAG_SLEEP
from planeprof.instrument.recorder import ClockCalibration
from planeprof.model.aggregate import aggregate_functions, profile_from_dump
from planeprof.model.merge import merge_profiles
from planeprof.testbed.config import NodeRole
from planeprof.testbed.entity import Entity, EntityConfig, SITE_POLL, build_entity
from planeprof.testbed.orchestrator import (
    BootstrapPhase,
    BootstrapTimeout,
    EntitySpawnFailed,
    NoActiveWorkflow,
    PortUnavailable,
    bootstrap,
    monitor_liveness,
)


@pytest.fixture
def topo(request):
    topologies = []

    def factory(**overrides):
        t = bootstrap(fast_scenario(**overrides))
        topologies.append(t)
        return t

    yield factory
    for t in topologies:
        t.shutdown(grace_s=3.0)


def standalone_entity(poll_timeout_ms=1.0) -> Entity:
    cfg = EntityConfig(
        name="idle-probe",
        role=NodeRole.HOST_NODE,
        manager_addr=None,
        poll_timeout_ms=poll_timeout_ms,
        levels=("function",),
    )
    return Entity(cfg)


class TestBootstrap:
    def test_minimal_topology(self, topo):
        t = topo(hosts_per_site=0, workflows_per_zone=0, client_users=0)
        assert BootstrapPhase.RUNNING in t.timeline
        counts = t.role_counts()
        assert counts[NodeRole.GLOBAL_MANAGER] == 1
        assert counts[NodeRole.GLOBAL_CONTROLLER] == 1
        assert counts[NodeRole.NAME_SERVER] == 1
        assert counts[NodeRole.LOCAL_CONTROLLER] == 1
        assert NodeRole.HOST_NODE not in counts

    def test_paper_shaped_cardinality(self, topo):
        t = topo(
            sites_per_zone=2,
            hosts_per_site=7,
            poll_timeout_ms=20.0,
            heartbeat_interval_s=0.5,
        )
        counts = t.role_counts()
        expected = t.config.expected_counts()
        for role in NodeRole:
            assert counts.get(role, 0) == expected[role], role
        assert counts[NodeRole.HOST_NODE] == 14
        assert counts[NodeRole.LOCAL_CONTROLLER] == 2

    def test_phase_timestamps_strictly_increase(self, topo):
        t = topo()
        order = sorted(t.timeline, key=lambda p: p.value)
        assert order == list(BootstrapPhase)
        stamps = [t.timeline[p].monotonic_s for p in order]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_post_start_sleeps_show_in_timeline_and_profile(self, topo):
        sleeps = {"global_controller": 0.3, "name_server": 0.3, "host_group": 0.3}
        t = topo(post_start_sleep_s=sleeps)
        span = (
            t.timeline[BootstrapPhase.RUNNING].monotonic_s
            - t.timeline[BootstrapPhase.IDLE].monotonic_s
        )
        assert span >= 0.9
        profile = aggregate_functions(t.rec.events())
        sleep_rows = [r for r in profile.rows.values() if r.tag == TAG_SLEEP]
        assert sum(r.cumtime_ns for r in sleep_rows) >= 0.9 * 1e9

    def test_port_unavailable(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(PortUnavailable):
                bootstrap(fast_scenario(listen_port=port))
        finally:
            blocker.close()

    def test_spawn_failure_surfaces_role(self, monkeypatch):
        import planeprof.testbed.orchestrator as orch

        monkeypatch.setattr(orch.sys, "executable", "/nonexistent/python")
        with pytest.raises(EntitySpawnFailed) as info:
            bootstrap(fast_scenario(entity_mode="process", bootstrap_deadline_s=5.0))
        assert info.value.role is NodeRole.GLOBAL_CONTROLLER

    def test_bootstrap_timeout_names_stuck_phase(self, monkeypatch):
        from planeprof.testbed import entity as entity_mod

        class MuteController(entity_mod.GlobalControllerEntity):
            def _register_with_manager(self):
                time.sleep(2.0)  # never registers
                self._stop = True

        monkeypatch.setitem(
            entity_mod.ENTITY_CLASSES, NodeRole.GLOBAL_CONTROLLER, MuteController
        )
        with pytest.raises(BootstrapTimeout) as info:
            bootstrap(fast_scenario(bootstrap_deadline_s=0.7))
        assert info.value.phase is BootstrapPhase.GLOBAL_CONTROLLER_UP


class TestPollLoop:
    def test_idle_invocation_arithmetic(self):
        entity = standalone_entity()
        try:
            stats = entity.poll_loop(2.0, timeout_ms=100.0)
        finally:
            entity._close_all()
        expected = 2.0 / 0.1
        assert abs(stats.poll_invocations - expected) <= 0.25 * expected
        assert stats.messages_handled == 0

    def test_zero_duration(self):
        entity = standalone_entity()
        try:
            stats = entity.poll_loop(0.0)
        finally:
            entity._close_all()
        assert stats.poll_invocations == 0
        assert stats.wall_time_in_poll_s == 0.0

    def test_idle_loop_wall_time_dominated_by_poll(self):
        entity = standalone_entity(poll_timeout_ms=1.0)
        try:
            t0 = time.monotonic()
            stats = entity.poll_loop(1.0)
            span = time.monotonic() - t0
        finally:
            entity._close_all()
        assert stats.wall_time_in_poll_s >= 0.7 * span
        profile = aggregate_functions(entity.rec.events())
        assert profile.rows[SITE_POLL].tag == "poll"

    def test_closed_entity_raises_socket_closed(self):
        from planeprof.testbed.entity import SocketClosed

        entity = standalone_entity()
        entity._close_all()
        with pytest.raises(SocketClosed):
            entity.poll_loop(0.1)


class TestRegistration:
    def test_no_ack_times_out(self):
        # a listening socket that never answers: Register gets no ack
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        cfg = EntityConfig(
            name="orphan",
            role=NodeRole.HOST_NODE,
            manager_addr=silent.getsockname(),
            poll_timeout_ms=5.0,
            register_deadline_s=0.4,
        )
        entity = Entity(cfg)
        try:
            with pytest.raises(TimeoutError):
                entity._register_with_manager()
        finally:
            entity._close_all()
            silent.close()

    def test_entity_env_roundtrip(self):
        cfg = EntityConfig(
            name="host-z1s2h3",
            role=NodeRole.HOST_NODE,
            zone=1,
            site=2,
            index=3,
            manager_addr=("127.0.0.1", 5001),
            ns_addr=("127.0.0.1", 5002),
            lc_addr=("127.0.0.1", 5003),
            poll_timeout_ms=2.5,
            heartbeat_interval_s=0.7,
            heartbeat_miss_limit=4,
            workflow_load_high=80.0,
            workflow_load_low=8.0,
            run_id="run-9",
            scenario_id="envtest",
            dump_dir="/tmp/dumps",
            levels=("coarse", "function"),
            seed=13,
            scale_factor=0.01,
            calibration=ClockCalibration(90, 8000, 1_000_000, 1500),
        )
        env = cfg.to_env()
        assert env["HOST_NAME"] == "host-z1s2h3"
        assert env["NAME_SERVER_ADDR"] == "127.0.0.1"
        assert env["NAME_SERVER_UPDATE_PORT"] == "5002"
        assert env["CLOCK_CALIBRATION"] == "90,8000,1000000,1500"
        back = EntityConfig.from_env(env)
        assert back == cfg

    @pytest.mark.parametrize("raw", ["1,2,3", "1,2,3,x", "1,2,3,-4", ""])
    def test_malformed_calibration_names_the_variable(self, raw):
        env = EntityConfig(name="h", role=NodeRole.HOST_NODE).to_env()
        env["CLOCK_CALIBRATION"] = raw
        with pytest.raises(ValueError, match="CLOCK_CALIBRATION"):
            EntityConfig.from_env(env)


class TestSharedCalibration:
    @pytest.mark.parametrize("levels", [("coarse", "function"), ("coarse",)])
    def test_entity_with_calibration_never_calibrates(self, monkeypatch, levels):
        import planeprof.instrument.recorder as recorder_mod

        def refuse(*args, **kwargs):
            raise AssertionError("calibrate_clocks called")

        monkeypatch.setattr(recorder_mod, "calibrate_clocks", refuse)
        cal = ClockCalibration(90, 8000, 1_000_000, 1500)
        cfg = EntityConfig(name="h", role=NodeRole.HOST_NODE, levels=levels, calibration=cal)
        entity = build_entity(cfg)
        try:
            assert entity.rec.calibration == cal
            assert entity.rec.enabled is ("function" in levels)
        finally:
            entity._close_all()

    def test_entity_import_leaves_orchestrator_and_sampler_out(self):
        probe = (
            "import sys, planeprof.testbed.entity; "
            "print(sorted(m for m in sys.modules if m.startswith('planeprof')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        loaded = done.stdout.strip()
        assert "planeprof.testbed.entity" in loaded
        assert "planeprof.testbed.orchestrator" not in loaded
        assert "planeprof.instrument.sampler" not in loaded


class TestLiveness:
    def test_no_failures_over_quiet_run(self, topo):
        t = topo(client_users=0)
        time.sleep(3 * t.config.heartbeat_interval_s)
        report = monitor_liveness(t)
        assert report.failures == ()
        assert report.unreachable_via_controller == ()

    def test_killed_host_detected_within_bound(self, topo):
        t = topo(hosts_per_site=2)
        kill_t = t.kill("host-z1s1h2")
        bound = (t.config.heartbeat_miss_limit + 1) * t.config.heartbeat_interval_s
        deadline = time.monotonic() + bound + 1.0
        report = monitor_liveness(t)
        while not report.failures and time.monotonic() < deadline:
            time.sleep(0.02)
            report = monitor_liveness(t)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.name == "host-z1s1h2"
        assert failure.detected_at - kill_t <= bound

    def test_dead_local_controller_cascades_to_hosts(self, topo):
        t = topo(hosts_per_site=2, client_users=0)
        kill_t = t.kill("lc-z1s1")
        bound = (t.config.heartbeat_miss_limit + 1) * t.config.heartbeat_interval_s
        deadline = time.monotonic() + bound + 1.0
        report = monitor_liveness(t)
        while not report.unreachable_via_controller and time.monotonic() < deadline:
            time.sleep(0.02)
            report = monitor_liveness(t)
        assert {f.name for f in report.failures} == {"lc-z1s1"}
        unreachable = {u.host for u in report.unreachable_via_controller}
        assert unreachable == {"host-z1s1h1", "host-z1s1h2"}
        for u in report.unreachable_via_controller:
            assert u.via == "lc-z1s1"
            assert u.detected_at - kill_t <= bound
        # hosts still beat: they are unreachable via controller, not dead
        assert "host-z1s1h1" not in {f.name for f in report.failures}


class TestClientLoad:
    def test_rate_times_duration(self, topo):
        t = topo(client_users=50, client_request_rate=40.0)
        report = t.client_load(users=50, rate_rps=40.0, duration_s=1.0)
        assert abs(report.sent - 40) <= 4  # rate x duration within 10%
        assert report.answered == report.sent
        assert report.errors == 0
        assert report.scale_factor == t.config.scale_factor
        assert report.latency_quantiles_s["p50"] >= 0.0

    def test_zero_users(self, topo):
        t = topo()
        report = t.client_load(users=0, rate_rps=50.0, duration_s=1.0)
        assert report.sent == 0
        assert report.answered == 0

    def test_round_robin_across_two_instances(self, topo):
        t = topo(hosts_per_site=2)
        wm = t.names_by_role(NodeRole.WORKFLOW_MANAGER)[0]
        actions = t.adjust_workflows(wm, observed_load=500.0)
        assert [a.kind for a in actions] == ["commission"]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            counts = t.manager.wm_active_counts()
            if counts.get(wm, 0) >= 2:
                break
            time.sleep(0.05)
        assert t.manager.wm_active_counts()[wm] == 2
        report = t.client_load(users=10, rate_rps=30.0, duration_s=1.0)
        per_instance = sorted(report.per_instance.values())
        assert len(per_instance) == 2
        assert abs(per_instance[0] - per_instance[1]) <= 1
        assert report.answered == report.sent

    def test_no_active_workflow(self, topo):
        t = topo(hosts_per_site=1, workflows_per_zone=0, client_users=5)
        with pytest.raises(NoActiveWorkflow):
            t.client_load(users=5, rate_rps=10.0, duration_s=0.5)


class TestWorkflowLifecycle:
    def test_decommission_floor_and_states(self, topo):
        t = topo(hosts_per_site=2)
        wm = t.names_by_role(NodeRole.WORKFLOW_MANAGER)[0]
        # floor: a single instance is never decommissioned
        assert t.adjust_workflows(wm, observed_load=1.0) == []
        # scale up, then back down
        t.adjust_workflows(wm, observed_load=500.0)
        deadline = time.monotonic() + 5.0
        while (
            t.manager.wm_active_counts().get(wm, 0) < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        actions = t.adjust_workflows(wm, observed_load=1.0)
        assert [a.kind for a in actions] == ["decommission"]
        assert actions[0].instance_id is not None

    def test_hysteresis_band_is_quiet(self, topo):
        t = topo()
        wm = t.names_by_role(NodeRole.WORKFLOW_MANAGER)[0]
        mid = (t.config.workflow_load_low + t.config.workflow_load_high) / 2
        assert t.adjust_workflows(wm, observed_load=mid) == []


class TestProcessMode:
    def test_end_to_end_with_dumps_and_rusage(self, tmp_path):
        cfg = fast_scenario(
            entity_mode="process",
            sites_per_zone=2,
            hosts_per_site=1,
            poll_timeout_ms=5.0,
            heartbeat_interval_s=0.5,
            bootstrap_deadline_s=30.0,
        )
        t = bootstrap(cfg, run_dir=tmp_path)
        try:
            report = t.client_load(users=10, rate_rps=30.0, duration_s=1.0)
            assert report.answered == report.sent > 0
        finally:
            coarse = t.shutdown()
        # per-entity rusage from wait4
        host_coarse = coarse["host-z1s1h1"]
        assert host_coarse is not None
        assert host_coarse.elapsed_s > 0.5
        assert host_coarse.user_s >= 0.0
        # one dump per entity plus the orchestrator
        names = {p.stem for p in t.dump_paths}
        assert "orchestrator" in names
        assert {"gc", "ns", "lc-z1s1", "lc-z1s2", "wm-z1w1", "client-1"} <= names
        # dumps aggregate and merge; the poll loop dominates entity time
        dumps = [read_dump(p) for p in t.dump_paths]
        merged = merge_profiles([profile_from_dump(d) for d in dumps])
        poll_rows = [r for s, r in merged.rows.items() if s.symbol == "poll_wait"]
        assert poll_rows
        entity_dump = read_dump([p for p in t.dump_paths if p.stem == "gc"][0])
        entity_profile = profile_from_dump(entity_dump)
        poll_ns = sum(
            r.tottime_ns
            for s, r in entity_profile.rows.items()
            if s.symbol == "poll_wait"
        )
        assert poll_ns >= 0.7 * entity_profile.wall_span_ns
        # killed-entity semantics do not apply here: clean shutdown wrote
        # a coarse footer into every dump
        assert all(d.coarse is not None for d in dumps)
        # one calibration per run: every entity carries the orchestrator's
        run_cal = [d.calibration for d in dumps if d.meta.entity == "orchestrator"][0]
        assert all(d.calibration == run_cal for d in dumps)
        logs = sorted((tmp_path / "logs").glob("*.stderr"))
        assert len(logs) == len(t.dump_paths) - 1
        assert not [p.name for p in logs if "RuntimeWarning" in p.read_text()]
