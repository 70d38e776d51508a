"""Testbed integration: bootstrap, liveness, workload, failure injection.

Most tests run the topology in thread mode (fast); one end-to-end test
exercises process mode with real child processes, dumps and rusage.
"""

from __future__ import annotations

import dataclasses
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import fast_scenario
from planeprof.instrument.dumpio import read_dump
from planeprof.instrument.events import TAG_SLEEP
from planeprof.instrument.recorder import ClockCalibration, Recorder
from planeprof.cli import EXIT_OK, main
from planeprof.model.aggregate import aggregate_functions, profile_from_dump, profile_from_path
from planeprof.model.merge import merge_profiles
from planeprof.testbed.config import NodeRole
from planeprof.testbed.entity import (
    FLUSH_RECORDS,
    SITE_FLUSH,
    SITE_HANDLE,
    SITE_POLL,
    ClientEntity,
    Entity,
    EntityConfig,
    _LoadJob,
    build_entity,
)
from planeprof.testbed.orchestrator import (
    BootstrapPhase,
    BootstrapTimeout,
    EntityHandle,
    EntitySpawnFailed,
    NoActiveWorkflow,
    PortUnavailable,
    RunningTopology,
    bootstrap,
)


@pytest.fixture
def topo(request):
    topologies = []

    def factory(run_dir=None, **overrides):
        t = bootstrap(fast_scenario(**overrides), run_dir=run_dir)
        topologies.append(t)
        return t

    yield factory
    for t in topologies:
        t.shutdown(grace_s=3.0)


def standalone_entity(poll_timeout_ms=1.0, cls=Entity) -> Entity:
    cfg = EntityConfig(
        name="idle-probe",
        role=NodeRole.HOST_NODE,
        manager_addr=None,
        poll_timeout_ms=poll_timeout_ms,
        levels=("events",),
    )
    return cls(cfg)


def assert_polls_track_loop_time(dump_paths, poll_timeout_ms):
    """Criterion 3 on a real run, per dump: ``poll_wait`` calls are within
    ±25% of the ``*_main`` loop time over the poll period."""
    for path in dump_paths:
        rows = profile_from_dump(read_dump(path)).rows
        loop_ns = sum(r.cumtime_ns for s, r in rows.items() if s.symbol.endswith("_main"))
        polls = sum(r.ncalls_total for s, r in rows.items() if s.symbol == "poll_wait")
        expected = loop_ns / (poll_timeout_ms * 1e6)
        assert abs(polls - expected) <= 0.25 * expected, (path.stem, polls, expected)


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

    def test_multi_zone_topology(self, topo):
        t = topo(zones=2, sites_per_zone=2, hosts_per_site=1, workflows_per_zone=1)
        assert list(t.handles) == [
            "gc",
            "ns",
            "lc-z1s1",
            "lc-z1s2",
            "lc-z2s1",
            "lc-z2s2",
            "wm-z1w1",
            "wm-z2w1",
            "host-z1s1h1",
            "host-z1s2h1",
            "host-z2s1h1",
            "host-z2s2h1",
            "client-1",
        ]
        assert list(t.timeline) == list(BootstrapPhase)
        entities = {name: h.entity for name, h in t.handles.items()}
        ns_addr = entities["ns"].addr
        for name, entity in entities.items():
            assert entity.cfg.ns_addr == (None if name in ("gc", "ns") else ns_addr), name
        sites = [(z, s) for z in (1, 2) for s in (1, 2)]
        for z, s in sites:
            assert entities[f"host-z{z}s{s}h1"].cfg.lc_addr == entities[f"lc-z{z}s{s}"].addr
        # a host registers with its controller after the manager acks it
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(
            entities[f"lc-z{z}s{s}"].hosts_seen for z, s in sites
        ):
            time.sleep(0.02)
        for z, s in sites:
            assert entities[f"lc-z{z}s{s}"].hosts_seen == {f"host-z{z}s{s}h1"}

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
        entity = standalone_entity(poll_timeout_ms=100.0)
        entity.run(2.0)
        rows = aggregate_functions(entity.rec.events()).rows
        expected = 2.0 / 0.1
        assert abs(rows[SITE_POLL].ncalls_total - expected) <= 0.25 * expected
        assert SITE_HANDLE not in rows

    def test_zero_duration(self):
        entity = standalone_entity()
        entity.run(0.0)
        assert SITE_POLL not in aggregate_functions(entity.rec.events()).rows

    def test_idle_loop_wall_time_dominated_by_poll(self):
        entity = standalone_entity(poll_timeout_ms=1.0)
        t0 = time.monotonic()
        entity.run(1.0)
        span = time.monotonic() - t0
        poll = aggregate_functions(entity.rec.events()).rows[SITE_POLL]
        assert poll.tottime_ns >= 0.7 * span * 1e9
        assert poll.tag == "poll"

    def test_closed_entity_raises_socket_closed(self):
        from planeprof.testbed.entity import SocketClosed

        entity = standalone_entity()
        entity._close_all()
        with pytest.raises(SocketClosed):
            entity.run(0.1)

    def test_stalled_tick_is_caught_up(self):
        class StallOnce(Entity):
            stalled = False

            def role_tick(self, now):
                if not self.stalled:
                    self.stalled = True
                    time.sleep(0.3)

        entity = standalone_entity(poll_timeout_ms=5.0, cls=StallOnce)
        entity.run(1.0)
        assert entity.stalled
        polls = aggregate_functions(entity.rec.events()).rows[SITE_POLL].ncalls_total
        expected = 1.0 / 0.005
        assert abs(polls - expected) <= 0.25 * expected


class TestDumpStreaming:
    """An entity writes its dump during the run, not all at shutdown."""

    @staticmethod
    def dumping_entity(dump_dir, cls=Entity) -> Entity:
        cfg = EntityConfig(
            name="streamer",
            role=NodeRole.HOST_NODE,
            manager_addr=None,
            poll_timeout_ms=1.0,
            levels=("events",),
            dump_dir=str(dump_dir),
        )
        return cls(cfg)

    def test_buffer_stays_bounded_and_every_record_lands(self, tmp_path):
        class Watched(Entity):
            peak = 0
            polls = 0

            def _pump(self, timeout_s):
                self.polls += 1
                super()._pump(timeout_s)

            def _tick(self, now):
                super()._tick(now)
                self.peak = max(self.peak, self.rec.buffered())

        entity = self.dumping_entity(tmp_path, Watched)
        entity.run(1.0)
        # one pass of this loop records one poll_wait pair, and the buffer
        # is written out once a pass leaves FLUSH_RECORDS or more behind
        assert entity.polls > FLUSH_RECORDS
        assert FLUSH_RECORDS <= entity.peak <= FLUSH_RECORDS + 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["streamer.dump"]
        rows = profile_from_path(tmp_path / "streamer.dump").rows
        assert rows[SITE_FLUSH].ncalls_total >= 1
        assert rows[SITE_POLL].ncalls_total == entity.polls

    def test_killed_thread_entity_deletes_its_unfinished_dump(self, tmp_path):
        entity = self.dumping_entity(tmp_path)
        thread = threading.Thread(target=entity.run, args=(30.0,), daemon=True)
        thread.start()
        part = tmp_path / "streamer.dump.part"
        deadline = time.monotonic() + 5.0
        while not part.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert part.exists()
        time.sleep(0.7)  # long enough for a flush at a 1 ms poll
        entity.kill()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert list(tmp_path.iterdir()) == []

    def test_sigkilled_process_leaves_no_dump_and_analyze_succeeds(self, tmp_path):
        cfg = fast_scenario(
            entity_mode="process",
            client_users=0,
            poll_timeout_ms=1.0,
            bootstrap_deadline_s=30.0,
        )
        t = bootstrap(cfg, run_dir=tmp_path)
        try:
            time.sleep(0.7)
            t.kill("host-z1s1h1")
        finally:
            t.shutdown()
        assert t.handles["host-z1s1h1"].exit_code == -9
        names = {p.name for p in (tmp_path / "dumps").iterdir()}
        assert "host-z1s1h1.dump" not in names
        assert "host-z1s1h1.dump.part" in names
        assert {"orchestrator.dump", "gc.dump", "wm-z1w1.dump"} <= names
        findings = tmp_path / "findings.json"
        assert main(["analyze", "--dumps", str(tmp_path), "--out", str(findings)]) == EXIT_OK
        assert findings.is_file()


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
            bootstrap_deadline_s=0.4,
        )
        entity = Entity(cfg)
        try:
            with pytest.raises(TimeoutError):
                entity._register_with_manager()
        finally:
            entity._close_all()
            silent.close()

    def test_entity_env_roundtrip(self):
        # one non-default value per field; a field added without a spawn
        # variable must either get one or join NOT_CARRIED
        NOT_CARRIED = {"listen_port", "own_process"}
        values = dict(
            name="host-z1s2h3",
            role=NodeRole.HOST_NODE,
            zone=2,
            site=2,
            index=3,
            manager_addr=("127.0.0.1", 5001),
            ns_addr=("127.0.0.1", 5002),
            lc_addr=("127.0.0.1", 5003),
            scenario_id="envtest",
            seed=13,
            poll_timeout_ms=2.5,
            heartbeat_interval_s=0.7,
            heartbeat_miss_limit=4,
            workflow_load_high=80.0,
            workflow_load_low=8.0,
            bootstrap_deadline_s=30.0,
            run_id="run-9",
            dump_dir="/tmp/dumps",
            levels=("events",),
            scale_factor=0.01,
            calibration=ClockCalibration(90, 8000, 1_000_000, 1500),
        )
        assert set(values) == {f.name for f in dataclasses.fields(EntityConfig)} - NOT_CARRIED
        for f in dataclasses.fields(EntityConfig):
            if f.name in values and f.default is not dataclasses.MISSING:
                assert values[f.name] != f.default, f.name
        cfg = EntityConfig(**values)
        env = cfg.to_env()
        assert env["HOST_NAME"] == "host-z1s2h3"
        assert env["NAME_SERVER_ADDR"] == "127.0.0.1"
        assert env["NAME_SERVER_UPDATE_PORT"] == "5002"
        assert env["BOOTSTRAP_DEADLINE_S"] == "30.0"
        assert env["CLOCK_CALIBRATION"] == "90,8000,1000000,1500"
        back = EntityConfig.from_env(env)
        assert back == cfg

    @pytest.mark.parametrize(
        "variable, raw",
        [
            *(
                pytest.param("CLOCK_CALIBRATION", raw, id=raw)
                for raw in ["1,2,3", "1,2,3,x", "1,2,3,-4", ""]
            ),
            pytest.param("NODE_ZONE", "two", id="int"),
            pytest.param("POLL_TIMEOUT_MS", "1ms", id="float"),
            pytest.param("NODE_ROLE", "router", id="role"),
            pytest.param("NAME_SERVER_UPDATE_PORT", "http", id="port"),
        ],
    )
    def test_malformed_calibration_names_the_variable(self, variable, raw):
        cfg = EntityConfig(name="h", role=NodeRole.HOST_NODE, ns_addr=("127.0.0.1", 5002))
        env = cfg.to_env()
        env[variable] = raw
        with pytest.raises(ValueError, match=f"^{variable}="):
            EntityConfig.from_env(env)

    def test_missing_required_variable_is_named(self):
        env = EntityConfig(name="h", role=NodeRole.HOST_NODE).to_env()
        del env["NODE_ROLE"]
        with pytest.raises(ValueError, match="^NODE_ROLE is not set$"):
            EntityConfig.from_env(env)


class TestSharedCalibration:
    @pytest.mark.parametrize("levels", [("coarse", "events"), ("coarse",)])
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
            assert entity.rec.enabled is ("events" in levels)
        finally:
            entity._close_all()

    def test_entity_import_leaves_orchestrator_out(self):
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


class TestLiveness:
    def test_no_failures_over_quiet_run(self, topo):
        t = topo(client_users=0)
        time.sleep(3 * t.config.heartbeat_interval_s)
        report = t.manager.liveness_snapshot()
        assert report.failures == ()
        assert report.unreachable_via_controller == ()

    def test_killed_host_detected_within_bound(self, topo):
        t = topo(hosts_per_site=2)
        kill_t = t.kill("host-z1s1h2")
        bound = (t.config.heartbeat_miss_limit + 1) * t.config.heartbeat_interval_s
        deadline = time.monotonic() + bound + 1.0
        report = t.manager.liveness_snapshot()
        while not report.failures and time.monotonic() < deadline:
            time.sleep(0.02)
            report = t.manager.liveness_snapshot()
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.name == "host-z1s1h2"
        assert failure.detected_at - kill_t <= bound

    def test_dead_local_controller_cascades_to_hosts(self, topo):
        t = topo(hosts_per_site=2, client_users=0)
        kill_t = t.kill("lc-z1s1")
        bound = (t.config.heartbeat_miss_limit + 1) * t.config.heartbeat_interval_s
        deadline = time.monotonic() + bound + 1.0
        report = t.manager.liveness_snapshot()
        while not report.unreachable_via_controller and time.monotonic() < deadline:
            time.sleep(0.02)
            report = t.manager.liveness_snapshot()
        assert {f.name for f in report.failures} == {"lc-z1s1"}
        unreachable = {u.host for u in report.unreachable_via_controller}
        assert unreachable == {"host-z1s1h1", "host-z1s1h2"}
        for u in report.unreachable_via_controller:
            assert u.via == "lc-z1s1"
            assert u.detected_at - kill_t <= bound
        # hosts still beat: they are unreachable via controller, not dead
        assert "host-z1s1h1" not in {f.name for f in report.failures}


class TestClientLoad:
    def test_rate_times_duration(self, topo, tmp_path):
        t = topo(run_dir=tmp_path, client_users=50, client_request_rate=40.0)
        report = t.client_load(users=50, rate_rps=40.0, duration_s=1.0)
        assert abs(report.sent - 40) <= 4  # rate x duration within 10%
        assert report.answered == report.sent
        assert report.errors == 0
        assert report.scale_factor == t.config.scale_factor
        assert report.latency_quantiles_s["p50"] >= 0.0
        t.shutdown(grace_s=3.0)
        assert len(t.dump_paths) == len(t.handles) + 1
        assert_polls_track_loop_time(t.dump_paths, t.config.poll_timeout_ms)

    def test_late_tick_sends_every_due_request(self):
        # the peer only has to accept: requests sit in its backlog unread
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)
        client = ClientEntity(EntityConfig(name="client-1", role=NodeRole.CLIENT_HOST))
        try:
            job = _LoadJob("job-1", users=10, rate=50.0, duration=1.0)
            job.instances = [("workflow/wm-z1w1/i1", sink.getsockname())]
            job.phase = "sending"
            job.t0 = 100.0
            client._job = job
            client.role_tick(100.5)
            assert job.sent == 26
            client.role_tick(101.4)  # the loop stalled past the end of the window
            assert job.sent == job.total == 50
            assert job.phase == "draining"
        finally:
            client._close_all()
            sink.close()

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
        assert_polls_track_loop_time(t.dump_paths, cfg.poll_timeout_ms)
        # killed-entity semantics do not apply here: clean shutdown wrote
        # a coarse footer into every dump
        assert all(d.coarse is not None for d in dumps)
        # one calibration per run: every entity carries the orchestrator's
        run_cal = [d.calibration for d in dumps if d.meta.entity == "orchestrator"][0]
        assert all(d.calibration == run_cal for d in dumps)
        # every entity ended cleanly and wrote nothing to its log
        assert {h.name: h.exit_code for h in t.handles.values()} == {
            name: 0 for name in t.handles
        }
        logs = sorted((tmp_path / "logs").glob("*.stderr"))
        assert len(logs) == len(t.dump_paths) - 1
        assert {p.name: p.read_text() for p in logs} == {p.name: "" for p in logs}

    def test_entity_ignoring_shutdown_is_killed_at_the_deadline(self):
        t = RunningTopology(
            fast_scenario(entity_mode="process"), "run-hung", None, Recorder(enabled=False)
        )
        for name, code in (("clean", "pass"), ("hung", "import time; time.sleep(60)")):
            t.handles[name] = EntityHandle(
                name=name,
                role=NodeRole.HOST_NODE,
                popen=subprocess.Popen([sys.executable, "-c", code]),
                spawned_at=time.monotonic(),
            )
        start = time.monotonic()
        coarse = t.shutdown(grace_s=1.0)
        assert time.monotonic() - start < 1.0 + 1.0
        assert t.handles["clean"].exit_code == 0
        assert t.handles["hung"].exit_code == -9
        assert coarse["hung"] is not None and coarse["hung"].elapsed_s >= 1.0
