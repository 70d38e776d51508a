"""Bootstrap, supervision and liveness for a testbed run.

The orchestrator process hosts the global manager service (the operator-
started root of the control plane) and supervises every other entity as a
child process or thread. Bootstrap advances through fixed phases, each
spawning one role group, sleeping its configured post-start sleep and
waiting for registrations; the per-phase wall timestamps form the
bootstrap timeline.

Liveness is heartbeat-driven: the manager scans beat ages several times
per interval and records the detection timestamp the first time an entity
exceeds ``miss_limit`` intervals of silence. Hosts behind a dead local
controller are reported unreachable-via-controller while their own beats
keep arriving.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from planeprof.instrument.dumpio import DumpWriter
from planeprof.instrument.events import TAG_SPAWN, CodeSite, SiteKind
from planeprof.instrument.proctimes import CoarseBreakdown, ProcessTimer, breakdown_from_rusage
from planeprof.instrument.recorder import LEVELS, Recorder
from planeprof.testbed.config import NodeRole, ScenarioConfig
from planeprof.testbed.entity import (
    SHARED_SETTINGS,
    Addr,
    Connection,
    Entity,
    EntityConfig,
    build_entity,
    open_dump,
)
from planeprof.testbed.wire import Message, MsgType
from planeprof.testbed.workflows import LoadReport, WorkflowAction


class BootstrapPhase(Enum):
    IDLE = 0
    MANAGER_UP = 1
    GLOBAL_CONTROLLER_UP = 2
    NAME_SERVER_UP = 3
    LOCAL_CONTROLLERS_UP = 4
    WORKFLOW_MANAGERS_UP = 5
    HOSTS_UP = 6
    CLIENTS_UP = 7
    RUNNING = 8


class PortUnavailable(Exception):
    """The configured manager listen port is taken."""


class EntitySpawnFailed(Exception):
    def __init__(self, role: NodeRole, name: str, detail: str = "") -> None:
        super().__init__(f"failed to spawn {role.value} {name!r}: {detail}")
        self.role = role
        self.name = name


class BootstrapTimeout(Exception):
    def __init__(self, phase: BootstrapPhase, detail: str = "") -> None:
        super().__init__(f"bootstrap stuck before {phase.name}: {detail}")
        self.phase = phase


class NoActiveWorkflow(Exception):
    """Client load was requested with no active workflow instance."""


# Stable instrumentation sites for the bootstrap phase functions.
def _SITE(line: int, symbol: str, kind: SiteKind) -> CodeSite:
    return CodeSite("testbed/orchestrator.py", line, symbol, kind)


SITE_SPAWN = _SITE(10, "spawn_entity", SiteKind.REGION)
SITE_WAIT_REGISTERED = _SITE(11, "wait_registered", SiteKind.REGION)
PHASE_SITES = {
    BootstrapPhase.MANAGER_UP: _SITE(20, "start_manager", SiteKind.FUNCTION),
    BootstrapPhase.GLOBAL_CONTROLLER_UP: _SITE(21, "start_global_controller", SiteKind.FUNCTION),
    BootstrapPhase.NAME_SERVER_UP: _SITE(22, "start_name_server", SiteKind.FUNCTION),
    BootstrapPhase.LOCAL_CONTROLLERS_UP: _SITE(23, "start_local_controllers", SiteKind.FUNCTION),
    BootstrapPhase.WORKFLOW_MANAGERS_UP: _SITE(24, "start_workflow_managers", SiteKind.FUNCTION),
    BootstrapPhase.HOSTS_UP: _SITE(25, "start_hosts", SiteKind.FUNCTION),
    BootstrapPhase.CLIENTS_UP: _SITE(26, "start_client_hosts", SiteKind.FUNCTION),
    BootstrapPhase.RUNNING: _SITE(27, "wait_workflows_active", SiteKind.FUNCTION),
}


@dataclass(frozen=True)
class Registration:
    name: str
    role: NodeRole
    zone: int
    site: int
    addr: Addr
    pid: int
    registered_at: float  # monotonic


@dataclass(frozen=True)
class FailureRecord:
    name: str
    role: NodeRole
    detected_at: float  # monotonic
    last_beat_age_s: float


@dataclass(frozen=True)
class UnreachableRecord:
    host: str
    via: str
    detected_at: float  # monotonic


@dataclass(frozen=True)
class LivenessReport:
    taken_at: float
    failures: Tuple[FailureRecord, ...]
    unreachable_via_controller: Tuple[UnreachableRecord, ...]
    beat_counts: Dict[str, int]


class ManagerService(Entity):
    """The global manager: registration sink, heartbeat monitor, commander.

    Runs its loop in a dedicated thread inside the orchestrator process;
    orchestrator-thread accessors take the state lock, and all sends go
    through one lock so command frames never interleave with acks.
    """

    role = NodeRole.GLOBAL_MANAGER

    def __init__(
        self, cfg: EntityConfig, recorder: Recorder, dump: Optional[DumpWriter]
    ) -> None:
        super().__init__(cfg, recorder, dump)
        self._state = threading.Lock()
        self._send_mutex = threading.Lock()
        self.registrations: Dict[str, Registration] = {}
        self.last_beat: Dict[str, float] = {}
        self.beat_counts: Counter = Counter()
        self.beat_payloads: Dict[str, dict] = {}
        self.failures: Dict[str, FailureRecord] = {}
        self.replies: Dict[Tuple[str, str], dict] = {}
        self.ns_service_addr: Optional[Addr] = None
        self._liveness_due = 0.0

    def send(self, conn: Connection, msg_type: MsgType, payload: Optional[dict] = None) -> None:
        with self._send_mutex:
            super().send(conn, msg_type, payload)

    def handle(self, conn: Connection, msg: Message) -> None:
        now = time.monotonic()
        if msg.msg_type is MsgType.REGISTER:
            p = msg.payload
            reg = Registration(
                name=p["name"],
                role=NodeRole(p["role"]),
                zone=int(p["zone"]),
                site=int(p["site"]),
                addr=(p["addr"][0], int(p["addr"][1])),
                pid=int(p["pid"]),
                registered_at=now,
            )
            conn.peer_name = reg.name
            broadcast_ns = False
            with self._state:
                self.registrations[reg.name] = reg
                self.last_beat[reg.name] = now
                if reg.role is NodeRole.NAME_SERVER:
                    self.ns_service_addr = reg.addr
                    broadcast_ns = True
                ns = self.ns_service_addr
            self.send(
                conn,
                MsgType.REGISTER_ACK,
                {"name": reg.name, "ns_addr": list(ns) if ns else None},
            )
            if broadcast_ns:
                for other in list(self.conns.values()):
                    if other is not conn and other.peer_name is not None:
                        self.send(
                            other,
                            MsgType.NAME_ANSWER,
                            {"name": "__name_server__", "addr": list(reg.addr)},
                        )
        elif msg.msg_type is MsgType.HEARTBEAT:
            with self._state:
                self.last_beat[msg.sender] = now
                self.beat_counts[msg.sender] += 1
                self.beat_payloads[msg.sender] = msg.payload
        elif msg.msg_type is MsgType.CLIENT_REPLY:
            command = msg.payload.get("command", "")
            key_id = msg.payload.get("job_id") or msg.payload.get("request_id") or ""
            with self._state:
                self.replies[(command, key_id)] = msg.payload

    def role_tick(self, now: float) -> None:
        if now < self._liveness_due:
            return
        self._liveness_due = now + self.cfg.heartbeat_interval_s / 4.0
        horizon = self.cfg.heartbeat_miss_limit * self.cfg.heartbeat_interval_s
        with self._state:
            for name, reg in self.registrations.items():
                if name in self.failures:
                    continue
                age = now - self.last_beat.get(name, reg.registered_at)
                if age > horizon:
                    self.failures[name] = FailureRecord(
                        name=name, role=reg.role, detected_at=now, last_beat_age_s=age
                    )

    # -- orchestrator-thread accessors --------------------------------------

    def registered_names(self) -> set:
        with self._state:
            return set(self.registrations)

    def registration(self, name: str) -> Optional[Registration]:
        with self._state:
            return self.registrations.get(name)

    def wm_active_counts(self) -> Dict[str, int]:
        with self._state:
            return {
                name: int(p.get("active_instances", 0))
                for name, p in self.beat_payloads.items()
                if self.registrations.get(name)
                and self.registrations[name].role is NodeRole.WORKFLOW_MANAGER
            }

    def send_to(self, name: str, msg_type: MsgType, payload: dict) -> bool:
        for conn in list(self.conns.values()):
            if conn.peer_name == name:
                self.send(conn, msg_type, payload)
                return True
        return False

    def pop_reply(self, key: Tuple[str, str], timeout_s: float) -> Optional[dict]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._state:
                if key in self.replies:
                    return self.replies.pop(key)
            time.sleep(0.005)
        return None

    def broadcast_shutdown(self) -> None:
        for conn in list(self.conns.values()):
            if conn.peer_name is None:
                continue
            try:
                self.send(conn, MsgType.SHUTDOWN, {})
            except OSError:
                continue

    def liveness_snapshot(self) -> LivenessReport:
        now = time.monotonic()
        with self._state:
            failures = tuple(
                sorted(self.failures.values(), key=lambda f: (f.detected_at, f.name))
            )
            unreachable: List[UnreachableRecord] = []
            for failure in failures:
                if failure.role is not NodeRole.LOCAL_CONTROLLER:
                    continue
                lc = self.registrations[failure.name]
                for name, reg in self.registrations.items():
                    if (
                        reg.role is NodeRole.HOST_NODE
                        and reg.zone == lc.zone
                        and reg.site == lc.site
                        and name not in self.failures
                    ):
                        unreachable.append(
                            UnreachableRecord(
                                host=name, via=failure.name, detected_at=failure.detected_at
                            )
                        )
            return LivenessReport(
                taken_at=now,
                failures=failures,
                unreachable_via_controller=tuple(
                    sorted(unreachable, key=lambda u: (u.host, u.via))
                ),
                beat_counts=dict(self.beat_counts),
            )


@dataclass
class EntityHandle:
    name: str
    role: NodeRole
    popen: Optional[subprocess.Popen] = None
    thread: Optional[threading.Thread] = None
    entity: Optional[Entity] = None
    spawned_at: float = 0.0
    killed: bool = False
    coarse: Optional[CoarseBreakdown] = None
    exit_code: Optional[int] = None


@dataclass(frozen=True)
class TimelineEntry:
    phase: BootstrapPhase
    wall_s: float
    monotonic_s: float


class RunningTopology:
    """Handles to a bootstrapped testbed plus its timeline and lifecycle."""

    def __init__(
        self,
        config: ScenarioConfig,
        run_id: str,
        run_dir: Optional[Path],
        recorder: Recorder,
        levels: Tuple[str, ...] = LEVELS,
    ) -> None:
        self.config = config
        self.run_id = run_id
        self.run_dir = run_dir
        self.rec = recorder
        self.levels = levels
        self.manager: Optional[ManagerService] = None
        self._mgr_thread: Optional[threading.Thread] = None
        self.handles: Dict[str, EntityHandle] = {}
        self.timeline: Dict[BootstrapPhase, TimelineEntry] = {}
        self._timer = ProcessTimer()
        self._job_counter = 0
        self._request_counter = 0
        self._down = False
        self.dump_paths: List[Path] = []
        # the orchestrator's dump, which the manager loop streams the shared
        # recorder to; opened at bootstrap, completed at shutdown
        self.dump: Optional[DumpWriter] = None

    # -- info ----------------------------------------------------------------

    def mark_phase(self, phase: BootstrapPhase) -> None:
        self.timeline[phase] = TimelineEntry(
            phase=phase, wall_s=time.time(), monotonic_s=time.monotonic()
        )

    def role_counts(self) -> Dict[NodeRole, int]:
        counts: Counter = Counter()
        if self.manager is None:
            return {}
        counts[NodeRole.GLOBAL_MANAGER] = 1
        for name in self.manager.registered_names():
            reg = self.manager.registration(name)
            if reg is not None:
                counts[reg.role] += 1
        return dict(counts)

    def names_by_role(self, role: NodeRole) -> List[str]:
        return sorted(h.name for h in self.handles.values() if h.role is role)

    def entity_addr(self, name: str) -> Optional[Addr]:
        assert self.manager is not None
        reg = self.manager.registration(name)
        return reg.addr if reg else None

    @property
    def dumps_dir(self) -> Optional[Path]:
        return self.run_dir / "dumps" if self.run_dir else None

    # -- operations ------------------------------------------------------------

    def client_load(
        self,
        users: int,
        rate_rps: float,
        duration_s: float,
        client: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> LoadReport:
        """Drive a load job on a client host and wait for its report."""
        assert self.manager is not None
        if client is None:
            clients = self.names_by_role(NodeRole.CLIENT_HOST)
            if not clients:
                raise NoActiveWorkflow("no client host in this topology")
            client = clients[0]
        self._job_counter += 1
        job_id = f"job-{self._job_counter}"
        sent = self.manager.send_to(
            client,
            MsgType.CLIENT_REQUEST,
            {
                "command": "generate_load",
                "job_id": job_id,
                "users": users,
                "rate": rate_rps,
                "duration": duration_s,
            },
        )
        if not sent:
            raise NoActiveWorkflow(f"client {client!r} is not connected")
        if timeout_s is None:
            timeout_s = duration_s + 10.0
        payload = self.manager.pop_reply(("generate_load", job_id), timeout_s)
        if payload is None:
            raise TimeoutError(f"no load report for {job_id} within {timeout_s}s")
        if payload.get("error") == "no_active_workflow":
            raise NoActiveWorkflow("no active workflow instances answered the lookup")
        return LoadReport(**payload["report"])

    def adjust_workflows(
        self, wm_name: str, observed_load: float, timeout_s: float = 5.0
    ) -> List[WorkflowAction]:
        """Feed one load observation to a workflow manager; returns its actions."""
        assert self.manager is not None
        self._request_counter += 1
        request_id = f"adj-{self._request_counter}"
        if not self.manager.send_to(
            wm_name,
            MsgType.CLIENT_REQUEST,
            {"command": "adjust", "observed_load": observed_load, "request_id": request_id},
        ):
            raise KeyError(f"unknown workflow manager {wm_name!r}")
        payload = self.manager.pop_reply(("adjust", request_id), timeout_s)
        if payload is None:
            raise TimeoutError(f"no adjust reply from {wm_name}")
        return [
            WorkflowAction(kind=a["kind"], zone=a["zone"], instance_id=a.get("instance_id"))
            for a in payload["actions"]
        ]

    def kill(self, name: str) -> float:
        """SIGKILL (process) or crash-flag (thread) one entity.

        Returns the monotonic kill timestamp for latency measurements.
        """
        handle = self.handles[name]
        handle.killed = True
        t = time.monotonic()
        if handle.popen is not None:
            os.kill(handle.popen.pid, signal.SIGKILL)
        elif handle.entity is not None:
            handle.entity.kill()
        return t

    # -- teardown ----------------------------------------------------------------

    @staticmethod
    def _reap(handles: List[EntityHandle], deadline: float) -> None:
        """Wait for each entity process in turn and record its exit code and
        rusage; one watchdog SIGKILLs every one still alive at ``deadline``
        (a ``time.monotonic()`` value).

        A child is first waited for with ``WNOWAIT``, which leaves it a
        zombie, so its pid cannot be reused before ``wait4`` reaps it. That
        happens under the lock the watchdog kills under, after the pid has
        left ``alive``, so the watchdog never signals a reaped pid.
        """
        # a child that failed to spawn was reaped by Popen.poll() already
        alive = {h.popen.pid for h in handles if h.popen.returncode is None}
        lock = threading.Lock()
        reaped = threading.Event()

        def watchdog() -> None:
            if reaped.wait(deadline - time.monotonic()):
                return
            with lock:
                for pid in alive:  # unreaped, so a live child or a zombie
                    os.kill(pid, signal.SIGKILL)

        threading.Thread(target=watchdog, name="reap-watchdog", daemon=True).start()
        try:
            for handle in handles:
                popen = handle.popen
                if popen.pid in alive:
                    os.waitid(os.P_PID, popen.pid, os.WEXITED | os.WNOWAIT)
                    with lock:
                        alive.discard(popen.pid)
                        _, status, rusage = os.wait4(popen.pid, 0)
                    # recorded for Popen too, so its destructor stays quiet
                    popen.returncode = os.waitstatus_to_exitcode(status)
                    handle.coarse = breakdown_from_rusage(
                        rusage, time.monotonic() - handle.spawned_at
                    )
                handle.exit_code = popen.returncode
        finally:
            reaped.set()

    def shutdown(self, grace_s: float = 5.0) -> Dict[str, Optional[CoarseBreakdown]]:
        """Stop everything, collect per-entity coarse breakdowns and dumps.

        Entity processes get ``grace_s`` from the shutdown broadcast, all
        together, to exit; any one still alive then is SIGKILLed.
        """
        if self._down:
            return {h.name: h.coarse for h in self.handles.values()}
        self._down = True
        if self.manager is not None:
            self.manager.broadcast_shutdown()
        processes = [h for h in self.handles.values() if h.popen is not None]
        if processes:
            self._reap(processes, time.monotonic() + grace_s)
        for handle in self.handles.values():
            if handle.thread is not None:
                handle.thread.join(timeout=grace_s)
                if handle.entity is not None and not handle.killed:
                    handle.coarse = None  # thread mode: no per-entity OS accounting
        if self.manager is not None:
            self.manager.request_stop()
        if self._mgr_thread is not None:
            self._mgr_thread.join(timeout=grace_s)
        if self.manager is not None:
            self.manager._close_all()
        self._write_orchestrator_dump()
        if self.dumps_dir is not None:
            self.dump_paths = sorted(self.dumps_dir.glob("*.dump"))
        return {h.name: h.coarse for h in self.handles.values()}

    def _write_orchestrator_dump(self) -> None:
        """Write what the manager loop has not streamed, and complete the dump."""
        if self.dump is None:
            return
        coarse = self._timer.checkpoint()
        self.dump.write(self.rec.drain())
        self.dump.close(self.rec.violations, coarse)


def _entity_config(topo: RunningTopology, name: str, role: NodeRole, **fields) -> EntityConfig:
    """Every entity's config, the manager's included: the scenario's shared
    settings and this run's, then ``fields``."""
    cfg = topo.config
    run = dict(
        run_id=topo.run_id,
        levels=topo.levels,
        scale_factor=cfg.scale_factor,
        own_process=cfg.entity_mode == "process",
        dump_dir=str(topo.dumps_dir) if topo.dumps_dir else None,
        calibration=topo.rec.calibration,
    )
    shared = {key: getattr(cfg, key) for key in SHARED_SETTINGS}
    return EntityConfig(name=name, role=role, **{**shared, **run, **fields})


def _spawn(topo: RunningTopology, ecfg: EntityConfig) -> EntityHandle:
    handle = EntityHandle(name=ecfg.name, role=ecfg.role)
    with topo.rec.region(SITE_SPAWN, tag=TAG_SPAWN):
        handle.spawned_at = time.monotonic()
        if topo.config.entity_mode == "process":
            env = {**os.environ, **ecfg.to_env()}
            if topo.run_dir is not None:
                log_dir = topo.run_dir / "logs"
                log_dir.mkdir(parents=True, exist_ok=True)
                stderr_file = open(log_dir / f"{ecfg.name}.stderr", "wb")
            else:
                stderr_file = subprocess.DEVNULL
            try:
                handle.popen = subprocess.Popen(
                    [sys.executable, "-m", "planeprof.testbed"],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr_file,
                )
            except OSError as exc:
                raise EntitySpawnFailed(ecfg.role, ecfg.name, str(exc)) from exc
            finally:
                if stderr_file is not subprocess.DEVNULL:
                    stderr_file.close()
        else:
            entity = build_entity(ecfg)
            handle.entity = entity
            handle.thread = threading.Thread(
                target=entity.run, name=f"entity-{ecfg.name}", daemon=True
            )
            handle.thread.start()
    topo.handles[ecfg.name] = handle
    return handle


def _check_spawn_health(topo: RunningTopology, names: List[str]) -> None:
    assert topo.manager is not None
    registered = topo.manager.registered_names()
    for name in names:
        if name in registered:
            continue
        handle = topo.handles[name]
        if handle.popen is not None:
            rc = handle.popen.poll()  # failure path only; rusage no longer needed
            if rc is not None:
                raise EntitySpawnFailed(handle.role, name, f"exited with status {rc}")
        elif handle.thread is not None and not handle.thread.is_alive():
            raise EntitySpawnFailed(handle.role, name, "entity thread died")


def _wait_registered(topo: RunningTopology, names: List[str], phase: BootstrapPhase) -> None:
    assert topo.manager is not None
    deadline = time.monotonic() + topo.config.bootstrap_deadline_s
    with topo.rec.region(SITE_WAIT_REGISTERED):
        while True:
            missing = set(names) - topo.manager.registered_names()
            if not missing:
                return
            _check_spawn_health(topo, sorted(missing))
            if time.monotonic() >= deadline:
                raise BootstrapTimeout(phase, f"unregistered: {sorted(missing)}")
            time.sleep(0.01)


def bootstrap(
    config: ScenarioConfig,
    run_dir: Optional[Path | str] = None,
    recorder: Optional[Recorder] = None,
    run_id: Optional[str] = None,
    levels: Tuple[str, ...] = LEVELS,
) -> RunningTopology:
    """Bring the whole topology to Running; returns handles and timeline.

    Phases advance strictly in order; each spawns its role group, sleeps
    the configured post-start sleep, then confirms registrations against
    the bootstrap deadline.
    """
    rec = recorder if recorder is not None else Recorder(enabled=True)
    run_dir = Path(run_dir) if run_dir is not None else None
    if run_id is None:
        run_id = f"run-{time.time_ns():x}"
    topo = RunningTopology(
        config=config, run_id=run_id, run_dir=run_dir, recorder=rec, levels=levels
    )
    if topo.dumps_dir is not None:
        topo.dumps_dir.mkdir(parents=True, exist_ok=True)
        gm = _entity_config(topo, "gm", NodeRole.GLOBAL_MANAGER)
        topo.dump = open_dump(gm, "orchestrator", rec.calibration)
    topo.mark_phase(BootstrapPhase.IDLE)
    try:
        _bootstrap_phases(topo)
    except Exception:
        topo.shutdown(grace_s=2.0)
        raise
    return topo


def _lc_name(zone: int, site: int) -> str:
    return f"lc-z{zone}s{site}"


def _groups(cfg: ScenarioConfig) -> List[Tuple[BootstrapPhase, str, List[tuple]]]:
    """The role groups bootstrap spawns after the manager, in
    :data:`SLEEP_ROLES` order: (phase, sleep key, members), each member
    (name, role, zone, site, index)."""
    zones = range(1, cfg.zones + 1)
    sites = [(z, s) for z in zones for s in range(1, cfg.sites_per_zone + 1)]
    wms = [(z, w) for z in zones for w in range(1, cfg.workflows_per_zone + 1)]
    hosts = [(z, s, h) for z, s in sites for h in range(1, cfg.hosts_per_site + 1)]
    return [
        (
            BootstrapPhase.GLOBAL_CONTROLLER_UP,
            "global_controller",
            [("gc", NodeRole.GLOBAL_CONTROLLER, 1, 0, 1)],
        ),
        (BootstrapPhase.NAME_SERVER_UP, "name_server", [("ns", NodeRole.NAME_SERVER, 1, 0, 1)]),
        (
            BootstrapPhase.LOCAL_CONTROLLERS_UP,
            "local_controller",
            [(_lc_name(z, s), NodeRole.LOCAL_CONTROLLER, z, s, 1) for z, s in sites],
        ),
        (
            BootstrapPhase.WORKFLOW_MANAGERS_UP,
            "workflow_manager",
            [(f"wm-z{z}w{w}", NodeRole.WORKFLOW_MANAGER, z, 0, w) for z, w in wms],
        ),
        (
            BootstrapPhase.HOSTS_UP,
            "host_group",
            [(f"host-z{z}s{s}h{h}", NodeRole.HOST_NODE, z, s, h) for z, s, h in hosts],
        ),
        (
            BootstrapPhase.CLIENTS_UP,
            "client_host",
            [("client-1", NodeRole.CLIENT_HOST, 1, 0, 1)] if cfg.client_users > 0 else [],
        ),
    ]


def _bootstrap_phases(topo: RunningTopology) -> None:
    cfg = topo.config
    rec = topo.rec

    with rec.region(PHASE_SITES[BootstrapPhase.MANAGER_UP]):
        mgr_cfg = _entity_config(
            topo, "gm", NodeRole.GLOBAL_MANAGER, dump_dir=None, listen_port=cfg.listen_port
        )
        try:
            manager = topo.manager = ManagerService(mgr_cfg, rec, topo.dump)
        except OSError as exc:
            raise PortUnavailable(f"cannot bind manager port {cfg.listen_port}: {exc}") from exc
        topo._mgr_thread = threading.Thread(target=manager.run, name="manager-loop", daemon=True)
        topo._mgr_thread.start()
    topo.mark_phase(BootstrapPhase.MANAGER_UP)

    for phase, sleep_key, members in _groups(cfg):
        with rec.region(PHASE_SITES[phase]):
            # an empty client group neither sleeps nor waits; every other group does
            if members or phase is not BootstrapPhase.CLIENTS_UP:
                for name, role, zone, site, index in members:
                    lc = _lc_name(zone, site) if role is NodeRole.HOST_NODE else None
                    ecfg = _entity_config(
                        topo,
                        name,
                        role,
                        zone=zone,
                        site=site,
                        index=index,
                        manager_addr=manager.addr,
                        ns_addr=manager.ns_service_addr,
                        lc_addr=topo.entity_addr(lc) if lc else None,
                    )
                    _spawn(topo, ecfg)
                seconds = cfg.post_start_sleep_s[sleep_key]
                if seconds > 0:
                    rec.sleep(seconds)
                _wait_registered(topo, [name for name, *_ in members], phase)
        topo.mark_phase(phase)

    with rec.region(PHASE_SITES[BootstrapPhase.RUNNING]):
        _wait_workflows_active(topo)
    topo.mark_phase(BootstrapPhase.RUNNING)


def _wait_workflows_active(topo: RunningTopology) -> None:
    """Running requires one active instance per workflow manager."""
    assert topo.manager is not None
    wm_names = topo.names_by_role(NodeRole.WORKFLOW_MANAGER)
    if not wm_names:
        return
    deadline = time.monotonic() + topo.config.bootstrap_deadline_s + (
        2.0 * topo.config.heartbeat_interval_s
    )
    while True:
        counts = topo.manager.wm_active_counts()
        if all(counts.get(name, 0) >= 1 for name in wm_names):
            return
        if time.monotonic() >= deadline:
            lagging = [n for n in wm_names if counts.get(n, 0) < 1]
            raise BootstrapTimeout(BootstrapPhase.RUNNING, f"no active instances: {lagging}")
        time.sleep(0.02)
