"""Entity event loops: every control-plane node is one of these.

An entity is a single-threaded loop around ``poll``: it accepts
connections, decodes frames, dispatches messages, and runs its timers
(heartbeats, paced client traffic, workflow bookkeeping) between polls.
Entities share no state; everything crosses the wire.

An :class:`EntityConfig` takes the settings named in
:data:`SHARED_SETTINGS` from the scenario, defaults included. Process mode
runs :func:`main` in a child interpreter (``python -m planeprof.testbed``)
configured through the environment variables of one table,
:data:`SPAWN_VARIABLES` (``HOST_NAME``, ``NAME_SERVER_ADDR``,
``NAME_SERVER_UPDATE_PORT``, ``BOOTSTRAP_DEADLINE_S``, the registration
deadline, ``CLOCK_CALIBRATION``, the run's clock calibration as four
comma-separated integers, and the rest); thread mode constructs the same
classes in-process. Either way each entity records its
own profile with the run's calibration and streams it to one dump during
the run: whenever its loop thread holds :data:`FLUSH_RECORDS` records, the
loop drains and writes them, and clean shutdown writes the rest and
completes the file. An entity killed before then leaves only the dump's
``.part`` file. A process-mode entity ends with ``os._exit`` once its
standard streams are flushed (see ``__main__``): no atexit handler runs in
it, and the rusage the orchestrator collects with ``wait4`` does not
include interpreter teardown.
"""

from __future__ import annotations

import os
import random
import select
import socket
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from planeprof.instrument.dumpio import DumpMeta, DumpWriter
from planeprof.instrument.events import TAG_HEARTBEAT, TAG_POLL, CodeSite, SiteKind
from planeprof.instrument.proctimes import ProcessTimer
from planeprof.instrument.recorder import LEVELS, ClockCalibration, Recorder
from planeprof.testbed.config import NodeRole, ScenarioConfig
from planeprof.testbed.wire import (
    FrameDecoder,
    Message,
    MsgType,
    SequenceCounters,
    send_message,
)
from planeprof.testbed.workflows import (
    LoadReport,
    WorkflowInstance,
    WorkflowManagerState,
    WorkflowState,
    adjust_workflows,
)

Addr = Tuple[str, int]

# Instrumentation sites for the loop hot spots; line numbers are stable
# labels, not live source positions.
SITE_POLL = CodeSite("testbed/entity.py", 10, "poll_wait", SiteKind.REGION)
SITE_HANDLE = CodeSite("testbed/entity.py", 11, "handle_message", SiteKind.REGION)
SITE_HEARTBEAT = CodeSite("testbed/entity.py", 12, "send_heartbeat", SiteKind.REGION)
SITE_FLUSH = CodeSite("testbed/entity.py", 13, "dump_flush", SiteKind.REGION)

_MAIN_SITES = {
    role: CodeSite("testbed/entity.py", 20 + i, f"{role.value}_main", SiteKind.FUNCTION)
    for i, role in enumerate(NodeRole)
}

# the loop writes its thread's records to the dump once it holds this many,
# which bounds the recorder's memory whatever the run's length
FLUSH_RECORDS = 512
_JOB_DRAIN_GRACE_S = 2.0


class SocketClosed(Exception):
    """The entity's sockets are gone; the loop cannot continue."""


# the settings an entity takes unchanged from its scenario; an entity
# started by hand takes the scenario defaults
SHARED_SETTINGS = (
    "scenario_id",
    "seed",
    "poll_timeout_ms",
    "heartbeat_interval_s",
    "heartbeat_miss_limit",
    "workflow_load_high",
    "workflow_load_low",
    "bootstrap_deadline_s",
)
_SCENARIO_DEFAULTS = ScenarioConfig()


@dataclass
class EntityConfig:
    name: str
    role: NodeRole
    zone: int = 1
    site: int = 1
    index: int = 1
    manager_addr: Optional[Addr] = None
    ns_addr: Optional[Addr] = None
    lc_addr: Optional[Addr] = None
    scenario_id: str = _SCENARIO_DEFAULTS.scenario_id
    seed: int = _SCENARIO_DEFAULTS.seed
    poll_timeout_ms: float = _SCENARIO_DEFAULTS.poll_timeout_ms
    heartbeat_interval_s: float = _SCENARIO_DEFAULTS.heartbeat_interval_s
    heartbeat_miss_limit: int = _SCENARIO_DEFAULTS.heartbeat_miss_limit
    workflow_load_high: float = _SCENARIO_DEFAULTS.workflow_load_high
    workflow_load_low: float = _SCENARIO_DEFAULTS.workflow_load_low
    # how long the entity tries to register with the manager
    bootstrap_deadline_s: float = _SCENARIO_DEFAULTS.bootstrap_deadline_s
    run_id: str = "-"
    dump_dir: Optional[str] = None
    levels: Tuple[str, ...] = LEVELS
    scale_factor: float = 1.0
    listen_port: int = 0
    # False when the entity shares a process (thread mode): coarse times
    # are then accounted per thread, not per process
    own_process: bool = True
    # the run's calibration; None makes the entity's recorder measure its own
    calibration: Optional[ClockCalibration] = None

    def to_env(self) -> Dict[str, str]:
        env = {}
        for variable, name, _ in SPAWN_VARIABLES:
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(variable, tuple):
                env[variable[0]], env[variable[1]] = value[0], str(value[1])
            else:
                env[variable] = _env_text(value)
        return env

    @classmethod
    def from_env(cls, env: Dict[str, str]) -> "EntityConfig":
        """Parse spawn variables; an unset variable leaves its field's
        default, and a malformed one, or an unset one whose field has no
        default, raises a ``ValueError`` that names it."""
        required = {f.name for f in fields(cls) if f.default is MISSING}
        kwargs: Dict[str, Any] = {}
        for variable, name, parse in SPAWN_VARIABLES:
            pair = variable if isinstance(variable, tuple) else (variable,)
            if not all(v in env for v in pair):
                if name in required:
                    raise ValueError(f"{variable} is not set")
                continue
            key, raw = pair[-1], env[pair[-1]]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{key}={raw!r}: {exc}") from None
            kwargs[name] = (env[pair[0]], value) if len(pair) == 2 else value
        return cls(**kwargs)


def open_dump(cfg: EntityConfig, entity: str, calibration: ClockCalibration) -> DumpWriter:
    """Start ``<cfg.dump_dir>/<entity>.dump``, its header taken from ``cfg``."""
    meta = DumpMeta(
        run_id=cfg.run_id,
        entity=entity,
        role=cfg.role.value,
        pid=os.getpid(),
        scenario=cfg.scenario_id,
        seed=cfg.seed,
        levels=cfg.levels,
        scale_factor=cfg.scale_factor,
    )
    return DumpWriter(Path(cfg.dump_dir) / f"{entity}.dump", meta, calibration)


def _parse_levels(raw: str) -> Tuple[str, ...]:
    return tuple(x for x in raw.split(",") if x)


def _parse_calibration(raw: str) -> ClockCalibration:
    values = [int(v) for v in raw.split(",")]
    if len(values) != 4 or min(values) < 0:
        raise ValueError("expected four non-negative integers")
    return ClockCalibration(*values)


def _env_text(value: Any) -> str:
    """A field's value as its spawn variable's text."""
    if isinstance(value, NodeRole):
        return value.value
    if isinstance(value, ClockCalibration):
        value = astuple(value)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


# How a process-mode entity gets its config: one (variable, EntityConfig
# field, parser) row per field. An address field's row names its (host,
# port) variable pair, and its parser reads the port. ``listen_port`` and
# ``own_process`` are not carried: a spawned entity listens on a free port
# and has its own process.
SPAWN_VARIABLES: Tuple[Tuple[Any, str, Callable[[str], Any]], ...] = (
    ("HOST_NAME", "name", str),
    ("NODE_ROLE", "role", NodeRole),
    ("NODE_ZONE", "zone", int),
    ("NODE_SITE", "site", int),
    ("NODE_INDEX", "index", int),
    (("MANAGER_ADDR", "MANAGER_PORT"), "manager_addr", int),
    (("NAME_SERVER_ADDR", "NAME_SERVER_UPDATE_PORT"), "ns_addr", int),
    (("LOCAL_CONTROLLER_ADDR", "LOCAL_CONTROLLER_PORT"), "lc_addr", int),
    ("SCENARIO_ID", "scenario_id", str),
    ("RNG_SEED", "seed", int),
    ("POLL_TIMEOUT_MS", "poll_timeout_ms", float),
    ("HEARTBEAT_INTERVAL_S", "heartbeat_interval_s", float),
    ("HEARTBEAT_MISS_LIMIT", "heartbeat_miss_limit", int),
    ("WORKFLOW_LOAD_HIGH", "workflow_load_high", float),
    ("WORKFLOW_LOAD_LOW", "workflow_load_low", float),
    ("BOOTSTRAP_DEADLINE_S", "bootstrap_deadline_s", float),
    ("RUN_ID", "run_id", str),
    ("DUMP_DIR", "dump_dir", str),
    ("PROFILE_LEVELS", "levels", _parse_levels),
    ("SCALE_FACTOR", "scale_factor", float),
    ("CLOCK_CALIBRATION", "calibration", _parse_calibration),
)


class Connection:
    __slots__ = ("sock", "decoder", "peer_name", "addr")

    def __init__(self, sock: socket.socket, addr: Optional[Addr] = None) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.peer_name: Optional[str] = None
        self.addr = addr

    def fileno(self) -> int:
        return self.sock.fileno()


class Entity:
    """Base event loop; subclasses add per-role message handling."""

    role: NodeRole = NodeRole.HOST_NODE

    def __init__(
        self,
        cfg: EntityConfig,
        recorder: Optional[Recorder] = None,
        dump: Optional[DumpWriter] = None,
    ) -> None:
        self.cfg = cfg
        self.name = cfg.name
        # only the orchestrator's manager passes a recorder and a dump: it
        # shares the CLI's recorder and streams it to the orchestrator's
        # dump, which the orchestrator completes; an entity with a
        # ``dump_dir`` opens its own dump in run()
        self.rec = recorder if recorder is not None else Recorder(
            enabled="events" in cfg.levels, calibration=cfg.calibration
        )
        self.dump = dump
        self._timer: Optional[ProcessTimer] = None  # created on the loop thread
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listen.bind(("127.0.0.1", cfg.listen_port))
        except OSError:
            self._listen.close()
            raise
        self._listen.listen(128)
        self._listen.setblocking(False)
        self.addr: Addr = self._listen.getsockname()
        self.conns: Dict[int, Connection] = {}
        self._by_addr: Dict[Addr, Connection] = {}
        self._mgr: Optional[Connection] = None
        self._seq = SequenceCounters()
        self._stop = False
        self._killed = False
        self._closed = False
        self._registered = False
        self.ns_addr: Optional[Addr] = cfg.ns_addr
        self._pending_names: List[Tuple[str, Optional[Addr]]] = []
        self._hb_due: Optional[float] = None
        self.rng = random.Random(cfg.seed)

    # -- connections --------------------------------------------------------

    def _track(self, sock: socket.socket, addr: Optional[Addr] = None) -> Connection:
        conn = Connection(sock, addr)
        self.conns[sock.fileno()] = conn
        if addr is not None:
            self._by_addr[addr] = conn
        return conn

    def connect(self, addr: Addr, deadline_s: float = 5.0) -> Connection:
        """Connect (or reuse) an outbound connection, retrying while the
        peer is still coming up."""
        conn = self._by_addr.get(addr)
        if conn is not None:
            return conn
        deadline = time.monotonic() + deadline_s
        while True:
            try:
                sock = socket.create_connection(addr, timeout=2.0)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._track(sock, addr)

    def _close_conn(self, fd: int) -> None:
        conn = self.conns.pop(fd, None)
        if conn is None:
            return
        if conn.addr is not None:
            self._by_addr.pop(conn.addr, None)
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn is self._mgr:
            # Supervisor is gone; do not linger as an orphan.
            self._mgr = None
            self._stop = True

    def send(self, conn: Connection, msg_type: MsgType, payload: Optional[dict] = None) -> None:
        msg = Message(
            msg_type=msg_type,
            sender=self.name,
            seq=self._seq.next(self.name, msg_type),
            payload=payload or {},
        )
        send_message(conn.sock, msg)

    # -- poll loop -----------------------------------------------------------

    def _pump(self, timeout_s: float) -> None:
        """One readiness wait plus message dispatch.

        The wait uses ``select`` rather than ``poll``: select keeps
        microsecond timeout granularity, which the paced loop in
        :meth:`run` relies on to absorb kernel timer overshoot.
        """
        if self._closed:
            raise SocketClosed(f"{self.name} is closed")
        rlist = [self._listen.fileno(), *self.conns]
        self.rec.enter(SITE_POLL, tag=TAG_POLL)
        try:
            ready, _, _ = select.select(rlist, [], [], max(0.0, timeout_s))
        except OSError:
            ready = []  # a peer closed mid-wait; next pass drops dead fds
        finally:
            self.rec.exit(SITE_POLL)
        for fd in ready:
            if fd == self._listen.fileno():
                self._accept_all()
                continue
            conn = self.conns.get(fd)
            if conn is None:
                continue
            try:
                data = conn.sock.recv(65536)
            except (ConnectionResetError, OSError):
                self._close_conn(fd)
                continue
            if not data:
                self._close_conn(fd)
                continue
            msgs = conn.decoder.feed(data)
            if msgs:
                self.rec.enter(SITE_HANDLE)
                try:
                    for msg in msgs:
                        self._dispatch(conn, msg)
                finally:
                    self.rec.exit(SITE_HANDLE)

    def _accept_all(self) -> None:
        while True:
            try:
                sock, _ = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._track(sock)

    # -- protocol ------------------------------------------------------------

    def _dispatch(self, conn: Connection, msg: Message) -> None:
        if msg.msg_type is MsgType.SHUTDOWN:
            self._stop = True
            return
        if msg.msg_type is MsgType.REGISTER_ACK and conn is self._mgr:
            self._registered = True
            ns = msg.payload.get("ns_addr")
            if ns:
                self._learn_ns((ns[0], int(ns[1])))
            return
        if (
            msg.msg_type is MsgType.NAME_ANSWER
            and msg.payload.get("name") == "__name_server__"
        ):
            addr = msg.payload.get("addr")
            if addr:
                self._learn_ns((addr[0], int(addr[1])))
            return
        self.handle(conn, msg)

    def handle(self, conn: Connection, msg: Message) -> None:
        """Role-specific dispatch; the base entity ignores everything else."""

    def _learn_ns(self, addr: Addr) -> None:
        self.ns_addr = addr
        pending, self._pending_names = self._pending_names, []
        for name, a in pending:
            self.register_name(name, a)

    def register_name(self, name: str, addr: Optional[Addr]) -> None:
        """Publish (or tombstone) a name binding on the name server."""
        if self.ns_addr is None:
            self._pending_names.append((name, addr))
            return
        conn = self.connect(self.ns_addr)
        self.send(
            conn,
            MsgType.REGISTER,
            {"name": name, "addr": list(addr) if addr else None},
        )

    def name_lookup(self, prefix: str) -> bool:
        if self.ns_addr is None:
            return False
        conn = self.connect(self.ns_addr)
        self.send(conn, MsgType.NAME_LOOKUP, {"prefix": prefix})
        return True

    def _register_with_manager(self) -> None:
        assert self.cfg.manager_addr is not None
        deadline = time.monotonic() + self.cfg.bootstrap_deadline_s
        self._mgr = self.connect(self.cfg.manager_addr, self.cfg.bootstrap_deadline_s)
        self.send(
            self._mgr,
            MsgType.REGISTER,
            {
                "name": self.name,
                "role": self.role.value,
                "zone": self.cfg.zone,
                "site": self.cfg.site,
                "addr": list(self.addr),
                "pid": os.getpid(),
            },
        )
        while not self._registered:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{self.name}: no registration ack from manager")
            self._pump(self.cfg.poll_timeout_ms / 1000.0)
        self._hb_due = time.monotonic() + self.cfg.heartbeat_interval_s

    def heartbeat_payload(self) -> dict:
        return {}

    def _tick(self, now: float) -> None:
        if self._mgr is not None and self._hb_due is not None and now >= self._hb_due:
            self.rec.enter(SITE_HEARTBEAT, tag=TAG_HEARTBEAT)
            try:
                self.send(self._mgr, MsgType.HEARTBEAT, self.heartbeat_payload())
            finally:
                self.rec.exit(SITE_HEARTBEAT)
            self._hb_due = now + self.cfg.heartbeat_interval_s
        self.role_tick(now)

    def role_tick(self, now: float) -> None:
        """Per-role timer work between polls."""

    def on_started(self) -> None:
        """Hook after manager registration, before the main loop."""

    # -- lifecycle -----------------------------------------------------------

    def run(self, duration_s: Optional[float] = None) -> None:
        """Register, then poll until stopped, killed or ``duration_s`` is up.

        The poll timeout is the loop's period: each wait ends on the next
        tick of a grid anchored where the loop starts. A message that
        ends a wait early leaves that tick in place; kernel timer
        overshoot (hundreds of microseconds per wait on a virtualized
        host) or a slow ``_tick`` shortens the next wait instead of
        accumulating, and a tick that has already passed is polled at
        once with a zero wait. With no traffic the poll count therefore
        tracks ``duration / timeout``; each early wake adds one poll.

        With a dump, each pass that ends with :data:`FLUSH_RECORDS` or more
        records buffered on this thread writes every buffered record to
        it, inside the ``dump_flush`` region.
        """
        main_site = _MAIN_SITES[self.role]
        if self.cfg.dump_dir:
            self.dump = open_dump(self.cfg, self.name, self.rec.calibration)
        self._timer = ProcessTimer("process" if self.cfg.own_process else "thread")
        self.rec.enter(main_site)
        try:
            if self.cfg.manager_addr is not None:
                self._register_with_manager()
            self.on_started()
            period_s = self.cfg.poll_timeout_ms / 1000.0
            t0 = time.monotonic()
            end = None if duration_s is None else t0 + duration_s
            due = t0 + period_s
            while not self._stop and not self._killed:
                now = time.monotonic()
                if end is not None and now >= end:
                    break
                self._pump((due if end is None else min(due, end)) - now)
                now = time.monotonic()
                if now >= due:
                    due += period_s
                self._tick(now)
                if self.dump is not None and self.rec.buffered() >= FLUSH_RECORDS:
                    self._flush()
        finally:
            self.rec.exit(main_site)
            if self._killed:
                self._close_all()
                if self.cfg.dump_dir:
                    self.dump.discard()
            else:
                self.finalize()

    def _flush(self) -> None:
        """Write every buffered record to the dump and drop it."""
        self.rec.enter(SITE_FLUSH)
        try:
            self.dump.write(self.rec.drain())
        finally:
            self.rec.exit(SITE_FLUSH)

    def kill(self) -> None:
        """Simulated crash for thread mode: stop beating, drop sockets,
        delete the unfinished dump."""
        self._killed = True

    def request_stop(self) -> None:
        self._stop = True

    def _close_all(self) -> None:
        if self._closed:
            return
        self._closed = True
        for fd in list(self.conns):
            self._close_conn(fd)
        try:
            self._listen.close()
        except OSError:
            pass

    def finalize(self) -> Optional[Path]:
        """Write the rest of this entity's dump (if configured), complete
        it, and close sockets."""
        coarse = self._timer.checkpoint() if self._timer is not None else None
        path = None
        if self.cfg.dump_dir:
            self.dump.write(self.rec.drain())
            path = self.dump.close(self.rec.violations, coarse)
        self._close_all()
        return path


class GlobalControllerEntity(Entity):
    role = NodeRole.GLOBAL_CONTROLLER

    def on_started(self) -> None:
        self.register_name(f"gc/z{self.cfg.zone}", self.addr)

    def heartbeat_payload(self) -> dict:
        return {"zone": self.cfg.zone}


class NameServerEntity(Entity):
    role = NodeRole.NAME_SERVER

    def __init__(self, cfg: EntityConfig) -> None:
        super().__init__(cfg)
        self.registry: Dict[str, Optional[Addr]] = {}

    def handle(self, conn: Connection, msg: Message) -> None:
        if msg.msg_type is MsgType.REGISTER:
            name = msg.payload["name"]
            raw = msg.payload.get("addr")
            self.registry[name] = (raw[0], int(raw[1])) if raw else None
            conn.peer_name = msg.sender
            self.send(conn, MsgType.REGISTER_ACK, {"name": name})
        elif msg.msg_type is MsgType.NAME_LOOKUP:
            prefix = msg.payload.get("prefix", "")
            matches = sorted(
                (name, list(addr))
                for name, addr in self.registry.items()
                if addr is not None and name.startswith(prefix)
            )
            self.send(conn, MsgType.NAME_ANSWER, {"prefix": prefix, "matches": matches})

    def heartbeat_payload(self) -> dict:
        return {"names": len(self.registry)}


class LocalControllerEntity(Entity):
    role = NodeRole.LOCAL_CONTROLLER

    def __init__(self, cfg: EntityConfig) -> None:
        super().__init__(cfg)
        self.hosts_seen: set[str] = set()

    def on_started(self) -> None:
        self.register_name(f"lc/z{self.cfg.zone}/s{self.cfg.site}", self.addr)

    def handle(self, conn: Connection, msg: Message) -> None:
        if msg.msg_type is MsgType.REGISTER:
            conn.peer_name = msg.sender
            self.hosts_seen.add(msg.sender)
            self.send(conn, MsgType.REGISTER_ACK, {"name": msg.sender})

    def heartbeat_payload(self) -> dict:
        return {"site": self.cfg.site, "hosts_seen": len(self.hosts_seen)}


class WorkflowManagerEntity(Entity):
    role = NodeRole.WORKFLOW_MANAGER

    def __init__(self, cfg: EntityConfig) -> None:
        super().__init__(cfg)
        self.state = WorkflowManagerState(
            zone=cfg.zone, load_high=cfg.workflow_load_high, load_low=cfg.workflow_load_low
        )
        self.workflow_id = f"wf-z{cfg.zone}-w{cfg.index}"
        self.zone_hosts: List[Tuple[str, Addr]] = []
        self._instance_hosts: Dict[str, Tuple[str, Addr]] = {}
        self._next_instance = 0
        self._rr = 0
        self._lookup_due = 0.0

    def on_started(self) -> None:
        self.register_name(f"wm/z{self.cfg.zone}/w{self.cfg.index}", self.addr)

    def role_tick(self, now: float) -> None:
        if not self.zone_hosts and now >= self._lookup_due:
            if self.name_lookup(f"host/z{self.cfg.zone}/"):
                self._lookup_due = now + 0.2
        elif self.zone_hosts and not self.state.instances:
            self._commission()

    def _commission(self) -> None:
        host_name, host_addr = self.zone_hosts[self._rr % len(self.zone_hosts)]
        self._rr += 1
        instance_id = f"{self.workflow_id}-i{self._next_instance}"
        self._next_instance += 1
        conn = self.connect(host_addr)
        self.send(
            conn,
            MsgType.COMMISSION_WORKFLOW,
            {"instance_id": instance_id, "workflow_id": self.workflow_id},
        )
        self.state.instances[instance_id] = WorkflowInstance(
            id=instance_id, zone=self.cfg.zone, state=WorkflowState.COMMISSIONED, host=host_name
        )
        self._instance_hosts[instance_id] = (host_name, host_addr)

    def _decommission(self, instance_id: str) -> None:
        host = self._instance_hosts.get(instance_id)
        if host is None:
            return
        conn = self.connect(host[1])
        self.send(conn, MsgType.DECOMMISSION_WORKFLOW, {"instance_id": instance_id})
        self.state.instances[instance_id].state = WorkflowState.DECOMMISSIONED

    def handle(self, conn: Connection, msg: Message) -> None:
        if msg.msg_type is MsgType.NAME_ANSWER and msg.payload.get("prefix", "").startswith(
            "host/"
        ):
            self.zone_hosts = [
                (name, (addr[0], int(addr[1]))) for name, addr in msg.payload["matches"]
            ]
        elif msg.msg_type is MsgType.REGISTER and msg.payload.get("kind") == "workflow_instance":
            instance_id = msg.payload["instance_id"]
            instance = self.state.instances.get(instance_id)
            if instance is not None:
                instance.state = WorkflowState.ACTIVE
            self.send(conn, MsgType.REGISTER_ACK, {"instance_id": instance_id})
        elif (
            msg.msg_type is MsgType.CLIENT_REQUEST
            and msg.payload.get("command") == "adjust"
        ):
            observed = float(msg.payload["observed_load"])
            actions = adjust_workflows(self.state, observed)
            for action in actions:
                if action.kind == "commission":
                    self._commission()
                elif action.instance_id is not None:
                    self._decommission(action.instance_id)
            self.send(
                conn,
                MsgType.CLIENT_REPLY,
                {
                    "command": "adjust",
                    "request_id": msg.payload.get("request_id"),
                    "actions": [
                        {"kind": a.kind, "zone": a.zone, "instance_id": a.instance_id}
                        for a in actions
                    ],
                },
            )

    def heartbeat_payload(self) -> dict:
        return {
            "workflow": self.workflow_id,
            "active_instances": len(self.state.active_instances()),
        }


class HostEntity(Entity):
    role = NodeRole.HOST_NODE

    def __init__(self, cfg: EntityConfig) -> None:
        super().__init__(cfg)
        self.instances: Dict[str, WorkflowState] = {}
        self.served: Counter = Counter()
        self._instance_names: Dict[str, str] = {}

    def on_started(self) -> None:
        self.register_name(
            f"host/z{self.cfg.zone}/s{self.cfg.site}/h{self.cfg.index}", self.addr
        )
        if self.cfg.lc_addr is not None:
            conn = self.connect(self.cfg.lc_addr)
            self.send(
                conn,
                MsgType.REGISTER,
                {"name": self.name, "site": self.cfg.site, "zone": self.cfg.zone},
            )

    def handle(self, conn: Connection, msg: Message) -> None:
        if msg.msg_type is MsgType.COMMISSION_WORKFLOW:
            instance_id = msg.payload["instance_id"]
            workflow_id = msg.payload["workflow_id"]
            self.instances[instance_id] = WorkflowState.ACTIVE
            name = f"workflow/{workflow_id}/{instance_id}"
            self._instance_names[instance_id] = name
            self.register_name(name, self.addr)
            self.send(
                conn,
                MsgType.REGISTER,
                {"kind": "workflow_instance", "instance_id": instance_id},
            )
        elif msg.msg_type is MsgType.DECOMMISSION_WORKFLOW:
            instance_id = msg.payload["instance_id"]
            if instance_id in self.instances:
                self.instances[instance_id] = WorkflowState.DECOMMISSIONED
                name = self._instance_names.get(instance_id)
                if name:
                    self.register_name(name, None)
        elif msg.msg_type is MsgType.CLIENT_REQUEST:
            instance_id = msg.payload.get("instance_id", "")
            ok = self.instances.get(instance_id) is WorkflowState.ACTIVE
            if ok:
                self.served[instance_id] += 1
            self.send(
                conn,
                MsgType.CLIENT_REPLY,
                {
                    "req_id": msg.payload.get("req_id"),
                    "instance_id": instance_id,
                    "ok": ok,
                    "error": None if ok else "instance_not_active",
                },
            )

    def heartbeat_payload(self) -> dict:
        return {
            "instances": {iid: state.value for iid, state in self.instances.items()},
            "served": sum(self.served.values()),
        }


def _quantiles(rtts: List[float]) -> Dict[str, float]:
    if not rtts:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    ordered = sorted(rtts)
    def q(p: float) -> float:
        idx = min(len(ordered) - 1, int(p * len(ordered)))
        return ordered[idx]
    return {"p50": q(0.50), "p90": q(0.90), "p99": q(0.99)}


class _LoadJob:
    """Paced request generation against active workflow instances."""

    def __init__(self, job_id: str, users: int, rate: float, duration: float) -> None:
        self.job_id = job_id
        self.users = users
        self.rate = rate
        self.duration = duration
        self.total = int(round(rate * duration)) if users > 0 else 0
        self.instances: List[Tuple[str, Addr]] = []
        self.phase = "lookup"
        self.lookup_tries = 0
        self.lookup_due = 0.0
        self.t0 = 0.0
        self.sent = 0
        self.answered = 0
        self.errors = 0
        self.rr = 0
        self.outstanding: Dict[str, float] = {}
        self.rtts: List[float] = []
        self.per_instance: Counter = Counter()
        self.error_reason: Optional[str] = None


class ClientEntity(Entity):
    role = NodeRole.CLIENT_HOST

    def __init__(self, cfg: EntityConfig) -> None:
        super().__init__(cfg)
        self._job: Optional[_LoadJob] = None

    def handle(self, conn: Connection, msg: Message) -> None:
        if (
            msg.msg_type is MsgType.CLIENT_REQUEST
            and msg.payload.get("command") == "generate_load"
        ):
            p = msg.payload
            self._job = _LoadJob(
                job_id=p["job_id"],
                users=int(p["users"]),
                rate=float(p["rate"]),
                duration=float(p["duration"]),
            )
        elif msg.msg_type is MsgType.NAME_ANSWER and msg.payload.get("prefix", "").startswith(
            "workflow/"
        ):
            job = self._job
            if job is not None and job.phase == "lookup_wait":
                matches = msg.payload["matches"]
                if matches:
                    job.instances = [
                        (name, (addr[0], int(addr[1]))) for name, addr in matches
                    ]
                    job.phase = "sending"
                    job.t0 = time.monotonic()
                else:
                    job.phase = "lookup"
        elif msg.msg_type is MsgType.CLIENT_REPLY and "req_id" in msg.payload:
            job = self._job
            if job is None:
                return
            req_id = msg.payload["req_id"]
            sent_at = job.outstanding.pop(req_id, None)
            if sent_at is None:
                return
            if msg.payload.get("ok"):
                job.answered += 1
                job.rtts.append(time.monotonic() - sent_at)
            else:
                job.errors += 1

    def role_tick(self, now: float) -> None:
        job = self._job
        if job is None:
            return
        if job.users == 0 or job.total == 0:
            self._finish_job(job)
            return
        if job.phase == "lookup":
            if job.lookup_tries >= 5:
                job.error_reason = "no_active_workflow"
                self._finish_job(job)
                return
            if now >= job.lookup_due and self.name_lookup("workflow/"):
                job.lookup_tries += 1
                job.lookup_due = now + 0.1
                job.phase = "lookup_wait"
        elif job.phase == "lookup_wait":
            if now >= job.lookup_due:
                job.phase = "lookup"
        elif job.phase == "sending":
            # a late tick sends every request that has come due meanwhile
            while job.sent < job.total and now >= job.t0 + job.sent / job.rate:
                self._send_request(job)
            if job.sent >= job.total:
                job.phase = "draining"
        elif job.phase == "draining":
            done = job.answered + job.errors >= job.sent
            if done or now > job.t0 + job.duration + _JOB_DRAIN_GRACE_S:
                self._finish_job(job)

    def _send_request(self, job: _LoadJob) -> None:
        inst_name, inst_addr = job.instances[job.rr % len(job.instances)]
        job.rr += 1
        req_id = f"{self.name}-r{job.sent}"
        conn = self.connect(inst_addr)
        self.send(
            conn,
            MsgType.CLIENT_REQUEST,
            {
                "req_id": req_id,
                "instance_id": inst_name.rsplit("/", 1)[-1],
                "user": self.rng.randrange(job.users) if job.users else 0,
            },
        )
        job.outstanding[req_id] = time.monotonic()
        job.per_instance[inst_name] += 1
        job.sent += 1

    def _finish_job(self, job: _LoadJob) -> None:
        self._job = None
        payload: dict = {"command": "generate_load", "job_id": job.job_id}
        if job.error_reason:
            payload["error"] = job.error_reason
        else:
            report = LoadReport(
                users=job.users,
                rate_rps=job.rate,
                duration_s=job.duration,
                sent=job.sent,
                answered=job.answered,
                errors=job.errors,
                latency_quantiles_s=_quantiles(job.rtts),
                per_instance=dict(job.per_instance),
                scale_factor=self.cfg.scale_factor,
            )
            payload["report"] = asdict(report)
        if self._mgr is not None:
            self.send(self._mgr, MsgType.CLIENT_REPLY, payload)

    def heartbeat_payload(self) -> dict:
        job = self._job
        return {"job_active": job is not None, "sent": job.sent if job else 0}


ENTITY_CLASSES = {
    NodeRole.GLOBAL_CONTROLLER: GlobalControllerEntity,
    NodeRole.NAME_SERVER: NameServerEntity,
    NodeRole.LOCAL_CONTROLLER: LocalControllerEntity,
    NodeRole.WORKFLOW_MANAGER: WorkflowManagerEntity,
    NodeRole.HOST_NODE: HostEntity,
    NodeRole.CLIENT_HOST: ClientEntity,
}


def build_entity(cfg: EntityConfig) -> Entity:
    try:
        cls = ENTITY_CLASSES[cfg.role]
    except KeyError:
        raise ValueError(f"no entity class for role {cfg.role}") from None
    return cls(cfg)


def main() -> int:
    """Process-mode entry point: configuration comes from the environment."""
    name = os.environ.get("HOST_NAME", "entity")
    try:
        build_entity(EntityConfig.from_env(dict(os.environ))).run()
    except Exception as exc:  # noqa: BLE001 - report and die visibly
        print(f"{name}: fatal: {exc}", file=sys.stderr)
        return 1
    return 0
