"""Scenario configuration: topology shape and timing knobs.

Scenario files are flat ``key = value`` text with ``#`` comments. Keys
mirror :class:`ScenarioConfig` fields; per-role startup sleeps use dotted
keys (``post_start_sleep.name_server = 5``). Reports carry a scale factor
relative to :data:`FULL_SCALE_USERS` simulated users so desk-scale numbers
are never mistaken for full-scale ones.

This module evaluates its annotations (no ``from __future__ import
annotations``): each scenario key's value parses with its field's type.
"""

from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Dict

# Reference user population a full deployment would simulate; desk-scale
# runs default to 100 users and record users / FULL_SCALE_USERS.
FULL_SCALE_USERS = 10_000


class NodeRole(str, Enum):
    GLOBAL_MANAGER = "global_manager"
    GLOBAL_CONTROLLER = "global_controller"
    WORKFLOW_MANAGER = "workflow_manager"
    LOCAL_CONTROLLER = "local_controller"
    NAME_SERVER = "name_server"
    HOST_NODE = "host_node"
    CLIENT_HOST = "client_host"


# Keys of the per-role sleep table. host_group covers all hosts of a
# phase together (the sleep happens once after the group is spawned).
SLEEP_ROLES = (
    "global_controller",
    "name_server",
    "local_controller",
    "workflow_manager",
    "host_group",
    "client_host",
)


class ScenarioError(Exception):
    """The scenario violates a config invariant or cannot be parsed."""


def _default_sleeps() -> Dict[str, float]:
    sleeps = {role: 0.0 for role in SLEEP_ROLES}
    sleeps["global_controller"] = 5.0
    sleeps["name_server"] = 5.0
    sleeps["host_group"] = 5.0
    return sleeps


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str = "default"
    zones: int = 1
    sites_per_zone: int = 2
    hosts_per_site: int = 7
    workflows_per_zone: int = 1
    client_users: int = 100
    run_duration_s: float = 10.0
    poll_timeout_ms: float = 1.0
    post_start_sleep_s: Dict[str, float] = field(default_factory=_default_sleeps)
    heartbeat_interval_s: float = 1.0
    heartbeat_miss_limit: int = 3
    workflow_load_high: float = 100.0
    workflow_load_low: float = 10.0
    client_request_rate: float = 20.0
    bootstrap_deadline_s: float = 20.0
    listen_port: int = 0
    entity_mode: str = "process"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("zones", "sites_per_zone"):
            if getattr(self, name) < 1:
                raise ScenarioError(f"{name} must be >= 1")
        # hosts and workflows may be zero for bootstrap-only topologies
        for name in ("hosts_per_site", "workflows_per_zone", "client_users"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be >= 0")
        if self.workflows_per_zone > 0 and self.hosts_per_site == 0:
            raise ScenarioError("workflows need at least one host per site to run on")
        if self.poll_timeout_ms <= 0:
            raise ScenarioError("poll_timeout_ms must be > 0")
        if self.heartbeat_miss_limit < 1:
            raise ScenarioError("heartbeat_miss_limit must be >= 1")
        if not self.workflow_load_low < self.workflow_load_high:
            raise ScenarioError("workflow_load_low must be < workflow_load_high")
        if self.run_duration_s < 0:
            raise ScenarioError("run_duration_s must be >= 0")
        for role, value in self.post_start_sleep_s.items():
            if role not in SLEEP_ROLES:
                raise ScenarioError(f"unknown post_start_sleep role {role!r}")
            if value < 0:
                raise ScenarioError("post_start_sleep values must be >= 0")
        # normalize sparse sleep tables: unlisted roles sleep 0
        full = {role: float(self.post_start_sleep_s.get(role, 0.0)) for role in SLEEP_ROLES}
        object.__setattr__(self, "post_start_sleep_s", full)
        if self.entity_mode not in ("process", "thread"):
            raise ScenarioError("entity_mode must be 'process' or 'thread'")

    @property
    def scale_factor(self) -> float:
        return self.client_users / FULL_SCALE_USERS

    def expected_counts(self) -> Dict[NodeRole, int]:
        """Entity counts this topology implies, per role."""
        return {
            NodeRole.GLOBAL_MANAGER: 1,
            NodeRole.GLOBAL_CONTROLLER: 1,
            NodeRole.NAME_SERVER: 1,
            NodeRole.LOCAL_CONTROLLER: self.zones * self.sites_per_zone,
            NodeRole.WORKFLOW_MANAGER: self.zones * self.workflows_per_zone,
            NodeRole.HOST_NODE: self.zones * self.sites_per_zone * self.hosts_per_site,
            NodeRole.CLIENT_HOST: 1 if self.client_users > 0 else 0,
        }


# the scenario file's keys, in file order, each with the type its value parses to
_KEYS = {f.name: f.type for f in fields(ScenarioConfig) if f.name != "post_start_sleep_s"}


def load_scenario(path: Path | str) -> ScenarioConfig:
    """Parse a scenario file; unknown keys are errors, missing keys default."""
    kwargs: Dict[str, object] = {}
    sleeps = _default_sleeps()
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key.startswith("post_start_sleep."):
            role = key.split(".", 1)[1]
            if role not in SLEEP_ROLES:
                raise ScenarioError(f"line {lineno}: unknown sleep role {role!r}")
            sleeps[role] = float(value)
        elif key in _KEYS:
            try:
                kwargs[key] = _KEYS[key](value)
            except ValueError as exc:
                raise ScenarioError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
    kwargs["post_start_sleep_s"] = sleeps
    return ScenarioConfig(**kwargs)


def write_scenario(config: ScenarioConfig, path: Path | str) -> Path:
    """Write a scenario file that :func:`load_scenario` reads back equal."""
    path = Path(path)
    lines = []
    for key in _KEYS:
        value = getattr(config, key)
        lines.append(f"{key} = {value}")
    for role in SLEEP_ROLES:
        lines.append(f"post_start_sleep.{role} = {config.post_start_sleep_s.get(role, 0.0)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
