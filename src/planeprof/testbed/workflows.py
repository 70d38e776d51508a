"""Workflow instances and the load-driven commission/decommission rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class WorkflowState(str, Enum):
    COMMISSIONED = "commissioned"
    ACTIVE = "active"
    DECOMMISSIONED = "decommissioned"


@dataclass
class WorkflowInstance:
    id: str
    zone: int
    state: WorkflowState = WorkflowState.COMMISSIONED
    current_load: float = 0.0  # requests per second
    host: Optional[str] = None


@dataclass(frozen=True)
class WorkflowAction:
    kind: str  # "commission" | "decommission"
    zone: int
    instance_id: Optional[str] = None


@dataclass
class WorkflowManagerState:
    """What a workflow manager knows: its zone, thresholds, instances."""

    zone: int
    load_high: float
    load_low: float
    instances: Dict[str, WorkflowInstance] = field(default_factory=dict)

    def active_instances(self) -> List[WorkflowInstance]:
        return [i for i in self.instances.values() if i.state is WorkflowState.ACTIVE]


def adjust_workflows(wm: WorkflowManagerState, observed_load: float) -> List[WorkflowAction]:
    """Scaling decision for one observation of per-instance load.

    Above the high threshold: commission one instance. Below the low
    threshold with more than one active instance: decommission one (never
    the last). Inside the hysteresis band: do nothing. At most one action
    per observation keeps scaling damped.
    """
    active = wm.active_instances()
    if observed_load > wm.load_high:
        return [WorkflowAction(kind="commission", zone=wm.zone)]
    if observed_load < wm.load_low and len(active) > 1:
        victim = sorted(active, key=lambda i: i.id)[-1]
        return [WorkflowAction(kind="decommission", zone=wm.zone, instance_id=victim.id)]
    return []


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one client load run."""

    users: int
    rate_rps: float
    duration_s: float
    sent: int
    answered: int
    errors: int
    latency_quantiles_s: Dict[str, float]
    per_instance: Dict[str, int]
    scale_factor: float
