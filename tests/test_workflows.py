"""Load-driven workflow scaling decisions."""

from __future__ import annotations

import json
from dataclasses import asdict

from planeprof.testbed.workflows import (
    LoadReport,
    WorkflowInstance,
    WorkflowManagerState,
    WorkflowState,
    adjust_workflows,
)


def wm_with(active: int, decommissioned: int = 0) -> WorkflowManagerState:
    wm = WorkflowManagerState(zone=1, load_high=100.0, load_low=10.0)
    for i in range(active):
        wm.instances[f"i{i}"] = WorkflowInstance(
            id=f"i{i}", zone=1, state=WorkflowState.ACTIVE
        )
    for i in range(decommissioned):
        wm.instances[f"d{i}"] = WorkflowInstance(
            id=f"d{i}", zone=1, state=WorkflowState.DECOMMISSIONED
        )
    return wm


class TestAdjustWorkflows:
    def test_overload_commissions_one(self):
        actions = adjust_workflows(wm_with(active=1), observed_load=120.0)
        assert len(actions) == 1
        assert actions[0].kind == "commission"
        assert actions[0].zone == 1

    def test_hysteresis_band_no_action(self):
        assert adjust_workflows(wm_with(active=2), observed_load=55.0) == []

    def test_exactly_at_thresholds_no_action(self):
        wm = wm_with(active=2)
        assert adjust_workflows(wm, observed_load=100.0) == []
        assert adjust_workflows(wm, observed_load=10.0) == []

    def test_minimum_capacity_floor(self):
        assert adjust_workflows(wm_with(active=1), observed_load=5.0) == []

    def test_underload_decommissions_one(self):
        actions = adjust_workflows(wm_with(active=3), observed_load=5.0)
        assert len(actions) == 1
        assert actions[0].kind == "decommission"
        assert actions[0].instance_id == "i2"  # deterministic victim

    def test_decommissioned_instances_do_not_count(self):
        wm = wm_with(active=1, decommissioned=2)
        assert adjust_workflows(wm, observed_load=5.0) == []

    def test_at_most_one_action(self):
        assert len(adjust_workflows(wm_with(active=1), observed_load=100000.0)) == 1


class TestLoadReport:
    def test_payload_roundtrip(self):
        report = LoadReport(
            users=100,
            rate_rps=50.0,
            duration_s=10.0,
            sent=500,
            answered=500,
            errors=0,
            latency_quantiles_s={"p50": 0.001, "p90": 0.002, "p99": 0.01},
            per_instance={"workflow/wf/i0": 250, "workflow/wf/i1": 250},
            scale_factor=0.01,
        )
        assert LoadReport(**json.loads(json.dumps(asdict(report)))) == report
