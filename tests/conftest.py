from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# pytest puts src/ on sys.path (pyproject's `pythonpath`); child interpreters
# the tests start (process-mode entities, import probes) need it too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

from planeprof.instrument.recorder import ClockCalibration, Recorder, calibrate_clocks
from planeprof.testbed.config import ScenarioConfig


@pytest.fixture(scope="session")
def calibration() -> ClockCalibration:
    return calibrate_clocks()


@pytest.fixture
def recorder(calibration) -> Recorder:
    return Recorder(enabled=True, calibration=calibration)


def fast_scenario(**overrides) -> ScenarioConfig:
    """A threaded, zero-sleep scenario tuned for test speed."""
    defaults = dict(
        scenario_id="test",
        zones=1,
        sites_per_zone=1,
        hosts_per_site=1,
        workflows_per_zone=1,
        client_users=10,
        run_duration_s=1.0,
        poll_timeout_ms=5.0,
        post_start_sleep_s={},
        heartbeat_interval_s=0.2,
        heartbeat_miss_limit=3,
        client_request_rate=30.0,
        bootstrap_deadline_s=15.0,
        entity_mode="thread",
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)
