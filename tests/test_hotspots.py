"""Hotspot findings and before/after comparison."""

from __future__ import annotations

import pytest

from helpers import MS, site
from planeprof.analysis.categories import TimeCategory
from planeprof.analysis.hotspots import (
    ScenarioMismatch,
    compare,
    find_hotspots,
)
from test_classify import make_profile


def idle_profile(total=77_621 * MS, poll=59_322 * MS, sleep=15_010 * MS):
    rest = total - poll - sleep
    return make_profile(
        ("poll_wait", poll, poll, "poll"),
        ("nap", sleep, sleep, "sleep"),
        ("driver", rest, total),
    )


class TestFindHotspots:
    def test_idle_profile_ranks_poll_then_sleep(self):
        findings = find_hotspots(idle_profile(), min_share_pct=10.0)
        assert [f.category for f in findings] == [
            TimeCategory.IO_WAIT_POLL,
            TimeCategory.SLEEP,
        ]
        assert findings[0].site.symbol == "poll_wait"
        assert findings[0].share_pct > findings[1].share_pct
        assert "poll" in findings[0].recommendation

    def test_uniform_tiny_sites_below_threshold(self):
        profile = make_profile(*[(f"busy_{i}", 10, 10) for i in range(20)])
        assert find_hotspots(profile, min_share_pct=10.0) == []

    def test_threshold_zero_covers_everything(self):
        findings = find_hotspots(idle_profile(), min_share_pct=0.0)
        assert sum(f.share_pct for f in findings) == pytest.approx(100.0, abs=0.01)

    def test_threshold_monotonicity(self):
        profile = idle_profile()
        previous = None
        for threshold in (0.0, 1.0, 5.0, 20.0, 50.0, 90.0):
            names = {f.category for f in find_hotspots(profile, threshold)}
            if previous is not None:
                assert names <= previous
            previous = names

    def test_every_finding_has_a_recommendation(self):
        for f in find_hotspots(idle_profile(), 0.0):
            assert f.recommendation
            assert 0.0 < f.share_pct <= 100.0

    def test_deterministic_ordering(self):
        profile = idle_profile()
        a = find_hotspots(profile, 0.0)
        b = find_hotspots(profile, 0.0)
        assert [(f.category, f.site) for f in a] == [(f.category, f.site) for f in b]


class TestCompare:
    def test_identical_inputs_give_zero_deltas(self):
        a = idle_profile()
        report = compare(a, a)
        assert all(d.delta_ns == 0 for d in report.categories)
        assert report.regressions == []
        assert all(s.tottime_delta_ns == 0 for s in report.sites)

    def test_sleep_reduction_shows_in_sleep_category(self):
        before = idle_profile(sleep=15_000 * MS)
        after = idle_profile(sleep=1_500 * MS)
        report = compare(before, after)
        sleep_delta = next(
            d for d in report.categories if d.category is TimeCategory.SLEEP
        )
        assert sleep_delta.delta_s == pytest.approx(-13.5, abs=0.01)
        assert sleep_delta not in report.regressions

    def test_invocation_drop_with_steady_wall_share(self):
        # raising the poll timeout 50x drops invocations ~50x while the
        # blocked wall time stays put
        def poll_profile(ncalls):
            profile = make_profile(("poll_wait", 9_000 * MS, 9_000 * MS, "poll"))
            s = site("poll_wait")
            row = profile.rows[s]
            profile.rows[s] = row._replace(ncalls_total=ncalls, ncalls_primitive=ncalls)
            return profile

        report = compare(poll_profile(10_000), poll_profile(200))
        poll_site = next(s for s in report.sites if s.site.symbol == "poll_wait")
        assert poll_site.ncalls_delta == -9_800
        poll_delta = next(
            d for d in report.categories if d.category is TimeCategory.IO_WAIT_POLL
        )
        assert poll_delta.delta_ns == 0

    def test_regression_flagging(self):
        before = idle_profile(sleep=1_000 * MS)
        after = idle_profile(sleep=2_000 * MS)
        report = compare(before, after, regression_epsilon_s=0.5)
        assert [d.category for d in report.regressions] == [TimeCategory.SLEEP]
        lenient = compare(before, after, regression_epsilon_s=2.0)
        assert lenient.regressions == []

    def test_scenario_mismatch(self):
        a = idle_profile()
        b = idle_profile()
        b.scenario = "different"
        with pytest.raises(ScenarioMismatch):
            compare(a, b)

    def test_scale_mismatch(self):
        a = idle_profile()
        b = idle_profile()
        b.scale_factor = 2.0
        with pytest.raises(ScenarioMismatch):
            compare(a, b)
