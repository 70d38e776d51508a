"""Ranked optimization candidates and before/after comparison.

A finding names the category, its share of run time, the dominant site
and a remediation keyed to the classic control-plane time sinks: socket
polling, fixed sleeps, heartbeat traffic and resource lifecycle churn.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from planeprof.analysis.categories import CategoryRules, TimeCategory, classify
from planeprof.instrument.events import CodeSite
from planeprof.model.stats import NS_PER_S, FunctionProfile, FunctionStats
from planeprof.structs import Checked, Struct


class ScenarioMismatch(Exception):
    """Profiles from different scenarios or scales cannot be compared."""


RECOMMENDATIONS: Dict[TimeCategory, str] = {
    TimeCategory.IO_WAIT_POLL: (
        "Cut socket polling pressure: raise the poll timeout, batch readiness "
        "checks, or move the loop to blocking waits with explicit wakeups."
    ),
    TimeCategory.SLEEP: (
        "Replace fixed sleeps with readiness signals; tune any sleep that must "
        "stay to the measured startup time instead of a guessed constant."
    ),
    TimeCategory.HEARTBEAT: (
        "Make liveness cheaper: lower the heartbeat rate, piggyback liveness on "
        "existing traffic, or batch beats per site."
    ),
    TimeCategory.VM_LIFECYCLE: (
        "Amortize resource lifecycle cost: pool or pre-provision instances "
        "instead of creating, starting and destroying them per run."
    ),
    TimeCategory.KERNEL: (
        "Inspect syscall-heavy paths; consider batching system calls or larger "
        "I/O units."
    ),
    TimeCategory.USER_COMPUTE: (
        "Profile the dominant sites at statement level to find the expensive "
        "inner statements."
    ),
    TimeCategory.OTHER: (
        "Unclassified time; extend the category rules or add instrumentation "
        "tags to attribute it."
    ),
}


class _FindingFields(NamedTuple):
    category: TimeCategory
    site: Optional[CodeSite]
    share_pct: float
    evidence: Tuple[FunctionStats, ...]
    recommendation: str


class HotspotFinding(Checked, _FindingFields):
    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 < self.share_pct <= 100.0:
            raise ValueError("share_pct must lie in (0, 100]")


def find_hotspots(
    profile: FunctionProfile,
    min_share_pct: float = 0.0,
    rules: Optional[CategoryRules] = None,
) -> List[HotspotFinding]:
    """Findings for categories whose dominant site clears the threshold.

    The threshold gates on the dominant site's own share of run time, so
    a crowd of uniformly tiny sites never produces a finding; the finding
    itself reports the whole category's share. Ordering is deterministic:
    share descending, then site label.
    """
    breakdown = classify(profile, rules)
    shares = breakdown.shares()
    total = breakdown.total_ns
    findings: List[HotspotFinding] = []
    for category, share in shares.items():
        if share <= 0.0 or total == 0:
            continue
        dominant = breakdown.dominant_site(category)
        dominant_share = (
            100.0 * dominant.tottime_ns / total if dominant is not None else 0.0
        )
        if dominant_share < min_share_pct:
            continue
        evidence = tuple(
            sorted(
                breakdown.rows.get(category, ()),
                key=lambda r: (-r.tottime_ns, r.site.label()),
            )
        )
        findings.append(
            HotspotFinding(
                category=category,
                site=dominant.site if dominant else None,
                share_pct=share,
                evidence=evidence,
                recommendation=RECOMMENDATIONS[category],
            )
        )
    findings.sort(key=lambda f: (-f.share_pct, f.site.label() if f.site else ""))
    return findings


class CategoryDelta(NamedTuple):
    category: TimeCategory
    before_ns: int
    after_ns: int

    @property
    def delta_ns(self) -> int:
        return self.after_ns - self.before_ns

    @property
    def delta_s(self) -> float:
        return self.delta_ns / NS_PER_S

    @property
    def delta_pct(self) -> Optional[float]:
        if self.before_ns == 0:
            return None
        return 100.0 * self.delta_ns / self.before_ns


class SiteDelta(NamedTuple):
    site: CodeSite
    ncalls_before: int
    ncalls_after: int
    tottime_before_ns: int
    tottime_after_ns: int

    @property
    def tottime_delta_ns(self) -> int:
        return self.tottime_after_ns - self.tottime_before_ns

    @property
    def ncalls_delta(self) -> int:
        return self.ncalls_after - self.ncalls_before


class CompareReport(Struct):
    __slots__ = ("scenario", "categories", "sites", "regressions")

    def __init__(
        self,
        scenario: str,
        categories: List[CategoryDelta],
        sites: List[SiteDelta],
        regressions: List[CategoryDelta],
    ) -> None:
        self.scenario = scenario
        self.categories = categories
        self.sites = sites
        self.regressions = regressions


def compare(
    before: FunctionProfile,
    after: FunctionProfile,
    rules: Optional[CategoryRules] = None,
    regression_epsilon_s: float = 0.05,
) -> CompareReport:
    """Absolute and relative deltas per category and per site.

    A category counts as a regression when it grows by more than the
    epsilon (seconds).
    """
    if before.scenario != after.scenario:
        raise ScenarioMismatch(
            f"scenario {after.scenario!r} != {before.scenario!r}"
        )
    if before.scale_factor != after.scale_factor:
        raise ScenarioMismatch(
            f"scale factor {after.scale_factor!r} != {before.scale_factor!r}"
        )
    b = classify(before, rules)
    a = classify(after, rules)
    categories: List[CategoryDelta] = []
    for category in TimeCategory:
        before_ns = b.by_category_ns.get(category, 0)
        after_ns = a.by_category_ns.get(category, 0)
        if before_ns == 0 and after_ns == 0:
            continue
        categories.append(CategoryDelta(category, before_ns, after_ns))
    epsilon_ns = int(regression_epsilon_s * NS_PER_S)
    regressions = [d for d in categories if d.delta_ns > epsilon_ns]
    sites: List[SiteDelta] = []
    for site in sorted(
        set(before.rows) | set(after.rows), key=lambda s: s.label()
    ):
        rb, ra = before.rows.get(site), after.rows.get(site)
        sites.append(
            SiteDelta(
                site=site,
                ncalls_before=rb.ncalls_total if rb else 0,
                ncalls_after=ra.ncalls_total if ra else 0,
                tottime_before_ns=rb.tottime_ns if rb else 0,
                tottime_after_ns=ra.tottime_ns if ra else 0,
            )
        )
    return CompareReport(
        scenario=before.scenario,
        categories=categories,
        sites=sites,
        regressions=regressions,
    )
