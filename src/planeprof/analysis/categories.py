"""Classify profile time into actionable categories.

Every attributed nanosecond (a site's exclusive time) maps to exactly one
category. Explicit instrumentation tags win over site-name pattern rules,
which win over the Other fallback, so nothing is counted twice and nothing
is guessed when the recorder already knew.
"""

from __future__ import annotations

from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from planeprof.instrument.events import (
    TAG_HEARTBEAT,
    TAG_POLL,
    TAG_SLEEP,
    TAG_SPAWN,
    CodeSite,
)
from planeprof.model.stats import FunctionProfile, FunctionStats
from planeprof.structs import Struct


class TimeCategory(str, Enum):
    USER_COMPUTE = "user_compute"
    KERNEL = "kernel"
    IO_WAIT_POLL = "io_wait_poll"
    SLEEP = "sleep"
    HEARTBEAT = "heartbeat"
    VM_LIFECYCLE = "vm_lifecycle"
    OTHER = "other"


_TAG_CATEGORY = {
    TAG_SLEEP: TimeCategory.SLEEP,
    TAG_POLL: TimeCategory.IO_WAIT_POLL,
    TAG_HEARTBEAT: TimeCategory.HEARTBEAT,
    TAG_SPAWN: TimeCategory.VM_LIFECYCLE,
}


class CategoryRules(NamedTuple):
    """Ordered (substring pattern, category) pairs matched against symbols."""

    patterns: Tuple[Tuple[str, TimeCategory], ...]

    def match(self, site: CodeSite) -> Optional[TimeCategory]:
        for pattern, category in self.patterns:
            if pattern in site.symbol:
                return category
        return None


class RulesError(Exception):
    """A rules file line is not ``pattern = category``."""


def load_rules(path: Path | str) -> CategoryRules:
    """Read a rules file: one ``pattern = category`` per line."""
    patterns: List[Tuple[str, TimeCategory]] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pattern, sep, category = line.partition("=")
        try:
            if not sep:
                raise ValueError("expected 'pattern = category'")
            patterns.append((pattern.strip(), TimeCategory(category.strip())))
        except ValueError as exc:
            raise RulesError(f"{path}:{lineno}: {exc}") from None
    return CategoryRules(patterns=tuple(patterns))


def default_rules() -> CategoryRules:
    """Rules shipped with the package, matching the testbed's site names."""
    with resources.as_file(
        resources.files("planeprof.analysis").joinpath("default.rules")
    ) as path:
        return load_rules(path)


class CategoryBreakdown(Struct):
    """Time per category plus the rows that put it there."""

    __slots__ = ("total_ns", "by_category_ns", "rows")

    def __init__(
        self,
        total_ns: int,
        by_category_ns: Optional[Dict[TimeCategory, int]] = None,
        rows: Optional[Dict[TimeCategory, List[FunctionStats]]] = None,
    ) -> None:
        self.total_ns = total_ns
        self.by_category_ns = {} if by_category_ns is None else by_category_ns
        self.rows = {} if rows is None else rows

    def shares(self) -> Dict[TimeCategory, float]:
        if self.total_ns == 0:
            return {cat: 0.0 for cat in self.by_category_ns}
        return {
            cat: 100.0 * ns / self.total_ns for cat, ns in self.by_category_ns.items()
        }

    def dominant_site(self, category: TimeCategory) -> Optional[FunctionStats]:
        rows = self.rows.get(category)
        if not rows:
            return None
        return max(rows, key=lambda r: (r.tottime_ns, r.site.label()))


def categorize_site(stats: FunctionStats, rules: CategoryRules) -> TimeCategory:
    if stats.tag is not None and stats.tag in _TAG_CATEGORY:
        return _TAG_CATEGORY[stats.tag]
    matched = rules.match(stats.site)
    return matched if matched is not None else TimeCategory.OTHER


def classify(
    profile: FunctionProfile, rules: Optional[CategoryRules] = None
) -> CategoryBreakdown:
    """Assign each site's exclusive time to one category."""
    if rules is None:
        rules = default_rules()
    breakdown = CategoryBreakdown(total_ns=profile.total_time_ns)
    for stats in profile.rows.values():
        category = categorize_site(stats, rules)
        breakdown.by_category_ns[category] = (
            breakdown.by_category_ns.get(category, 0) + stats.tottime_ns
        )
        breakdown.rows.setdefault(category, []).append(stats)
    return breakdown
