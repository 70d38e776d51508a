"""Output checks: properties the profiler's outputs must have.

Each check either tests an invariant of the method (conservation, bracket
closure, merge additivity, lossless export round trips) or compares an
output with an expectation computed from the scenario file alone. The
scenario is parsed here, not through planeprof, so that a fault in the
program's own scenario loader cannot hide a wrong expectation.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

# ScenarioConfig defaults for the keys the expectations need.
_DEFAULTS = {
    "zones": "1",
    "sites_per_zone": "2",
    "hosts_per_site": "7",
    "workflows_per_zone": "1",
    "client_users": "100",
    "poll_timeout_ms": "1.0",
}

POLL_SYMBOL = "poll_wait"
POLL_CATEGORY = "io_wait_poll"
MIN_POLL_SHARE_PCT = 70.0
POLL_COUNT_TOLERANCE = 0.25


class CheckFailed(Exception):
    """An output does not have a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Scenario:
    """The `key = value` fields of a scenario file."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.fields: Dict[str, str] = dict(_DEFAULTS)
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                self.fields[key.strip()] = value.strip()

    def num(self, key: str) -> float:
        return float(self.fields[key])

    def expected_dumps(self) -> int:
        """Entities the topology implies, plus the orchestrator's own dump."""
        zones = int(self.num("zones"))
        sites = zones * int(self.num("sites_per_zone"))
        hosts = sites * int(self.num("hosts_per_site"))
        workflow_managers = zones * int(self.num("workflows_per_zone"))
        clients = 1 if self.num("client_users") > 0 else 0
        controller, name_server, orchestrator = 1, 1, 1
        return controller + name_server + sites + workflow_managers + hosts + clients + orchestrator


def read_index(run_dir: Path) -> Tuple[int, int]:
    """(events, violations) summed over ``dumps/index.txt``."""
    events = violations = 0
    for line in (run_dir / "dumps" / "index.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line:
            continue
        fields = line.split("\t")
        events += int(fields[4])
        violations += int(fields[5])
    return events, violations


def check_run(run_dir: Path, scenario: Scenario) -> None:
    """Dump count and the client load report of one `planeprof run`."""
    dumps = sorted((run_dir / "dumps").glob("*.dump"))
    _require(
        len(dumps) == scenario.expected_dumps(),
        f"{run_dir}: {len(dumps)} dumps, the topology implies {scenario.expected_dumps()}",
    )
    report = json.loads((run_dir / "load_report.json").read_text(encoding="utf-8"))
    expected = round(scenario.num("client_request_rate") * scenario.num("run_duration_s"))
    _require(
        report["sent"] == report["answered"] == expected and report["errors"] == 0,
        f"{run_dir}: load report sent={report['sent']} answered={report['answered']} "
        f"errors={report['errors']}, expected {expected} sent and answered and no errors",
    )


def _site_key(site: dict) -> Tuple[str, int, str, str]:
    return (site["file"], site["line"], site["symbol"], site["kind"])


def _export_rows(path: Path, kind: str) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    _require(doc.get("kind") == kind, f"{path}: export kind {doc.get('kind')!r}, not {kind!r}")
    return doc


def check_function_table(export: Path, run_dir: Path) -> None:
    """Conservation and bracket closure of a merged function table."""
    doc = _export_rows(export, "function_table")
    rows = doc["rows"]
    tottime = sum(r["tottime_ns"] for r in rows)
    span = doc["meta"]["wall_span_ns"]
    _require(tottime == span, f"{export}: sum of tottime_ns {tottime} != wall_span_ns {span}")
    events, violations = read_index(run_dir)
    calls = sum(r["ncalls_total"] for r in rows)
    if violations == 0:
        _require(
            2 * calls == events,
            f"{export}: 2 x {calls} calls != {events} events in dumps/index.txt",
        )


def poll_count_ratio(export: Path, scenario: Scenario) -> float:
    """`poll_wait` calls over the summed main-loop time / the poll period."""
    rows = _export_rows(export, "function_table")["rows"]
    polls = sum(r["ncalls_total"] for r in rows if r["site"]["symbol"] == POLL_SYMBOL)
    loop_ns = sum(r["cumtime_ns"] for r in rows if r["site"]["symbol"].endswith("_main"))
    return polls / (loop_ns / (scenario.num("poll_timeout_ms") * 1e6))


def check_poll_count(ratio: float, export: Path) -> None:
    """The poll loop runs once per poll period.

    Only where the host can wake every entity when its timeout expires:
    with 21 entity processes on two vCPUs a 1 ms wait lasts 1.2-1.4 ms,
    and the ratio drops to 0.71-0.80.
    """
    _require(
        abs(ratio - 1.0) <= POLL_COUNT_TOLERANCE,
        f"{export}: poll_wait calls are {ratio:.3f} x loop time / poll period",
    )


def check_findings(findings: Path) -> None:
    """The idle poll loop leads the hotspot findings."""
    rows = _export_rows(findings, "hotspot_report")["rows"]
    _require(bool(rows), f"{findings}: no findings")
    lead = rows[0]
    _require(
        lead["category"] == POLL_CATEGORY and lead["share_pct"] >= MIN_POLL_SHARE_PCT,
        f"{findings}: first finding is {lead['category']} at {lead['share_pct']:.2f}%, "
        f"expected {POLL_CATEGORY} at >= {MIN_POLL_SHARE_PCT}%",
    )


def check_identical(a: Path, b: Path) -> None:
    _require(a.read_bytes() == b.read_bytes(), f"{a} and {b} differ")


def check_csv_matches_export(csv_path: Path, export: Path) -> None:
    """The CSV and structured function tables hold the same rows."""
    with csv_path.open(newline="", encoding="utf-8") as f:
        from_csv = sorted(
            (r["file"], int(r["line"]), r["symbol"], r["kind"], r["tag"] or None,
             int(r["ncalls_total"]), int(r["ncalls_primitive"]),
             int(r["tottime_ns"]), int(r["cumtime_ns"]))
            for r in csv.DictReader(f)
        )
    from_json = sorted(
        (*_site_key(r["site"]), r["tag"], r["ncalls_total"], r["ncalls_primitive"],
         r["tottime_ns"], r["cumtime_ns"])
        for r in _export_rows(export, "function_table")["rows"]
    )
    _require(from_csv == from_json, f"{csv_path} and {export} hold different rows")


def check_self_compare(report: Path) -> None:
    """`compare` of a run against itself: every delta is zero.

    The text report lists only sites whose counts or times moved and only
    categories that grew as regressions, so neither section may appear.
    """
    text = report.read_text(encoding="utf-8")
    _require("regressions:" not in text, f"{report}: self-compare lists regressions")
    _require("site deltas" not in text, f"{report}: self-compare lists site deltas")
    lines = text.splitlines()
    header = lines.index("category         before_s   after_s   delta_s  delta%")
    categories = [line for line in lines[header + 1 :] if line.strip()]
    _require(bool(categories), f"{report}: no category rows")
    for line in categories:
        _, before, after, delta, _ = line.split()
        _require(
            before == after and float(delta) == 0.0,
            f"{report}: self-compare row {line!r} is not zero",
        )


def check_merge_additivity(function_export: Path, thread_exports: Iterable[Path]) -> None:
    """Per-entity thread rows summed over threads and entities equal the
    merged function table, site by site."""
    merged = {
        _site_key(r["site"]): (r["ncalls_total"], r["tottime_ns"], r["cumtime_ns"])
        for r in _export_rows(function_export, "function_table")["rows"]
    }
    summed: Dict[tuple, List[int]] = defaultdict(lambda: [0, 0, 0])
    for path in thread_exports:
        for r in _export_rows(path, "thread_table")["rows"]:
            acc = summed[_site_key(r["site"])]
            acc[0] += r["ncall"]
            acc[1] += r["tsub_ns"]
            acc[2] += r["ttot_ns"]
    _require(
        {k: tuple(v) for k, v in summed.items()} == merged,
        f"{function_export}: thread tables do not sum to the merged function table",
    )
