"""Run-directory plumbing: a dump index and a one-screen run summary."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from planeprof.instrument.dumpio import DumpInfo, read_dump_info
from planeprof.instrument.recorder import ClockCalibration

INDEX_NAME = "index.txt"


def write_dump_index(directory: Path | str) -> Path:
    """Write ``index.txt`` listing every dump in a directory.

    One tab-separated line per dump: name, entity, role, run id, event
    count, violation count. Deterministic order (by file name) so the
    index is diffable.
    """
    directory = Path(directory)
    lines = ["# dump\tentity\trole\trun_id\tevents\tviolations"]
    for path in sorted(directory.glob("*.dump")):
        info = read_dump_info(path)
        lines.append(
            f"{path.name}\t{info.meta.entity}\t{info.meta.role}"
            f"\t{info.meta.run_id}\t{info.events}\t{info.violations}"
        )
    index = directory / INDEX_NAME
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return index


def _calibration_txt(cal: ClockCalibration) -> str:
    return (
        f"wall_cost_ns={cal.wall_cost_ns} cpu_cost_ns={cal.cpu_cost_ns} "
        f"cpu_refresh_wall_ns={cal.cpu_refresh_wall_ns} pair_overhead_ns={cal.pair_overhead_ns}"
    )


def render_summary(run_dir: Path | str) -> str:
    """Human-readable overview of a run directory's dumps and timeline.

    Each entity's ``self_cost`` estimates what profiling cost it: one
    calibrated enter/exit pair per two events, as a share of its elapsed
    time. The run's calibration is the orchestrator's; a dump that carries
    another one is named.
    """
    run_dir = Path(run_dir)
    dumps_dir = run_dir / "dumps"
    lines: List[str] = [f"Run summary: {run_dir.name}"]
    timeline = run_dir / "timeline.txt"
    if timeline.exists():
        lines.append("")
        lines.append("bootstrap timeline:")
        for raw in timeline.read_text(encoding="utf-8").splitlines():
            lines.append(f"  {raw}")
    infos: Dict[str, DumpInfo] = {}
    if dumps_dir.exists():
        infos = {path.name: read_dump_info(path) for path in sorted(dumps_dir.glob("*.dump"))}
    role_counts: Dict[str, int] = {}
    total_events = 0
    run_id = "-"
    if infos:
        lines.append("")
        lines.append("dumps:")
    for info in infos.values():
        run_id = info.meta.run_id
        role_counts[info.meta.role] = role_counts.get(info.meta.role, 0) + 1
        total_events += info.events
        coarse = info.coarse
        coarse_txt = "no coarse record"
        if coarse:
            coarse_txt = (
                f"elapsed={coarse.elapsed_s:.3f}s user={coarse.user_s:.3f}s "
                f"system={coarse.system_s:.3f}s"
            )
            if coarse.elapsed_s > 0:
                cost_ns = info.events / 2 * info.calibration.pair_overhead_ns
                coarse_txt += f" self_cost={cost_ns / (coarse.elapsed_s * 1e9):.2%}"
        lines.append(
            f"  {info.meta.entity:<20} {info.meta.role:<18} "
            f"events={info.events:<7} {coarse_txt}"
        )
    lines.append("")
    lines.append(f"run_id: {run_id}")
    lines.append(f"entities by role: " + ", ".join(f"{r}={n}" for r, n in sorted(role_counts.items())))
    lines.append(f"total events: {total_events}")
    if infos:
        run_cal = infos.get("orchestrator.dump", next(iter(infos.values()))).calibration
        lines.append(f"calibration: {_calibration_txt(run_cal)}")
        for name, info in infos.items():
            if info.calibration != run_cal:
                lines.append(f"  {name} differs: {_calibration_txt(info.calibration)}")
    return "\n".join(lines) + "\n"
