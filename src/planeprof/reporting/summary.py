"""Run-directory plumbing: a dump index and a one-screen run summary."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from planeprof.instrument.dumpio import DumpInfo, read_dump_info
from planeprof.instrument.events import ClockCalibration

INDEX_NAME = "index.txt"


def read_dump_infos(directory: Path | str) -> Dict[str, DumpInfo]:
    """Every ``*.dump`` in a directory: its :class:`DumpInfo` by file
    name, in file-name order. A missing directory holds none."""
    return {path.name: read_dump_info(path) for path in sorted(Path(directory).glob("*.dump"))}


def write_dump_index(
    directory: Path | str, infos: Optional[Dict[str, DumpInfo]] = None
) -> Path:
    """Write ``index.txt`` listing every dump in a directory.

    One tab-separated line per dump: name, entity, role, run id, event
    count, violation count. Deterministic order (by file name) so the
    index is diffable. ``infos`` is the directory's
    :func:`read_dump_infos`, when the caller has read it already.
    """
    directory = Path(directory)
    if infos is None:
        infos = read_dump_infos(directory)
    lines = ["# dump\tentity\trole\trun_id\tevents\tviolations"]
    for name, info in infos.items():
        lines.append(
            f"{name}\t{info.meta.entity}\t{info.meta.role}"
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


def render_summary(run_dir: Path | str, infos: Optional[Dict[str, DumpInfo]] = None) -> str:
    """Human-readable overview of a run directory's dumps and timeline.

    Each entity's ``self_cost_of_cpu`` estimates what profiling cost it:
    one calibrated enter/exit pair per two events, as a share of the CPU
    time (user + system) of its coarse record. The run's calibration is
    the orchestrator's; a dump that carries another one is named.
    ``infos`` is the :func:`read_dump_infos` of ``<run_dir>/dumps``, when
    the caller has read it already.
    """
    run_dir = Path(run_dir)
    if infos is None:
        infos = read_dump_infos(run_dir / "dumps")
    lines: List[str] = [f"Run summary: {run_dir.name}"]
    timeline = run_dir / "timeline.txt"
    if timeline.exists():
        lines.append("")
        lines.append("bootstrap timeline:")
        for raw in timeline.read_text(encoding="utf-8").splitlines():
            lines.append(f"  {raw}")
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
            cpu_s = coarse.user_s + coarse.system_s
            if cpu_s > 0:
                cost_ns = info.events / 2 * info.calibration.pair_overhead_ns
                coarse_txt += f" self_cost_of_cpu={cost_ns / (cpu_s * 1e9):.2%}"
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
