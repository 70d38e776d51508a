"""Run-directory plumbing: a dump index and a one-screen run summary."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from planeprof.instrument.dumpio import read_dump_info

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


def render_summary(run_dir: Path | str) -> str:
    """Human-readable overview of a run directory's dumps and timeline."""
    run_dir = Path(run_dir)
    dumps_dir = run_dir / "dumps"
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
    if dumps_dir.exists():
        lines.append("")
        lines.append("dumps:")
        for path in sorted(dumps_dir.glob("*.dump")):
            info = read_dump_info(path)
            run_id = info.meta.run_id
            role_counts[info.meta.role] = role_counts.get(info.meta.role, 0) + 1
            total_events += info.events
            coarse = info.coarse
            coarse_txt = (
                f"elapsed={coarse.elapsed_s:.3f}s user={coarse.user_s:.3f}s "
                f"system={coarse.system_s:.3f}s"
                if coarse
                else "no coarse record"
            )
            lines.append(
                f"  {info.meta.entity:<20} {info.meta.role:<18} "
                f"events={info.events:<7} {coarse_txt}"
            )
    lines.append("")
    lines.append(f"run_id: {run_id}")
    lines.append(f"entities by role: " + ", ".join(f"{r}={n}" for r, n in sorted(role_counts.items())))
    lines.append(f"total events: {total_events}")
    return "\n".join(lines) + "\n"
