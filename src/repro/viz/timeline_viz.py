"""ASCII Gantt rendering of simulated execution timelines."""

from __future__ import annotations

from repro.sim.full_sim import Timeline
from repro.sim.taskgraph import TaskGraph, TaskKind

__all__ = ["render_timeline", "device_utilization_bars"]


def render_timeline(tg: TaskGraph, tl: Timeline, width: int = 78, max_devices: int = 16) -> str:
    """Per-device occupancy bars over the iteration ('#' busy, '.' idle)."""
    if tl.makespan <= 0:
        return "(empty timeline)"
    scale = width / tl.makespan
    rows: dict[int, list[str]] = {}
    arr = tg.arrays
    for tid in tg.tasks:
        if arr.kind[tid] == TaskKind.COMM:
            continue
        row = rows.setdefault(arr.dev[tid], ["."] * width)
        a = min(width - 1, int(tl.start[tid] * scale))
        b = min(width, max(a + 1, int(tl.end[tid] * scale)))
        for i in range(a, b):
            row[i] = "#"
    lines = [f"timeline: {tl.makespan / 1e3:.2f} ms total, '#'=busy"]
    for dev in sorted(rows)[:max_devices]:
        lines.append(f"gpu{dev:<3} |{''.join(rows[dev])}|")
    if len(rows) > max_devices:
        lines.append(f"... ({len(rows) - max_devices} more devices)")
    return "\n".join(lines)


def device_utilization_bars(tg: TaskGraph, tl: Timeline, width: int = 40) -> str:
    """Per-device busy fraction as a bar chart."""
    busy: dict[int, float] = {}
    arr = tg.arrays
    for tid in tg.tasks:
        if arr.kind[tid] != TaskKind.COMM:
            d = arr.dev[tid]
            busy[d] = busy.get(d, 0.0) + arr.exe[tid]
    if tl.makespan <= 0:
        return "(empty timeline)"
    lines = []
    for dev in sorted(busy):
        frac = min(1.0, busy[dev] / tl.makespan)
        bar = "#" * int(frac * width)
        lines.append(f"gpu{dev:<3} {frac * 100:5.1f}% |{bar:<{width}}|")
    return "\n".join(lines)
