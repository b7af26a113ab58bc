"""Rendering of paper-style tables and shape checks.

``repro paper`` and ``repro sweep`` print through these helpers so that
the output lines up visually with the paper's Tables I-IV and carries
the published values side by side for shape comparison ("paper" columns
are for orientation only -- this substrate is a simulator, not the
authors' testbed; the claim is about shape, not absolute numbers).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.core.metrics import StatSummary


def _format_rate(rate: float) -> str:
    return f"{rate / 1e6:.2f} M/s"


def throughput_table(
    title: str,
    measured: Mapping[Tuple[str, int], float],
    paper: Optional[Mapping[Tuple[str, int], float]] = None,
    workers: Sequence[int] = (2, 4, 8),
) -> str:
    """Render a Table I / Table III style sustainable-throughput table.

    ``measured`` and ``paper`` map (engine, workers) to events/s.
    """
    engines = sorted({engine for engine, _ in measured})
    lines = [title]
    header = ["engine".ljust(8)]
    for w in workers:
        header.append(f"{w}-node".rjust(12))
        if paper is not None:
            header.append("paper".rjust(12))
    lines.append(" ".join(header))
    for engine in engines:
        row = [engine.ljust(8)]
        for w in workers:
            value = measured.get((engine, w))
            row.append(
                (_format_rate(value) if value is not None else "--").rjust(12)
            )
            if paper is not None:
                ref = paper.get((engine, w))
                row.append(
                    (_format_rate(ref) if ref is not None else "--").rjust(12)
                )
        lines.append(" ".join(row))
    return "\n".join(lines)


def latency_table(
    title: str,
    measured: Mapping[Tuple[str, int], StatSummary],
    paper: Optional[Mapping[Tuple[str, int], Tuple[float, ...]]] = None,
) -> str:
    """Render a Table II / Table IV style latency-statistics table.

    ``measured`` maps (row label, workers) to a :class:`StatSummary`;
    row labels are e.g. ``"flink"`` and ``"flink(90%)"``, each with one
    row per measured cluster size, smallest first.  ``paper``
    optionally maps the same keys to the published
    (avg, min, max, q90, q95, q99) tuples.
    """
    labels = sorted({label for label, _ in measured})
    workers = sorted({w for _, w in measured})
    lines = [title, "rows: avg min max (q90, q95, q99), seconds"]
    for label in labels:
        for w in workers:
            summary = measured.get((label, w))
            if summary is None:
                continue
            line = f"{label:<12} {w}-node  {summary.row()}"
            if paper is not None and (label, w) in paper:
                avg, mn, mx, q90, q95, q99 = paper[(label, w)]
                line += (
                    f"   | paper: {avg:.2g} {mn:.2g} {mx:.2g} "
                    f"({q90:.2g}, {q95:.2g}, {q99:.2g})"
                )
            lines.append(line)
    return "\n".join(lines)


def shape_check(
    description: str, condition: bool, detail: str = ""
) -> Tuple[bool, str]:
    """Format a qualitative shape assertion (who wins, crossovers)."""
    status = "OK " if condition else "MISS"
    line = f"[{status}] {description}"
    if detail:
        line += f" -- {detail}"
    return condition, line
