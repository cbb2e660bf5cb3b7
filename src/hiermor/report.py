"""Sweep reporting: summary statistics and the query-time scatter plot.

The SVG is written by hand so the file is fully self-contained (inline
styles, no fonts or external references): one circle per query, x = query
index, y = wall time on a log scale, colored by the model tier that
answered.
"""

from __future__ import annotations

import math

import numpy as np

from .hierarchy import QueryRecord, _fmt

__all__ = ["summary_text", "timing_scatter_svg", "BRANCH_COLORS"]

BRANCH_COLORS = {"FOM": "#d62728", "RB": "#1f77b4", "ML": "#2ca02c"}
BRANCHES = ("FOM", "RB", "ML")
# Size of the scatter plot in SVG user units (pixels).
WIDTH, HEIGHT = 860, 420


def summary_text(records: list[QueryRecord]) -> str:
    """Per-branch counts and timings, final state sizes, the number of ML
    answers that carry no certificate (`size_threshold` trust), the largest
    certificate of an ML answer (RB and FOM rows carry a rejected one) and the
    smallest `delta_rb` of a FOM row, the floor the bound reached on the
    basis it ran on.

    All statistics are recomputable from the query-log CSV: the 17-digit
    float format used there round-trips exactly.
    """
    lines = [f"queries: {len(records)}"]
    for branch in BRANCHES:
        times = [r.wall_time for r in records if r.model_used == branch]
        lines.append(f"{branch} count: {len(times)}")
        if times:
            lines.append(f"{branch} median_time: {_fmt(float(np.median(times)))}")
            lines.append(f"{branch} mean_time: {_fmt(float(np.mean(times)))}")
    if records:
        lines.append(f"final rb_dim: {records[-1].rb_dim_after}")
        lines.append(f"final train_size: {records[-1].train_size_after}")
    uncertified = sum(r.model_used == "ML" and r.ml_certificate is None for r in records)
    lines.append(f"ML uncertified count: {uncertified}")
    certs = [r.ml_certificate for r in records
             if r.model_used == "ML" and r.ml_certificate is not None]
    lines.append(f"max_certificate: {_fmt(max(certs)) if certs else 'n/a'}")
    fom_deltas = [r.delta_rb for r in records if r.model_used == "FOM" and r.delta_rb is not None]
    lines.append(f"FOM min_delta_rb: {_fmt(min(fom_deltas)) if fom_deltas else 'n/a'}")
    return "\n".join(lines) + "\n"


def _text(x, y, size, body, attrs=""):
    """A sans-serif text element; `attrs` is markup placed after its position."""
    pad = attrs and " " + attrs
    return f'<text x="{x}" y="{y}"{pad} font-family="sans-serif" font-size="{size}">{body}</text>'


def _line(x1, y1, x2, y2, color):
    """A line element stroked in `color`."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}"/>'


def timing_scatter_svg(records: list[QueryRecord]) -> str:
    """Figure-style scatter of per-query wall time, log scale, one dot per query."""
    margin = {"left": 70, "right": 150, "top": 30, "bottom": 50}
    plot_w = WIDTH - margin["left"] - margin["right"]
    plot_h = HEIGHT - margin["top"] - margin["bottom"]

    times = [max(r.wall_time, 1e-9) for r in records]
    logs = [math.log10(t) for t in times] or [0.0]
    lo = math.floor(min(logs))
    hi = math.ceil(max(logs))
    if hi == lo:
        hi = lo + 1
    n = max(len(records), 1)

    def x_of(index: int) -> float:
        return margin["left"] + plot_w * (index - 0.5) / n

    def y_of(logt: float) -> float:
        return margin["top"] + plot_h * (hi - logt) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(margin["left"], 18, 14, "query time per model tier"),
    ]
    axis_color = "#555555"
    x0, y0 = margin["left"], margin["top"] + plot_h
    parts.append(_line(x0, y0, x0 + plot_w, y0, axis_color))
    parts.append(_line(x0, margin["top"], x0, y0, axis_color))
    for decade in range(lo, hi + 1):
        y = y_of(decade)
        parts.append(_line(x0 - 4, f"{y:.2f}", x0 + plot_w, f"{y:.2f}", "#dddddd"))
        parts.append(_text(x0 - 8, f"{y + 4:.2f}", 11, f"1e{decade}", 'text-anchor="end"'))
    ticks = sorted({1, n // 2 or 1, n})
    for tick in ticks:
        x = x_of(tick)
        parts.append(_text(f"{x:.2f}", y0 + 18, 11, tick, 'text-anchor="middle"'))
    parts.append(_text(f"{x0 + plot_w / 2:.2f}", HEIGHT - 12, 12, "query index",
                       'text-anchor="middle"'))
    mid = f"{margin['top'] + plot_h / 2:.2f}"
    parts.append(_text(16, mid, 12, "wall time [s]",
                       f'text-anchor="middle" transform="rotate(-90 16 {mid})"'))

    for rec, logt in zip(records, logs):
        parts.append(
            f'<circle cx="{x_of(rec.index):.2f}" cy="{y_of(logt):.2f}" r="3" '
            f'fill="{BRANCH_COLORS[rec.model_used]}" fill-opacity="0.8"/>'
        )

    lx = WIDTH - margin["right"] + 16
    for i, branch in enumerate(BRANCHES):
        ly = margin["top"] + 16 + 20 * i
        parts.append(f'<circle cx="{lx}" cy="{ly}" r="5" fill="{BRANCH_COLORS[branch]}"/>')
        parts.append(_text(lx + 12, ly + 4, 12, branch))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
