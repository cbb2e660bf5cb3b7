"""Sweep reporting: summary statistics and the query-time scatter plot.

The SVG is written by hand so the file is fully self-contained (inline
styles, no fonts or external references): one circle per query, x = query
index, y = wall time on a log scale, colored by the model tier that
answered.
"""

from __future__ import annotations

import math

import numpy as np

from .hierarchy import QueryRecord

__all__ = ["summary_text", "timing_scatter_svg", "BRANCH_COLORS"]

BRANCH_COLORS = {"FOM": "#d62728", "RB": "#1f77b4", "ML": "#2ca02c"}
BRANCHES = ("FOM", "RB", "ML")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def summary_text(records: list[QueryRecord]) -> str:
    """Per-branch counts and timings, final state sizes and the number of ML
    answers that carry no certificate (`size_threshold` trust).

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
    certs = [r.ml_certificate for r in records if r.ml_certificate is not None]
    lines.append(f"max_certificate: {_fmt(max(certs)) if certs else 'n/a'}")
    return "\n".join(lines) + "\n"


def timing_scatter_svg(records: list[QueryRecord], width: int = 860, height: int = 420) -> str:
    """Figure-style scatter of per-query wall time, log scale, one dot per query."""
    margin = {"left": 70, "right": 150, "top": 30, "bottom": 50}
    plot_w = width - margin["left"] - margin["right"]
    plot_h = height - margin["top"] - margin["bottom"]

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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin["left"]}" y="18" font-family="sans-serif" font-size="14">'
        "query time per model tier</text>",
    ]
    axis_color = "#555555"
    x0, y0 = margin["left"], margin["top"] + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="{axis_color}"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{margin["top"]}" x2="{x0}" y2="{y0}" stroke="{axis_color}"/>'
    )
    for decade in range(lo, hi + 1):
        y = y_of(decade)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0 + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{decade}</text>'
        )
    ticks = sorted({1, n // 2 or 1, n})
    for tick in ticks:
        x = x_of(tick)
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{height - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">query index</text>'
    )
    parts.append(
        f'<text x="16" y="{margin["top"] + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin["top"] + plot_h / 2:.2f})" '
        'font-family="sans-serif" font-size="12">wall time [s]</text>'
    )

    for rec, logt in zip(records, logs):
        parts.append(
            f'<circle cx="{x_of(rec.index):.2f}" cy="{y_of(logt):.2f}" r="3" '
            f'fill="{BRANCH_COLORS[rec.model_used]}" fill-opacity="0.8"/>'
        )

    lx = width - margin["right"] + 16
    for i, branch in enumerate(BRANCHES):
        ly = margin["top"] + 16 + 20 * i
        parts.append(f'<circle cx="{lx}" cy="{ly}" r="5" fill="{BRANCH_COLORS[branch]}"/>')
        parts.append(
            f'<text x="{lx + 12}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{branch}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
