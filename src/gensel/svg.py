"""Minimal native SVG line plots (mean curves with +/- one std bands).

Writes deterministic text: fixed float formatting, LF line endings, no
external plotting dependency.  An optional generation comment is the only
non-deterministic content and is suppressed in deterministic mode.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

__all__ = ["write_curves_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 40, 55
_XLABEL, _YLABEL = "epoch", "normalized RMSE"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The "x,y x,y ..." points of an SVG path, each coordinate as `_fmt`."""
    pairs = np.column_stack((xs, ys)).ravel().tolist()
    return " ".join(["%.3f,%.3f"] * len(xs)) % tuple(pairs)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_values(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [float(v) for v in np.linspace(lo, hi, 6)]


def write_curves_svg(
    path,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    deterministic: bool = False,
) -> None:
    """Write one SVG titled "training curves" with a (label, mean, std) band
    per series.

    The x axis is the sample index (epoch number); all series must share a
    common length.
    """
    if not series:
        raise ValueError("at least one series is required")
    lengths = {len(mean) for _, mean, _ in series}
    if len(lengths) != 1:
        raise ValueError(f"series have inconsistent lengths: {sorted(lengths)}")
    epochs = lengths.pop()
    x_max = max(epochs - 1, 1)

    y_lo = 0.0
    y_hi = max(
        float(np.max(np.asarray(mean) + np.asarray(std))) for _, mean, std in series
    )
    y_hi = y_hi * 1.05 if y_hi > 0 else 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Scalars for the ticks, arrays for the paths: the same operations.
    def sx(x):
        return _MARGIN_L + plot_w * x / x_max

    def sy(y):
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    lines: list[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    if not deterministic:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        lines.append(f"<!-- generated: {stamp} -->")
    lines.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    lines.append(
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="16">training curves</text>'
    )

    # Axes.
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    lines.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
        'stroke="black" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" '
        'stroke="black" stroke-width="1"/>'
    )
    for xv in _tick_values(0, x_max):
        px = sx(xv)
        lines.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xv:g}</text>'
        )
    for yv in _tick_values(y_lo, y_hi):
        py = sy(yv)
        lines.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
            'stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{yv:.3g}</text>'
        )
    lines.append(
        f'<text x="{x0 + plot_w // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_XLABEL}</text>'
    )
    lines.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{_YLABEL}</text>'
    )

    # Bands (mean +/- std inside the plot) then curves, so every mean line
    # stays visible.  np.where, not np.clip: a NaN edge lies on the bound.
    xs = sx(np.arange(epochs))
    for i, (label, mean, std) in enumerate(series):
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        color = _PALETTE[i % len(_PALETTE)]
        upper, lower = mean + std, mean - std
        upper = np.where(upper < y_hi, upper, y_hi)
        lower = np.where(lower > y_lo, lower, y_lo)
        poly = _points(
            np.concatenate((xs, xs[::-1])), sy(np.concatenate((upper, lower[::-1])))
        )
        lines.append(
            f'<polygon points="{poly}" fill="{color}" fill-opacity="0.15" '
            'stroke="none"/>'
        )
    for i, (label, mean, std) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = _points(xs, sy(np.asarray(mean, dtype=float)))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 16 + 20 * i
        lx = _WIDTH - _MARGIN_R + 14
        lines.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        lines.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="13">{_escape(label)}</text>'
        )

    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
