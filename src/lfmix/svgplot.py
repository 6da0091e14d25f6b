"""Minimal standalone SVG line charts.

No display or font dependencies: output is plain shapes and text, fully
self-contained, and byte-deterministic for identical inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH, _HEIGHT = 900, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 40, 50


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _axis(lo: float, hi: float) -> tuple[float, float, float]:
    """``(scale, lo, hi)``: the range [lo, hi] in units of ``scale``, a power
    of two that keeps every span and tick sum of the axis finite (1 while
    both ends lie within 2^1019 of 0, which leaves the arithmetic as it
    is). An equal range widens by 1 above it or, where adding 1 leaves it
    as it is, by 2^-50 of its magnitude toward 0, so no label overflows."""
    scale = 1.0 if max(abs(lo), abs(hi)) < 2.0**1019 else 2.0**-4
    lo, hi = lo * scale, hi * scale
    if hi == lo:
        lo, hi = (lo, lo + 1.0) if lo + 1.0 != lo else sorted((lo, lo - lo * 2.0**-50))
    return scale, lo, hi


def render_line_chart(series: dict, out_path, *, log_y: bool = False, title: str = "") -> None:
    """Write a line chart to ``out_path``.

    ``series`` maps label -> (xs, ys). Non-finite values are dropped; with
    ``log_y`` the y axis is log10 and nonpositive values are dropped too.
    Raises ValueError when nothing is drawable.
    """
    drawable: dict[str, tuple[list[float], list[float]]] = {}
    for label, (xs, ys) in series.items():
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(y) and (not log_y or y > 0.0)]
        if pts:
            drawable[label] = ([p[0] for p in pts], [math.log10(p[1]) if log_y else p[1] for p in pts])
    if not drawable:
        dropped = "non-finite values" + (" and values <= 0" if log_y else "")
        raise ValueError(f"no drawable points ({dropped} are dropped)")

    x_scale, x_lo, x_hi = _axis(min(min(xs) for xs, _ in drawable.values()),
                                max(max(xs) for xs, _ in drawable.values()))
    y_scale, y_lo, y_hi = _axis(min(min(ys) for _, ys in drawable.values()),
                                max(max(ys) for _, ys in drawable.values()))

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:  # x in units of x_scale, as the ticks are
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_esc(title)}</text>'
        )

    for yv in _ticks(y_lo, y_hi):
        y = py(yv)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        label = f"1e{yv / y_scale:.2f}" if log_y else f"{yv / y_scale:.6g}"
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for xv in _ticks(x_lo, x_hi, 6):
        x = px(xv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T}" x2="{x:.2f}" y2="{_HEIGHT - _MARGIN_B}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv / x_scale:.6g}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t</text>'
    )
    axis_label = "log10(value)" if log_y else "value"
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{axis_label}</text>'
    )

    for idx, (label, (xs, ys)) in enumerate(drawable.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        xs, ys = [x * x_scale for x in xs], [y * y_scale for y in ys]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if len(xs) == 1:
            parts.append(f'<circle cx="{px(xs[0]):.2f}" cy="{py(ys[0]):.2f}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _WIDTH - _MARGIN_R - 160
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{_esc(label)}</text>'
        )

    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")
