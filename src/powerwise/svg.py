"""SVG charts: the ranking's points bars (``rank --format svg``) and the group regression's scatter (``regress``).

Only a run that draws one loads this module. Like every renderer, each chart
is a pure function of its inputs, and numbers are written with at most two
decimals, so identical inputs give identical bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .report import _fmt_points

if TYPE_CHECKING:
    from .experiments import RegressionReport
    from .tiebreak import RankingList


def fixed(x: float, digits: int, sign: str = "") -> str:
    """``x`` to ``digits`` decimals, ``sign`` a format sign flag; a value that rounds to zero prints without a minus.

    Rounded first and then added to 0.0, which turns -0.0 into 0.0: a fit's slope of about ±1e-16, whose sign
    depends on the BLAS kernel that summed it, reads the same either way.
    """
    return f"{round(x, digits) + 0.0:{sign}.{digits}f}"


class SvgCanvas:
    """Tiny append-only SVG document builder with fixed numeric formatting."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.elements: list[str] = []

    @staticmethod
    def _n(x: float) -> str:
        return fixed(x, 2).rstrip("0").rstrip(".")

    def rect(self, x, y, w, h, fill):
        self.elements.append(
            f'<rect x="{self._n(x)}" y="{self._n(y)}" width="{self._n(w)}" height="{self._n(h)}" fill="{fill}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke, width=1.0):
        self.elements.append(
            f'<line x1="{self._n(x1)}" y1="{self._n(y1)}" x2="{self._n(x2)}" '
            f'y2="{self._n(y2)}" stroke="{stroke}" stroke-width="{self._n(width)}"/>'
        )

    def circle(self, cx, cy, r, fill):
        self.elements.append(
            f'<circle cx="{self._n(cx)}" cy="{self._n(cy)}" r="{self._n(r)}" fill="{fill}"/>'
        )

    def polygon(self, points, fill, opacity=1.0):
        coords = " ".join(f"{self._n(x)},{self._n(y)}" for x, y in points)
        self.elements.append(f'<polygon points="{coords}" fill="{fill}" opacity="{self._n(opacity)}"/>')

    def text(self, x, y, content, size=12, anchor="start"):
        safe = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.elements.append(
            f'<text x="{self._n(x)}" y="{self._n(y)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}" fill="#000">{safe}</text>'
        )

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        return "\n".join([head, *self.elements, "</svg>"]) + "\n"


def render_ranking_svg(ranking: RankingList) -> str:
    """Horizontal bar chart of points, best team on top."""
    row_h = 22
    left = 150
    width = 640
    height = 40 + row_h * len(ranking.entries)
    canvas = SvgCanvas(width, height)
    canvas.text(10, 24, f"season {ranking.season} pairwise points", size=14)
    max_points = max((e.points for e in ranking.entries), default=1.0) or 1.0
    scale = (width - left - 60) / max_points
    for i, e in enumerate(ranking.entries):
        y = 36 + i * row_h
        canvas.text(left - 8, y + 14, f"{e.rank:>3} {e.team}"[:24], anchor="end")
        canvas.rect(left, y + 3, e.points * scale, row_h - 8, fill="#4477aa")
        canvas.text(left + e.points * scale + 6, y + 14, _fmt_points(e.points))
    return canvas.render()


def render_regression_svg(report: RegressionReport) -> str:
    """Scatter of both groups with fitted lines and 95% mean-response bands."""
    width, height, pad = 640, 420, 50
    xs = [x for x, _ in report.samples_a + report.samples_b]
    ys = [y for _, y in report.samples_a + report.samples_b]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys) - 1, max(ys) + 1
    for fit in (report.fit_a, report.fit_b):
        for x in fit.x_range:
            y = fit.predict(x)
            half = fit.band_halfwidth(x)
            y_lo = min(y_lo, y - half)
            y_hi = max(y_hi, y + half)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    canvas = SvgCanvas(width, height)
    canvas.line(pad, height - pad, width - pad, height - pad, stroke="#000")
    canvas.line(pad, pad, pad, height - pad, stroke="#000")
    canvas.text(width // 2, height - 12, "opponent strength", anchor="middle")
    canvas.text(12, pad - 10, "goal margin")
    if y_lo < 0 < y_hi:
        canvas.line(pad, sy(0), width - pad, sy(0), stroke="#bbb")

    steps = 24
    for fit, color in ((report.fit_a, "#4477aa"), (report.fit_b, "#cc6677")):
        lo, hi = fit.x_range
        grid = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
        upper = [(sx(x), sy(fit.predict(x) + fit.band_halfwidth(x))) for x in grid]
        lower = [(sx(x), sy(fit.predict(x) - fit.band_halfwidth(x))) for x in reversed(grid)]
        canvas.polygon(upper + lower, fill=color, opacity=0.15)
        canvas.line(sx(lo), sy(fit.predict(lo)), sx(hi), sy(fit.predict(hi)), stroke=color, width=2)
    for samples, color in ((report.samples_a, "#4477aa"), (report.samples_b, "#cc6677")):
        for x, y in samples:
            canvas.circle(sx(x), sy(y), 3, fill=color)
    canvas.text(
        width - pad,
        pad - 10,
        f"offset {fixed(report.group_offset, 2, '+')} at {fixed(report.midpoint, 2)} (p={report.p_value:.3g})",
        anchor="end",
    )
    return canvas.render()
