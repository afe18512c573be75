"""Static SVG pictures of two-dimensional solution sets.

Conventions follow the usual max-plus plane geometry: scalar multiples of a
vector slide its endpoint along a 45-degree line, so a column span is the
strip between the extreme 45-degree lines through the generator endpoints.
Generators with a zero component sit at infinity; their boundary line
disappears and the strip opens into a half-plane, drawn clipped to the
viewing window.  Hatch marks sit on the inner side of each boundary line,
mirroring the usual hand-drawn figures.
"""

from __future__ import annotations

import math
import sys

from .errors import UnsupportedDimension, ValidationError
from .semifield import MAX_PLUS, ZERO
from .solvers import interval_to_generators
from .spanopt import (
    DEFAULT_ENUMERATION_BUDGET,
    SpanProblem,
    complete_solution,
    extended_interval,
)

_INF = float("inf")
_SIZE = 520  # width and height of the picture, in pixels
_MARGIN = 30.0  # blank border on each side, in pixels
_TICKS = 25  # hatch ticks across the window, per boundary line


def window_scale(lo: float, hi: float) -> float:
    """Pixels per unit of the viewing window [lo, hi].  Refused unless
    lo < hi and both hi - lo and the scale are finite: a width beyond the
    float range overflows, and so does the scale of a subnormal width."""
    if lo < hi:
        width = hi - lo
        scale = (_SIZE - 2 * _MARGIN) / width
        if math.isfinite(width) and math.isfinite(scale):
            return scale
    raise ValidationError(f"window needs finite LO < HI, with finite HI - LO "
                          f"and pixels per unit, got {lo} {hi}")


def _offsets(columns) -> tuple[float, float]:
    """Extreme values of x2 - x1 over the span of the given 2-D columns."""
    lo, hi = _INF, -_INF
    for col in columns:
        a, b = col[0], col[1]
        if a is ZERO:
            hi = _INF
            continue
        if b is ZERO:
            lo = -_INF
            continue
        off = float(b) - float(a)
        lo = min(lo, off)
        hi = max(hi, off)
    return lo, hi


def _clip(points, c: float, below: bool):
    """Sutherland-Hodgman step keeping the half-plane x2 - x1 <= c, or
    x2 - x1 >= c when below is false."""
    m = len(points)
    d = [p[1] - p[0] for p in points]
    inside = [e <= c + 1e-9 if below else e >= c - 1e-9 for e in d]
    out = []
    for i in range(m):
        k = (i + 1) % m
        if inside[i]:
            out.append(points[i])
        if inside[i] != inside[k]:
            # solve (p2 + t(q2-p2)) - (p1 + t(q1-p1)) = c
            p, q, dp, dq = points[i], points[k], d[i] - c, d[k] - c
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _region_polygon(lo: float, hi: float, w0: float, w1: float):
    points = [(w0, w0), (w1, w0), (w1, w1), (w0, w1)]
    if hi < _INF:
        points = _clip(points, hi, below=True)
    if points and lo > -_INF:
        points = _clip(points, lo, below=False)
    return points


class _Svg:
    def __init__(self, window: tuple[float, float]):
        self.w0, self.w1 = window
        self.scale = window_scale(self.w0, self.w1)
        self.parts: list[str] = []

    def sx(self, x: float) -> float:
        return _MARGIN + (x - self.w0) * self.scale

    def sy(self, y: float) -> float:
        return _SIZE - _MARGIN - (y - self.w0) * self.scale

    def fmt(self, v: float) -> str:
        if not math.isfinite(v):
            raise ValidationError(
                f"plotting needs pixel coordinates within the float range, got {v}")
        return f"{v:.2f}"

    def line(self, a, b, *, width=1.0, color="#333", dash=None, marker=False):
        attrs = (f'x1="{self.fmt(self.sx(a[0]))}" y1="{self.fmt(self.sy(a[1]))}" '
                 f'x2="{self.fmt(self.sx(b[0]))}" y2="{self.fmt(self.sy(b[1]))}" '
                 f'stroke="{color}" stroke-width="{width}"')
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if marker:
            attrs += ' marker-end="url(#arrow)"'
        self.parts.append(f"<line {attrs} />")

    def polygon(self, points, *, fill, opacity="0.25"):
        coords = " ".join(f"{self.fmt(self.sx(x))},{self.fmt(self.sy(y))}"
                          for x, y in points)
        self.parts.append(f'<polygon points="{coords}" fill="{fill}" '
                          f'fill-opacity="{opacity}" stroke="none" />')

    def text(self, pos, label, *, color="#111"):
        self.parts.append(f'<text x="{self.fmt(self.sx(pos[0]) + 4)}" '
                          f'y="{self.fmt(self.sy(pos[1]) - 4)}" '
                          f'font-size="12" fill="{color}">{label}</text>')

    def hatches(self, c: float, inward: int):
        """Short ticks along the diagonal x2 - x1 = c on its inner side."""
        step = (self.w1 - self.w0) / (_TICKS - 1)
        tick = step * 0.45 * inward
        t = self.w0
        # bounded by count too: far from zero, t + step may round back to t
        for _ in range(_TICKS):
            if t > self.w1:
                break
            x, y = t, t + c
            if self.w0 <= y <= self.w1:
                self.line((x, y), (x + tick, y), width=0.7, color="#555")
            t += step

    def document(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
                f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">')
        defs = ('<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
                'refX="6" refY="3" orient="auto">'
                '<path d="M0,0 L6,3 L0,6 z" fill="#111" /></marker></defs>')
        bg = f'<rect width="{_SIZE}" height="{_SIZE}" fill="white" />'
        return "\n".join([head, defs, bg, *self.parts, "</svg>"]) + "\n"


def _draw_ray(svg: _Svg, col, label: str, *, color="#111"):
    """The segment from the origin to the column's tip, clipped to the
    window (Liang-Barsky), and its label at the clipped end; nothing for a
    segment that misses the window.  A zero component sits at infinity: the
    ray then runs dashed along the other axis, its label nudged off it."""
    a, b = col[0], col[1]
    if a is ZERO:
        tip, nudge, dash = (svg.w0 * 0.9, 0), (0, 0.4), "4 3"
    elif b is ZERO:
        tip, nudge, dash = (0, svg.w0 * 0.9), (0.4, 0), "4 3"
    else:
        tip, nudge, dash = (float(a), float(b)), (0, 0), None
    # the segment is t * tip for 0 <= t <= 1; each axis bounds t
    t0, t1 = 0, 1
    for v in tip:
        if v:
            ta, tb = sorted((svg.w0 / v, svg.w1 / v))
            t0, t1 = max(t0, ta), min(t1, tb)
        elif not svg.w0 <= 0 <= svg.w1:
            return
    if t0 > t1:
        return
    start = (0, 0) if t0 == 0 else (t0 * tip[0], t0 * tip[1])
    end = tip if t1 == 1 else (t1 * tip[0], t1 * tip[1])
    svg.line(start, end, width=1.8, color=color, dash=dash, marker=True)
    svg.text((end[0] + nudge[0], end[1] + nudge[1]), label, color=color)


def render_span_svg(prob: SpanProblem, *, window: tuple[float, float] = (-10, 10),
                    budget: int | None = DEFAULT_ENUMERATION_BUDGET) -> str:
    """Picture of the extended interval and the complete solution strip."""
    if prob.semifield is not MAX_PLUS:
        raise ValidationError(
            f"plotting needs a {MAX_PLUS.name} problem, got {prob.semifield.name}")
    if prob.A.cols != 2:
        raise UnsupportedDimension(
            f"plotting needs a 2-column problem, got {prob.A.cols} columns")
    svg = _Svg(window)
    interval = extended_interval(prob)
    sol = complete_solution(prob, budget=budget)
    s0 = sol.generators.generators
    extended = interval_to_generators(interval).generators
    # every scalar drawn is converted to a float
    drawn = [*interval.lower, *interval.upper,
             *(v for rows in (s0.entries, extended.entries) for row in rows
               for v in row)]
    if any(v is not ZERO and not abs(v) <= sys.float_info.max for v in drawn):
        raise ValidationError(
            f"plotting needs scalars within the float range "
            f"+-{sys.float_info.max:.4g}")

    w0, w1 = svg.w0, svg.w1
    # axes
    svg.line((w0, 0), (w1, 0), width=1.0, color="#999")
    svg.line((0, w0), (0, w1), width=1.0, color="#999")

    # complete solution strip: span of S0 columns
    lo, hi = _offsets(s0.columns())
    region = _region_polygon(lo, hi, w0, w1)
    if region:
        svg.polygon(region, fill="#7ba7d7")
    # a diagonal x2 - x1 = c crosses the window iff |c| < HI - LO; one far
    # outside it would overflow the pixel coordinates
    for c, inward in ((hi, 1), (lo, -1)):
        if abs(c) < w1 - w0:
            svg.line((w0, w0 + c), (w1, w1 + c), width=2.2, color="#333")
            svg.hatches(c, inward=inward)

    # extended strip between x' and x'' (a subset of the region above);
    # its width is read off the generators of I (+) g h^-, whose extreme
    # offsets are g2 - h1 and h2 - g1
    ext_lo, ext_hi = _offsets(extended.columns())
    ext_region = _region_polygon(ext_lo, ext_hi, w0, w1)
    if ext_region:
        svg.polygon(ext_region, fill="#e0a060", opacity="0.30")
    for off in sorted({ext_lo, ext_hi}):
        if abs(off) < w1 - w0:
            svg.line((w0, w0 + off), (w1, w1 + off), width=1.2,
                     color="#b3541e", dash="6 4")

    # extended interval rays x' and x''
    _draw_ray(svg, interval.lower, "x&#8242;", color="#b3541e")
    _draw_ray(svg, interval.upper, "x&#8243;", color="#b3541e")

    # generator rays
    for j, col in enumerate(s0.columns(), start=1):
        _draw_ray(svg, col, f"s{j}")

    return svg.document()
