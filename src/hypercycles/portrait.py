"""SVG phase portraits: RK4 trajectories plus the algebraic curve overlay.

This is the one module allowed to use floating point; nothing here feeds
back into any certification path.  Output is deterministic for a fixed
spec: fixed step counts, fixed sampling grids, fixed number formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .lienard import HyperellipticCurve, LienardSystem


# RK4 steps at most per trajectory, x samples per curve branch, and the
# SVG width and height in pixels
_STEPS = 2000
_SAMPLES = 600
_SIZE = (480, 480)


@dataclass
class PortraitSpec:
    system: LienardSystem
    curve: Optional[HyperellipticCurve] = None
    window: tuple = (Fraction(-3), Fraction(-3), Fraction(3), Fraction(3))
    step: float = 0.01
    seeds: Sequence[tuple] = field(default_factory=list)

    def __post_init__(self):
        # every value that rendering reads, as a float once: one beyond the
        # float range is a ValueError here, not an OverflowError mid-render
        polys = {"f": self.system.f, "g": self.system.g}
        if self.curve is not None:
            polys.update(P=self.curve.P, Q=self.curve.Q)
        self._coeffs = {k: [_float(c, f"{k} coefficient of x^{i}")
                            for i, c in enumerate(p.coeffs)] for k, p in polys.items()}
        self._window = [_float(v, f"window {corner}")
                        for v, corner in zip(self.window, ("x0", "y0", "x1", "y1"))]
        self._seeds = [[_float(v, f"seed point {i} {c}") for v, c in zip(seed, "xy")]
                       for i, seed in enumerate(self.seeds, 1)]
        # rounding keeps the order, and corners that round to one float
        # leave nothing to draw
        x0, y0, x1, y1 = self._window
        if not (x0 < x1 and y0 < y1):
            raise ValueError("window must be a nonempty rectangle")
        # a nan or infinite step would draw no trajectory at all
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")


def _float(value, what: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Mapper:
    def __init__(self, spec: PortraitSpec):
        self.x0, self.y0, self.x1, self.y1 = spec._window
        self.w, self.h = _SIZE

    def to_svg(self, x: float, y: float) -> tuple[float, float]:
        sx = (x - self.x0) / (self.x1 - self.x0) * self.w
        sy = self.h - (y - self.y0) / (self.y1 - self.y0) * self.h
        return sx, sy

    def inside(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def _horner(cs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _polyline(points, cls: str, color: str, width: str = "1") -> str:
    coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
    return (
        f'<polyline class="{cls}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" points="{coords}" />'
    )


def _curve_branches(spec: PortraitSpec, mapper: _Mapper) -> list[str]:
    """y = -P(x) +- sqrt(Q(x)) wherever Q >= 0: one polyline per contiguous
    run per branch."""
    curve = spec.curve
    if curve is None:
        return []
    Pf, Qf = spec._coeffs["P"], spec._coeffs["Q"]

    n = _SAMPLES
    xs = [mapper.x0 + (mapper.x1 - mapper.x0) * i / (n - 1) for i in range(n)]
    paths = []
    for sign in (1.0, -1.0):
        run: list[tuple[float, float]] = []
        for x in xs:
            q = _horner(Qf, x)
            if q >= 0.0:
                y = -_horner(Pf, x) + sign * math.sqrt(q)
                run.append(mapper.to_svg(x, y))
            else:
                if len(run) > 1:
                    paths.append(_polyline(run, "curve-branch", "#c0392b", "1.5"))
                run = []
        if len(run) > 1:
            paths.append(_polyline(run, "curve-branch", "#c0392b", "1.5"))
    return paths


def _trajectory(spec: PortraitSpec, mapper: _Mapper, seed) -> Optional[str]:
    f, g = spec._coeffs["f"], spec._coeffs["g"]

    def rhs(x, y):
        return y, -_horner(f, x) * y - _horner(g, x)

    h = spec.step
    x, y = seed
    pts = []
    for _ in range(_STEPS):
        if not mapper.inside(x, y):
            break
        pts.append(mapper.to_svg(x, y))
        k1 = rhs(x, y)
        k2 = rhs(x + h / 2 * k1[0], y + h / 2 * k1[1])
        k3 = rhs(x + h / 2 * k2[0], y + h / 2 * k2[1])
        k4 = rhs(x + h * k3[0], y + h * k3[1])
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    if len(pts) < 2:
        return None
    return _polyline(pts, "trajectory", "#2c3e50")


def render_portrait(spec: PortraitSpec) -> str:
    mapper = _Mapper(spec)
    w, h = _SIZE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff" />',
    ]
    # axes
    if mapper.x0 < 0 < mapper.x1:
        x_axis = mapper.to_svg(0.0, 0.0)[0]
        parts.append(_polyline([(x_axis, 0.0), (x_axis, float(h))], "axis", "#bbbbbb"))
    if mapper.y0 < 0 < mapper.y1:
        y_axis = mapper.to_svg(0.0, 0.0)[1]
        parts.append(_polyline([(0.0, y_axis), (float(w), y_axis)], "axis", "#bbbbbb"))
    for seed in spec._seeds:
        path = _trajectory(spec, mapper, seed)
        if path:
            parts.append(path)
    parts.extend(_curve_branches(spec, mapper))
    parts.append("</svg>")
    return "\n".join(parts)
