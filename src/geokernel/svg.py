"""SVG rendering of construction traces.

Exact coordinates are kept all the way to this module; decimal conversion
(12 significant digits) happens only when the document is written.
Declared points are drawn filled, constructed points — the ones whose
existence an axiom asserts — as small open circles.  The viewport fits
the bounding box of all drawn points with a 10% margin.

NonArchimedean environments are only renderable through the ``shadow``
option, which maps eps -> 0 before converting to decimals.
"""

from __future__ import annotations

import re

from .field import approx
from .geometry import Point


class UnrenderableMode(Exception):
    pass


def _fmt(v: float) -> str:
    return f"{v:.12g}"


_SEGMENT_PLANS = {
    # op -> list of (side, i, side, j) where side is "in" or "out"
    "ext": [("in", 0, "out", 0)],
    "lay_off": [("in", 0, "out", 0)],
    "inner_pasch": [("in", 0, "in", 2), ("in", 3, "in", 2),
                    ("in", 1, "in", 3), ("in", 0, "in", 4)],
    "outer_pasch": [("in", 0, "in", 2), ("in", 3, "in", 4),
                    ("in", 0, "in", 4), ("in", 3, "out", 0)],
    "euclid5": [("in", 1, "in", 2), ("in", 3, "in", 4), ("in", 2, "in", 4),
                ("in", 1, "out", 0), ("in", 3, "out", 0)],
    "equilateral": [("in", 0, "in", 1), ("in", 0, "out", 0),
                    ("in", 1, "out", 0)],
    "midpoint_gupta": [("in", 0, "in", 1)],
    "line_circle": [("out", 0, "out", 1)],
    "perpendicular": [("in", 1, "in", 2), ("out", 0, "out", 1)],
    "reflect": [("in", 0, "out", 0)],
    "angle_bisect": [("in", 1, "in", 0), ("in", 1, "in", 2),
                     ("in", 1, "out", 0)],
    "angle_copy": [("in", 3, "out", 0), ("in", 3, "out", 1)],
    "crossbar_point": [("in", 1, "in", 0), ("in", 1, "in", 2),
                       ("in", 4, "in", 5), ("in", 1, "out", 0)],
}

_CIRCLE_PLANS = {
    # op -> list of (center-side, center-index, rim-side, rim-index)
    "line_circle": [("in", 0, "out", 0)],
    "circle_circle": [("in", 0, "out", 0), ("in", 1, "out", 0)],
}


def _coords(p: Point, use_shadow: bool, name: str) -> tuple[float, float]:
    try:
        return approx(p.x, use_shadow), approx(p.y, use_shadow)
    except (OverflowError, ValueError) as err:  # no float value
        raise UnrenderableMode(f"point {name}: {err}") from None


def render_svg(env, shadow: bool = False) -> str:
    """Read-only rendering of an interpreter environment."""
    use_shadow = env.mode == "nonarchimedean"
    if use_shadow and not shadow:
        raise UnrenderableMode(
            "NonArchimedean environment needs the shadow option")

    pts: dict[str, tuple[float, float]] = {}
    for name, p in env.bindings.items():
        pts[name] = _coords(p, use_shadow, name)

    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    circles: list[tuple[tuple[float, float], float]] = []

    def pick(entry, side, idx):
        seq = entry.inputs if side == "in" else entry.outputs
        return _coords(seq[idx], use_shadow, f"{side}[{idx}] of {entry.op}")

    seen = set()
    for entry in env.trace:
        for side1, i, side2, j in _SEGMENT_PLANS.get(entry.op, []):
            a, b = pick(entry, side1, i), pick(entry, side2, j)
            key = (min(a, b), max(a, b))
            if a != b and key not in seen:
                seen.add(key)
                segments.append((a, b))
        for cs, ci, rs, ri in _CIRCLE_PLANS.get(entry.op, []):
            c, rim = pick(entry, cs, ci), pick(entry, rs, ri)
            r = ((c[0] - rim[0]) ** 2 + (c[1] - rim[1]) ** 2) ** 0.5
            key = ("circle", c, round(r, 9))
            if r > 0 and key not in seen:
                seen.add(key)
                circles.append((c, r))

    xs = [p[0] for p in pts.values()] or [0.0]
    ys = [p[1] for p in pts.values()] or [0.0]
    for c, r in circles:
        xs += [c[0] - r, c[0] + r]
        ys += [c[1] - r, c[1] + r]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = (x1 - x0) or 1.0
    h = (y1 - y0) or 1.0
    mx, my = 0.1 * w, 0.1 * h
    vb = (x0 - mx, -(y1 + my), w + 2 * mx, h + 2 * my)
    stroke = max(w, h) / 200

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="480" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} '
        f'{_fmt(vb[3])}">',
    ]
    for label in env.renders:
        out.append(f"  <title>{label}</title>")
    for (ax, ay), (bx, by) in segments:
        out.append(
            f'  <line x1="{_fmt(ax)}" y1="{_fmt(-ay)}" x2="{_fmt(bx)}" '
            f'y2="{_fmt(-by)}" stroke="black" '
            f'stroke-width="{_fmt(stroke)}"/>')
    for (cx, cy), r in circles:
        out.append(
            f'  <circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
            f'fill="none" stroke="gray" stroke-width="{_fmt(stroke / 2)}" '
            f'stroke-dasharray="{_fmt(4 * stroke)}"/>')
    for name, (px, py) in pts.items():
        constructed = name not in env.declared
        fill = "white" if constructed else "black"
        out.append(
            f'  <circle cx="{_fmt(px)}" cy="{_fmt(-py)}" '
            f'r="{_fmt(2 * stroke)}" fill="{fill}" stroke="black" '
            f'stroke-width="{_fmt(stroke / 2)}"/>')
        out.append(
            f'  <text x="{_fmt(px + 3 * stroke)}" y="{_fmt(-py - 3 * stroke)}" '
            f'font-size="{_fmt(8 * stroke)}">{name}</text>')
    if use_shadow:
        out.append(f'  <text x="{_fmt(vb[0])}" y="{_fmt(vb[1] + vb[3])}" '
                   f'font-size="{_fmt(8 * stroke)}">shadow: eps -&gt; 0'
                   '</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


_NUM_RE = re.compile(r"-?\d+\.?\d*(?:[eE][-+]?\d+)?")


def structural_signature(svg_text: str):
    """Multiset of elements with numbers rounded: the comparison key for
    'matches the stored reference up to decimal formatting'."""
    elems = []
    for m in re.finditer(r"<(\w+)([^>]*)/?>", svg_text):
        tag, attrs = m.group(1), m.group(2)
        attrs = _NUM_RE.sub(lambda n: f"{float(n.group()):.6g}", attrs)
        elems.append((tag, attrs.strip()))
    return tuple(sorted(elems))
