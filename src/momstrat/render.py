"""Deterministic SVG rendering of planar (k=2) and interval (k=1) stratifications.

The only floating-point conversion at rest: exact rational coordinates are
formatted with nine fixed decimals into the SVG coordinate system.  Identical
documents in, identical bytes out.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .io import StratificationDocument
from .linalg import Vec

_CHAMBER_FILLS = ("#c6dbef", "#fdd0a2", "#c7e9c0", "#dadaeb", "#fee0d2", "#d9d9d9")
_WIDTH = 640.0
_PAD = 0.08


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _frac_label(v: Vec) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _poly_label(poly, k: int) -> str:
    names = ["t"] if k == 1 else ["x", "y", "z", "w"][:k]
    terms = []
    ordered = sorted(poly.coefficients, key=lambda ec: (sum(ec[0]), tuple(-e for e in ec[0])))
    for expo, coeff in ordered:
        mono = "".join(
            (names[i] if e == 1 else f"{names[i]}^{e}") for i, e in enumerate(expo) if e > 0
        )
        c = coeff
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{mono}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for negative, body in terms[1:]:
        out += (" - " if negative else " + ") + body
    return out


class _Mapper:
    def __init__(self, points: list[Vec], k: int):
        xs = [float(p[0]) for p in points]
        ys = [float(p[1]) for p in points] if k == 2 else [0.0]
        self.x0, x1 = min(xs), max(xs)
        self.y0, y1 = min(ys), max(ys)
        spanx = max(x1 - self.x0, 1e-9)
        spany = max(y1 - self.y0, 1e-9) if k == 2 else spanx * 0.25
        self.scale = _WIDTH * (1 - 2 * _PAD) / max(spanx, spany)
        self.width = _WIDTH
        self.height = spany * self.scale + 2 * _PAD * _WIDTH
        self.spany = spany

    def map(self, p: Vec, k: int) -> tuple[float, float]:
        x = _PAD * self.width + (float(p[0]) - self.x0) * self.scale
        y_val = float(p[1]) if k == 2 else 0.0
        y = self.height - (_PAD * self.width + (y_val - self.y0) * self.scale)
        return x, y


def _ring_order(points: list[Vec]) -> list[Vec]:
    import math

    cx = sum(float(p[0]) for p in points) / len(points)
    cy = sum(float(p[1]) for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(float(p[1]) - cy, float(p[0]) - cx))


def render_svg(doc: StratificationDocument, label_densities: bool = False) -> str:
    """SVG 1.1 document for a 1- or 2-dimensional stratification."""
    s = doc.stratification
    k = s.ambient_dim
    if k not in (1, 2):
        raise DimensionMismatch(f"rendering supports k in (1, 2), got {k}")
    points = [v for st in s.strata for cell in st.cells for v in cell.closure_vertices]
    mapper = _Mapper(points, k)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(mapper.width)}" height="{_fmt(mapper.height)}" '
        f'viewBox="0 0 {_fmt(mapper.width)} {_fmt(mapper.height)}">',
    ]
    chambers = [st for st in s.strata if st.dim == 2]
    edges = [st for st in s.strata if st.dim == 1]
    dots = [st for st in s.strata if st.dim == 0]
    for idx, st in enumerate(chambers):
        fill = _CHAMBER_FILLS[idx % len(_CHAMBER_FILLS)]
        # a chamber may also hold 1-dimensional pieces glued into it
        for cell in (c for c in st.cells if c.dim == 2):
            ring = _ring_order(list(cell.closure_vertices))
            coords = " ".join(
                f"{_fmt(px)},{_fmt(py)}" for px, py in (mapper.map(p, k) for p in ring)
            )
            parts.append(f'<polygon points="{coords}" fill="{fill}" stroke="none"/>')
    for st in edges:
        # an edge stratum may also hold 0-dimensional pieces glued into it
        for cell in (c for c in st.cells if c.dim == 1):
            (x1, y1), (x2, y2) = (mapper.map(p, k) for p in cell.closure_vertices[:2])
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#000000" stroke-width="2.5"/>'
            )
    for st in dots:
        p = st.cells[0].closure_vertices[0]
        cx, cy = mapper.map(p, k)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="#1a1a1a"/>')
        parts.append(
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" font-family="monospace" '
            f'font-size="11" fill="#333333">{_frac_label(p)}</text>'
        )
    if label_densities:
        for st in chambers if k == 2 else [st for st in s.strata if st.dim == 1]:
            poly = doc.density_for(st.id)
            if poly is None:
                continue
            centroid = st.cells[0].sample_point()
            cx, cy = mapper.map(centroid, k)
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-family="monospace" '
                f'font-size="13" fill="#00441b" text-anchor="middle">{_poly_label(poly, k)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
