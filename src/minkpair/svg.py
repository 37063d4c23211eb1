"""Deterministic SVG rendering of 2D scenes and projected 3D upper faces.

All clipping decisions are exact; floats appear only in the emitted
coordinate strings, so identical inputs give byte-identical documents.
A 2D set is clipped by rows read off `VPolygon.support` (the measure
directions, then the polar boundary rays), whose ray faces are its dashed
rays; a projected 3D facet is a dot, line or polygon by the size of its hull.
"""

from __future__ import annotations

from fractions import Fraction

from .core import GeometryError, dot, is_zero, normalize_direction, vadd, vscale, vsub
from .planar import VPolygon, convex_hull_2d
from .spatial import VPolytope3, _perp_basis

SCALE = 40  # pixels per coordinate unit

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _px(q) -> float:
    """Pixel length of the exact coordinate length q."""
    try:
        return float(q * SCALE)
    except OverflowError:
        raise GeometryError("drawing coordinate too large for a float") from None


def _clip_halfplane(poly, n, off):
    """Sutherland-Hodgman step: keep {x : <n, x> <= off}; exact."""
    if not poly:
        return []
    out = []
    vals = [dot(n, p) for p in poly]
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        vp, vq = vals[i], vals[(i + 1) % len(poly)]
        if vp <= off:
            out.append(p)
            if vq > off:
                t = (off - vp) / (vq - vp)
                out.append(vadd(p, vscale(t, vsub(q, p))))
        elif vq <= off:
            t = (off - vp) / (vq - vp)
            out.append(vadd(p, vscale(t, vsub(q, p))))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if dedup and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _region_halfplanes(vp: VPolygon):
    """(n, off) rows of the set: one per edge of the chain, and the two
    polar boundary rays when the set is unbounded; off is the support."""
    dirs = vp.measure.directions()
    if not vp.cone.is_trivial:
        dirs += vp.cone.polar_boundary_rays()
    return [(u, vp.support(u)[0]) for u in dirs]


def _ray_exit(base, direction, rect):
    """Largest parameter at which base + t*direction stays inside rect."""
    xmin, ymin, xmax, ymax = rect
    t_hi = None
    for coord, lo, hi in ((0, xmin, xmax), (1, ymin, ymax)):
        d = direction[coord]
        if d == 0:
            continue
        bound = (hi - base[coord]) / d if d > 0 else (lo - base[coord]) / d
        t_hi = bound if t_hi is None else min(t_hi, bound)
    return t_hi


class _Canvas:
    def __init__(self, rect):
        self.rect = tuple(Fraction(c) for c in rect)
        xmin, ymin, xmax, ymax = self.rect
        self.width = _px(xmax - xmin)
        self.height = _px(ymax - ymin)
        self.parts = []

    def to_px(self, p):
        xmin, _, _, ymax = self.rect
        return (_px(p[0] - xmin), _px(ymax - p[1]))

    def polygon(self, pts, color):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(self.to_px, pts))
        self.parts.append(
            f'<polygon points="{coords}" fill="{color}" fill-opacity="0.15" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )

    def line(self, p, q, color, dashed=False):
        (x1, y1), (x2, y2) = self.to_px(p), self.to_px(q)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )

    def dot(self, p, color, r=3.5):
        x, y = self.to_px(p)
        self.parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r}" fill="{color}"/>')

    def label(self, p, text, color):
        x, y = self.to_px(p)
        self.parts.append(
            f'<text x="{x + 5:.3f}" y="{y - 5:.3f}" font-size="13" '
            f'font-family="monospace" fill="{color}">{text}</text>'
        )

    def document(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width:.0f}" height="{self.height:.0f}" '
            f'viewBox="0 0 {self.width:.0f} {self.height:.0f}">\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _rect_polygon(rect):
    xmin, ymin, xmax, ymax = rect
    return [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]


def _auto_viewport(points):
    xs = [p[0] for p in points] + [Fraction(0)]
    ys = [p[1] for p in points] + [Fraction(0)]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    margin = max(Fraction(1), (xmax - xmin) / 4, (ymax - ymin) / 4)
    return (xmin - margin, ymin - margin, xmax + margin, ymax + margin)


def _draw_vpolygon(canvas, vp, color):
    rect = canvas.rect
    ch = vp.chain
    if vp.cone.is_trivial and len(ch) == 1:
        canvas.dot(ch[0], color)
        return
    if vp.cone.is_trivial and len(ch) == 2:
        canvas.line(ch[0], ch[1], color)
        return
    if len(vp.cone.gens) == 1 and vp.measure.is_empty:
        g = vp.cone.gens[0]
        t = _ray_exit(ch[0], g, rect)
        if t is not None and t > 0:
            canvas.line(ch[0], vadd(ch[0], vscale(t, g)), color, dashed=True)
        canvas.dot(ch[0], color, r=2.5)
        return
    region = _rect_polygon(rect)
    for n, off in _region_halfplanes(vp):
        region = _clip_halfplane(region, n, off)
    if len(region) >= 3:
        canvas.polygon(region, color)
    if not vp.cone.is_trivial:
        for r in vp.cone.polar_boundary_rays():
            _, (_, base, g) = vp.support(r)
            t = _ray_exit(base, g, rect)
            if t is not None and t > 0:
                canvas.line(base, vadd(base, vscale(t, g)), color, dashed=True)


def _projection_basis(proj):
    proj = normalize_direction(proj)
    if proj[0] == 0 and proj[1] == 0:
        b1, b2 = (1, 0, 0), (0, 1, 0)
        if proj[2] > 0:
            b2 = (0, -1, 0)
        return b1, b2
    return _perp_basis(proj)


def project_upper_faces(vp: VPolytope3, proj):
    """2D cycles of the bounded facets facing against the projection vector."""
    proj = normalize_direction(proj)
    b1, b2 = _projection_basis(proj)
    q = vp.bounded
    out = []
    for f in q.facets:
        if dot(f.normal, proj) < 0:
            cyc = [q.vertices[i] for i in f.cycle]
            out.append([(dot(p, b1), dot(p, b2)) for p in cyc])
    if not out and q.dim == 2:
        # plane contains the view direction: draw the edge-on silhouette
        cyc = [q.vertices[i] for i in q.facets[0].cycle]
        out.append([(dot(p, b1), dot(p, b2)) for p in cyc])
    if q.dim < 2:
        out.append([(dot(p, b1), dot(p, b2)) for p in q.vertices])
    return out


def render(objects, viewport=None, project=None) -> str:
    """SVG document for named 2D sets or projected 3D sets.

    `objects` is an ordered mapping name -> VPolygon | VPolytope3.  3D sets
    require `project`; unbounded 2D sets are clipped to the viewport and
    their recession rays drawn dashed.
    """
    if not objects:
        raise GeometryError("empty selection")
    flats = {}
    for name, obj in objects.items():
        if isinstance(obj, VPolytope3):
            if project is None or is_zero(project):
                raise GeometryError("3D sets need a projection direction")
            flats[name] = ("3d", project_upper_faces(obj, project))
        else:
            flats[name] = ("2d", obj)

    sample_points = []
    for kind, data in flats.values():
        if kind == "3d":
            for cyc in data:
                sample_points.extend(cyc)
        else:
            sample_points.extend(data.chain)
    rect = tuple(Fraction(c) for c in viewport) if viewport else _auto_viewport(sample_points)
    if not (rect[0] < rect[2] and rect[1] < rect[3]):
        raise GeometryError("degenerate viewport")

    canvas = _Canvas(rect)
    for idx, (name, (kind, data)) in enumerate(sorted(flats.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        if kind == "3d":
            for cyc in data:
                hull = convex_hull_2d(cyc)
                if len(hull) == 1:
                    canvas.dot(hull[0], color)
                elif len(hull) == 2:
                    canvas.line(hull[0], hull[1], color)
                else:
                    canvas.polygon(cyc, color)
            anchor_pt = data[0][0]
        else:
            _draw_vpolygon(canvas, data, color)
            anchor_pt = data.chain[0]
        canvas.label(anchor_pt, name, color)
    origin = (Fraction(0), Fraction(0))
    if rect[0] <= 0 <= rect[2] and rect[1] <= 0 <= rect[3]:
        canvas.dot(origin, "#000000", r=2.5)
    return canvas.document()
