"""Portrait rendering: first-integral grids, marching-squares contours
and deterministic SVG output.

Streamlines are level sets of the stream function psi (and
equipotential lines of phi); contour cells with undefined values (poles
of one piecewise side, the other half-plane of a piecewise spec) are
skipped via NaN masking.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .potential import PotentialRep, SystemSpec, build_potential, eval_potential

SVG_WIDTH, SVG_HEIGHT = 640, 480


@dataclass(frozen=True)
class Window:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("window must be nondegenerate")


def _grid(window: Window, nx: int, ny: int):
    """(xs, ys, z) of a regular grid with z[j, i] = complex(xs[i], ys[j]),
    signed zeros included (1j * ys would turn -0.0 into 0.0)."""
    if nx < 2 or ny < 2:
        raise ValueError("grid dimensions must be >= 2")
    xs = np.linspace(window.x_min, window.x_max, nx)
    ys = np.linspace(window.y_min, window.y_max, ny)
    z = np.empty((ny, nx), dtype=complex)
    z.real, z.imag = xs, ys[:, None]
    return xs, ys, z


def potential_grid(rep: PotentialRep, window: Window, nx: int, ny: int):
    """Sampled (xs, ys, phi, psi) on a regular grid; NaN at poles."""
    xs, ys, z = _grid(window, nx, ny)
    w = eval_potential(rep, z)
    return xs, ys, w.real, w.imag


def piecewise_psi_grid(upper: SystemSpec, lower: SystemSpec, window: Window,
                       nx: int, ny: int):
    """Stream-function grid of a piecewise spec: the upper potential on
    y >= 0, the lower potential on y < 0."""
    xs, ys, z = _grid(window, nx, ny)
    psi_up = eval_potential(build_potential(upper), z).imag
    psi_lo = eval_potential(build_potential(lower), z).imag
    return xs, ys, np.where(ys[:, None] >= 0, psi_up, psi_lo)


# marching-squares edge pairs per 4-bit cell index; corners are numbered
# 0:(0,0) 1:(1,0) 2:(1,1) 3:(0,1) in cell coordinates, edges 0..3 are
# bottom, right, top, left
_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)],
    9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)],
    13: [(1, 0)], 14: [(0, 3)],
}


def marching_squares(xs, ys, values, level):
    """Line segments approximating the contour values == level.

    Returns a list of ((x0, y0), (x1, y1)) segments, scanned row-major
    for determinism; saddle cells (cases 5 and 10) are disambiguated by
    the cell-center average; cells touching NaN are skipped.
    """
    segments = []
    v = values - level
    corner_grids = (v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1])
    cases = sum((c > 0) << bit for bit, c in enumerate(corner_grids))
    crossed = ~np.isnan(corner_grids).any(axis=0) & (cases != 0) & (cases != 15)
    for j, i, idx in zip(*np.nonzero(crossed), cases[crossed].tolist()):
        corners = (v[j, i], v[j, i + 1], v[j + 1, i + 1], v[j + 1, i])
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[j], ys[j + 1]

        def interp(a, b):
            # linear zero crossing between corner values a and b
            d = corners[a] - corners[b]
            return 0.5 if d == 0 else corners[a] / d

        def edge_point(e):
            if e == 0:
                t = interp(0, 1)
                return (x0 + t * (x1 - x0), y0)
            if e == 1:
                t = interp(1, 2)
                return (x1, y0 + t * (y1 - y0))
            if e == 2:
                t = interp(3, 2)
                return (x0 + t * (x1 - x0), y1)
            t = interp(0, 3)
            return (x0, y0 + t * (y1 - y0))

        if idx in (5, 10):
            center = 0.25 * sum(corners)
            if idx == 5:
                pairs = [(3, 0), (1, 2)] if center <= 0 else [(3, 2), (1, 0)]
            else:
                pairs = [(0, 1), (2, 3)] if center <= 0 else [(0, 3), (2, 1)]
        else:
            pairs = _CASES[idx]
        for e1, e2 in pairs:
            segments.append((edge_point(e1), edge_point(e2)))
    return segments


def default_levels(values, count):
    """Equally spaced levels strictly between the grid extremes."""
    lo = float(np.nanmin(values))
    hi = float(np.nanmax(values))
    if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, count + 2)[1:-1])


def svg_document(segment_groups, window: Window):
    """SVG 1.1 document with one polyline group per contour level.

    Deterministic: output depends only on the inputs."""
    sx = SVG_WIDTH / (window.x_max - window.x_min)
    sy = SVG_HEIGHT / (window.y_max - window.y_min)

    def to_px(pt):
        return ((pt[0] - window.x_min) * sx, (window.y_max - pt[1]) * sy)

    out = io.StringIO()
    out.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">\n'
    )
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    for gi, (label, segments) in enumerate(segment_groups):
        color = palette[gi % len(palette)]
        out.write(f'  <g id="{label}" stroke="{color}" stroke-width="1" fill="none">\n')
        for (p1, p2) in segments:
            (ax, ay), (bx, by) = to_px(p1), to_px(p2)
            out.write(
                f'    <polyline points="{ax:.3f},{ay:.3f} {bx:.3f},{by:.3f}"/>\n'
            )
        out.write("  </g>\n")
    out.write("</svg>\n")
    return out.getvalue()


def write_grid_csv(path, xs, ys, psi, phi=None):
    """RFC 4180 CSV of the sampled grid, row-major: x, y, phi (when
    given) and psi."""
    columns = [psi] if phi is None else [phi, psi]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"] + (["psi"] if phi is None else ["phi", "psi"]))
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                writer.writerow([repr(float(x)), repr(float(y))]
                                + [repr(float(col[j, i])) for col in columns])
