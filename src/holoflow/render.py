"""Portrait rendering: first-integral grids, marching-squares contours
and deterministic SVG output.

Streamlines are level sets of the stream function psi (and
equipotential lines of phi); contour cells with undefined values (poles
of one piecewise side, the other half-plane of a piecewise spec) or
values past float range are skipped. Contouring is one pass over the
grid for all of a field's levels.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .potential import PotentialRep, SystemSpec, build_potential, eval_potential

SVG_WIDTH, SVG_HEIGHT = 640, 480
# on 2 shared vCPUs, `portrait --out-csv` on a 400 x 400 grid takes about
# 1 s, most of it float repr; a 128 x 128 anti-holomorphic portrait with
# 600 psi and 600 phi levels takes about 0.8 s, and a 400 x 400 one, both
# limits at once, about 2 s
MAX_GRID_NODES = 160_000
MAX_LEVELS = 600


@dataclass(frozen=True)
class Window:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        # svg_document scales by SVG_WIDTH / width and SVG_HEIGHT / height,
        # which pass float range for sides below about 3e-306
        width = float(self.x_max) - float(self.x_min)
        height = float(self.y_max) - float(self.y_min)
        if not (0 < width < math.inf and SVG_WIDTH / width < math.inf
                and 0 < height < math.inf and SVG_HEIGHT / height < math.inf):
            raise ValueError("window must be nondegenerate and of finite size")


def check_grid(nx: int, ny: int):
    """(nx, ny); ValueError unless nx, ny >= 2 and nx * ny <= MAX_GRID_NODES."""
    if nx < 2 or ny < 2:
        raise ValueError("grid dimensions must be >= 2")
    if nx * ny > MAX_GRID_NODES:
        raise ValueError(f"grid nodes nx * ny must be <= {MAX_GRID_NODES}")
    return nx, ny


def check_level_count(count: int):
    """count; ValueError for a level count outside 1..MAX_LEVELS."""
    if not 1 <= count <= MAX_LEVELS:
        raise ValueError(f"level count must be between 1 and {MAX_LEVELS}")
    return count


def _grid(window: Window, nx: int, ny: int):
    """(xs, ys, z) of a regular grid with z[j, i] = complex(xs[i], ys[j]),
    signed zeros included (1j * ys would turn -0.0 into 0.0)."""
    check_grid(nx, ny)
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
    rep_up, rep_lo = build_potential(upper), build_potential(lower)
    xs, ys, z = _grid(window, nx, ny)
    psi_up = eval_potential(rep_up, z).imag
    psi_lo = eval_potential(rep_lo, z).imag
    return xs, ys, np.where(ys[:, None] >= 0, psi_up, psi_lo)


# marching-squares edge pairs per [cell center above the level, 4-bit
# cell index]: a cell draws one segment per edge pair, and (-1, -1) pads
# the cells that draw one segment. Corners are numbered 0:(0,0) 1:(1,0)
# 2:(1,1) 3:(0,1) in cell coordinates, edges 0..3 are bottom, right,
# top, left. Only the saddle cases 5 and 10 depend on the cell center.
_NONE = (-1, -1)
_EDGE_TABLE = np.array(2 * [[
    [_NONE, _NONE], [(3, 0), _NONE], [(0, 1), _NONE], [(3, 1), _NONE],
    [(1, 2), _NONE], [(3, 0), (1, 2)], [(0, 2), _NONE], [(3, 2), _NONE],
    [(2, 3), _NONE], [(2, 0), _NONE], [(0, 1), (2, 3)], [(2, 1), _NONE],
    [(1, 3), _NONE], [(1, 0), _NONE], [(0, 3), _NONE], [_NONE, _NONE],
]])
_EDGE_TABLE[1, 5] = [(3, 2), (1, 0)]
_EDGE_TABLE[1, 10] = [(0, 3), (2, 1)]


def marching_squares(xs, ys, values, levels):
    """Line segments approximating the contours values == level: one
    (n, 2, 2) float array of segments ((x0, y0), (x1, y1)) per level of
    the sequence `levels`, in the order given.

    Contouring is one pass over the grid for all levels (span space,
    Livnat, Shen & Johnson 1996): each cell's corner extremes pick the
    levels it crosses, min <= level < max, and those (cell, level) pairs
    are drawn in blocks of consecutive sorted levels whose crossing
    points take no more floats than the grid has nodes, unless one level
    alone crosses more cells. Each level's segments are scanned
    row-major for determinism, a saddle cell's two segments in turn;
    saddle cells (cases 5 and 10) are disambiguated by the cell-center
    average; cells touching NaN or inf are skipped, and so are those
    where a corner minus the level passes float range.
    """
    levels = np.asarray(levels, dtype=float)
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    n = len(levels)
    nx = values.shape[1]
    corner_grids = (values[:-1, :-1], values[:-1, 1:], values[1:, 1:], values[1:, :-1])
    low = np.minimum(np.minimum(*corner_grids[:2]), np.minimum(*corner_grids[2:])).ravel()
    high = np.maximum(np.maximum(*corner_grids[:2]), np.maximum(*corner_grids[2:])).ravel()
    # cell c crosses the sorted levels lo[c] <= k < hi[c]; a cell
    # touching NaN or inf (a non-finite extreme) crosses none
    lo = np.searchsorted(sorted_levels, low)
    hi = np.where(np.isfinite(low) & np.isfinite(high), np.searchsorted(sorted_levels, high), lo)
    level_pairs = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))[:n]
    pair_ends = np.concatenate(([0], np.cumsum(level_pairs)))
    corner_offsets = np.array([[0], [1], [nx + 1], [nx]])
    # a pair's crossing points are 4 edges x 2 coordinates: a block's
    # points then weigh no more than one grid field, as the temporaries
    # of a pass over the grid do
    block_pairs = values.size // 8
    contours = [None] * n
    start = 0
    while start < n:
        last = int(np.searchsorted(pair_ends, pair_ends[start] + block_pairs, side="right")) - 1
        stop = max(last, start + 1)
        cells = np.flatnonzero((lo < stop) & (hi > start))
        first = np.maximum(lo[cells], start)
        count = np.minimum(hi[cells], stop) - first
        cell = np.repeat(cells, count)
        k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count - first, count)
        # level-major; the stable sort keeps each level's cells row-major
        by_level = np.argsort(k, kind="stable")
        k, cell = k[by_level], cell[by_level]
        node = cell + cell // (nx - 1)  # the cell's corner 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = values.ravel()[node + corner_offsets] - sorted_levels[k]
            crossed = np.isfinite(v).all(axis=0)
            k, node = k[crossed], node[crossed]
            c0, c1, c2, c3 = v[:, crossed]
            cases = sum((c > 0) << bit for bit, c in enumerate((c0, c1, c2, c3)))
            j, i = np.divmod(node, nx)
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]

            def interp(a, b):
                # linear zero crossing between corner values a and b
                d = a - b
                return np.where(d == 0, 0.5, a / d)

            # the crossing point on each edge of each crossed cell
            points = np.empty((len(i), 4, 2))
            points[:, 0, 0] = x0 + interp(c0, c1) * (x1 - x0)
            points[:, 0, 1] = y0
            points[:, 1, 0] = x1
            points[:, 1, 1] = y0 + interp(c1, c2) * (y1 - y0)
            points[:, 2, 0] = x0 + interp(c3, c2) * (x1 - x0)
            points[:, 2, 1] = y1
            points[:, 3, 0] = x0
            points[:, 3, 1] = y0 + interp(c0, c3) * (y1 - y0)
            center = 0.25 * (((c0 + c1) + c2) + c3)
        edges = _EDGE_TABLE[np.where(center <= 0, 0, 1), cases].reshape(-1, 2)
        drawn = edges[:, 0] >= 0
        pair = np.repeat(np.arange(len(i)), 2)[drawn]
        segments = points[pair[:, None], edges[drawn]]
        per_level = np.bincount(k[pair] - start, minlength=stop - start)
        for offset, level_segments in enumerate(np.split(segments, np.cumsum(per_level)[:-1])):
            contours[order[start + offset]] = level_segments
        start = stop
    return contours


def default_levels(values, count):
    """Equally spaced levels strictly between the extremes of the finite
    values; none if there is no finite value. Raises ValueError for a
    count outside 1..MAX_LEVELS."""
    check_level_count(count)
    finite = values[np.isfinite(values)]
    if not finite.size:
        return []
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        return [lo]
    if hi - lo < math.inf:
        return list(np.linspace(lo, hi, count + 2)[1:-1])
    # hi - lo passes float range: space the halves, then double them
    return list(2.0 * np.linspace(0.5 * lo, 0.5 * hi, count + 2)[1:-1])


def svg_document(segment_groups, window: Window):
    """SVG 1.1 document with one polyline group per contour level.

    Deterministic: output depends only on the inputs."""
    sx = SVG_WIDTH / (window.x_max - window.x_min)
    sy = SVG_HEIGHT / (window.y_max - window.y_min)
    out = io.StringIO()
    out.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">\n'
    )
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    polyline = '    <polyline points="%.3f,%.3f %.3f,%.3f"/>\n'
    for gi, (label, segments) in enumerate(segment_groups):
        color = palette[gi % len(palette)]
        out.write(f'  <g id="{label}" stroke="{color}" stroke-width="1" fill="none">\n')
        pts = np.asarray(segments, dtype=float).reshape(-1, 2)
        px = np.column_stack(((pts[:, 0] - window.x_min) * sx, (window.y_max - pts[:, 1]) * sy))
        out.write(polyline * (len(pts) // 2) % tuple(px.ravel().tolist()))
        out.write("  </g>\n")
    out.write("</svg>\n")
    return out.getvalue()


def write_grid_csv(path, xs, ys, psi, phi=None):
    """RFC 4180 CSV of the sampled grid, row-major: x, y, phi (when
    given) and psi. Float reprs need no quoting."""
    header = ["x", "y"] + (["psi"] if phi is None else ["phi", "psi"])
    columns = [np.tile(xs, len(ys)), np.repeat(ys, len(xs))]
    columns += [psi] if phi is None else [phi, psi]
    cells = [map(repr, np.asarray(col, dtype=float).ravel().tolist()) for col in columns]
    rows = map(",".join, zip(*cells))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *rows, ""]))
