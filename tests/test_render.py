import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoflow.render import (
    SVG_HEIGHT,
    SVG_WIDTH,
    Window,
    default_levels,
    marching_squares,
    potential_grid,
    svg_document,
    write_grid_csv,
)
from holoflow.potential import build_potential, holomorphic

# the references below are the per-cell and per-segment loops that the
# whole-array render code replaced; its output must match them exactly

# marching-squares edge pairs per 4-bit cell index; corners are numbered
# 0:(0,0) 1:(1,0) 2:(1,1) 3:(0,1) in cell coordinates, edges 0..3 are
# bottom, right, top, left
_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)],
    9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)],
    13: [(1, 0)], 14: [(0, 3)],
}


def reference_marching_squares(xs, ys, values, level):
    """The per-cell loop marching_squares replaced; segments must match
    it exactly."""
    segments = []
    v = values - level
    ny, nx = v.shape
    for j in range(ny - 1):
        for i in range(nx - 1):
            corners = (v[j, i], v[j, i + 1], v[j + 1, i + 1], v[j + 1, i])
            if not all(np.isfinite(c) for c in corners):
                continue
            idx = 0
            for bit, c in enumerate(corners):
                if c > 0:
                    idx |= 1 << bit
            if idx in (0, 15):
                continue
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]

            def interp(a, b):
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


def reference_svg_document(segment_groups, window):
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


def reference_write_grid_csv(path, xs, ys, psi, phi=None):
    columns = [psi] if phi is None else [phi, psi]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"] + (["psi"] if phi is None else ["phi", "psi"]))
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                writer.writerow([repr(float(x)), repr(float(y))]
                                + [repr(float(col[j, i])) for col in columns])


def assert_same_segments(xs, ys, values, levels):
    """marching_squares' contours of levels, checked level by level
    against the reference."""
    contours = marching_squares(xs, ys, values, levels)
    assert len(contours) == len(levels)
    for level, got in zip(levels, contours):
        with np.errstate(all="ignore"):
            want = reference_marching_squares(xs, ys, values, level)
        # float.hex is exact and tells -0.0 and NaN apart
        assert np.shape(got) == (len(want), 2, 2)
        assert ([float(c).hex() for seg in got for pt in seg for c in pt]
                == [float(c).hex() for seg in want for pt in seg for c in pt])
    return contours


def _cases(values, level):
    v = values - level
    corners = (v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1])
    return sum((c > 0) << bit for bit, c in enumerate(corners))


def _adversarial_grid(seed):
    """(xs, ys, values) with saddle cells, NaN, infinite and -0.0
    values, and corners on the level 0.25."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-2, 2, 23))
    ys = np.linspace(-2, 2, 17)
    ys[8] = -0.0
    values = rng.normal(size=(17, 23))
    values[rng.random(values.shape) < 0.1] = np.nan
    values[rng.random(values.shape) < 0.1] = 0.25
    values[rng.random(values.shape) < 0.05] = -0.0
    values[3, 4], values[3, 5] = np.inf, -np.inf
    assert {5, 10} <= set(_cases(values, 0.0).ravel().tolist())
    return xs, ys, values


class TestOutputBytes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_svg_matches_reference(self, seed):
        xs, ys, values = _adversarial_grid(seed)
        window = Window(xs[0], xs[-1], ys[0], ys[-1])
        levels = (0.25, 0.0, -0.0, -0.7, 1e3)  # the last crosses no cell
        got = [(f"psi-level-{li}", segments)
               for li, segments in enumerate(marching_squares(xs, ys, values, levels))]
        with np.errstate(invalid="ignore"):
            want = [(f"psi-level-{li}", reference_marching_squares(xs, ys, values, level))
                    for li, level in enumerate(levels)]
        assert not len(got[-1][1])
        assert svg_document(got, window).encode() == reference_svg_document(want, window).encode()

    @pytest.mark.parametrize("with_phi", [False, True])
    def test_grid_csv_matches_reference(self, tmp_path, with_phi):
        xs, ys, psi = _adversarial_grid(3)
        phi = -psi[::-1] if with_phi else None
        write_grid_csv(tmp_path / "got.csv", xs, ys, psi, phi)
        reference_write_grid_csv(tmp_path / "want.csv", xs, ys, psi, phi)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_window_too_narrow_to_scale(self):
        # 1.1e-308 high: SVG_HEIGHT / 1.1e-308 passes float range, and the
        # SVG got inf coordinates
        with pytest.raises(ValueError, match="nondegenerate"):
            Window(0.0, 1.0, 0.0, 1.1e-308)
        with pytest.raises(ValueError, match="nondegenerate"):
            Window(np.float64(0.0), np.float64(1e-308), 0.0, 1.0)
        window = Window(0.0, 1.0, 0.0, 1e-305)
        svg = svg_document([("psi-level-0", [((0.0, 0.0), (1.0, 1e-305))])], window)
        assert '<polyline points="0.000,480.000 640.000,0.000"/>' in svg


# corners whose cells are skipped (NaN, +-inf), whose differences pass
# float range (+-1.7e308), or that are signed zeros
_SPECIAL_VALUES = [np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, 0.0, -0.0]


@st.composite
def _contour_inputs(draw):
    """(xs, ys, values, levels): a grid of up to 6 x 6 nodes with special
    corners, and an unsorted level list, empty on some draws, with
    repeats, node values and signed zeros."""
    nx, ny = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    xs, ys = (np.sort(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n, unique=True)))
              for n in (nx, ny))
    nodes = draw(st.lists(st.one_of(st.floats(-3, 3), st.sampled_from(_SPECIAL_VALUES)),
                          min_size=nx * ny, max_size=nx * ny))
    level = st.one_of(st.sampled_from(nodes), st.sampled_from([0.0, -0.0]), st.floats(-4, 4))
    levels = draw(st.lists(level, max_size=40))
    levels += draw(st.lists(st.sampled_from(levels), max_size=5)) if levels else []
    return xs, ys, np.array(nodes).reshape(ny, nx), levels


class TestMarchingSquares:
    # the 2 x 2 grid's one cell crosses more levels than a block's
    # nx * ny = 4 pairs hold
    @example(inputs=(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                     np.array([[0.0, 1.0], [3.0, 2.0]]),
                     [2.5, 0.5, 1.5, 0.5, 1.0, 2.0, 0.0, -0.0, 3.0]))
    @settings(max_examples=300, deadline=None)
    @given(inputs=_contour_inputs())
    def test_all_levels_match_reference(self, inputs):
        xs, ys, values, levels = inputs
        got = assert_same_segments(xs, ys, values, levels)
        # the range the nodes are drawn from: a grid's own span can be too
        # narrow for a window (test_window_too_narrow_to_scale)
        window = Window(-2, 2, -2, 2)
        with np.errstate(all="ignore"):
            want = [reference_marching_squares(xs, ys, values, level) for level in levels]
        assert (svg_document(list(enumerate(got)), window).encode()
                == reference_svg_document(list(enumerate(want)), window).encode())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_with_nan_holes(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-2, 2, 23))
        ys = np.sort(rng.uniform(-2, 2, 17))
        values = rng.normal(size=(17, 23))
        values[rng.random(values.shape) < 0.1] = np.nan
        # corners exactly on the level, and infinities of both signs,
        # whose cells are skipped as NaN's are
        values[rng.random(values.shape) < 0.1] = 0.25
        values[3, 4], values[3, 5] = np.inf, -np.inf
        assert all(map(len, assert_same_segments(xs, ys, values, [0.25, 0.0, -0.7])))

    def test_saddle_cases(self):
        xs = np.arange(6.0)
        ys = np.arange(5.0)
        values = np.tile([[1.0, -1.0], [-1.0, 1.0]], (3, 3))[:5, :6]
        values[2, 2] = 3.0  # tips some saddle centers above the level
        cases = _cases(values, 0.0)
        assert {5, 10} <= set(cases.ravel().tolist())
        (got,) = assert_same_segments(xs, ys, values, [0.0])
        assert len(got) == 2 * (len(ys) - 1) * (len(xs) - 1)

    def test_potential_grid_with_poles(self):
        # zdot = z^2 (z - 1): nodes fall exactly on both poles
        rep = build_potential(holomorphic([0, 0, -1, 1]))
        xs, ys, phi, psi = potential_grid(rep, Window(-2, 2, -2, 2), 17, 17)
        assert np.isnan(psi).sum() == 2
        for values in (phi, psi):
            levels = np.linspace(np.nanmin(values), np.nanmax(values), 7)[1:-1]
            assert_same_segments(xs, ys, values, list(levels))

    def test_grid_needs_two_nodes_each_way(self):
        rep = build_potential(holomorphic([0, 1]))
        with pytest.raises(ValueError):
            potential_grid(rep, Window(-1, 1, -1, 1), 1, 5)


class TestDefaultLevels:
    def test_levels_come_from_finite_values(self):
        values = np.array([[-np.inf, 1.0, np.nan], [2.0, 4.0, np.inf]])
        assert default_levels(values, 2) == [2.0, 3.0]

    def test_range_past_float_range_gives_finite_levels(self):
        levels = default_levels(np.array([[-1.5e308, 1.5e308]]), 3)
        assert levels == [-0.75e308, 0.0, 0.75e308]

    def test_no_finite_value_gives_no_level(self):
        assert default_levels(np.array([[np.nan, np.inf], [-np.inf, np.nan]]), 4) == []
