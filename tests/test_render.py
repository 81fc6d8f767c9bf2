import numpy as np
import pytest

from holoflow.render import _CASES, Window, default_levels, marching_squares, potential_grid
from holoflow.potential import build_potential, holomorphic


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


def assert_same_segments(xs, ys, values, level):
    # repr is exact for floats and tells -0.0 and NaN apart
    got = marching_squares(xs, ys, values, level)
    assert repr(got) == repr(reference_marching_squares(xs, ys, values, level))
    return got


def _cases(values, level):
    v = values - level
    corners = (v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1])
    return sum((c > 0) << bit for bit, c in enumerate(corners))


class TestMarchingSquares:
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
        with np.errstate(invalid="ignore"):
            for level in (0.25, 0.0, -0.7):
                assert assert_same_segments(xs, ys, values, level)

    def test_saddle_cases(self):
        xs = np.arange(6.0)
        ys = np.arange(5.0)
        values = np.tile([[1.0, -1.0], [-1.0, 1.0]], (3, 3))[:5, :6]
        values[2, 2] = 3.0  # tips some saddle centers above the level
        cases = _cases(values, 0.0)
        assert {5, 10} <= set(cases.ravel().tolist())
        got = assert_same_segments(xs, ys, values, 0.0)
        assert len(got) == 2 * (len(ys) - 1) * (len(xs) - 1)

    def test_potential_grid_with_poles(self):
        # zdot = z^2 (z - 1): nodes fall exactly on both poles
        rep = build_potential(holomorphic([0, 0, -1, 1]))
        xs, ys, phi, psi = potential_grid(rep, Window(-2, 2, -2, 2), 17, 17)
        assert np.isnan(psi).sum() == 2
        for values in (phi, psi):
            for level in np.linspace(np.nanmin(values), np.nanmax(values), 7)[1:-1]:
                assert_same_segments(xs, ys, values, level)

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
