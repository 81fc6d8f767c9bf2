import math

import numpy as np
import pytest

from holoflow.classify import (
    EquilibriumType,
    REGION_TABLE,
    _cubic_label,
    bernoulli_portrait,
    classify_cubic,
    classify_equilibria,
    euler_jacobi_residual,
    infinity_equilibria,
)
from holoflow.cpoly import CPoly
from holoflow.errors import MultipleRoot, NonConvergence, UnclassifiedConfiguration, ZeroAlpha

# the ten reference cubics z^3 + A1 z + A0 and their portraits:
# label, A1, A0, (center, sepal, alpha-omega) region counts
GOLDEN = [
    ("a", -1j, 0, (3, 0, 0)),
    ("b", -1, 0, (0, 0, 2)),
    ("c", 0, 0, (0, 4, 0)),
    ("d", 4 + 6j, 4 - 12j, (0, 0, 2)),
    ("e", -3j, math.sqrt(2) * (-1 + 1j), (1, 2, 0)),
    ("f", -3, 2, (0, 2, 1)),
    ("g", 9 - 12j, -22 - 4j, (0, 2, 1)),
    ("h", 3j, 5 - 5j, (1, 0, 1)),
    ("i", 0.25, -1.25, (0, 0, 2)),
    ("j", -343 / 7500 + 1152 / 625 * 1j,
     -1542592 / 1687500 - 1433619 / 1687500 * 1j, (1, 0, 1)),
]


class TestEquilibria:
    def test_three_centers(self):
        infos = classify_equilibria(CPoly([0, -1j, 0, 1]))
        assert all(e.etype is EquilibriumType.CENTER for e in infos)
        assert all(abs(e.lam.real) < 1e-12 for e in infos)

    def test_three_nodes(self):
        infos = classify_equilibria(CPoly([0, -1, 0, 1]))
        by_loc = {round(e.location.real): e for e in infos}
        assert by_loc[0].etype is EquilibriumType.ATTRACTING_NODE
        assert by_loc[0].lam == pytest.approx(-1)
        assert by_loc[1].etype is EquilibriumType.REPELLING_NODE
        assert by_loc[1].lam == pytest.approx(2)
        assert by_loc[-1].etype is EquilibriumType.REPELLING_NODE

    def test_node_plus_double(self):
        infos = classify_equilibria(CPoly([2, -3, 0, 1]))
        simple = next(e for e in infos if e.multiplicity == 1)
        double = next(e for e in infos if e.multiplicity == 2)
        assert simple.etype is EquilibriumType.REPELLING_NODE
        assert simple.lam == pytest.approx(9)
        assert simple.location == pytest.approx(-2)
        assert double.etype is EquilibriumType.MULTIPLE
        assert double.location == pytest.approx(1, abs=1e-6)


class TestEulerJacobi:
    def test_explicit_cubic(self):
        # 1/p'(0) + 1/p'(1) + 1/p'(-1) = -1 + 1/2 + 1/2 = 0
        assert euler_jacobi_residual(CPoly([0, -1, 0, 1])) < 1e-14

    def test_three_center_cubic(self):
        assert euler_jacobi_residual(CPoly([0, -1j, 0, 1])) < 1e-10

    def test_random_monic_centered(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            a1 = complex(rng.normal(), rng.normal())
            a0 = complex(rng.normal(), rng.normal())
            assert euler_jacobi_residual(CPoly([a0, a1, 0, 1])) < 1e-8

    def test_multiple_root_raises(self):
        with pytest.raises(MultipleRoot):
            euler_jacobi_residual(CPoly([2, -3, 0, 1]))


class TestInfinity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_count_angles_determinants(self, n):
        eqs = infinity_equilibria(n)
        assert len(eqs) == 2 * (n - 1)
        for k, eq in enumerate(eqs):
            assert eq.index == k
            assert eq.angle == pytest.approx(k * math.pi / (n - 1))
            assert eq.saddle_det < 0
            # vertical angles are computed in the U2 chart where the
            # slope is cot(angle) = 0
            tan = math.tan(eq.angle)
            if abs(math.cos(eq.angle)) >= abs(math.sin(eq.angle)):
                expected = -(n - 1) * (1 + tan * tan) ** (n - 1)
                assert eq.saddle_det == pytest.approx(expected, rel=1e-12)
            else:
                cot = 1.0 / tan if tan != 0 else 0.0
                expected = -(n - 1) * (1 + cot * cot) ** (n - 1)
                assert eq.saddle_det == pytest.approx(expected, rel=1e-9)

    def test_cubic_four_saddles(self):
        eqs = infinity_equilibria(3)
        angles = [eq.angle for eq in eqs]
        np.testing.assert_allclose(angles, [0, math.pi / 2, math.pi, 3 * math.pi / 2])
        np.testing.assert_allclose([eq.saddle_det for eq in eqs], [-2, -2, -2, -2])

    def test_degree_two(self):
        eqs = infinity_equilibria(2)
        np.testing.assert_allclose([eq.angle for eq in eqs], [0, math.pi])

    def test_determinant_past_float_range_raises(self):
        # -(n-1) (1 + slope^2)^(n-1) first passes float range at n = 1017;
        # at n = 1028 the power itself overflows
        assert all(math.isfinite(eq.saddle_det) for eq in infinity_equilibria(1016))
        for n in (1017, 1028):
            with pytest.raises(NonConvergence):
                infinity_equilibria(n)


class TestCubicGoldenTable:
    @pytest.mark.parametrize("label,a1,a0,regions", GOLDEN)
    def test_reference_systems(self, label, a1, a0, regions):
        portrait = classify_cubic(a1, a0)
        assert portrait.config_label == label
        assert (portrait.center_regions, portrait.sepal_regions,
                portrait.alpha_omega_regions) == regions
        assert portrait.total_regions in (2, 3, 4)

    def test_golden_runtime(self):
        import time

        start = time.perf_counter()
        for label, a1, a0, _ in GOLDEN:
            classify_cubic(a1, a0)
        assert time.perf_counter() - start < 1.0

    def test_stability_details(self):
        # (d): one attracting and two repelling foci
        portrait = classify_cubic(4 + 6j, 4 - 12j)
        kinds = sorted(e.etype.value for e in portrait.equilibria)
        assert kinds == ["attracting_focus", "repelling_focus", "repelling_focus"]
        # (i): two attracting foci and one repelling node
        portrait = classify_cubic(0.25, -1.25)
        kinds = sorted(e.etype.value for e in portrait.equilibria)
        assert kinds == ["attracting_focus", "attracting_focus", "repelling_node"]

    def test_region_count_sets(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            a1 = complex(rng.normal(), rng.normal())
            a0 = complex(rng.normal(), rng.normal())
            try:
                portrait = classify_cubic(a1, a0)
            except UnclassifiedConfiguration:
                continue
            assert portrait.center_regions in (0, 1, 3)
            assert portrait.sepal_regions in (0, 2, 4)
            assert portrait.alpha_omega_regions in (0, 1, 2)
            assert portrait.total_regions in (2, 3, 4)
            # Euler-Jacobi exclusion: two centers force a third
            centers = sum(1 for e in portrait.equilibria
                          if e.etype is EquilibriumType.CENTER)
            assert centers != 2

    def test_unclassified_multiset(self):
        from holoflow.classify import EquilibriumInfo

        # a center plus two nodes violates the Euler-Jacobi constraints
        # and matches no known configuration
        fake = (
            EquilibriumInfo(0j, 1, 1j, EquilibriumType.CENTER),
            EquilibriumInfo(1 + 0j, 1, 1.0 + 0j, EquilibriumType.REPELLING_NODE),
            EquilibriumInfo(-1 + 0j, 1, -1.0 + 0j, EquilibriumType.ATTRACTING_NODE),
        )
        with pytest.raises(UnclassifiedConfiguration):
            _cubic_label(fake)

    def test_small_cubic_three_nodes(self):
        # z^3 - a z, a > 0, has three simple real roots, 0 and +-sqrt(a),
        # at every scale; none of them is a double equilibrium
        for a1 in (-1e-7, -1e-6, -5e-5, -0.5):
            portrait = classify_cubic(a1, 0)
            assert portrait.config_label == "b"
            assert [e.multiplicity for e in portrait.equilibria] == [1, 1, 1]

    def test_region_table_complete(self):
        assert sorted(REGION_TABLE) == list("abcdefghij")


class TestBernoulli:
    def test_n3_real_alpha(self):
        portrait = bernoulli_portrait(3, 1.0)
        locs = sorted(e.location.real for e in portrait.equilibria)
        np.testing.assert_allclose(locs, [-1, 0, 1], atol=1e-12)
        assert portrait.alpha_omega_regions == 2
        assert portrait.center_regions == 0
        origin = next(e for e in portrait.equilibria if abs(e.location) < 1e-9)
        assert origin.etype is EquilibriumType.ATTRACTING_NODE

    def test_n3_imaginary_alpha(self):
        portrait = bernoulli_portrait(3, 1j)
        assert all(e.etype is EquilibriumType.CENTER for e in portrait.equilibria)
        assert portrait.center_regions == 3

    def test_n4_imaginary_alpha(self):
        # zdot = z^4 + iz corresponds to alpha = -i
        portrait = bernoulli_portrait(4, -1j)
        assert portrait.center_regions == 4
        assert portrait.alpha_omega_regions == 0
        assert len(portrait.equilibria) == 4

    def test_ring_radius(self):
        alpha = 0.3 + 0.4j
        portrait = bernoulli_portrait(4, alpha)
        ring = [e for e in portrait.equilibria if abs(e.location) > 1e-9]
        assert len(ring) == 3
        for e in ring:
            assert abs(e.location) == pytest.approx(abs(alpha) ** (1 / 3))
            assert e.lam == pytest.approx(3 * alpha)
            # the ring points are roots of z**(n-1) = alpha
            assert e.location ** 3 == pytest.approx(alpha)

    def test_attractor_flip(self):
        portrait = bernoulli_portrait(3, -2.0)
        origin = next(e for e in portrait.equilibria if abs(e.location) < 1e-9)
        assert origin.etype is EquilibriumType.REPELLING_NODE
        ring = [e for e in portrait.equilibria if abs(e.location) > 1e-9]
        assert all(e.etype is EquilibriumType.ATTRACTING_NODE for e in ring)

    def test_zero_alpha(self):
        with pytest.raises(ZeroAlpha):
            bernoulli_portrait(3, 0.0)

    def test_infinity_attached(self):
        portrait = bernoulli_portrait(5, 2.0)
        assert len(portrait.infinity) == 8
