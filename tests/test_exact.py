"""The exact real-root reference (tests/exact.py), and cpoly.real_roots
against it."""

import math
from fractions import Fraction

import numpy as np
import pytest

import exact
from holoflow.cpoly import CPoly, real_roots


def multiply(a, b):
    """The product of two ascending coefficient lists, exactly."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def expand(roots):
    """Ascending Fraction coefficients of prod (x - r) over the roots."""
    c = [Fraction(1)]
    for r in roots:
        c = multiply(c, [-Fraction(r), 1])
    return c


class TestExactReference:
    @pytest.mark.parametrize("roots, distinct", [
        ([3], [3]),
        ([1, 1, 1, 2, Fraction(-1, 2), Fraction(-1, 2)], [Fraction(-1, 2), 1, 2]),
        ([2, 2, -1, -1, -1, 5], [-1, 2, 5]),
        ([1, 1, 2, 2, 2, 3, 3, 3], [1, 2, 3]),
        ([0, 0, 0], [0]),
        ([Fraction(11, 4)] * 3 + [Fraction(3)] * 3 + [Fraction(5, 2), Fraction(3, 2)],
         [Fraction(3, 2), Fraction(5, 2), Fraction(11, 4), 3]),
        ([Fraction(1, 10 ** 6), Fraction(-1, 10 ** 6), Fraction(1, 10 ** 6)],
         [Fraction(-1, 10 ** 6), Fraction(1, 10 ** 6)]),
    ], ids=["linear", "hang-named", "lost-root-named", "four-roots-named", "triple-zero",
            "close-triples", "small"])
    def test_known_root_sets(self, roots, distinct):
        c = expand(roots)
        assert len(exact.isolate(c)) == len(distinct)
        assert len(exact.square_free(c)) - 1 == len(distinct)
        got = exact.real_roots(c)
        for g, r in zip(got, distinct):
            assert abs(g - r) <= Fraction(1, 2 ** 80) * max(1, abs(r))

    def test_complex_roots_are_not_counted(self):
        # (x^2 + 1)^2 (x^2 - 2) (x - 1/3)^3: three distinct real roots
        c = expand([Fraction(1, 3)] * 3)
        for factor in ([1, 0, 1], [1, 0, 1], [-2, 0, 1]):
            c = multiply(c, factor)
        got = exact.real_roots(c)
        assert len(got) == 3
        assert abs(got[1] - Fraction(1, 3)) <= Fraction(1, 2 ** 80)
        sqrt2 = Fraction(math.sqrt(2))
        assert abs(got[2] - sqrt2) <= Fraction(1, 2 ** 52)
        assert abs(got[0] + sqrt2) <= Fraction(1, 2 ** 52)

    def test_intervals_hold_their_root(self):
        roots = [Fraction(-7, 4), Fraction(1, 3), Fraction(1, 3), Fraction(5, 2)]
        for (na, nb, k), r in zip(exact.isolate(expand(roots)), sorted(set(roots))):
            assert Fraction(na, 1 << k) < r <= Fraction(nb, 1 << k)

    def test_constants_and_zero(self):
        assert exact.real_roots([5]) == []
        assert exact.real_roots([1, 0, 1]) == []
        with pytest.raises(ValueError):
            exact.real_roots([0, 0])

    def test_scale_does_not_change_the_roots(self):
        c = expand([Fraction(-3, 2), Fraction(1, 4), Fraction(1, 4), 2])
        want = exact.real_roots(c)
        for scale in (Fraction(1, 10 ** 300), Fraction(10 ** 300), -7):
            assert exact.real_roots([scale * x for x in c]) == want


def test_real_roots_match_the_exact_isolation():
    # random float coefficients of degree 1-9 (simple roots with
    # probability 1) and products of up to 9 distinct roots: every root
    # found, each within 1e-12 relative (to max(1, |root|)) of the exact
    # root of the float coefficients that real_roots was given
    rng = np.random.default_rng(20261019)
    polys = [rng.normal(size=int(rng.integers(2, 11))) * 10.0 ** rng.uniform(-8, 8)
             for _ in range(40)]
    for _ in range(40):
        k = int(rng.integers(1, 10))
        roots = rng.uniform(-3, 3, k)
        if np.min(np.diff(np.sort(roots)), initial=1.0) > 1e-3:
            polys.append(CPoly.from_roots(roots).coeffs.real)
    assert len(polys) > 60
    for c in polys:
        want = exact.real_roots(c.tolist())
        got = real_roots(CPoly(c))
        assert len(got) == len(want), c
        for g, w in zip(got, want):
            assert abs(Fraction(float(g)) - w) <= Fraction(1e-12) * max(1, abs(w)), c


def test_isolated_roots_match_mpmath():
    # a seeded sample of square-free polynomials of degree 1-9 with
    # coefficients scaled by 1e-8 to 1e8: a 50-digit mpmath Newton run
    # started at each root that the exact reference isolates stays in
    # its isolating interval and within the reference's 2^-80 width
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    polys = [(rng.normal(size=int(rng.integers(2, 11))) * 10.0 ** rng.uniform(-8, 8)).tolist()
             for _ in range(20)]
    found = 0
    with mpmath.workdps(50):
        for c in polys:
            assert len(exact.square_free(c)) == len(c)
            descending = [mpmath.mpf(x) for x in reversed(c)]
            roots = exact.real_roots(c)
            intervals = exact.isolate(c)
            assert len(roots) == len(intervals)
            for (na, nb, k), r in zip(intervals, roots):
                start = mpmath.mpf(r.numerator) / r.denominator
                z = mpmath.findroot(lambda x: mpmath.polyval(descending, x), start)
                assert mpmath.mpf(na) / 2 ** k < z <= mpmath.mpf(nb) / 2 ** k, c
                assert abs(z - start) <= mpmath.mpf(2) ** -80 * max(1, abs(start)), c
                found += 1
    assert found >= 20
