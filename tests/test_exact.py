"""The exact real-root and crossing-pair reference (tests/exact.py), and
cpoly.real_roots and the confirmed anti-holomorphic cycles against it."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact
from exact import multiply
from holoflow.cpoly import CPoly, real_roots
from holoflow.odeint import IntegratorConfig, Side, half_return
from holoflow.pwcycles import Verified, solve_antiholo_pair
from test_pwcycles import readme_quadratic_pair, reference_quadratic_pair


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


@st.composite
def _square_free_inputs(draw):
    """Ascending float coefficients of a square-free polynomial, one of
    three kinds. Wide: degree up to 12, distinct real roots on a 1/16
    grid in [-1, 1] and complex pairs a +- bi with b >= 1/16. Close: the
    same at degree 2 or 3, with a partner of one real root at 10^-u of
    its size (at least 1/16), u in [2, 6]. Both in units of 2^e for e in
    [-3, 3], the coefficients being the exact product rounded to floats.
    Small lead: degree up to 6, coefficients of modulus 0.1 to 1 and a
    leading one 1e-6 of the largest, so that the root bound is about
    1e6 and the isolating intervals are that wide."""
    kind = draw(st.sampled_from(["wide", "close", "lead"]))
    if kind == "lead":
        n = draw(st.integers(1, 6))
        c = [x * draw(st.sampled_from([-1, 1]))
             for x in draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))]
        return c + [draw(st.sampled_from([-1e-6, 1e-6])) * max(map(abs, c))]
    degree = 12 if kind == "wide" else 2
    grid = draw(st.lists(st.integers(-16, 16), min_size=1, max_size=degree, unique=True))
    roots = [Fraction(k, 16) for k in grid]
    pairs = draw(st.lists(st.tuples(st.integers(-16, 16), st.integers(1, 16)),
                          max_size=(degree - len(roots)) // 2))
    if kind == "close":
        r = roots[draw(st.integers(0, len(roots) - 1))]
        delta = 10.0 ** -draw(st.floats(2.0, 6.0)) * draw(st.sampled_from([-1, 1]))
        roots.append(r + Fraction(delta) * max(abs(r), Fraction(1, 16)))
    unit = Fraction(2) ** draw(st.integers(-3, 3))
    c = expand(r * unit for r in roots)
    for a, b in pairs:
        a, b = Fraction(a, 16) * unit, Fraction(b, 16) * unit
        c = multiply(c, [a * a + b * b, -2 * a, 1])
    return [float(x) for x in c]


@settings(max_examples=60, deadline=None)
@given(_square_free_inputs())
def test_real_roots_on_adversarial_square_free_inputs(c):
    # every root that the exact reference finds, and no other, each within
    # max(1e-12 max(1, |r|), 4 (n + 1) 2^-52 sum |c_k| |r|^k / |p'(r)|) of
    # the exact root r: the larger of the relative tolerance and the
    # root's condition bound, which governs the close pairs. The count
    # bisection alone (_bisect_root) meets both on these draws too. Left
    # out, as open defects of the float Sturm isolation that both share:
    # multiple roots, where the isolation can loop without end; units
    # past 2^+-3 or coefficients spanning more than 1e8, where the trim
    # of small coefficients and chain members loses roots (the scale
    # defect, ROADMAP item 14); a 1e-6 pair at degree 4 or more, or a
    # small lead at degree 7 or more, where the chain's counts can be
    # wrong (and negative: the isolation then loops); and a root within
    # 1e-9 of the Cauchy bound, which the rounded bound can fall below
    nonzero = [abs(x) for x in c if x]
    assume(max(nonzero) <= 1e8 * min(nonzero) and len(exact.square_free(c)) == len(c))
    want = exact.real_roots(c)
    cauchy = 1 + max(abs(Fraction(x) / Fraction(c[-1])) for x in c[:-1])
    assume(all(abs(w) < (1 - Fraction(1, 10 ** 9)) * cauchy for w in want))
    got = real_roots(CPoly(c))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        slope = abs(sum(k * Fraction(ck) * w ** (k - 1) for k, ck in enumerate(c) if k))
        size = sum(abs(ck) * abs(float(w)) ** k for k, ck in enumerate(c))
        bound = max(1e-12 * max(1.0, abs(float(w))), 4 * len(c) * 2.0 ** -52 * size / float(slope))
        assert abs(Fraction(float(g)) - w) <= Fraction(bound)


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


def _mp(mpmath, x):
    return mpmath.mpf(x.numerator) / x.denominator


def _pair_points(mpmath, s, q):
    """x1 > x2 = (s +- sqrt(s^2 - 4q)) / 2 in mpmath's precision, or
    None unless s^2 - 4q > 0 (a complex or a double pair)."""
    disc = s * s - 4 * q
    if disc <= 0:
        return None
    root = mpmath.sqrt(_mp(mpmath, disc))
    return (_mp(mpmath, s) + root) / 2, (_mp(mpmath, s) - root) / 2


def _divided_difference(mpmath, psi, x1, x2):
    """(c, scale): c = sum psi_k h_(k-1)(x1, x2), the divided difference
    (psi(x1) - psi(x2)) / (x1 - x2), and the same sum over |psi_k|, |x1|
    and |x2|."""
    value = scale = mpmath.mpf(0)
    for k, c in enumerate(psi[1:], 1):
        h = sum(x1 ** i * x2 ** (k - 1 - i) for i in range(k))
        h_abs = sum(abs(x1) ** i * abs(x2) ** (k - 1 - i) for i in range(k))
        value += _mp(mpmath, c) * h
        scale += abs(_mp(mpmath, c)) * h_abs
    return value, scale


def _slope(mpmath, psi, x):
    """psi'(x) = Im p(x) on the real axis."""
    return sum(k * _mp(mpmath, c) * x ** (k - 1) for k, c in enumerate(psi[1:], 1))


def _sides(pw):
    return pw.upper.p.coeffs.tolist(), pw.lower.p.coeffs.tolist()


def test_crossing_pairs_are_common_zeros():
    # the README and criterion-2 quadratic pairs and seeded draws of
    # degree 2 and 3 in criterion 4's recipe: at every real pair from
    # the exact (s, q) both divided differences vanish at 50 digits, and
    # a side degree of 2 / 3 gives at most 1 / 3 real pairs (the degree
    # of E)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2027)
    systems = [(2, _sides(readme_quadratic_pair())), (2, _sides(reference_quadratic_pair()))]
    while len(systems) < 42:
        degree = 2 + len(systems) % 2
        cu, cl = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
                  for _ in range(2))
        if min(abs(cu[-1].imag), abs(cl[-1].imag)) >= 0.05:
            systems.append((degree, (cu.tolist(), cl.tolist())))
    checked = 0
    with mpmath.workdps(50):
        for degree, (upper, lower) in systems:
            points = [_pair_points(mpmath, s, q) for s, q in exact.crossing_pairs(upper, lower)]
            points = [x for x in points if x is not None]
            assert len(points) <= {2: 1, 3: 3}[degree], (upper, lower)
            for x1, x2 in points:
                for side in (upper, lower):
                    c, scale = _divided_difference(mpmath, exact.psi_axis(side), x1, x2)
                    assert abs(c) <= 1e-40 * scale, (upper, lower)
                    checked += 1
    assert checked >= 20


@pytest.mark.parametrize("pw", [readme_quadratic_pair(), reference_quadratic_pair()],
                         ids=["readme", "criterion-2"])
def test_confirmed_cycles_match_the_exact_pairs(pw):
    # each confirmed candidate is an exact pair to 1e-12 relative, and its
    # multiplier is the exact pair's prod psi'(x) / psi'(x') to 1e-11:
    # the cycle leaves x1 into the side that its field enters there,
    # Im zdot = -psi'(x1) > 0 for the upper side, and returns on the other
    mpmath = pytest.importorskip("mpmath")
    confirmed = [c for c in solve_antiholo_pair(pw)
                 if c.verified is Verified.NUMERICALLY_CONFIRMED]
    assert len(confirmed) == 1
    upper, lower = (exact.psi_axis(side) for side in _sides(pw))
    with mpmath.workdps(50):
        points = [_pair_points(mpmath, s, q) for s, q in exact.crossing_pairs(*_sides(pw))]
        for cand in confirmed:
            x1, x2 = min((x for x in points if x is not None),
                         key=lambda x: abs(x[0] - cand.x1))
            assert abs(cand.x1 - x1) <= 1e-12 * max(1, abs(x1))
            assert abs(cand.x2 - x2) <= 1e-12 * max(1, abs(x2))
            first, second = (upper, lower) if _slope(mpmath, upper, x1) < 0 else (lower, upper)
            multiplier = (_slope(mpmath, first, x1) / _slope(mpmath, first, x2)
                          * _slope(mpmath, second, x2) / _slope(mpmath, second, x1))
            assert abs(cand.multiplier - multiplier) <= 1e-11 * max(1, abs(multiplier))


def _landing_beside(psi, x, near):
    """The exact landing from x: the root x' != x of psi(x') = psi(x)
    nearest to near, to 2^-80. ``exact.landing`` picks the root whose
    isolating interval holds near, and the criterion-2 cycle lands at
    x1 = 0.0, an interval end: a near just below 0 would pick the start."""
    x = Fraction(x)
    level = [psi[0] - sum(c * x ** k for k, c in enumerate(psi)), *psi[1:]]
    roots = exact.real_roots(level)
    roots.remove(min(roots, key=lambda r: abs(r - x)))
    return min(roots, key=lambda r: abs(r - Fraction(near)))


@pytest.mark.parametrize("pw", [readme_quadratic_pair(), reference_quadratic_pair()],
                         ids=["readme", "criterion-2"])
def test_multiplier_at_the_exact_landings(pw):
    # the confirmed candidate's multiplier is prod psi'(x) / psi'(x') over
    # its two half-returns, each x' the exact landing from the x before
    # it: from x1 into the side its field enters, then back on the other
    # side. Within 1e-13 relative (1.7e-15 measured for both)
    mpmath = pytest.importorskip("mpmath")
    cand, = (c for c in solve_antiholo_pair(pw)
             if c.verified is Verified.NUMERICALLY_CONFIRMED)
    upper, lower = (exact.psi_axis(side) for side in _sides(pw))
    first, second = (upper, lower) if pw.upper.crossing_sign(cand.x1) > 0 else (lower, upper)
    x1 = Fraction(cand.x1)
    y = _landing_beside(first, x1, cand.x2)
    z = _landing_beside(second, y, cand.x1)
    assert abs(y - Fraction(cand.x2)) <= Fraction(1e-12) and abs(z - x1) <= Fraction(1e-12)
    with mpmath.workdps(50):
        x1, y, z = (_mp(mpmath, v) for v in (x1, y, z))
        multiplier = (_slope(mpmath, first, x1) / _slope(mpmath, first, y)
                      * (_slope(mpmath, second, y) / _slope(mpmath, second, z)))
        assert abs(cand.multiplier - multiplier) <= 1e-13 * abs(multiplier)


class TestLanding:
    def test_known_landing(self):
        # psi = x^2: the orbit from x lands at -x; from 0, where
        # psi(x') - psi(0) has a double root, it lands at 0; near must sit
        # in an isolating interval
        psi = [0, 0, 1]
        assert exact.landing(psi, 1.5, -1.4) == Fraction(-3, 2)
        assert exact.landing(psi, 1.5, 1.6) == Fraction(3, 2)
        assert exact.landing(psi, 0.0, 0.1) == 0
        with pytest.raises(ValueError, match="no isolating interval"):
            exact.landing(psi, 1.5, 40.0)

    @pytest.mark.parametrize("pw", [readme_quadratic_pair(), reference_quadratic_pair()],
                             ids=["readme", "criterion-2"])
    @pytest.mark.parametrize("tol, bound", [(None, 1e-8), (1e-11, 1e-10)],
                             ids=["default", "1e-11"])
    def test_half_returns_land_at_the_exact_root(self, pw, tol, bound):
        # each half-return behind the confirmed candidate, from the end of
        # the pair that its side's field enters, lands within bound (times
        # max(1, |x'|) at the default tolerances) of the exact root of
        # psi(x') - psi(x) beside it, and that root is the pair's other end
        cfg = IntegratorConfig() if tol is None else IntegratorConfig(rel_tol=tol, abs_tol=tol)
        cand, = (c for c in solve_antiholo_pair(pw)
                 if c.verified is Verified.NUMERICALLY_CONFIRMED)
        for spec, side in ((pw.upper, Side.UPPER), (pw.lower, Side.LOWER)):
            start, end = ((cand.x1, cand.x2) if spec.crossing_sign(cand.x1) * side.value > 0
                          else (cand.x2, cand.x1))
            near = half_return(spec, start, side, cfg)
            truth = exact.landing(exact.psi_axis(spec.p.coeffs.tolist()), start, near)
            scale = max(1, abs(truth)) if tol is None else 1
            assert abs(Fraction(near) - truth) <= Fraction(bound) * scale, (near, float(truth))
            assert abs(float(truth) - end) <= 1e-6 * max(1, abs(end))
