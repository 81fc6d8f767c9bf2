import math
import time
import warnings

import numpy as np
import pytest

from holoflow.cpoly import CPoly
from holoflow.errors import (
    CenterContinuum,
    ContinuumDetected,
    DegenerateLeadingCoefficient,
    DegreeUnsupported,
    HypothesisViolation,
    NonConvergence,
)
from holoflow import odeint, pwcycles
from holoflow.odeint import return_map
from holoflow.potential import anti_holomorphic, build_potential, first_integral
from holoflow.pwcycles import (
    CONFIRM_TOL,
    Crossing,
    MixedGeneralConstants,
    MixedLinearSpec,
    PiecewiseSpec,
    Stability,
    Verified,
    candidate_bound,
    crossing_pair_polynomial,
    crossing_transversality,
    mixed_linear_pair,
    solve_antiholo_pair,
    solve_mixed_general,
    solve_mixed_linear_on_sigma,
)

S33 = math.sqrt(33.0)

# instances whose behavior was pinned down by direct integration sweeps:
# a stable crossing cycle ...
STABLE_CYCLE = MixedLinearSpec(1.413612, -1.064242, -1.766789, -0.874464,
                               -0.619219, 0.485750)
# ... an unstable one ...
UNSTABLE_CYCLE = MixedLinearSpec(-0.552750, -1.649400, -1.527976, 1.847591,
                                 1.225742, 0.599121)
# ... and one whose candidate pair fails the orientation conditions
# (no closed orbit anywhere: confirmed by a full return-map sweep)
NO_CYCLE = MixedLinearSpec(1.394242, 0.610349, 1.217567, 0.130889,
                           -0.398753, 0.635533)


# a criterion-4 draw whose lower orbit spirals into an attracting focus
# 0.059 below the switching line: the uncertified oracle ran it to its
# step limit
NAMED_HANG = MixedGeneralConstants(-1.5970061260875952, 2.4242920689409377,
                                   -1.3215941750426292, 2.882308267113605,
                                   -0.7932669801502348, -0.9436668929858008,
                                   -0.6546902318465166, -0.059432419444476636)


def reference_quadratic_pair():
    a2m_lead = -4 + 1j * (-1 + S33) / (-19 + 3 * S33)
    lower = anti_holomorphic([-3 + 1j, -(1 - 1j), a2m_lead])
    upper = anti_holomorphic([0.5 * (2 + 1j), 0.5 * (4 + 3j), 0.5 * (6 + 1j)])
    return PiecewiseSpec(upper, lower)


def non_finite_quadratic_pair():
    upper = anti_holomorphic([0.1, 0.2j, complex(0.5, math.inf)])
    lower = anti_holomorphic([-0.1, 0.3, 0.5 + 0.5j])
    return PiecewiseSpec(upper, lower)


def period_annulus_spec():
    return MixedLinearSpec(a1=2, a2=1, b1=5, b2=-10, a=0, b=-1, x0=10)


class TestCrossingTransversality:
    def test_reference_pair_at_origin(self):
        spec = reference_quadratic_pair()
        # both fields point downward at x = 0
        assert crossing_transversality(spec, 0.0) is Crossing.CROSSING_DOWN

    def test_reference_pair_at_second_point(self):
        spec = reference_quadratic_pair()
        assert crossing_transversality(spec, (-9 + S33) / 4) is Crossing.CROSSING_UP

    def test_tangent_when_vertical_velocity_vanishes(self):
        # upper side conj(z): Im = 0 on the whole axis
        spec = PiecewiseSpec(anti_holomorphic([0, 1]), anti_holomorphic([1j, 1]))
        assert crossing_transversality(spec, 1.0) is Crossing.TANGENT

    def test_sliding_segment_brackets_sign_change(self):
        spec = reference_quadratic_pair()
        # between the crossing-down at 0 and crossing-up at x2 the product
        # of the vertical velocities changes sign through a sliding region
        kinds = [crossing_transversality(spec, x)
                 for x in np.linspace(-0.8, -0.05, 20)]
        assert Crossing.SLIDING in kinds

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 2.0])
    def test_non_finite_velocity_is_tangent(self, x):
        # the upper vertical velocity is NaN, which must not read as
        # "crossing down", and reading it must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            crossing = crossing_transversality(non_finite_quadratic_pair(), x)
        assert crossing is Crossing.TANGENT

    def test_scale_past_float_range_is_tangent(self):
        # v = -1 is finite, but the scale max|c_k| x^2 = 1e310 is not;
        # the Python float power used to raise OverflowError
        side = anti_holomorphic([1j, 0, 1e-10])
        spec = PiecewiseSpec(side, side)
        assert crossing_transversality(spec, 1e155) is Crossing.TANGENT
        assert odeint.return_map_outcome(spec, 1e155) == (odeint.Outcome.NOT_ENTERING, None)


class TestMixedLinear:
    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation):
            solve_mixed_linear_on_sigma(MixedLinearSpec(1, 0, 0, 1, 1, 1))
        with pytest.raises(HypothesisViolation):
            solve_mixed_linear_on_sigma(MixedLinearSpec(1, 1, 0, 1, 1, 0))

    def test_center_continuum_example(self):
        # upper conj((2+i)(z-5i)), lower -i(z-10): period annulus whose
        # outermost verified orbit crosses at (0, 0) and (20, 0)
        with pytest.raises(CenterContinuum) as exc:
            solve_mixed_linear_on_sigma(period_annulus_spec())
        pair = exc.value.pair
        assert pair is not None
        assert pair[0] == pytest.approx(20.0, abs=1e-6)
        assert pair[1] == pytest.approx(0.0, abs=1e-6)

    def test_center_no_pair_returns_empty(self):
        spec = MixedLinearSpec(a1=2, a2=1, b1=5, b2=-10, a=0, b=-1, x0=9.0)
        assert solve_mixed_linear_on_sigma(spec) == []

    def test_stable_cycle(self):
        out = solve_mixed_linear_on_sigma(STABLE_CYCLE)
        assert len(out) == 1
        cand = out[0]
        assert cand.verified is Verified.NUMERICALLY_CONFIRMED
        assert cand.stability is Stability.STABLE
        expected_mult = math.exp(STABLE_CYCLE.a * math.pi / abs(STABLE_CYCLE.b))
        assert cand.multiplier == pytest.approx(expected_mult)
        assert cand.multiplier < 1
        # the pair is the two closed-form crossing abscissas
        c = STABLE_CYCLE.a * math.pi / STABLE_CYCLE.b
        x_neg = 2 * STABLE_CYCLE.b2 / (STABLE_CYCLE.a2 * math.expm1(c))
        x_pos = 2 * STABLE_CYCLE.b2 / (STABLE_CYCLE.a2 * math.expm1(-c))
        assert cand.x1 == pytest.approx(max(x_neg, x_pos), rel=1e-12)
        assert cand.x2 == pytest.approx(min(x_neg, x_pos), rel=1e-12)

    def test_unstable_cycle(self):
        out = solve_mixed_linear_on_sigma(UNSTABLE_CYCLE)
        assert len(out) == 1
        assert out[0].stability is Stability.UNSTABLE
        assert out[0].multiplier > 1
        assert out[0].multiplier == pytest.approx(
            math.exp(UNSTABLE_CYCLE.a * math.pi / abs(UNSTABLE_CYCLE.b))
        )

    def test_invalid_orientation_rejected(self):
        # the candidate pair exists algebraically but the crossing
        # orientation fails; a return-map sweep finds no closed orbit
        assert solve_mixed_linear_on_sigma(NO_CYCLE) == []

    def test_analytic_mode_skips_validation(self):
        out = solve_mixed_linear_on_sigma(NO_CYCLE, validate=False)
        assert len(out) == 1
        assert out[0].verified is Verified.ANALYTIC

    def test_confirmed_cycle_is_return_map_fixed_point(self):
        out = solve_mixed_linear_on_sigma(STABLE_CYCLE)
        pw = STABLE_CYCLE.as_piecewise()
        x1 = out[0].x1
        assert return_map(pw, x1) == pytest.approx(x1, abs=1e-6)

    def test_translation_covariance(self):
        # the exact translate z -> z + 2.5 of the whole system moves the
        # crossing pair rigidly: p(z - 2.5) shifts both b-coefficients
        shifted = MixedLinearSpec(
            STABLE_CYCLE.a1, STABLE_CYCLE.a2,
            STABLE_CYCLE.b1 - STABLE_CYCLE.a1 * 2.5,
            STABLE_CYCLE.b2 - STABLE_CYCLE.a2 * 2.5,
            STABLE_CYCLE.a, STABLE_CYCLE.b, x0=2.5)
        base = solve_mixed_linear_on_sigma(STABLE_CYCLE)[0]
        out = solve_mixed_linear_on_sigma(shifted)[0]
        assert out.x1 == pytest.approx(base.x1 + 2.5, rel=1e-9)
        assert out.x2 == pytest.approx(base.x2 + 2.5, rel=1e-9)


class TestMixedGeneral:
    def test_y0_zero_delegates(self):
        k = MixedGeneralConstants(*_fields(STABLE_CYCLE), x0=0.0, y0=0.0)
        out = solve_mixed_general(k)
        base = solve_mixed_linear_on_sigma(STABLE_CYCLE)
        assert len(out) == len(base) == 1
        assert out[0].x1 == pytest.approx(base[0].x1)
        assert out[0].x2 == pytest.approx(base[0].x2)

    def test_perturbed_cycle_found_and_confirmed(self):
        # moving the lower equilibrium to y0 = 0.05 preserves the stable
        # cycle; the matching function recovers the (slightly moved) pair
        k = MixedGeneralConstants(*_fields(STABLE_CYCLE), x0=0.0, y0=0.05)
        out = solve_mixed_general(k)
        confirmed = [c for c in out if c.verified is Verified.NUMERICALLY_CONFIRMED]
        assert len(confirmed) == 1
        cand = confirmed[0]
        assert cand.x1 == pytest.approx(0.06005066, abs=1e-6)
        assert cand.x2 == pytest.approx(-1.70340621, abs=1e-6)
        assert cand.stability is Stability.STABLE

    def test_pair_is_involution_image(self):
        k = MixedGeneralConstants(*_fields(STABLE_CYCLE), x0=0.0, y0=0.05)
        out = solve_mixed_general(k)
        for cand in out:
            assert k.L(cand.x1) == pytest.approx(cand.x2, abs=1e-8)

    def test_equilibrium_below_line_destroys_cycle(self):
        # with the attracting focus strictly inside the lower half-plane
        # the lower arc is captured and no closed orbit survives (checked
        # by a full return-map sweep)
        k = MixedGeneralConstants(*_fields(STABLE_CYCLE), x0=0.0, y0=-0.05)
        out = solve_mixed_general(k)
        assert all(c.verified is not Verified.NUMERICALLY_CONFIRMED for c in out)
        out_w = solve_mixed_general(k, include_winding=True)
        assert all(c.verified is not Verified.NUMERICALLY_CONFIRMED for c in out_w)

    def test_winding_cycles_below_line(self):
        # a repelling focus below the line supports cycles whose lower
        # arcs wrap around it; their matching value is +-2*pi*a, not 0,
        # so the plain equation misses them (instance pinned down by a
        # return-map sweep: two nested cycles, one of each stability)
        k = MixedGeneralConstants(1.9528, 0.8788, 0.3198, -0.5741,
                                  0.2023, -1.4791, 0.7602, -0.1513)
        plain = solve_mixed_general(k)
        assert all(c.verified is not Verified.NUMERICALLY_CONFIRMED for c in plain)
        out = solve_mixed_general(k, include_winding=True)
        confirmed = sorted(
            (c for c in out if c.verified is Verified.NUMERICALLY_CONFIRMED),
            key=lambda c: c.x1,
        )
        assert len(confirmed) == 2
        inner, outer = confirmed
        assert inner.x1 == pytest.approx(0.8261727, abs=1e-5)
        assert inner.x2 == pytest.approx(0.4803817, abs=1e-5)
        assert inner.stability is Stability.STABLE
        assert outer.x1 == pytest.approx(0.9559774, abs=1e-5)
        assert outer.x2 == pytest.approx(0.3505770, abs=1e-5)
        assert outer.stability is Stability.UNSTABLE
        F = k.matching_function()
        for cand in confirmed:
            assert abs(abs(F(cand.x1)) - 2 * math.pi * k.a) < 1e-9

    def test_construct_then_solve(self):
        # prescribe a root location x*, tune b2 so the matching function
        # vanishes there, and require the solver to recover it
        rng = np.random.default_rng(83)
        recovered = 0
        while recovered < 5:
            a1, a2 = rng.uniform(-2, 2, 2)
            a = rng.uniform(-1, 1)
            b = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
            x0, y0 = rng.uniform(-1, 1), rng.uniform(0.2, 1.0)
            x_star = rng.uniform(0.5, 2.0)
            if abs(a2) < 0.2 or abs(a) < 0.1:
                continue
            b2 = _tune_b2(a1, a2, a, b, x0, y0, x_star)
            if b2 is None:
                continue
            k = MixedGeneralConstants(a1, a2, 0.3, b2, a, b, x0, y0)
            out = solve_mixed_general(k, validate=False)
            hits = [c for c in out
                    if abs(c.x1 - x_star) < 1e-7 or abs(c.x2 - x_star) < 1e-7]
            assert hits, f"prescribed root {x_star} not recovered"
            recovered += 1

    def test_at_most_three_roots_random_sweep(self):
        rng = np.random.default_rng(89)
        for _ in range(500):
            a1, a2, b1, b2 = rng.uniform(-3, 3, 4)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(a2) < 0.05 or abs(b) < 0.05 or y0 == 0:
                continue
            k = MixedGeneralConstants(a1, a2, b1, b2, a, b, x0, y0)
            try:
                out = solve_mixed_general(k, validate=False)
            except CenterContinuum:
                continue
            assert len(out) <= 3

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation):
            solve_mixed_general(MixedGeneralConstants(1, 0, 0, 0, 1, 1, 0, 1))


def _fields(spec: MixedLinearSpec):
    return spec.a1, spec.a2, spec.b1, spec.b2, spec.a, spec.b


def _tune_b2(a1, a2, a, b, x0, y0, x_star):
    """Bracket and bisect on b2 so the matching function vanishes at
    x_star (F tends to the same sign at both b2-infinities, so a plain
    secant can run away; scan for a sign change instead)."""

    def f_of(b2):
        k = MixedGeneralConstants(a1, a2, 0.3, b2, a, b, x0, y0)
        return k.matching_function()(x_star)

    def refine(lo, hi, flo):
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = f_of(mid)
            if abs(fm) < 1e-13:
                return mid
            if fm * flo > 0:
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    grid = np.linspace(-20, 20, 801)
    vals = [f_of(b2) for b2 in grid]
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            b2 = refine(grid[i], grid[i + 1], vals[i])
            # F has a built-in zero at the involution fixed point; only a
            # bracket that makes x_star a genuine pair member counts
            if abs(-x_star - 2 * b2 / a2 - x_star) > 1e-3:
                return b2
    return None


class TestAntiholoPair:
    def test_worked_example_unique_cycle(self):
        out = solve_antiholo_pair(reference_quadratic_pair())
        assert len(out) == 1
        cand = out[0]
        assert cand.verified is Verified.NUMERICALLY_CONFIRMED
        assert cand.x1 == pytest.approx(0.0, abs=1e-9)
        assert cand.x2 == pytest.approx((-9 + S33) / 4, abs=1e-9)
        assert candidate_bound(reference_quadratic_pair()) == 1

    def test_identical_sides_continuum(self):
        upper = anti_holomorphic([0.5 * (2 + 1j), 0.5 * (4 + 3j), 0.5 * (6 + 1j)])
        with pytest.raises(ContinuumDetected):
            solve_antiholo_pair(PiecewiseSpec(upper, upper))

    @pytest.mark.parametrize("up, lo", [(1e5, 1e-5), (1e-5, 1e5)])
    def test_sides_of_different_scale(self, up, lo):
        # a positive factor on a side only rescales its time, so the
        # cycle stays; R is small only against max(1, |c|)^4, not
        # against its own Sylvester scale
        pw = reference_quadratic_pair()
        scaled = PiecewiseSpec(anti_holomorphic(pw.upper.p.coeffs * up),
                               anti_holomorphic(pw.lower.p.coeffs * lo))
        cand, = solve_antiholo_pair(scaled)
        assert cand.verified is Verified.NUMERICALLY_CONFIRMED
        assert cand.x1 == pytest.approx(0.0, abs=1e-9)
        assert cand.x2 == pytest.approx((-9 + S33) / 4, abs=1e-9)

    def test_linear_pairs_have_no_candidates(self):
        rng = np.random.default_rng(97)
        tried = 0
        while tried < 200:
            cu = rng.normal(size=2) + 1j * rng.normal(size=2)
            cl = rng.normal(size=2) + 1j * rng.normal(size=2)
            if abs(cu[1].imag) < 0.05 or abs(cl[1].imag) < 0.05:
                continue
            spec = PiecewiseSpec(anti_holomorphic(cu), anti_holomorphic(cl))
            try:
                out = solve_antiholo_pair(spec, validate=False)
            except ContinuumDetected:
                continue
            assert out == []
            tried += 1

    def test_quadratic_at_most_one(self):
        rng = np.random.default_rng(103)
        tried = 0
        while tried < 200:
            cu = rng.normal(size=3) + 1j * rng.normal(size=3)
            cl = rng.normal(size=3) + 1j * rng.normal(size=3)
            if abs(cu[2].imag) < 0.05 or abs(cl[2].imag) < 0.05:
                continue
            spec = PiecewiseSpec(anti_holomorphic(cu), anti_holomorphic(cl))
            try:
                out = solve_antiholo_pair(spec, validate=False)
            except ContinuumDetected:
                continue
            assert len(out) <= 1
            tried += 1

    def test_cubic_at_most_three(self):
        rng = np.random.default_rng(107)
        tried = 0
        while tried < 200:
            cu = rng.normal(size=4) + 1j * rng.normal(size=4)
            cl = rng.normal(size=4) + 1j * rng.normal(size=4)
            if abs(cu[3].imag) < 0.05 or abs(cl[3].imag) < 0.05:
                continue
            spec = PiecewiseSpec(anti_holomorphic(cu), anti_holomorphic(cl))
            try:
                out = solve_antiholo_pair(spec, validate=False)
            except ContinuumDetected:
                continue
            assert len(out) <= 3
            tried += 1

    def test_construct_then_solve_shared_pair(self):
        # build two quadratic sides whose stream functions agree at a
        # prescribed pair, shifting only the constant-in-c coefficient
        # (the linear psi coefficient does not change the field's class)
        rng = np.random.default_rng(109)
        found = 0
        while found < 5:
            x1s, x2s = sorted(rng.uniform(-2, 2, 2))
            if x1s == x2s:
                continue
            cu = rng.normal(size=3) + 1j * rng.normal(size=3)
            cl = rng.normal(size=3) + 1j * rng.normal(size=3)
            if abs(cu[2].imag) < 0.2 or abs(cl[2].imag) < 0.2:
                continue
            # adjust Im(c0) of each side so psi(x1)-psi(x2) = 0 there
            for c in (cu, cl):
                q = [0.0] + [c[k].imag / (k + 1) for k in range(3)]
                gap = (np.polyval(q[::-1], x1s) - np.polyval(q[::-1], x2s)) / (x1s - x2s)
                c[0] = c[0].real + 1j * (c[0].imag - gap)
            spec = PiecewiseSpec(anti_holomorphic(cu), anti_holomorphic(cl))
            out = solve_antiholo_pair(spec, validate=False)
            hits = [c for c in out
                    if abs(c.x1 - x2s) < 1e-6 and abs(c.x2 - x1s) < 1e-6]
            assert hits
            found += 1

    def test_conservation_matching_for_confirmed(self):
        out = solve_antiholo_pair(reference_quadratic_pair())
        spec = reference_quadratic_pair()
        rep_up = build_potential(spec.upper)
        rep_lo = build_potential(spec.lower)
        for cand in out:
            if cand.verified is not Verified.NUMERICALLY_CONFIRMED:
                continue
            for rep in (rep_up, rep_lo):
                v1 = first_integral(rep, cand.x1, 0.0)[1]
                v2 = first_integral(rep, cand.x2, 0.0)[1]
                assert abs(v1 - v2) <= 1e-8 * (1.0 + abs(v1))

    def test_symmetric_dedup(self):
        out = solve_antiholo_pair(reference_quadratic_pair(), validate=False)
        seen = {(round(c.x1, 6), round(c.x2, 6)) for c in out}
        for x1, x2 in list(seen):
            assert (x2, x1) not in seen
        assert all(c.x1 > c.x2 for c in out)

    def test_constant_divided_difference_has_no_pairs(self):
        # p = i + z: psi(x, 0) = x, whose divided difference is 1
        side = anti_holomorphic([1j, 1])
        other = anti_holomorphic([0.5 * (2 + 1j), 0.5 * (4 + 3j), 0.5 * (6 + 1j)])
        for spec in (PiecewiseSpec(side, side), PiecewiseSpec(side, other),
                     PiecewiseSpec(other, side)):
            assert solve_antiholo_pair(spec) == []

    def test_zero_divided_difference_still_raises(self):
        # real coefficients: psi vanishes on the axis, c is identically zero
        spec = PiecewiseSpec(anti_holomorphic([1.0, 2.0]), anti_holomorphic([0, 1j, 1j]))
        with pytest.raises(DegenerateLeadingCoefficient):
            solve_antiholo_pair(spec)

    def test_degree_zero_rejected(self):
        spec = PiecewiseSpec(anti_holomorphic([1.0]), anti_holomorphic([0, 1j, 1j]))
        with pytest.raises(DegreeUnsupported):
            solve_antiholo_pair(spec)

    @pytest.mark.parametrize("side, k, bad", [
        ("upper", 0, complex(math.nan, 0.0)), ("upper", 2, complex(0.5, math.nan)),
        ("lower", 1, complex(math.inf, 1.0)), ("lower", 2, complex(-4.0, -math.inf)),
    ])
    def test_non_finite_coefficient_raises(self, side, k, bad):
        # a NaN must not read as "no cycles"
        pw = reference_quadratic_pair()
        coeffs = list(getattr(pw, side).p.coeffs)
        coeffs[k] = bad
        sides = {"upper": pw.upper, "lower": pw.lower, side: anti_holomorphic(coeffs)}
        with pytest.raises(NonConvergence):
            solve_antiholo_pair(PiecewiseSpec(sides["upper"], sides["lower"]))

    def test_non_finite_crossing_pair_polynomial_raises(self):
        # checked before the primitive is built, so nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergence):
                crossing_pair_polynomial(non_finite_quadratic_pair().upper)
            with pytest.raises(NonConvergence):
                solve_antiholo_pair(non_finite_quadratic_pair())

    def test_degree_four_runs_without_bound(self):
        rng = np.random.default_rng(113)
        cu = rng.normal(size=5) + 1j * rng.normal(size=5)
        cl = rng.normal(size=5) + 1j * rng.normal(size=5)
        spec = PiecewiseSpec(anti_holomorphic(cu), anti_holomorphic(cl))
        out = solve_antiholo_pair(spec, validate=False)
        assert candidate_bound(spec) is None
        for cand in out:
            assert cand.stability is Stability.UNKNOWN

    def test_requires_antiholomorphic(self):
        from holoflow.potential import holomorphic

        spec = PiecewiseSpec(holomorphic([0, 1]), anti_holomorphic([0, 1j, 1j]))
        with pytest.raises(ValueError):
            solve_antiholo_pair(spec)


class TestRejectionReasons:
    def test_named_hang_is_trapped_at_once(self):
        start = time.perf_counter()
        out = solve_mixed_general(NAMED_HANG)
        elapsed = time.perf_counter() - start
        assert [(c.verified, c.reason, c.miss) for c in out] == [
            (Verified.REJECTED, "trapped", None)]
        assert elapsed < 0.1

    @pytest.mark.parametrize("constants, reason", [
        ((-2.987480574557079, -2.2737073726409216, -1.58005441687561, 0.5578485290875284,
          0.9347206572910132, 1.1916813966364015, 1.2135240007304957, -1.1092655478075701),
         "miss"),
        ((-0.5681529472564044, -1.4090688589918219, 1.2233346481631218, -1.1504594657109632,
          -0.5124762031620436, 1.0612412350707898, -0.019200365603848635, 1.1356742438202385),
         "escaped"),
    ])
    def test_criterion_4_draws(self, constants, reason):
        k = MixedGeneralConstants(*constants)
        out = solve_mixed_general(k)
        assert reason in [c.reason for c in out]
        for c in out:
            assert c.verified is Verified.REJECTED
            if c.reason == "miss":
                ret = return_map(k.as_piecewise(), c.x1)
                assert c.miss == abs(ret - c.x1) > CONFIRM_TOL * max(1.0, abs(c.x1))
            else:
                assert c.miss is None

    def test_sliding_pair(self):
        pw = NO_CYCLE.as_piecewise()
        assert pwcycles._confirms(pw, *mixed_linear_pair(NO_CYCLE)) == (
            "sliding", None)

    @pytest.mark.parametrize("spec", [STABLE_CYCLE, UNSTABLE_CYCLE])
    def test_confirmed_carries_its_miss(self, spec):
        cand, = solve_mixed_linear_on_sigma(spec)
        ret = return_map(spec.as_piecewise(), cand.x1)
        assert cand.reason is None
        assert cand.miss == abs(ret - cand.x1) <= CONFIRM_TOL * max(1.0, abs(cand.x1))
        cand, = solve_antiholo_pair(reference_quadratic_pair())
        assert cand.reason is None and 0 <= cand.miss <= CONFIRM_TOL

    def test_analytic_carries_neither(self):
        for cand in (solve_mixed_linear_on_sigma(NO_CYCLE, validate=False)
                     + solve_mixed_general(NAMED_HANG, validate=False)):
            assert (cand.reason, cand.miss) == (None, None)
