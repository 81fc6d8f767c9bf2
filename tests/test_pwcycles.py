import math
import time
import warnings
from pathlib import Path

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
# criterion 4's default_rng(777), degree-3 draw 62: the one pair that
# solve_antiholo_pair finds crosses down at both ends, so no cycle runs
# through it (rejected as same_direction)
SAME_DIRECTION_SIDES = (
    [0.21553238052479823 + 0.3810484635882515j, 2.2582605753825855 + 1.080897235002235j,
     -1.733167592157365 + 0.3388116625363762j, -1.5561864603269608 - 0.005543960268054974j],
    [0.6038637046341413 - 0.6632990281218355j, -0.3656798579874262 + 2.1776141922446817j,
     -1.0961690483055495 + 0.22570166173274786j, -0.019212338482527607 - 0.5935245328002213j],
)
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


def overflowing_quadratic_pair():
    """A quadratic pair with finite coefficients whose upper vertical
    velocity passes float range at x = 0.5, -0.5, 2.0 and -2.0: the
    Horner step c2 x + c1 overflows in the real part for x > 0 and in
    the imaginary part for x < 0."""
    upper = anti_holomorphic([0.1, complex(1.7e308, 1.7e308), complex(1.7e308, -1.7e308)])
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

    @pytest.mark.parametrize("x", [-2.0, 0.5, -0.5, 2.0])
    def test_non_finite_velocity_is_tangent(self, x):
        # the upper vertical velocity passes float range, which must not
        # read as a crossing (a NaN as "crossing down"), and reading it
        # must not warn
        pw = overflowing_quadratic_pair()
        assert not math.isfinite(pw.upper.velocity(x).imag)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            crossing = crossing_transversality(pw, x)
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

    def test_matching_function_same_floats(self):
        # the matching function with its constants formed once gives the
        # floats of the frozen closure that called L, theta and radius2,
        # on constants across the solver's range (1e-50 <= |y0|, all
        # moduli up to 1e50), at its bracket ends (x0 +- 1e9 max(...)),
        # near x0 and at the L-fixed point
        def frozen(k):
            x0, y0, a, b = k.x0, k.y0, k.a, k.b

            def theta(x):
                return math.atan2(-y0, x - x0)

            def radius2(x):
                return (x - x0) ** 2 + y0 ** 2

            def F(x):
                lx = k.L(x)
                return 0.5 * b * math.log(radius2(lx) / radius2(x)) - a * (theta(lx) - theta(x))

            return F

        def outcome(F, x):
            try:
                return F(x).hex()
            except ValueError as exc:  # log of 0 when both radii vanish
                return type(exc)

        rng = np.random.default_rng(20261019)
        checked = 0
        for _ in range(400):
            a1, a2, b1, b2, a, b, x0, y0 = (rng.normal(size=8) * 10.0 ** rng.uniform(-25, 25, 8)
                                            * rng.choice([1.0, 0.0], 8, p=[0.9, 0.1]))
            if a2 == 0.0 or abs(y0) < 1e-50:
                continue
            k = MixedGeneralConstants(a1, a2, b1, b2, a, b, x0, y0)
            span = 1e9 * max(1.0, abs(x0), abs(y0), abs(k.C))
            xs = [x0 - span, x0 + span, x0, -0.5 * k.C + x0, x0 + y0, x0 - 1.0]
            xs += list(x0 + rng.normal(size=6) * 10.0 ** rng.uniform(-30, 30, 6))
            got, want = k.matching_function(), frozen(k)
            assert [outcome(got, x) for x in xs] == [outcome(want, x) for x in xs]
            checked += 1
        assert checked > 300


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

    def test_degree_limit(self, monkeypatch):
        def fail(*args):
            raise AssertionError("resultant built past the degree limit")

        monkeypatch.setattr(pwcycles.cpoly, "resultant_x2", fail)
        wide = anti_holomorphic([0.5] * pwcycles.MAX_PAIR_DEGREE + [1j, 1j])
        for spec in (PiecewiseSpec(wide, anti_holomorphic([0, 1j, 1j])),
                     PiecewiseSpec(anti_holomorphic([0, 1j, 1j]), wide)):
            with pytest.raises(ValueError, match=f"above the limit {pwcycles.MAX_PAIR_DEGREE}"):
                solve_antiholo_pair(spec)
        assert pwcycles.MAX_PAIR_DEGREE < pwcycles.cpoly.MAX_DEGREE

    @pytest.mark.parametrize("degree", [23, 24, 36])
    def test_resultant_past_float_range_raises(self, degree):
        # the Vandermonde powers of 2d^2 + 1 sample points in (-2, 2)
        # overflow: numpy warned "overflow encountered in accumulate",
        # and the NaN coefficients ended in real_roots' NonConvergence
        rng = np.random.default_rng(5)
        upper, lower = (anti_holomorphic(rng.normal(size=degree + 1)
                                         + 1j * rng.normal(size=degree + 1)) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergence, match="resultant coefficient is not finite"):
                solve_antiholo_pair(PiecewiseSpec(upper, lower))

    @pytest.mark.parametrize("degree", [23, 36])
    def test_dense_sides_refused_before_the_sylvester_stack(self, degree, monkeypatch):
        def fail(*args):
            raise AssertionError("Sylvester stack built past float range")

        monkeypatch.setattr(pwcycles.cpoly, "_sylvester_matrices", fail)
        rng = np.random.default_rng(5)
        upper, lower = (anti_holomorphic(rng.normal(size=degree + 1)
                                         + 1j * rng.normal(size=degree + 1)) for _ in range(2))
        with pytest.raises(NonConvergence, match=f"powers of {2 * degree ** 2 + 1} sample points"):
            solve_antiholo_pair(PiecewiseSpec(upper, lower))

    @pytest.mark.parametrize("degree", [3, 4, 23, 30, 36])
    @pytest.mark.parametrize("both", [True, False])
    def test_real_top_coefficients_keep_the_cycle(self, degree, both):
        # a real coefficient of z^degree adds a real term to Omega, so psi
        # on the axis, its divided difference and the cycle's crossing
        # pair stay the reference pair's; the resultant follows the
        # divided differences' degrees, not their zero-padded shapes
        # (with both sides padded, both Sylvester leads were 0, and R
        # vanished: ContinuumDetected)
        pw = reference_quadratic_pair()

        def padded(side):
            return anti_holomorphic(np.concatenate([side.p.coeffs, np.zeros(degree - 3), [-2.5]]))

        spec = PiecewiseSpec(padded(pw.upper), padded(pw.lower) if both else pw.lower)
        cand, = solve_antiholo_pair(spec)
        assert cand.verified is Verified.NUMERICALLY_CONFIRMED
        assert cand.x1 == pytest.approx(0.0, abs=1e-9)
        assert cand.x2 == pytest.approx((-9 + S33) / 4, abs=1e-9)

    @pytest.mark.parametrize("side, k, bad", [
        ("upper", 0, complex(math.nan, 0.0)), ("upper", 2, complex(0.5, math.nan)),
        ("lower", 1, complex(math.inf, 1.0)), ("lower", 2, complex(-4.0, -math.inf)),
    ])
    def test_non_finite_coefficient_raises(self, side, k, bad):
        # a NaN must not read as "no cycles": no side holds one
        coeffs = list(getattr(reference_quadratic_pair(), side).p.coeffs)
        coeffs[k] = bad
        with pytest.raises(NonConvergence):
            anti_holomorphic(coeffs)

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


def readme_quadratic_pair():
    """The README's `holoflow cycles --family antiholo` example."""
    return PiecewiseSpec(anti_holomorphic([1 + 0.5j, 2 + 1.5j, 3 + 0.5j]),
                         anti_holomorphic([-3 + 1j, -1 + 1j, -4 - 2.6862j]))


def _richardson_derivative(pw, x):
    """The oracle's return-map derivative at x: central differences at
    tolerances 1e-12 with h = 1e-4 max(1, |x|) and h / 2, Richardson
    extrapolated. A single central difference carries a truncation error
    of order h^2 times the third derivative of the map, which reached
    3.7e-5 relative on a seeded mixed-general cycle with multiplier 76;
    extrapolation removes it."""
    tight = odeint.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    h = 1e-4 * max(1.0, abs(x))
    wide = odeint.return_map_derivative(pw, x, tight, h=h)
    narrow = odeint.return_map_derivative(pw, x, tight, h=h / 2)
    return (4.0 * narrow - wide) / 3.0


class TestFirstIntegralMultiplier:
    """A confirmed candidate's multiplier is the product of
    psi_s'(x) / psi_s'(x_next) over its two half returns
    (``pwcycles._multiplier``)."""

    @pytest.mark.parametrize("x0_range", [(0.0, 0.0), (-2.0, 2.0)], ids=["x0=0", "x0"])
    def test_mixed_linear_is_the_closed_form(self, x0_range):
        # criterion 3's draws; with x0 != 0 the constant b2 is set so that
        # the translated b2 + a2 x0 has criterion 3's range and sign
        rng = np.random.default_rng(2024)
        confirmed = tried = 0
        worst = 0.0
        while confirmed < 100:
            tried += 1
            assert tried < 20000, "valid-draw sampling exhausted"
            a1, a2, b1 = rng.uniform(-2, 2, 3)
            a = rng.uniform(-1.2, 1.2)
            b = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
            x0 = rng.uniform(*x0_range)
            if abs(a2) < 0.1 or abs(a) < 0.05 or abs(a * math.pi / b) > 4.0:
                continue
            b2 = math.copysign(rng.uniform(0.2, 2.0), a) - a2 * x0
            out = solve_mixed_linear_on_sigma(MixedLinearSpec(a1, a2, b1, b2, a, b, x0))
            if not out:
                continue
            cand, = out
            assert cand.verified is Verified.NUMERICALLY_CONFIRMED
            expected = math.exp(a * math.pi / abs(b))
            worst = max(worst, abs(cand.multiplier - expected) / expected)
            assert cand.stability is (Stability.STABLE if a < 0 else Stability.UNSTABLE)
            confirmed += 1
        assert worst <= 1e-12

    def test_readme_pair_value(self):
        cand, = solve_antiholo_pair(readme_quadratic_pair())
        assert cand.multiplier == pytest.approx(0.48913353682, abs=1e-11)
        assert cand.stability is Stability.STABLE

    def test_matches_the_oracle(self):
        # the README and reference quadratic pairs, and the first twelve
        # confirmed candidates of seeded criterion-4 mixed-general draws
        cases = [(pw, c) for pw in (readme_quadratic_pair(), reference_quadratic_pair())
                 for c in solve_antiholo_pair(pw)]
        assert len(cases) == 2
        rng = np.random.default_rng(1)
        while len(cases) < 14:
            a1, a2, b1, b2 = rng.uniform(-3, 3, 4)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(a2) < 0.05 or abs(b) < 0.05 or y0 == 0.0:
                continue
            k = MixedGeneralConstants(a1, a2, b1, b2, a, b, x0, y0)
            try:
                out = solve_mixed_general(k)
            except CenterContinuum:
                continue
            cases += [(k.as_piecewise(), c) for c in out
                      if c.verified is Verified.NUMERICALLY_CONFIRMED]
        for pw, cand in cases:
            assert cand.verified is Verified.NUMERICALLY_CONFIRMED
            want = _richardson_derivative(pw, cand.x1)
            assert abs(cand.multiplier - want) <= 1e-6 * max(1.0, abs(want))

    def test_analytic_and_rejected_carry_none(self):
        analytic = (solve_mixed_linear_on_sigma(STABLE_CYCLE, validate=False)
                    + solve_mixed_general(NAMED_HANG, validate=False)
                    + solve_antiholo_pair(reference_quadratic_pair(), validate=False))
        assert {c.verified for c in analytic} == {Verified.ANALYTIC}
        rejected = solve_mixed_general(NAMED_HANG)
        assert {c.verified for c in rejected} == {Verified.REJECTED}
        for cand in analytic + rejected:
            assert (cand.multiplier, cand.stability) == (None, Stability.UNKNOWN)

    @pytest.mark.parametrize("multiplier, stability", [
        (1.0 - 2e-6, Stability.STABLE), (-1.0 + 2e-6, Stability.STABLE),
        (1.0 + 2e-6, Stability.UNSTABLE), (-1.0 - 2e-6, Stability.UNSTABLE),
        (1.0 + 5e-7, Stability.NON_HYPERBOLIC), (-1.0, Stability.NON_HYPERBOLIC),
    ])
    def test_stability_band(self, multiplier, stability):
        assert pwcycles._stability_from_multiplier(multiplier) is stability

    def test_one_candidate_path_and_no_oracle_in_the_solvers(self):
        src = Path(pwcycles.__file__).parent
        naming = {f.name for f in src.glob("*.py")
                  if "return_map_derivative" in f.read_text(encoding="utf-8")}
        # the package re-exports the oracle and calls it nowhere
        assert naming == {"odeint.py", "__init__.py"}
        assert "return_map_derivative(" not in (src / "__init__.py").read_text(encoding="utf-8")
        text = Path(pwcycles.__file__).read_text(encoding="utf-8")
        # one constructor call, in _candidates
        assert text.count("CycleCandidate(") == 1
        assert "candidates.append(CycleCandidate(" in text


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

    def test_same_direction_pair(self):
        pw = PiecewiseSpec(*map(anti_holomorphic, SAME_DIRECTION_SIDES))
        cand, = solve_antiholo_pair(pw)
        assert {crossing_transversality(pw, x) for x in (cand.x1, cand.x2)} == {
            Crossing.CROSSING_DOWN}
        assert (cand.verified, cand.reason, cand.miss) == (
            Verified.REJECTED, "same_direction", None)
        assert pwcycles._confirms(pw, cand.x1, cand.x2) == ("same_direction", None)

    def test_closes_reads_the_landing(self):
        # |P(x1) - x1| <= CONFIRM_TOL * max(1, |x1|), and no landing
        # (None) or a NaN one never closes
        closes = pwcycles.closes
        assert closes(2.0, 2.0 + 1.9e-6) and not closes(2.0, 2.0 + 2.1e-6)
        assert closes(-0.5, -0.5 - 0.9e-6) and not closes(-0.5, -0.5 - 1.1e-6)
        assert not closes(0.5, None) and not closes(0.5, math.nan)


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


@pytest.mark.parametrize("solve", [
    lambda: solve_antiholo_pair(reference_quadratic_pair()),
    lambda: solve_mixed_linear_on_sigma(STABLE_CYCLE),
    lambda: solve_mixed_general(MixedGeneralConstants(*_fields(STABLE_CYCLE), x0=0.0, y0=0.05)),
], ids=["antiholo", "mixed-linear", "mixed-general"])
def test_candidates_carry_python_floats(solve):
    # every family returns its crossing pair as Python floats, not numpy
    # scalars
    out = solve()
    assert out
    for c in out:
        assert type(c.x1) is float and type(c.x2) is float
