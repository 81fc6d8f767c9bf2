import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from holoflow import cpoly, odeint, pwcycles
from holoflow.cpoly import CPoly
from holoflow.errors import NonConvergence, NotEntering, StepUnderflow
from holoflow.odeint import (
    IntegratorConfig,
    Outcome,
    Side,
    Terminal,
    half_return,
    half_return_outcome,
    integrate,
    return_map,
    return_map_derivative,
    return_map_outcome,
    trace_separatrix,
)
from holoflow.classify import infinity_equilibria
from holoflow.potential import SystemKind, SystemSpec, anti_holomorphic, holomorphic
from holoflow.pwcycles import PiecewiseSpec

S33 = math.sqrt(33.0)

# a verified mixed linear-linear instance carrying a stable crossing cycle
CYCLE_PARAMS = dict(a1=1.413612, a2=-1.064242, b1=-1.766789, b2=-0.874464,
                    a=-0.619219, b=0.485750)


def _upper_side(a1, a2, b1, b2):
    """The upper side conj((a1 + i a2) z + (b1 + i b2)) of both mixed
    families: a linear saddle."""
    return anti_holomorphic([complex(b1, b2), complex(a1, a2)])


def _mixed_piecewise(a1, a2, b1, b2, a, b, x0=0.0, y0=0.0):
    upper = _upper_side(a1, a2, b1, b2)
    lam = complex(a, b)
    z0 = complex(x0, y0)
    lower = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * z0, lam]))
    return PiecewiseSpec(upper, lower)


def _reference_quadratic_pair():
    a2m_lead = -4 + 1j * (-1 + S33) / (-19 + 3 * S33)
    lower = anti_holomorphic([-3 + 1j, -(1 - 1j), a2m_lead])
    upper = anti_holomorphic([0.5 * (2 + 1j), 0.5 * (4 + 3j), 0.5 * (6 + 1j)])
    return PiecewiseSpec(upper, lower)


def _non_finite_quadratic_pair():
    """A quadratic pair whose upper side has an infinite coefficient."""
    upper = anti_holomorphic([0.1, 0.2j, complex(0.5, math.inf)])
    lower = anti_holomorphic([-0.1, 0.3, 0.5 + 0.5j])
    return PiecewiseSpec(upper, lower)


class TestIntegrate:
    def test_linear_endpoint(self):
        traj = integrate(holomorphic([0, 1]), 1.0, 1.0)
        assert traj.terminal is Terminal.TIME_REACHED
        assert abs(traj.end_point() - math.e) < 1e-8

    def test_quadratic_endpoint(self):
        # z = -1/(t - 1/z0): from z0 = 1 at t = 0.5 the value is 2
        traj = integrate(holomorphic([0, 0, 1]), 1.0, 0.5)
        assert abs(traj.end_point() - 2.0) < 1e-8

    def test_antiholo_first_integral_drift(self):
        spec = anti_holomorphic([0, 0, 1])
        traj = integrate(spec, 1 + 1j, 1.0)
        x0, y0 = 1.0, 1.0
        psi0 = x0 * x0 * y0 - y0 ** 3 / 3
        for _, x, y in traj.samples:
            assert abs(x * x * y - y ** 3 / 3 - psi0) < 1e-7

    def test_backward_time(self):
        traj = integrate(holomorphic([0, 1]), 1.0, -1.0)
        assert abs(traj.end_point() - math.exp(-1)) < 1e-8

    def test_time_reversal_round_trip(self):
        spec = anti_holomorphic([0.3 + 0.1j, -0.2j, 1.0])
        fwd = integrate(spec, 0.5 + 0.25j, 1.0)
        back = integrate(spec, fwd.end_point(), -1.0)
        assert abs(back.end_point() - (0.5 + 0.25j)) < 1e-8

    def test_blowup_detected(self):
        traj = integrate(holomorphic([0, 0, 1]), 1.0, 2.0)
        assert traj.terminal is Terminal.BLOWUP
        assert abs(traj.end_point()) > 1e12

    def test_step_limit(self):
        cfg = IntegratorConfig(max_steps=5)
        traj = integrate(holomorphic([0, 1]), 1.0, 100.0, cfg)
        assert traj.terminal is Terminal.STEP_LIMIT

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            integrate(holomorphic([0, 1]), 1.0, 0.0)

    def test_nan_time_rejected(self):
        # NaN fails every time comparison: it used to run to the step limit
        with pytest.raises(ValueError, match="t_end"):
            integrate(holomorphic([0, 1j]), 0.5, math.nan)

    @pytest.mark.parametrize("t_end", [math.inf, -math.inf])
    def test_infinite_time_allowed(self, t_end):
        traj = integrate(holomorphic([0, 1j]), 0.5, t_end, IntegratorConfig(max_steps=20))
        assert traj.terminal is Terminal.STEP_LIMIT
        assert traj.samples.shape[0] == 21
        assert np.sign(traj.times[-1]) == np.sign(t_end)

    def test_callable_field(self):
        traj = integrate(lambda z: 1.0 / z, 1.0, 1.5)
        # z^2/2 = t + 1/2
        assert abs(traj.end_point() - 2.0) < 1e-8


class TestHalfReturn:
    def test_near_tangent_start_ends_at_once(self):
        # the vertical velocity at the start is 4.16e-23, about 1e-21 of
        # the field's size there: the rule of crossing_transversality
        # calls it tangent. The orbit circles a focus with Re lambda =
        # -8e-22 and used to run 12-17 s to t_max.
        spec = holomorphic([0.0025 + 4.16e-23j, -8.32e-22 + 0.05j])
        start = time.perf_counter()
        outcome = half_return_outcome(spec, -8.58e-164, Side.UPPER)
        assert time.perf_counter() - start < 0.1
        assert outcome == (Outcome.NOT_ENTERING, None)
        with pytest.raises(NotEntering):
            half_return(spec, -8.58e-164, Side.UPPER)

    def test_center_half_turn(self):
        # zdot = -i (z - 10): clockwise center at 10; from 20 the lower
        # arc lands at 0
        lam = -1j
        spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * 10.0, lam]))
        landing = half_return(spec, 20.0, Side.LOWER)
        assert landing == pytest.approx(0.0, abs=1e-8)

    def test_not_entering(self):
        lam = -1j
        spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * 10.0, lam]))
        with pytest.raises(NotEntering):
            half_return(spec, 0.0, Side.LOWER)  # field points upward at 0

    def test_spiral_landing_magnitude(self):
        # lower linear spec with a != 0: the half turn scales the radius
        # by exp(a*pi/|b|)
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
            spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([0, complex(a, b)]))
            x0 = rng.uniform(0.5, 3.0)
            start = -x0 if b > 0 else x0  # enter the lower half-plane
            landing = half_return(spec, start, Side.LOWER)
            assert landing is not None
            assert abs(landing) == pytest.approx(
                abs(start) * math.exp(a * math.pi / abs(b)), rel=1e-7
            )
            assert landing * start < 0

    def test_reference_quadratic_upper_arc(self):
        pw = _reference_quadratic_pair()
        x2 = (-9 + S33) / 4
        landing = half_return(pw.upper, x2, Side.UPPER)
        assert landing == pytest.approx(0.0, abs=1e-6)


class TestReturnMap:
    def test_fixed_point_and_multiplier(self):
        pw = _mixed_piecewise(**CYCLE_PARAMS)
        a, b = CYCLE_PARAMS["a"], CYCLE_PARAMS["b"]
        c = a * math.pi / b
        x_pos = 2 * CYCLE_PARAMS["b2"] / (CYCLE_PARAMS["a2"] * math.expm1(-c))
        assert x_pos > 0
        ret = return_map(pw, x_pos)
        assert ret == pytest.approx(x_pos, abs=1e-8)
        mult = return_map_derivative(pw, x_pos)
        assert mult == pytest.approx(math.exp(a * math.pi / abs(b)), rel=1e-4)

    def test_stable_fixed_point_iteration(self):
        # a < 0: the multiplier is < 1 and iteration converges
        pw = _mixed_piecewise(**CYCLE_PARAMS)
        a, b = CYCLE_PARAMS["a"], CYCLE_PARAMS["b"]
        c = a * math.pi / b
        x_star = 2 * CYCLE_PARAMS["b2"] / (CYCLE_PARAMS["a2"] * math.expm1(-c))
        x = 1.6 * x_star
        for _ in range(12):
            nxt = return_map(pw, x)
            assert nxt is not None
            x = nxt
        assert x == pytest.approx(x_star, rel=1e-6)

    def test_continuum_identity(self):
        # period annulus: the return map is the identity inside it
        upper = anti_holomorphic([(2 + 1j) * (-5j), 2 + 1j])
        lam = -1j
        lower = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * 10.0, lam]))
        pw = PiecewiseSpec(upper, lower)
        for x in (2.0, 4.0, 6.0, 8.0, 12.0, 16.0):
            assert return_map(pw, x) == pytest.approx(x, abs=1e-6)

    def test_non_crossing_returns_none(self):
        pw = _reference_quadratic_pair()
        # at large x both fields point the same way? pick a sliding point:
        # upper y-velocity and lower y-velocity have opposite signs near x=2
        up = pw.upper.velocity(2.0).imag
        lo = pw.lower.velocity(2.0).imag
        assert up * lo < 0
        assert return_map(pw, 2.0) is None

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.5, 2.0])
    def test_non_finite_field_is_not_entering(self, x):
        # the upper vertical velocity is NaN: no warning, and no NaN
        # field is integrated
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcome = return_map_outcome(_non_finite_quadratic_pair(), x)
        assert outcome == (Outcome.NOT_ENTERING, None)

    def test_infinite_velocity_is_not_entering(self):
        # both fields point up, the upper one at infinite speed: a
        # tangency, not a crossing whose orbit steps until it underflows
        pw = PiecewiseSpec(anti_holomorphic([complex(0.0, -math.inf), 1.0]),
                           anti_holomorphic([-1j, 1.0]))
        assert pw.upper.velocity(0.5).imag == math.inf
        assert return_map_outcome(pw, 0.5) == (Outcome.NOT_ENTERING, None)


class TestSeparatrices:
    def test_nodes_attract_vertical_separatrices(self):
        p = CPoly([0, -1, 0, 1])  # z^3 - z
        eqs = infinity_equilibria(3)
        for k in (1, 3):
            traj = trace_separatrix(p, eqs[k])
            assert abs(traj.end_point()) < 1e-3

    def test_triple_sepal_axes(self):
        p = CPoly([0, 0, 0, 1])  # z^3
        eqs = infinity_equilibria(3)
        traj = trace_separatrix(p, eqs[1])  # vertical direction
        # decays along the imaginary axis like 1/sqrt(2t)
        assert abs(traj.end_point()) < 0.2
        xs = traj.samples[:, 1]
        ys = np.abs(traj.samples[:, 2])
        assert np.max(np.abs(xs)) < 1e-6 * np.max(ys)

    def test_center_case_recurrent(self):
        # in the three-center configuration the trace from e0 crosses the
        # finite region and keeps returning to it (circulation in a
        # center-type region) instead of settling or blowing up
        p = CPoly([0, -1j, 0, 1])  # z^3 - iz
        eqs = infinity_equilibria(3)
        traj = trace_separatrix(p, eqs[0])
        assert traj.terminal is Terminal.TIME_REACHED
        radii = np.abs(traj.points)
        inside = radii < 3.0
        # count separate visits to the finite region
        visits = int(np.sum(inside[1:] & ~inside[:-1]))
        assert visits >= 3
        assert np.min(radii) < 1.0


def _c(re_hex, im_hex):
    return complex(float.fromhex(re_hex), float.fromhex(im_hex))


# numpy's complex-multiply loop on x86-64 with AVX2 or AVX-512 fuses
# re = fma(ar, br, -(ai*bi)); the golden values were recorded with it,
# and this pair rounds differently without it
_FUSED_PROBE = (_c("0x1.659ba6efbac71p-2", "-0x1.474b54ed0257ep-1"),
                _c("-0x1.99b937d602a96p-1", "-0x1.99b3cfcb3b149p-1"),
                _c("-0x1.94fcb94e668a1p-1", "0x1.db5773342b4fdp-3"))
fused_multiply = pytest.mark.skipif(
    complex(np.multiply(*_FUSED_PROBE[:2])) != _FUSED_PROBE[2],
    reason="golden values were recorded with numpy's fused complex multiply")

# the crossing-cycle fixed point of CYCLE_PARAMS
X_CYCLE = float.fromhex("0x1.f3e45b75976d8p-6")


@fused_multiply
class TestOracleGolden:
    """The oracle's outputs, pinned bit for bit (float.hex)."""

    def test_return_map(self):
        pw = _mixed_piecewise(**CYCLE_PARAMS)
        tight = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-11)
        assert return_map(pw, X_CYCLE).hex() == "0x1.f3e45b97f701ap-6"
        assert return_map(pw, X_CYCLE, tight).hex() == "0x1.f3e45b7635766p-6"
        assert return_map_derivative(pw, X_CYCLE).hex() == "0x1.2aa4fe665a070p-6"

    @pytest.mark.parametrize("make, t_end, end, count", [
        (holomorphic, 1.0, ("0x1.5fb047753e385p+0", "0x1.4adbbfd012830p+0"), 28),
        (holomorphic, -1.0, ("0x1.a3eaec3713c31p-4", "0x1.a84e1fdc9f2b8p-4"), 14),
        (anti_holomorphic, 1.0, ("0x1.e409a6cbbcff0p+0", "0x1.5e5836c77ea78p-4"), 29),
        (anti_holomorphic, -1.0, ("0x1.5edccbf6132bep-3", "0x1.03e16d4001976p-1"), 19),
    ])
    def test_integrate(self, make, t_end, end, count):
        traj = integrate(make([0.3 + 0.1j, -0.2j, 1.0]), 0.5 + 0.25j, t_end)
        assert traj.terminal is Terminal.TIME_REACHED
        assert traj.samples.shape[0] == count
        assert traj.end_point() == _c(*end)

    def test_separatrix(self):
        traj = trace_separatrix(CPoly([0, -1, 0, 1]), infinity_equilibria(3)[1])
        assert traj.terminal is Terminal.TIME_REACHED
        assert traj.samples.shape[0] == 444
        assert traj.end_point() == _c("0x1.b1851e1b18d94p-110", "0x1.24d18bfd2067cp-29")

    def test_normal_form_cubic_separatrix(self):
        # z^3 + a1 z + a0 with complex a1, a0: the shape of the cubics
        # whose separatrices the explore-cli benchmark traces
        p = CPoly([1.283035459505607 + 1.0603505334481957j,
                   -0.034133032672489294 + 0.4588600306432779j, 0.0, 1.0])
        traj = trace_separatrix(p, infinity_equilibria(3)[1])
        assert traj.terminal is Terminal.TIME_REACHED
        assert traj.samples.shape[0] == 440
        assert traj.end_point() == _c("0x1.c699e020419d0p-3", "0x1.16609e1c3adc6p+0")

    @pytest.mark.parametrize("make", [holomorphic, anti_holomorphic])
    def test_overflowing_stages(self, make):
        # stage values of z^12 near |z| = 1e12 overflow to inf; those
        # steps shrink, no numpy warning escapes, and the orbit still
        # reaches the blow-up radius
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = integrate(make([0] * 12 + [1]), 1e11, 1.0)
        assert traj.terminal is Terminal.BLOWUP
        assert traj.samples.shape[0] == 70
        assert traj.end_point() == _c("0x1.d48017f0580a7p+39", "0x0.0p+0")


class TestStepper:
    def test_six_new_rhs_calls_per_step(self):
        # seven stages per step; the seventh, f at the new point, is the
        # next step's first (FSAL), so after the initial evaluation each
        # accepted step costs six calls when no step is rejected
        calls = 0

        def field(z):
            nonlocal calls
            calls += 1
            return 1j * z

        traj = integrate(field, 1.0, 1.0)
        steps = traj.samples.shape[0] - 1
        assert steps == 19
        assert calls == 1 + 6 * steps

    def test_nan_field_raises_step_underflow(self):
        with pytest.raises(StepUnderflow) as info:
            integrate(lambda z: complex("nan"), 1.0, 1.0)
        assert not isinstance(info.value, RuntimeError)

    @pytest.mark.parametrize("make", [holomorphic, anti_holomorphic])
    def test_overflow_at_start_is_typed_and_silent(self, make):
        # z^30 overflows already at the start point
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StepUnderflow):
                integrate(make([0] * 30 + [1]), 1e11, 1.0)

    def test_overflowing_norm_shrinks_the_step(self):
        # every stage after the first is finite but so large that
        # |z_new| overflows on the first trial step (h = 1); the step
        # shrinks instead of raising OverflowError
        first = iter([1e-9])

        def field(z):
            return next(first, complex(1.5e308, 1.5e308))

        traj = integrate(field, 1e10, 1.0, IntegratorConfig(rel_tol=1.0, abs_tol=1.0))
        assert traj.terminal is Terminal.BLOWUP
        assert traj.times[-1] == pytest.approx(0.1)

    def test_half_return_underflow_is_none(self):
        # enters the upper half-plane, then the field is NaN off the axis
        field = lambda z: 1j if z.imag == 0 else complex("nan")  # noqa: E731
        assert half_return(field, 0.0, Side.UPPER) is None
        assert half_return_outcome(field, 0.0, Side.UPPER) == (Outcome.UNDERFLOW, None)


def _bits(v):
    """The bytes of a complex, so that NaN and the sign of zero count."""
    return np.complex128(v).tobytes()


# points with signed zeros, infinite parts and moduli that overflow
_EDGE_POINTS = (0j, -0j, complex(math.inf, 0.0), complex(-math.inf, 1.0),
                complex(0.0, math.inf), complex(1.0, -math.inf), complex(1e300, 1e300),
                complex(-1e200, 3e200), complex(1e-300, -1e-320))


class TestScalarField:
    """``SystemSpec.scalar_field`` is ``velocity`` bit for bit. These
    checks compare the two paths on the same machine, so unlike the
    float.hex goldens they hold with or without a fused multiply."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=7),
           z0=st.complex_numbers(max_magnitude=2.0),
           make=st.sampled_from([holomorphic, anti_holomorphic]),
           t_end=st.sampled_from([1.0, -1.0]))
    def test_integrate_matches_velocity(self, coeffs, z0, make, t_end):
        spec = make(coeffs)
        try:
            fast = integrate(spec, z0, t_end)
        except StepUnderflow:
            with pytest.raises(StepUnderflow):
                integrate(spec.velocity, z0, t_end)
            return
        slow = integrate(spec.velocity, z0, t_end)
        assert fast.terminal is slow.terminal
        assert fast.samples.tobytes() == slow.samples.tobytes()
        # the field lives for the one call; nothing is cached on the spec
        assert set(vars(spec)) == {"kind", "p"}

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(allow_nan=False), min_size=1, max_size=7),
           points=st.lists(st.complex_numbers(allow_nan=False), max_size=8),
           make=st.sampled_from([holomorphic, anti_holomorphic]))
    # degree 0 goes through the same loop with no products
    @example(coeffs=[0.5 - 2j], points=[1j], make=holomorphic)
    @example(coeffs=[complex(-0.0, 0.0)], points=[1j], make=anti_holomorphic)
    def test_field_matches_velocity(self, coeffs, points, make):
        spec = make(coeffs)
        field = spec.scalar_field()
        with np.errstate(all="ignore"):
            for z in points + list(_EDGE_POINTS):
                fast, slow = field(z), spec.velocity(z)
                assert type(fast) is complex
                assert _bits(fast) == _bits(slow)

    def test_seeded_sweep_is_bit_identical(self):
        """51,200 evaluations from a fixed seed: degree 0 to 7, both
        kinds, parts of magnitude up to 1e+-150, signed zeros, inf, NaN
        and subnormals, through two fields of one spec called in turn.
        A field whose product writes into one of its own inputs rounds
        differently and fails here."""
        rng = np.random.default_rng(20261018)
        count = 0
        with np.errstate(all="ignore"):
            for degree in range(8):
                for make in (holomorphic, anti_holomorphic):
                    for _ in range(100):
                        top_exp = rng.choice([0.5, 3.0, 20.0, 150.0])
                        special = rng.choice([0.0, 0.05, 0.25])

                        def draw():
                            return complex(_sweep_part(rng, top_exp, special),
                                           _sweep_part(rng, top_exp, special))

                        spec = make([draw() for _ in range(degree + 1)])
                        fields = (spec.scalar_field(), spec.scalar_field())
                        for k in range(32):
                            z = draw()
                            fast, slow = fields[k % 2](z), spec.velocity(z)
                            assert type(fast) is complex
                            assert ((fast.real.hex(), fast.imag.hex())
                                    == (slow.real.hex(), slow.imag.hex())), (spec, z)
                            count += 1
        assert count == 51_200


# parts that a seeded draw picks now and then
_SPECIAL_PARTS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                  2.2250738585072014e-308)


def _sweep_part(rng, top_exp, special):
    """One float part: with probability special one of _SPECIAL_PARTS,
    else a subnormal one time in ten, else a signed value of magnitude
    10**u, u uniform in [-top_exp, top_exp]."""
    if rng.random() < special:
        return _SPECIAL_PARTS[rng.integers(len(_SPECIAL_PARTS))]
    if rng.random() < 0.1:
        return float(rng.uniform(-1.0, 1.0)) * 2.0 ** -1022
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-top_exp, top_exp))


def _focus_side(z_e, lam, others):
    """Holomorphic side with simple roots z_e and others, scaled so that
    p'(z_e) = lam: an attracting focus at z_e when Re lam < 0."""
    unit = CPoly.from_roots([z_e] + others)
    return holomorphic(unit.coeffs * (lam / unit.derivative()(z_e)))


# degree 2 and 3 sides with an attracting focus 0.5 below / 0.6 above the
# axis; each orbit from the start spirals into it without landing
TRAPPING_SIDES = [
    (_focus_side(-0.5j, -0.3 + 1j, [2.0]), -1.0, Side.LOWER),
    (_focus_side(0.6j, -0.4 - 1j, [3.0, -3.0 - 1j]), -1.0, Side.UPPER),
]


def _uncertified(monkeypatch):
    monkeypatch.setattr(odeint, "_certificate", lambda spec, s, cfg: None)


class TestTrapCertificate:
    """Certified trap discs end doomed half-returns early and change no
    landing: a certificate only turns a None into an earlier None."""

    @pytest.mark.parametrize("spec, x, side", TRAPPING_SIDES, ids=["degree-2", "degree-3"])
    def test_attracting_focus_is_trapped(self, spec, x, side):
        assert half_return_outcome(spec, x, side) == (Outcome.TRAPPED, None)
        assert half_return(spec, x, side) is None

    @pytest.mark.parametrize("spec, x, side", TRAPPING_SIDES, ids=["degree-2", "degree-3"])
    def test_uncertified_orbit_runs_to_its_limit(self, monkeypatch, spec, x, side):
        _uncertified(monkeypatch)
        cfg = IntegratorConfig(max_steps=3000)
        assert half_return_outcome(spec, x, side, cfg) == (Outcome.STEP_LIMIT, None)

    def test_focus_on_the_other_side_gives_no_disc(self):
        spec, _, _ = TRAPPING_SIDES[0]
        assert odeint._trap_discs(spec, 1.0, odeint.DEFAULT_CONFIG) == ()
        assert len(odeint._trap_discs(spec, -1.0, odeint.DEFAULT_CONFIG)) == 1

    def test_disc_is_invariant_and_clear_of_the_axis(self):
        for spec, _, side in TRAPPING_SIDES:
            (z_e, r), = odeint._trap_discs(spec, float(side.value), odeint.DEFAULT_CONFIG)
            assert 0 < r < abs(z_e.imag)
            # the radial speed is inward all around the boundary circle
            w = r * np.exp(2j * np.pi * np.arange(64) / 64)
            assert np.all((np.conj(w) * spec.velocity(z_e + w)).real < 0)

    @pytest.mark.parametrize("coeffs", [[complex("nan"), 1j], [1.0, complex("nan"), 1j]])
    def test_nan_coefficient_changes_nothing(self, monkeypatch, coeffs):
        spec = holomorphic(coeffs)
        certified = half_return_outcome(spec, 0.5, Side.LOWER)
        _uncertified(monkeypatch)
        assert half_return_outcome(spec, 0.5, Side.LOWER) == certified

    def test_failing_roots_change_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NonConvergence("companion eigenvalues failed")

        cfg = IntegratorConfig(max_steps=3000)
        spec, x, side = TRAPPING_SIDES[0]
        # 2.5, not the equilibrium 2.0, where the field is tangent
        landing = half_return_outcome(spec, 2.5, side, cfg)
        assert landing[0] is Outcome.LANDED
        monkeypatch.setattr(cpoly, "roots", fail)
        assert half_return_outcome(spec, x, side, cfg) == (Outcome.STEP_LIMIT, None)
        assert half_return_outcome(spec, 2.5, side, cfg) == landing

    def test_linear_side_needs_no_eigenvalue_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("roots called for a linear side")

        monkeypatch.setattr(cpoly, "roots", fail)
        lam = complex(-0.3, 1.0)
        spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * -0.5j, lam]))
        assert half_return_outcome(spec, -1.0, Side.LOWER) == (Outcome.TRAPPED, None)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_landing_moves(self, monkeypatch, data):
        """The half-return with the discs monkeypatched away lands exactly
        (float.hex) where the certified one does, and never lands where
        the certified one is trapped. Both runs share a cap of 2000
        steps, which bounds the uncertified run's time and changes no
        step before it. Sides: the lower side of criterion 4's
        mixed-general draws, and holomorphic degree 2-3 sides with
        coefficients in [-2.5, 2.5]^2. The start enters the half-plane
        its field points into."""
        real = st.floats(-2.0, 2.0)
        if data.draw(st.booleans(), label="mixed-general"):
            b = data.draw(st.floats(0.05, 2.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
            lam = complex(data.draw(real, label="a"), b)
            z0 = complex(data.draw(real, label="x0"),
                         data.draw(real.filter(lambda y: y != 0.0), label="y0"))
            spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * z0, lam]))
        else:
            degree = data.draw(st.integers(2, 3), label="degree")
            coeff = st.floats(-2.5, 2.5)
            spec = holomorphic([complex(data.draw(coeff), data.draw(coeff))
                                for _ in range(degree + 1)])
        x = data.draw(st.floats(-3.0, 3.0), label="x")
        side = Side.UPPER if spec.velocity(complex(x, 0.0)).imag > 0 else Side.LOWER
        cfg = IntegratorConfig(max_steps=2000)
        certified = half_return_outcome(spec, x, side, cfg)
        with monkeypatch.context() as m:
            _uncertified(m)
            plain = half_return_outcome(spec, x, side, cfg)
        if certified[0] is Outcome.TRAPPED:
            assert plain[0] is not Outcome.LANDED
        else:
            assert plain[0] is certified[0]
            if plain[0] is Outcome.LANDED:
                assert plain[1].hex() == certified[1].hex()


def _saddle_through(z_e, c1):
    """Linear anti-holomorphic side with its saddle at z_e."""
    return anti_holomorphic([-c1 * z_e, c1])


class TestEscapeCertificate:
    """The saddle certificate ends a linear anti-holomorphic half-return
    once the closed-form future orbit provably stays off the axis, and
    changes no landing."""

    def test_quick_escape(self, monkeypatch):
        spec = _mixed_piecewise(**CYCLE_PARAMS).upper
        cfg = IntegratorConfig(max_steps=3)
        assert half_return_outcome(spec, 2.0, Side.UPPER, cfg) == (Outcome.ESCAPED, None)
        assert half_return(spec, 2.0, Side.UPPER) is None
        _uncertified(monkeypatch)
        assert half_return_outcome(spec, 2.0, Side.UPPER, cfg) == (Outcome.STEP_LIMIT, None)
        assert half_return_outcome(spec, 2.0, Side.UPPER) == (Outcome.ESCAPED, None)

    def test_stable_manifold_start_gets_no_certificate(self, monkeypatch):
        # c1 = 2i: the stable manifold of the saddle 1 + 0.5i runs along
        # 1 + i and meets the axis at 0.5. Rounding decides which way the
        # orbit leaves the saddle; here it lands, so a certificate that
        # trusted the sign of a rounding-sized unstable component would
        # have called this orbit escaped.
        z_e = 1.0 + 0.5j
        spec = _saddle_through(z_e, 2j)
        escaped = odeint._saddle_escape(spec, 1.0, odeint.DEFAULT_CONFIG)
        for t in np.linspace(-0.5, 0.5, 11):
            assert escaped(z_e + t * (1 + 1j)) is None
        certified = half_return_outcome(spec, 0.5, Side.UPPER)
        assert certified[0] is Outcome.LANDED
        _uncertified(monkeypatch)
        plain = half_return_outcome(spec, 0.5, Side.UPPER)
        assert plain[1].hex() == certified[1].hex()

    def test_real_c1_escapes_through_the_blowup_radius(self):
        # zdot = conj(z) + 0.5i: the unstable direction is horizontal, so
        # the orbit nears y = 0.5 and the saddle test never fires
        spec = anti_holomorphic([-0.5j, 1.0])
        escaped = odeint._saddle_escape(spec, 1.0, odeint.DEFAULT_CONFIG)
        assert all(escaped(complex(x, y)) is None
                   for x in (-1e6, -1.0, 3.0, 1e9) for y in (0.25, 0.5, 2.0))
        assert half_return_outcome(spec, 1.0, Side.UPPER) == (Outcome.ESCAPED, None)
        cfg = IntegratorConfig(max_steps=100)
        assert half_return_outcome(spec, 1.0, Side.UPPER, cfg) == (Outcome.STEP_LIMIT, None)

    @pytest.mark.parametrize("coeffs", [[complex("nan"), 1j], [1.0 - 1j, complex("nan")],
                                        [1.0 - 1j, complex(0.0, math.inf)]])
    def test_non_finite_coefficient_changes_nothing(self, monkeypatch, coeffs):
        spec = anti_holomorphic(coeffs)
        assert odeint._saddle_escape(spec, 1.0, odeint.DEFAULT_CONFIG) is None
        certified = half_return_outcome(spec, 0.5, Side.UPPER)
        _uncertified(monkeypatch)
        assert half_return_outcome(spec, 0.5, Side.UPPER) == certified

    @pytest.mark.parametrize("spec", [
        holomorphic([1.0 - 1j, 2j]),
        holomorphic([1.0 - 1j, 2j, 1.0]),
        anti_holomorphic([1.0 - 1j]),
        anti_holomorphic([1.0 - 1j, 2j, 1.0]),
        anti_holomorphic([1.0 - 1j, 2j, 1.0, 0.5j]),
    ], ids=["holo-1", "holo-2", "antiholo-0", "antiholo-2", "antiholo-3"])
    def test_other_sides_make_no_saddle_check(self, spec):
        for s in (1.0, -1.0):
            assert odeint._saddle_escape(spec, s, odeint.DEFAULT_CONFIG) is None

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_landing_moves(self, monkeypatch, data):
        """The half-return with the certificates monkeypatched away lands
        exactly (float.hex) where the certified one does, and never lands
        where the certified one escaped. Both runs share a cap of 2000
        steps. Sides: the upper side of criterion 3's and criterion 4's
        draws, and linear anti-holomorphic sides with coefficients in
        [-2.5, 2.5]^2, at tolerances 1e-9 and 1e-11. The random sides
        start anywhere in [-3, 3], or within 1e-7 relative of where the
        saddle's stable manifold meets the axis, where rounding decides
        whether the orbit lands."""
        family = data.draw(st.sampled_from(["criterion-3", "criterion-4", "random",
                                            "stable-manifold"]), label="family")
        x = data.draw(st.floats(-3.0, 3.0), label="x")
        if family == "stable-manifold":
            coeff = st.floats(-2.5, 2.5)
            z_e = complex(data.draw(coeff), data.draw(coeff.filter(lambda y: abs(y) > 0.1)))
            c1 = complex(data.draw(coeff), data.draw(coeff))
            assume(abs(c1) > 0.1)
            # the stable manifold runs along i e^{-i phi/2}
            d = 1j / np.sqrt(c1 / abs(c1))
            assume(abs(d.imag) > 0.1)
            offset = (10.0 ** data.draw(st.integers(-16, -7), label="log10 offset")
                      * data.draw(st.floats(-1.0, 1.0)))
            x = (z_e.real - z_e.imag * d.real / d.imag) * (1.0 + offset)
            spec = _saddle_through(z_e, c1)
        elif family == "criterion-3":
            unit = st.floats(-2.0, 2.0)
            b2 = data.draw(st.floats(0.2, 2.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
            spec = _upper_side(data.draw(unit), data.draw(unit), data.draw(unit), b2)
        elif family == "criterion-4":
            unit = st.floats(-3.0, 3.0)
            spec = _upper_side(*(data.draw(unit) for _ in range(4)))
        else:
            coeff = st.floats(-2.5, 2.5)
            spec = anti_holomorphic([complex(data.draw(coeff), data.draw(coeff))
                                     for _ in range(2)])
        side = Side.UPPER if spec.velocity(complex(x, 0.0)).imag > 0 else Side.LOWER
        tol = data.draw(st.sampled_from([1e-9, 1e-11]), label="tol")
        cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol, max_steps=2000)
        certified = half_return_outcome(spec, x, side, cfg)
        with monkeypatch.context() as m:
            _uncertified(m)
            plain = half_return_outcome(spec, x, side, cfg)
        if certified[0] is Outcome.ESCAPED:
            assert plain[0] is not Outcome.LANDED
        else:
            assert plain[0] is certified[0]
            if plain[0] is Outcome.LANDED:
                assert plain[1].hex() == certified[1].hex()


def _counted_steps(monkeypatch):
    """A list that gains one entry per call of ``_Dopri5.step``."""
    calls, step = [], odeint._Dopri5.step

    def counted(self, *args, **kwargs):
        calls.append(None)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(odeint._Dopri5, "step", counted)
    return calls


class TestStepBudget:
    """A half-return runs at most min(cfg.max_steps, HALF_RETURN_STEPS)
    steps and then ends STEP_LIMIT; ``integrate`` keeps cfg.max_steps."""

    def test_stable_manifold_start_ends_at_the_budget(self, monkeypatch):
        # conj(i z - i (1 + i)): the computed field is exactly 0 at the
        # saddle 1 + i, whose stable manifold meets the axis at x = 0.
        # The orbit creeps along it and, unbounded, runs about 300,000
        # steps to MAX_TIME.
        calls = _counted_steps(monkeypatch)
        spec = anti_holomorphic([-1j * (1 + 1j), 1j])
        assert half_return_outcome(spec, 0.0, Side.UPPER) == (Outcome.STEP_LIMIT, None)
        assert len(calls) == odeint.HALF_RETURN_STEPS

    def test_integrate_keeps_max_steps(self, monkeypatch):
        calls = _counted_steps(monkeypatch)
        cfg = IntegratorConfig(max_steps=odeint.HALF_RETURN_STEPS + 5)
        traj = integrate(holomorphic([0, 1j]), 0.5, math.inf, cfg)
        assert traj.terminal is Terminal.STEP_LIMIT
        assert len(calls) == traj.samples.shape[0] - 1 == odeint.HALF_RETURN_STEPS + 5


def _readme_quadratic_pair():
    """The README's `holoflow cycles --family antiholo` example."""
    return PiecewiseSpec(anti_holomorphic([1 + 0.5j, 2 + 1.5j, 3 + 0.5j]),
                         anti_holomorphic([-3 + 1j, -1 + 1j, -4 - 2.6862j]))


def _entering_side(spec, x):
    return Side.UPPER if spec.velocity(complex(x, 0.0)).imag > 0 else Side.LOWER


class TestLevelEscape:
    """The level certificate ends a half-return on an anti-holomorphic
    side of degree >= 2 once the first integral Im Omega leaves no point
    of the axis that Re Omega can still reach, and changes no landing."""

    SIDE = anti_holomorphic([1.0 - 1j, 2j, 1.0, 0.5j])

    def test_degree_3_escape_within_100_steps(self, monkeypatch):
        cfg = IntegratorConfig(max_steps=100)
        assert half_return_outcome(self.SIDE, 0.5, Side.LOWER, cfg) == (Outcome.ESCAPED, None)
        _uncertified(monkeypatch)
        assert half_return_outcome(self.SIDE, 0.5, Side.LOWER, cfg) == (Outcome.STEP_LIMIT, None)
        assert half_return_outcome(self.SIDE, 0.5, Side.LOWER) == (Outcome.ESCAPED, None)

    def test_readme_pair_cycle_lands_bit_identical(self, monkeypatch):
        pw = _readme_quadratic_pair()
        cand, = pwcycles.solve_antiholo_pair(pw)
        assert cand.verified is pwcycles.Verified.NUMERICALLY_CONFIRMED
        # the lower arc runs from x1 to x2, the upper one back

        def landings():
            return (return_map(pw, cand.x1), half_return(pw.lower, cand.x1, Side.LOWER),
                    half_return(pw.upper, cand.x2, Side.UPPER))

        certified = landings()
        _uncertified(monkeypatch)
        plain = landings()
        assert [x.hex() for x in plain] == [x.hex() for x in certified]
        again, = pwcycles.solve_antiholo_pair(pw)
        assert (again.x1.hex(), again.miss.hex(), again.multiplier.hex()) == (
            cand.x1.hex(), cand.miss.hex(), cand.multiplier.hex())

    @pytest.mark.parametrize("coeffs", [
        [1.0 - 1j, 2j, 3.0],                      # Omega's leading coefficient 1 is real
        [0.5j, 1.0, -1j, 2.0],
        [complex("nan"), 2j, 1.0 + 1j],
        [1.0, 2j, complex(0.5, math.inf)],
        [1.0, complex(-math.inf, 1.0), 1.0, 0.5j],
    ], ids=["real-lead-2", "real-lead-3", "nan", "inf-lead", "inf-middle"])
    def test_no_certificate(self, monkeypatch, coeffs):
        spec = anti_holomorphic(coeffs)
        assert odeint._level_escape(spec, odeint.DEFAULT_CONFIG) is None
        assert odeint._certificate(spec, 1.0, odeint.DEFAULT_CONFIG) is None
        cfg = IntegratorConfig(max_steps=2000)
        certified = [half_return_outcome(spec, 0.5, side, cfg) for side in Side]
        _uncertified(monkeypatch)
        assert [half_return_outcome(spec, 0.5, side, cfg) for side in Side] == certified

    @pytest.mark.parametrize("spec", [
        holomorphic([1.0 - 1j, 2j]),
        holomorphic([1.0 - 1j, 2j, 1.0]),
        holomorphic([1.0 - 1j, 2j, 1.0, 0.5j]),
        anti_holomorphic([1.0 - 1j]),
        anti_holomorphic([1.0 - 1j, 2j]),
        lambda z: 1j * z * z,
    ], ids=["holo-1", "holo-2", "holo-3", "antiholo-0", "antiholo-1", "callable"])
    def test_other_fields_make_no_level_check(self, spec):
        assert odeint._level_escape(spec, odeint.DEFAULT_CONFIG) is None

    def test_no_root_finding(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("root finding called by the level certificate")

        monkeypatch.setattr(np, "roots", fail)
        monkeypatch.setattr(cpoly, "roots", fail)
        cfg = IntegratorConfig(max_steps=100)
        assert half_return_outcome(self.SIDE, 0.5, Side.LOWER, cfg) == (Outcome.ESCAPED, None)
        spec = anti_holomorphic([0.5j, 1.0, -1j])
        assert half_return_outcome(spec, 1.0, _entering_side(spec, 1.0), cfg) == (
            Outcome.ESCAPED, None)

    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(2, 3), data=st.data())
    def test_no_point_before_a_landing_is_certified(self, degree, data):
        """Every point of an orbit that reaches the axis at x later is
        left uncertified: integrate backward from x and test each
        sample."""
        unit = st.floats(-3.0, 3.0)
        coeffs = [complex(data.draw(unit), data.draw(unit)) for _ in range(degree + 1)]
        assume(abs(coeffs[-1].imag) >= 0.05)
        spec = anti_holomorphic(coeffs)
        escaped = odeint._level_escape(spec, odeint.DEFAULT_CONFIG)
        x = data.draw(unit, label="x")
        traj = integrate(spec, x, -20.0, IntegratorConfig(max_steps=500))
        assert all(escaped(complex(z)) is None for z in traj.points)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_landing_moves(self, monkeypatch, data):
        """The half-return with the certificates monkeypatched away lands
        exactly (float.hex) where the certified one does, and never lands
        where the certified one escaped. Both runs share a cap of 2000
        steps. Sides: degree 2 and 3, coefficients in [-3, 3]^2 (criterion
        4's normal draws to 3 sigma) with |Im| of the leading one at least
        0.05, as criterion 4 asks, at tolerances 1e-9 and 1e-11. The start is anywhere in [-3, 3], on the side
        the field enters, or within 1e-7 relative of a point of the axis
        on the level line Im Omega = Im Omega(z_e) of a saddle z_e, where
        rounding decides which way the orbit leaves the saddle."""
        degree = data.draw(st.integers(2, 3), label="degree")
        unit = st.floats(-3.0, 3.0)
        coeffs = [complex(data.draw(unit), data.draw(unit)) for _ in range(degree + 1)]
        assume(abs(coeffs[-1].imag) >= 0.05)
        spec = anti_holomorphic(coeffs)
        if data.draw(st.booleans(), label="separatrix"):
            omega = spec.p.antiderivative()
            saddles = np.roots(spec.p.coeffs[::-1])
            z_e = saddles[data.draw(st.integers(0, degree - 1), label="saddle")]
            psi = omega.coeffs.imag.copy()
            psi[0] -= omega(z_e).imag
            xs = [r.real for r in np.roots(psi[::-1]) if abs(r.imag) < 1e-9]
            assume(xs)
            x = xs[data.draw(st.integers(0, len(xs) - 1), label="crossing")]
            x *= 1.0 + (10.0 ** data.draw(st.integers(-16, -7), label="log10 offset")
                        * data.draw(st.floats(-1.0, 1.0)))
        else:
            x = data.draw(st.floats(-3.0, 3.0), label="x")
        assume(spec.velocity(complex(x, 0.0)).imag != 0)
        side = _entering_side(spec, x)
        tol = data.draw(st.sampled_from([1e-9, 1e-11]), label="tol")
        cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol, max_steps=2000)
        certified = half_return_outcome(spec, x, side, cfg)
        with monkeypatch.context() as m:
            _uncertified(m)
            plain = half_return_outcome(spec, x, side, cfg)
        if certified[0] is Outcome.ESCAPED:
            assert plain[0] is not Outcome.LANDED
        else:
            assert plain[0] is certified[0]
            if plain[0] is Outcome.LANDED:
                assert plain[1].hex() == certified[1].hex()


def _always_scan(monkeypatch):
    monkeypatch.setattr(odeint, "_clear_of_axis", lambda dense, s, level: False)


# parts of a dense-output coefficient: signed zeros, unit-sized values
# and magnitudes from 1e-150 to 1e150
_PART = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-4.0, 4.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-150, 150)))


def _dense_near_the_bound(data, s, level):
    """A dense tuple (y0, r2, r3, r4, r5). Its s * Im y0 sits at, a few
    ulps or a random share beside, one of two anchors: reach + level,
    with reach = sum |Im r_k|, where the skip test turns; or where the
    lowest of the samples at _THETAS is exactly level."""
    rs = [complex(data.draw(_PART), data.draw(_PART)) for _ in range(4)]
    if data.draw(st.booleans(), label="lowest-sample anchor"):
        stepper = SimpleNamespace(_dense=(0j, *rs))
        anchor = level - min(s * odeint._Dopri5.dense(stepper, th).imag
                             for th in odeint._THETAS)
    else:
        anchor = sum(abs(r.imag) for r in rs) + level
    ulps = data.draw(st.integers(-64, 64), label="ulps") * math.ulp(anchor)
    share = data.draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.floats(0.0, 1e3)),
                      label="share")
    y0 = complex(data.draw(_PART), s * (anchor + ulps + share * anchor))
    return (y0, *rs)


class TestScanSkip:
    """A step whose dense output provably stays beyond armed_level on
    the side of the excursion skips the crossing scan, which could only
    arm; no outcome and no landing moves."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_landing_moves(self, monkeypatch, data):
        """The half-return that scans every step ends in the same
        Outcome, and lands exactly (float.hex) where the skipping one
        does. Both runs share a cap of 2000 steps. Sides: holomorphic and
        anti-holomorphic, degree 1 to 3, coefficients in [-2.5, 2.5]^2,
        at tolerances 1e-9 and 1e-11, from a start in [-3, 3] on the side
        the field enters."""
        make = data.draw(st.sampled_from([holomorphic, anti_holomorphic]), label="kind")
        degree = data.draw(st.integers(1, 3), label="degree")
        coeff = st.floats(-2.5, 2.5)
        spec = make([complex(data.draw(coeff), data.draw(coeff)) for _ in range(degree + 1)])
        x = data.draw(st.floats(-3.0, 3.0), label="x")
        side = _entering_side(spec, x)
        tol = data.draw(st.sampled_from([1e-9, 1e-11]), label="tol")
        cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol, max_steps=2000)
        skipping = half_return_outcome(spec, x, side, cfg)
        with monkeypatch.context() as m:
            _always_scan(m)
            scanned = half_return_outcome(spec, x, side, cfg)
        assert scanned[0] is skipping[0]
        if scanned[0] is Outcome.LANDED:
            assert scanned[1].hex() == skipping[1].hex()
        else:
            assert scanned[1] is skipping[1] is None

    def test_most_steps_of_a_landing_skip(self, monkeypatch):
        pw = _readme_quadratic_pair()
        cand, = pwcycles.solve_antiholo_pair(pw, validate=False)
        clear, tests = odeint._clear_of_axis, []

        def counted(*args):
            tests.append(clear(*args))
            return tests[-1]

        monkeypatch.setattr(odeint, "_clear_of_axis", counted)
        landing = half_return(pw.lower, cand.x1, Side.LOWER)
        assert sum(tests) > 0.5 * len(tests)
        _always_scan(monkeypatch)
        assert half_return(pw.lower, cand.x1, Side.LOWER).hex() == landing.hex()

    @settings(max_examples=500, deadline=None)
    @given(s=st.sampled_from([1.0, -1.0]),
           level=st.one_of(st.floats(1e-300, 1e10), st.sampled_from([1e-11, 1e-9])),
           data=st.data())
    def test_skip_implies_every_sample_beyond_the_level(self, s, level, data):
        """Whenever the test holds, every sample that ``_Dopri5.dense``
        computes at a theta of _THETAS has s * Im z > level."""
        dense = _dense_near_the_bound(data, s, level)
        if odeint._clear_of_axis(dense, s, level):
            stepper = SimpleNamespace(_dense=dense)
            for th in odeint._THETAS:
                assert s * odeint._Dopri5.dense(stepper, th).imag > level

    @settings(max_examples=200, deadline=None)
    @given(s=st.sampled_from([1.0, -1.0]), data=st.data(),
           bad=st.sampled_from([math.inf, -math.inf, math.nan]),
           where=st.integers(0, 9))
    def test_inf_or_nan_never_skips(self, s, data, bad, where):
        y0, *rs = _dense_near_the_bound(data, s, 1e-9)
        # well clear of the bound before one part turns non-finite; the
        # tuple's own Im y0 is not used
        parts = [y0.real, s * (4.0 * sum(abs(r.imag) for r in rs) + 1.0)]
        assert odeint._clear_of_axis((complex(*parts), *rs), s, 1e-9)
        parts += [v for r in rs for v in (r.real, r.imag)]
        parts[where] = bad
        dense = tuple(complex(parts[k], parts[k + 1]) for k in range(0, 10, 2))
        assert not odeint._clear_of_axis(dense, s, 1e-9)


class TestIntegratorConfig:
    @pytest.mark.parametrize("field, value", [
        ("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", 0.0),
        ("abs_tol", math.nan), ("abs_tol", math.inf), ("abs_tol", -1e-9),
        ("max_steps", 0), ("max_steps", 2.5), ("max_steps", 1e6), ("max_steps", "10"),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{field: value})

    def test_one_step_allowed(self):
        assert IntegratorConfig(max_steps=1).max_steps == 1

    def test_numpy_integer_max_steps_allowed(self):
        cfg = IntegratorConfig(max_steps=np.int64(5))
        traj = integrate(holomorphic([0, 1]), 1.0, 100.0, cfg)
        assert traj.terminal is Terminal.STEP_LIMIT
        assert traj.samples.shape[0] == 6
