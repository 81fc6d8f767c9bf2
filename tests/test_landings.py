"""DOPRI5 landings against the truth, not against pinned bits: the
mixed-linear return map against its closed form at 50 digits (mpmath),
and a seeded sweep of anti-holomorphic half-returns against the exact
landing that the first integral gives (tests/exact.py)."""

import math
from fractions import Fraction

import numpy as np
import pytest

import exact
from holoflow.odeint import IntegratorConfig, Outcome, Side, half_return_outcome, return_map
from holoflow.potential import anti_holomorphic
from holoflow.pwcycles import MixedLinearSpec, solve_mixed_linear_on_sigma
from test_odeint import CYCLE_PARAMS, X_CYCLE, _mixed_piecewise

mpmath = pytest.importorskip("mpmath")

# each landing is within bound * max(1, |x'|) of the truth
TOLERANCES = pytest.mark.parametrize("cfg, bound", [
    (IntegratorConfig(), 1e-6),
    (IntegratorConfig(rel_tol=1e-11, abs_tol=1e-11), 1e-8),
], ids=["default", "1e-11"])


def _exact_return(a1, a2, b1, b2, a, b, x):
    """The full return from (x, 0) of the mixed-linear system with
    x0 = y0 = 0, at 50 digits. The anti-holomorphic upper side keeps
    psi(x) = a2 x^2 / 2 + b2 x, so it lands at the other root of
    psi(x') = psi(x), -x - 2 b2 / a2 (``MixedGeneralConstants.L``); the
    lower side zdot = (a + ib) z turns z by pi in time pi / |b|, so it
    lands at -x e^(a pi / |b|). The first half-return goes into the side
    whose vertical velocity at x, -(a2 x + b2) above and b x below,
    enters it."""
    assert (a2 * x + b2) * (b * x) < 0, "not a crossing"
    with mpmath.workdps(50):
        a2, b2, a, b, x = (mpmath.mpf(v) for v in (a2, b2, a, b, x))
        shift, gain = 2 * b2 / a2, mpmath.exp(a * mpmath.pi / abs(b))
        # upper then lower, or lower then upper
        return (x + shift) * gain if b * x > 0 else x * gain - shift


def _criterion_3_draws(count):
    """The first count valid mixed-linear draws of acceptance criterion
    3 (default_rng(2024)) and the closed-form crossing point of each."""
    rng = np.random.default_rng(2024)
    draws = []
    while len(draws) < count:
        a1, a2, b1 = rng.uniform(-2, 2, 3)
        a = rng.uniform(-1.2, 1.2)
        b = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        if abs(a2) < 0.1 or abs(a) < 0.05 or abs(a * math.pi / b) > 4.0:
            continue
        b2 = math.copysign(rng.uniform(0.2, 2.0), a)
        spec = MixedLinearSpec(a1, a2, b1, b2, a, b, x0=0.0)
        if solve_mixed_linear_on_sigma(spec):
            draws.append((spec, 2 * b2 / (a2 * math.expm1(a * math.pi / b))))
    return draws


def _error(landing, truth):
    return abs(landing - truth) / max(1, abs(truth))


# TestOracleGolden.test_return_map's pins at X_CYCLE, by tolerance
@pytest.mark.parametrize("tol, pinned", [
    (None, "0x1.f3e45b97f701ap-6"),
    (1e-11, "0x1.f3e45b7635766p-6"),
], ids=["default", "1e-11"])
def test_return_map_goldens_against_the_closed_form(tol, pinned):
    # the pins are 1.3e-10 and 2.2e-12 off the truth
    cfg = IntegratorConfig() if tol is None else IntegratorConfig(rel_tol=tol, abs_tol=tol)
    truth = _exact_return(**CYCLE_PARAMS, x=X_CYCLE)
    assert return_map(_mixed_piecewise(**CYCLE_PARAMS), X_CYCLE, cfg).hex() == pinned
    assert _error(float.fromhex(pinned), truth) <= (1e-9 if tol is None else 1e-11)


@TOLERANCES
def test_criterion_3_return_maps_against_the_closed_form(cfg, bound):
    # 40 of criterion 3's draws, each from its closed-form crossing point
    # (the composed map's fixed point): at most 1.1e-8 off at the default
    # tolerances and 1.2e-10 at 1e-11 over the first 100
    for spec, x in _criterion_3_draws(40):
        truth = _exact_return(spec.a1, spec.a2, spec.b1, spec.b2, spec.a, spec.b, x)
        landing = return_map(spec.as_piecewise(), x, cfg)
        assert landing is not None, spec
        assert _error(landing, truth) <= bound, (spec, landing, truth)


def test_criterion_3_multipliers_at_the_closed_form_landings():
    # each confirmed cycle's multiplier against prod psi'(x) / psi'(x')
    # over its two half-returns at 50 digits, each x' the closed-form
    # landing from the x before it (see _exact_return), with psi' =
    # Im p = a2 x + b2 above and Im 1/p = -b / ((a^2 + b^2) x) below.
    # Within 1e-13 relative (9.7e-16 measured over these 40 draws)
    with mpmath.workdps(50):
        for spec, _ in _criterion_3_draws(40):
            cand, = solve_mixed_linear_on_sigma(spec)
            a2, b2, a, b, x1 = (mpmath.mpf(v) for v in (spec.a2, spec.b2, spec.a, spec.b,
                                                        cand.x1))
            upper = (lambda x: -x - 2 * b2 / a2, lambda x: a2 * x + b2)
            lower = (lambda x: -x * mpmath.exp(a * mpmath.pi / abs(b)),
                     lambda x: -b / ((a * a + b * b) * x))
            (land_1, slope_1), (land_2, slope_2) = (
                (lower, upper) if b * x1 > 0 else (upper, lower))
            y = land_1(x1)
            multiplier = slope_1(x1) / slope_1(y) * (slope_2(y) / slope_2(land_2(y)))
            assert abs(cand.multiplier - multiplier) <= 1e-13 * abs(multiplier), spec


@TOLERANCES
def test_anti_holomorphic_landings_against_the_first_integral(cfg, bound):
    """100 landed half-returns of degree-1 to 3 anti-holomorphic sides
    (coefficients standard complex normal, |Im| of the leading one at
    least 0.05, default_rng(16)), each from x uniform in [-3, 3] into
    the side its field enters, against ``exact.landing``: the root of
    psi(x') = psi(x) beside the landing. Prints the error distribution."""
    rng = np.random.default_rng(16)
    errors = []
    while len(errors) < 100:
        degree = int(rng.integers(1, 4))
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        x = float(rng.uniform(-3.0, 3.0))
        if abs(coeffs[degree].imag) < 0.05:
            continue
        spec = anti_holomorphic(coeffs)
        v = spec.velocity(complex(x, 0.0)).imag
        if v == 0:
            continue
        outcome, landing = half_return_outcome(spec, x, Side.UPPER if v > 0 else Side.LOWER, cfg)
        if outcome is not Outcome.LANDED:
            continue
        truth = exact.landing(exact.psi_axis(spec.p.coeffs.tolist()), x, landing)
        errors.append(float(_error(Fraction(landing), truth)))
        assert errors[-1] <= bound, (coeffs, x, landing, float(truth))
    median, p90 = np.quantile(errors, [0.5, 0.9])
    print(f"\nlanding error over {len(errors)} half-returns: median {median:.2g}, "
          f"p90 {p90:.2g}, max {max(errors):.2g}")
