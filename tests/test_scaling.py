"""Scale relations that hold today. Under z = s w with s = 2^e every
coefficient scales exactly, so the same problem in other units must give
the same answer: labels and multiplicities unchanged, pairs divided by
s, multipliers unchanged. The relations that fail today (``real_roots``,
``solve_antiholo_pair``, ``solve_mixed_general``) are listed with their
counts in ROADMAP's Open defects, not here.

The mirror w = -conj(z) (``TestMirror``, and for cubic portraits
``test_classify_cubic_is_scale_and_mirror_free``) maps x to -x on the
real axis and keeps each half-plane: it negates or conjugates every
coefficient, and negation and conjugation commute with every rounding,
fused multiply-add included, so its relations hold bit for bit."""

import math

import numpy as np
import pytest

from holoflow import cpoly, pwcycles
from holoflow.classify import classify_cubic
from holoflow.cpoly import CPoly
from holoflow.errors import UnclassifiedConfiguration
from holoflow.odeint import IntegratorConfig, Outcome, Side, half_return_outcome, return_map
from holoflow.potential import anti_holomorphic, holomorphic
from holoflow.pwcycles import MixedLinearSpec, mixed_linear_pair, solve_mixed_linear_on_sigma
from test_classify import GOLDEN

SCALES = [2.0 ** e for e in (-20, -7, -3, 3, 7, 20)]


def _portrait(a1, a0):
    """classify_cubic's label and region counts, or None where it raises
    UnclassifiedConfiguration."""
    try:
        p = classify_cubic(a1, a0)
    except UnclassifiedConfiguration:
        return None
    return p.config_label, p.center_regions, p.sepal_regions, p.alpha_omega_regions


def _cubic_draws(count, rng):
    """(A1, A0) with standard normal parts: complex, real, imaginary, or
    a double root r beside -2r."""
    def normal():
        return complex(*rng.normal(size=2))
    draws = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            draws.append((normal(), normal()))
        elif kind == 1:
            draws.append((complex(rng.normal()), complex(rng.normal())))
        elif kind == 2:
            draws.append((1j * rng.normal(), 1j * rng.normal()))
        else:
            r = normal()
            draws.append((-3 * r * r, 2 * r ** 3))
    return draws


def test_classify_cubic_is_scale_and_mirror_free():
    # z = s w and t = tau / s^2 take z^3 + A1 z + A0 to w^3 + A1 s^-2 w +
    # A0 s^-3; conjugating the coefficients mirrors the portrait in the
    # real axis, and (conj A1, -conj A0), the mirror w = -conj(z) of
    # TestMirror, mirrors it in the imaginary axis
    draws = [(complex(a1), complex(a0)) for _, a1, a0, _ in GOLDEN]
    draws += _cubic_draws(300, np.random.default_rng(14))
    labels = set()
    for a1, a0 in draws:
        want = _portrait(a1, a0)
        labels.add(want and want[0])
        assert _portrait(a1.conjugate(), a0.conjugate()) == want, (a1, a0)
        assert _portrait(a1.conjugate(), -a0.conjugate()) == want, (a1, a0)
        for s in SCALES:
            assert _portrait(a1 / s ** 2, a0 / s ** 3) == want, (a1, a0, s)
    assert labels >= set("abcdefghij")


def test_roots_keep_their_multiplicities():
    # prod (z - r_i)^(m_i), up to three distinct complex roots of
    # multiplicity up to 3, against p(s w), whose coefficients are c_k s^k
    rng = np.random.default_rng(15)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        coeffs = np.array([1.0 + 0j])
        for m in rng.integers(1, 4, size=k):
            r = complex(*rng.normal(size=2))
            for _ in range(m):
                coeffs = np.convolve(coeffs, [-r, 1.0])
        want = sorted(m for _, m in cpoly.roots(CPoly(coeffs)))
        powers = np.arange(len(coeffs))
        for s in SCALES:
            got = sorted(m for _, m in cpoly.roots(CPoly(coeffs * s ** powers)))
            assert got == want, (coeffs, s)


@pytest.mark.parametrize("s", SCALES)
def test_mixed_linear_pairs_divide_by_the_scale(s):
    # z = s w divides b1, b2 and x0 by s and leaves a1, a2, a, b: under
    # criterion 3's bound |a pi / b| <= 4, with x0 in [-2, 2], the pair
    # divides exactly by s and the first-integral multiplier does not
    # move. Past that bound a pair can sit so near x0 that the lower
    # side's tangency threshold calls it tangent at one scale only, and
    # the multiplier inverts (ROADMAP's Open defects)
    rng = np.random.default_rng(16)
    pairs = 0
    for _ in range(200):
        a1, a2, b1, b2, x0 = rng.uniform(-2, 2, 5)
        a = rng.uniform(-1.2, 1.2)
        b = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        if abs(a * math.pi / b) > 4.0:
            continue
        spec = MixedLinearSpec(a1, a2, b1, b2, a, b, x0)
        scaled = MixedLinearSpec(a1, a2, b1 / s, b2 / s, a, b, x0 / s)
        pair = mixed_linear_pair(spec)
        candidates = solve_mixed_linear_on_sigma(spec, validate=False)
        assert [(c.x1 / s, c.x2 / s) for c in candidates] == [
            (c.x1, c.x2) for c in solve_mixed_linear_on_sigma(scaled, validate=False)]
        if pair is None:
            assert mixed_linear_pair(scaled) is None
            continue
        pairs += 1
        scaled_pair = mixed_linear_pair(scaled)
        assert scaled_pair == (pair[0] / s, pair[1] / s)
        assert (pwcycles._multiplier(scaled.as_piecewise(), *scaled_pair)
                == pwcycles._multiplier(spec.as_piecewise(), *pair)), spec
    assert pairs > 100


def _mirrored(coeffs):
    """The coefficients -(-1)^k conj(c_k) of a side under w = -conj(z),
    anti-holomorphic or holomorphic alike: zdot = p(z) becomes wdot =
    -conj(p(-conj(w))), and zdot = conj(p(z)) becomes wdot =
    -p(-conj(w)), the conjugate of a polynomial in w with them."""
    return [complex(-c.real, c.imag) if k % 2 == 0 else complex(c.real, -c.imag)
            for k, c in enumerate(coeffs)]


class TestMirror:
    @pytest.mark.parametrize("cfg", [IntegratorConfig(),
                                     IntegratorConfig(rel_tol=1e-11, abs_tol=1e-11)],
                             ids=["default", "1e-11"])
    def test_half_return_landings_negate(self, cfg):
        # degree 1-3 anti-holomorphic sides and linear holomorphic ones
        # (standard complex normal coefficients), from x uniform in
        # [-3, 3] into each half-plane, drawn until each kind lands 12
        # times on each side: a start that lands at x' mirrors to one
        # that lands at -x', to the bit. Non-landing outcomes may differ,
        # since the trap discs' centres are eigenvalues, which do not
        # mirror bit for bit
        rng = np.random.default_rng(17)
        landed = dict.fromkeys([(holo, side) for holo in (False, True) for side in Side], 0)
        draws = 0
        while min(landed.values()) < 12:
            draws += 1
            assert draws <= 2000, landed
            holo = draws % 4 == 0
            degree = 1 if holo else int(rng.integers(1, 4))
            coeffs = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)).tolist()
            make = holomorphic if holo else anti_holomorphic
            x = float(rng.uniform(-3.0, 3.0))
            for side in Side:
                outcome, landing = half_return_outcome(make(coeffs), x, side, cfg)
                mirror, mirror_landing = half_return_outcome(make(_mirrored(coeffs)), -x, side, cfg)
                assert (mirror is Outcome.LANDED) == (outcome is Outcome.LANDED), (coeffs, x, side)
                if landing is not None:
                    assert mirror_landing.hex() == (-landing).hex(), (coeffs, x, side)
                    landed[holo, side] += 1

    def test_mixed_linear_pairs_and_verdicts(self):
        # criterion 3's draws, validated until 20 are confirmed: (a1, a2,
        # b1, b2, a, b, x0) mirrors to (a1, -a2, -b1, b2, a, -b, -x0), the
        # pair (x1, x2) to (-x2, -x1), and the verdict, its reason and the
        # multiplier stay the same floats (_multiplier forms the same two
        # ratios in the other order). The mirrored validation's return
        # map starts at -x2, so it is the original map from x2, negated
        rng = np.random.default_rng(2024)
        verdicts = dict.fromkeys(pwcycles.Verified, 0)
        while verdicts[pwcycles.Verified.NUMERICALLY_CONFIRMED] < 20:
            a1, a2, b1 = rng.uniform(-2, 2, 3)
            a = rng.uniform(-1.2, 1.2)
            b = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
            if abs(a2) < 0.1 or abs(a) < 0.05 or abs(a * math.pi / b) > 4.0:
                continue
            b2 = math.copysign(rng.uniform(0.2, 2.0), a)
            spec = MixedLinearSpec(a1, a2, b1, b2, a, b, x0=0.0)
            mirror = MixedLinearSpec(a1, -a2, -b1, b2, a, -b, x0=-0.0)
            pw, mirror_pw = spec.as_piecewise(), mirror.as_piecewise()
            x1, x2 = mixed_linear_pair(spec)
            assert mixed_linear_pair(mirror) == (-x2, -x1)
            landing, mirror_landing = return_map(pw, x2), return_map(mirror_pw, -x2)
            assert (mirror_landing is None) == (landing is None), spec
            if landing is not None:
                assert mirror_landing.hex() == (-landing).hex(), spec
            c, = pwcycles._candidates(pw, [(x1, x2)], True)
            m, = pwcycles._candidates(mirror_pw, [(-x2, -x1)], True)
            assert (m.verified, m.reason, m.stability) == (c.verified, c.reason, c.stability), spec
            assert m.multiplier == c.multiplier, spec
            verdicts[c.verified] += 1
        assert verdicts[pwcycles.Verified.REJECTED] >= 20, verdicts
