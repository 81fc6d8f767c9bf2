"""Scale relations that hold today. Under z = s w with s = 2^e every
coefficient scales exactly, so the same problem in other units must give
the same answer: labels and multiplicities unchanged, pairs divided by
s, multipliers unchanged. The relations that fail today (``real_roots``,
``solve_antiholo_pair``, ``solve_mixed_general``) are listed with their
counts in ROADMAP's Open defects, not here."""

import math

import numpy as np
import pytest

from holoflow import cpoly, pwcycles
from holoflow.classify import classify_cubic
from holoflow.cpoly import CPoly
from holoflow.errors import UnclassifiedConfiguration
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
    # real axis
    draws = [(complex(a1), complex(a0)) for _, a1, a0, _ in GOLDEN]
    draws += _cubic_draws(300, np.random.default_rng(14))
    labels = set()
    for a1, a0 in draws:
        want = _portrait(a1, a0)
        labels.add(want and want[0])
        assert _portrait(a1.conjugate(), a0.conjugate()) == want, (a1, a0)
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
