"""Limit cycles of piecewise systems across the switching line Im z = 0.

Three solver families, all built on first-integral matching across the
switching line and confirmed against the numerical return map:

* mixed linear systems with the lower (holomorphic) equilibrium on the
  line: at most one cycle, from a closed-form crossing pair;
* mixed linear systems with an arbitrary lower equilibrium: roots of a
  transcendental matching function F on the monotone intervals cut out
  by an explicit quadratic, at most three;
* piecewise anti-holomorphic polynomial systems: common zeros of the
  two symmetric divided-difference polynomials, extracted through a
  Sylvester resultant, with degree-driven bounds 0/1/3 for
  linear/quadratic/cubic sides.

All three build their candidates through ``_candidates``, and a
confirmed one takes its multiplier from the first integrals in closed
form (``_multiplier``), not from differences of return maps.

Every decision uses one fixed tolerance that no caller sets: a root of
F is bisected to BISECT_WIDTH, x2-roots of the two sides match within
MATCH_WIDTH, a pair degenerates at 1e-9 and repeats another at 1e-8
(_add_pair), and the return map confirms a pair within CONFIRM_TOL
(closes, which ``holoflow verify`` applies as well).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import cpoly, odeint
from .cpoly import CPoly
from .errors import (
    CenterContinuum,
    ContinuumDetected,
    DegreeUnsupported,
    HypothesisViolation,
    IdenticallyZero,
    NonConvergence,
)
from .odeint import Crossing, crossing_transversality
from .potential import SystemKind, SystemSpec, anti_holomorphic, build_potential

CONFIRM_TOL = 1e-6
BISECT_WIDTH = 1e-10
MATCH_WIDTH = 1e-8  # 10 times the 1e-9 at which _add_pair calls a pair degenerate


@dataclass(frozen=True)
class PiecewiseSpec:
    """upper governs Im z > 0, lower governs Im z < 0."""

    upper: SystemSpec
    lower: SystemSpec


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    NON_HYPERBOLIC = "non_hyperbolic"
    UNKNOWN = "unknown"


class Verified(enum.Enum):
    ANALYTIC = "analytic"
    NUMERICALLY_CONFIRMED = "numerically_confirmed"
    REJECTED = "rejected"


@dataclass(frozen=True)
class CycleCandidate:
    """Crossing pair stored with x1 > x2.

    A NUMERICALLY_CONFIRMED candidate carries the ``multiplier`` P'(x1)
    of the return map P, in closed form from the first integrals (see
    ``_multiplier``), and its ``stability``: STABLE or UNSTABLE when
    |P'(x1)| is below or above 1 by more than 1e-6, else NON_HYPERBOLIC.
    ANALYTIC and REJECTED candidates carry None and UNKNOWN. A validated
    candidate carries ``miss`` = |P(x1) - x1| whenever the return map P
    landed, and a REJECTED one carries the ``reason``: the
    ``odeint.Outcome`` value of the half-return that did not land, or
    "sliding", "tangent" or "same_direction" (the crossings at x1 and
    x2) or "miss" (P(x1) landed beyond CONFIRM_TOL).
    """

    x1: float
    x2: float
    multiplier: float | None
    stability: Stability
    verified: Verified
    reason: str | None = None
    miss: float | None = None

    def __post_init__(self):
        if not self.x1 > self.x2:
            raise ValueError("candidates are stored with x1 > x2")


def _confirms(pw: PiecewiseSpec, x1, x2):
    """odeint confirmation: transversal crossings of opposite direction
    at the pair and a closed full return. Returns (reason, miss): reason
    is None when confirmed (see CycleCandidate), and miss is
    |P(x1) - x1| whenever the return map landed."""
    crossings = {crossing_transversality(pw, x1), crossing_transversality(pw, x2)}
    if Crossing.SLIDING in crossings:
        return "sliding", None
    if Crossing.TANGENT in crossings:
        return "tangent", None
    if len(crossings) == 1:
        return "same_direction", None
    outcome, landing = odeint.return_map_outcome(pw, x1)
    if landing is None:
        return outcome.value, None
    return (None if closes(x1, landing) else "miss"), abs(landing - x1)


def closes(x1, landing):
    """True when the return map's landing P(x1) is within CONFIRM_TOL of
    x1: the confirmation rule of every solver and of ``holoflow
    verify``, given the landing, or None when the map did not land."""
    return landing is not None and abs(landing - x1) <= CONFIRM_TOL * max(1.0, abs(x1))


def _add_pair(pairs, a, b):
    """Collect the crossing pair {a, b} as (x1, x2) with x1 > x2, unless
    it degenerates (a == b at 1e-9) or repeats a collected pair (at 1e-8)."""
    if abs(a - b) <= 1e-9 * max(1.0, abs(a)):
        return
    x1, x2 = (a, b) if a > b else (b, a)
    if any(abs(x1 - p1) <= 1e-8 * max(1.0, abs(x1))
           and abs(x2 - p2) <= 1e-8 * max(1.0, abs(x2))
           for p1, p2 in pairs):
        return
    pairs.append((x1, x2))


def _candidates(pw, pairs, validate):
    """One candidate per pair, the one place every solver builds them:
    ANALYTIC when validation is off, else REJECTED with its reason, or
    NUMERICALLY_CONFIRMED with the first-integral multiplier
    (``_multiplier``) and its stability; each validated one carries the
    miss when the return map landed. Analytic and rejected candidates
    carry no multiplier and UNKNOWN stability."""
    candidates = []
    for x1, x2 in pairs:
        reason, miss = _confirms(pw, x1, x2) if validate else (None, None)
        multiplier, stability = None, Stability.UNKNOWN
        if not validate:
            verified = Verified.ANALYTIC
        elif reason:
            verified = Verified.REJECTED
        else:
            verified = Verified.NUMERICALLY_CONFIRMED
            multiplier = _multiplier(pw, x1, x2)
            stability = _stability_from_multiplier(multiplier)
        candidates.append(CycleCandidate(x1, x2, multiplier, stability, verified,
                                         reason, miss))
    return candidates


def _psi_slope(side: SystemSpec, x):
    """psi'(x) on the axis for the side's first integral psi: Im p(x)
    for psi = Im Omega on an anti-holomorphic side, Im 1/p(x) for
    psi = Im Phi on a holomorphic one."""
    v = cpoly.horner(side.p.scalar_view[0], x)
    return v.imag if side.kind is SystemKind.ANTI_HOLOMORPHIC else (1.0 / v).imag


def _multiplier(pw: PiecewiseSpec, x1, x2):
    """The derivative of the return map at x1 for the cycle through the
    crossing pair (x1, x2), from the first integrals alone.

    A half return x -> x' on side s keeps psi_s, so psi_s(x') =
    psi_s(x) and dx'/dx = psi_s'(x) / psi_s'(x'). The cycle leaves x1
    into the side that ``crossing_transversality`` says it enters, runs
    to x2 there and back to x1 on the other side, so the multiplier is
    the product of the two ratios. The ratio is local, with no branch of
    Phi to choose, and well defined exactly when both crossings are
    transversal, as ``_confirms`` has checked."""
    if crossing_transversality(pw, x1) is Crossing.CROSSING_UP:
        first, second = pw.upper, pw.lower
    else:
        first, second = pw.lower, pw.upper
    return (_psi_slope(first, x1) / _psi_slope(first, x2)
            * (_psi_slope(second, x2) / _psi_slope(second, x1)))


def _mixed_piecewise(k, z0) -> PiecewiseSpec:
    """Upper conj((a1 + i a2) z + (b1 + i b2)), lower (a + i b)(z - z0)."""
    upper = anti_holomorphic([complex(k.b1, k.b2), complex(k.a1, k.a2)])
    lam = complex(k.a, k.b)
    lower = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([-lam * z0, lam]))
    return PiecewiseSpec(upper, lower)


def _stability_from_multiplier(multiplier):
    if abs(multiplier) < 1.0 - 1e-6:
        return Stability.STABLE
    if abs(multiplier) > 1.0 + 1e-6:
        return Stability.UNSTABLE
    return Stability.NON_HYPERBOLIC


# --------------------------------------------------------------------------
# mixed linear systems, lower equilibrium on the switching line
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedLinearSpec:
    """Upper: zdot = conj((a1 + i a2) z + (b1 + i b2)), Im z > 0.
    Lower: zdot = (a + i b)(z - x0), Im z < 0, with x0 real."""

    a1: float
    a2: float
    b1: float
    b2: float
    a: float
    b: float
    x0: float = 0.0

    def as_piecewise(self) -> PiecewiseSpec:
        # a real x0: under mixed-mode complex * float (Python >= 3.14),
        # -lam * complex(x0, 0.0) can flip the sign of a zero coefficient
        return _mixed_piecewise(self, self.x0)


def mixed_linear_pair(spec: MixedLinearSpec):
    """The unique candidate crossing pair in original coordinates, or
    None when it degenerates (bt2 = 0, a = 0, or x1 rounds to x2).

    In translated coordinates the two crossing abscissas are
    2*bt2 / (a2 * (exp(s * a*pi/b) - 1)) for s = +1 and s = -1; they
    always straddle the lower equilibrium when a != 0 and bt2 != 0.
    """
    bt2 = spec.a2 * spec.x0 + spec.b2
    if bt2 == 0.0 or spec.a == 0.0:
        return None
    c = spec.a * math.pi / spec.b
    xs = 2.0 * bt2 / (spec.a2 * math.expm1(c))
    xm = 2.0 * bt2 / (spec.a2 * math.expm1(-c))
    x1, x2 = max(xs, xm) + spec.x0, min(xs, xm) + spec.x0
    return (x1, x2) if x1 > x2 else None


def solve_mixed_linear_on_sigma(spec: MixedLinearSpec, validate=True):
    """At most one limit cycle: the closed-form pair of
    ``mixed_linear_pair`` as a candidate, dropped when validation
    rejects it.

    Raises CenterContinuum when a = 0 and the matching equations admit a
    crossing pair (period annulus: closed orbits, none isolated). The
    first-integral multiplier of a confirmed cycle equals exp(a*pi/|b|)
    up to rounding. Raises HypothesisViolation when the pair passes float
    range, and NonConvergence when the lower side's constant -(a+ib) x0
    does.
    """
    if spec.a2 == 0.0 or spec.b == 0.0:
        raise HypothesisViolation("mixed linear solver requires a2 != 0 and b != 0")
    bt2 = spec.a2 * spec.x0 + spec.b2
    scale = max(1.0, abs(spec.a2), abs(spec.b2), abs(spec.a2 * spec.x0))
    pw = spec.as_piecewise()
    if spec.a == 0.0:
        if abs(bt2) > 1e-12 * scale:
            return []
        pair = _annulus_representative(pw, spec.x0)
        raise CenterContinuum(
            "a = 0 with matching crossing pairs: period annulus, no limit cycle",
            pair=pair,
        )
    try:
        pair = mixed_linear_pair(spec)
    except (OverflowError, ZeroDivisionError):
        raise HypothesisViolation("mixed linear constants put the crossing pair "
                                  "past float range") from None
    if pair is None:
        return []
    return [c for c in _candidates(pw, [pair], validate)
            if c.verified is not Verified.REJECTED]


def _annulus_representative(pw, x0):
    """A crossing pair on a confirmed closed orbit of a period annulus."""
    for r in (max(1.0, abs(x0)), 1.0, 0.5 * max(1.0, abs(x0)), 0.1):
        if closes(x0 + r, odeint.return_map(pw, x0 + r)):
            return (x0 + r, x0 - r)
    return None


# --------------------------------------------------------------------------
# mixed linear systems, arbitrary lower equilibrium
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedGeneralConstants:
    """Upper: zdot = conj((a1 + i a2) z + (b1 + i b2)), Im z > 0.
    Lower: zdot = (a + i b)(z - (x0 + i y0)), Im z < 0."""

    a1: float
    a2: float
    b1: float
    b2: float
    a: float
    b: float
    x0: float
    y0: float

    @property
    def C(self):
        return 2.0 * self.x0 + 2.0 * self.b2 / self.a2

    def L(self, x):
        """Upper-arc partner abscissa from stream-function matching."""
        return -x - 2.0 * self.b2 / self.a2

    def as_piecewise(self) -> PiecewiseSpec:
        return _mixed_piecewise(self, complex(self.x0, self.y0))

    def matching_function(self):
        """F(x) = b*ln(R(L(x))/R(x)) - a*(Theta(L(x)) - Theta(x)) whose
        zeros give the candidate crossing pairs (x, L(x)), with
        R(x) = sqrt((x - x0)^2 + y0^2) and Theta(x) = atan2(-y0, x - x0).
        The constants 2 b2 / a2, y0^2 and b / 2 are formed once; F inlines
        L, Theta and R^2 in their order of operations."""
        x0, y0, a = self.x0, self.y0, self.a
        shift, y0_sq, half_b = 2.0 * self.b2 / self.a2, y0 ** 2, 0.5 * self.b

        def F(x):
            lx = -x - shift
            return (half_b * math.log(((lx - x0) ** 2 + y0_sq) / ((x - x0) ** 2 + y0_sq))
                    - a * (math.atan2(-y0, lx - x0) - math.atan2(-y0, x - x0)))

        return F

    def fprime_quadratic(self):
        """Coefficients (ascending in u = x - x0) of F'(x) * D(x), a real
        quadratic whose zeros are the critical points of F."""
        a, b, y0, C = self.a, self.b, self.y0, self.C
        return (
            a * y0 * C * C + 2.0 * a * y0 ** 3 + b * C * y0 * y0,
            2.0 * a * y0 * C - b * C * C,
            2.0 * a * y0 - b * C,
        )


def solve_mixed_general(k: MixedGeneralConstants, validate=True, include_winding=False):
    """At most three limit cycles for the general mixed system.

    y0 = 0 reduces exactly to solve_mixed_linear_on_sigma. Otherwise the
    real line splits into at most three monotone intervals of F (the
    critical points solve an explicit quadratic) and each sign change is
    bisected to BISECT_WIDTH; a root x yields the pair (x, L(x)),
    deduplicated and confirmed by integration.

    include_winding additionally solves F = +-2*pi*a, the matching
    condition for lower arcs that wrap around an equilibrium lying
    strictly below the switching line (an extension: those arcs are
    invisible to the plain F = 0 equation).

    Raises HypothesisViolation unless a2 != 0, b != 0 and, for y0 != 0,
    1e-50 <= |y0| and |a|, |b|, |x0|, |y0|, |C| <= 1e50.
    """
    if k.a2 == 0.0 or k.b == 0.0:
        raise HypothesisViolation("mixed general solver requires a2 != 0 and b != 0")
    if k.y0 == 0.0:
        return solve_mixed_linear_on_sigma(
            MixedLinearSpec(k.a1, k.a2, k.b1, k.b2, k.a, k.b, k.x0), validate
        )
    # past this range F's squared distances or F' overflow, or y0^2 vanishes
    if not (abs(k.y0) >= 1e-50
            and max(abs(k.a), abs(k.b), abs(k.x0), abs(k.y0), abs(k.C)) <= 1e50):
        raise HypothesisViolation("mixed general solver requires |y0| >= 1e-50 and "
                                  "|a|, |b|, |x0|, |y0|, |C| <= 1e50")
    pw = k.as_piecewise()
    F = k.matching_function()
    q0, q1, q2 = k.fprime_quadratic()
    if q0 == 0.0 and q1 == 0.0 and q2 == 0.0:
        # F is constant; it vanishes at the L-fixed point, hence everywhere
        pair = _annulus_representative(pw, k.x0)
        raise CenterContinuum(
            "matching function vanishes identically: period annulus", pair=pair
        )
    crit = _real_quadratic_roots(q0, q1, q2)
    span = 1e9 * max(1.0, abs(k.x0), abs(k.y0), abs(k.C))
    breakpoints = [k.x0 - span] + sorted(u + k.x0 for u in crit) + [k.x0 + span]
    targets = [0.0]
    if include_winding and k.y0 < 0.0:
        targets += [2.0 * math.pi * k.a, -2.0 * math.pi * k.a]
    pairs = []
    for target in targets:
        for left, right in zip(breakpoints[:-1], breakpoints[1:]):
            root = _bracket_bisect(lambda x: F(x) - target, left, right)
            if root is not None:
                # _add_pair drops the involution's fixed point, root == L(root)
                _add_pair(pairs, root, k.L(root))
    return _candidates(pw, pairs, validate)


def _real_quadratic_roots(c0, c1, c2):
    """Real roots of c2 u^2 + c1 u + c0, ascending input order."""
    scale = max(abs(c0), abs(c1), abs(c2))
    if scale == 0.0:
        return []
    if abs(c2) <= 1e-14 * scale:
        if abs(c1) <= 1e-14 * scale:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0 else 0.5 * sq
    if q != 0.0:
        roots = [q / c2, c0 / q]
    else:
        roots = [0.0] if disc == 0 else [sq / (2 * c2), -sq / (2 * c2)]
    return sorted(set(roots))


def _bracket_bisect(g, left, right):
    gl, gr = g(left), g(right)
    if gl == 0.0:
        return left
    if gr == 0.0:
        return right
    if math.copysign(1.0, gl) == math.copysign(1.0, gr):
        return None
    for _ in range(200):
        mid = 0.5 * (left + right)
        gm = g(mid)
        if gm == 0.0 or right - left <= max(BISECT_WIDTH, 1e-14 * max(1.0, abs(mid))):
            return mid
        if math.copysign(1.0, gm) == math.copysign(1.0, gl):
            left, gl = mid, gm
        else:
            right = mid
    return 0.5 * (left + right)


# --------------------------------------------------------------------------
# piecewise anti-holomorphic polynomial systems
# --------------------------------------------------------------------------

DEGREE_BOUNDS = {1: 0, 2: 1, 3: 3}
# the largest side degree solve_antiholo_pair accepts, below
# cpoly.MAX_DEGREE: the resultant stacks up to 2 d^2 + 1 Sylvester
# matrices of size 2d, 64 d^4 bytes (100 GB at d = 200). The count
# follows the degrees of psi's divided differences: d for a side whose
# top coefficient is not real, lower for one whose top coefficients are
# real. From 1026 points on, resultant_x2 refuses the Vandermonde powers
# before the stack: two random sides of degree 36 took about 0.09 s to
# that refusal (0.8 s with the stack built first, 2 shared vCPUs).
MAX_PAIR_DEGREE = 36


def crossing_pair_polynomial(spec: SystemSpec) -> cpoly.BivarSym:
    """The symmetric divided-difference polynomial c(x1, x2) of one
    anti-holomorphic side: (psi(x1,0) - psi(x2,0)) / (x1 - x2)."""
    rep = build_potential(spec)
    psi_axis = rep.poly_part.coeffs.imag
    return cpoly.divided_difference(psi_axis)


def solve_antiholo_pair(spec: PiecewiseSpec, validate=True):
    """Candidate crossing cycles of a piecewise anti-holomorphic system.

    Builds the two divided-difference polynomials, eliminates x2 through
    the Sylvester resultant R(x1), matches the common real x2-roots at
    every real root of R, deduplicates the symmetric pairs and (by
    default) confirms each one against the numerical return map.

    Degree bounds: linear sides admit no candidates, quadratic at most
    one, cubic at most three. Sides of degree > 3 run the same pipeline
    but carry no proven bound (see candidate_bound). A side whose c is
    a nonzero constant has no crossing pairs, so the result is []. Raises
    ContinuumDetected when R vanishes identically against the Sylvester
    determinant's own scale max|c_up|^dm * max|c_lo|^dp (dp, dm the
    x2-degrees of c_up, c_lo), DegreeUnsupported for constant sides,
    ValueError for a side degree above MAX_PAIR_DEGREE and
    NonConvergence when that scale passes float range, or when a
    coefficient of R does (as for two sides of degree 23 or more whose
    top coefficients are not real: the Vandermonde powers of R's
    2d^2 + 1 sample points in (-2, 2) pass float range, and resultant_x2
    raises before it builds the Sylvester stack).
    """
    for side in (spec.upper, spec.lower):
        if side.kind is not SystemKind.ANTI_HOLOMORPHIC:
            raise ValueError("solve_antiholo_pair requires anti-holomorphic sides")
        if side.p.degree < 1:
            raise DegreeUnsupported("sides must have degree >= 1")
        if side.p.degree > MAX_PAIR_DEGREE:
            raise ValueError(f"side degree {side.p.degree} is above the limit {MAX_PAIR_DEGREE}")
    c_up = crossing_pair_polynomial(spec.upper)
    c_lo = crossing_pair_polynomial(spec.lower)
    if any(c.x2_degree == 0 and c.coeffs[0, 0] != 0.0 for c in (c_up, c_lo)):
        return []  # a nonzero constant c never vanishes: no crossing pair
    # the scale as a mantissa and a binary exponent, so that neither
    # power overflows or underflows on its own
    (m_up, e_up), (m_lo, e_lo) = (math.frexp(float(np.abs(c.coeffs).max()))
                                  for c in (c_up, c_lo))
    dp, dm = c_up.x2_degree, c_lo.x2_degree
    exponent = dm * e_up + dp * e_lo
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        raise NonConvergence("the resultant's scale passes float range")
    scale = math.ldexp(m_up ** dm * m_lo ** dp, exponent)
    resultant = cpoly.resultant_x2(c_up, c_lo)
    if float(np.abs(resultant.coeffs).max()) <= 1e-12 * scale:
        raise ContinuumDetected(
            "resultant vanishes identically: infinitely many crossing pairs, no limit cycles"
        )
    pairs = []
    roots = cpoly.real_roots(resultant)
    for r, up, lo in zip(roots.tolist(), c_up.x2_polys(roots).tolist(),
                         c_lo.x2_polys(roots).tolist()):
        up_roots, lo_roots = _univariate_real_roots(up), _univariate_real_roots(lo)
        for x2 in up_roots:
            if any(abs(x2 - y) <= MATCH_WIDTH * max(1.0, abs(x2))
                   for y in lo_roots):
                _add_pair(pairs, r, x2)
    return _candidates(spec, pairs, validate)


def candidate_bound(spec: PiecewiseSpec):
    """Proven upper bound on the number of limit cycles, or None when
    the side degrees exceed the proven range."""
    deg = max(spec.upper.p.degree, spec.lower.p.degree)
    return DEGREE_BOUNDS.get(deg)


def _univariate_real_roots(ascending):
    """The real roots of one side's x2 polynomial, ascending floats; []
    where it vanishes identically."""
    try:
        return cpoly.float_real_roots(ascending)
    except IdenticallyZero:
        return []
