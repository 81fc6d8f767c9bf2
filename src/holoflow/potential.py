"""Complex potentials and first integrals.

For an anti-holomorphic system zdot = conj(p(z)) the potential is the
polynomial primitive of p and its imaginary part is a global first
integral. For a holomorphic system zdot = p(z) the potential is a
primitive of 1/p, assembled from the partial-fraction expansion over
the roots of p, whose principal parts take their Taylor coefficients
from ``cpoly.synthetic_division``; its imaginary part is constant along
trajectories away from poles and branch cuts, and w = Phi(z) rectifies
the flow to wdot = 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import cpoly
from .cpoly import CPoly
from .errors import (
    AtPole,
    ExcludedExponent,
    NonConvergence,
    UndefinedAtOrigin,
    ZeroPolynomial,
)


# a vertical velocity within this share of the largest term p can have
# at a point of the axis reads as a tangency
TANGENCY_TOL = 1e-12


class SystemKind(enum.Enum):
    HOLOMORPHIC = "holomorphic"
    ANTI_HOLOMORPHIC = "anti_holomorphic"


@dataclass(frozen=True)
class SystemSpec:
    """A planar system zdot = p(z) or zdot = conj(p(z))."""

    kind: SystemKind
    p: CPoly

    def velocity(self, z):
        """dz/dt at z as a complex number (elementwise on arrays)."""
        v = self.p(z)
        return v.conjugate() if self.kind is SystemKind.ANTI_HOLOMORPHIC else v

    def scalar_field(self):
        """z -> velocity(z) for a complex scalar z, the same float bit
        for bit but for a NaN's sign and payload: it is
        ``cpoly._scalar_horner``, conjugated for an anti-holomorphic
        side. The coefficients come from
        ``CPoly.scalar_view``, converted once per polynomial and kept on
        the spec's immutable ``p``; nothing is stored on the spec itself.
        A monic p (lead exactly ``1+0j``) takes its first Horner product
        in Python, with one numpy call fewer per evaluation, and a monic
        linear p none: each partial product of (1+0i)z is exact, so the
        float is the ufunc's, fused or not.
        The Horner buffers are not shared: each call builds a field with
        its own, so build one per integration and drop it afterwards."""
        horner = cpoly._scalar_horner(self.p.scalar_view[0])
        if self.kind is SystemKind.ANTI_HOLOMORPHIC:
            return lambda z: horner(z).conjugate()
        return horner

    def crossing_sign(self, x):
        """How the field meets the axis at the real point x: 1 into
        Im z > 0, -1 into Im z < 0, and 0 for a tangency.

        The vertical velocity v = Im velocity(x) reads as tangent when it
        is not finite or |v| <= TANGENCY_TOL * max|c_k| * max(1, |x|)^deg,
        the size of the largest term p could have at x; so does any v
        when that scale passes float range. ``odeint`` builds its one
        Filippov crossing rule and its half-return entry check on it.

        v comes from ``cpoly.horner`` in Python complex arithmetic on
        ``CPoly.scalar_view``, and it decides as ``velocity``'s numpy
        value would. At z = x + 0i each complex product has one exactly
        zero partial product: numpy's fused loop forms fma(a, x, -(b*0))
        and fma(a, 0, b*x) where Python forms a*x - b*0 and a*0 + b*x,
        and both round to the same float, up to the sign of a zero,
        which the tangency test reads as 0 either way; a sum is exactly
        rounded part by part in both, and inf and NaN propagate alike.
        max|c_k| is the view's numpy modulus, since Python's ``abs`` can
        differ from it in the last bit."""
        descending, size = self.p.scalar_view
        v = cpoly.horner(descending, complex(x, 0.0))
        v = -v.imag if self.kind is SystemKind.ANTI_HOLOMORPHIC else v.imag
        if not math.isfinite(v):
            return 0  # a NaN would otherwise read as -1, "crossing down"
        try:
            scale = size * max(1.0, abs(float(x))) ** (len(descending) - 1)
        except OverflowError:
            return 0
        if abs(v) <= TANGENCY_TOL * max(scale, 1e-300):
            return 0
        return 1 if v > 0 else -1


def holomorphic(coeffs) -> SystemSpec:
    return SystemSpec(SystemKind.HOLOMORPHIC, CPoly(coeffs))


def anti_holomorphic(coeffs) -> SystemSpec:
    return SystemSpec(SystemKind.ANTI_HOLOMORPHIC, CPoly(coeffs))


@dataclass(frozen=True)
class PotentialRep:
    """Closed form of a potential: polynomial part plus logarithmic and
    rational terms from partial fractions.

    log_terms: (residue, pole) pairs contributing residue*Log(z - pole).
    rational_terms: (coeff, pole, order) contributing coeff/(z - pole)**order.
    """

    poly_part: CPoly
    log_terms: tuple = ()
    rational_terms: tuple = ()

    def poles(self):
        return list(dict.fromkeys([pole for _, pole in self.log_terms]
                                  + [pole for _, pole, _ in self.rational_terms]))

    def cut_distance(self, z):
        """Distance from z to the nearest pole or branch-cut ray.

        Each logarithmic pole carries a principal-branch cut along the
        ray arg(z - pole) = pi; rational-only poles contribute just the
        pole distance.
        """
        z = complex(z)
        best = np.inf
        for _, pole in self.log_terms:
            d = z - pole
            ray = abs(d.imag) if d.real <= 0 else abs(d)
            best = min(best, ray)
        for _, pole, _ in self.rational_terms:
            best = min(best, abs(z - pole))
        return best


def _series_reciprocal(a, order):
    """First `order` coefficients of 1/sum(a_k w^k); requires a[0] != 0."""
    b = np.zeros(order, dtype=complex)
    b[0] = 1.0 / a[0]
    for k in range(1, order):
        s = 0j
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * b[k - i]
        b[k] = -s / a[0]
    return b


def partial_fraction_primitive(num: CPoly, den: CPoly) -> PotentialRep:
    """Primitive of num/den (deg num < deg den) as log + rational terms.

    At a root z_j of multiplicity m, den = (z - z_j)**m q, and the
    coefficient of 1/(z - z_j)**(m - k) is the k-th Taylor coefficient
    of num / q at z_j, for k < m. Synthetic division gives the first m
    Taylor coefficients of num and of q (those of den from the m-th on),
    and the two series are divided by inverting q's and multiplying.
    Raises NonConvergence when the roots do, or when a coefficient is
    not finite.
    """
    if den.is_zero():
        raise ZeroPolynomial("denominator is identically zero")
    if num.degree >= den.degree:
        raise ValueError("partial fractions require deg num < deg den")
    logs = []
    rats = []
    for z_j, m in cpoly.roots(den):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            q_taylor = cpoly.synthetic_division(den.coeffs, z_j, 2 * m)[0][m:]
            num_taylor = cpoly.synthetic_division(num.coeffs, z_j, m)[0]
            series = np.convolve(num_taylor, _series_reciprocal(q_taylor, m))[:m]
        # series[k] multiplies 1/(z - z_j)**(m - k)
        for k in range(m):
            order = m - k
            d = series[k]
            if not cmath.isfinite(d):
                raise NonConvergence(f"principal part at {z_j} passes float range")
            if d == 0:
                continue
            if order == 1:
                logs.append((complex(d), complex(z_j)))
            else:
                rats.append((complex(-d / (order - 1)), complex(z_j), order - 1))
    return PotentialRep(CPoly([0.0]), tuple(logs), tuple(rats))


def build_potential(spec: SystemSpec) -> PotentialRep:
    """Potential of the system: primitive of p (anti-holomorphic case,
    purely polynomial) or of 1/p (holomorphic case, partial fractions).
    Raises ValueError for a degree above ``cpoly.MAX_DEGREE``, and
    NonConvergence for a constant p whose reciprocal passes float range.
    """
    if spec.p.degree > cpoly.MAX_DEGREE:
        raise ValueError(f"degree {spec.p.degree} is above the limit {cpoly.MAX_DEGREE}")
    if spec.p.is_zero():
        raise ZeroPolynomial("system polynomial is identically zero")
    if spec.kind is SystemKind.ANTI_HOLOMORPHIC:
        return PotentialRep(spec.p.antiderivative())
    if spec.p.degree == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            slope = 1.0 / spec.p.coeffs[0]
        if not cmath.isfinite(slope):
            raise NonConvergence(f"1/p = {slope} passes float range")
        return PotentialRep(CPoly([0.0, slope]))
    return partial_fraction_primitive(CPoly([1.0]), spec.p)


def eval_potential(rep: PotentialRep, z):
    """Evaluate the potential with principal logarithms at a scalar or
    elementwise on an array.

    Within 1e-12 * max(1, |pole|) of a pole a scalar raises AtPole and
    an array holds NaN. Values past float range are infinite or NaN.
    """
    z = np.asarray(z, dtype=complex)
    at_pole = np.zeros(z.shape, dtype=bool)
    for pole in rep.poles():
        at_pole |= np.abs(z - pole) < 1e-12 * max(1.0, abs(pole))
        if at_pole.any() and not z.shape:
            raise AtPole(f"evaluation at pole {pole}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        val = rep.poly_part(z)
        for res, pole in rep.log_terms:
            val = val + res * np.log(z - pole)
        for coeff, pole, order in rep.rational_terms:
            val = val + coeff / (z - pole) ** order
    return np.where(at_pole, complex(np.nan, np.nan), val) if z.shape else complex(val)


def first_integral(rep: PotentialRep, x: float, y: float):
    """(phi, psi) = (Re, Im) of the potential at x + iy."""
    w = eval_potential(rep, complex(x, y))
    return w.real, w.imag


def rectify(rep: PotentialRep, z) -> complex:
    """Rectifying coordinate w = Phi(z): along trajectories of
    zdot = p(z), Im w is constant and Re w advances at unit speed."""
    return eval_potential(rep, z)


class NormalFormKind(enum.Enum):
    MONOMIAL = "monomial"   # f(z) = z**n, n integer, n != 1
    RESONANT = "resonant"   # f(z) = z**n / (1 + z**(n-1)), n >= 2


def normal_form_potential(n: int, kind: NormalFormKind):
    """Closed-form (x, y) -> (phi, psi) for the normal-form fields.

    Monomial: Omega = z**(1-n)/(1-n), written in polar form with the
    two-argument arctangent. Resonant adds log(r) to phi and the polar
    angle to psi.
    """
    if kind is NormalFormKind.MONOMIAL:
        if n == 1:
            raise ExcludedExponent("n = 1 has potential log z, not a power law")
    else:
        if n < 2:
            raise ValueError("resonant normal form requires n >= 2")

    def evaluate(x, y):
        r2 = x * x + y * y
        if r2 == 0.0:
            raise UndefinedAtOrigin("normal-form potential singular at the origin")
        theta = np.arctan2(y, x)
        k = 1 - n
        amp = r2 ** (k / 2.0) / k
        phi = amp * np.cos(k * theta)
        psi = amp * np.sin(k * theta)
        if kind is NormalFormKind.RESONANT:
            phi += 0.5 * np.log(r2)
            psi += theta
        return phi, psi

    return evaluate
