"""Equilibrium classification and global portrait decomposition.

Finite equilibria of zdot = p(z) are typed from the linearization
lambda = p'(z0); the holomorphic structure allows only centers, nodes,
foci and multiple points. The equilibria at infinity of a monic system
of degree n are 2(n-1) saddles on the Poincare equator. Monic centered
cubics decompose into 2, 3 or 4 canonical regions according to one of
the ten equilibrium configurations of CUBIC_CONFIGURATIONS; the monic centered Bernoulli family
z^n - alpha*z is classified for n = 2..MAX_N (finite saddle determinants).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import cpoly
from .cpoly import CPoly
from .errors import MultipleRoot, UnclassifiedConfiguration, ZeroAlpha

DEFAULT_EPS = 1e-9
# The largest n of bernoulli_portrait and infinity_equilibria (ValueError
# above it): a saddle determinant -(n-1)(1+tan^2)^(n-1) passes float range
# at n = 1017, 1018 and every n above 1019 (1019 happens to fit).
MAX_N = 1016


class EquilibriumType(enum.Enum):
    ATTRACTING_NODE = "attracting_node"
    REPELLING_NODE = "repelling_node"
    ATTRACTING_FOCUS = "attracting_focus"
    REPELLING_FOCUS = "repelling_focus"
    CENTER = "center"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class EquilibriumInfo:
    location: complex
    multiplicity: int
    lam: complex  # p'(z0) for simple equilibria, 0 otherwise
    etype: EquilibriumType


@dataclass(frozen=True)
class InfinityEquilibrium:
    angle: float
    index: int
    saddle_det: float


@dataclass(frozen=True)
class PortraitClass:
    config_label: str  # 'a' .. 'j'
    center_regions: int
    sepal_regions: int
    alpha_omega_regions: int
    equilibria: tuple

    @property
    def total_regions(self):
        return self.center_regions + self.sepal_regions + self.alpha_omega_regions


# the ten configurations of a monic centered cubic: its equilibrium
# signature (the multiplicities of its multiple points, and the kinds of
# its simple ones, each sorted) -> label and (center, sepal,
# alpha-omega) region counts
CUBIC_CONFIGURATIONS = {
    ((), ("center", "center", "center")): ("a", (3, 0, 0)),
    ((), ("node", "node", "node")): ("b", (0, 0, 2)),
    ((3,), ()): ("c", (0, 4, 0)),
    ((), ("focus", "focus", "focus")): ("d", (0, 0, 2)),  # 1-vs-2 stability split
    ((2,), ("center",)): ("e", (1, 2, 0)),
    ((2,), ("node",)): ("f", (0, 2, 1)),
    ((2,), ("focus",)): ("g", (0, 2, 1)),
    ((), ("center", "focus", "focus")): ("h", (1, 0, 1)),
    ((), ("focus", "focus", "node")): ("i", (0, 0, 2)),
    ((), ("center", "focus", "node")): ("j", (1, 0, 1)),
}


def _type_from_lambda(lam: complex) -> EquilibriumType:
    try:
        mag = abs(lam)
    except OverflowError:
        mag = math.inf
    if not mag < math.inf:
        raise UnclassifiedConfiguration(f"linearization {lam} passes float range")
    if mag == 0.0:
        raise UnclassifiedConfiguration("vanishing linearization at a simple equilibrium")
    re_small = abs(lam.real) <= DEFAULT_EPS * mag
    im_small = abs(lam.imag) <= DEFAULT_EPS * mag
    if re_small and im_small:
        raise UnclassifiedConfiguration(
            f"linearization {lam} is inside both tolerance bands (eps={DEFAULT_EPS:g})"
        )
    if re_small:
        return EquilibriumType.CENTER
    if im_small:
        return (EquilibriumType.ATTRACTING_NODE if lam.real < 0
                else EquilibriumType.REPELLING_NODE)
    return (EquilibriumType.ATTRACTING_FOCUS if lam.real < 0
            else EquilibriumType.REPELLING_FOCUS)


def classify_equilibria(p: CPoly):
    """One EquilibriumInfo per root of p; simple roots typed from
    lambda = p'(z0), multiple roots tagged MULTIPLE."""
    if p.degree < 1:
        raise ValueError("classification requires degree >= 1")
    dp = p.derivative()
    out = []
    for z0, m in cpoly.roots(p):
        if m > 1:
            out.append(EquilibriumInfo(z0, m, 0j, EquilibriumType.MULTIPLE))
        else:
            lam = dp(z0)
            out.append(EquilibriumInfo(z0, 1, lam, _type_from_lambda(lam)))
    return tuple(out)


def euler_jacobi_residual(p: CPoly) -> float:
    """|sum over roots of 1/p'(z_k)|; vanishes when all roots are simple."""
    root_set = cpoly.roots(p)
    if any(m > 1 for _, m in root_set):
        raise MultipleRoot("Euler-Jacobi relation requires simple roots")
    dp = p.derivative()
    return abs(sum(1.0 / dp(z) for z, _ in root_set))


def infinity_equilibria(n: int):
    """The 2(n-1) infinity saddles of a monic degree-n system.

    Angles are k*pi/(n-1); the Jacobian determinant is
    -(n-1)*(1 + tan(angle)**2)**(n-1) in the U1 chart, evaluated in the
    U2 chart (tan -> cot) at the angles where tan is singular. Raises
    ValueError for n above MAX_N, where a determinant would pass float
    range.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"infinity analysis requires degree 2 <= n <= {MAX_N}")
    out = []
    for k in range(2 * (n - 1)):
        angle = k * math.pi / (n - 1)
        # U1 chart slope tan(angle) unless the angle is vertical
        c = math.cos(angle)
        s = math.sin(angle)
        if abs(c) >= abs(s):
            slope = s / c
        else:
            slope = c / s  # U2 chart
        det = -(n - 1) * (1.0 + slope * slope) ** (n - 1)
        out.append(InfinityEquilibrium(angle, k, det))
    return tuple(out)


def classify_cubic(a1: complex, a0: complex) -> PortraitClass:
    """Configuration label (a)-(j) and canonical region counts for the
    monic centered cubic zdot = z^3 + a1 z + a0, from the one row of
    CUBIC_CONFIGURATIONS that its equilibria match; the multiplicities
    are those of ``cpoly.roots``."""
    infos = classify_equilibria(CPoly([complex(a0), complex(a1), 0.0, 1.0]))
    multiple = tuple(sorted(i.multiplicity for i in infos if i.multiplicity > 1))
    # "attracting_node" -> "node": stability is not part of the signature
    simple = tuple(sorted(i.etype.value.rpartition("_")[2]
                          for i in infos if i.multiplicity == 1))
    if (multiple, simple) not in CUBIC_CONFIGURATIONS:
        raise UnclassifiedConfiguration(
            f"equilibrium multiset {list(multiple + simple)} matches no known configuration")
    label, regions = CUBIC_CONFIGURATIONS[multiple, simple]
    # Euler-Jacobi forces three foci into a 1-vs-2 stability split
    if label == "d" and len({i.etype for i in infos}) == 1:
        raise UnclassifiedConfiguration("three foci with uniform stability")
    return PortraitClass(label, *regions, infos)


@dataclass(frozen=True)
class BernoulliPortrait:
    """Global portrait data for zdot = z^n - alpha z."""

    n: int
    alpha: complex
    equilibria: tuple
    center_regions: int
    alpha_omega_regions: int
    infinity: tuple

    @property
    def total_regions(self):
        return self.center_regions + self.alpha_omega_regions


def bernoulli_portrait(n: int, alpha: complex) -> BernoulliPortrait:
    """Portrait of the monic centered Bernoulli system zdot = z^n - alpha z.

    Finite equilibria are the origin (lambda = -alpha) and n-1 points on
    the circle of radius |alpha|**(1/(n-1)) (lambda = (n-1) alpha).
    The origin's type sets the regions: a center (Re alpha = 0 within
    DEFAULT_EPS) gives n center regions, a node or focus n-1
    alpha-omega regions. Raises ValueError for n above MAX_N.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"Bernoulli family requires 2 <= n <= {MAX_N}")
    alpha = complex(alpha)
    if alpha == 0:
        raise ZeroAlpha("alpha must be nonzero")
    infinity = infinity_equilibria(n)
    origin_type = _type_from_lambda(-alpha)
    infos = [EquilibriumInfo(0j, 1, -alpha, origin_type)]
    lam_ring = (n - 1) * alpha
    ring_type = _type_from_lambda(lam_ring)
    radius = abs(alpha) ** (1.0 / (n - 1))
    base = np.angle(alpha) / (n - 1)
    for k in range(n - 1):
        z_k = radius * np.exp(1j * (base + 2.0 * np.pi * k / (n - 1)))
        infos.append(EquilibriumInfo(complex(z_k), 1, lam_ring, ring_type))
    if origin_type is EquilibriumType.CENTER:
        center_regions, ao_regions = n, 0
    else:
        center_regions, ao_regions = 0, n - 1
    return BernoulliPortrait(
        n, alpha, tuple(infos), center_regions, ao_regions, infinity
    )
