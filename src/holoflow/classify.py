"""Equilibrium classification and global portrait decomposition.

Finite equilibria of zdot = p(z) are typed from the linearization
lambda = p'(z0); the holomorphic structure allows only centers, nodes,
foci and multiple points. The equilibria at infinity of a monic system
of degree n are 2(n-1) saddles on the Poincare equator. Monic centered
cubics decompose into 2, 3 or 4 canonical regions according to one of
ten equilibrium configurations; the monic centered Bernoulli family
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


# configuration -> (center, sepal, alpha-omega) region counts
REGION_TABLE = {
    "a": (3, 0, 0),  # 3 centers
    "b": (0, 0, 2),  # 3 nodes
    "c": (0, 4, 0),  # 1 triple
    "d": (0, 0, 2),  # 3 foci, 1-vs-2 stability split
    "e": (1, 2, 0),  # 1 center + 1 double
    "f": (0, 2, 1),  # 1 node + 1 double
    "g": (0, 2, 1),  # 1 focus + 1 double
    "h": (1, 0, 1),  # 1 center + 2 foci
    "i": (0, 0, 2),  # 1 node + 2 foci
    "j": (1, 0, 1),  # 1 center + 1 node + 1 focus
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
    return _typed_equilibria(p)


def _typed_equilibria(p: CPoly):
    dp = p.derivative()
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
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
    monic centered cubic zdot = z^3 + a1 z + a0; the multiplicities are
    those of ``cpoly.roots``."""
    infos = _typed_equilibria(CPoly([complex(a0), complex(a1), 0.0, 1.0]))
    label = _cubic_label(infos)
    center, sepal, alpha_omega = REGION_TABLE[label]
    return PortraitClass(label, center, sepal, alpha_omega, infos)


def _kind(etype: EquilibriumType) -> str:
    if etype is EquilibriumType.CENTER:
        return "center"
    if etype in (EquilibriumType.ATTRACTING_NODE, EquilibriumType.REPELLING_NODE):
        return "node"
    return "focus"


def _cubic_label(infos) -> str:
    T = EquilibriumType
    mult = sorted(i.multiplicity for i in infos)
    if mult == [3]:
        return "c"
    if mult == [1, 2]:
        simple = next(i for i in infos if i.multiplicity == 1)
        return {"center": "e", "node": "f", "focus": "g"}[_kind(simple.etype)]
    if mult != [1, 1, 1]:
        raise UnclassifiedConfiguration(f"unexpected multiplicity pattern {mult}")
    kinds = [_kind(i.etype) for i in infos]
    counts = {k: kinds.count(k) for k in ("center", "node", "focus")}
    if counts["center"] == 3:
        return "a"
    if counts["node"] == 3:
        return "b"
    if counts["focus"] == 3:
        # Euler-Jacobi forces a 1-vs-2 stability split
        attracting = sum(1 for i in infos if i.etype is T.ATTRACTING_FOCUS)
        if attracting in (1, 2):
            return "d"
        raise UnclassifiedConfiguration("three foci with uniform stability")
    if counts["center"] == 1 and counts["focus"] == 2:
        return "h"
    if counts["node"] == 1 and counts["focus"] == 2:
        return "i"
    if counts["center"] == 1 and counts["node"] == 1 and counts["focus"] == 1:
        return "j"
    raise UnclassifiedConfiguration(
        f"equilibrium multiset {sorted(kinds)} matches no known configuration"
    )


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
    Re alpha != 0 gives n-1 alpha-omega regions; Re alpha = 0 gives n
    center regions. Raises ValueError for n above MAX_N.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"Bernoulli family requires 2 <= n <= {MAX_N}")
    alpha = complex(alpha)
    if alpha == 0:
        raise ZeroAlpha("alpha must be nonzero")
    infinity = infinity_equilibria(n)
    infos = [EquilibriumInfo(0j, 1, -alpha, _type_from_lambda(-alpha))]
    lam_ring = (n - 1) * alpha
    ring_type = _type_from_lambda(lam_ring)
    radius = abs(alpha) ** (1.0 / (n - 1))
    base = np.angle(alpha) / (n - 1)
    for k in range(n - 1):
        z_k = radius * np.exp(1j * (base + 2.0 * np.pi * k / (n - 1)))
        infos.append(EquilibriumInfo(complex(z_k), 1, lam_ring, ring_type))
    centerish = abs(alpha.real) <= DEFAULT_EPS * abs(alpha)
    if centerish:
        center_regions, ao_regions = n, 0
    else:
        center_regions, ao_regions = 0, n - 1
    return BernoulliPortrait(
        n, alpha, tuple(infos), center_regions, ao_regions, infinity
    )
