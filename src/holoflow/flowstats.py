"""Circulation, net flow and closed-form complex-time flows.

The contour integral of conj(f) along a closed curve packs the
circulation (real part) and net flow (imaginary part) of the planar
field f. Closed curves are integrated with the periodic trapezoid rule
(spectrally accurate for analytic integrands); polygons fall back to
per-edge Gauss-Legendre panels since corners break the periodic
spectral accuracy.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cpoly import CPoly
from .errors import AtPole, DomainViolation, FieldSingularOnCurve
from .odeint import IntegratorConfig, DEFAULT_CONFIG, integrate
from .potential import PotentialRep, SystemKind, SystemSpec, eval_potential

DEFAULT_NODES = 4096
N_TRACK = 64


@dataclass(frozen=True)
class ContourResult:
    """(Re, Im) of the contour integral of conj(f)."""

    circulation: float
    net_flow: float

    def as_complex(self):
        return complex(self.circulation, self.net_flow)


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    orientation: int = 1  # +1 counterclockwise, -1 clockwise

    def __post_init__(self):
        if not cmath.isfinite(complex(self.center)):
            raise ValueError("circle center must be finite")
        if not 0 < self.radius < math.inf:
            raise ValueError("circle radius must be finite and positive")
        if self.orientation not in (1, -1):
            raise ValueError("circle orientation must be 1 or -1")

    def nodes(self, n):
        t = 2.0 * np.pi * np.arange(n) / n
        rot = np.exp(1j * self.orientation * t)
        z = self.center + self.radius * rot
        # weight = z'(t) * dt for the periodic trapezoid rule
        w = 1j * self.orientation * self.radius * rot * (2.0 * np.pi / n)
        return z, w


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1] as read-only arrays;
    leggauss is an O(n^3) eigenvalue solve, so each n is computed once."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class Polygon:
    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not all(cmath.isfinite(complex(v)) for v in self.vertices):
            raise ValueError("polygon vertices must be finite")

    def nodes(self, n):
        verts = [complex(v) for v in self.vertices]
        m = len(verts)
        per_edge = max(n // m, 16)
        xg, wg = _gauss_legendre(per_edge)
        zs, ws = [], []
        for i in range(m):
            z1, z2 = verts[i], verts[(i + 1) % m]
            half = 0.5 * (z2 - z1)
            zs.append(0.5 * (z1 + z2) + half * xg)
            ws.append(half * wg)
        return np.concatenate(zs), np.concatenate(ws)


@dataclass(frozen=True)
class ParametricCurve:
    """Closed curve given by t -> z(t) and t -> z'(t) on [0, 1)."""

    position: object
    velocity: object

    def nodes(self, n):
        t = np.arange(n) / n
        z = np.asarray(self.position(t), dtype=complex)
        w = np.asarray(self.velocity(t), dtype=complex) / n
        return z, w


def contour_integral(field_fn, curve, n_nodes=DEFAULT_NODES) -> ContourResult:
    """Quadrature of the closed contour integral of conj(f(z)) dz."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if isinstance(field_fn, SystemSpec):
        f = field_fn.velocity
    else:
        f = field_fn
    z, w = curve.nodes(n_nodes)
    vals = np.asarray(f(z), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise FieldSingularOnCurve("field overflowed on a quadrature node")
    total = np.sum(np.conj(vals) * w)
    return ContourResult(float(total.real), float(total.imag))


class FlowKind(enum.Enum):
    CONSTANT = "constant"      # zdot = 1        -> z = T + z0
    LINEAR = "linear"          # zdot = z        -> z = z0 e^T
    QUADRATIC = "quadratic"    # zdot = z^2      -> z = -1/(T - 1/z0)
    RECIPROCAL = "reciprocal"  # zdot = 1/z      -> z^2/2 = T + z0^2/2
    BERNOULLI = "bernoulli"    # zdot = beta z^n - alpha z


@dataclass(frozen=True)
class ClosedFormFlow:
    kind: FlowKind
    n: int = 2
    alpha: complex = 1.0
    beta: complex = 1.0

    def field(self):
        """The defining velocity z -> dz/dt."""
        kind = self.kind
        if kind is FlowKind.CONSTANT:
            return lambda z: np.ones_like(np.asarray(z, dtype=complex))
        if kind is FlowKind.LINEAR:
            return lambda z: z
        if kind is FlowKind.QUADRATIC:
            return lambda z: z * z
        if kind is FlowKind.RECIPROCAL:
            return lambda z: 1.0 / z
        n, al, be = self.n, self.alpha, self.beta
        return lambda z: be * z ** n - al * z


def _tracked_power(w_path, exponent_denominator, start):
    """Continuously tracked w**(1/k) along a discrete path, seeded at start.

    At each path point the k-th root closest to the previous value is
    selected; the path must avoid w = 0."""
    k = exponent_denominator
    current = complex(start)
    phases = np.exp(2j * np.pi * np.arange(abs(k)) / abs(k))
    for w in w_path[1:]:
        if w == 0:
            raise DomainViolation("branch tracking hit w = 0")
        principal = w ** (1.0 / k)
        candidates = principal * phases
        current = candidates[np.argmin(np.abs(candidates - current))]
    return current


def closed_form_flow(flow: ClosedFormFlow, z0: complex, T: complex) -> complex:
    """Evaluate the closed-form solution z(T) with z(0) = z0.

    Square roots and fractional powers are tracked for continuity along
    the straight path from 0 to T in N_TRACK increments. Raises
    DomainViolation at blow-up times and excluded initial conditions.
    """
    z0 = complex(z0)
    T = complex(T)
    kind = flow.kind
    if kind is FlowKind.CONSTANT:
        return T + z0
    if kind is FlowKind.LINEAR:
        return z0 * np.exp(T)
    if kind is FlowKind.QUADRATIC:
        if z0 == 0:
            return 0j
        denom = T - 1.0 / z0
        if abs(denom) < 1e-12 * max(1.0, abs(T)):
            raise DomainViolation("quadratic flow blow-up at T = 1/z0")
        return -1.0 / denom
    if kind is FlowKind.RECIPROCAL:
        if z0 == 0:
            raise DomainViolation("reciprocal flow undefined at z0 = 0")
        ts = np.linspace(0.0, 1.0, N_TRACK + 1)
        w_path = z0 * z0 + 2.0 * ts * T
        return _tracked_power(w_path, 2, z0)
    # Bernoulli
    n, al, be = flow.n, complex(flow.alpha), complex(flow.beta)
    if n < 2:
        raise DomainViolation("Bernoulli flow requires n >= 2")
    if al == 0:
        raise DomainViolation("Bernoulli flow requires alpha != 0")
    if z0 == 0:
        return 0j  # equilibrium at the origin
    w0 = z0 ** (1 - n)
    fixed = be / al
    ts = np.linspace(0.0, 1.0, N_TRACK + 1)
    w_path = fixed + (w0 - fixed) * np.exp((n - 1) * al * ts * T)
    if n == 2:
        if w_path[-1] == 0:
            raise DomainViolation("Bernoulli flow blow-up")
        return 1.0 / w_path[-1]
    return _tracked_power(w_path, 1 - n, z0)


def complex_time_invariants(spec: SystemSpec, rep: PotentialRep, z0: complex,
                            duration: float,
                            cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Drift of the stream function along the real-time flow and of the
    equipotential along the imaginary-time flow.

    The real-time system is zdot = f(z); the imaginary-time system is
    zdot = i f(z). Returns (psi_drift, phi_drift), each the maximum
    deviation of the respective first integral along the integrated
    path."""
    if spec.kind is not SystemKind.HOLOMORPHIC:
        raise ValueError("complex-time flows are defined for holomorphic specs")
    w0 = eval_potential(rep, z0)
    real_traj = integrate(spec, z0, duration, cfg)
    imag_spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly(1j * spec.p.coeffs))
    imag_traj = integrate(imag_spec, z0, duration, cfg)
    w_real = eval_potential(rep, real_traj.points)
    w_imag = eval_potential(rep, imag_traj.points)
    if np.isnan(w_real).any() or np.isnan(w_imag).any():
        raise AtPole("a trajectory point sits on a pole of the potential")
    psi_drift = float(np.max(np.abs(w_real.imag - w0.imag)))
    phi_drift = float(np.max(np.abs(w_imag.real - w0.real)))
    return psi_drift, phi_drift
