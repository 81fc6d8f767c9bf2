"""Independent numerical oracle: adaptive Runge-Kutta integration.

Dormand-Prince 5(4) embedded pair with the standard quartic dense
output (Hairer, Norsett & Wanner, Solving ODEs I, sections II.4-II.6),
specialized to planar fields represented as complex-valued velocities
z -> dz/dt. Provides switching-line (Im z = 0) crossing detection by
bisection on the dense output, Poincare half-return and full-return
maps, and separatrix tracing from the equilibria at infinity.

A half-return ends in one ``Outcome``. For a holomorphic field it also
stops as soon as the orbit enters a certified trap disc around an
attracting equilibrium off the axis (see ``_trap_discs``): such an
orbit never lands, and the uncertified loop would run on to its step
or time limit. For a linear anti-holomorphic field, a saddle, it stops
as soon as the closed-form future orbit provably stays off the axis
(see ``_saddle_escape``), and for an anti-holomorphic field of degree
d >= 2 as soon as the first integral Im Omega, Omega = int p, leaves no
point of the axis within reach (see ``_level_escape``); the uncertified
loop would run on to |z| = 1e12 in both cases. A certificate only ends
an orbit that cannot land, so every landing is the same float with or
without it.

A step has 7 stages, each one right-hand-side (RHS) evaluation. The
seventh is the field at the new point, and an accepted step hands it
on as the next step's first (first same as last, FSAL). So a stepper
calls the field once at its start point and then 6 times per attempted
step.

The oracle's arithmetic is pinned bit for bit. The analytic solvers are
checked against its outputs, and ``return_map_derivative`` is a 1e-5
central difference that magnifies a last-bit change in a return value
about 1e5-fold. So the order of every stage sum is fixed, each sum
starts from 0 as the builtin ``sum`` does (which decides the sign of a
zero result), zero tableau weights are kept, and the field's complex
products go through the numpy ufunc (see ``CPoly.__call__``). The one
exception is the product by a leading coefficient of exactly 1+0i, as in
the monic normal forms, which the field forms in Python: each of its
partial products is exact, so the ufunc's fused loop, its unfused loop
and Python all round it to the same float (see ``cpoly._scalar_horner``).

Each integration builds its field once, as ``SystemSpec.scalar_field()``,
whose every value is the float that ``SystemSpec.velocity`` gives, but
for a NaN's sign and payload, without that method's per-call overhead;
only ``integrate`` also takes a plain callable.

An accepted step keeps its stage values, and only a half-return fits
the dense output from them, once per step (``_Dopri5.fit_dense``);
``integrate``, and so ``trace_separatrix``, never does.

A half-return looks for the landing by scanning every step's dense
output at the fractions _THETAS for the height s Im z on the excursion's
side s = +-1, and bisects between the two samples around the crossing.
It evaluates the interpolant of the coefficients (y0, r2, r3, r4, r5)
that ``fit_dense`` returns, y0 + theta (r2 + u (r3 + theta (r4 + u r5)))
with u = 1 - theta, in floats only: the heights from their imaginary
parts times s, the landing from their real parts. Each is the float the
complex interpolant gives: a sign flip commutes with every rounding,
and a float multiplies a complex as float + 0i (from Python 3.14, part
by part), so one part reaches the other only as 0 times it, a zero while
every intermediate stays finite. Only the sign of an exact zero can
differ (a landing at 0 may carry the other sign), and no decision reads
it. A step whose coefficients' absolute parts sum to 1e300 or more, or
to NaN, where a 0 * inf could make the complex value NaN, ends ESCAPED,
as a step past BLOWUP_RADIUS does.
``crossing_transversality`` is the one Filippov crossing rule, which the
solvers and ``return_map_outcome`` apply, and a half-return start that
its side's ``SystemSpec.crossing_sign`` calls tangent does not enter.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import cpoly
from .classify import InfinityEquilibrium
from .cpoly import CPoly
from .errors import NonConvergence, NotEntering, StepUnderflow
from .potential import SystemKind, SystemSpec

BLOWUP_RADIUS = 1e12
MAX_TIME = 1e6
# The step budgets: a half-return, or ``integrate``, ends STEP_LIMIT
# after at most this many accepted steps. In a census of one pass of
# every benchmark corpus and of acceptance criteria 2-4 (criterion 4's
# candidates validated), each start run at tolerances 1e-9 and 1e-11, no
# landing took more than 1,095 steps and no other outcome more than 1,131.
HALF_RETURN_STEPS = 20_000
INTEGRATE_STEPS = 1_000_000
# a half-return's landing is bisected until |Im z| <= EVENT_TOL
EVENT_TOL = 1e-12
# a separatrix trace starts at |z| = 1 / SEPARATRIX_OFFSET for a time SEPARATRIX_SPAN
SEPARATRIX_OFFSET = 1e-4
SEPARATRIX_SPAN = 20.0

# Dormand-Prince RK5(4)7M tableau; the fields are autonomous, so the
# nodes c_i are not needed
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
# fifth-order weights, also the last stage row
_B1, _B2, _B3, _B4, _B5, _B6 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# b5 - b4: weights of the embedded error estimate
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                                     -17253 / 339200, 22 / 525, -1 / 40)
# dense-output weights for the quartic interpolant
_D1, _D2, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)
# fractions of a step, after its start, at which half_return samples
# the dense output
_THETAS = tuple(k / 8 for k in range(1, 9))


class Terminal(enum.Enum):
    TIME_REACHED = "time_reached"
    BLOWUP = "blowup"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-9

    def __post_init__(self):
        # the step control and the certificate margins read the
        # tolerances, so NaN and inf are rejected
        for name in ("rel_tol", "abs_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution; samples[:, k] = (t, x, y) per accepted step."""

    samples: np.ndarray
    terminal: Terminal

    @property
    def times(self):
        return self.samples[:, 0]

    @property
    def points(self):
        return self.samples[:, 1] + 1j * self.samples[:, 2]

    def end_point(self):
        return complex(self.samples[-1, 1], self.samples[-1, 2])


class _Dopri5:
    """Scalar-complex DOPRI5 stepper with FSAL; ``fit_dense`` fits the
    dense output of the last accepted step on demand."""

    def __init__(self, f, t0, z0, direction, cfg):
        self.f = f
        self.t = t0
        self.z = z0
        self.dir = direction
        self.cfg = cfg
        self.k1 = f(z0)
        try:
            v = abs(self.k1)
        except OverflowError:  # a finite k1 whose modulus passes 1.8e308
            v = 1e308
        scale = cfg.abs_tol + cfg.rel_tol * abs(z0)
        h = 0.01 * scale ** 0.2 / max(v, 1e-8) ** 0.2 if v > 0 else 1e-3
        self.h = min(h, 1.0)
        self._stages = None

    def step(self, t_limit=None):
        """Advance one accepted step, shortened to end at t_limit if it
        would pass it; a caller with a t_limit steps only while it lies
        ahead. Callers hold ``np.errstate(over="ignore", invalid="ignore")``."""
        cfg = self.cfg
        f = self.f
        t, z, k1 = self.t, self.z, self.k1
        h = self.h
        if t_limit is not None:
            h = min(h, (t_limit - t) * self.dir)
        for _ in range(120):
            hs = h * self.dir
            k2 = f(z + hs * (0 + _A21 * k1))
            k3 = f(z + hs * (0 + _A31 * k1 + _A32 * k2))
            k4 = f(z + hs * (0 + _A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = f(z + hs * (0 + _A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = f(z + hs * (0 + _A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                             + _A65 * k5))
            z_new = z + hs * (0 + _B1 * k1 + _B2 * k2 + _B3 * k3 + _B4 * k4
                              + _B5 * k5 + _B6 * k6)
            k7 = f(z_new)
            err = hs * (0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5
                        + _E6 * k6 + _E7 * k7)
            try:
                sc = cfg.abs_tol + cfg.rel_tol * max(abs(z), abs(z_new))
                err_norm = abs(err) / sc
            except OverflowError:  # |.| of a finite complex past 1.8e308
                err_norm = math.inf
            if not math.isfinite(err_norm) or not cmath.isfinite(z_new):
                h *= 0.1
                continue
            if err_norm <= 1.0 or h <= 1e-14 * max(1.0, abs(t)):
                factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
                self.h = h * min(max(factor, 0.2), 5.0)
                self._stages = (z, hs, k1, k2, k3, k4, k5, k6, k7)
                self.t = t + hs
                self.z = z_new
                self.k1 = k7
                return
            factor = 0.9 * err_norm ** -0.2
            h = h * min(max(factor, 0.1), 1.0)
        raise StepUnderflow(f"step size underflow at t={t}, z={z}")

    def fit_dense(self):
        """Fit the quartic dense output of the last accepted step from its
        stage values and return the coefficients (y0, r2, r3, r4, r5) of
        its interpolant (module docstring). ``integrate`` never calls this."""
        z, hs, k1, k2, k3, k4, k5, k6, k7 = self._stages
        delta = self.z - z
        r3 = hs * k1 - delta
        return (
            z,
            delta,
            r3,
            delta - hs * k7 - r3,
            hs * (0 + _D1 * k1 + _D2 * k2 + _D3 * k3 + _D4 * k4 + _D5 * k5
                  + _D6 * k6 + _D7 * k7),
        )


def integrate(field, z0, t_end, cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Integrate zdot = field(z), a SystemSpec or any callable, from z0
    over [0, t_end] (t_end < 0 integrates backward; t_end may be
    infinite). Declares Blowup past |z| = 1e12."""
    # a NaN t_end fails every time comparison, so no time limit applies
    if t_end == 0 or math.isnan(t_end):
        raise ValueError("t_end must be nonzero and not NaN; its sign gives the direction")
    f = field.scalar_field() if isinstance(field, SystemSpec) else field
    direction = 1.0 if t_end > 0 else -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        st = _Dopri5(f, 0.0, complex(z0), direction, cfg)
        rows = [(0.0, st.z.real, st.z.imag)]
        terminal = Terminal.TIME_REACHED
        for _ in range(INTEGRATE_STEPS):
            st.step(t_limit=t_end)
            rows.append((st.t, st.z.real, st.z.imag))
            if abs(st.z) > BLOWUP_RADIUS:
                terminal = Terminal.BLOWUP
                break
            if (t_end - st.t) * direction <= 0:
                break
        else:
            terminal = Terminal.STEP_LIMIT
    return Trajectory(np.array(rows), terminal)


class Side(enum.Enum):
    UPPER = 1
    LOWER = -1


class Outcome(enum.Enum):
    """How a half-return or a full return ended; only LANDED carries a
    landing abscissa."""

    LANDED = "landed"
    NOT_ENTERING = "not_entering"  # the field does not enter the half-plane
    # |z| passed BLOWUP_RADIUS or a step reached float range, or a
    # certified escape on an anti-holomorphic side of any degree >= 1
    ESCAPED = "escaped"
    TRAPPED = "trapped"            # entered a certified trap disc
    STEP_LIMIT = "step_limit"      # HALF_RETURN_STEPS steps
    T_MAX = "t_max"                # not landed by time MAX_TIME
    UNDERFLOW = "underflow"        # StepUnderflow


class Crossing(enum.Enum):
    CROSSING_UP = "crossing_up"
    CROSSING_DOWN = "crossing_down"
    TANGENT = "tangent"
    SLIDING = "sliding"


def crossing_transversality(spec, x) -> Crossing:
    """Filippov classification of the point (x, 0) on Sigma = {Im z = 0}
    for a piecewise spec (.upper/.lower SystemSpec) from each side's
    ``SystemSpec.crossing_sign``."""
    s_up = spec.upper.crossing_sign(x)
    s_lo = spec.lower.crossing_sign(x)
    if s_up == 0 or s_lo == 0:
        return Crossing.TANGENT
    if s_up != s_lo:
        return Crossing.SLIDING
    return Crossing.CROSSING_UP if s_up > 0 else Crossing.CROSSING_DOWN


def _trap_discs(spec, s, cfg):
    """Forward-invariant discs (z_e, r), clear of the axis, around the
    simple attracting equilibria of a holomorphic field on side s; ()
    when the equilibria cannot be found.

    With lambda = p'(z_e), Re lambda < 0, and c_k the Taylor
    coefficients of p at z_e, V = |z - z_e|^2 satisfies
    dV/dt <= 2 V (Re lambda + sum_{k>=2} |c_k| r^(k-1)) on |z - z_e| <= r,
    which is negative once the sum is below |Re lambda| (Lyapunov; Khalil,
    Nonlinear Systems, ch. 8). r keeps each of the deg - 1 terms within
    an equal share of |Re lambda| / 2, and r <= |Im z_e| / 2, so the
    disc's gap to the axis is at least r. A disc with r within 1e4
    times the integrator's error scale is dropped: there the computed
    orbit could cross the axis where the true one does not. Never
    raises; callers hold ``np.errstate(over="ignore", invalid="ignore")``.
    """
    p = spec.p
    if p.degree == 1:
        # closed form: no eigenvalue solve for the linear sides
        equilibria = [complex(-p.coeffs[0] / p.coeffs[1])]
    else:
        try:
            equilibria = [z for z, m in cpoly.roots(p) if m == 1]
        except (NonConvergence, ValueError):  # ValueError: past cpoly.MAX_DEGREE
            return ()
    discs = []
    for ze in equilibria:
        # |Re|, |Im| < 1e12 keep every modulus below finite overflow
        if not (ze.imag * s > 0 and abs(ze.real) < BLOWUP_RADIUS
                and abs(ze.imag) < BLOWUP_RADIUS):
            continue
        taylor = cpoly.synthetic_division(p.coeffs, ze, p.degree + 1)[0][1:]  # c_1..c_deg
        if not taylor[0].real < 0:
            continue
        share = -0.5 * taylor[0].real / max(p.degree - 1, 1)
        mags = np.abs(taylor[1:])  # |c_2|, ..., |c_deg|
        powers = np.arange(1, len(mags) + 1)
        nonzero = mags > 0
        radii = (share / mags[nonzero]) ** (1.0 / powers[nonzero])
        # a NaN propagates through np.min and fails the test below
        r = float(np.min(np.append(radii, 0.5 * abs(ze.imag))))
        if 1e4 * (cfg.abs_tol + cfg.rel_tol * abs(ze)) < r < math.inf:
            discs.append((ze, r))
    return tuple(discs)


def _saddle_escape(spec, s, cfg):
    """Test z -> ESCAPED or None for an anti-holomorphic field of degree
    1 on side s: ESCAPED when the orbit through z provably never returns
    to the axis. None instead of a test when the saddle is not within
    the blow-up radius.

    With c1 = |c1| e^{i phi} and z_e = -c0/c1, zeta = (z - z_e) e^{i phi/2}
    = xi + i eta obeys zeta' = |c1| conj(zeta), so with sigma = e^{|c1| t}
    the future orbit has Im z = Im z_e - xi sin(phi/2) sigma
    + eta cos(phi/2) / sigma, and |z| <= |z_e| + |xi| sigma + |eta| / sigma.
    The test asks that s Im z stay above m = 1e4 (abs_tol + rel_tol |z|),
    the trap discs' rounding margin, for every sigma >= 1, and budgets an
    offset of 1e4 (abs_tol + rel_tol |z_e|) in each of xi and eta, for the
    computed z may sit that far off the true orbit and the saddle
    stretches an offset in xi by sigma. That reads P sigma + Q + R / sigma
    > 0 with P > 0; its minimum over sigma >= 1 is P + Q + R when R <= P,
    else Q + 2 sqrt(P R). A start within the offset of the stable
    manifold, where rounding decides which way the orbit leaves, or a
    horizontal unstable direction gives P <= 0 and no certificate. Never
    raises.
    """
    c1, c0 = spec.p.scalar_view[0]
    ze = -c0 / c1
    # as for the trap discs, |Re|, |Im| < 1e12 keep |z_e| finite
    if not (abs(ze.real) < BLOWUP_RADIUS and abs(ze.imag) < BLOWUP_RADIUS):
        return None
    half = cmath.rect(1.0, 0.5 * cmath.phase(c1))  # e^{i phi/2}
    sin_h, cos_h = s * half.imag, s * half.real
    k_rel = 1e4 * cfg.rel_tol
    offset = 1e4 * cfg.abs_tol + k_rel * abs(ze)
    q = s * ze.imag - offset
    p_off, r_off = offset * abs(sin_h), offset * abs(cos_h)

    def escaped(z):
        zeta = (z - ze) * half
        p = -zeta.real * sin_h - k_rel * abs(zeta.real) - p_off
        if not p > 0:
            return None
        r = zeta.imag * cos_h - k_rel * abs(zeta.imag) - r_off
        low = p + q + r if r <= p else q + 2.0 * math.sqrt(p * r)
        return Outcome.ESCAPED if low > 0 else None
    return escaped


def _level_escape(spec, cfg):
    """Test z -> ESCAPED or None for an anti-holomorphic field of degree
    d >= 2: ESCAPED when the first integral proves that the orbit
    through z never reaches the axis again. None instead of a test when
    the leading coefficient of Omega is real.

    Along zdot = conj(p), Omega = int p with Omega(0) = 0 has
    dOmega/dt = p conj(p) = |p|^2 >= 0, so Im Omega is constant and
    Re Omega never decreases. On the axis Omega(x) = rho(x) + i psi(x)
    with rho = sum Re omega_k x^k and psi = sum Im omega_k x^k, of
    degree n = d + 1. At w = Omega(z), with the rounding margin
    eps = 1e4 (abs_tol + rel_tol |z|) |p(z)| of the other certificates
    carried through Omega, plus the bound 8 n 2^-53 sum |omega_k| |z|^k
    on Horner's rounding error in w (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 5.1, with complex products), a landing
    x has |psi(x) - Im w| <= eps. Fujiwara's bound (Tohoku Math. J. 10,
    1916) puts every such x in |x| <= R = 2 max(max_{1<=j<n}
    (|Im omega_j| / L)^(1/(n-j)), ((|Im w| + eps) / (2 L))^(1/n)) with
    L = |Im omega_n|, where rho(x) <= M = sum |Re omega_k| R^k. So
    Re w - eps > M leaves no point of the axis on the orbit's level line
    that Re Omega can still reach. The test uses Python floats only, no
    root finding, and never raises.
    """
    p = spec.p.scalar_view[0][::-1]
    omega = [0j] + [c / k for k, c in enumerate(p, 1)]
    n = len(omega) - 1
    lead = abs(omega[n].imag)
    if lead == 0:
        return None
    root_bound = max((abs(omega[j].imag) / lead) ** (1.0 / (n - j)) for j in range(1, n))
    # descending coefficients for Horner
    rev = omega[::-1]
    top, rest = rev[0], rev[1:]
    rev_re = [abs(c.real) for c in rev]
    rev_mag = [math.hypot(c.real, c.imag) for c in rev]
    k_abs, k_rel = 1e4 * cfg.abs_tol, 1e4 * cfg.rel_tol
    rounding = 8 * n * 2.0 ** -53

    def escaped(z):
        # w = Omega(z) and v = Omega'(z) = p(z) in one Horner pass
        w, v = top, 0j
        for c in rest:
            v = v * z + w
            w = w * z + c
        r = abs(z)
        eps = ((k_abs + k_rel * r) * math.hypot(v.real, v.imag)
               + rounding * cpoly.horner(rev_mag, r))
        level = ((abs(w.imag) + eps) / (2.0 * lead)) ** (1.0 / n)
        # a NaN level propagates through max's first argument and fails
        # the test below
        radius = 2.0 * max(level, root_bound)
        return Outcome.ESCAPED if w.real - eps > cpoly.horner(rev_re, radius) else None
    return escaped


def _certificate(spec, s, cfg):
    """The one per-call test z -> Outcome or None that ends a half-return
    on side s whose orbit provably never lands, chosen here alone: trap
    discs for a holomorphic side, the saddle escape for an
    anti-holomorphic side of degree 1, the level escape for degree >= 2.
    None for a constant field, or when the chosen helper finds none."""
    degree = spec.p.degree
    if degree == 0:
        return None
    if spec.kind is SystemKind.ANTI_HOLOMORPHIC:
        return _saddle_escape(spec, s, cfg) if degree == 1 else _level_escape(spec, cfg)
    discs = _trap_discs(spec, s, cfg)
    if not discs:
        return None

    def trapped(z):
        for ze, r in discs:
            if abs(z - ze) < r:
                return Outcome.TRAPPED
        return None
    return trapped


def half_return_outcome(spec: SystemSpec, x_start, side: Side,
                        cfg: IntegratorConfig = DEFAULT_CONFIG):
    """(Outcome, landing abscissa or None) of the orbit through
    (x_start, 0) over one excursion into the requested half-plane; the
    core of ``half_return``, which documents the search. A start that
    ``SystemSpec.crossing_sign`` calls tangent does not enter."""
    s = float(side.value)
    armed_level = 10.0 * EVENT_TOL * max(1.0, abs(x_start))
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.crossing_sign(x_start) * s <= 0:  # the sign is 0 at a tangency
            return Outcome.NOT_ENTERING, None
        doomed = _certificate(spec, s, cfg)
        st = _Dopri5(spec.scalar_field(), 0.0, complex(x_start, 0.0), 1.0, cfg)
        armed = False
        for _ in range(HALF_RETURN_STEPS):
            if st.t > MAX_TIME:
                return Outcome.T_MAX, None
            try:
                st.step()
            except StepUnderflow:
                return Outcome.UNDERFLOW, None
            if abs(st.z) > BLOWUP_RADIUS:
                return Outcome.ESCAPED, None
            y0, r2, r3, r4, r5 = st.fit_dense()
            # past float range the floats below are not the interpolant's
            # (module docstring)
            if not (abs(y0.real) + abs(y0.imag) + abs(r2.real) + abs(r2.imag)
                    + abs(r3.real) + abs(r3.imag) + abs(r4.real) + abs(r4.imag)
                    + abs(r5.real) + abs(r5.imag) < 1e300):
                return Outcome.ESCAPED, None
            c0, c2, c3, c4, c5 = s * y0.imag, s * r2.imag, s * r3.imag, s * r4.imag, s * r5.imag
            # scan the dense output for a sign change back across the axis,
            # then bisect it between the two samples
            prev_th, prev_y = 0.0, c0
            for th in _THETAS:
                u = 1 - th
                yv = c0 + th * (c2 + u * (c3 + th * (c4 + u * c5)))
                if not armed and yv > armed_level:
                    armed = True
                if armed and yv <= 0.0:
                    lo, hi, ylo = prev_th, th, prev_y
                    for _ in range(200):
                        mid = 0.5 * (lo + hi)
                        u = 1 - mid
                        ym = c0 + mid * (c2 + u * (c3 + mid * (c4 + u * c5)))
                        if abs(ym) <= EVENT_TOL:
                            break
                        if ym * ylo > 0:
                            lo, ylo = mid, ym
                        else:
                            hi = mid
                    else:
                        mid = 0.5 * (lo + hi)
                        u = 1 - mid
                    return Outcome.LANDED, y0.real + mid * (
                        r2.real + u * (r3.real + mid * (r4.real + u * r5.real)))
                prev_th, prev_y = th, yv
            # only a step that did not land may end in a certificate
            if doomed is not None:
                outcome = doomed(st.z)
                if outcome is not None:
                    return outcome, None
    return Outcome.STEP_LIMIT, None


def half_return(spec: SystemSpec, x_start, side: Side, cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Landing abscissa of the orbit through (x_start, 0) after one
    excursion into the requested half-plane, or None if it escapes, is
    trapped, or runs out of steps, time or step size.

    Raises NotEntering when the field at the start does not point into
    the half-plane, or is tangent to the axis there (see
    ``SystemSpec.crossing_sign``). The crossing is located by
    bisection on the dense output until |Im z| <= EVENT_TOL.
    ``half_return_outcome`` also returns the reason.
    """
    outcome, x = half_return_outcome(spec, x_start, side, cfg)
    if outcome is Outcome.NOT_ENTERING:
        raise NotEntering(
            f"field does not enter the {side.name.lower()} half-plane at x={x_start}")
    return x


def return_map_outcome(spec, x_start, cfg: IntegratorConfig = DEFAULT_CONFIG):
    """(Outcome, full return or None): the core of ``return_map``. The
    outcome is NOT_ENTERING unless ``crossing_transversality`` calls
    (x_start, 0) a crossing, else the outcome of the first half-return,
    into the side the crossing enters, if it did not land, or of the
    second."""
    crossing = crossing_transversality(spec, x_start)
    if crossing is Crossing.CROSSING_UP:
        first, second = (spec.upper, Side.UPPER), (spec.lower, Side.LOWER)
    elif crossing is Crossing.CROSSING_DOWN:
        first, second = (spec.lower, Side.LOWER), (spec.upper, Side.UPPER)
    else:
        return Outcome.NOT_ENTERING, None
    outcome, mid = half_return_outcome(first[0], x_start, first[1], cfg)
    if mid is None:
        return outcome, None
    return half_return_outcome(second[0], mid, second[1], cfg)


def return_map(spec, x_start, cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Full Poincare return to Sigma = {Im z = 0} for a piecewise spec
    (any object with .upper/.lower SystemSpec attributes).

    Returns None unless both fields cross Sigma in the same direction at
    x_start (Filippov crossing) and both half-returns land;
    ``return_map_outcome`` also returns the reason."""
    return return_map_outcome(spec, x_start, cfg)[1]


def return_map_derivative(spec, x, cfg: IntegratorConfig = DEFAULT_CONFIG, h=None):
    """Central finite difference of the return map at x: the oracle for
    the first-integral multipliers of the ``pwcycles`` solvers, which do
    not call it."""
    if h is None:
        h = 1e-5 * max(1.0, abs(x))
    plus = return_map(spec, x + h, cfg)
    minus = return_map(spec, x - h, cfg)
    if plus is None or minus is None:
        raise ValueError("return map undefined near x; cannot differentiate")
    return (plus - minus) / (2.0 * h)


def trace_separatrix(p: CPoly, inf_eq: InfinityEquilibrium,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Numerical rendering of the separatrix attached to an infinity
    saddle: seed at |z| = 1 / SEPARATRIX_OFFSET along the saddle angle and
    integrate toward the finite region for a time SEPARATRIX_SPAN (figure
    output, not classification)."""
    spec = SystemSpec(SystemKind.HOLOMORPHIC, p)
    z_seed = np.exp(1j * inf_eq.angle) / SEPARATRIX_OFFSET
    v = spec.velocity(z_seed)
    radial = (np.conj(z_seed) * v).real
    direction = -1.0 if radial > 0 else 1.0
    return integrate(spec, z_seed, direction * SEPARATRIX_SPAN, cfg)
