"""Exception taxonomy shared across the package."""


class HoloflowError(Exception):
    """Base class for all holoflow errors."""


# --- polynomial layer ---------------------------------------------------

class NonConvergence(HoloflowError):
    """Simultaneous root iteration failed to reach tolerance, or a
    polynomial coefficient or an intermediate value passed float range."""


class DegenerateLeadingCoefficient(HoloflowError):
    """Leading elimination coefficient vanishes identically."""


class IdenticallyZero(HoloflowError):
    """Polynomial is (numerically) the zero polynomial, so its zero set
    is a continuum rather than a finite root list."""


# --- potential layer ----------------------------------------------------

class ZeroPolynomial(HoloflowError):
    """The defining polynomial is identically zero."""


class AtPole(HoloflowError):
    """Evaluation requested at (or too close to) a pole."""


class UndefinedAtOrigin(HoloflowError):
    """Closed-form potential is singular at the origin."""


class ExcludedExponent(HoloflowError):
    """Monomial exponent n = 1 has a logarithmic, not power-law, potential."""


# --- classification layer -----------------------------------------------

class MultipleRoot(HoloflowError):
    """Operation requires all equilibria simple."""


class UnclassifiedConfiguration(HoloflowError):
    """Computed equilibrium data matches none of the known cubic
    configurations within the requested tolerance band."""


class ZeroAlpha(HoloflowError):
    """Bernoulli linear coefficient must be nonzero."""


# --- piecewise-cycle layer ----------------------------------------------

class HypothesisViolation(HoloflowError):
    """Solver preconditions (a2 != 0, b != 0, ...) not met."""


class CenterContinuum(HoloflowError):
    """A period annulus was detected: closed orbits exist but none is
    isolated. Carries one representative crossing pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ContinuumDetected(HoloflowError):
    """The crossing-pair resultant vanishes identically: infinitely many
    matching pairs, hence no limit cycles."""


class DegreeUnsupported(HoloflowError):
    """A polynomial's degree is outside what the method handles: the
    piecewise solvers need degree >= 1 on both sides, and a contour
    quadrature integrates a side exactly only up to a degree set by its
    node count (``flowstats.exact_degree``)."""


# --- integration / quadrature layer ---------------------------------------

class NotEntering(HoloflowError):
    """Field does not point into the requested half-plane at the start."""


class StepUnderflow(HoloflowError):
    """The adaptive integrator could not find an acceptable step: the
    field is non-finite or too stiff near the current point."""


class FieldSingularOnCurve(HoloflowError):
    """Field evaluation overflowed on a quadrature node."""


class DomainViolation(HoloflowError):
    """Closed-form flow evaluated outside its domain (blow-up time,
    branch failure, excluded initial condition)."""
