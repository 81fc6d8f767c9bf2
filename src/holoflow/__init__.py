"""holoflow: complex potentials, phase portraits and piecewise limit
cycles for planar holomorphic and anti-holomorphic polynomial systems."""

from .cpoly import (
    BivarSym,
    CPoly,
    divided_difference,
    real_roots,
    resultant_x2,
    roots,
)
from .potential import (
    NormalFormKind,
    PotentialRep,
    SystemKind,
    SystemSpec,
    anti_holomorphic,
    build_potential,
    eval_potential,
    first_integral,
    holomorphic,
    normal_form_potential,
    rectify,
)
from .classify import (
    BernoulliPortrait,
    EquilibriumInfo,
    EquilibriumType,
    InfinityEquilibrium,
    PortraitClass,
    bernoulli_portrait,
    classify_cubic,
    classify_equilibria,
    euler_jacobi_residual,
    infinity_equilibria,
)
from .odeint import (
    IntegratorConfig,
    Outcome,
    Side,
    Terminal,
    Trajectory,
    half_return,
    integrate,
    return_map,
    return_map_derivative,
    trace_separatrix,
)
from .pwcycles import (
    Crossing,
    CycleCandidate,
    MixedGeneralConstants,
    MixedLinearSpec,
    PiecewiseSpec,
    Stability,
    Verified,
    candidate_bound,
    crossing_transversality,
    solve_antiholo_pair,
    solve_mixed_general,
    solve_mixed_linear_on_sigma,
)
from .flowstats import (
    Circle,
    ClosedFormFlow,
    ContourResult,
    FlowKind,
    ParametricCurve,
    Polygon,
    closed_form_flow,
    complex_time_invariants,
    contour_integral,
)
from . import errors

__version__ = "0.1.0"
