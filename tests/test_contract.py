"""Contract of the public entry points that the CLI reaches: on finite
but adversarial input each one returns an answer, raises a typed
``HoloflowError``, or raises the ``ValueError`` it documents. Nothing
else escapes, and no numpy ``RuntimeWarning`` is raised in holoflow code
(``pyproject.toml`` turns those into errors).

Hypothesis draws starts where a side's field is tangent or nearly
tangent to the axis, leading coefficients near 0, parts of magnitude
1e-150 to 1e150, and malformed system records (empty, nested, bool,
string and huge integer entries). The work is bounded by counting
steps, never by a wall clock: every integration gets
``IntegratorConfig(max_steps=STEPS)``, and the mixed solvers, whose
period-annulus search runs return maps at the default configuration,
run with ``odeint.HALF_RETURN_STEPS`` lowered to ``STEPS``.

The root layer (``cpoly.roots``, holomorphic ``build_potential`` and
``classify_equilibria``) gets coefficients of magnitude 1e-300 to
1e300, leading coefficients down to subnormal, and products with
multiple roots, up to degree 12. Each call returns finite values whose
multiplicities sum to the degree, or raises a ``HoloflowError``.

``real_roots`` and ``solve_antiholo_pair`` are left out: Sturm isolation
can loop without bound on a polynomial with a multiple root (ROADMAP
item 8).
"""

import cmath
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoflow import cpoly, odeint
from holoflow.classify import classify_equilibria, infinity_equilibria
from holoflow.cli import FAMILIES, decode_system
from holoflow.cpoly import CPoly
from holoflow.errors import HoloflowError
from holoflow.odeint import (
    Crossing,
    IntegratorConfig,
    Outcome,
    Side,
    Trajectory,
    crossing_transversality,
    half_return_outcome,
    integrate,
    return_map_outcome,
    trace_separatrix,
)
from holoflow.potential import SystemKind, SystemSpec, build_potential, holomorphic
from holoflow.pwcycles import (
    CycleCandidate,
    MixedGeneralConstants,
    MixedLinearSpec,
    PiecewiseSpec,
    solve_mixed_general,
    solve_mixed_linear_on_sigma,
)

STEPS = 200
CFG = IntegratorConfig(max_steps=STEPS)

# a signed float of magnitude 1e-150 to 1e151, an ordinary one, or zero
_real = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 3.0),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 10.0),
              st.integers(-150, 150), st.sampled_from([1.0, -1.0])),
)
_complex = st.builds(complex, _real, _real)
# a leading coefficient near 0 on some draws
_coeffs = st.builds(
    lambda cs, lead: cs + lead,
    st.lists(_complex, min_size=1, max_size=4),
    st.lists(st.builds(lambda e, c: c * 10.0 ** -e, st.integers(13, 150), _complex),
             max_size=1),
)


@st.composite
def _side(draw, x):
    """A side whose vertical velocity at x is, on some draws, made 0 or
    tiny next to the field's size there: a tangent or near-tangent
    start."""
    kind = draw(st.sampled_from(SystemKind))
    coeffs = draw(_coeffs)
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            v = CPoly(coeffs)(complex(x, 0.0))
        if math.isfinite(abs(v)):
            tiny = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-10])) * max(1.0, abs(v))
            coeffs[0] -= 1j * (v.imag - tiny)
    return SystemSpec(kind, CPoly(coeffs))


@st.composite
def _side_and_start(draw):
    x = draw(_real)
    return draw(_side(x)), x


@st.composite
def _piecewise_and_start(draw):
    x = draw(_real)
    return PiecewiseSpec(draw(_side(x)), draw(_side(x))), x


def _answer(call, *args, **kwargs):
    """call(*args, **kwargs), or None when it raises a HoloflowError."""
    try:
        return call(*args, **kwargs)
    except HoloflowError:
        return None


@settings(max_examples=100, deadline=None)
@given(start=_piecewise_and_start())
def test_crossing_transversality_always_classifies(start):
    pw, x = start
    assert crossing_transversality(pw, x) in Crossing


def _check_outcome(result):
    if result is None:
        return
    outcome, x = result
    assert outcome in Outcome
    assert (x is not None) == (outcome is Outcome.LANDED)
    assert x is None or math.isfinite(x)


@settings(max_examples=100, deadline=None)
@given(start=_side_and_start(), side=st.sampled_from(Side))
def test_half_return_outcome(start, side):
    spec, x = start
    _check_outcome(_answer(half_return_outcome, spec, x, side, CFG))


@settings(max_examples=100, deadline=None)
@given(start=_piecewise_and_start())
def test_return_map_outcome(start):
    pw, x = start
    _check_outcome(_answer(return_map_outcome, pw, x, CFG))


@settings(max_examples=100, deadline=None)
@given(start=_side_and_start(), z0=_complex,
       t_end=st.one_of(_real.filter(lambda t: t != 0.0), st.sampled_from([-math.inf, math.inf])))
def test_integrate(start, z0, t_end):
    spec, _ = start
    traj = _answer(integrate, spec, z0, t_end, CFG)
    assert traj is None or (isinstance(traj, Trajectory) and len(traj.samples) <= STEPS + 1)


@settings(max_examples=60, deadline=None)
@given(coeffs=_coeffs, n=st.integers(2, 5), k=st.integers(0, 7))
def test_trace_separatrix(coeffs, n, k):
    inf_eq = infinity_equilibria(n)[k % (2 * (n - 1))]
    traj = _answer(trace_separatrix, CPoly(coeffs), inf_eq, CFG)
    assert traj is None or (isinstance(traj, Trajectory) and len(traj.samples) <= STEPS + 1)


def _solve_bounded(solve, constants):
    """The solver's candidates without validation, or None for a typed
    error; return maps end STEP_LIMIT after STEPS steps."""
    with mock.patch.object(odeint, "HALF_RETURN_STEPS", STEPS):
        out = _answer(solve, constants, validate=False)
    assert out is None or all(isinstance(c, CycleCandidate) for c in out)


@settings(max_examples=100, deadline=None)
@given(params=st.lists(_real, min_size=7, max_size=7))
# exp(a pi / b) past float range (OverflowError at the parent)
@example(params=[1.0, 1.0, 1.0, 1.0, 1e3, 1.0, 0.0])
# a2 (exp(a pi / b) - 1) underflows to 0 (ZeroDivisionError at the parent)
@example(params=[1.0, 1e-150, 1.0, 1.0, 1e-150, 1e150, 0.0])
def test_solve_mixed_linear_on_sigma(params):
    _solve_bounded(solve_mixed_linear_on_sigma, MixedLinearSpec(*params))


@settings(max_examples=100, deadline=None)
@given(params=st.lists(_real, min_size=8, max_size=8))
# F squares a distance past float range (OverflowError at the parent)
@example(params=[1e-150, 1e-150, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-150])
# F' cubes y0 past float range (OverflowError at the parent)
@example(params=[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1e103])
def test_solve_mixed_general(params):
    _solve_bounded(solve_mixed_general, MixedGeneralConstants(*params))


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.sampled_from([10 ** 400, -10 ** 400]),
    st.floats(), st.text(max_size=3),
)
_json = st.recursive(
    _json_leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                               max_size=3),
    max_leaves=10,
)
_entry = st.one_of(_json_leaf, st.builds(float, _real))
_records = st.one_of(
    _json,
    st.fixed_dictionaries({"family": st.sampled_from(list(FAMILIES)) | _json},
                          optional={"upper": _json, "lower": _json, "params": _json}),
    st.fixed_dictionaries({
        "family": st.just("antiholo"),
        "upper": st.lists(st.lists(_entry, max_size=3) | _entry, max_size=4),
        "lower": st.lists(st.lists(_entry, min_size=2, max_size=2), max_size=4),
    }),
    st.fixed_dictionaries({
        "family": st.sampled_from(["mixed-linear", "mixed-general"]),
        "params": st.lists(_entry, min_size=7, max_size=8),
    }),
)


@settings(max_examples=200, deadline=None)
@given(record=_records)
@example(record={"family": "antiholo", "upper": [], "lower": [[1.0, 0.0], [0.0, 1.0]]})
def test_decode_system(record):
    try:
        pw, solve, bound = decode_system(record)
    except ValueError:  # documented: a malformed record
        return
    assert isinstance(pw, PiecewiseSpec) and callable(solve)
    assert pw.upper.p.degree >= 0 and pw.lower.p.degree >= 0
    assert bound in (None, 0, 1, 3)


# a signed float of magnitude 1e-300 to 1e300, an ordinary one, or zero
_wide = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 3.0),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.99),
              st.integers(-300, 299), st.sampled_from([1.0, -1.0])),
)
_wide_complex = st.builds(complex, _wide, _wide)
# a nonzero leading coefficient, on some draws below 1e-300 or subnormal
_lead = st.one_of(
    _wide_complex.filter(lambda c: c != 0),
    st.builds(lambda m, e: m * 10.0 ** -e, st.floats(1.0, 9.99), st.integers(300, 323)),
)
_root_polys = st.one_of(
    st.builds(lambda cs, lead: CPoly(cs + [lead]),
              st.lists(_wide_complex, min_size=1, max_size=12), _lead),
    # up to four distinct roots with multiplicities <= 3, scaled by
    # 1e-20 to 1e20
    st.builds(lambda rs, ms, e, lead: CPoly(lead * CPoly.from_roots(
                  [r * 10.0 ** e for r, m in zip(rs, ms) for _ in range(m)]).coeffs),
              st.lists(st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=1, max_size=4),
              st.lists(st.integers(1, 3), min_size=4, max_size=4),
              st.integers(-20, 20), st.floats(0.5, 2.0)),
)


@settings(max_examples=100, deadline=None)
@given(p=_root_polys)
@example(p=CPoly([1e300, 1e300, 1.0]))  # RuntimeWarnings in cpoly at the parent
def test_roots(p):
    out = _answer(cpoly.roots, p)
    assert out is None or (sum(m for _, m in out) == p.degree
                           and all(cmath.isfinite(z) for z, _ in out))


@settings(max_examples=100, deadline=None)
@given(p=_root_polys)
@example(p=CPoly([0.0, 0.0, 0.0, 1e-320]))  # NaN residues at the parent
def test_build_potential(p):
    rep = _answer(build_potential, holomorphic(p.coeffs))
    if rep is not None:
        terms = list(rep.log_terms) + [t[:2] for t in rep.rational_terms]
        assert all(cmath.isfinite(a) and cmath.isfinite(b) for a, b in terms)
        assert 1 <= len(rep.poles()) <= p.degree


@settings(max_examples=100, deadline=None)
@given(p=_root_polys)
@example(p=CPoly([0.0, 0.0, 0.0, 1j, 1e-155j]))  # p' overflows at the root -1e155
def test_classify_equilibria(p):
    out = _answer(classify_equilibria, p)
    assert out is None or (sum(e.multiplicity for e in out) == p.degree
                           and all(cmath.isfinite(e.location) and cmath.isfinite(e.lam)
                                   for e in out))
