"""Contract of the public entry points that the CLI reaches: on finite
but adversarial input each one returns an answer, raises a typed
``HoloflowError``, or raises the ``ValueError`` it documents. Nothing
else escapes, and no numpy ``RuntimeWarning`` is raised in holoflow code
(``pyproject.toml`` turns those into errors).

Hypothesis draws starts where a side's field is tangent or nearly
tangent to the axis, leading coefficients near 0, parts of magnitude
1e-150 to 1e150, and malformed system records (empty, nested, bool,
string and huge integer entries). The work is bounded by counting
steps, never by a wall clock: every integration, the mixed solvers'
period-annulus search included, runs with the module's step budgets
``odeint.HALF_RETURN_STEPS`` and ``odeint.INTEGRATE_STEPS`` lowered to
``STEPS``.

The root layer (``cpoly.roots``, holomorphic ``build_potential`` and
``classify_equilibria``) gets coefficients of magnitude 1e-300 to
1e300, leading coefficients down to subnormal, and products with
multiple roots, up to degree 12. Each call returns finite values whose
multiplicities sum to the degree, or raises a ``HoloflowError``.

The render and flowstats layer (``render.potential_grid``,
``render.piecewise_psi_grid``, ``default_levels`` with
``marching_squares`` on level lists that repeat, leave the value range
or are empty, and ``flowstats.contour_integral``) gets
coefficients of magnitude 1e-300 to 1e300 and windows and curves of any
finite size, with every ``RuntimeWarning`` an error wherever it is
raised. Each call returns finite levels and segment coordinates, or
raises a ``HoloflowError``; a window or curve that its constructor
rejects with its documented ``ValueError`` is not drawn again.

``real_roots`` and ``solve_antiholo_pair`` are left out: Sturm isolation
can loop without bound on a polynomial with a multiple root (ROADMAP
item 8).

The CLI (``test_cli``) gets argvs of ``potential``, ``portrait``,
``flowstats``, ``bernoulli``, ``classify-cubic`` and ``cycles`` with
numbers of magnitude 1e-300 to 1e300, sizes small or past one limit
(``MAX_GRID_NODES``, ``MAX_LEVELS``, ``MAX_N``, ``MAX_DEGREE``,
``MAX_PAIR_DEGREE``) up to ten times it, and on some draws one
structured flag's value malformed or a flag of the command's other
mode added (``portrait --holo`` beside ``--upper``, ``cycles --params``
with the antiholo family). Every argv exits 0, 1 or 2 with no
traceback. One past a limit, with a malformed value or with a flag of
another mode exits 2 and writes nothing, and the functions that do the
work raise if it reaches them, so the limits, not a clock, bound the
work. Antiholo ``cycles``
sides are drawn past ``MAX_PAIR_DEGREE`` only, for the reason above.
"""

import cmath
import contextlib
import dataclasses
import io
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from holoflow import classify, cpoly, flowstats, odeint, pwcycles, render
from holoflow.classify import classify_equilibria, infinity_equilibria
from holoflow.cli import FAMILIES, decode_system, main
from holoflow.cpoly import CPoly
from holoflow.errors import HoloflowError
from holoflow.flowstats import Circle, ContourResult, Polygon, contour_integral
from holoflow.odeint import (
    Crossing,
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


def _bounded():
    """A context in which every half-return and integration runs at most
    STEPS steps."""
    return mock.patch.multiple(odeint, HALF_RETURN_STEPS=STEPS, INTEGRATE_STEPS=STEPS)


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


@settings(max_examples=200, deadline=None)
@given(start=_side_and_start(), other=st.floats())
@example(start=(SystemSpec(SystemKind.HOLOMORPHIC, CPoly([1j, 1.0])), 0.0), other=math.inf)
@example(start=(SystemSpec(SystemKind.ANTI_HOLOMORPHIC, CPoly([1j, 1e150, 1e150])), 1.0),
         other=1e200)  # the scale passes float range at 1e200
def test_crossing_sign_always_decides(start, other):
    # at the drawn start, and at any float, infinite and NaN included
    spec, x = start
    for point in (x, other):
        assert spec.crossing_sign(point) in (-1, 0, 1)


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
    with _bounded():
        _check_outcome(_answer(half_return_outcome, spec, x, side))


@settings(max_examples=100, deadline=None)
@given(start=_piecewise_and_start())
def test_return_map_outcome(start):
    pw, x = start
    with _bounded():
        _check_outcome(_answer(return_map_outcome, pw, x))


@settings(max_examples=100, deadline=None)
@given(start=_side_and_start(), z0=_complex,
       t_end=st.one_of(_real.filter(lambda t: t != 0.0), st.sampled_from([-math.inf, math.inf])))
# a finite start velocity whose modulus passes float range (OverflowError
# at the parent)
@example(start=(SystemSpec(SystemKind.HOLOMORPHIC, CPoly([0j, 0j, 0j, 2j])), 0.0),
         z0=3e102 + 3.5e102j, t_end=1.0)
def test_integrate(start, z0, t_end):
    spec, _ = start
    with _bounded():
        traj = _answer(integrate, spec, z0, t_end)
    assert traj is None or (isinstance(traj, Trajectory) and len(traj.samples) <= STEPS + 1)


@settings(max_examples=60, deadline=None)
@given(coeffs=_coeffs, n=st.integers(2, 5), k=st.integers(0, 7))
def test_trace_separatrix(coeffs, n, k):
    inf_eq = infinity_equilibria(n)[k % (2 * (n - 1))]
    with _bounded():
        traj = _answer(trace_separatrix, CPoly(coeffs), inf_eq)
    assert traj is None or (isinstance(traj, Trajectory) and len(traj.samples) <= STEPS + 1)


def _solve_bounded(solve, constants):
    """The solver's candidates without validation, or None for a typed
    error; return maps end STEP_LIMIT after STEPS steps."""
    with _bounded():
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


def _strict(call, *args):
    """call(*args) with every RuntimeWarning an error, or None when it
    raises a HoloflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _answer(call, *args)


_wide_spec = st.builds(lambda kind, cs: SystemSpec(kind, CPoly(cs)), st.sampled_from(SystemKind),
                       st.lists(_wide_complex, min_size=1, max_size=5))


def _built(make, *args):
    """make(*args), or None when it raises its documented ValueError."""
    try:
        return make(*args)
    except ValueError:
        return None


_window = st.one_of(st.just((-2.0, 2.0, -2.0, 2.0)), st.tuples(_wide, _wide, _wide, _wide))
_grid_size = st.tuples(st.integers(2, 6), st.integers(2, 6))
# the level list marching_squares gets: the default levels 0, 1 or 2
# times (an empty list, or every level repeated), then levels of any
# finite size, most of them outside the value range
_level_list = st.tuples(st.integers(0, 2), st.lists(_wide, max_size=3))


def _check_contours(xs, ys, values, level_list):
    copies, extra = level_list
    levels = _strict(render.default_levels, values, 4)
    assert all(math.isfinite(level) for level in levels)
    levels = copies * levels + extra
    contours = _strict(render.marching_squares, xs, ys, values, levels)
    assert contours is None or (
        len(contours) == len(levels)
        and all(math.isfinite(c) for segments in contours
                for seg in segments for pt in seg for c in pt))


@settings(max_examples=100, deadline=None)
@given(spec=_wide_spec, bounds=_window, size=_grid_size, levels=_level_list)
@example(spec=SystemSpec(SystemKind.ANTI_HOLOMORPHIC, CPoly([1e308, 1e308, 1e308])),
         bounds=(-2.0, 2.0, -2.0, 2.0), size=(4, 4),
         levels=(1, []))  # overflow warnings at the parent
@example(spec=SystemSpec(SystemKind.HOLOMORPHIC, CPoly([2.225073858507e-311j])),
         bounds=(-2.0, 2.0, -2.0, 2.0), size=(2, 2),
         levels=(1, []))  # 1/p overflowed in build_potential
def test_potential_grid_and_contours(spec, bounds, size, levels):
    window = _built(render.Window, *bounds)
    rep = _strict(build_potential, spec)
    if window is None or rep is None:
        return
    grid = _strict(render.potential_grid, rep, window, *size)
    if grid is not None:
        xs, ys, phi, psi = grid
        _check_contours(xs, ys, phi, levels)
        _check_contours(xs, ys, psi, levels)


@settings(max_examples=100, deadline=None)
@given(upper=_wide_spec, lower=_wide_spec, bounds=_window, size=_grid_size,
       levels=_level_list)
@example(upper=SystemSpec(SystemKind.ANTI_HOLOMORPHIC, CPoly([1e308, 1e308, 1e308])),
         lower=SystemSpec(SystemKind.ANTI_HOLOMORPHIC, CPoly([1.0, 1e300j])),
         bounds=(-2.0, 2.0, -2.0, 2.0), size=(4, 4),
         levels=(1, []))  # overflow warnings at the parent
def test_piecewise_psi_grid_and_contours(upper, lower, bounds, size, levels):
    window = _built(render.Window, *bounds)
    if window is None:
        return
    grid = _strict(render.piecewise_psi_grid, upper, lower, window, *size)
    if grid is not None:
        _check_contours(*grid, levels)


_curve = st.one_of(
    st.builds(lambda c, r: (Circle, c, r), _wide_complex, _wide),
    st.builds(lambda vs: (Polygon, tuple(vs)), st.lists(_wide_complex, min_size=3, max_size=5)),
)


@settings(max_examples=100, deadline=None)
@given(spec=_wide_spec, curve=_curve, n_nodes=st.integers(1, 64))
@example(spec=SystemSpec(SystemKind.HOLOMORPHIC, CPoly([1e308, 1e308])),
         curve=(Circle, 0j, 1e300), n_nodes=64)  # an overflow warning at the parent
@example(spec=SystemSpec(SystemKind.HOLOMORPHIC, CPoly([1e300])),
         curve=(Circle, 0j, 1e10), n_nodes=64)  # a NaN sum at the parent
def test_contour_integral(spec, curve, n_nodes):
    curve = _built(*curve)
    if curve is not None:
        result = _strict(contour_integral, spec, curve, n_nodes)
        assert result is None or (isinstance(result, ContourResult)
                                  and cmath.isfinite(result.as_complex()))


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

# values no structured flag accepts: a non-number, NaN, inf, a number
# past float range, an empty entry, unbalanced or empty parentheses, a
# wrong separator
_MALFORMED = ["", "x", "nan", "-inf", "1e999", "1,,2", "(1", "1)", "(1,2,3)", "()", ";", "1;2"]
# what a refused draw must not reach: each is looked up at call time
_WORK = [(cpoly, "roots"), (cpoly, "resultant_x2"), (render, "_grid"),
         (classify, "infinity_equilibria"), (flowstats, "contour_integral"),
         (pwcycles, "solve_mixed_linear_on_sigma"), (pwcycles, "solve_mixed_general")]


def _number(x):
    return repr(float(x))


def _entry(c):
    return f"({_number(c.real)},{_number(c.imag)})" if c.imag else _number(c.real)


def _cycled(values, count, sep=","):
    """count entries cycling through values: a long list from a few draws."""
    return sep.join(values[i % len(values)] for i in range(count))


def _size(small, limit, past):
    """A cheap size up to small, or one past limit up to ten times it."""
    return st.integers(limit + 1, 10 * limit) if past else st.integers(*small)


@st.composite
def _poly(draw, limit, past=False):
    """A coefficient list of degree up to 4, or past limit."""
    degree = draw(_size((0, 4), limit, past))
    entries = [_entry(c) for c in draw(st.lists(_wide_complex, min_size=1, max_size=3))]
    lead = _entry(draw(_wide_complex) or 1.0)
    return ",".join(filter(None, [_cycled(entries, degree), lead]))


@st.composite
def _grid_flag(draw, past):
    """A small grid, or one of more than MAX_GRID_NODES nodes up to ten
    times as many."""
    if not past:
        return f"{draw(st.integers(2, 8))},{draw(st.integers(2, 8))}"
    limit = render.MAX_GRID_NODES
    nx = draw(st.integers(2, 10 * limit // 2))
    return f"{nx},{draw(st.integers(limit // nx + 1, 10 * limit // nx))}"


# the sizes of each command that have a limit
_SIZES = {"potential": ["degree", "grid"], "portrait": ["degree", "grid", "levels"],
          "bernoulli": ["n"], "flowstats": [], "classify-cubic": [], "cycles": []}


@st.composite
def _cli_argv(draw):
    """(argv, refused): an argv of one command, and whether a size in it
    is past its limit, a structured flag's value is malformed or a flag
    of another mode of the command is given."""
    command = draw(st.sampled_from(sorted(_SIZES)))
    past = draw(st.sampled_from(_SIZES[command])) if _SIZES[command] and draw(st.booleans()) \
        else None

    def number():
        return _number(draw(_wide))

    def complex_flag():
        return f"{number()},{number()}"

    if command in ("potential", "portrait"):
        keys = draw(st.sampled_from([("--holo",), ("--antiholo",)]
                                    + [("--upper", "--lower")] * (command == "portrait")))
        flags = {key: draw(_poly(cpoly.MAX_DEGREE, past == "degree" and key == keys[0]))
                 for key in keys}
        flags["--grid"] = draw(_grid_flag(past == "grid"))
        if draw(st.booleans()):
            flags["--window"] = ",".join(sorted([number(), number()]) + sorted([number(), number()]))
        if command == "portrait":
            count = draw(_size((1, 4), render.MAX_LEVELS, past == "levels"))
            if draw(st.booleans()):
                flags["--levels"] = str(count)
            else:
                flags["--levels-at"] = _cycled([number() for _ in range(3)], count)
            outputs = ["--out-svg={out}/p.svg", "--out-csv={out}/p.csv"]
        else:
            outputs = ["--out={out}/p.json", "--grid-csv={out}/g.csv"]
    elif command == "flowstats":
        side = draw(st.sampled_from(["--holo", "--antiholo"]))
        flags = {side: draw(_poly(cpoly.MAX_DEGREE))}
        if draw(st.booleans()):
            flags["--circle"] = f"{number()},{number()},{number()}"
        else:
            # 3 or 4 vertices: each vertex count costs one Gauss-Legendre
            # rule of 4096 // m nodes, an O(n^3) eigenvalue solve
            flags["--polygon"] = _cycled([complex_flag() for _ in range(3)],
                                         draw(st.integers(3, 4)), ";")
        outputs = ["--out={out}/f.json"]
    elif command == "bernoulli":
        n = draw(_size((2, classify.MAX_N), classify.MAX_N, past == "n"))
        flags = {"--n": str(n), "--alpha": complex_flag()}
        outputs = ["--out={out}/b.json"]
    elif command == "classify-cubic":
        flags = {"--a1": complex_flag(), "--a0": complex_flag()}
        outputs = ["--out={out}/c.json"]
    else:
        family = draw(st.sampled_from(list(FAMILIES)))
        outputs = [f"--family={family}", "--out={out}/c.json"]
        if family == "antiholo":
            # only sides past MAX_PAIR_DEGREE: below it real_roots can
            # loop without bound on a resultant with a multiple root
            # (ROADMAP item 8)
            past = "degree"
            flags = {key: draw(_poly(pwcycles.MAX_PAIR_DEGREE, True))
                     for key in ("--upper", "--lower")}
        else:
            count = len(dataclasses.fields(pwcycles.MixedLinearSpec if family == "mixed-linear"
                                           else pwcycles.MixedGeneralConstants))
            flags = {"--params": ",".join(number() for _ in range(count))}
    # a flag of the command's other mode: a portrait's system beside its
    # piecewise sides, a cycles family's flags beside another family's
    if command == "portrait":
        other = ["--upper", "--lower"] if "--upper" not in flags else ["--holo", "--antiholo"]
    elif command == "cycles":
        other = ["--params"] if family == "antiholo" else ["--upper", "--lower"]
    else:
        other = []
    mixed = draw(st.sampled_from(other)) if other and draw(st.booleans()) else None
    if mixed:
        flags[mixed] = complex_flag() if mixed == "--params" else draw(_poly(cpoly.MAX_DEGREE))
    malformed = draw(st.sampled_from(sorted(flags))) if draw(st.booleans()) else None
    if malformed:
        flags[malformed] = draw(st.sampled_from(_MALFORMED))
    argv = [command] + outputs + [f"{flag}={value}" for flag, value in flags.items()]
    return argv, bool(past or malformed or mixed)


_PORTRAIT = ["portrait", "--out-svg={out}/p.svg", "--holo=0,1"]
_PAIR_SIDE = ",".join(["1"] * (pwcycles.MAX_PAIR_DEGREE + 1) + ["(0,1)"])


# one draw just past each limit, and the partial output of the parent
@settings(max_examples=200, deadline=None)
@given(draw=_cli_argv())
@example(draw=(["bernoulli", "--out={out}/b.json", f"--n={classify.MAX_N + 1}", "--alpha=1,0"],
               True))  # NonConvergence (exit 1) at 1017, 1018 and from 1020 on at the parent
@example(draw=(["potential", "--out={out}/p.json", "--grid-csv={out}/g.csv", "--holo=0,1",
                "--window=1,2"], True))  # p.json written before exit 2 at the parent
@example(draw=(_PORTRAIT + [f"--grid={render.MAX_GRID_NODES // 400 + 1},400"], True))
@example(draw=(_PORTRAIT + [f"--levels={render.MAX_LEVELS + 1}"], True))
@example(draw=(_PORTRAIT + ["--levels-at=" + ",".join(["0"] * (render.MAX_LEVELS + 1))], True))
@example(draw=(["potential", "--out={out}/p.json",
                "--holo=" + ",".join(["1"] * (cpoly.MAX_DEGREE + 2))], True))
@example(draw=(["cycles", "--family=antiholo", "--out={out}/c.json", f"--upper={_PAIR_SIDE}",
                f"--lower={_PAIR_SIDE}"], True))
def test_cli(draw):
    """Every argv exits 0, 1 or 2 with no traceback; one with a
    malformed value or a size past its limit exits 2 before any work
    and writes nothing."""
    argv, refused = draw
    with tempfile.TemporaryDirectory() as out, contextlib.ExitStack() as stack:
        stack.enter_context(_bounded())
        if refused:
            for module, name in _WORK:
                stack.enter_context(mock.patch.object(
                    module, name, side_effect=AssertionError(f"{name} ran on a refused argv")))
        stderr = io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        try:
            code = main([a.replace("{out}", out) for a in argv])
        except SystemExit as exc:
            code = exc.code
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if refused:
            assert code == 2, stderr.getvalue()
            assert os.listdir(out) == []
