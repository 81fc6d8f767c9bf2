"""Seeded inputs, ops and reference checks for the three workloads.

An op is a zero-argument callable timed by the harness. Its check runs
outside the timed region and returns ``(ok, rel_err)``: ``ok`` is False
when the output disagrees with the workload's reference, and
``rel_err`` (or None) is the relative error that feeds
``accuracy_digits``. Every reference here is computed by this file from
the generated inputs (closed forms, the roots a polynomial was built
from, independent polynomial evaluation) or read from the files under
``reference/``; none is read back from the code under test.

A documented typed error is an answer, not a failure: an op that raises
one returns a ``Typed`` marker, which its check accepts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import holoflow as hf
from holoflow import classify, cli, cpoly, odeint, potential, pwcycles
from holoflow.errors import (
    CenterContinuum,
    ContinuumDetected,
    NonConvergence,
    UnclassifiedConfiguration,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CONFIRMED = pwcycles.Verified.NUMERICALLY_CONFIRMED
# criterion 3's handshake: confirmed x1 closes under a tight return map
TIGHT = odeint.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-11)
HANDSHAKE_TOL = 1e-6
# "holoflow verify" default tolerance
VERIFY_TOL = 1e-6
# scaled residual a returned crossing pair must meet on both
# divided-difference polynomials
PAIR_RESIDUAL_TOL = 1e-7
# relative tolerance on the numbers of CLI JSON and CSV outputs; a
# return-map derivative (finite differences at the seed commit) and a
# return-map value are integrator output and get the looser ORACLE_REL_TOL
CLI_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-6
ORACLE_KEYS = frozenset({"multiplier", "return"})
# solve_antiholo_pair dedupes pairs at 1e-8 relative; the resultant roots
# of a near-double root can split by more, and the duplicates then push
# the count past the degree bound (seen at the seed commit for about one
# degree-3 draw in 800). Pairs closer than this are the same pair.
DUPLICATE_TOL = 1e-6
# multiple-root slice: a root of multiplicity m is resolved to about
# eps**(1/m); 1e-4 relative leaves a wide margin for m <= 3
ROOT_TOL = 1e-4


@dataclass(frozen=True)
class Typed:
    """A documented typed error returned as the op's answer."""

    name: str


class KnownDefect(Exception):
    """Raised by a check whose op failed the way a documented seed-commit
    defect fails. The op counts as failed; the run stays correct."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    """One round is a fixed mix of op kinds; the harness runs whole
    rounds back to back, so every run sees the same mix.

    A run stops only at a multiple of ``pass_rounds`` rounds: one pass
    uses every entry of the workload's fixed corpora equally often, so
    the seed-commit hangs in them cost every run the same share of time.
    ``warmup`` holds the ops that set-up runs once before the timer
    starts, the same for every seed so that set-up time does not depend
    on it. ``limit_s`` is the per-op time limit, far above the slowest passing
    op at the seed commit. ``tail_pct`` is the percentile reported as
    ``op_tail_ms``: the highest one with at least ten samples beyond it
    in a seed-commit run. Failures of ``defect_kinds`` ops are counted
    in ``failed`` but do not make the run incorrect (see README.md).
    """

    name: str
    rounds: list
    warmup: list
    limit_s: float
    tail_pct: float
    pass_rounds: int = 1
    defect_kinds: frozenset = frozenset()


def _first_of_each_kind(ops, skip=frozenset()):
    """The first op of every kind, known-defect kinds excepted: their ops
    may hang until the time limit."""
    seen = set(skip)
    out = []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def _typed(fn, *errors):
    def run():
        try:
            return fn()
        except errors as exc:
            return Typed(type(exc).__name__)
    return run


def _rel(err, ref):
    return abs(err) / max(1.0, abs(ref))


# --------------------------------------------------------------------------
# draws (criterion 3 and criterion 4 distributions)
# --------------------------------------------------------------------------

def draw_mixed_linear(rng):
    """Criterion 3's draw ranges, without its filter on confirmed draws."""
    while True:
        a1, a2, b1 = rng.uniform(-2, 2, 3)
        a = rng.uniform(-1.2, 1.2)
        b = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        if abs(a2) < 0.1 or abs(a) < 0.05 or abs(a * math.pi / b) > 4.0:
            continue
        b2 = math.copysign(rng.uniform(0.2, 2.0), a)
        return pwcycles.MixedLinearSpec(a1, a2, b1, b2, a, b, 0.0)


def draw_mixed_general(rng):
    """Criterion 4's mixed-general draws (y0 != 0)."""
    while True:
        a1, a2, b1, b2 = rng.uniform(-3, 3, 4)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if abs(a2) < 0.05 or abs(b) < 0.05 or y0 == 0.0:
            continue
        return pwcycles.MixedGeneralConstants(a1, a2, b1, b2, a, b, x0, y0)


def draw_antiholo_pair(rng, degree):
    """Criterion 4's piecewise anti-holomorphic draws."""
    while True:
        cu = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        cl = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        if abs(cu[degree].imag) < 0.05 or abs(cl[degree].imag) < 0.05:
            continue
        return pwcycles.PiecewiseSpec(hf.anti_holomorphic(cu), hf.anti_holomorphic(cl))


# fixed corpora are drawn from this seed, independent of the run's seed
CORPUS_SEED = 20260417
CYCLES_CORPUS_ROUNDS = 32
# a criterion-4 mixed-general draw (a1, a2, b1, b2, a, b, x0, y0) whose
# validation runs the return map to its step limit at the seed commit:
# the lower orbit is trapped by an attracting focus just below the
# switching line. About 2% of criterion 4's draws do this.
NAMED_MIXED_GENERAL_HANG = (-1.5970061260875952, 2.4242920689409377, -1.3215941750426292,
                            2.882308267113605, -0.7932669801502348, -0.9436668929858008,
                            -0.6546902318465166, -0.059432419444476636)
MIXED_GENERAL_HANG_KIND = "mixed-general-named-hang"
# the multiple-root inputs ROADMAP item 3 reports at the seed commit:
# real_roots hangs on the first, loses the root 2 of the second and
# reports four roots for the third
NAMED_MULTIPLE_ROOTS = [([1.0, 2.0, -0.5], [3, 1, 2]),
                        ([2.0, -1.0, 5.0], [2, 3, 1]),
                        ([1.0, 2.0, 3.0], [2, 3, 3])]
MULTIPLE_ROOT_CORPUS = 16


def draw_multiple_roots(rng):
    """Distinct roots on a quarter grid in [-3, 3] with multiplicities
    1..3: exact dyadic inputs, the adversarial case for Sturm isolation."""
    k = int(rng.integers(2, 5))
    rs = rng.choice(np.arange(-12, 13) / 4.0, size=k, replace=False)
    ms = rng.integers(1, 4, size=k)
    return [float(r) for r in rs], [int(m) for m in ms]


# --------------------------------------------------------------------------
# independent references
# --------------------------------------------------------------------------

def _psi_axis(coeffs):
    """Ascending coefficients of Im(integral of p) on the real axis."""
    c = np.asarray(coeffs, dtype=complex)
    return np.concatenate([[0.0], (c / np.arange(1, len(c) + 1)).imag])


def _pair_residual(q, x1, x2):
    """|c(x1, x2)| over its absolute scale, c the divided difference
    (q(x1) - q(x2)) / (x1 - x2) expanded term by term."""
    val = 0.0
    scale = 0.0
    for k in range(1, len(q)):
        terms = [x1 ** i * x2 ** (k - 1 - i) for i in range(k)]
        val += q[k] * sum(terms)
        scale += abs(q[k]) * sum(abs(t) for t in terms)
    return abs(val) / max(scale, 1e-300)


def _matching_F(k, x):
    """The mixed-general matching function, written out independently."""
    lx = -x - 2.0 * k.b2 / k.a2
    r2 = lambda u: (u - k.x0) ** 2 + k.y0 ** 2  # noqa: E731
    th = lambda u: math.atan2(-k.y0, u - k.x0)  # noqa: E731
    return 0.5 * k.b * math.log(r2(lx) / r2(x)) - k.a * (th(lx) - th(x))


def _handshake(pw, x1):
    """Relative miss of the tight return map at a confirmed x1, or None
    when the map is undefined there."""
    ret = odeint.return_map(pw, x1, TIGHT)
    return None if ret is None else _rel(ret - x1, x1)


def _check_confirmed(pw, cands, rechecks):
    """Handshake and verify re-check for every confirmed candidate."""
    worst = None
    confirmed = [c for c in cands if c.verified is CONFIRMED]
    for cand, ret in zip(confirmed, rechecks):
        if ret is None or _rel(ret - cand.x1, cand.x1) > VERIFY_TOL:
            return False, None
        miss = _handshake(pw, cand.x1)
        if miss is None or miss > HANDSHAKE_TOL:
            return False, None
        worst = miss if worst is None else max(worst, miss)
    return True, worst


def _solve_and_recheck(solve, pw):
    """One cycles-validated op: solve, then re-run the return map on each
    confirmed candidate as ``holoflow verify`` does."""
    cands = solve()
    rechecks = [odeint.return_map(pw, c.x1) for c in cands if c.verified is CONFIRMED]
    return cands, rechecks


# --------------------------------------------------------------------------
# cycles-validated
# --------------------------------------------------------------------------

def _mixed_linear_op(spec):
    pw = spec.as_piecewise()

    def solve():
        return pwcycles.solve_mixed_linear_on_sigma(spec)

    run = _typed(lambda: _solve_and_recheck(solve, pw), CenterContinuum)

    def check(out):
        if isinstance(out, Typed):
            return True, None
        cands, rechecks = out
        if len(cands) > 1:
            return False, None
        c = spec.a * math.pi / spec.b
        xs = 2.0 * spec.b2 / (spec.a2 * math.expm1(c))
        xm = 2.0 * spec.b2 / (spec.a2 * math.expm1(-c))
        mult = math.exp(spec.a * math.pi / abs(spec.b))
        for cand in cands:
            errs = (_rel(cand.x1 - max(xs, xm), xs), _rel(cand.x2 - min(xs, xm), xm),
                    abs(cand.multiplier - mult) / mult)
            if max(errs) > 1e-12:
                return False, None
        return _check_confirmed(pw, cands, rechecks)

    return Op("mixed-linear", run, check)


def _mixed_general_op(k, validate, kind=None):
    pw = k.as_piecewise()

    def solve():
        return pwcycles.solve_mixed_general(k, validate=validate)

    run = _typed((lambda: _solve_and_recheck(solve, pw)) if validate else solve,
                 CenterContinuum)

    def check(out):
        if isinstance(out, Typed):
            return True, None
        cands, rechecks = out if validate else (out, [])
        if len(cands) > 3:
            return False, None
        shift = 2.0 * k.b2 / k.a2
        for cand in cands:
            if abs(cand.x1 + cand.x2 + shift) > 1e-9 * max(1.0, abs(cand.x1), abs(cand.x2)):
                return False, None
            # one end of the pair is a bisected root of F: F changes sign
            # across it or vanishes there
            if not any(_brackets_zero(k, x) for x in (cand.x1, cand.x2)):
                return False, None
        if not validate:
            return True, None
        return _check_confirmed(pw, cands, rechecks)

    if kind is None:
        kind = "mixed-general" if validate else "mixed-general-algebra"
    return Op(kind, run, check)


def _distinct_pairs(cands):
    kept = []
    for c in cands:
        if not any(_rel(c.x1 - k.x1, k.x1) <= DUPLICATE_TOL
                   and _rel(c.x2 - k.x2, k.x2) <= DUPLICATE_TOL for k in kept):
            kept.append(c)
    return kept


def _brackets_zero(k, x):
    d = 1e-8 * max(1.0, abs(x))
    f0 = _matching_F(k, x)
    return f0 == 0.0 or _matching_F(k, x - d) * _matching_F(k, x + d) <= 0.0


def _antiholo_op(pw, validate):
    degree = max(pw.upper.p.degree, pw.lower.p.degree)
    bound = pwcycles.DEGREE_BOUNDS[degree]
    q_up = _psi_axis(pw.upper.p.coeffs)
    q_lo = _psi_axis(pw.lower.p.coeffs)

    def solve():
        return pwcycles.solve_antiholo_pair(pw, validate=validate)

    run = _typed((lambda: _solve_and_recheck(solve, pw)) if validate else solve,
                 ContinuumDetected)

    def check(out):
        if isinstance(out, Typed):
            return True, None
        cands, rechecks = out if validate else (out, [])
        worst = None
        for cand in cands:
            res = max(_pair_residual(q_up, cand.x1, cand.x2),
                      _pair_residual(q_lo, cand.x1, cand.x2))
            if res > PAIR_RESIDUAL_TOL:
                return False, None
            worst = res if worst is None else max(worst, res)
        if len(cands) > bound:
            if len(_distinct_pairs(cands)) <= bound:
                raise KnownDefect("near-duplicate pairs push the count past the bound")
            return False, None
        if not validate:
            return True, worst
        return _check_confirmed(pw, cands, rechecks)

    return Op(f"antiholo-{degree}" + ("" if validate else "-algebra"), run, check)


def cycles_validated(seed):
    """Oracle-heavy: piecewise solves with validate=True, each confirmed
    candidate re-checked by the return map.

    The systems are a fixed corpus drawn from CORPUS_SEED; the seed
    orders the rounds of every pass and the ops within each round. Op
    cost here is a two-point mixture (a sliding rejection under 1 ms or
    a 45-90 ms return map), so with about a thousand ops per run,
    systems drawn from the run's seed spread ops_per_s by about 15% from
    seed to seed (40.1 to 48.6 ops/s over five seeds at the seed
    commit). About 2% of criterion 4's mixed-general draws run the
    return map to its step limit; the corpus drew none of those, so one
    round carries NAMED_MIXED_GENERAL_HANG in place of its draw, and its
    overrun is a failed op of a known-defect kind.
    """
    rng = np.random.default_rng(seed)
    corpus_rng = np.random.default_rng((CORPUS_SEED, 1))
    corpus = []
    for i in range(CYCLES_CORPUS_ROUNDS):
        ops = [_mixed_linear_op(draw_mixed_linear(corpus_rng)) for _ in range(6)]
        k = draw_mixed_general(corpus_rng)
        ops.append(_mixed_general_op(k, True) if i else _mixed_general_op(
            pwcycles.MixedGeneralConstants(*NAMED_MIXED_GENERAL_HANG), True,
            kind=MIXED_GENERAL_HANG_KIND))
        ops += [_antiholo_op(draw_antiholo_pair(corpus_rng, d), True) for d in (2, 3)]
        corpus.append(ops)
    rounds = []
    # four orderings are built before the timer starts; a longer run
    # cycles through them
    for _ in range(4):
        for k in rng.permutation(len(corpus)):
            ops = list(corpus[k])
            rng.shuffle(ops)
            rounds.append(ops)
    defects = frozenset({MIXED_GENERAL_HANG_KIND})
    warmup = _first_of_each_kind((op for ops in corpus for op in ops), defects)
    return Workload("cycles-validated", rounds, warmup, limit_s=2.0, tail_pct=98.0,
                    pass_rounds=len(corpus), defect_kinds=defects)


# --------------------------------------------------------------------------
# algebra-sweep
# --------------------------------------------------------------------------

def _load_golden():
    with open(REFERENCE_DIR / "golden_cubics.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    return [(r["label"], complex(*r["a1"]), complex(*r["a0"]), tuple(r["regions"]))
            for r in rows]


def _golden_cubic_op(row):
    label, a1, a0, regions = row

    def check(out):
        got = (out.center_regions, out.sepal_regions, out.alpha_omega_regions)
        return out.config_label == label and got == regions, None

    return Op("classify-cubic-golden", lambda: classify.classify_cubic(a1, a0), check)


def _root_residual(coeffs, z):
    """|p(z)| over the absolute scale of its terms."""
    c = np.asarray(coeffs, dtype=complex)
    powers = z ** np.arange(len(c))
    return abs(np.sum(c * powers)) / max(float(np.sum(np.abs(c * powers))), 1e-300)


def _random_cubic_op(rng):
    a1 = complex(*rng.normal(size=2))
    a0 = complex(*rng.normal(size=2))
    coeffs = [a0, a1, 0.0, 1.0]

    def check(out):
        if isinstance(out, Typed):
            return True, None
        if sum(e.multiplicity for e in out.equilibria) != 3:
            return False, None
        worst = 0.0
        for e in out.equilibria:
            worst = max(worst, _root_residual(coeffs, e.location))
            if e.multiplicity == 1:
                lam = 3.0 * e.location ** 2 + a1
                worst = max(worst, abs(e.lam - lam) / max(1.0, abs(lam)))
        return worst <= 1e-9, worst

    run = _typed(lambda: classify.classify_cubic(a1, a0), UnclassifiedConfiguration)
    return Op("classify-cubic-random", run, check)


def _classify_equilibria_op(rng):
    deg = int(rng.integers(2, 5))
    coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    p = hf.CPoly(coeffs)

    def check(out):
        if isinstance(out, Typed):
            return True, None
        if sum(e.multiplicity for e in out) != deg:
            return False, None
        worst = max(_root_residual(coeffs, e.location) for e in out)
        return worst <= 1e-9, worst

    run = _typed(lambda: classify.classify_equilibria(p),
                 UnclassifiedConfiguration, NonConvergence)
    return Op("classify-equilibria", run, check)


def _holo_potential_op(rng):
    deg = int(rng.integers(2, 5))
    coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    spec = hf.holomorphic(coeffs)
    probes = [complex(*rng.uniform(-2, 2, 2)) for _ in range(3)]

    def check(rep):
        if isinstance(rep, Typed):
            return True, None
        # d/dz of the partial-fraction primitive must equal 1/p
        worst = 0.0
        for z in probes:
            want = 1.0 / np.sum(coeffs * z ** np.arange(len(coeffs)))
            got = sum(r / (z - pole) for r, pole in rep.log_terms)
            got += sum(-n * c / (z - pole) ** (n + 1) for c, pole, n in rep.rational_terms)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        return worst <= 1e-8, worst

    run = _typed(lambda: potential.build_potential(spec), NonConvergence)
    return Op("build-potential-holo", run, check)


def _multiple_root_op(rs, ms, complex_roots):
    """The multiple-root slice: real_roots or roots on prod (x - r)^m."""
    p = hf.CPoly.from_roots(np.repeat(rs, ms))
    want = sorted(zip(rs, ms))

    def check(out):
        if isinstance(out, Typed):
            return True, None
        if complex_roots:
            got = sorted((z.real, m) for z, m in out)
            if [m for _, m in got] != [m for _, m in want]:
                return False, None
            if any(abs(z.imag) > ROOT_TOL for z, _ in out):
                return False, None
            got = [r for r, _ in got]
        else:
            got = sorted(float(r) for r in out)
        if len(got) != len(want):
            return False, None
        worst = max(_rel(g - w, w) for g, (w, _) in zip(got, want))
        return worst <= ROOT_TOL, worst

    if complex_roots:
        return Op("cpoly-roots-multiple", _typed(lambda: cpoly.roots(p), NonConvergence),
                  check)
    return Op("cpoly-real-roots-multiple", lambda: cpoly.real_roots(p), check)


MULTIPLE_ROOT_KINDS = frozenset({"cpoly-roots-multiple", "cpoly-real-roots-multiple"})


def algebra_sweep(seed):
    """Integrator-free: validate=False solves, cubic classification,
    holomorphic potentials and the multiple-root slice of cpoly.

    The slice is one op in every other round (about 1.4% of ops). Its
    polynomials are a fixed corpus, the named seed-commit failures plus
    draws from CORPUS_SEED, each run through real_roots and roots once
    per pass in seed order: a hang costs the per-op limit, and a fixed
    corpus makes every run pay the same number of them.
    """
    rng = np.random.default_rng(seed)
    corpus_rng = np.random.default_rng((CORPUS_SEED, 2))
    corpus = NAMED_MULTIPLE_ROOTS + [draw_multiple_roots(corpus_rng) for _ in
                                     range(MULTIPLE_ROOT_CORPUS - len(NAMED_MULTIPLE_ROOTS))]
    golden = _load_golden()
    start = int(rng.integers(len(golden)))
    rounds = []
    # two passes of inputs are built before the timer starts; a run
    # cycles through them
    for _ in range(2):
        slice_ops = [_multiple_root_op(*corpus[k], complex_roots=c)
                     for c in (False, True) for k in rng.permutation(len(corpus))]
        for i in range(2 * len(slice_ops)):
            ops = [_antiholo_op(draw_antiholo_pair(rng, 1), False) for _ in range(4)]
            ops += [_antiholo_op(draw_antiholo_pair(rng, 2), False) for _ in range(6)]
            ops += [_antiholo_op(draw_antiholo_pair(rng, 3), False) for _ in range(6)]
            ops += [_mixed_general_op(draw_mixed_general(rng), False) for _ in range(8)]
            ops += [_golden_cubic_op(golden[(start + 2 * len(rounds) + j) % len(golden)])
                    for j in range(2)]
            ops += [_random_cubic_op(rng) for _ in range(2)]
            ops += [_classify_equilibria_op(rng) for _ in range(2)]
            ops += [_holo_potential_op(rng) for _ in range(4)]
            if i % 2 == 0:
                ops.append(slice_ops[i // 2])
            rng.shuffle(ops)
            rounds.append(ops)
    warmup = _first_of_each_kind(rounds[0], MULTIPLE_ROOT_KINDS)
    return Workload("algebra-sweep", rounds, warmup, limit_s=0.25, tail_pct=99.0,
                    pass_rounds=4 * len(corpus), defect_kinds=MULTIPLE_ROOT_KINDS)


# --------------------------------------------------------------------------
# explore-cli
# --------------------------------------------------------------------------

def run_cli(argv):
    """holoflow.cli.main in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            code = exc.code
    return code, buf.getvalue()


def read_outputs(entry, outdir):
    """What a CLI op left behind, in the form the reference stores."""
    got = {}
    for key, name in entry.get("files", {}).items():
        path = outdir / name
        if key == "svg":
            got["svg_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif key == "csv":
            got["csv"] = np.genfromtxt(path, delimiter=",", skip_header=1)
        else:
            with open(path, encoding="utf-8") as fh:
                got[key] = json.load(fh)
    return got


def _json_error(got, want, tol=CLI_REL_TOL):
    """Worst relative error of the numbers in ``got`` against ``want``,
    or None when the structure, a string or a number differs beyond its
    tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return None
        errs = [_json_error(got[k], want[k], ORACLE_REL_TOL if k in ORACLE_KEYS else tol)
                for k in want]
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return None
        errs = [_json_error(g, w, tol) for g, w in zip(got, want)]
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        return 0.0 if got == want else None
    elif isinstance(got, bool) or not isinstance(got, (int, float)):
        return None
    elif math.isnan(want) or math.isnan(got):
        return 0.0 if math.isnan(want) and math.isnan(got) else None
    else:
        err = _rel(got - want, want)
        return err if err <= tol else None
    return None if None in errs else max(errs, default=0.0)


def _stdout_fields(text):
    """``verify`` output as nested lists of tokens, ``key=value`` tokens
    split into a one-entry dict with a float value where it parses."""
    lines = []
    for line in text.splitlines():
        tokens = []
        for tok in line.split():
            key, sep, value = tok.partition("=")
            if sep:
                try:
                    value = float(value)
                except ValueError:
                    pass
                tokens.append({key: value})
            else:
                tokens.append(tok)
        lines.append(tokens)
    return lines


def compare_cli(expected, got, code, stdout):
    """Check one CLI op against its recorded reference."""
    if code != expected["exit"]:
        return False, None
    worst = 0.0
    if "stdout" in expected:
        err = _json_error(_stdout_fields(stdout), _stdout_fields(expected["stdout"]))
        if err is None:
            return False, None
        worst = err
    if "svg_sha256" in expected and got.get("svg_sha256") != expected["svg_sha256"]:
        return False, None
    if "csv" in expected:
        want, have = expected["csv"], got["csv"]
        if want.shape != have.shape or not np.array_equal(np.isnan(want), np.isnan(have)):
            return False, None
        m = ~np.isnan(want)
        err = np.abs(have[m] - want[m]) / np.maximum(1.0, np.abs(want[m]))
        worst = float(err.max()) if err.size else 0.0
        if worst > CLI_REL_TOL:
            return False, None
    if "json" in expected:
        err = _json_error(got["json"], expected["json"])
        if err is None:
            return False, None
        worst = max(worst, err)
    return True, worst


def load_explore_reference():
    with open(REFERENCE_DIR / "explore_cli.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    grids = np.load(REFERENCE_DIR / "explore_cli_grids.npz")
    for entry in ref["commands"]:
        if "csv" in entry.get("expected", {}):
            entry["expected"]["csv"] = grids[entry["expected"]["csv"]]
    return ref


def _cli_op(entry, outdir):
    argv = [a.replace("{out}", str(outdir)) for a in entry["argv"]]

    def run():
        return run_cli(argv)

    def check(out):
        code, stdout = out
        got = read_outputs(entry, outdir) if code == 0 else {}
        return compare_cli(entry["expected"], got, code, stdout)

    return Op(entry["kind"], run, check)


def _separatrix_op(entry, k):
    p = hf.CPoly([complex(*c) for c in entry["p"]])
    saddle = classify.infinity_equilibria(3)[k]
    want = entry["expected"][k]

    def check(traj):
        end = traj.end_point()
        if traj.terminal.value != want["terminal"]:
            return False, None
        ref = complex(*want["end"])
        err = abs(end - ref) / max(1.0, abs(ref))
        return err <= 1e-6, err

    return Op("separatrix", lambda: odeint.trace_separatrix(p, saddle), check)


def explore_cli(seed, outdir):
    """Render- and potential-heavy: README commands through cli.main on
    the recorded corpus, plus the separatrices of an explored cubic.

    The corpus is fixed (its outputs are recorded); the seed chooses, for
    every round, which corpus entry each command uses and the op order.
    """
    rng = np.random.default_rng(seed)
    ref = load_explore_reference()
    by_kind = {}
    for entry in ref["commands"]:
        by_kind.setdefault(entry["kind"], []).append(entry)
    # verify ops read reports recorded from the seed commit's cycles runs
    for name, report in ref["verify_inputs"].items():
        with open(outdir / name, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    orders = {kind: list(rng.permutation(len(entries))) for kind, entries in by_kind.items()}
    cubic_order = list(rng.permutation(len(ref["separatrix"])))
    per_pass = len(cubic_order)
    rounds = []
    for i in range(8 * per_pass):
        ops = [_cli_op(entries[orders[kind][i % len(entries)]], outdir)
               for kind, entries in sorted(by_kind.items())]
        # two cubics a round, so that op_p50_ms falls inside the
        # separatrix ops rather than on the gap below them
        for j in (2 * i, 2 * i + 1):
            cubic = ref["separatrix"][cubic_order[j % per_pass]]
            ops += [_separatrix_op(cubic, k) for k in range(len(cubic["expected"]))]
        rng.shuffle(ops)
        rounds.append(ops)
    warmup = [_cli_op(entries[0], outdir) for _, entries in sorted(by_kind.items())]
    warmup.append(_separatrix_op(ref["separatrix"][0], 0))
    return Workload("explore-cli", rounds, warmup, limit_s=10.0, tail_pct=95.0,
                    pass_rounds=per_pass)


def build(name, seed, outdir):
    if name == "cycles-validated":
        return cycles_validated(seed)
    if name == "algebra-sweep":
        return algebra_sweep(seed)
    if name == "explore-cli":
        return explore_cli(seed, outdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cycles-validated", "algebra-sweep", "explore-cli")
