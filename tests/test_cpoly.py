import cmath
import math
import signal
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
from holoflow import cpoly
from holoflow.cpoly import (
    BivarSym,
    CPoly,
    _sylvester_matrices,
    divided_difference,
    real_roots,
    resultant_x2,
    roots,
)
from holoflow import pwcycles
from holoflow.errors import (
    DegenerateLeadingCoefficient,
    IdenticallyZero,
    NonConvergence,
    ZeroPolynomial,
)
from holoflow.potential import (
    _series_reciprocal,
    anti_holomorphic,
    holomorphic,
    partial_fraction_primitive,
)
from test_classify import GOLDEN as GOLDEN_CUBICS

S33 = math.sqrt(33.0)

# (distinct roots, multiplicities): the three named multiple-root
# polynomials of the benchmark's algebra-sweep slice
NAMED_MULTIPLE_ROOTS = [([1.0, 2.0, -0.5], [3, 1, 2]),
                        ([2.0, -1.0, 5.0], [2, 3, 1]),
                        ([1.0, 2.0, 3.0], [2, 3, 3])]


class TestEval:
    def test_cubic_minus_z_at_two(self):
        p = CPoly([0, -1, 0, 1])
        assert p(2.0) == 6.0 + 0j

    def test_constant(self):
        p = CPoly([1.0])
        assert p(5 + 1j) == 1.0 + 0j

    @pytest.mark.parametrize("coeffs", [[], np.array([], dtype=complex)])
    def test_no_coefficients_rejected(self, coeffs):
        # CPoly([]) used to build a polynomial of degree -1 whose
        # evaluation died with an IndexError
        with pytest.raises(ValueError, match="at least one coefficient"):
            CPoly(coeffs)

    def test_cubic_minus_iz_at_i(self):
        # (i)^3 - i*(i) = -i + 1, expanded by hand
        p = CPoly([0, -1j, 0, 1])
        assert p(1j) == pytest.approx(1 - 1j)

    def test_vectorized(self):
        p = CPoly([1, 2, 3])
        zs = np.array([0.0, 1.0, 1j])
        np.testing.assert_allclose(p(zs), [1, 6, 1 + 2j - 3])


def _array_horner(p, z):
    """Horner on arrays, as CPoly.__call__ evaluated before it stopped
    converting its input; the reference for bit equality."""
    z = np.asarray(z, dtype=complex)
    acc = np.full(z.shape, p.coeffs[-1])
    for c in p.coeffs[-2::-1]:
        acc = acc * z + c
    return acc if acc.shape else complex(acc)


class TestEvalBitExact:
    @staticmethod
    def _inputs(rng):
        zc = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        return [
            complex(rng.normal(), rng.normal()),  # complex scalar
            float(rng.normal()),  # real scalar
            int(rng.integers(-3, 4)),
            np.complex128(complex(rng.normal(), rng.normal())),
            np.float64(rng.normal()),
            np.asarray(complex(rng.normal(), rng.normal())),  # 0-d
            np.asarray(rng.normal()),
            zc[0],  # 1-d complex
            rng.normal(size=17),  # 1-d real
            zc,  # 2-d complex
            rng.normal(size=(4, 5)),  # 2-d real
            zc[::2, 1::3],  # strided view
        ]

    @pytest.mark.parametrize("degree", range(7))
    def test_matches_array_horner(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(20):
            p = CPoly(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
            for z in self._inputs(rng):
                got, want = p(z), _array_horner(p, z)
                assert type(got) is type(want)
                if np.ndim(z):
                    assert isinstance(got, np.ndarray)
                    assert got.shape == np.shape(z)
                    assert got.dtype == np.complex128
                else:
                    assert type(got) is complex
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _zero_start_horner(descending, x):
    """The scalar Horner loops ``horner`` replaced, which start from
    ``0.0 * x + c_n`` (``real_roots``' float evaluator and the level
    escape's size and bound sums)."""
    v = 0.0
    for c in descending:
        v = v * x + c
    return v


def _float_part(rng):
    """Ordinary, huge, tiny and special float values."""
    u = rng.random()
    if u < 0.6:
        return float(rng.normal())
    if u < 0.8:
        return float(rng.choice([0.0, -0.0, 5e-324, 1e-300, -1e300, 1.7e308,
                                 math.inf, -math.inf, math.nan]))
    return float(rng.choice([1.0, -1.0]) * 10.0 ** rng.integers(-300, 300))


class TestHorner:
    def test_same_floats_as_zero_start_loop(self):
        # seeded draws: descending float lists of length 1-9 with a
        # nonzero leading coefficient, at finite x; every value must be
        # the zero-start loop's float to the bit (or NaN where it is NaN)
        rng = np.random.default_rng(20)
        for _ in range(20_000):
            c = [_float_part(rng) for _ in range(rng.integers(1, 10))]
            if c[0] == 0.0 or math.isnan(c[0]):
                continue
            x = _float_part(rng)
            if not math.isfinite(x):
                continue
            got, want = cpoly.horner(c, x), _zero_start_horner(c, x)
            assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))

    def test_complex_values(self):
        descending = (0.5j, 3 - 1j, 1 + 2j)
        z = 0.25 - 1.5j
        assert cpoly.horner(descending, z) == (0.5j * z + (3 - 1j)) * z + (1 + 2j)
        assert cpoly.horner((2.0,), z) == 2.0


class TestFiniteCoefficients:
    """Every CPoly holds finite coefficients: the constructor refuses the
    rest, whoever builds the polynomial."""

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.nan),
                                     complex(math.inf, 0.0), complex(-math.inf, 1.0),
                                     complex(0.0, math.inf), complex(2.0, -math.inf)])
    @pytest.mark.parametrize("make", [CPoly, holomorphic, anti_holomorphic])
    def test_constructor_refuses(self, make, bad, k):
        coeffs = [1.0, 2j, 0.5 - 1j]
        coeffs[k] = bad
        with pytest.raises(NonConvergence):
            make(coeffs)

    def test_overflowing_product_of_roots_is_refused(self):
        with pytest.raises(NonConvergence):
            CPoly.from_roots([1e200, -1e200])

    def test_overflowing_derivative_is_refused_without_warning(self):
        # 2 * 1e308 passes float range; the refusal is the only signal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence):
                CPoly([1e308, 1e308, 1e308]).derivative()

    def test_values_past_float_range_without_warning(self):
        # finite coefficients, values past float range: inf or NaN comes
        # back, scalar or array, and no numpy RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert CPoly([1, 1e308])(10.0) == complex(math.inf, 0.0)
            big = CPoly([1, 1e308])(np.array([10.0, 1.0]))
            assert big.tolist() == [complex(math.inf, 0.0), complex(1e308 + 1, 0.0)]
            nan = CPoly([0, 1e308, 1e308])(complex(10.0, 10.0))
            assert math.isnan(nan.real)
            velocity = anti_holomorphic([-1.7e308j, -1.7e308j]).velocity(0.5)
            assert velocity.imag == math.inf

    def test_roots_keep_their_floats_past_a_derivative_overflow(self):
        # the Newton polish's derivative 2e308 z + 1e308 passes float
        # range, and the roots are the parent's floats
        got = [(z.real.hex(), z.imag.hex(), m) for z, m in roots(CPoly([1e308] * 3))]
        assert got == [("-0x1.0000000000000p-1", "-0x1.bb67ae8584ca9p-1", 1),
                       ("-0x1.0000000000000p-1", "0x1.bb67ae8584ca9p-1", 1)]


class TestCalculus:
    def test_antiderivative_z_squared(self):
        q = CPoly([0, 0, 1]).antiderivative()
        np.testing.assert_allclose(q.coeffs, [0, 0, 0, 1 / 3])

    def test_derivative_inverts_antiderivative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            deg = rng.integers(0, 7)
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            p = CPoly(c)
            back = p.antiderivative().derivative()
            assert back.degree == p.degree
            np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-14)

    def test_upper_field_primitive(self):
        # primitive of (2+i)(z - 5i) equals (2+i)(z - 5i)^2 / 2 up to a constant
        p = CPoly([(2 + 1j) * (-5j), 2 + 1j])
        prim = p.antiderivative()
        expanded = CPoly((2 + 1j) / 2 * CPoly.from_roots([5j, 5j]).coeffs)
        # a constant difference only: every other coefficient is equal
        assert np.array_equal(prim.coeffs[1:], expanded.coeffs[1:])

    def test_zero_constant_term(self):
        assert CPoly([3.0, 1.0]).antiderivative().coeffs[0] == 0


class TestRoots:
    def test_three_simple(self):
        rs = roots(CPoly([0, -1, 0, 1]))
        locs = sorted((z for z, _ in rs), key=lambda z: z.real)
        np.testing.assert_allclose(locs, [-1, 0, 1], atol=1e-10)
        assert all(m == 1 for _, m in rs)

    def test_double_root(self):
        rs = roots(CPoly([2, -3, 0, 1]))  # (z-1)^2 (z+2)
        by_mult = {m: z for z, m in rs}
        assert abs(by_mult[2] - 1) < 1e-6
        assert abs(by_mult[1] + 2) < 1e-10

    def test_triple_root(self):
        rs = roots(CPoly([0, 0, 0, 1]))
        assert len(rs) == 1
        z, m = rs[0]
        assert m == 3 and abs(z) < 1e-5

    def test_expand_resolve_round_trip(self):
        rng = np.random.default_rng(5)
        tol = 1e-10
        for _ in range(25):
            n_clusters = rng.integers(1, 4)
            locs, mults = [], []
            while len(locs) < n_clusters:
                cand = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if all(abs(cand - z) > 0.5 for z in locs):
                    locs.append(cand)
                    mults.append(int(rng.integers(1, 4)))
            p = CPoly.from_roots([z for z, m in zip(locs, mults) for _ in range(m)])
            rs = roots(p)
            assert sum(m for _, m in rs) == p.degree
            for z, m in zip(locs, mults):
                match = min(rs, key=lambda t: abs(t[0] - z))
                assert match[1] == m
                assert abs(match[0] - z) <= 10 * tol ** (1.0 / m) * max(1, abs(z))

    def test_residual_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = rng.normal(size=6) + 1j * rng.normal(size=6)
            p = CPoly(c)
            pnorm = np.max(np.abs(p.coeffs))
            for z, m in roots(p):
                scale = pnorm * max(1.0, abs(z)) ** p.degree
                assert abs(p(z)) <= 1e-9 * scale

    def test_viete_centered(self):
        # monic centered polynomials have zero root sum
        rng = np.random.default_rng(3)
        for _ in range(20):
            a1 = complex(rng.normal(), rng.normal())
            a0 = complex(rng.normal(), rng.normal())
            rs = roots(CPoly([a0, a1, 0, 1]))
            total = sum(z * m for z, m in rs)
            assert abs(total) < 1e-8

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(CPoly([1.0]))

    @pytest.mark.parametrize("rs, ms", NAMED_MULTIPLE_ROOTS)
    def test_named_multiple_roots(self, rs, ms):
        got = sorted(roots(CPoly.from_roots(np.repeat(rs, ms))),
                     key=lambda t: t[0].real)
        want = sorted(zip(rs, ms))
        assert [m for _, m in got] == [m for _, m in want]
        for (z, _), (r, _) in zip(got, want):
            assert abs(z - r) <= 1e-8 * abs(r)

    @settings(max_examples=300, deadline=None)
    @given(draw=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1,
                         max_size=4, unique_by=lambda t: t[0])
           .filter(lambda d: sum(m for _, m in d) <= 9),
           log_scale=st.floats(-8.0, 8.0))
    def test_multiplicities_do_not_depend_on_scale(self, draw, log_scale):
        # distinct roots from {-3, -2.25, ..., 3}, scaled by lambda
        lam = 10.0 ** log_scale
        want = sorted((0.75 * k * lam, m) for k, m in draw)
        got = sorted((z.real, m) for z, m in roots(CPoly.from_roots(
            [r for r, m in want for _ in range(m)])))
        assert [m for _, m in got] == [m for _, m in want]

    @pytest.mark.parametrize("p, want", [
        # distinct roots below 1 stay apart (z^2 - 1e-8, z^3 - 1e-6 z)
        (CPoly([-1e-8, 0, 1]), [(-1e-4, 1), (1e-4, 1)]),
        (CPoly([0, -1e-6, 0, 1]), [(-1e-3, 1), (0.0, 1), (1e-3, 1)]),
        # and multiple ones stay together
        (CPoly([0, 0, 0, 1]), [(0.0, 3)]),
        (CPoly.from_roots([1e-6, 1e-6]), [(1e-6, 2)]),
    ])
    def test_small_roots(self, p, want):
        got = roots(p)
        assert [m for _, m in got] == [m for _, m in want]
        for (z, _), (r, _) in zip(got, want):
            assert abs(z - r) <= 1e-9 * max(abs(r), 1e-6)

    def test_cluster_means_as_recomputed(self, monkeypatch):
        # roots() with _cluster's kept means gives the floats of the loop
        # that took np.mean of both clusters for every pair, on draws
        # that merge (multiplicities up to 3) and on draws that do not
        def recomputed(points, floor):
            clusters = [[z] for z in points]
            merged = True
            while merged:
                merged = False
                for i in range(len(clusters)):
                    for j in range(i + 1, len(clusters)):
                        ci, cj = clusters[i], clusters[j]
                        zi, zj = np.mean(ci), np.mean(cj)
                        m = len(ci) + len(cj)
                        radius = cpoly.CLUSTER_TOL ** (1.0 / m) * max(floor, abs(zi), abs(zj))
                        if abs(zi - zj) <= radius:
                            clusters[i] = ci + cj
                            del clusters[j]
                            merged = True
                            break
                    if merged:
                        break
            return [(complex(np.mean(c)), len(c)) for c in clusters]

        def hexes(p):
            return [(z.real.hex(), z.imag.hex(), m) for z, m in roots(p)]

        rng = np.random.default_rng(41)
        polys = []
        for _ in range(60):
            k = int(rng.integers(1, 5))
            locs = rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k)
            polys.append(CPoly.from_roots(np.repeat(locs, rng.integers(1, 4, k))))
        for _ in range(30):
            n = int(rng.integers(2, 40))
            polys.append(CPoly(rng.normal(size=n) + 1j * rng.normal(size=n)))
        kept = [hexes(p) for p in polys]
        monkeypatch.setattr(cpoly, "_cluster", recomputed)
        assert kept == [hexes(p) for p in polys]
        assert any(m > 1 for got in kept[:60] for _, _, m in got)
        assert all(m == 1 for got in kept[60:] for _, _, m in got)

    @pytest.mark.parametrize("coeffs", [
        [1, 0, 1], [2, 0, 1], [0, 4, 0, 1], [0, 0, 1, 0, 1], [-1, 0, 1], [0, -1, 0, 1],
        [-4, 0, 0, 0, 1], [0, 1], [0, 0, 4, 0, 1],
    ])
    def test_singleton_means_drop_negative_zeros(self, coeffs):
        # np.mean([z]) adds z to a zero, so a -0.0 part of an eigenvalue
        # (see below) comes out of roots() as 0.0
        zeros = [part for z, _ in roots(CPoly(coeffs)) for part in (z.real, z.imag)
                 if part == 0.0]
        assert zeros
        assert all(math.copysign(1.0, part) > 0 for part in zeros)

    def test_eigenvalues_carry_negative_zeros(self):
        # the inputs above do reach _cluster with -0.0 parts
        signed = [math.copysign(1.0, part) < 0
                  for c in ([1, 0, 1], [2, 0, 1], [0, 4, 0, 1], [0, 0, 1, 0, 1])
                  for z in cpoly._approx_roots(CPoly(c).coeffs)
                  for part in (z.real, z.imag) if part == 0.0]
        assert any(signed)

    def test_polish_as_through_cpoly_call(self):
        # the Newton polish through _scalar_horner gives the floats of the
        # loop that evaluated q and dq through CPoly.__call__
        def through_call(p):
            with np.errstate(over="ignore", invalid="ignore"):
                points = list(cpoly._approx_roots(p.coeffs))
                floor = min(1.0, max(map(abs, points)))
                derivatives = [p]
                refined = []
                for z0, m in cpoly._cluster(points, floor):
                    while len(derivatives) <= m:
                        derivatives.append(derivatives[-1].derivative())
                    q, dq = derivatives[m - 1], derivatives[m]
                    z = z0
                    for _ in range(3):
                        dv = dq(z)
                        if dv == 0:
                            break
                        step = q(z) / dv
                        z = z - step
                        if abs(step) <= 1e-16 * (1.0 + abs(z)):
                            break
                    if abs(z - z0) < cpoly.CLUSTER_TOL ** (1.0 / m) * max(floor, abs(z0)):
                        z0 = z
                    refined.append((z0, m))
            refined.sort(key=lambda t: (t[0].real, t[0].imag))
            return refined

        def hexes(find, p):
            try:
                return [(z.real.hex(), z.imag.hex(), m) for z, m in find(p)]
            except (NonConvergence, OverflowError) as exc:
                return type(exc)

        # degrees 1-12 at scales 1e+-150, leading coefficients down to
        # 1e-300, and up to four roots of multiplicity <= 3 scaled by
        # 10**U(-8, 8)
        rng = np.random.default_rng(20261019)
        polys = []
        for _ in range(150):
            n = int(rng.integers(2, 14))
            c = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-150, 150)
            if rng.random() < 0.3:
                c[-1] = 10.0 ** -rng.uniform(0, 300)
            polys.append(CPoly(c))
        for _ in range(150):
            k = int(rng.integers(1, 5))
            locs = (rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k)) * 10.0 ** rng.uniform(-8, 8)
            polys.append(CPoly.from_roots(np.repeat(locs, rng.integers(1, 4, k))))
        got = [hexes(roots, p) for p in polys]
        assert got == [hexes(through_call, p) for p in polys]
        assert any(m > 1 for out in got[150:] if isinstance(out, list) for _, _, m in out)

    def test_failed_residual_gate_raises(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(len(a), 7.0 + 3j))
        with pytest.raises(NonConvergence):
            roots(CPoly([2, -3, 0, 1]))

    def test_eigenvalue_failure_raises(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NonConvergence):
            roots(CPoly([2, -3, 0, 1]))


# --- the root layer in its numpy form, frozen: np.roots for the
# eigenvalues, np.mean for every cluster, numpy scalars in the Taylor
# coefficients and the reciprocal series. TestRootLayerSameFloats
# compares the shipped code with it, float for float.

def _frozen_approx_roots(coeffs):
    n = len(coeffs) - 1
    c = coeffs.real if not coeffs.imag.any() else coeffs
    try:
        x = np.roots(c[::-1]).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalues failed: {exc}") from None
    scale = float(np.abs(coeffs).max()) * np.maximum(1.0, np.abs(x)) ** n
    if len(x) == n and np.all(np.abs(cpoly._horner(coeffs[-1], coeffs[-2::-1], x))
                              <= cpoly.DEFAULT_TOL * scale):
        return x
    raise NonConvergence(f"companion eigenvalues do not meet tol={cpoly.DEFAULT_TOL:g}")


def _frozen_cluster(points, floor):
    clusters = [[z] for z in points]
    means = [np.mean(c) for c in clusters]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                ci, cj = clusters[i], clusters[j]
                zi, zj = means[i], means[j]
                m = len(ci) + len(cj)
                radius = cpoly.CLUSTER_TOL ** (1.0 / m) * max(floor, abs(zi), abs(zj))
                if abs(zi - zj) <= radius:
                    clusters[i] = ci + cj
                    means[i] = np.mean(clusters[i])
                    del clusters[j], means[j]
                    merged = True
                    break
            if merged:
                break
    return [(complex(z), len(c)) for z, c in zip(means, clusters)]


def _frozen_roots(p):
    if not 1 <= p.degree <= cpoly.MAX_DEGREE:
        raise ValueError(f"roots() requires degree 1 to {cpoly.MAX_DEGREE}, got {p.degree}")
    with np.errstate(over="ignore", invalid="ignore"):
        points = list(_frozen_approx_roots(p.coeffs))
        floor = min(1.0, max(map(abs, points)))
        d, horners = p.coeffs, [cpoly._scalar_horner(p.scalar_view[0])]
        refined = []
        for z0, m in _frozen_cluster(points, floor):
            while len(horners) <= m:
                d = d[1:] * np.arange(1, len(d))
                horners.append(cpoly._scalar_horner(tuple(d[::-1].tolist())))
            q, dq = horners[m - 1], horners[m]
            z = z0
            for _ in range(3):
                dv = dq(z)
                if dv == 0:
                    break
                step = q(z) / dv
                z = z - step
                if abs(step) <= 1e-16 * (1.0 + abs(z)):
                    break
            if abs(z - z0) < cpoly.CLUSTER_TOL ** (1.0 / m) * max(floor, abs(z0)):
                z0 = z
            refined.append((z0, m))
    refined.sort(key=lambda t: (t[0].real, t[0].imag))
    return tuple(refined)


def _frozen_synthetic_division(coeffs, z0, count):
    remainders = []
    for _ in range(count):
        quotient = np.zeros(max(len(coeffs) - 1, 1), dtype=complex)
        acc = coeffs[-1]
        for i in range(len(coeffs) - 2, -1, -1):
            quotient[i] = acc
            acc = acc * z0 + coeffs[i]
        remainders.append(acc)
        coeffs = quotient
    return remainders, coeffs


def _frozen_series_reciprocal(a, order):
    b = np.zeros(order, dtype=complex)
    b[0] = 1.0 / a[0]
    for k in range(1, order):
        s = 0j
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * b[k - i]
        b[k] = -s / a[0]
    return b


def _frozen_partial_fraction_primitive(num, den):
    if den.is_zero():
        raise ZeroPolynomial("denominator is identically zero")
    if num.degree >= den.degree:
        raise ValueError("partial fractions require deg num < deg den")
    logs = []
    rats = []
    for z_j, m in _frozen_roots(den):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            q_taylor = _frozen_synthetic_division(den.coeffs, z_j, 2 * m)[0][m:]
            num_taylor = _frozen_synthetic_division(num.coeffs, z_j, m)[0]
            series = np.convolve(num_taylor, _frozen_series_reciprocal(q_taylor, m))[:m]
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
    return tuple(logs), tuple(rats)


def _hex_complex(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def _roots_key(find, p):
    """find(p) as (float.hex, float.hex, multiplicity) triples, or the
    type of the error it raises."""
    try:
        return [(z.real.hex(), z.imag.hex(), m) for z, m in find(p)]
    except (NonConvergence, ValueError) as exc:
        return type(exc)


def _hex_terms(logs, rats):
    return (_hex_complex(z for term in logs for z in term)
            + _hex_complex(z for c, pole, _ in rats for z in (c, pole))
            + [order for _, _, order in rats])


_wide_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300)))
_quarter_grid = st.builds(lambda a, b: complex(a / 4, b / 4),
                          st.integers(-12, 12), st.integers(-12, 12))
_layer_polys = st.one_of(
    # degrees 1-12, complex and real coefficients
    st.builds(CPoly, st.lists(st.builds(complex, _wide_float, _wide_float),
                              min_size=2, max_size=13)),
    st.builds(CPoly, st.lists(_wide_float, min_size=2, max_size=13)),
    # products (z - r)^m, m <= 3, of up to four points of a quarter grid,
    # times a lead
    st.builds(lambda rs, lead: CPoly(lead * CPoly.from_roots(
                  [r for r, m in rs for _ in range(m)]).coeffs),
              st.lists(st.tuples(_quarter_grid, st.integers(1, 3)), min_size=1,
                       max_size=4, unique_by=lambda t: t[0]),
              st.sampled_from([1.0, -2.5, 1j, 0.3 - 0.7j, 1e-8, 1e8])),
    # zero low-order coefficients: roots at 0 beside the eigenvalues,
    # and beside eigenvalues close enough to 0 to join their cluster,
    # where the order of the points decides the merges
    st.builds(lambda k, cs: CPoly([0.0] * k + cs), st.integers(1, 5),
              st.lists(st.one_of(_wide_float, st.builds(complex, _wide_float, _wide_float)),
                       min_size=1, max_size=8)),
    st.builds(lambda k, rs: CPoly([0.0] * k + list(CPoly.from_roots(rs + [1.0]).coeffs)),
              st.integers(1, 3),
              st.lists(st.builds(lambda s, e, u: s * 10.0 ** e * u, st.sampled_from([-1.0, 1.0]),
                                 st.floats(-6.0, -2.0), st.sampled_from([1.0, 1j])),
                       min_size=1, max_size=3)),
)


class TestRootLayerSameFloats:
    """roots, synthetic_division and partial_fraction_primitive against
    the frozen copies above, by float.hex or by the type of the error:
    the eigenvalues through np.linalg.eigvals, the singleton means in
    Python and the Taylor coefficients and series in Python complex all
    round as the numpy steps they replace."""

    @staticmethod
    def _check(p, z):
        assert _roots_key(roots, p) == _roots_key(_frozen_roots, p)
        count = p.degree + 1
        got, quotient = cpoly.synthetic_division(p.coeffs, z, count)
        with np.errstate(all="ignore"):
            want, frozen_quotient = _frozen_synthetic_division(p.coeffs, z, count)
        assert _hex_complex(got + quotient) == _hex_complex(want + list(frozen_quotient))
        try:
            rep = partial_fraction_primitive(CPoly([1.0]), p)
            got = _hex_terms(rep.log_terms, rep.rational_terms)
        except (NonConvergence, ValueError, ZeroPolynomial) as exc:
            got = type(exc)
        try:
            with np.errstate(all="ignore"):
                want = _hex_terms(*_frozen_partial_fraction_primitive(CPoly([1.0]), p))
        except (NonConvergence, ValueError, ZeroPolynomial) as exc:
            want = type(exc)
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(p=_layer_polys, z=st.builds(complex, _wide_float, _wide_float))
    @example(p=CPoly([0.0, 0.0, 0.0, 1e-320]), z=1.5 - 0.5j)
    @example(p=CPoly([1e300, 1e300, 1.0]), z=0j)
    # eigenvalues with -0.0 parts, which np.mean's sum from zero drops
    @example(p=CPoly([1, 0, 1]), z=1j)
    @example(p=CPoly([0, 4, 0, 1]), z=-0.0)
    # a root at 0 that joins a cluster of eigenvalues after them
    @example(p=CPoly([0.0, 2.684778212429625e-12, 2.6424945386452157e-08,
                      -0.00013873701095945128, -0.9998612894166707, 1.0]), z=1.0)
    def test_matches_the_frozen_layer(self, p, z):
        self._check(p, z)

    @pytest.mark.parametrize("label, a1, a0, regions", GOLDEN_CUBICS)
    def test_golden_cubics(self, label, a1, a0, regions):
        self._check(CPoly([complex(a0), complex(a1), 0.0, 1.0]), 0.5 + 0.25j)

    def test_series_reciprocal(self):
        # the reciprocal series alone, at orders past those a root of
        # multiplicity <= 3 reaches
        rng = np.random.default_rng(36)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            a = ((rng.normal(size=n) + 1j * rng.normal(size=n))
                 * 10.0 ** rng.uniform(-100, 100, n))
            order = int(rng.integers(1, 9))
            # numpy scalars into the frozen loop, Python complex (as
            # synthetic_division gives them) into the shipped one
            with np.errstate(all="ignore"):
                want = _frozen_series_reciprocal(list(a), order)
                got = _series_reciprocal(a.tolist(), order)
            assert _hex_complex(got) == _hex_complex(want)


class TestDegreeLimit:
    def test_past_the_limit_raises_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("eigenvalues computed past the degree limit")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ValueError, match=f"degree 1 to {cpoly.MAX_DEGREE}, got 201"):
            roots(CPoly([1.0] + [0.0] * cpoly.MAX_DEGREE + [1.0]))


class TestDividedDifference:
    def test_square(self):
        c = divided_difference([0.0, 0.0, 1.0])  # q = x^2
        expected = np.zeros((2, 2))
        expected[1, 0] = expected[0, 1] = 1.0
        np.testing.assert_array_equal(c.coeffs, expected)

    def test_quadratic_side_pattern(self):
        # q = c2 x + (b2/2) x^2 + (a2/3) x^3
        c2, b2, a2 = 0.7, -1.3, 2.1
        c = divided_difference([0.0, c2, b2 / 2, a2 / 3])
        assert c(0.0, 0.0) == pytest.approx(c2)
        # coefficient of x1 and of x2 is b2/2, of x1^2, x1 x2, x2^2 is a2/3
        assert c.coeffs[1, 0] == pytest.approx(b2 / 2)
        assert c.coeffs[0, 1] == pytest.approx(b2 / 2)
        assert c.coeffs[2, 0] == pytest.approx(a2 / 3)
        assert c.coeffs[1, 1] == pytest.approx(a2 / 3)
        assert c.coeffs[0, 2] == pytest.approx(a2 / 3)

    def test_quartic(self):
        # q = x^4 -> x1^3 + x1^2 x2 + x1 x2^2 + x2^3
        c = divided_difference([0.0, 0.0, 0.0, 0.0, 1.0])
        for i in range(4):
            assert c.coeffs[i, 3 - i] == 1.0
        assert np.sum(c.coeffs) == 4.0

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        q = rng.normal(size=5)
        c = divided_difference(q)
        np.testing.assert_array_equal(c.coeffs, c.coeffs.T)
        for _ in range(100):
            x1, x2 = rng.uniform(-2, 2, 2)
            assert c(x1, x2) == pytest.approx(c(x2, x1), rel=1e-12, abs=1e-12)

    def test_matches_defining_quotient(self):
        rng = np.random.default_rng(29)
        q = CPoly(rng.normal(size=5).astype(complex))
        c = divided_difference(q)
        for _ in range(50):
            x1, x2 = rng.uniform(-2, 2, 2)
            if abs(x1 - x2) < 1e-3:
                continue
            expected = (q(x1) - q(x2)).real / (x1 - x2)
            assert c(x1, x2) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def _reference_quadratic_sides():
    """The worked quadratic pair: psi restrictions on the axis."""
    a2m = (-1 + S33) / (-19 + 3 * S33)
    q_plus = [0.0, 0.5, 3 / 4, 1 / 6]          # x/2 + 3x^2/4 + x^3/6
    q_minus = [0.0, 1.0, 0.5, a2m / 3.0]
    return divided_difference(q_plus), divided_difference(q_minus)


class TestResultant:
    def test_worked_quadratic_example(self):
        cp, cm = _reference_quadratic_sides()
        r = resultant_x2(cp, cm)
        rr = real_roots(r)
        expected = sorted([0.0, (-9 + S33) / 4])
        np.testing.assert_allclose(rr, expected, atol=1e-9)

    def test_identical_sides_vanish(self):
        cp, _ = _reference_quadratic_sides()
        r = resultant_x2(cp, cp)
        scale = np.max(np.abs(cp.coeffs)) ** (2 * cp.x2_degree)
        assert np.max(np.abs(r.coeffs)) <= 1e-12 * scale

    def test_against_elimination_oracle(self):
        # Res_x2(c+, c-)(s) = lead+^(deg-) * prod over roots rho of c+(s, .)
        # of c-(s, rho); checked at sample abscissas
        rng = np.random.default_rng(41)
        for _ in range(10):
            qp = np.concatenate([[0.0], rng.uniform(-2, 2, 3)])
            qm = np.concatenate([[0.0], rng.uniform(-2, 2, 3)])
            if abs(qp[3]) < 0.1 or abs(qm[3]) < 0.1:
                continue
            cp, cm = divided_difference(qp), divided_difference(qm)
            r = resultant_x2(cp, cm)
            for s in rng.uniform(-2, 2, 5):
                ap = cp.x2_poly(s)
                am = cm.x2_poly(s)
                rho = np.roots(ap[::-1])
                cm_vals = np.polyval(am[::-1], rho)
                oracle = ap[-1] ** (len(am) - 1) * np.prod(cm_vals)
                assert complex(r(s)) == pytest.approx(oracle, rel=1e-7, abs=1e-10)

    def test_degree_two_for_quadratic_sides(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            qp = np.concatenate([[0.0], rng.uniform(-2, 2, 3)])
            qm = np.concatenate([[0.0], rng.uniform(-2, 2, 3)])
            if abs(qp[3]) < 0.1 or abs(qm[3]) < 0.1:
                continue
            r = resultant_x2(divided_difference(qp), divided_difference(qm))
            assert r.degree <= 2

    def test_vanishes_at_constructed_common_root(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            x1s, x2s = rng.uniform(-2, 2, 2)
            qp = np.concatenate([[0.0], rng.uniform(-2, 2, 3)])
            qm = np.concatenate([[0.0], rng.uniform(-2, 2, 3)])
            qp[3] = np.sign(qp[3]) * max(abs(qp[3]), 0.2)
            qm[3] = np.sign(qm[3]) * max(abs(qm[3]), 0.2)
            cp = divided_difference(qp)
            cm = divided_difference(qm)
            # the linear q-coefficient shifts c by a constant: align both
            # sides to vanish at the chosen pair
            qp[1] -= cp(x1s, x2s)
            qm[1] -= cm(x1s, x2s)
            cp = divided_difference(qp)
            cm = divided_difference(qm)
            r = resultant_x2(cp, cm)
            scale = max(1.0, float(np.max(np.abs(r.coeffs))))
            assert abs(complex(r(x1s))) <= 1e-8 * scale

    def test_degenerate_leading_coefficient(self):
        flat = BivarSym(np.array([[1.0, 0.0], [0.0, 0.0]]))
        good = _reference_quadratic_sides()[0]
        with pytest.raises(DegenerateLeadingCoefficient):
            resultant_x2(flat, good)

    @pytest.mark.parametrize("pad", [1, 5])
    def test_zero_padding_is_ignored(self, pad):
        # zero top coefficients of q (psi's, for a side whose top
        # coefficients are real) used to pad c with zero rows and
        # columns: both padded gave R = 0, one padded an extra factor of
        # the other's x2-lead, and either more sample points
        rng = np.random.default_rng(53)
        for _ in range(10):
            qp, qm = (np.concatenate([[0.0], rng.uniform(-2, 2, 3)]) for _ in range(2))
            cp, cm = divided_difference(qp), divided_difference(qm)
            assert divided_difference(np.append(qp, np.zeros(pad))) == cp
            want = resultant_x2(cp, cm)
            padded_p, padded_m = (BivarSym(np.pad(c.coeffs, (0, pad))) for c in (cp, cm))
            for got in (resultant_x2(padded_p, padded_m), resultant_x2(padded_p, cm),
                        resultant_x2(cp, padded_m)):
                assert got.degree == want.degree
                np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0.0,
                                           atol=1e-12 * np.max(np.abs(want.coeffs)))

    @pytest.mark.parametrize("degrees, refused", [((17, 33), False), ((20, 28), True)])
    def test_vandermonde_past_float_range_refused_first(self, degrees, refused, monkeypatch):
        # the divided differences have degrees 16, 32 (deg_bound 1024, the
        # powers of 1025 points in (-2, 2) stay finite) and 19, 27
        # (deg_bound 1026): past float range the solve gives NaN whatever
        # the determinants, so the stack is not built
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(cpoly, "_sylvester_matrices", built)
        rng = np.random.default_rng(59)
        cp, cm = (divided_difference(np.concatenate([[0.0], rng.uniform(1, 2, d)])) for d in degrees)
        with pytest.raises(NonConvergence if refused else Built):
            resultant_x2(cp, cm)

    def test_sample_count_refused_before_the_vandermonde_matrix(self, monkeypatch):
        # two degree-101 divided differences give 20,001 sample points,
        # whose Vandermonde matrix alone takes 3.2 GB
        def built(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(np, "vander", built)
        monkeypatch.setattr(cpoly, "_sylvester_matrices", built)
        cp = divided_difference(np.concatenate([[0.0], np.ones(101)]))
        with pytest.raises(NonConvergence, match="powers of 20001 sample points"):
            resultant_x2(cp, cp)

    def test_sample_count_rule_is_the_finiteness_scan(self, monkeypatch):
        # for n = deg_bound + 1 from 1000 to 1100 sample points,
        # resultant_x2 refuses exactly where a power of its Chebyshev
        # nodes 2 cos(pi (2k + 1) / 2n) passes float range. A 2 x 2 input
        # beside one of x1-degree k and x2-degree j (zero rows and columns
        # past j) gives deg_bound = j + k
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        vander = np.vander
        monkeypatch.setattr(np, "vander", built)
        cp = BivarSym([[1.0, 2.0], [2.0, 3.0]])
        for n in range(1000, 1101):
            xs = 2.0 * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
            with np.errstate(over="ignore"):
                finite = np.all(np.isfinite(vander(xs, n, increasing=True)))
            k = n // 2
            c = np.zeros((k + 1, k + 1))
            c[: n - k, : n - k] = 1.0
            with pytest.raises(Built if finite else NonConvergence):
                resultant_x2(cp, BivarSym(c))
            assert finite == (n <= 1025), n

    @pytest.mark.parametrize("degrees, refused", [((2, 513), True), ((35, 16), False),
                                                  ((37, 15), False)])
    def test_sylvester_stack_refused_before_it_is_built(self, degrees, refused, monkeypatch):
        # a quadratic beside a degree-513 polynomial gives divided
        # differences of x2-degrees 1 and 512: 1025 sample points are
        # allowed, but their stack of 1025 x 513 x 513 floats takes
        # 2.2 GB. x2-degrees 34 and 15 (n = 1021) and 36 and 14 (n = 1009,
        # the largest stack) come from sides solve_antiholo_pair accepts
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(cpoly, "_sylvester_matrices", built)
        rng = np.random.default_rng(61)
        cp, cm = (divided_difference(np.concatenate([[0.0], rng.uniform(1, 2, d)])) for d in degrees)
        with pytest.raises(ValueError if refused else Built):
            resultant_x2(cp, cm)

    def test_stack_limit_is_the_largest_pair_stack(self):
        # n (dp + dm)^2 over the x2-degrees of sides up to MAX_PAIR_DEGREE
        # whose n = 2 dp dm + 1 sample points pass the count refusal
        d = pwcycles.MAX_PAIR_DEGREE
        assert cpoly.MAX_SYLVESTER_ENTRIES == max(
            (2 * dp * dm + 1) * (dp + dm) ** 2 for dp in range(1, d + 1) for dm in range(1, d + 1)
            if 2 * dp * dm + 1 <= 1025)


class TestRealRoots:
    def test_worked_example_roots(self):
        cp, cm = _reference_quadratic_sides()
        rr = real_roots(resultant_x2(cp, cm))
        assert rr[0] == pytest.approx((-9 + S33) / 4, abs=1e-9)
        assert rr[1] == pytest.approx(0.0, abs=1e-9)

    def test_no_real_roots(self):
        assert len(real_roots(CPoly([1, 0, 1]))) == 0

    def test_degree_six_construct_then_solve(self):
        p = CPoly.from_roots([-3, -2, -1, 1, 2, 3])
        rr = real_roots(p)
        np.testing.assert_allclose(rr, [-3, -2, -1, 1, 2, 3], atol=1e-9)

    def test_double_real_root_found(self):
        p = CPoly.from_roots([1.0, 1.0, -2.0])
        rr = real_roots(p)
        np.testing.assert_allclose(rr, [-2.0, 1.0], atol=1e-6)

    def test_identically_zero(self):
        with pytest.raises(IdenticallyZero):
            real_roots(CPoly([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_raises(self, bad):
        # NaN used to give [] and inf IdenticallyZero
        with pytest.raises(NonConvergence):
            real_roots(CPoly([bad, 1.0, 1.0]))
        with pytest.raises(NonConvergence):
            real_roots(CPoly([1.0, 1.0, bad]))

    @pytest.mark.parametrize("c", [[-1e308, 0.0, 1e308], [1e300, -3e300, -1e308, 1e308]])
    def test_overflowing_chain_raises(self, c):
        # the real roots are +-1, and about -1.0e-4, 1.0e-4 and 1 + 2e-8
        # (tests/exact.py); the derivative passes float range, and it used
        # to trim to 0 and read as "no real roots"
        with pytest.raises(NonConvergence, match="Sturm chain"):
            real_roots(CPoly(c))

    def test_bisection_reaches_its_width_from_any_bracket(self):
        # x^2 (x^2 + 1e12): the double root 0 bisects from (-bound, bound],
        # bound about 1e12; 80 halvings used to stop at -8.27e-13
        got = real_roots(CPoly([0.0, 0.0, 1e12, 0.0, 1.0]))
        assert len(got) == 1 and abs(got[0]) <= 1e-14

    def test_negative_sturm_count_raises(self):
        # the float chain counts 4 sign changes at -bound and 5 at +bound;
        # the count -1 used to split without end and grow the isolation
        # stack without bound, so a 1 s alarm turns a hang into a failure
        p = CPoly([-1.0, -1.0, -1.0] + [-0.1015625] * 6 + [-1e-6])

        def hang(signum, frame):
            raise TimeoutError("real_roots did not end within 1 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(NonConvergence, match="Sturm count"):
                real_roots(p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# The numpy Sturm helpers and isolation loop real_roots ran before they
# moved to float lists and carried Sturm counts, frozen as the reference
# the list code must match bit for bit
def _np_polydiv(num, den):
    num = np.array(num, dtype=float)
    den = np.asarray(den, dtype=float)
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        return np.zeros(1), num
    q = np.zeros(dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        q[k] = num[dd + k] / den[dd]
        num[k : dd + k + 1] -= q[k] * den
    rem = num[:dd] if dd > 0 else np.zeros(1)
    return q, rem


def _np_trim_real(c):
    c = np.asarray(c, dtype=float)
    # the one rule added since the freeze: a member past float range is
    # refused, not trimmed against an inf or NaN scale
    if not np.all(np.isfinite(c)):
        raise NonConvergence("a Sturm chain coefficient is not finite")
    scale = np.max(np.abs(c)) if len(c) else 0.0
    if scale == 0.0:
        return np.zeros(1)
    c = np.where(np.abs(c) <= 1e-13 * scale, 0.0, c)
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _np_derivative(c):
    return c[1:] * np.arange(1, len(c))


def _np_sturm_chain(c):
    chain = [_np_trim_real(c)]
    d = chain[0]
    if len(d) > 1:
        chain.append(_np_trim_real(_np_derivative(d)))
        while len(chain[-1]) > 1:
            _, rem = _np_polydiv(chain[-2], chain[-1])
            rem = _np_trim_real(rem)
            if len(rem) == 1 and rem[0] == 0.0:
                break
            chain.append(-rem)
    return chain


def _np_root_bound(c):
    return 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))


def _np_real_roots(r):
    """real_roots with the frozen helpers, re-evaluating the Sturm count
    at both ends of every interval it splits or refines."""
    c = _np_trim_real(r.real_coeffs())
    if len(c) == 1:
        return []
    chain = [ck[::-1].tolist() for ck in _np_sturm_chain(c)]
    bound = _np_root_bound(c)
    poly = c[::-1].tolist()
    lo, hi = -bound, bound
    eps = 1e-12 * bound
    while cpoly.horner(poly, lo) == 0.0:
        lo -= eps
        eps *= 2
    out = []
    stack = [(lo, hi, cpoly._sign_changes(chain, lo) - cpoly._sign_changes(chain, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            va = cpoly._sign_changes(chain, a)
            out.append(cpoly._bisect_root(chain, a, b, va))
            continue
        mid = 0.5 * (a + b)
        while cpoly.horner(poly, mid) == 0.0:
            mid += eps
        va = cpoly._sign_changes(chain, a)
        vm = cpoly._sign_changes(chain, mid)
        vb = cpoly._sign_changes(chain, b)
        stack.append((a, mid, va - vm))
        stack.append((mid, b, vm - vb))
    return sorted(out)


def _hexes(values):
    return [float(v).hex() for v in values]


def _sturm_draws(rng):
    """Ascending float coefficients: products of up to four real roots
    of multiplicity up to 3 (degree up to 12) at scales 10**U(-290, 290);
    degree 0-12 with each coefficient at its own scale from 1e-300 to
    1e300 and a fifth of them exact zeros; and degree 2-12 within 1e12
    of each other at scales 10**U(296, 308), where a derivative or a
    chain remainder with a small leading coefficient overflows."""
    draws = []
    for _ in range(150):
        k = int(rng.integers(1, 5))
        roots = np.repeat(rng.integers(-12, 13, k) / 4.0, rng.integers(1, 4, k))
        draws.append(CPoly.from_roots(roots).coeffs.real * 10.0 ** rng.uniform(-290, 290))
    for _ in range(300):
        n = int(rng.integers(1, 14))
        c = rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, n)
        c[rng.random(n) < 0.2] = 0.0
        draws.append(c)
    for _ in range(150):
        n = int(rng.integers(3, 14))
        draws.append(rng.normal(size=n) * 10.0 ** rng.uniform(-12, 0, n)
                     * 10.0 ** rng.uniform(296, 308))
    return draws


class TestSturmSameFloats:
    """The list-based chain, root bound and derivative against the frozen
    numpy helpers, by float.hex, and real_roots' root counts against the
    frozen isolation loop."""

    def test_sturm_helpers_match_numpy(self):
        rng = np.random.default_rng(20261019)
        refused = 0
        for c in _sturm_draws(rng):
            trimmed = _np_trim_real(c)
            assert _hexes(cpoly._trim_real(c.tolist())) == _hexes(trimmed)
            try:
                with np.errstate(all="ignore"):
                    want = _np_sturm_chain(c)
            except NonConvergence:
                with pytest.raises(NonConvergence):
                    cpoly._sturm_chain(c.tolist())
                refused += 1
                continue
            got = cpoly._sturm_chain(c.tolist())
            assert [_hexes(ck) for ck in got] == [_hexes(ck) for ck in want]
            if len(trimmed) > 1:
                t = trimmed.tolist()
                with np.errstate(all="ignore"):
                    assert cpoly._root_bound(t).hex() == _np_root_bound(trimmed).hex()
                    assert _hexes(cpoly._derivative(t)) == _hexes(_np_derivative(trimmed))
                    want_q, want_r = _np_polydiv(trimmed, _np_trim_real(_np_derivative(trimmed)))
                got_q, got_r = cpoly._polydiv(t, cpoly._trim_real(cpoly._derivative(t)))
                assert (_hexes(got_q), _hexes(got_r)) == (_hexes(want_q), _hexes(want_r))
        # the sweep reaches chains that pass float range, each refused
        assert refused >= 5, refused

    @pytest.mark.parametrize("c", [
        [1e-20, math.nan, 5.0], [5.0, 1e-20, math.nan, 0.0], [math.nan, 1e-20, -0.0, 2.0],
        [1e-20, math.inf, 3.0], [-0.0, 2.0, -0.0], [0.0, -0.0], [1e-300, 3.0, -math.inf, math.nan],
    ])
    def test_trim_decides_as_numpy_max(self, c):
        # an entry that is not finite is refused, not trimmed against a
        # NaN or inf scale
        if not all(map(math.isfinite, c)):
            with pytest.raises(NonConvergence):
                cpoly._trim_real(c)
            return
        assert _hexes(cpoly._trim_real(c)) == _hexes(_np_trim_real(c))

    def test_real_roots_match_frozen_count(self):
        # the carried Sturm counts and the Newton polish find as many
        # roots as the loop that evaluated the chain at both ends of every
        # interval and bisected every root, on degree 1-12 draws with a
        # fifth exact zeros at scales 1e+-100, and on products of up to 12
        # distinct roots; where the exact reference agrees on the count,
        # each root is within 1e-12 relative (to max(1, |root|)) of the
        # exact root of the coefficients real_roots solves after its trim
        # (what the trim loses is the scale defect, ROADMAP item 14).
        # Multiple roots stay with the helper sweep: there the
        # isolation can loop without end (ROADMAP's open defect), which
        # would stop this test
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(150):
            n = int(rng.integers(2, 14))
            c = rng.normal(size=n) * 10.0 ** rng.uniform(-100, 100)
            c[rng.random(n) < 0.2] = 0.0
            c[-1] = rng.normal()
            draws.append(c)
        for _ in range(100):
            roots = rng.choice(np.arange(-12, 13) / 4.0, int(rng.integers(1, 13)), replace=False)
            draws.append(CPoly.from_roots(roots).coeffs.real * 10.0 ** rng.uniform(-100, 100))
        checked = 0
        for c in draws:
            p = CPoly(c)
            got = real_roots(p)
            assert len(got) == len(_np_real_roots(p)), c.tolist()
            want = exact.real_roots(cpoly._trim_real(c.tolist()))
            if len(want) != len(got):
                continue
            for g, w in zip(got, want):
                assert abs(Fraction(float(g)) - w) <= Fraction(1e-12) * max(1, abs(w)), c.tolist()
            checked += 1
        assert checked >= 200, checked


class TestSylvesterShape:
    def test_matrix_layout(self):
        s, = _sylvester_matrices(np.array([[1.0, 2.0, 3.0]]), np.array([[4.0, 5.0]]))
        # deg 2 and deg 1 -> 3x3
        expected = np.array([
            [3.0, 2.0, 1.0],
            [5.0, 4.0, 0.0],
            [0.0, 5.0, 4.0],
        ])
        np.testing.assert_array_equal(s, expected)


@st.composite
def _pair_divided_differences(draw):
    """divided_difference of a random psi with up to MAX_PAIR_DEGREE + 2
    coefficients (psi = Im Omega of a side of degree up to
    MAX_PAIR_DEGREE), at a random binary scale."""
    n = draw(st.integers(1, pwcycles.MAX_PAIR_DEGREE + 2))
    psi = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    scale = 2.0 ** draw(st.integers(-200, 200))
    return divided_difference([x * scale for x in psi])


# x1 points with signed zeros, subnormals and powers past float range
_X1_POINTS = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1040, -(2.0 ** -1030), 1e150, -1e150]),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False)), max_size=80)


def _x2_polys_per_point(b, xs):
    """The x2 coefficients one point at a time, as resultant_x2 and the
    pair solve computed them before the stacked product, frozen as its
    reference."""
    k = b.coeffs.shape[0]
    rows = [np.asarray(x) ** np.arange(k) @ b.coeffs for x in xs]
    return np.array(rows).reshape(len(xs), k)


class _Overrun(Exception):
    pass


def _roots_or_error(solve):
    """float.hex of each root solve() returns, or the name of its typed
    error; _Overrun past 1 s: real_roots' isolation loop has no fixed
    bound (ROADMAP item 17), and a few drawn rows never leave it."""
    def overrun(signum, frame):
        raise _Overrun

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return [x.hex() for x in solve()]
    except (IdenticallyZero, NonConvergence) as e:
        return type(e).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestStackedSameFloats:
    """The stacked x2 evaluation against the per-point loop, and the
    float-list real roots against the CPoly path, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(b=_pair_divided_differences(), xs=_X1_POINTS)
    def test_x2_polys_match_the_per_point_loop(self, b, xs):
        with np.errstate(all="ignore"):
            got = b.x2_polys(xs)
            want = _x2_polys_per_point(b, xs)
            one = [b.x2_poly(x) for x in xs[:3]]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert [r.tobytes() for r in one] == [r.tobytes() for r in want[:3]]

    @settings(max_examples=100, deadline=None)
    @given(b=_pair_divided_differences(), xs=_X1_POINTS)
    def test_float_real_roots_match_the_cpoly_path(self, b, xs):
        # on the x2 polynomials that the pair solve passes as float lists;
        # a row past float range is refused on both paths. A row on which
        # either path overruns is left out
        with np.errstate(all="ignore"):
            rows = b.x2_polys(xs[:6]).tolist()
        for row in rows:
            try:
                got = _roots_or_error(lambda: cpoly.float_real_roots(row))
                want = _roots_or_error(lambda: real_roots(CPoly(row)))
            except _Overrun:
                continue
            assert got == want


# LU determinant and solve of one Vandermonde matrix, as recorded with
# the LAPACK (OpenBLAS) build whose bits the resultant goldens pin; a
# build with other rounding gives other last bits
_LAPACK_PROBE = np.vander(np.array([0.3, -1.1, 0.7, 2.0, -0.4]), 5, increasing=True)
recorded_lapack = pytest.mark.skipif(
    np.linalg.det(_LAPACK_PROBE).hex() != "0x1.1dde079729fbfp+3"
    or [v.hex() for v in np.linalg.solve(_LAPACK_PROBE, np.arange(1.0, 6.0))] != [
        "0x1.e6e21e77663f1p+0", "-0x1.7c13ad7d70043p+2", "0x1.029b7acbf1d05p+3",
        "0x1.c2dec7b10a52ap+2", "-0x1.2ad63408ada9fp+2"],
    reason="resultant goldens were recorded with another LAPACK's rounding")


def _pair(upper, lower):
    return pwcycles.PiecewiseSpec(anti_holomorphic(upper), anti_holomorphic(lower))


# the README's antiholo pair, and draws 22 (quadratic) and 229 (cubic) of
# a default_rng(2718) stream drawn as criterion 4 draws (normal real and
# imaginary parts, |Im| of each leading coefficient at least 0.05)
GOLDEN_PAIRS = {
    "readme": _pair([1 + 0.5j, 2 + 1.5j, 3 + 0.5j], [-3 + 1j, -1 + 1j, -4 - 2.6862j]),
    "quadratic": _pair(
        [-0.5156038496963609 - 0.26512120560378016j, -0.9994442548169574 + 0.6087371538527228j,
         2.490152401152479 + 0.4376139432073824j],
        [-0.12540783198493627 - 0.04879832270761306j, -1.3930254636344346 + 2.207797922298608j,
         -2.1893915536269293 - 1.436037893496279j]),
    "cubic": _pair(
        [-1.428057329385583 - 0.2111663186707725j, 0.8322865776185968 + 0.6022390659245828j,
         0.5923477060781868 - 0.08020012133589324j, 0.12235364974301077 - 1.374601057368633j],
        [-0.4805025640035145 + 0.4670964452998182j, -1.6260942952401773 + 0.44878133803630343j,
         -1.2860948735865618 - 0.262091531810823j, -0.09901919891865933 + 0.4633513805925172j]),
}


class TestAlgebraGolden:
    """The algebra layer's outputs, pinned bit for bit (float.hex): the
    Sturm isolation with its Newton polish, the Sylvester resultant and
    the pair solve. The real roots are Python float arithmetic, so they
    do not depend on numpy's SIMD dispatch."""

    @pytest.mark.parametrize("p, expected", [
        (CPoly.from_roots([-2.0, 0.5, 3.0]),
         ["-0x1.0000000000000p+1", "0x1.0000000000000p-1", "0x1.8000000000000p+1"]),
        (CPoly.from_roots([1.0, 1.0, -2.0]), ["-0x1.0000000000010p+1", "0x1.ffffffbffffe0p-1"]),
        (CPoly.from_roots([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
         ["-0x1.8000000000000p+1", "-0x1.0000000000001p+1", "-0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000001p+1", "0x1.8000000000000p+1"]),
        (CPoly.from_roots([-2.0, -1.0, -0.5, 0.25, 1.0, 1.5, 3.0, 2 + 1j, 2 - 1j]),
         ["-0x1.0000000000000p+1", "-0x1.0000000000000p+0", "-0x1.0000000000000p-1",
          "0x1.0000000000000p-2", "0x1.ffffffffffffep-1", "0x1.8000000000005p+0",
          "0x1.7ffffffffffffp+1"]),
        (CPoly(np.array([3.0, -7.0, 0.5, 2.0, -1.0]) * 1e8),
         ["-0x1.a17719e529be1p+0", "0x1.dd835592b2944p-2"]),
        (CPoly(np.array([-1.0, 4.0, 0.5, -3.0, 0.0, 1.0, 0.25, -0.5]) * 1e-9),
         ["-0x1.3051c6447b8d9p+0", "0x1.040b4ddbaeeecp-2", "0x1.54d4f1cc2a9b3p+0"]),
    ], ids=["simple-cubic", "double-root", "degree-6", "degree-9", "scaled-up", "scaled-down"])
    def test_real_roots(self, p, expected):
        assert [x.hex() for x in real_roots(p)] == expected

    @recorded_lapack
    @pytest.mark.parametrize("name, resultant, pairs", [
        ("readme", ["0x1.3db922dfd2f1fp-18", "0x1.dae7dff3dde74p-2", "0x1.23c33a629452fp-1"],
         [("-0x1.568b5e5a236c5p-17", "-0x1.a0b074396738dp-1")]),
        ("quadratic", ["-0x1.13736eb903609p-4", "-0x1.50c3797f2b801p-5", "0x1.81586b83d35d4p-4"],
         [("0x1.177b22af7ce36p+0", "-0x1.4f3c9ea8be4bap-1")]),
        ("cubic", ["0x1.f4f71f779866cp-10", "-0x1.00cd92de3f52cp-8", "-0x1.b8a79c94cf598p-9",
                   "0x1.117a84e492e7bp-9", "0x1.59a6d0ff500a8p-11", "-0x1.019f66a65e3fep-12",
                   "0x1.30be73b8e9dcdp-15"],
         [("0x1.d4d3ca1fc5156p+0", "-0x1.f8e431e0cafbdp+0"),
          ("0x1.90ef51ae43b4bp-2", "-0x1.3f02dc1af4d3dp+0")]),
    ])
    def test_resultant_and_pairs(self, name, resultant, pairs):
        pw = GOLDEN_PAIRS[name]
        res = resultant_x2(pwcycles.crossing_pair_polynomial(pw.upper),
                           pwcycles.crossing_pair_polynomial(pw.lower))
        assert not res.coeffs.imag.any()
        assert [c.real.hex() for c in res.coeffs] == resultant
        found = pwcycles.solve_antiholo_pair(pw, validate=False)
        assert [(c.x1.hex(), c.x2.hex()) for c in found] == pairs
