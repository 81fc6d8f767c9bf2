import math

import numpy as np
import pytest

from holoflow import odeint
from holoflow.cpoly import CPoly
from holoflow.errors import AtPole, ExcludedExponent, UndefinedAtOrigin, ZeroPolynomial
from holoflow.potential import (
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
    partial_fraction_primitive,
    potential_derivative,
    rectify,
)


class TestBuildPotential:
    def test_log_for_linear_field(self):
        rep = build_potential(holomorphic([0, 1]))  # zdot = z
        assert rep.poly_part.is_zero()
        assert len(rep.log_terms) == 1
        res, pole = rep.log_terms[0]
        assert res == pytest.approx(1.0)
        assert pole == pytest.approx(0.0)
        assert rep.rational_terms == ()

    def test_residues_of_cubic(self):
        # 1/(z^3 - z) = -1/z + (1/2)/(z-1) + (1/2)/(z+1)
        rep = build_potential(holomorphic([0, -1, 0, 1]))
        terms = {round(p.real): r for r, p in rep.log_terms}
        assert terms[0] == pytest.approx(-1.0)
        assert terms[1] == pytest.approx(0.5)
        assert terms[-1] == pytest.approx(0.5)

    def test_antiholo_polynomial_potential(self):
        rep = build_potential(anti_holomorphic([0, 0, 1]))  # zdot = conj(z^2)
        np.testing.assert_allclose(rep.poly_part.coeffs, [0, 0, 0, 1 / 3])
        assert rep.log_terms == () and rep.rational_terms == ()

    def test_stream_function_of_z2(self):
        rep = build_potential(anti_holomorphic([0, 0, 1]))
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            _, psi = first_integral(rep, x, y)
            assert psi == pytest.approx(x * x * y - y ** 3 / 3, rel=1e-12, abs=1e-12)

    def test_multiple_pole(self):
        # 1/z^2 integrates to -1/z
        rep = build_potential(holomorphic([0, 0, 1]))
        assert rep.log_terms == ()
        assert len(rep.rational_terms) == 1
        coeff, pole, order = rep.rational_terms[0]
        assert coeff == pytest.approx(-1.0)
        assert pole == pytest.approx(0.0)
        assert order == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            build_potential(holomorphic([0.0]))

    def test_derivative_identity(self):
        # the potential derivative is 1/p at off-pole points
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            p = CPoly(c)
            rep = build_potential(SystemSpec(SystemKind.HOLOMORPHIC, p))
            for _ in range(10):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if min(abs(z - q) for q in rep.poles()) < 0.3:
                    continue
                assert potential_derivative(rep, z) == pytest.approx(
                    1.0 / p(z), rel=1e-8
                )

    def test_derivative_identity_antiholo(self):
        # the anti-holomorphic potential is the primitive of p itself
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            p = CPoly(c)
            rep = build_potential(SystemSpec(SystemKind.ANTI_HOLOMORPHIC, p))
            for _ in range(10):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                assert potential_derivative(rep, z) == pytest.approx(p(z), rel=1e-8)


def _scalar_reference(rep, z):
    """Per-point evaluation in plain Python complex arithmetic."""
    z = complex(z)
    for pole in rep.poles():
        if abs(z - pole) < 1e-12 * max(1.0, abs(pole)):
            raise AtPole(f"evaluation at pole {pole}")
    val = rep.poly_part(z)
    for res, pole in rep.log_terms:
        val += res * complex(np.log(z - pole))
    for coeff, pole, order in rep.rational_terms:
        val += coeff / (z - pole) ** order
    return complex(val)


class TestEvalPotential:
    def test_log_on_unit_circle(self):
        rep = build_potential(holomorphic([0, 1]))
        z = np.exp(1j * np.pi / 4)
        assert eval_potential(rep, z) == pytest.approx(1j * np.pi / 4)

    def test_polynomial_part(self):
        rep = PotentialRep(CPoly([0, 0, 0, 1 / 3]))
        z = 1 + 1j
        assert eval_potential(rep, z) == pytest.approx(z ** 3 / 3)

    def test_at_pole_raises(self):
        rep = build_potential(holomorphic([0, 1]))
        with pytest.raises(AtPole):
            eval_potential(rep, 1e-14)

    def test_array_matches_scalar_reference(self):
        # (z - 0.5)^2 (z + 1): a rational term at the double root; the
        # 9 x 9 grid puts nodes exactly on both poles
        rep = build_potential(holomorphic(CPoly.from_roots([0.5, 0.5, -1.0]).coeffs))
        assert rep.rational_terms
        xs = np.linspace(-2, 2, 9)
        z = xs[None, :] + 1j * xs[:, None]
        got = eval_potential(rep, z)
        assert got.shape == z.shape
        on_pole = np.zeros(z.shape, dtype=bool)
        for j, i in np.ndindex(z.shape):
            try:
                want = _scalar_reference(rep, z[j, i])
            except AtPole:
                on_pole[j, i] = True
                with pytest.raises(AtPole):
                    eval_potential(rep, z[j, i])
                continue
            assert abs(got[j, i] - want) <= 1e-14 * max(1.0, abs(want))
            assert eval_potential(rep, z[j, i]) == pytest.approx(want, rel=1e-14)
        assert on_pole.sum() == 2
        assert np.array_equal(np.isnan(got.real), on_pole)
        assert np.array_equal(np.isnan(got.imag), on_pole)

    def test_finite_difference_matches_reciprocal_field(self):
        p = CPoly([0, -1j, 0, 1])  # z^3 - iz
        rep = build_potential(SystemSpec(SystemKind.HOLOMORPHIC, p))
        rng = np.random.default_rng(3)
        h = 1e-6
        checked = 0
        while checked < 30:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if rep.cut_distance(z) < 0.1 or abs(z) < 0.2:
                continue
            num = (eval_potential(rep, z + h) - eval_potential(rep, z - h)) / (2 * h)
            assert num == pytest.approx(1.0 / p(z), rel=1e-4)
            checked += 1


class TestFirstIntegral:
    def test_worked_linear_example(self):
        # upper field conj((2+i)(z - 5i)): psi = -10x + 5y + 2xy + x^2/2 - y^2/2
        spec = anti_holomorphic([(2 + 1j) * (-5j), 2 + 1j])
        rep = build_potential(spec)
        rng = np.random.default_rng(9)
        for _ in range(25):
            x, y = rng.uniform(-5, 25), rng.uniform(-10, 10)
            _, psi = first_integral(rep, x, y)
            expected = -10 * x + 5 * y + 2 * x * y + x * x / 2 - y * y / 2
            assert psi == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_level_zero_axis_crossings(self):
        spec = anti_holomorphic([(2 + 1j) * (-5j), 2 + 1j])
        rep = build_potential(spec)
        assert first_integral(rep, 0.0, 0.0)[1] == pytest.approx(0.0, abs=1e-12)
        assert first_integral(rep, 20.0, 0.0)[1] == pytest.approx(0.0, abs=1e-9)

    def test_gradient_orthogonality(self):
        # five-point stencils give O(h^4) gradients; normalized dot <= 1e-10
        spec = anti_holomorphic([1 + 2j, -0.5j, 0.25 + 0.125j])
        rep = build_potential(spec)
        rng = np.random.default_rng(13)
        h = 1e-3

        def grad(which, x, y):
            def f(xx, yy):
                return first_integral(rep, xx, yy)[which]

            gx = (-f(x + 2 * h, y) + 8 * f(x + h, y) - 8 * f(x - h, y) + f(x - 2 * h, y)) / (12 * h)
            gy = (-f(x, y + 2 * h) + 8 * f(x, y + h) - 8 * f(x, y - h) + f(x, y - 2 * h)) / (12 * h)
            return np.array([gx, gy])

        for _ in range(100):
            x, y = rng.uniform(-2, 2, 2)
            gphi = grad(0, x, y)
            gpsi = grad(1, x, y)
            denom = np.linalg.norm(gphi) * np.linalg.norm(gpsi)
            if denom < 1e-6:
                continue
            assert abs(gphi @ gpsi) / denom <= 1e-10


class TestHamiltonianGradientDuality:
    def test_field_is_gradient_and_hamiltonian(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(10):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            spec = anti_holomorphic(c)
            rep = build_potential(spec)

            def phi(x, y):
                return first_integral(rep, x, y)[0]

            def psi(x, y):
                return first_integral(rep, x, y)[1]

            for _ in range(10):
                x, y = rng.uniform(-2, 2, 2)
                u, v = spec.planar(x, y)
                scale = max(1.0, abs(u), abs(v))
                gx = (phi(x + h, y) - phi(x - h, y)) / (2 * h)
                gy = (phi(x, y + h) - phi(x, y - h)) / (2 * h)
                assert abs(gx - u) / scale < 1e-6
                assert abs(gy - v) / scale < 1e-6
                hx = (psi(x, y + h) - psi(x, y - h)) / (2 * h)
                hy = -(psi(x + h, y) - psi(x - h, y)) / (2 * h)
                assert abs(hx - u) / scale < 1e-6
                assert abs(hy - v) / scale < 1e-6

    def test_antiholo_potentials_are_algebraic(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            deg = rng.integers(1, 5)
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            rep = build_potential(anti_holomorphic(c))
            assert rep.log_terms == ()
            assert rep.rational_terms == ()


class TestNormalForms:
    def test_monomial_n0_is_identity(self):
        f = normal_form_potential(0, NormalFormKind.MONOMIAL)
        rng = np.random.default_rng(31)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            if x == 0 and y == 0:
                continue
            phi, psi = f(x, y)
            assert phi == pytest.approx(x)
            assert psi == pytest.approx(y)

    def test_monomial_n2_at_unit(self):
        f = normal_form_potential(2, NormalFormKind.MONOMIAL)
        phi, psi = f(1.0, 0.0)
        assert phi == pytest.approx(-1.0)
        assert psi == pytest.approx(0.0, abs=1e-15)

    def test_monomial_matches_primitive(self):
        # Omega = z^(1-n)/(1-n) for f = z^n
        rng = np.random.default_rng(33)
        for n in (-2, -1, 0, 2, 3):
            f = normal_form_potential(n, NormalFormKind.MONOMIAL)
            for _ in range(10):
                z = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
                phi, psi = f(z.real, z.imag)
                w = z ** (1 - n) / (1 - n)
                assert phi == pytest.approx(w.real, rel=1e-12, abs=1e-12)
                assert psi == pytest.approx(w.imag, rel=1e-12, abs=1e-12)

    def test_resonant_against_partial_fractions(self):
        # f = z^2/(1+z): the potential integrates (1+z)/z^2, assembled
        # here through the partial-fraction machinery as a cross-check
        rep = partial_fraction_primitive(CPoly([1, 1]), CPoly([0, 0, 1]))
        f = normal_form_potential(2, NormalFormKind.RESONANT)
        rng = np.random.default_rng(37)
        offsets = []
        for _ in range(40):
            z = complex(rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0))
            if rep.cut_distance(z) < 0.2:
                continue
            phi, psi = f(z.real, z.imag)
            w = eval_potential(rep, z)
            offsets.append(complex(phi, psi) - w)
        assert len(offsets) > 10
        # equal up to one additive constant
        ref = offsets[0]
        for off in offsets[1:]:
            assert abs(off - ref) < 1e-9

    def test_excluded_exponent(self):
        with pytest.raises(ExcludedExponent):
            normal_form_potential(1, NormalFormKind.MONOMIAL)

    def test_undefined_at_origin(self):
        f = normal_form_potential(2, NormalFormKind.MONOMIAL)
        with pytest.raises(UndefinedAtOrigin):
            f(0.0, 0.0)


class TestRectify:
    def test_linear_flow_closed_form(self):
        rep = build_potential(holomorphic([0, 1]))  # Phi = log z
        z0 = 0.5 + 0.25j
        for t in (0.1, 0.5, 1.0):
            w = rectify(rep, z0 * np.exp(t))
            w0 = rectify(rep, z0)
            assert w - w0 == pytest.approx(t)

    def test_rectified_trajectories_are_horizontal(self):
        p = CPoly([0, -1j, 0, 1])  # z^3 - iz
        spec = SystemSpec(SystemKind.HOLOMORPHIC, p)
        rep = build_potential(spec)
        traj = odeint.integrate(spec, 0.4 + 0.2j, 1.0)
        ws = []
        for t, x, y in traj.samples:
            z = complex(x, y)
            if rep.cut_distance(z) < 0.05:
                continue
            ws.append((t, rectify(rep, z)))
        assert len(ws) > 10
        t0, w0 = ws[0]
        for t, w in ws[1:]:
            assert abs(w.imag - w0.imag) < 1e-6
            assert (w.real - w0.real) == pytest.approx(t - t0, abs=1e-6)

    def test_unit_speed(self):
        spec = SystemSpec(SystemKind.HOLOMORPHIC, CPoly([0, -1j, 0, 1]))
        rep = build_potential(spec)
        traj = odeint.integrate(spec, 0.4 + 0.2j, 0.5)
        samples = traj.samples
        mid = len(samples) // 2
        t1, x1, y1 = samples[mid]
        t2, x2, y2 = samples[mid + 1]
        w1 = rectify(rep, complex(x1, y1))
        w2 = rectify(rep, complex(x2, y2))
        assert (w2.real - w1.real) / (t2 - t1) == pytest.approx(1.0, abs=1e-6)


class TestStreamlineInvariance:
    def test_im_potential_constant_along_holomorphic_flow(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 10:
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            p = CPoly(c)
            if p.degree < 2:
                continue
            spec = SystemSpec(SystemKind.HOLOMORPHIC, p)
            rep = build_potential(spec)
            z0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if rep.cut_distance(z0) < 0.3:
                continue
            traj = odeint.integrate(spec, z0, 0.3)
            zs = traj.points
            if any(rep.cut_distance(z) < 0.15 for z in zs) or np.max(np.abs(zs)) > 50:
                continue
            psi0 = eval_potential(rep, z0).imag
            drift = max(abs(eval_potential(rep, z).imag - psi0) for z in zs)
            assert drift < 1e-6 * (1.0 + abs(psi0))
            done += 1
