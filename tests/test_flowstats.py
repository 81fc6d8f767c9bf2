import math

import numpy as np
import pytest

from holoflow import flowstats
from holoflow.cli import main
from holoflow.errors import AtPole, DegreeUnsupported, DomainViolation, FieldSingularOnCurve
from holoflow.flowstats import (
    Circle,
    ClosedFormFlow,
    FlowKind,
    ParametricCurve,
    Polygon,
    closed_form_flow,
    complex_time_invariants,
    contour_integral,
)
from holoflow.odeint import integrate
from holoflow.potential import anti_holomorphic, build_potential, holomorphic


class TestContourIntegrals:
    def test_linear_rotation_field(self):
        # f = (1+i) z on the unit circle: circulation 2pi, net flow 2pi
        result = contour_integral(lambda z: (1 + 1j) * z, Circle(0j, 1.0))
        assert result.circulation == pytest.approx(2 * math.pi, abs=1e-10)
        assert result.net_flow == pytest.approx(2 * math.pi, abs=1e-10)

    def test_entire_integrand_on_square(self):
        # f = conj(cos z): the integrand cos z is entire, so the integral
        # around the square with vertices 1, i, -1, -i vanishes
        square = Polygon((1, 1j, -1, -1j))
        result = contour_integral(lambda z: np.conj(np.cos(z)), square)
        assert result.circulation == pytest.approx(0.0, abs=1e-10)
        assert result.net_flow == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("vertices", [(1, 1j, -1, -1j), (0, 2, 2 + 1j, 1j, -1 + 0.5j)])
    def test_polygon_rule_is_reused_bit_for_bit(self, vertices):
        # the memoised Gauss-Legendre rule gives the nodes and weights of a
        # fresh leggauss call, and callers cannot write to it
        polygon = Polygon(vertices)
        per_edge = 256 // len(vertices)
        xg, wg = np.polynomial.legendre.leggauss(per_edge)
        for _ in range(2):
            z, w = polygon.nodes(256)
            ends = [(complex(a), complex(b)) for a, b in zip(vertices, vertices[1:] + vertices[:1])]
            np.testing.assert_array_equal(
                z, np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * xg for a, b in ends]))
            np.testing.assert_array_equal(
                w, np.concatenate([0.5 * (b - a) * wg for a, b in ends]))
        rule = flowstats._gauss_legendre(per_edge)
        assert rule is flowstats._gauss_legendre(per_edge)
        assert not rule[0].flags.writeable and not rule[1].flags.writeable

    def test_shifted_square_field(self):
        # f = (z-1)^2 on |z| = 1. The independent oracle (expanding
        # conj z = 1/z on the circle and applying the residue theorem)
        # gives -4*pi*i, i.e. circulation 0 and net flow -4pi. (A value
        # of -4pi for the full integral circulates in print; the
        # quadrature and the residue computation both give -4pi*i.)
        result = contour_integral(lambda z: (z - 1) ** 2, Circle(0j, 1.0))
        assert result.circulation == pytest.approx(0.0, abs=1e-10)
        assert result.net_flow == pytest.approx(-4 * math.pi, abs=1e-10)

    def test_conjugate_pole_field(self):
        # f = k/(conj z - conj z0): conj f = conj(k)/(z - z0), so the
        # integral is 2*pi*i*conj(k) = -2*pi*b + 2*pi*a*i for k = a - b*i
        # (the printed value 2*pi*b + 2*pi*a*i has the sign of b flipped;
        # the residue oracle is authoritative here)
        a, b = 2.0, 3.0
        k = a - b * 1j
        z0 = 0.3 + 0.2j
        result = contour_integral(
            lambda z: k / (np.conj(z) - np.conj(z0)), Circle(z0, 0.8)
        )
        expected = 2j * math.pi * np.conj(k)
        assert result.circulation == pytest.approx(expected.real, abs=1e-8)
        assert result.net_flow == pytest.approx(expected.imag, abs=1e-8)
        assert result.circulation == pytest.approx(-2 * math.pi * b, abs=1e-8)
        assert result.net_flow == pytest.approx(2 * math.pi * a, abs=1e-8)

    def test_linear_field_epsilon_circle(self):
        # f = (a+ib) z on |z| = eps: the integral is 2*pi*eps^2*(b + ai);
        # the attraction/rotation signs are read from a and b
        a, b = -0.7, 1.3
        eps = 0.5
        result = contour_integral(lambda z: complex(a, b) * z, Circle(0j, eps))
        assert result.circulation == pytest.approx(2 * math.pi * eps ** 2 * b, abs=1e-10)
        assert result.net_flow == pytest.approx(2 * math.pi * eps ** 2 * a, abs=1e-10)

    def test_node_doubling_convergence(self):
        for field, curve in [
            (lambda z: (1 + 1j) * z, Circle(0j, 1.0)),
            (lambda z: np.conj(np.cos(z)), Polygon((1, 1j, -1, -1j))),
        ]:
            r1 = contour_integral(field, curve, n_nodes=2048).as_complex()
            r2 = contour_integral(field, curve, n_nodes=4096).as_complex()
            assert abs(r1 - r2) < 1e-10

    def test_system_spec_field(self):
        result = contour_integral(holomorphic([0, 1 + 1j]), Circle(0j, 1.0))
        assert result.as_complex() == pytest.approx(2 * math.pi * (1 + 1j))

    def test_singular_field_raises(self):
        with pytest.raises(FieldSingularOnCurve):
            contour_integral(lambda z: 1.0 / (z - 1.0), Circle(0j, 1.0))

    @pytest.mark.parametrize("n_nodes", [0, -4])
    def test_node_count_below_one_rejected(self, n_nodes):
        with pytest.raises(ValueError):
            contour_integral(lambda z: (1 + 1j) * z, Circle(0j, 1.0), n_nodes=n_nodes)

    def test_node_count_above_the_limit_rejected(self):
        # the CLI has no node count; library callers keep MAX_NODES
        with pytest.raises(ValueError, match=f"between 1 and {flowstats.MAX_NODES}"):
            contour_integral(lambda z: (1 + 1j) * z, Circle(0j, 1.0),
                             n_nodes=flowstats.MAX_NODES + 1)

    def test_parametric_curve(self):
        curve = ParametricCurve(
            lambda t: np.exp(2j * np.pi * t),
            lambda t: 2j * np.pi * np.exp(2j * np.pi * t),
        )
        result = contour_integral(lambda z: (1 + 1j) * z, curve)
        assert result.as_complex() == pytest.approx(2 * math.pi * (1 + 1j))

    def test_clockwise_orientation(self):
        result = contour_integral(lambda z: (1 + 1j) * z, Circle(0j, 1.0, orientation=-1))
        assert result.as_complex() == pytest.approx(-2 * math.pi * (1 + 1j))

    @pytest.mark.parametrize("args, kwargs, match", [
        ((0j, -1.0), {}, "radius"),
        ((0j, 0.0), {}, "radius"),
        ((0j, math.inf), {}, "radius"),
        ((0j, math.nan), {}, "radius"),
        ((complex(math.nan, 0.0), 1.0), {}, "center"),
        ((complex(0.0, math.inf), 1.0), {}, "center"),
        ((0j, 1.0), {"orientation": 0}, "orientation"),
        ((0j, 1.0), {"orientation": 2}, "orientation"),
    ])
    def test_degenerate_circle_rejected(self, args, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Circle(*args, **kwargs)

    @pytest.mark.parametrize("vertices, match", [
        ((), "3 vertices"),
        ((1j,), "3 vertices"),
        ((0, 1), "3 vertices"),
        ((0, 1, complex(math.nan, 0.0)), "finite"),
        ((0, 1, complex(1.0, math.inf), 1j), "finite"),
    ])
    def test_degenerate_polygon_rejected(self, vertices, match):
        with pytest.raises(ValueError, match=match):
            Polygon(vertices)


def _side(make, degree, seed):
    rng = np.random.default_rng(seed)
    return make(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))


class TestExactDegree:
    """A polynomial side on a circle or polygon is integrated exactly up
    to ``exact_degree``; past it the rule aliases, and contour_integral
    raises DegreeUnsupported instead of returning the aliased value."""

    CIRCLE = Circle(0.3 - 0.2j, 1.3)

    @pytest.mark.parametrize("make", [holomorphic, anti_holomorphic])
    def test_circle_limit_is_sharp(self, make):
        kind = make([1.0]).kind
        for n in range(1, 9):
            limit = flowstats.exact_degree(kind, self.CIRCLE, n)
            assert limit == ((n if n >= 2 else -1) if make is holomorphic else n - 2)
            for degree in range(12):
                spec = _side(make, degree, 100 * n + degree)
                exact = contour_integral(spec.velocity, self.CIRCLE, 4096).as_complex()
                unchecked = contour_integral(spec.velocity, self.CIRCLE, n).as_complex()
                if degree <= limit:
                    assert contour_integral(spec, self.CIRCLE, n).as_complex() == unchecked
                    assert unchecked == pytest.approx(exact, abs=1e-12 * 1.3 ** 12)
                else:
                    with pytest.raises(DegreeUnsupported):
                        contour_integral(spec, self.CIRCLE, n)
                    assert abs(unchecked - exact) > 1e-3

    @pytest.mark.parametrize("argv", [
        ["--holo", ",".join(["0"] * (flowstats.DEFAULT_NODES + 1) + ["1"])],
        ["--antiholo", ",".join(["0"] * (flowstats.DEFAULT_NODES - 1) + ["1"])],
    ])
    def test_aliased_cli_call_is_a_solver_error(self, capsys, argv):
        # the CLI's rule on a circle is exact up to degree DEFAULT_NODES
        # (holomorphic) and DEFAULT_NODES - 2 (anti-holomorphic); one
        # degree more would alias
        assert main(["flowstats", "--circle", "0,0,1"] + argv) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("solver error: ")

    @pytest.mark.parametrize("make", [holomorphic, anti_holomorphic])
    @pytest.mark.parametrize("n_nodes", [6, 48, 300])
    def test_polygon_limit(self, make, n_nodes):
        triangle = Polygon((0.8, -0.4 + 0.6j, -0.5 - 0.5j))
        per_edge = max(n_nodes // 3, 16)
        limit = flowstats.exact_degree(make([1.0]).kind, triangle, n_nodes)
        assert limit == 2 * per_edge - 1
        spec = _side(make, limit, limit)
        exact = contour_integral(spec.velocity, triangle, 3 * 400).as_complex()
        value = contour_integral(spec, triangle, n_nodes).as_complex()
        assert value == pytest.approx(exact, abs=1e-12)
        with pytest.raises(DegreeUnsupported):
            contour_integral(_side(make, limit + 1, 0), triangle, n_nodes)

    def test_parametric_curve_has_no_limit(self):
        curve = ParametricCurve(lambda t: np.exp(2j * np.pi * t),
                                lambda t: 2j * np.pi * np.exp(2j * np.pi * t))
        assert flowstats.exact_degree(holomorphic([1.0]).kind, curve, 2) is None
        contour_integral(holomorphic([0, 0, 0, 1]), curve, 2)


class TestClosedFormFlows:
    def test_constant(self):
        flow = ClosedFormFlow(FlowKind.CONSTANT)
        assert closed_form_flow(flow, 1 + 2j, 3 + 4j) == pytest.approx(4 + 6j)

    def test_linear_half_turn(self):
        flow = ClosedFormFlow(FlowKind.LINEAR)
        assert closed_form_flow(flow, 1.0, 1j * math.pi) == pytest.approx(-1.0)

    def test_bernoulli_initial_condition(self):
        flow = ClosedFormFlow(FlowKind.BERNOULLI, n=2, alpha=1.0, beta=1.0)
        assert closed_form_flow(flow, 2.0, 0.0) == pytest.approx(2.0)

    def test_quadratic_blowup(self):
        flow = ClosedFormFlow(FlowKind.QUADRATIC)
        with pytest.raises(DomainViolation):
            closed_form_flow(flow, 1.0, 1.0)

    def test_reciprocal_branch_tracking(self):
        # follow z^2/2 = T + z0^2/2 along a path that crosses the
        # principal branch cut of the square root
        flow = ClosedFormFlow(FlowKind.RECIPROCAL)
        z0 = -1.0 + 0.2j
        T = -0.8
        z = closed_form_flow(flow, z0, T)
        assert z ** 2 == pytest.approx(z0 ** 2 + 2 * T)
        # continuity: the result stays near the initial branch
        assert abs(z - z0) < abs(z + z0)

    @pytest.mark.parametrize("kind,make_field", [
        (FlowKind.CONSTANT, lambda f: (lambda z: np.ones_like(z))),
        (FlowKind.LINEAR, lambda f: (lambda z: z)),
        (FlowKind.QUADRATIC, lambda f: (lambda z: z * z)),
        (FlowKind.RECIPROCAL, lambda f: (lambda z: 1.0 / z)),
    ])
    def test_flows_match_integrator(self, kind, make_field):
        rng = np.random.default_rng(hash(kind.value) % 2 ** 32)
        flow = ClosedFormFlow(kind)
        field = flow.field()
        checked = 0
        while checked < 8:
            z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z0) < 0.3:
                continue
            t_end = 0.4
            try:
                expected = closed_form_flow(flow, z0, t_end)
            except DomainViolation:
                continue
            if abs(expected) > 20:
                continue
            traj = integrate(field, z0, t_end)
            assert abs(traj.end_point() - expected) < 1e-6
            checked += 1

    def test_bernoulli_matches_integrator(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 12:
            n = int(rng.integers(2, 5))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            z0 = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.8, 0.8))
            if abs(alpha) < 0.2 or abs(beta) < 0.2:
                continue
            flow = ClosedFormFlow(FlowKind.BERNOULLI, n=n, alpha=alpha, beta=beta)
            try:
                expected = closed_form_flow(flow, z0, 0.5)
            except DomainViolation:
                continue
            if abs(expected) > 10:
                continue
            traj = integrate(flow.field(), z0, 0.5)
            assert abs(traj.end_point() - expected) < 1e-6
            checked += 1

    def test_flow_satisfies_ode_complex_time(self):
        # central differences in the real and imaginary time directions:
        # dz/dt = f(z), dz/ds = i f(z)
        h = 1e-6
        cases = [
            (ClosedFormFlow(FlowKind.LINEAR), lambda z: z),
            (ClosedFormFlow(FlowKind.QUADRATIC), lambda z: z * z),
            (ClosedFormFlow(FlowKind.BERNOULLI, n=3, alpha=1 - 0.5j, beta=0.7),
             lambda z: 0.7 * z ** 3 - (1 - 0.5j) * z),
        ]
        for flow, f in cases:
            z0 = 0.8 + 0.3j
            T = 0.2 + 0.1j
            z = closed_form_flow(flow, z0, T)
            dt = (closed_form_flow(flow, z0, T + h) - closed_form_flow(flow, z0, T - h)) / (2 * h)
            ds = (closed_form_flow(flow, z0, T + 1j * h) - closed_form_flow(flow, z0, T - 1j * h)) / (2 * h)
            assert abs(dt - f(z)) < 1e-6 * max(1.0, abs(f(z)))
            assert abs(ds - 1j * f(z)) < 1e-6 * max(1.0, abs(f(z)))


class TestComplexTimeInvariants:
    def test_linear_field(self):
        spec = holomorphic([0, 1])
        rep = build_potential(spec)
        psi_drift, phi_drift = complex_time_invariants(spec, rep, 1.0, 1.0)
        assert psi_drift < 1e-6
        assert phi_drift < 1e-6

    def test_quadratic_field(self):
        spec = holomorphic([0, 0, 1])
        rep = build_potential(spec)
        psi_drift, phi_drift = complex_time_invariants(spec, rep, 1 + 1j, 0.3)
        assert psi_drift < 1e-6
        assert phi_drift < 1e-6

    def test_constant_field(self):
        # f = 1: psi = y constant along real time, phi = x along imaginary
        spec = holomorphic([1])
        rep = build_potential(spec)
        psi_drift, phi_drift = complex_time_invariants(spec, rep, 0.5 + 0.5j, 2.0)
        assert psi_drift < 1e-9
        assert phi_drift < 1e-9

    def test_trajectory_through_pole_raises(self):
        # zdot = 1 carries 0 to 1 in unit time, onto the pole of the
        # potential of zdot = z - 1
        spec = holomorphic([1])
        rep = build_potential(holomorphic([-1, 1]))
        with pytest.raises(AtPole):
            complex_time_invariants(spec, rep, 0j, 1.0)
