"""Complex and real polynomial arithmetic.

Dense univariate polynomials (ascending coefficients), repeated
division by z - z0 (Horner's synthetic division, whose successive
remainders are the Taylor coefficients at z0), roots as
companion-matrix eigenvalues with scale-free multiplicity clustering,
Sturm-sequence real-root isolation, symmetric divided-difference
polynomials in two variables, and Sylvester resultants eliminating one
of the two variables.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    IdenticallyZero,
    NonConvergence,
)

DEFAULT_TOL = 1e-10
CLUSTER_TOL = 1e-6
REAL_TOL = 1e-12


class CPoly:
    """Univariate polynomial with complex coefficients, ascending order.

    Trailing (highest-degree) coefficients that are exactly zero are
    trimmed so that ``degree == len(coeffs) - 1`` and the leading
    coefficient of a nonzero polynomial is nonzero. An empty coefficient
    list raises ValueError: the zero polynomial is ``CPoly([0])``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        n = len(c)
        if n == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        while n > 1 and c[n - 1] == 0:
            n -= 1
        c = c[:n].copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("CPoly is immutable")

    @classmethod
    def from_roots(cls, roots):
        """Expand the monic prod (z - r) over the roots, with repetition."""
        c = np.array([1 + 0j])
        for r in roots:
            c = np.convolve(c, np.array([-complex(r), 1.0]))
        return cls(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays.

        Returns a complex for scalar or 0-d input, an array otherwise.
        The products go through the ``np.multiply`` ufunc, whose complex
        loop may fuse multiply-add (FMA) where plain Python complex
        arithmetic does not; the integrator oracle's results are pinned
        to this arithmetic bit for bit. The loop is ``_horner``, the
        reference that ``_scalar_horner``, the oracle's per-step field,
        matches bit for bit.
        """
        coeffs = self.coeffs
        if len(coeffs) == 1:
            acc = np.full(np.shape(z), coeffs[0])
        else:
            acc = _horner(coeffs[-1], coeffs[-2::-1], z)
        return acc if acc.shape else complex(acc)

    def derivative(self):
        if self.degree == 0:
            return CPoly([0.0])
        k = np.arange(1, self.degree + 1)
        return CPoly(self.coeffs[1:] * k)

    def antiderivative(self):
        """Term-by-term primitive with zero constant term."""
        k = np.arange(1, self.degree + 2)
        return CPoly(np.concatenate([[0.0], self.coeffs / k]))

    def real_coeffs(self):
        """Coefficients as floats; raises if any imaginary part exceeds
        REAL_TOL relative to the largest coefficient (or to 1)."""
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        if np.max(np.abs(self.coeffs.imag)) > REAL_TOL * scale:
            raise ValueError("polynomial has non-real coefficients")
        return self.coeffs.real.copy()

    def __eq__(self, other):
        return isinstance(other, CPoly) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        return f"CPoly({list(self.coeffs)})"


def _horner(top, rest, z):
    """The reference ufunc Horner loop of ``CPoly.__call__``: top z^n +
    ... from the leading coefficient top and the others in descending
    order. Each product is ``np.multiply``, not ``*``: the ufunc's
    complex loop may fuse multiply-add, and the oracle's bits are
    pinned to it. Each sum is a numpy complex add."""
    acc = top
    for c in rest:
        acc = np.multiply(acc, z) + c
    return acc


def _scalar_horner(coeffs):
    """z -> the complex p(z) for a complex scalar z, where coeffs are
    p's ascending coefficients: the float ``CPoly.__call__`` gives, bit
    for bit, at a fraction of its per-call cost.

    It allocates three 0-d complex arrays once, the accumulator, z and
    the product, and runs each product as ``np.multiply(acc, z,
    out=out)``, the same complex loop as ``_horner``'s (the first takes
    the 0-d leading coefficient as acc). ``out`` never aliases an
    input: an in-place product takes another loop of the ufunc, which
    rounds differently. Each ``+ c`` is a Python complex add on
    ``out.item()``; addition is exactly rounded part by part, so it is
    the float numpy's add gives. The buffers belong to the returned
    function, so two functions, even of one polynomial, may be called
    interleaved; one function is not reentrant across threads."""
    if len(coeffs) == 1:
        value = complex(coeffs[0])
        return lambda z: value
    top = np.array(coeffs[-1])
    first, *tail = (complex(c) for c in coeffs[-2::-1])
    acc, zbuf, out = (np.zeros((), complex) for _ in range(3))
    multiply, item = np.multiply, out.item

    def horner(z):
        zbuf[()] = z
        multiply(top, zbuf, out=out)
        v = item() + first
        for c in tail:
            acc[()] = v
            multiply(acc, zbuf, out=out)
            v = item() + c
        return v
    return horner


def _approx_roots(coeffs):
    """All roots of the ascending coefficients as companion-matrix
    eigenvalues (LAPACK's real path for real coefficients), accepted
    only if every scaled residual meets DEFAULT_TOL."""
    n = len(coeffs) - 1
    c = coeffs.real if not coeffs.imag.any() else coeffs
    try:
        x = np.roots(c[::-1]).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalues failed: {exc}") from None
    scale = float(np.max(np.abs(coeffs))) * np.maximum(1.0, np.abs(x)) ** n
    if len(x) == n and np.all(np.abs(CPoly(coeffs)(x)) <= DEFAULT_TOL * scale):
        return x
    raise NonConvergence(f"companion eigenvalues do not meet tol={DEFAULT_TOL:g}")


def _cluster(points, floor):
    """Greedy merge of approximate roots into multiplicity clusters.

    Two clusters merge when their centers lie within
    CLUSTER_TOL**(1/m) * max(floor, |center|) of each other, m being the
    combined size: multiple roots of multiplicity m are resolved by the
    eigenvalue solve only to a radius on that order.
    """
    clusters = [[z] for z in points]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                ci, cj = clusters[i], clusters[j]
                zi = np.mean(ci)
                zj = np.mean(cj)
                m = len(ci) + len(cj)
                radius = CLUSTER_TOL ** (1.0 / m) * max(floor, abs(zi), abs(zj))
                if abs(zi - zj) <= radius:
                    clusters[i] = ci + cj
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def roots(p: CPoly) -> tuple:
    """All complex roots of p as (location, multiplicity) pairs, sorted
    by real then imaginary part; the multiplicities sum to the degree.

    Clustering and the polish acceptance are relative to
    max(rho, |z|) with rho = min(1, max |z_i|) over the eigenvalues, so
    distinct roots below 1 are not merged for being small. Raises
    NonConvergence if the eigenvalue solve fails or its roots miss the
    residual gate.
    """
    if p.degree < 1:
        raise ValueError("roots() requires degree >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        points = list(_approx_roots(p.coeffs))
        floor = min(1.0, max(map(abs, points)))
        derivatives = [p]
        refined = []
        for z0, m in _cluster(points, floor):
            # an m-fold root of p is a simple root of the (m-1)-th
            # derivative q: polish the cluster mean with Newton on q
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
            if abs(z - z0) < CLUSTER_TOL ** (1.0 / m) * max(floor, abs(z0)):
                z0 = z
            refined.append((z0, m))
    refined.sort(key=lambda t: (t[0].real, t[0].imag))
    return tuple(refined)


def synthetic_division(coeffs, z0, count):
    """Divide the polynomial p with ascending coefficients coeffs by
    z - z0, count times over, by Horner's synthetic division (Knuth,
    TAOCP vol. 2, 4.6.4). Returns the count remainders, which are the
    first count Taylor coefficients of p at z0 in ascending order, and
    the last quotient, p // (z - z0)**count; a constant's quotient is
    [0]. With count = 1 the remainder is p(z0)."""
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


# --------------------------------------------------------------------------
# real-root isolation (Sturm sequences)
# --------------------------------------------------------------------------

def _polydiv(num, den):
    """Quotient/remainder for ascending float coefficient arrays."""
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


def _trim_real(c):
    c = np.asarray(c, dtype=float)
    scale = np.max(np.abs(c)) if len(c) else 0.0
    if scale == 0.0:
        return np.zeros(1)
    c = np.where(np.abs(c) <= 1e-13 * scale, 0.0, c)
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _sturm_chain(c):
    """Canonical Sturm chain; terminates at the (approximate) gcd."""
    chain = [_trim_real(c)]
    d = chain[0]
    if len(d) > 1:
        deriv = d[1:] * np.arange(1, len(d))
        chain.append(_trim_real(deriv))
        while len(chain[-1]) > 1:
            _, rem = _polydiv(chain[-2], chain[-1])
            rem = _trim_real(rem)
            if len(rem) == 1 and rem[0] == 0.0:
                break
            chain.append(-rem)
    return chain


def _sign_changes(chain, x):
    """Sign changes of the Sturm chain, descending float lists, at x.
    The hottest loop of real_roots: it runs _eval_real's Horner loop
    inline, which saves a call per chain member."""
    prev = 0
    count = 0
    for c in chain:
        v = 0.0
        for ck in c:
            v = v * x + ck
        s = 0 if v == 0.0 else (1 if v > 0 else -1)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def real_roots(r: CPoly):
    """All distinct real roots of a real-coefficient polynomial, sorted.

    Counting uses a Sturm sequence (exact distinct-root counts even in
    the presence of multiple roots), then each isolated root is refined
    by count-preserving bisection and Newton polish, which stops at
    |r(x)| <= DEFAULT_TOL. The chain, the polynomial and its derivative
    are turned into descending Python float lists once per call, and
    every evaluation runs Horner on those lists: the same IEEE double
    operations, in the same order, as on the arrays, so no root moves.
    Raises IdenticallyZero for the zero polynomial and NonConvergence
    for a coefficient that is not finite.
    """
    if not all(map(cmath.isfinite, r.coeffs.tolist())):
        raise NonConvergence("real_roots needs finite coefficients")
    c = _trim_real(r.real_coeffs())
    if len(c) == 1:
        if c[0] == 0.0:
            raise IdenticallyZero("zero polynomial has a continuum of roots")
        return np.array([])
    chain = [ck[::-1].tolist() for ck in _sturm_chain(c)]
    lead = c[-1]
    bound = 1.0 + float(np.max(np.abs(c[:-1] / lead)))
    poly = c[::-1].tolist()
    deriv = (c[1:] * np.arange(1, len(c)))[::-1].tolist()
    lo, hi = -bound, bound
    # nudge endpoints off possible roots; Sturm counts roots in (lo, hi]
    eps = 1e-12 * bound
    while _eval_real(poly, lo) == 0.0:
        lo -= eps
        eps *= 2
    total = _sign_changes(chain, lo) - _sign_changes(chain, hi)
    out = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append(_refine_root(poly, deriv, chain, a, b))
            continue
        mid = 0.5 * (a + b)
        while _eval_real(poly, mid) == 0.0:
            mid += eps
        va = _sign_changes(chain, a)
        vm = _sign_changes(chain, mid)
        vb = _sign_changes(chain, b)
        stack.append((a, mid, va - vm))
        stack.append((mid, b, vm - vb))
    return np.array(sorted(out))


def _eval_real(c, x):
    """Horner on descending Python floats: the same IEEE double
    arithmetic as numpy scalars, at a fraction of their cost."""
    v = 0.0
    for ck in c:
        v = v * x + ck
    return v


def _refine_root(poly, deriv, chain, a, b):
    """The root in (a, b] of poly, descending float lists like deriv and
    each member of chain."""
    # bisection on the Sturm count keeps working for even-multiplicity
    # roots, where the plain sign of the polynomial does not change
    va = _sign_changes(chain, a)
    for _ in range(80):
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        vm = _sign_changes(chain, mid)
        if va - vm >= 1:
            b = mid
        else:
            a = mid
            va = vm
    x = 0.5 * (a + b)
    for _ in range(8):
        fx = _eval_real(poly, x)
        if abs(fx) <= DEFAULT_TOL:
            break
        dfx = _eval_real(deriv, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        if not (a - 1e-9 <= x - step <= b + 1e-9):
            break
        x -= step
    return x


# --------------------------------------------------------------------------
# symmetric bivariate polynomials and resultants
# --------------------------------------------------------------------------

class BivarSym:
    """Symmetric real polynomial in (x1, x2) over the monomial basis.

    coeffs[i, j] multiplies x1**i * x2**j and equals coeffs[j, i].
    """

    __slots__ = ("coeffs", "x2_degree")

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.max(np.abs(c - c.T)) > 1e-12 * scale:
            raise ValueError("coefficient matrix must be symmetric")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        nz = np.nonzero(np.any(c != 0.0, axis=0))[0]
        object.__setattr__(self, "x2_degree", int(nz[-1]) if len(nz) else 0)

    def __setattr__(self, name, value):
        raise AttributeError("BivarSym is immutable")

    def x2_poly(self, x1):
        """Ascending coefficients in x2 at numeric x1."""
        pows = np.asarray(x1, dtype=float) ** np.arange(self.coeffs.shape[0])
        return pows @ self.coeffs

    def x2_leading(self):
        """The leading-in-x2 coefficient as a real CPoly in x1."""
        return CPoly(self.coeffs[:, self.x2_degree].astype(complex))

    def __call__(self, x1, x2):
        p1 = np.asarray(x1, dtype=float) ** np.arange(self.coeffs.shape[0])
        p2 = np.asarray(x2, dtype=float) ** np.arange(self.coeffs.shape[1])
        return float(p1 @ self.coeffs @ p2)

    def __eq__(self, other):
        return isinstance(other, BivarSym) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"BivarSym({self.coeffs.tolist()})"


def divided_difference(q) -> BivarSym:
    """(q(x1) - q(x2)) / (x1 - x2) for a real univariate polynomial q.

    Computed exactly: the term q_k x**k contributes q_k times the
    complete homogeneous sum x1**i x2**j over i + j = k - 1.
    """
    if isinstance(q, CPoly):
        qc = q.real_coeffs()
    else:
        qc = np.asarray(q, dtype=float)
    deg = len(qc) - 1
    n = max(deg, 1)
    c = np.zeros((n, n))
    for k in range(1, deg + 1):
        if qc[k] == 0.0:
            continue
        for i in range(k):
            c[i, k - 1 - i] += qc[k]
    return BivarSym(c)


def _sylvester_matrices(ap, am):
    """Stacked Sylvester matrices, one per row of ap (n, dp + 1) and
    am (n, dm + 1), each row ascending coefficients in x2."""
    dp, dm = ap.shape[1] - 1, am.shape[1] - 1
    size = dp + dm
    s = np.zeros((len(ap), size, size))
    for r in range(dm):
        s[:, r, r : r + dp + 1] = ap[:, ::-1]
    for r in range(dp):
        s[:, dm + r, r : r + dm + 1] = am[:, ::-1]
    return s


def resultant_x2(c_plus: BivarSym, c_minus: BivarSym) -> CPoly:
    """Resultant of c_plus and c_minus with respect to x2, as a real
    polynomial in x1.

    The Sylvester determinant is evaluated at Chebyshev sample points
    (LU with partial pivoting, one ``np.linalg.det`` over the stack of
    matrices, which factors each matrix as a call per matrix would) and
    the coefficients recovered by solving the Vandermonde system; noise
    below 1e-10 of the largest coefficient is trimmed. The x2
    coefficients are computed one sample point at a time: a single
    matmul over all points may sum in another order and move the last
    bit.
    """
    dp, dm = c_plus.x2_degree, c_minus.x2_degree
    if dp == 0 or dm == 0:
        raise DegenerateLeadingCoefficient("inputs must have positive x2-degree")
    for b in (c_plus, c_minus):
        lead = b.x2_leading()
        if np.max(np.abs(lead.coeffs)) <= 1e-13 * max(1.0, np.max(np.abs(b.coeffs))):
            raise DegenerateLeadingCoefficient("leading x2-coefficient vanishes identically")
    d1p = c_plus.coeffs.shape[0] - 1
    d1m = c_minus.coeffs.shape[0] - 1
    deg_bound = d1p * dm + d1m * dp
    n = deg_bound + 1
    xs = 2.0 * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    vals = np.linalg.det(_sylvester_matrices(np.array([c_plus.x2_poly(x) for x in xs]),
                                             np.array([c_minus.x2_poly(x) for x in xs])))
    vander = np.vander(xs, n, increasing=True)
    coef = np.linalg.solve(vander, vals)
    scale = np.max(np.abs(coef))
    if scale > 0:
        coef = np.where(np.abs(coef) <= 1e-10 * scale, 0.0, coef)
    return CPoly(coef.astype(complex))
