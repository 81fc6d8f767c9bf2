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
import math

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    IdenticallyZero,
    NonConvergence,
)

DEFAULT_TOL = 1e-10
CLUSTER_TOL = 1e-6
REAL_TOL = 1e-12
# the largest degree roots() and potential.build_potential accept: the
# slowest input found at this degree, z^200 - 1e-200, took about 1 s
# through ``holoflow potential --holo`` (2 shared vCPUs; random
# coefficients took 0.3 s)
MAX_DEGREE = 200
# the cap on real_roots' safeguarded Newton iterations for one simple
# root; a root that reaches it falls back to the Sturm count bisection
NEWTON_STEPS = 100
# the most floats, n (dp + dm)^2, that resultant_x2 stacks into n
# Sylvester matrices: the largest stack that solve_antiholo_pair's sides
# reach. A side of degree d <= pwcycles.MAX_PAIR_DEGREE = 36 has a
# divided difference of x1- and x2-degree at most d, so dp, dm <= 36 and
# n = 2 dp dm + 1 <= 1025 sample points; under both limits n (dp + dm)^2
# peaks at x2-degrees 36 and 14, 1009 * 50^2 floats (20.2 MB)
MAX_SYLVESTER_ENTRIES = 2_522_500


class CPoly:
    """Univariate polynomial with complex coefficients, ascending order.

    Trailing (highest-degree) coefficients that are exactly zero are
    trimmed so that ``degree == len(coeffs) - 1`` and the leading
    coefficient of a nonzero polynomial is nonzero. An empty coefficient
    list raises ValueError: the zero polynomial is ``CPoly([0])``, and a
    coefficient that is not finite raises NonConvergence.
    """

    __slots__ = ("coeffs", "_scalar")

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        n = len(c)
        if n == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        while n > 1 and c[n - 1] == 0:
            n -= 1
        c = c[:n].copy()
        if not all(map(cmath.isfinite, c.tolist())):
            raise NonConvergence("a polynomial coefficient is not finite")
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

    @property
    def scalar_view(self):
        """(descending, scale): the coefficients as Python complex,
        leading first, and their size ``float(np.max(np.abs(coeffs)))``,
        numpy's modulus and not Python's ``abs``, which can differ in the
        last bit. Built on first use and kept, since the coefficients
        never change (two threads that race build equal views). The one
        place the scalar paths (``_scalar_horner``,
        ``SystemSpec.crossing_sign``, the oracle's escape tests) convert
        the coefficients."""
        try:
            return self._scalar
        except AttributeError:
            view = (tuple(self.coeffs[::-1].tolist()),
                    float(np.max(np.abs(self.coeffs))))
            object.__setattr__(self, "_scalar", view)
            return view

    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays.

        Returns a complex for scalar or 0-d input, an array otherwise,
        and inf or NaN past float range, with no numpy warning. The
        products go through the ``np.multiply`` ufunc, whose complex loop
        may fuse multiply-add (FMA) where plain Python complex arithmetic
        does not; the integrator oracle's results are pinned to this
        arithmetic bit for bit. The loop is ``_horner``, the reference
        that ``_scalar_horner``, the oracle's per-step field, matches bit
        for bit, but for a NaN's sign and payload. For a lead of exactly
        ``1+0j`` that field forms the first product in Python: every
        partial product of (1+0i)z is exact, so any multiply formula,
        fused or not, rounds it to the same float.
        """
        coeffs = self.coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            if len(coeffs) == 1:
                acc = np.full(np.shape(z), coeffs[0])
            else:
                acc = _horner(coeffs[-1], coeffs[-2::-1], z)
        return acc if acc.shape else complex(acc)

    def derivative(self):
        """p'; NonConvergence, with no warning, past float range."""
        if self.degree == 0:
            return CPoly([0.0])
        k = np.arange(1, self.degree + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            return CPoly(self.coeffs[1:] * k)

    def antiderivative(self):
        """Term-by-term primitive with zero constant term."""
        k = np.arange(1, self.degree + 2)
        return CPoly(np.concatenate([[0.0], self.coeffs / k]))

    def real_coeffs(self):
        """Coefficients as floats; raises if any imaginary part exceeds
        REAL_TOL relative to the largest coefficient (or to 1)."""
        scale = max(1.0, float(np.abs(self.coeffs).max()))
        if np.abs(self.coeffs.imag).max() > REAL_TOL * scale:
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


def horner(descending, x):
    """p(x) by Horner's rule in plain Python arithmetic, descending
    holding p's coefficients leading first (Python floats or complex,
    such as the first item of ``CPoly.scalar_view``); x is a Python
    float or complex. The one scalar Horner loop that needs no numpy
    bits: for finite x and a nonzero leading coefficient it gives the
    float a loop from ``0.0 * x + c_n`` gives."""
    v = descending[0]
    for c in descending[1:]:
        v = v * x + c
    return v


def _scalar_horner(descending):
    """z -> the complex p(z) for a complex scalar z, where descending
    holds p's coefficients as Python complex, leading first (the first
    item of ``CPoly.scalar_view``): the float ``CPoly.__call__`` gives,
    bit for bit but for a NaN's sign and payload, at a fraction of its
    per-call cost.

    It allocates three 0-d complex arrays once, the accumulator, z and
    the product, and runs each product as ``np.multiply(acc, z, out)``,
    the same complex loop as ``_horner``'s (the first takes the 0-d
    leading coefficient as acc; ``out`` goes by position, which skips
    the keyword parsing). ``out`` never aliases an input: an in-place
    product takes another loop of the ufunc, which rounds differently.
    Each ``+ c`` is a Python complex add on
    ``out.item()``; addition is exactly rounded part by part, so it is
    the float numpy's add gives. The buffers belong to the returned
    function, so two functions, even of one polynomial, may be called
    interleaved; one function is not reentrant across threads.

    A leading coefficient of exactly ``1+0j`` (a monic p, such as the
    normal-form cubics) takes its product in Python, as
    ``complex(x - 0.0*y, y + 0.0*x)`` for z = x + iy, and a monic linear
    p makes no numpy call. Every partial product of (1+0i)(x+iy) is
    exact (1*x = x, 1*y = y, and 0*x, 0*y are a signed zero or NaN), so
    each part of the product is one rounded sum of two exact terms: the
    same float, signed zeros and inf included, whether the ufunc's loop
    fuses multiply-add, does not, or Python forms it. A NaN part is NaN
    in both, but its sign and payload, which IEEE 754 leaves open and no
    decision reads, may differ: a trace hook moves CPython off its
    specialised float instructions, and so changes which of two NaN
    operands an add passes on. The next coefficient is added part by
    part in the same expression, as the complex add would."""
    if len(descending) == 1:
        value = descending[0]
        return lambda z: value
    top, first, *tail = descending
    acc, zbuf, out = (np.zeros((), complex) for _ in range(3))
    multiply, item = np.multiply, out.item
    if top == 1 and math.copysign(1.0, top.imag) == 1.0:
        fr, fi = first.real, first.imag

        def monic(z):
            x, y = z.real, z.imag
            v = complex(x - 0.0 * y + fr, y + 0.0 * x + fi)
            if tail:
                zbuf[()] = z
                for c in tail:
                    acc[()] = v
                    multiply(acc, zbuf, out)
                    v = item() + c
            return v
        return monic
    top = np.array(top)

    def horner(z):
        zbuf[()] = z
        multiply(top, zbuf, out)
        v = item() + first
        for c in tail:
            acc[()] = v
            multiply(acc, zbuf, out)
            v = item() + c
        return v
    return horner


def _approx_roots(coeffs):
    """All roots of the ascending coefficients as companion-matrix
    eigenvalues (LAPACK's real path for real coefficients), accepted
    only if every scaled residual meets DEFAULT_TOL. The residuals are
    ``CPoly.__call__``'s loop, ``_horner``, on the coefficients as given:
    coeffs is trimmed, so a CPoly built from it would hold the same.

    The points are the ones ``np.roots`` gives, in its order, without
    its generic set-up: the eigenvalues of the companion matrix it builds
    from all but the k zero low-order coefficients, by the one
    ``np.linalg.eigvals`` call it makes (so the same LAPACK call on the
    same matrix), then a root at 0 for each of those k."""
    n = len(coeffs) - 1
    c = coeffs.real if not coeffs.imag.any() else coeffs
    k = 0
    while c[k] == 0:  # stops at the lead, which is nonzero
        k += 1
    x = np.zeros(n, dtype=complex)
    if k < n:
        p = c[::-1][:n + 1 - k]
        a = np.eye(n - k, k=-1, dtype=p.dtype)
        a[0, :] = -p[1:] / p[0]
        try:
            x[:n - k] = np.linalg.eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"companion eigenvalues failed: {exc}") from None
    scale = float(np.abs(coeffs).max()) * np.maximum(1.0, np.abs(x)) ** n
    if (np.abs(_horner(coeffs[-1], coeffs[-2::-1], x)) <= DEFAULT_TOL * scale).all():
        return x
    raise NonConvergence(f"companion eigenvalues do not meet tol={DEFAULT_TOL:g}")


def _cluster(points, floor):
    """Greedy merge of approximate roots into multiplicity clusters.

    Two clusters merge when their centers lie within
    CLUSTER_TOL**(1/m) * max(floor, |center|) of each other, m being the
    combined size: multiple roots of multiplicity m are resolved by the
    eigenvalue solve only to a radius on that order. ``means`` holds
    each cluster's ``np.mean`` as a Python complex, taken again only when
    the cluster merges: the float a mean of the same list always gives.
    A singleton's is ``(z + 0j) / 1``, np.mean's own sum from zero and
    division by the count, in Python complex arithmetic: a sum rounds
    part by part in both, and a division by 1 + 0j runs Smith's formula
    with ratio 0 in both, so each gives numpy's float (the -0.0 of an
    eigenvalue comes out as 0.0, an infinite part beside a finite one
    makes that one NaN).
    """
    clusters = [[z] for z in points]
    means = [(z + 0j) / 1 for z in points]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                ci, cj = clusters[i], clusters[j]
                zi, zj = means[i], means[j]
                m = len(ci) + len(cj)
                radius = CLUSTER_TOL ** (1.0 / m) * max(floor, abs(zi), abs(zj))
                if abs(zi - zj) <= radius:
                    clusters[i] = ci + cj
                    means[i] = complex(np.mean(clusters[i]))
                    del clusters[j], means[j]
                    merged = True
                    break
            if merged:
                break
    return [(z, len(c)) for z, c in zip(means, clusters)]


def roots(p: CPoly) -> tuple:
    """All complex roots of p as (location, multiplicity) pairs, sorted
    by real then imaginary part; the multiplicities sum to the degree.

    Clustering and the polish acceptance are relative to
    max(rho, |z|) with rho = min(1, max |z_i|) over the eigenvalues, so
    distinct roots below 1 are not merged for being small. Raises
    NonConvergence if the eigenvalue solve fails or its roots miss the
    residual gate, and ValueError for a degree outside 1 to MAX_DEGREE.

    The arithmetic of each step, each the float its numpy form gives:
    - the eigenvalues: one LAPACK call through ``np.linalg.eigvals``,
      on the companion matrix ``np.roots`` builds (``_approx_roots``);
    - the residual gate: ``_horner`` on all eigenvalues at once, the
      ufunc loop ``CPoly.__call__`` runs, whose products may fuse
      multiply-add, and the array ``np.abs``;
    - the clusters and the polish acceptance: Python complex and floats,
      whose modulus is libm's hypot, as numpy's scalar modulus is;
    - the Newton polish: q and q' through ``_scalar_horner``, whose
      products are the same ufunc's, so every value is the float
      ``CPoly.__call__`` gives, and each step q/q' a Python complex
      division.
    """
    if not 1 <= p.degree <= MAX_DEGREE:
        raise ValueError(f"roots() requires degree 1 to {MAX_DEGREE}, got {p.degree}")
    with np.errstate(over="ignore", invalid="ignore"):
        # Python complex from here on: Python's abs and numpy's scalar
        # modulus are both libm's hypot (the array np.abs is not)
        points = _approx_roots(p.coeffs).tolist()
        floor = min(1.0, max(map(abs, points)))
        # horners[k] evaluates the k-th derivative of p, its coefficients d
        # built as CPoly.derivative() does, but kept past float range
        d, horners = p.coeffs, [_scalar_horner(p.scalar_view[0])]
        refined = []
        for z0, m in _cluster(points, floor):
            # an m-fold root of p is a simple root of the (m-1)-th
            # derivative q: polish the cluster mean with Newton on q
            while len(horners) <= m:
                d = d[1:] * np.arange(1, len(d))
                horners.append(_scalar_horner(tuple(d[::-1].tolist())))
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
    the last quotient, p // (z - z0)**count, ascending; a constant's
    quotient is [0j]. Both are lists of Python complex. With count = 1
    the remainder is p(z0).

    Each step ``acc * z0 + c`` is Python complex arithmetic, which
    rounds as numpy's scalar complex product and sum do: neither fuses
    multiply-add (the array ``np.multiply`` loop may; see ``_horner``),
    and a sum rounds part by part. Python's complex product and sum
    never raise or warn."""
    coeffs = np.asarray(coeffs, dtype=complex).tolist()
    z0 = complex(z0)
    remainders = []
    for _ in range(count):
        quotient = [0j] * max(len(coeffs) - 1, 1)
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
    """Quotient and remainder of ascending float lists; den's leading
    entry is nonzero. Each step subtracts the rounded products q_k den_j
    from num, as an array update would; the top entry of each step,
    which no later step reads, is not updated."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        return [0.0], num
    lead = den[dd]
    q = [0.0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        qk = q[k] = num[dd + k] / lead
        for j in range(dd):
            num[k + j] -= qk * den[j]
    return q, (num[:dd] if dd > 0 else [0.0])


def _trim_real(c):
    """The ascending floats c as a list with every entry of modulus at or
    below 1e-13 of the largest set to 0.0 and trailing zeros dropped;
    [0.0] when that largest modulus is 0. Raises NonConvergence when an
    entry is not finite: a Sturm chain member past float range."""
    if not all(map(math.isfinite, c)):
        raise NonConvergence("a Sturm chain coefficient is not finite")
    mags = list(map(abs, c))
    scale = max(mags, default=0.0)
    if scale == 0.0:
        return [0.0]
    tol = 1e-13 * scale
    c = [0.0 if m <= tol else x for x, m in zip(c, mags)]
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _derivative(c):
    """The derivative of the ascending floats c, ascending, as a list."""
    return [c[k] * k for k in range(1, len(c))]


def _sturm_chain(c):
    """Canonical Sturm chain of the ascending floats c, as ascending
    lists; terminates at the (approximate) gcd. Each member passes
    _trim_real, which refuses one past float range."""
    chain = [_trim_real(c)]
    d = chain[0]
    if len(d) > 1:
        chain.append(_trim_real(_derivative(d)))
        while len(chain[-1]) > 1:
            _, rem = _polydiv(chain[-2], chain[-1])
            rem = _trim_real(rem)
            if len(rem) == 1 and rem[0] == 0.0:
                break
            chain.append([-x for x in rem])
    return chain


def _root_bound(c):
    """Cauchy's bound 1 + max |c_k / c_n| on the moduli of the roots of
    the ascending finite floats c, whose leading entry is nonzero."""
    lead = c[-1]
    return 1.0 + max(abs(x / lead) for x in c[:-1])


def _sign_changes(chain, x):
    """Sign changes of the Sturm chain, descending float lists, at x.
    The hottest loop of real_roots: it runs horner's loop inline, which
    saves a call per chain member."""
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
    """All distinct real roots of a real-coefficient polynomial, sorted,
    as a float array: ``float_real_roots`` on its real coefficients."""
    return np.array(float_real_roots(r.real_coeffs().tolist()))


def float_real_roots(c):
    """All distinct real roots of the polynomial with the ascending float
    coefficients c, sorted, as a list of Python floats.

    Counting uses a Sturm sequence (exact distinct-root counts even in
    the presence of multiple roots). Each isolated root ends in one of
    two refinements, both read from the chain. When the chain ends in a
    constant (gcd(r, r') numerically 1, so every root is simple), Newton's
    method safeguarded by bisection finds it, accepted under a Sturm
    certificate (``_newton_root``). A polynomial with a multiple root, and
    a root that fails the certificate, take the midpoint of the last
    bracket of a bisection on the chain's count (``_bisect_root``): the
    count also moves at an even-multiplicity root, where r keeps its
    sign and Newton has no bracket. The trimmed polynomial, its
    derivative, the root bound and the chain are built on Python float
    lists, with the IEEE double operations and their order of numpy
    array code: small entries are zeroed against the largest modulus.
    Every evaluation runs Horner (``horner``, or its loop inlined in
    ``_sign_changes``) on descending lists. Each
    interval on the isolation stack carries the Sturm counts at its two
    ends, so a split evaluates the chain at its midpoint only and the
    bisection of an isolated root starts from the count at its left end.
    Raises IdenticallyZero for the zero polynomial, and NonConvergence
    for a coefficient or chain member past float range or for an
    interval whose count is negative: the float chain contradicts itself
    there.
    """
    c = _trim_real(c)
    if len(c) == 1:
        if c[0] == 0.0:
            raise IdenticallyZero("zero polynomial has a continuum of roots")
        return []
    chain = [ck[::-1] for ck in _sturm_chain(c)]
    bound = _root_bound(c)
    poly = c[::-1]
    deriv = _derivative(c)[::-1]
    lo, hi = -bound, bound
    # nudge endpoints off possible roots; Sturm counts roots in (lo, hi]
    eps = 1e-12 * bound
    while horner(poly, lo) == 0.0:
        lo -= eps
        eps *= 2
    out = []
    # (a, b, Sturm count at a, Sturm count at b)
    stack = [(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))]
    # the chain ends in a constant exactly when gcd(p, p') is numerically
    # 1: every root is simple
    square_free = len(chain[-1]) == 1
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n < 0:
            raise NonConvergence(f"Sturm count {n} on ({a}, {b}]")
        if n == 0:
            continue
        if n == 1:
            x = _newton_root(poly, deriv, chain, a, b) if square_free else None
            out.append(_bisect_root(chain, a, b, va) if x is None else x)
            continue
        mid = 0.5 * (a + b)
        while horner(poly, mid) == 0.0:
            mid += eps
        vm = _sign_changes(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    return sorted(out)


def _newton_root(poly, deriv, chain, a, b):
    """The simple root in (a, b] of poly by Newton's method safeguarded
    by bisection (rtsafe: Press et al., Numerical Recipes, 9.4), or None
    when poly does not change sign on (a, b] or the root is not
    certified. poly, deriv and each member of chain are descending float
    lists, and (a, b] holds exactly one root by the chain's count.

    Newton starts at the midpoint and keeps a bracket on which poly
    changes sign, moving one end to each iterate by the sign of poly
    there. A step that would leave the bracket, or that is not at most
    half the step before last, is replaced by the bracket's midpoint. The
    iteration stops at an exact zero, at a Newton step that rounds to no
    move, once a step is at most 4 ulps of x, or after NEWTON_STEPS
    iterations. x is accepted only when the chain's sign changes at
    x -+ 0.5e-14 max(1, |x|), clipped to (a, b], differ by exactly 1,
    which puts a root within the width that _bisect_root bisects to."""
    fa, fb = horner(poly, a), horner(poly, b)
    if fa < 0.0 < fb:
        neg, pos = a, b
    elif fb < 0.0 < fa:
        neg, pos = b, a
    else:
        return None
    x = 0.5 * (a + b)
    step = before = b - a
    for _ in range(NEWTON_STEPS):
        fx = horner(poly, x)
        if fx == 0.0:
            break
        if fx < 0.0:
            neg = x
        else:
            pos = x
        dfx = horner(deriv, x)
        new = x - fx / dfx if dfx != 0.0 else math.nan
        if new == x:
            break
        # the negated test also sends a NaN or inf iterate to bisection
        if not (min(neg, pos) < new < max(neg, pos) and abs(new - x) <= 0.5 * abs(before)):
            new = 0.5 * (neg + pos)
        before, step = step, new - x
        x = new
        if abs(step) <= 4.0 * math.ulp(x):
            break
    h = 0.5e-14 * max(1.0, abs(x))
    if _sign_changes(chain, max(a, x - h)) - _sign_changes(chain, min(b, x + h)) != 1:
        return None
    return x


def _bisect_root(chain, a, b, va):
    """The root in (a, b] by bisection on the Sturm count of chain,
    descending float lists, va being its sign changes at a: the midpoint
    of the last bracket, once a bracket is at most 1e-14 max(1, |a|, |b|)
    wide. The path of a polynomial with a multiple root, where the count
    also moves at an even-multiplicity root that keeps the polynomial's
    sign, and of a root that _newton_root does not certify."""
    # a finite bracket is at most 2 DBL_MAX wide and the stop at least
    # 1e-14: log2(2 DBL_MAX / 1e-14) = 1071.5 halvings reach it
    for _ in range(1072):
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        vm = _sign_changes(chain, mid)
        if va - vm >= 1:
            b = mid
        else:
            a = mid
            va = vm
    return 0.5 * (a + b)


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
        scale = max(1.0, float(np.abs(c).max()))
        if np.abs(c - c.T).max() > 1e-12 * scale:
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
        return self.x2_polys([x1])[0]

    def x2_polys(self, xs):
        """Ascending coefficients in x2 at each numeric x1 of xs, one row
        per point, from one stacked product: numpy runs the BLAS
        vector-matrix product (gemv) on each stacked row, as it does for
        a single row, so every row holds the floats of a product at its
        point alone."""
        xs = np.asarray(xs, dtype=float)
        pows = xs[:, None] ** np.arange(self.coeffs.shape[0])
        return np.matmul(pows[:, None, :], self.coeffs)[:, 0, :]

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
    while deg > 0 and qc[deg] == 0.0:
        # zero top coefficients (as psi's for a side whose top
        # coefficients are real) would pad c with zero rows and columns,
        # which raise the resultant's sample count
        deg -= 1
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
    coefficients at all sample points come from one stacked
    vector-matrix product per input (``BivarSym.x2_polys``), not one
    matrix-matrix product: numpy runs gemv on each stacked row as on a
    lone row, while gemm may sum in another order and move the last
    bit. The number of sample points, deg_bound + 1, takes each input's
    x1-degree as the size of its coefficient matrix, which
    divided_difference keeps to the degree; the Sylvester stack takes
    the x2 coefficients up to each input's x2-degree. The stack, the
    determinants and the solve run with overflow and invalid operations
    ignored: past float range a determinant turns inf and the solve
    NaN, and a coefficient that is not finite raises NonConvergence.
    Vandermonde powers past float range (from deg_bound = 1025 on, as
    for two antiholo sides of degree 23 or more whose top coefficients
    are not real) raise it from the sample count, before any allocation.
    A Sylvester stack of more than MAX_SYLVESTER_ENTRIES floats raises
    ValueError before it is built.
    """
    dp, dm = c_plus.x2_degree, c_minus.x2_degree
    if dp == 0 or dm == 0:
        raise DegenerateLeadingCoefficient("inputs must have positive x2-degree")
    for b in (c_plus, c_minus):
        if np.abs(b.coeffs[:, b.x2_degree]).max() <= 1e-13 * max(1.0, np.abs(b.coeffs).max()):
            raise DegenerateLeadingCoefficient("leading x2-coefficient vanishes identically")
    d1p = c_plus.coeffs.shape[0] - 1
    d1m = c_minus.coeffs.shape[0] - 1
    deg_bound = d1p * dm + d1m * dp
    n = deg_bound + 1
    # the nodes' largest power, (2 cos(pi / 2n))^(n - 1), is finite
    # exactly for n <= 1025; past it every coefficient would be NaN
    if n > 1025:
        raise NonConvergence("a resultant coefficient is not finite: the Vandermonde "
                             f"powers of {n} sample points pass float range")
    xs = 2.0 * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        vander = np.vander(xs, n, increasing=True)
        if n * (dp + dm) ** 2 > MAX_SYLVESTER_ENTRIES:
            raise ValueError(f"a Sylvester stack of {n} matrices of size {dp + dm} is above "
                             f"the limit of {MAX_SYLVESTER_ENTRIES} entries")
        # the coefficients up to each x2-degree: zero columns past it
        # would make both Sylvester leads 0 and R vanish
        vals = np.linalg.det(_sylvester_matrices(c_plus.x2_polys(xs)[:, : dp + 1],
                                                 c_minus.x2_polys(xs)[:, : dm + 1]))
        coef = np.linalg.solve(vander, vals)
    if not np.all(np.isfinite(coef)):
        raise NonConvergence("a resultant coefficient is not finite")
    scale = np.abs(coef).max()
    if scale > 0:
        coef = np.where(np.abs(coef) <= 1e-10 * scale, 0.0, coef)
    return CPoly(coef.astype(complex))
