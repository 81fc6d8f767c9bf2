"""Exact distinct real roots over Q: the reference for cpoly.real_roots.

Coefficients are ascending and exact: ints, fractions.Fraction, or
floats, which convert to Fraction without rounding. The square-free
part p / gcd(p, p') has the distinct roots of p, each simple, so its
Sturm chain counts them exactly in any interval (a, b]. The chain's
members are scaled by positive integers to integer coefficients, which
keeps every sign, and each count evaluates them at a dyadic point
x = n / 2^k in integer arithmetic. Bisection on dyadic endpoints then
isolates each root and shrinks its interval to any width.

Crossing pairs of a piecewise anti-holomorphic system with sides of
degree <= 3 come out the same way, in s = x1 + x2 and q = x1 x2: each
side's divided difference is A(s) - q B(s), so a pair's s is a real
root of E(s) = A+ B- - A- B+ and q = A(s) / B(s).

An orbit of an anti-holomorphic side keeps psi = Im Omega, so a
half-return from x lands at a real root of psi(x') - psi(x); ``landing``
gives the one an integrator's landing sits by.
"""

from fractions import Fraction
from math import lcm


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _divmod(num, den):
    """Quotient and remainder of ascending Fraction lists; den's leading
    coefficient is nonzero."""
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [Fraction(0)], _trim(num)
    q = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1 - dd, -1, -1):
        q[k] = num[dd + k] / den[dd]
        for j in range(dd + 1):
            num[k + j] -= q[k] * den[j]
    return q, _trim(num[:dd] or [Fraction(0)])


def _is_zero(c):
    return len(c) == 1 and c[0] == 0


def _gcd(a, b):
    while not _is_zero(b):
        a, b = b, _divmod(a, b)[1]
    return a


def _derivative(c):
    return [k * c[k] for k in range(1, len(c))] or [Fraction(0)]


def square_free(coeffs):
    """p / gcd(p, p') for the ascending exact coefficients of a nonzero
    p: the same distinct roots, each simple."""
    p = _trim(Fraction(c) for c in coeffs)
    if _is_zero(p):
        raise ValueError("the zero polynomial has a continuum of roots")
    if len(p) == 1:
        return p
    return _divmod(p, _gcd(p, _derivative(p)))[0]


def _integral(c):
    """c times the positive lcm of its denominators: integer
    coefficients with the signs of c at every point."""
    scale = lcm(*(x.denominator for x in c))
    return [int(x * scale) for x in c]


def sturm_chain(coeffs):
    """Sturm chain of the square-free part, as ascending integer lists."""
    p = square_free(coeffs)
    chain = [p]
    if len(p) > 1:
        chain.append(_derivative(p))
        while len(chain[-1]) > 1:
            rem = _divmod(chain[-2], chain[-1])[1]
            if _is_zero(rem):
                break
            chain.append([-x for x in rem])
    return [_integral(c) for c in chain]


def _sign_at(c, n, k):
    """The sign of c at n / 2^k: Horner on c(n / 2^k) 2^(k deg c)."""
    v = 0
    for i, ci in enumerate(reversed(c)):
        v = v * n + (ci << (k * i))
    return (v > 0) - (v < 0)


def sign_changes(chain, n, k):
    """Sign changes of the chain at n / 2^k, zeros skipped."""
    count, prev = 0, 0
    for c in chain:
        s = _sign_at(c, n, k)
        if s:
            count += prev == -s
            prev = s
    return count


def _cauchy_exponent(p):
    """e with every root of p inside (-2^e, 2^e)."""
    bound = 1 + max(abs(Fraction(c) / p[-1]) for c in p[:-1])
    e = 0
    while 2 ** e <= bound:
        e += 1
    return e


def isolate(coeffs):
    """Disjoint intervals (a, b], ascending, each holding exactly one
    distinct real root, as (n_a, n_b, k) for a = n_a / 2^k, b = n_b / 2^k."""
    chain = sturm_chain(coeffs)
    if len(chain[0]) == 1:
        return []
    e = _cauchy_exponent(chain[0])
    stack = [(-(1 << e), 1 << e, 0)]
    out = []
    while stack:
        na, nb, k = stack.pop()
        n = sign_changes(chain, na, k) - sign_changes(chain, nb, k)
        if n == 1:
            out.append((na, nb, k))
        elif n > 1:
            # (a, b] at one more bit: a = 2 na / 2^(k+1), b = 2 nb / 2^(k+1)
            mid = na + nb
            stack += [(2 * na, mid, k + 1), (mid, 2 * nb, k + 1)]
    return sorted(out, key=lambda t: Fraction(t[0], 1 << t[2]))


def _refine(chain, na, nb, k, bits):
    """The root in the isolating interval (na / 2^k, nb / 2^k] of the
    chain's polynomial, as the right end of a subinterval of width at
    most 2^-bits max(1, |root|) that holds it."""
    va = sign_changes(chain, na, k)
    while Fraction(nb - na, 1 << k) > Fraction(1, 1 << bits) * max(
            1, abs(Fraction(nb, 1 << k))):
        na, nb, k = 2 * na, 2 * nb, k + 1
        mid = (na + nb) // 2
        vm = sign_changes(chain, mid, k)
        if va - vm == 1:
            nb = mid
        else:
            na, va = mid, vm
    return Fraction(nb, 1 << k)


def real_roots(coeffs, bits=80):
    """The distinct real roots of p, ascending, each as a Fraction within
    2^-bits max(1, |root|) of the root (the right end of an interval
    (a, b] that holds it)."""
    chain = sturm_chain(coeffs)
    return [_refine(chain, na, nb, k, bits) for na, nb, k in isolate(coeffs)]


def landing(psi, x, near, bits=80):
    """The root x' of psi(x') - psi(x) whose isolating interval (a, b]
    holds near, within 2^-bits max(1, |x'|): where an orbit of an
    anti-holomorphic side through (x, 0), whose first integral on the
    axis is psi (ascending, see psi_axis), meets the axis again. Raises
    ValueError when no isolating interval holds near."""
    x, near = Fraction(x), Fraction(near)
    level = [psi[0] - _value(psi, x), *psi[1:]]
    chain = sturm_chain(level)
    for na, nb, k in isolate(level):
        if Fraction(na, 1 << k) < near <= Fraction(nb, 1 << k):
            return _refine(chain, na, nb, k, bits)
    raise ValueError(f"{near} is in no isolating interval of psi(x') - psi({x})")


def multiply(a, b):
    """The product of two ascending coefficient lists, exactly."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def _value(c, x):
    v = Fraction(0)
    for ci in reversed(c):
        v = v * x + ci
    return v


def psi_axis(p):
    """psi = Im Omega on the real axis, ascending, for the anti-holomorphic
    side zdot = conj(p(z)) with p's ascending complex coefficients and
    Omega = int p, Omega(0) = 0: psi_k = Im p_(k-1) / k, exactly."""
    return [Fraction(0)] + [Fraction(complex(c).imag) / k for k, c in enumerate(p, 1)]


def _pair_parts(psi):
    """(A, B), ascending in s, with (psi(x1) - psi(x2)) / (x1 - x2) =
    A(s) - q B(s) for psi of degree <= 4: the divided difference is
    sum psi_k h_(k-1), with h_1 = s, h_2 = s^2 - q, h_3 = s^3 - 2 s q."""
    if len(psi) > 5:
        raise ValueError("the (s, q) form needs sides of degree <= 3")
    _, p1, p2, p3, p4 = list(psi) + [Fraction(0)] * (5 - len(psi))
    return [p1, p2, p3, p4], [p3, 2 * p4]


def crossing_pairs(upper, lower, bits=160):
    """The (s, q), as Fractions, of every common zero of the two sides'
    divided differences with s real, for anti-holomorphic sides of
    degree <= 3 given by p's ascending coefficients. s is a root of
    E(s) = A+ B- - A- B+ (its s^4 term cancels) within 2^-bits max(1, |s|),
    and q = A(s) / B(s) on the side with the larger |B(s)|; a root where
    both B vanish is no isolated pair and is left out. The pair is real
    and distinct where s^2 - 4q > 0. Raises ValueError when E vanishes
    identically: a continuum of pairs, or none, with q left free."""
    (a_up, b_up), (a_lo, b_lo) = (_pair_parts(psi_axis(p)) for p in (upper, lower))
    e = [x - y for x, y in zip(multiply(a_up, b_lo), multiply(a_lo, b_up))]
    pairs = []
    for s in real_roots(e, bits):
        a, b = max(((_value(a_up, s), _value(b_up, s)), (_value(a_lo, s), _value(b_lo, s))),
                   key=lambda ab: abs(ab[1]))
        if b:
            pairs.append((s, a / b))
    return pairs
