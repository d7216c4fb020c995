"""Dense univariate polynomial arithmetic over Z and Q.

Polynomials are plain lists (or tuples) of coefficients, lowest degree
first, with no trailing zeros; the zero polynomial is the empty list.
Everything here is exact: integer coefficients stay integers, rational
intermediates use fractions.Fraction.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .intmat import det


def pnorm(p):
    """Strip trailing zero coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def pdeg(p):
    return len(p) - 1


def padd(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return pnorm(out)


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return pnorm(out)


def peval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return pnorm([i * c for i, c in enumerate(p)][1:])


def pcontent(p):
    g = 0
    for c in p:
        g = gcd(g, c)
    return g


def pprimitive(p):
    """Clear denominators and divide out the content; leading coefficient
    normalized positive. Accepts integer or Fraction coefficients."""
    p = pnorm(list(p))
    if not p:
        return []
    p = pprimitive_signed(p)
    if p[-1] < 0:
        p = [-c for c in p]
    return p


def pdivmod(p, q):
    """Euclidean division over Q. Returns (quot, rem) as Fraction lists."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in p]
    d = [Fraction(c) for c in q]
    quot = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    while len(r) >= len(d) and pnorm(r):
        r = pnorm(r)
        if len(r) < len(d):
            break
        c = r[-1] / d[-1]
        k = len(r) - len(d)
        quot[k] = c
        for i, dc in enumerate(d):
            r[k + i] -= c * dc
        r = r[:-1]
    return pnorm(quot), pnorm(r)


def pdiv_exact(p, q):
    """Exact division of integer polynomials; raises if not exact over Z."""
    quot, rem = pdivmod(p, q)
    if rem:
        raise ValueError("division is not exact")
    out = []
    for c in quot:
        if c.denominator != 1:
            raise ValueError("quotient is not integral")
        out.append(int(c))
    return pnorm(out)


def pdivides(q, p):
    """Whether q divides p over Q (both integer polynomials)."""
    if not pnorm(p):
        return True
    if not pnorm(q):
        return False
    _, rem = pdivmod(p, q)
    return not rem


def pgcd(p, q):
    """Primitive gcd in Z[x], leading coefficient positive."""
    a = pprimitive(p)
    b = pprimitive(q)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, pprimitive(r)
    return pprimitive(a)


def squarefree_part(p):
    g = pgcd(p, pderiv(p))
    if pdeg(g) < 1:
        return pprimitive(p)
    return pdiv_exact_frac(pprimitive(p), g)


def pdiv_exact_frac(p, q):
    """Like pdiv_exact but tolerates a rational quotient scale, returns primitive."""
    quot, rem = pdivmod(p, q)
    if rem:
        raise ValueError("division is not exact")
    den = 1
    for c in quot:
        den = den * c.denominator // gcd(den, c.denominator)
    return pprimitive([int(c * den) for c in quot])


def psubst_scale(p, c):
    """p(c*x) for integer c."""
    return pnorm([a * c**i for i, a in enumerate(p)])


def pinterpolate(xs, ys):
    """The integer polynomial of degree < len(xs) through the points
    (xs[i], ys[i]), by Newton's divided differences. Every division must be
    exact, as it is for an integer polynomial at consecutive integers."""
    dd = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - level])
            assert r == 0, "divided differences must be exact over Z"
            dd[i] = q
    out = []
    for x, d in zip(reversed(xs), reversed(dd)):
        out = padd(pmul(out, [-x, 1]), [d])
    return out


# Sturm sequences and real root isolation ---------------------------------

def sturm_chain(p):
    """Sturm chain of a squarefree integer polynomial, as primitive integer
    polynomials (each scaled by a positive constant, which preserves signs)."""
    chain = [pprimitive_signed(p)]
    d = pnorm([i * c for i, c in enumerate(p)][1:])
    if d:
        chain.append(pprimitive_signed(d))
    while len(chain) >= 2 and chain[-1]:
        _, r = pdivmod(chain[-2], chain[-1])
        r = pnorm(r)
        if not r:
            break
        chain.append(pprimitive_signed([-c for c in r]))
    return chain


def pprimitive_signed(p):
    """Divide by the content only (preserves the sign of every value)."""
    p = pnorm(p)
    if not p:
        return []
    g = pcontent([c.numerator for c in map(Fraction, p)])
    den = 1
    for c in map(Fraction, p):
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(Fraction(c) * den) // g for c in p]


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(chain, a, b):
    """Number of distinct real roots in (a, b], for a < b with f(a) != 0."""
    va = _variations([_sgn(peval(p, a)) for p in chain])
    vb = _variations([_sgn(peval(p, b)) for p in chain])
    return va - vb


def _sgn(x):
    return (x > 0) - (x < 0)


def isolate_roots(p, lo, hi):
    """Isolating intervals for the real roots of a squarefree integer
    polynomial in the open interval (lo, hi).

    Returns a list of (a, b) with lo <= a < b <= hi, p(a)*p(b) < 0, and
    exactly one root of p in each (a, b); intervals are pairwise disjoint
    and sorted. Requires p(lo) != 0 != p(hi).
    """
    p = pprimitive(p)
    if pdeg(p) < 1:
        return []
    lo, hi = Fraction(lo), Fraction(hi)
    if peval(p, lo) == 0 or peval(p, hi) == 0:
        raise ValueError("endpoints must not be roots")
    chain = sturm_chain(p)
    out = []

    def split_point(a, b):
        # A point in (a, b) that is not a root of p; tries a few fractions.
        for k in range(1, pdeg(p) + 3):
            m = a + (b - a) * Fraction(k, pdeg(p) + 3)
            if peval(p, m) != 0:
                return m
        raise AssertionError("no non-root split point found")

    stack = [(lo, hi, sturm_count(chain, lo, hi))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1 and peval(p, a) * peval(p, b) < 0:
            out.append((a, b))
            continue
        m = split_point(a, b)
        cl = sturm_count(chain, a, m)
        stack.append((a, m, cl))
        stack.append((m, b, cnt - cl))
    return sorted(out)


# Cyclotomic polynomials and trigonometric minimal polynomials ------------

@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial as an integer coefficient list."""
    if d == 1:
        return (-1, 1)
    p = [-1] + [0] * (d - 1) + [1]          # t^d - 1
    for e in range(1, d):
        if d % e == 0:
            p = pdiv_exact(p, list(cyclotomic(e)))
    return tuple(p)


def palindromic_compact(p, m=None):
    """For an integer polynomial p palindromic about degree m, return W
    with p(t) = t^m * W(t + 1/t), deg W <= m.

    m defaults to deg(p)/2. A larger m admits a p whose top (and so also
    bottom) coefficients are zero, e.g. [0, 1, 0] about m = 1 gives W = 1.
    """
    p = pnorm(p)
    if m is None:
        if p and len(p) % 2 == 0:
            raise ValueError("polynomial is not palindromic of even degree")
        m = len(p) // 2
    if len(p) > 2 * m + 1:
        raise ValueError(f"polynomial has degree above 2*{m}")
    f = p + [0] * (2 * m + 1 - len(p))
    if f != f[::-1]:
        raise ValueError(f"polynomial is not palindromic about degree {m}")
    # peel t^m (t + 1/t)^j = sum_i comb(j, i) t^(m - j + 2i) off the top
    w = [0] * (m + 1)
    for j in range(m, -1, -1):
        c = w[j] = f[m + j]
        if c:
            for i in range(j + 1):
                f[m - j + 2 * i] -= c * comb(j, i)
    assert not any(f), "compact form reduction must leave no remainder"
    return pnorm(w)


@lru_cache(maxsize=None)
def cos_minimal_poly(d):
    """Integer polynomial (squarefree, not necessarily monic) whose roots
    are exactly cos(2*pi*j/d) for j coprime to d."""
    if d == 1:
        return (-1, 1)
    if d == 2:
        return (1, 1)
    w = palindromic_compact(list(cyclotomic(d)))
    return tuple(pprimitive(psubst_scale(w, 2)))


# Resultants ---------------------------------------------------------------

def resultant(p, q):
    """Resultant of two integer polynomials, exactly (Sylvester + Bareiss det)."""
    p, q = pnorm(p), pnorm(q)
    n, m = pdeg(p), pdeg(q)
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return p[0] ** m
    if m == 0:
        return q[0] ** n
    size = n + m
    syl = [[0] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(p)):
            syl[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(q)):
            syl[m + i][i + j] = c
    return det(syl)

