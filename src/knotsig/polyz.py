"""Dense univariate polynomial arithmetic over Z and Q.

Polynomials are plain lists (or tuples) of coefficients, lowest degree
first, with no trailing zeros; the zero polynomial is the empty list.
Everything here is exact and integer: division is pseudo-division over
Z, and a sign at a rational point num/den is the sign of the homogeneous
integer sum of c_i * num^i * den^(d-i) (psign), so the bisection points of
isolate_roots are the only Fractions and no Fraction is multiplied.
Resultants and characteristic polynomials of integer matrices build on intmat.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb, gcd, prod

from .intmat import det, diagonal_blocks, identity, mat_mul, prime_factorization


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


def psign(p, num, den=1):
    """Sign of p(num/den) for den > 0, from the integer
    den^d * p(num/den) = sum of c_i * num^i * den^(d-i) by homogeneous Horner."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc *= num
        if c:
            acc += c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def pderiv(p):
    return pnorm([i * c for i, c in enumerate(p)][1:])


def pcontent(p):
    g = 0
    for c in p:
        g = gcd(g, c)
    return g


def pprimitive(p):
    """Divide an integer polynomial by its content; leading coefficient
    normalized positive."""
    p = pprimitive_signed(p)
    if p and p[-1] < 0:
        p = [-c for c in p]
    return p


def pprimitive_signed(p):
    """Divide by the content only (preserves the sign of every value)."""
    p = pnorm(p)
    if not p:
        return []
    g = pcontent(p)
    return [c // g for c in p]


def pdivmod(p, q):
    """Integer pseudo-division: (quot, rem) with c*p = quot*q + rem and
    deg rem < deg q, where c = |lc q|^(deg p - deg q + 1) > 0 (c = 1 when
    q is monic). The positive multiplier preserves every sign."""
    q = pnorm(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = pnorm(p)
    n = len(q) - 1
    steps = len(r) - n
    if steps <= 0:
        return [], r
    lead, a = q[-1], abs(q[-1])
    top = [0] * steps
    for k in range(steps - 1, -1, -1):
        # r <- a*r - c*t^k*q cancels the top coefficient r[n + k]
        c = r.pop() if lead > 0 else -r.pop()
        if a != 1:
            r = [a * x for x in r]
        top[k] = c
        if c:
            for i in range(n):
                r[k + i] -= c * q[i]
    # each of the k later steps scaled the quotient by a once more
    return pnorm([c * a ** k for k, c in enumerate(top)]), pnorm(r)


def pgcd(p, q):
    """Primitive gcd in Z[x], leading coefficient positive, by the
    primitive remainder sequence."""
    a = pprimitive(p)
    b = pprimitive(q)
    while b:
        a, b = b, pprimitive(pdivmod(a, b)[1])
    return a


def squarefree_part(p):
    p = pprimitive(p)
    g = pgcd(p, pderiv(p))
    quot, rem = pdivmod(p, g)
    assert not rem, "the gcd with the derivative divides p"
    return pprimitive(quot)


def psubst_scale(p, c):
    """p(c*x) for integer c."""
    return pnorm([a * c**i for i, a in enumerate(p)])


# Sturm sequences and real root isolation ---------------------------------

def sturm_chain(p):
    """Sturm chain of a squarefree integer polynomial, as primitive integer
    polynomials (each scaled by a positive constant, which preserves signs)."""
    chain = [pprimitive_signed(p)]
    d = pderiv(p)
    if d:
        chain.append(pprimitive_signed(d))
    while len(chain) >= 2:
        r = pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(pprimitive_signed([-c for c in r]))
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(chain, a, b):
    """Number of distinct real roots in (a, b], for rationals a < b with
    f(a) != 0."""
    va = _variations([psign(p, a.numerator, a.denominator) for p in chain])
    vb = _variations([psign(p, b.numerator, b.denominator) for p in chain])
    return va - vb


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
    chain = sturm_chain(p)

    def at(x):
        # (x, sign of p, Sturm variations) at x, or None at a root of p;
        # each point is evaluated on the chain once and carried on the stack
        s = psign(chain[0], x.numerator, x.denominator)
        if s == 0:
            return None
        return x, s, _variations([s] + [psign(q, x.numerator, x.denominator)
                                        for q in chain[1:]])

    def split_point(a, b):
        # A point in (a, b) that is not a root of p; tries a few fractions.
        for k in range(1, pdeg(p) + 3):
            m = at(a + (b - a) * Fraction(k, pdeg(p) + 3))
            if m:
                return m
        raise AssertionError("no non-root split point found")

    stack, out = [(at(Fraction(lo)), at(Fraction(hi)))], []
    if None in stack[0]:
        raise ValueError("endpoints must not be roots")
    while stack:
        left, right = stack.pop()
        (a, sa, va), (b, sb, vb) = left, right
        if va - vb == 1 and sa * sb < 0:
            out.append((a, b))
        elif va != vb:
            m = split_point(a, b)
            stack += [(left, m), (m, right)]
    return sorted(out)


# Cyclotomic polynomials and trigonometric minimal polynomials ------------

def cyclotomic(d):
    """The d-th cyclotomic polynomial as an integer coefficient list.

    With r = rad d, the product of the distinct primes of d, Phi_d(t) =
    Phi_r(t^(d/r)), so the coefficients of Phi_r are spread d/r apart. For
    squarefree r > 1, Phi_r = prod over e | r of (1 - t^e)^mu(r/e) as a
    power series, where e = r/m for the squarefree m | r and mu(m) = (-1)^(
    number of primes of m). Phi_r is palindromic of degree phi(r), so only
    the series up to degree phi(r) // 2 is formed, then mirrored: times
    1 - t^e is one slice subtraction, and over 1 - t^e a running sum along
    each residue class mod e. The coefficients sum to Phi_r(1), which is p
    for r = p prime and 1 otherwise."""
    if d < 1:
        raise ValueError("cyclotomic polynomials have positive order")
    if d == 1:
        return (-1, 1)
    primes = prime_factorization(d)
    r = prod(primes)
    up, down = [r], []
    for p in primes:
        up, down = up + [e // p for e in down], down + [e // p for e in up]
    phi = prod(p - 1 for p in primes)
    n = phi // 2 + 1  # the coefficients of degree 0..phi // 2
    f = [1] + [0] * (n - 1)
    for e in up:
        if e < n:
            f[e:] = [a - b for a, b in zip(f[e:], f)]  # f * (1 - t^e)
    for e in down:
        if e < n:
            for c in range(e):
                f[c::e] = accumulate(f[c::e])  # f / (1 - t^e)
    f += f[phi - n::-1]
    assert sum(f) == (r if len(primes) == 1 else 1), "Phi_r(1)"
    out = [0] * (phi * (d // r) + 1)
    out[::d // r] = f  # Phi_r(t^(d/r))
    return tuple(out)


def vanishes_at_root_of_unity(coeffs, d):
    """Whether the integer polynomial f vanishes at exp(2*pi*i/d), i.e. Phi_d
    divides f. f mod t^d - 1 sums f along each residue class of exponents
    mod d, or pads f with zeros when deg f < d. In Q[t]/(t^d - 1), the sum
    of the fields Q(zeta_e) over e | d, the product of the 1 - t^(d/p) over
    the primes p | d is zero in every summand but Q(zeta_d), where it is a
    unit: so f(zeta_d) = 0 exactly when f mod t^d - 1 times that product is
    zero."""
    if d < 1:
        raise ValueError("roots of unity have positive order")
    if len(coeffs) > d:
        v = [sum(coeffs[c::d]) for c in range(d)]
    else:
        v = list(coeffs) + [0] * (d - len(coeffs))
    for p in prime_factorization(d):
        s = d // p
        v = [a - b for a, b in zip(v, v[-s:] + v[:-s])]  # v * (1 - t^s)
    return not any(v)


def palindromic_compact(p):
    """For an integer polynomial p palindromic of even degree 2m, return W
    with p(t) = t^m * W(t + 1/t), deg W = m."""
    f = pnorm(p) or [0]
    if len(f) % 2 == 0 or f != f[::-1]:
        raise ValueError("polynomial is not palindromic of even degree")
    m = len(f) // 2
    # peel t^m (t + 1/t)^j = sum_i comb(j, i) t^(m - j + 2i) off the top
    w = [0] * (m + 1)
    for j in range(m, -1, -1):
        c = w[j] = f[m + j]
        if c:
            for i in range(j + 1):
                f[m - j + 2 * i] -= c * comb(j, i)
    assert not any(f), "compact form reduction must leave no remainder"
    return pnorm(w)


def cos_compact(p):
    """For an integer polynomial p palindromic of even degree 2m, the
    primitive G with p(t) = c * t^m * G((t + 1/t)/2), c a constant. A root
    e^(i*theta) of p gives the root cos(theta) of G, so the unit-circle
    roots of p are the roots of G in [-1, 1], and a palindromic divisor of
    p gives a divisor of G."""
    return pprimitive(psubst_scale(palindromic_compact(list(p)), 2))


@lru_cache(maxsize=None)
def cos_minimal_poly(d):
    """Integer polynomial (squarefree, not necessarily monic) whose roots
    are exactly cos(2*pi*j/d) for j coprime to d."""
    if d == 1:
        return (-1, 1)
    if d == 2:
        return (1, 1)
    return tuple(cos_compact(cyclotomic(d)))


# Resultants and characteristic polynomials ------------------------------

def monic_transform(p):
    """l^(n-1) p(y/l) for p of degree n >= 1 and l = lc p: monic over Z,
    with roots l alpha over the roots alpha of p."""
    l, n = p[-1], len(p) - 1
    return [c * l ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]


def resultant(p, q):
    """Resultant of two integer polynomials, exactly, as a norm. With
    l = lc p, n = deg p, m = deg q and m~ = monic_transform(p), Res(p, q) =
    l^m prod q(alpha) = N(Q) / l^((n-1)m) for the integer Q(y) = l^m q(y/l),
    N(Q) = det of multiplication by Q on Z[y]/(m~), whose rows are Q, yQ,
    ..., y^(n-1)Q mod m~. Q is reduced by Horner, one monic step per
    coefficient of q."""
    p, q = pnorm(p), pnorm(q)
    n, m = pdeg(p), pdeg(q)
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return p[0] ** m
    l, mt = p[-1], monic_transform(p)

    def times_y(v):  # v * y mod m~
        return [-v[-1] * mt[0]] + [a - v[-1] * b for a, b in zip(v, mt[1:n])]

    rows, scale = [[0] * n], 1
    for c in reversed(q):
        rows[0] = times_y(rows[0])
        rows[0][0] += c * scale
        scale *= l
    while len(rows) < n:
        rows.append(times_y(rows[-1]))
    norm, r = divmod(det(rows), l ** ((n - 1) * m))
    assert r == 0, "the norm is l^((n-1)m) times the resultant"
    return norm


def char_poly(mat):
    """Coefficients c_0..c_n of det(lambda*I - M) for a square integer
    matrix M, lowest degree first: the product over its intmat.diagonal_blocks
    of Faddeev-LeVerrier over Z (a 0 x 0 matrix, with no block, gives 1).
    Reordering rows and columns by one permutation is a similarity, which
    keeps the characteristic polynomial, and that of a block sum is the
    product of the blocks'.

    N_1 = I, c_(n-k) = -tr(M N_k)/k, N_(k+1) = M N_k + c_(n-k) I. The
    coefficients are integers, so every division by k is exact."""
    return reduce(pmul, map(_faddeev_leverrier, diagonal_blocks(mat) or [mat]))


def _faddeev_leverrier(mat):
    # the characteristic polynomial of one block
    n = len(mat)
    coeffs = [0] * n + [1]
    nk = identity(n)
    for k in range(1, n + 1):
        mn = mat_mul(mat, nk)
        c, r = divmod(-sum(mn[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division must be exact over Z"
        coeffs[n - k] = c
        for i in range(n):
            mn[i][i] += c
        nk = mn
    return coeffs

