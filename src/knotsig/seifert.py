"""Seifert matrices and their classical derived invariants.

A Seifert matrix is a square integer matrix A of even size 2g whose
antisymmetrization V = A - A^t is unimodular, so Gamma = V^(-1) A is an
integer matrix and tA - A^t = V((t - 1)Gamma + I). Gamma, built once per
matrix, carries the Alexander module: the Alexander polynomial
det(tA - A^t) = det(I + (t - 1)Gamma) comes from its one characteristic
polynomial, and alexmod reads the cyclic cover quotients off it. Also
derived here: the Arf invariant from det(A + A^t) mod 8, and half-rank
direct summands on which the bilinear form vanishes (the algebraic
sliceness condition).
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, gcd
from typing import Optional

from . import intmat
from .intmat import CapExceeded, default_cap
from .polyz import char_poly, peval


class MalformedMatrix(ValueError):
    """Input is not a list of rows of integers."""


class NotSquare(ValueError):
    """Input matrix is not square."""


class OddSize(ValueError):
    """Input matrix has odd size."""


class NotUnimodular(ValueError):
    """det(A - A^t) is not 1."""


@dataclass(frozen=True)
class SeifertMatrix:
    """Validated Seifert matrix; entries are row-major tuples."""

    entries: tuple
    name: Optional[str] = None

    @property
    def n(self):
        return len(self.entries)

    @property
    def genus(self):
        return self.n // 2

    def symmetrization(self):
        """A + A^t."""
        a = self.entries
        return [[a[i][j] + a[j][i] for j in range(self.n)] for i in range(self.n)]

    def antisymmetrization(self):
        """A - A^t."""
        a = self.entries
        return [[a[i][j] - a[j][i] for j in range(self.n)] for i in range(self.n)]

    def as_lists(self):
        return [list(r) for r in self.entries]

    @cached_property
    def gamma(self):
        """Gamma = V^(-1) A for V = A - A^t, as rows of integers: one Smith
        form U V W = I gives V^(-1) = W U. Built on the first read and kept;
        V Gamma = A is asserted."""
        v, a = self.antisymmetrization(), self.as_lists()
        skew = intmat.smith_form(v)
        gamma = intmat.mat_mul(intmat.mat_mul(skew.v, skew.u), a)
        assert intmat.mat_mul(v, gamma) == a, "V Gamma = A"
        return tuple(tuple(row) for row in gamma)

    def __str__(self):
        return self.name or f"seifert{self.n}x{self.n}"


def validate_seifert(raw, name=None):
    """Validate a raw integer matrix as a Seifert matrix.

    Raises MalformedMatrix, NotSquare, OddSize or NotUnimodular on
    malformed input; these all indicate bad data, never a computation
    failure. Entries must be ints: bools and floats are rejected.
    """
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise MalformedMatrix("a Seifert matrix must be a list of rows, each a list")
    n = len(raw)
    for r in raw:
        if len(r) != n:
            raise NotSquare(f"row of length {len(r)} in a {n}-row matrix")
        for x in r:
            if type(x) is not int:
                raise MalformedMatrix(f"entries must be integers, not {x!r}")
    if n % 2 != 0:
        raise OddSize(f"size {n} is odd")
    skew = [[raw[i][j] - raw[j][i] for j in range(n)] for i in range(n)]
    if intmat.det(skew) != 1:
        raise NotUnimodular("det(A - A^t) != 1")
    return SeifertMatrix(tuple(tuple(r) for r in raw), name=name)


def block_sum(a, b, name=None):
    """Block-diagonal sum of two Seifert matrices (connected sum of knots)."""
    n, m = a.n, b.n
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a.entries[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b.entries[i][j]
    return validate_seifert(out, name=name)


@dataclass(frozen=True)
class IntLaurentPoly:
    """Integer Laurent polynomial up to the unit t^k: coeffs[i] is the
    coefficient of t**i, and make strips the zero coefficients at both
    ends."""

    coeffs: tuple

    @classmethod
    def make(cls, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        return cls(tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def canonical(self):
        """Unit-normalize: no zero coefficient at either end; sign fixed so
        the value at 1 is positive when it is a unit, otherwise so the
        leading coefficient is positive."""
        p = IntLaurentPoly.make(self.coeffs)
        if p.is_zero():
            return p
        at_one = sum(p.coeffs)
        if (at_one < 0) or (at_one == 0 and p.coeffs[-1] < 0):
            p = IntLaurentPoly(tuple(-c for c in p.coeffs))
        return p

    def __call__(self, x):
        return peval(list(self.coeffs), Fraction(x))

    def is_palindromic(self):
        return list(self.coeffs) == list(reversed(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                body = tpart if abs(c) == 1 else f"{abs(c)}{tpart}"
            sign = "-" if c < 0 else ("+" if terms else "")
            terms.append(sign + body)
        return "".join(terms)


@lru_cache(maxsize=None)
def alexander_polynomial(a):
    """det(tA - A^t), canonically normalized so its value at t=1 is +1.

    det V = 1, so det(tA - A^t) = det(I + uGamma) at u = t - 1. With
    c = char_poly(Gamma), det(I + uGamma) = sum_j (-1)^j c_(n-j) u^j, and
    expanding u^j = (t - 1)^j gives the coefficient of t^i as
    (-1)^i sum_(j >= i) C(j, i) c_(n-j). Computed once per matrix;
    cross-checked elsewhere against cofactor expansion and pencil
    interpolation.
    """
    n = a.n
    c = char_poly(a.gamma)
    coeffs = [(-1) ** i * sum(comb(j, i) * c[n - j] for j in range(i, n + 1))
              for i in range(n + 1)]
    poly = IntLaurentPoly.make(coeffs).canonical()
    assert sum(poly.coeffs) == 1, "det(A - A^t) = 1 forces value 1 at t=1"
    assert poly.is_palindromic(), "pencil determinant must be palindromic"
    return poly


def arf_invariant(a):
    """Arf invariant in Z/2, by Levine's congruence: it is 0 exactly when
    Delta(-1) = det(-A - A^t) = det(A + A^t) (the size is even) is
    1 or 7 mod 8. The unknot's empty determinant is 1, so its Arf is 0."""
    return int(intmat.det(a.symmetrization()) % 8 in (3, 5))


@dataclass(frozen=True)
class Metabolizer:
    """Basis of a rank-g direct summand of Z^2g on which the Seifert form
    vanishes identically."""

    basis: tuple


def _isotropic_with(a, chosen, v):
    ent = a.entries
    n = a.n
    for u in list(chosen) + [v]:
        if sum(u[i] * ent[i][j] * v[j] for i in range(n) for j in range(n)) != 0:
            return False
        if sum(v[i] * ent[i][j] * u[j] for i in range(n) for j in range(n)) != 0:
            return False
    return True


def find_seifert_metabolizer(a, search_bound):
    """Search for a Metabolizer with basis coefficients bounded by
    search_bound in max-norm.

    Returns None when no metabolizer exists within the bound (which does not
    prove nonexistence). Candidates are primitive vectors, enumerated by
    increasing max-norm with sign normalized, extended greedily to direct
    summands. A search_bound below 1 would try no candidate, so it raises
    ValueError. Each candidate the backtracking tries is a step, and more
    than default_cap() steps raise CapExceeded.
    """
    if search_bound < 1:
        raise ValueError("metabolizer search bound must be >= 1, or no vector is tried")
    n = a.n
    g = n // 2
    # primitive, first nonzero entry positive; by increasing max-norm, then
    # sparse vectors supported on early coordinates first (so clean bases
    # like standard vectors come out first). Reaching index i takes at least
    # i + 1 steps, since the indices on a path increase, so only the first
    # cap + 1 candidates can be visited: shells of max-norm r are drawn until
    # that many are held.
    cap, steps, cands = default_cap(), 0, []
    for r in range(1, search_bound + 1):
        if len(cands) > cap:
            break
        shell = (v for v in product(range(-r, r + 1), repeat=n)
                 if (r in v or -r in v) and next(x for x in v if x) > 0 and gcd(*v) == 1)
        cands += heapq.nsmallest(cap + 1 - len(cands), shell, key=lambda v: (
            sum(1 for x in v if x), tuple(abs(x) for x in v[::-1]), v[::-1]))

    def extend(chosen, start):
        nonlocal steps
        if len(chosen) == g:
            return tuple(chosen)
        for idx in range(start, len(cands)):
            steps += 1
            if steps > cap:
                raise CapExceeded(steps, cap, noun="metabolizer search steps")
            v = cands[idx]
            if not _isotropic_with(a, chosen, v):
                continue
            if not intmat.spans_direct_summand(list(chosen) + [list(v)]):
                continue
            got = extend(chosen + [v], idx + 1)
            if got is not None:
                return got
        return None

    got = extend([], 0)
    if got is not None:
        return Metabolizer(tuple(tuple(v) for v in got))
    return None
