"""Certified exact real arithmetic for algebraic numbers on [-1, 1].

Real numbers appear in two flavors here: roots of integer polynomials held
as isolating intervals (RealAlgebraic), and cosines of rational multiples
of 2*pi held through certified dyadic enclosures. Those enclosures come
from a fixed-point integer kernel at the scale 2**p, p = bits + GUARD:
Machin's formula for pi and the Taylor series of the cosine are summed in
scaled integers with directed rounding, every term rounded down in the
lower sum and up in the upper sum, and one unit in the last place covers
the alternating remainder. So every returned bound is mathematically
guaranteed. An isolating interval is held as integers a, b over one
common denominator, an exact rational root as a = b; it is refined, and
a polynomial signed on it, on those integers (polyz.psign, integer
interval Horner), and Fractions appear only where lo and hi are read.
The turn arccos(alpha)/(2*pi) of an algebraic alpha in (-1, 1) is held
as a dyadic cell (RealAlgebraic.turn_cell), whose ends are certified by
comparing alpha with the kernel's cosines, so every comparison between
a cosine and alpha is made in this module. AlgebraicElement computes in
Q(alpha) on integers and signs at alpha. No floating point is used.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .intmat import CapExceeded, det
from .polyz import (monic_transform, padd, pdivmod, pgcd, pdeg, pmul, pnorm, pprimitive,
                    psign)

#: Bisection/refinement depth after which sign determination gives up.
#: Exceeding it indicates a bug (every sign queried here is decidable).
#: It also bounds the depth of a turn cell: a deeper one is a size cap
#: (CapExceeded), not a bug.
MAX_REFINE = 2000

#: Guard bits of the integer kernel: an enclosure asked for at `bits` is
#: computed at the scale 2**(bits + GUARD), where the rounding of every
#: series term and of pi stays far below the 2**(2 - bits) width contract.
GUARD = 16

#: Depth up to which RealAlgebraic.turn_cell bisects before it guesses.
_BISECT_DEPTH = 10

#: Cap on the Newton steps of one turn-cell guess (it converges in about
#: log2 of the depth; a guess that has not settled by then is simply not
#: certified).
_NEWTON_STEPS = 24


class PrecisionExhausted(RuntimeError):
    """Interval refinement exceeded the configured depth."""


def _arctan_inv_scaled(x, q):
    """Integers lo <= arctan(1/x) * 2**q <= hi for an integer x >= 2.

    The powers 2**q / x**(2i+1) are carried floored and ceiled (nested
    floors by integers are exact floors), each term is divided by 2i+1
    rounding down in the lower sum and up in the upper sum, and the series
    stops once the floored power is 0, so the alternating remainder is
    below one unit.
    """
    xsq = x * x
    pw_lo = (1 << q) // x
    pw_hi = -((-1 << q) // x)
    lo = hi = 0
    k = 1
    while pw_lo:
        t_lo, t_hi = pw_lo // k, -(-pw_hi // k)
        if k & 2:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
        pw_lo //= xsq
        pw_hi = -(-pw_hi // xsq)
        k += 2
    return lo - 1, hi + 1


@lru_cache(maxsize=None)
def _pi_scaled(p):
    """Integers lo <= pi * 2**p <= hi with hi - lo <= 2, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239) summed at p + g bits, where the
    2**g > 64p spare bits absorb the per-term rounding."""
    g = p.bit_length() + 6
    a_lo, a_hi = _arctan_inv_scaled(5, p + g)
    b_lo, b_hi = _arctan_inv_scaled(239, p + g)
    lo = (16 * a_lo - 4 * b_hi) >> g
    hi = -((4 * b_lo - 16 * a_hi) >> g)
    assert hi - lo <= 2
    return lo, hi


def _cos_scaled(a, b, p):
    """Integers lo <= cos(2*pi*a/b) * 2**p <= hi for 0 <= a/b <= 1/2.

    u = 2*pi*a/b lies in [0, pi], where every Taylor term u**(2i)/(2i)!
    grows with u. So the terms are carried in two chains: one floored from
    a lower bound of u**2, one ceiled from an upper bound. The lower sum
    adds the floored even terms and subtracts the ceiled odd ones, the
    upper sum the other way round. The series stops at the first term of
    at most one unit; the terms decrease from there on (u**2 < 12), so the
    alternating remainder is below it.
    """
    one = 1 << p
    pi_lo, pi_hi = _pi_scaled(p)
    u_lo = 2 * a * pi_lo // b
    u_hi = -(-2 * a * pi_hi // b)
    sq_lo = u_lo * u_lo >> p
    sq_hi = -(-u_hi * u_hi >> p)
    t_lo = t_hi = lo = hi = one
    i = 0
    while True:
        i += 1
        k = (2 * i - 1) * (2 * i)
        t_lo = (t_lo * sq_lo >> p) // k
        t_hi = -((-t_hi * sq_hi >> p) // k)
        if t_hi <= 1:
            break
        if i & 1:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
    return max(lo - 1, -one), min(hi + 1, one)


def cos_turn_bounds(turn, bits):
    """Certified (lo, hi) with lo <= cos(2*pi*turn) <= hi, hi-lo <= 2**(2-bits)."""
    turn = Fraction(turn)
    b = turn.denominator
    a = turn.numerator % b  # reduce mod 1 into [0, 1), then into [0, 1/2]
    p = bits + GUARD
    lo, hi = _cos_scaled(min(a, b - a), b, p)
    return Fraction(lo, 1 << p), Fraction(hi, 1 << p)


def _interval_sign(q, a, b, den):
    """The sign of q on [a/den, b/den] when interval Horner certifies one,
    else 0. Each partial Horner value is carried times a power of den, so
    the endpoints enter as the integers a and b and nothing is divided."""
    lo = hi = 0
    scale = 1
    for c in reversed(q):
        cands = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(cands) + c * scale, max(cands) + c * scale
        scale *= den
    return 1 if lo > 0 else -1 if hi < 0 else 0


class RealAlgebraic:
    """A real algebraic number alpha: the unique root of a squarefree
    integer polynomial in the closed interval [a/den, b/den], held as one
    integer triple (a, b, den). Either a < b and the polynomial changes
    sign between the ends, or a = b and alpha is that rational, exact.

    Refinement bisects on integers: the midpoint (a + b)/(2 den) is signed
    by polyz.psign, and the half that holds alpha, or the midpoint itself
    when it is the root, becomes the new triple over 2 den. The midpoints
    are the rationals (lo + hi)/2, so the enclosures are exactly those of a
    Fraction bisection; lo and hi read them as reduced Fractions.

    For alpha in (-1, 1) with irrational turn, turn_cell(depth) also holds
    the dyadic cell of arccos(alpha)/(2*pi) in (0, 1/2) as one pair
    (num, depth). The interval and the cell only tighten, and each is read
    and replaced whole, so threads may share one RealAlgebraic."""

    __slots__ = ("poly", "_cell", "_sign_lo", "_turn")

    def __init__(self, poly, lo, hi):
        self.poly = tuple(poly)
        den = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (den // lo.denominator)
        b = hi.numerator * (den // hi.denominator)
        self._cell = (a, b, den)
        self._sign_lo = psign(self.poly, a, den)
        self._turn = (0, 1)  # (num, depth) of the turn cell

    @classmethod
    def root_of(cls, poly, lo, hi):
        alpha = cls(poly, Fraction(lo), Fraction(hi))
        _, b, den = alpha._cell
        if alpha._sign_lo * psign(poly, b, den) >= 0:
            raise ValueError("not an isolating interval with a sign change")
        return alpha

    @property
    def lo(self):
        a, _, den = self._cell
        return Fraction(a, den)

    @property
    def hi(self):
        _, b, den = self._cell
        return Fraction(b, den)

    def _halve(self, a, b, den):
        """The half of [a/den, b/den] that holds alpha, as a triple over the
        denominator 2 den; (mid, mid, 2 den) when the midpoint is alpha."""
        mid, den = a + b, 2 * den
        s = psign(self.poly, mid, den)
        if s == 0:
            return mid, mid, den
        if s == self._sign_lo:
            return mid, 2 * b, den
        return 2 * a, mid, den

    def _store(self, a, b, den):
        """Replace the cell by (a, b, den), unless another thread has stored
        a cell at least as tight meanwhile."""
        c, d, e = self._cell
        if (b - a) * e < (d - c) * den:
            self._cell = (a, b, den)

    def _refine(self, w_num, w_den):
        """A cell (a, b, den) of alpha with (b - a)/den <= w_num/w_den,
        bisecting until it holds."""
        a, b, den = self._cell
        for _ in range(MAX_REFINE + 1):
            if (b - a) * w_den <= w_num * den:
                self._store(a, b, den)
                return a, b, den
            a, b, den = self._halve(a, b, den)
        raise PrecisionExhausted("interval refinement stalled")

    def bounds(self, width):
        """(lo, hi) with hi - lo <= width, bisecting until it holds."""
        a, b, den = self._refine(width.numerator, width.denominator)
        return Fraction(a, den), Fraction(b, den)

    def compare(self, r):
        """Exact sign of r - alpha for a rational r, without refining: the
        isolating interval decides it, or, for r inside it, one sign of the
        squarefree polynomial (its only root there is alpha)."""
        a, b, den = self._cell
        n, d = r.numerator, r.denominator
        if n * den < a * d:
            return -1
        if n * den > b * d:
            return 1
        s = psign(self.poly, n, d)
        return 0 if s == 0 else -1 if s == self._sign_lo else 1

    def is_root_of(self, q):
        """Whether alpha is a root of q, a divisor of the defining
        polynomial: q has at most that one root in the interval, a simple
        one, so it has it exactly when q vanishes at lo (an exact root) or
        changes sign over [lo, hi]."""
        if pdeg(q) < 1:
            return False
        a, b, den = self._cell
        s = psign(q, a, den)
        return s == 0 or s * psign(q, b, den) < 0

    def sign_of_poly(self, q):
        """Exact sign of q(alpha) for an integer polynomial q: zero by a gcd
        with the defining polynomial, otherwise the sign of q on the
        interval once interval Horner decides it (at once on an exact
        root), bisecting until then."""
        q = pnorm(list(q))
        if not q or self.is_root_of(pgcd(list(self.poly), q)):
            return 0
        cell = self._cell
        for _ in range(MAX_REFINE + 1):
            s = _interval_sign(q, *cell)
            if s:
                self._store(*cell)
                return s
            cell = self._halve(*cell)
        raise PrecisionExhausted("sign of polynomial at algebraic point")

    def turn_cell(self, depth):
        """The integer c with c/2^depth < arccos(alpha)/(2*pi) < (c+1)/2^depth,
        for alpha in (-1, 1) with irrational turn (a precondition, not
        checked), whatever was asked before: a deeper cell held from an
        earlier call is shifted down to the asked depth. A depth above
        MAX_REFINE raises CapExceeded.

        Reaching a new depth D bisects against certified cosine enclosures
        up to depth 10, then guesses the cell at depth D by fixed-point
        Newton on cos(2*pi*t) = alpha. The guess is never trusted: the cell
        [g, g + 1] / 2^D is kept only when two kernel comparisons certify
        cos(2*pi*g/2^D) > alpha and not cos(2*pi*(g + 1)/2^D) > alpha. The
        turn is irrational, so it is then the one cell at depth D that
        bisection would reach; otherwise bisection goes on to depth D."""
        if depth > MAX_REFINE:
            raise CapExceeded(depth, MAX_REFINE, "turn cell depth")
        num, held = self._turn
        if held < depth:
            num, held = self._turn_refine(num, held, depth)
        return num >> (held - depth)

    def turn_floor(self, k):
        """floor(k * arccos(alpha)/(2*pi)) for alpha as in turn_cell: the
        cell c at depth D = (4k - 1).bit_length() holds at most one j/k,
        j = floor(k c/2^D) + 1, and one cosine comparison places the turn."""
        depth = (4 * k - 1).bit_length()
        c = self.turn_cell(depth)
        j = (k * c >> depth) + 1
        return j if j << depth < k * (c + 1) and self._cos_exceeds(j, k) else j - 1

    def _turn_refine(self, num, depth, target):
        """The turn cell at depth target inside the cell (num, depth)."""
        while depth < min(target, _BISECT_DEPTH):
            num, depth = self._turn_halve(num, depth)
        if depth < target:
            g = self._turn_guess(num, depth, target)
            b = 1 << target
            if self._cos_exceeds(g, b) and not self._cos_exceeds(g + 1, b):
                num, depth = g, target
                self._turn = (num, depth)
        while depth < target:
            num, depth = self._turn_halve(num, depth)
        return num, depth

    def _turn_halve(self, num, depth):
        mid = 2 * num + 1
        depth += 1
        # cos decreasing: cos(mid) > alpha means mid < turn
        num = mid if self._cos_exceeds(mid, 1 << depth) else mid - 1
        self._turn = (num, depth)
        return num, depth

    def _turn_guess(self, num, depth, target):
        """A cell g at depth target inside (num, depth), from Newton's
        t <- t + (cos(2*pi*t) - alpha) / (2*pi*sin(2*pi*t)) on integers
        t * 2^p, p = target + GUARD, with cos from the kernel and
        sin(2*pi*t) = cos(2*pi*(1/4 - t))."""
        p = target + GUARD
        one = 1 << p
        a, _, den = self._refine(1, one)
        x = (a << p) // den
        two_pi = sum(_pi_scaled(p))  # 2*pi * 2^p, to within 2 units
        lo, hi = num << (p - depth), ((num + 1) << (p - depth)) - 1
        t = (lo + hi) // 2
        for _ in range(_NEWTON_STEPS):
            cos = sum(_cos_scaled(t, one, p)) // 2
            sin = sum(_cos_scaled(abs((one >> 2) - t), one, p)) // 2
            if sin <= 0:
                break
            step = ((cos - x) << (2 * p)) // (two_pi * sin)
            t = min(max(t + step, lo), hi)
            if abs(step) <= 1 << (GUARD // 2):
                break
        return t >> GUARD

    def _cos_exceeds(self, a, b):
        """Whether cos(2*pi*a/b) > alpha for 0 <= a/b <= 1/2, comparing the
        kernel's integer bounds on cos * 2^p with alpha by cross
        multiplication. The first try resolves cos to the bits of b and 8
        more."""
        bits = b.bit_length() + 8
        xa, xb, xden = self._cell
        for _ in range(MAX_REFINE):
            p = bits + GUARD
            clo, chi = _cos_scaled(a, b, p)
            if clo * xden > xb << p:
                return True
            if chi * xden < xa << p:
                return False
            xa, xb, xden = self._refine(1, 1 << bits)
            bits *= 2
        raise PrecisionExhausted("cosine comparison stalled")

    def __repr__(self):
        return f"RealAlgebraic(poly={self.poly}, ({self.lo}, {self.hi}))"


class AlgebraicElement:
    """An element of Q(alpha), alpha a root of a squarefree integer m with
    leading coefficient l: an integer polynomial in y = l*alpha, reduced
    modulo the monic m~(y) = l^(deg m - 1) m(y/l) when divided. It has the
    operators of intmat.congruence_signature: +, - and *, divmod, truth
    (nonzero at alpha) and > 0 (the sign at alpha). A zero divisor narrows
    m~ to the cofactor that keeps y: dynamic evaluation (Della Dora,
    Dicrescenzo and Duval, EUROCAL 1985). The elements of one arc_factors
    call share m~ and y, a RealAlgebraic of their own."""

    def __init__(self, coeffs, ring):
        self.coeffs = coeffs
        self.ring = ring  # [y, m~], m~ narrowed in place

    @classmethod
    def arc_factors(cls, alpha, m):
        """l(1 - alpha) and l(1 + alpha): integers when m is linear."""
        m = pprimitive(m)
        l, d = m[-1], len(m) - 1
        if d == 1:
            return l + m[0], l - m[0]
        m = monic_transform(m)
        ring = [RealAlgebraic(m, l * alpha.lo, l * alpha.hi), m]
        return cls([l, -1], ring), cls([l, 1], ring)

    def __add__(self, other):
        return AlgebraicElement(padd(self.coeffs, other.coeffs), self.ring)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        q = [other] if isinstance(other, int) else other.coeffs
        return AlgebraicElement(pmul(self.coeffs, q), self.ring)

    def __divmod__(self, other):
        """(self/other, r), r = 0 when the quotient lies in Z[y]/(m~): the
        remainders have the divisor's sign, so they sum to 0 only if all do."""
        u, r = ([1], other) if isinstance(other, int) else other._inverse
        qr = [divmod(c, r) for c in pdivmod(pmul(self.coeffs, u), self.ring[1])[1]]
        return AlgebraicElement([q for q, _ in qr], self.ring), sum(x for _, x in qr)

    @cached_property
    def _inverse(self):
        """(u, r) with u*self = r mod m~ for an integer r, by Cramer's rule,
        after m~ drops its factor in common with self (monic, by Gauss)."""
        y, m = self.ring
        g = pgcd(m, self.coeffs)
        if pdeg(g) > 0:
            assert not y.is_root_of(g), "a divisor vanishes at alpha"
            m = self.ring[1] = pdivmod(m, g)[0]
        d = len(m) - 1
        rows = [(pdivmod([0] * i + self.coeffs, m)[1] + [0] * d)[:d] for i in range(d)]
        unit = [1] + [0] * (d - 1)
        return [det(rows[:i] + [unit] + rows[i + 1:]) for i in range(d)], det(rows)

    def __bool__(self):
        return self.ring[0].sign_of_poly(self.coeffs) != 0

    def __gt__(self, other):
        return self.ring[0].sign_of_poly(self.coeffs) > other
