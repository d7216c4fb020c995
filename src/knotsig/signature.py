"""Exact Tristram-Levine signature functions and their circle averages.

For a Seifert matrix A and z on the unit circle, sigma_z is the signature
of the Hermitian matrix H(z) = (1-z)A + (1-conj(z))A^t. Writing z = x + iy
this matrix is (1-x)S - iyT with S = A + A^t and T = A - A^t, so sigma
depends on x = cos(theta) alone.

sigma_z is a step function, constant on the arcs between the unit-circle
roots of the Alexander polynomial. Those breakpoints are the roots in
(-1, 1) of its compactification G in x (polyz.cos_compact), isolated
exactly by Sturm bisection. The ones at roots of unity come from the
cyclotomic factors Phi_d of the Alexander polynomial, searched only over
the d with phi(d) <= its degree; each is found by testing that the
polynomial vanishes at exp(2*pi*i/d) in Z[t]/(t^d - 1), with no Phi_d
built and no division. The same compaction takes Phi_d to
psi_d = cos_minimal_poly(d), so psi_d divides G, and its roots are the
cos(2*pi*j/d) for j coprime to d, 0 < j < d/2, decreasing as j grows.
So, in order of decreasing x, the i-th breakpoint that is a root of psi_d
(one sign change of psi_d over its isolating interval) has the exact turn
j/d for the i-th such j: no cosine is evaluated and no interval refined.

Each arc is sampled at the dyadic x = p/q of least denominator strictly
between its two roots, found by placing candidates against the roots with
one sign of the squarefree G each, so no breakpoint is refined. There the
realification of H is congruent to [[P, T], [-T, P/(1-x^2)]], P = (1-x)S,
of twice the signature, and by diag(I, (1+x)I), times q, to
[[uS, vT], [-vT, vS]], u = q - p, v = q + p. As d = det S = +-Delta(-1)
is odd, Haynsworth's inertia additivity over vS gives 2 sigma = sig S +
sig N/d, N = u d S + v T adj(S) T. N/d is the Schur complement of S in
[[S, T], [-vT, uS]], so every j x j minor of N is d^(j-1) times an
integer, and intmat.congruence_signature signs N/d exactly from the seed
d. A is split once by diagonal_blocks, as the form of a block sum is,
reordered, the block sum of the summands' forms: one Schur step per
block, and at x = -1, where the matrix is 2S, sigma is the sum of the
sig S_b.

At a simple root of G, det H vanishes to first order and the eigenvalues
are analytic in theta (Rellich), so exactly one crosses zero: the adjacent
arc values differ by 2, which is asserted, and the value at the root is
their mean. At a multiple root alpha the congruence still holds, since
1 + alpha > 0: the value is half of sig S + sig N/d at alpha, N over Z
when alpha is rational and else over Q(alpha) (realalg.AlgebraicElement).

Every upper breakpoint is then placed against the k-th roots of unity by
one count, the number of j in 1..k with j/k below its turn: exact for a
rational turn, and from a turn enclosure with no multiple of 1/k inside
for an irrational one. Such an enclosure is a dyadic turn cell
(c/2^D, (c+1)/2^D), which realalg certifies against its integer cosine
kernel (RealAlgebraic.turn_cell); the count reads the integer c by shifts
and compares. The lower breakpoints are the upper ones at the turns
1 - t, in reverse order, so their counts and enclosures are the upper
ones' mirrored; and the arc through z = 1 has value 0, so no sum forms
its count or its measure. A signature at a root of unity is a bisection
in those counts, a root-of-unity average is a sum over their
differences, and the circle integral reduces to certified arc measures:
integers over one common denominator, the lcm of 2^D and the exact
turns' denominators, summed against the arc values in integers.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intmat import congruence_signature, diagonal_blocks, euler_phi
from .polyz import (cos_compact, cos_minimal_poly, isolate_roots, pderiv, pdeg,
                    peval, pgcd, squarefree_part, vanishes_at_root_of_unity)
from .realalg import AlgebraicElement, PrecisionExhausted, RealAlgebraic
from .seifert import SeifertMatrix, alexander_polynomial


@dataclass(frozen=True)
class UnitRootAngle:
    """The point exp(2*pi*i*numerator/denominator) on the unit circle,
    stored reduced with 0 <= numerator < denominator."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        g = gcd(self.numerator, self.denominator) or 1
        object.__setattr__(self, "numerator", self.numerator // g)
        object.__setattr__(self, "denominator", self.denominator // g)
        if not 0 <= self.numerator < self.denominator:
            raise ValueError("angle must satisfy 0 <= j < k after reduction")

    @classmethod
    def of(cls, j, k):
        if k < 1:
            raise ValueError("denominator must be positive")
        return cls(j % k, k)

    @property
    def turn(self):
        return Fraction(self.numerator, self.denominator)

    def conjugate(self):
        return UnitRootAngle.of(-self.numerator, self.denominator)


def tl_signature_at(a: SeifertMatrix, z: UnitRootAngle) -> int:
    """Exact signature of (1-z)A + (1-conj z)A^t at z = e^(2*pi*i*j/k).

    Zero eigenvalues contribute nothing, so the value is well defined even
    at singular points (the unit-circle roots of the Alexander polynomial).
    A lookup in the (cached) step function.
    """
    return signature_function(a).value_at(z)


# breakpoints --------------------------------------------------------------

class CirclePoint:
    """A unit-circle root of the Alexander polynomial.

    The x = cos(theta) coordinate is held exactly (an isolating interval of
    the defining polynomial); the hemisphere flag distinguishes theta from
    2*pi - theta. Points at rational turns (roots of unity) carry their
    exact turn; other turns are available as certified enclosures of any
    requested width.
    """

    __slots__ = ("x", "hemisphere", "exact_turn")

    def __init__(self, x, hemisphere, exact_turn=None):
        self.x = x
        self.hemisphere = hemisphere  # "upper" or "lower"
        self.exact_turn = exact_turn

    def cell(self, depth):
        """The integer c with c/2^depth < theta/(2*pi) < (c+1)/2^depth, for
        an irrational turn: the upper point's cell from
        RealAlgebraic.turn_cell, mirrored for the lower one."""
        c = self.x.turn_cell(depth)
        return c if self.hemisphere == "upper" else (1 << depth) - 1 - c

    def __repr__(self):
        t = self.exact_turn if self.exact_turn is not None else f"{self.cell(10)}/1024"
        return f"CirclePoint(turn~{t}, {self.hemisphere})"


def _depth_for(width):
    """The least depth >= 1 at which a dyadic cell is at most width wide."""
    width = Fraction(width)
    if width <= 0:
        raise PrecisionExhausted("turn enclosure of width <= 0")
    cells = -(-width.denominator // width.numerator)  # ceil(1 / width)
    return max(1, (cells - 1).bit_length())


@lru_cache(maxsize=None)
def _order_candidates(deg):
    """The d >= 3 with phi(d) <= deg, the only orders a cyclotomic factor of
    a degree-deg polynomial can have; phi(d) >= sqrt(d/2) puts them all at
    or below 2 deg^2."""
    return tuple(d for d in range(3, 2 * deg * deg + 1) if euler_phi(d) <= deg)


def _root_of_unity_orders(delta):
    """All d >= 3 with delta(exp(2*pi*i/d)) = 0, i.e. with the d-th
    cyclotomic polynomial dividing delta (polyz.vanishes_at_root_of_unity)."""
    coeffs = list(delta.coeffs)
    return [d for d in _order_candidates(pdeg(coeffs))
            if vanishes_at_root_of_unity(coeffs, d)]


def _compute_breakpoints(a: SeifertMatrix):
    """The breakpoints, upper then lower, and a squarefree polynomial whose
    roots are the multiple roots of G."""
    delta = alexander_polynomial(a)
    g = cos_compact(delta.coeffs)
    gsf = squarefree_part(g)
    repeated = pgcd(gsf, pderiv(g))  # its roots: the multiple roots of G
    assert peval(gsf, 1) != 0 and peval(gsf, -1) != 0
    # increasing theta = decreasing x
    xs = [RealAlgebraic.root_of(gsf, lo, hi)
          for lo, hi in reversed(isolate_roots(gsf, Fraction(-1), Fraction(1)))]
    turns = [None] * len(xs)
    for d in _root_of_unity_orders(delta):
        # psi_d | G; its roots, by decreasing x, are at the turns j/d
        psi = cos_minimal_poly(d)
        roots = [i for i, x in enumerate(xs) if x.is_root_of(psi)]
        js = [j for j in range(1, d // 2 + 1) if gcd(j, d) == 1]
        assert len(roots) == len(js), "psi_d has phi(d)/2 roots in (-1, 1)"
        for i, j in zip(roots, js):
            turns[i] = Fraction(j, d)
    uppers = [CirclePoint(x, "upper", exact_turn=t) for x, t in zip(xs, turns)]
    lowers = [CirclePoint(x, "lower", exact_turn=None if t is None else 1 - t)
              for x, t in zip(reversed(xs), reversed(turns))]
    return uppers + lowers, repeated


# the signature step function ----------------------------------------------

class SignatureFunction:
    """The signature step function of a Seifert matrix.

    breakpoints are ordered by theta in (0, 2*pi); arc_values[i] is the
    constant value on the open arc from breakpoints[i] to breakpoints[i+1],
    the last arc wrapping through theta = 0; point_values[i] is the value
    at breakpoints[i]. With no breakpoints there is a single arc. The value
    at z = 1 is 0 (the matrix there is zero), and the wrap arc value is 0
    as well since the function is continuous off the breakpoint set. Neither
    z = 1 nor z = -1 is a breakpoint: Delta is 1 at 1 and odd at -1.
    The lower points are the upper ones in reverse order, on the same x at
    the turns 1 - t. The k-grid and the circle integral place the upper
    half only and mirror it, and stop before the wrap arc.
    """

    def __init__(self, matrix, breakpoints, arc_values, point_values):
        self.breakpoints = tuple(breakpoints)
        self.arc_values = tuple(arc_values)
        self.point_values = tuple(point_values)
        n = matrix.n
        assert all(abs(v) <= n for v in arc_values)
        assert all(abs(v) <= n for v in point_values)
        # the arc through z = 1 carries the value 0: the function is
        # continuous off the breakpoints and the matrix at z = 1 is zero
        assert arc_values[-1] == 0, "arc through z=1 must vanish"
        half = len(self.breakpoints) // 2
        uppers, lowers = self.breakpoints[:half], self.breakpoints[half:][::-1]
        assert len(self.breakpoints) == 2 * half and all(
            low.x is up.x and low.exact_turn == (
                None if up.exact_turn is None else 1 - up.exact_turn)
            for up, low in zip(uppers, lowers)), "lower points mirror the upper ones"
        self._grids = {}  # k -> _grid(k)

    def value_at(self, z: UnitRootAngle) -> int:
        """Evaluate the step function at a rational turn, using the stored
        arcs and point values (no new signature computation)."""
        j = z.numerator
        below, on_grid = self._grid(z.denominator)
        # the breakpoints at or below j/k; i = 0 reads the wrap arc, where
        # z = 1 lies
        i = bisect_left(below, j)
        if i and on_grid[i - 1] and below[i - 1] == j - 1:
            return self.point_values[i - 1]
        return self.arc_values[i - 1]

    def _grid(self, k):
        """Each breakpoint against the k-th roots of unity: below[i], the
        number of j in 1..k with j/k strictly below its turn, and
        on_grid[i], whether the turn is a multiple of 1/k; computed once
        per k. An exact upper turn n/d gives ceil(k*n/d) - 1 at once, an
        irrational one RealAlgebraic.turn_floor(k). The lower half mirrors
        the upper one: a turn 1 - t has k - 1 - below - on_grid grid
        points below it, on the grid when t is."""
        grid = self._grids.get(k)
        if grid is None:
            below, on_grid = [], []
            for bp in self.breakpoints[:len(self.breakpoints) // 2]:
                t = bp.exact_turn
                if t is None:
                    below.append(bp.x.turn_floor(k))
                    on_grid.append(False)
                else:
                    below.append(-(-k * t.numerator // t.denominator) - 1)
                    on_grid.append(k % t.denominator == 0)
            below += [k - 1 - b - hit for b, hit in zip(below[::-1], on_grid[::-1])]
            on_grid += on_grid[::-1]
            grid = self._grids[k] = (below, on_grid)
        return grid

    def eta_sum(self, k: int) -> int:
        """Sum of the signature over all k-th roots of unity (j = 1..k),
        computed by exact arc counting."""
        if k < 1:
            raise ValueError("k must be positive")
        below, on_grid = self._grid(k)
        # arc i holds the grid points above breakpoint i (itself excluded
        # when on the grid) and below the next; the last arc, through z = 1,
        # has value 0 and goes uncounted
        counts = [e - b - hit for b, e, hit in zip(below, below[1:], on_grid)]
        assert all(c >= 0 for c in counts), "breakpoint counts must not decrease"
        return (sum(v * c for v, c in zip(self.arc_values, counts))
                + sum(v for v, hit in zip(self.point_values, on_grid) if hit))


def _simplest_dyadic(lo, hi):
    """The dyadic m/2^k in the open interval (lo, hi) with the least k, and
    the least m at that k."""
    k = 0
    while True:
        m = (lo.numerator << k) // lo.denominator + 1
        if m * hi.denominator < hi.numerator << k:
            return Fraction(m, 1 << k)
        k += 1


def _dyadic_between(below, above):
    """The dyadic of least denominator strictly between two real algebraic
    numbers below < above; above = None stands for 1.

    The search starts from the outer endpoints of the two isolating
    intervals. A candidate is placed against each root by
    RealAlgebraic.compare, which reads the sign of the squarefree
    polynomial and refines nothing. A candidate on the wrong side of a root
    becomes the new bound. The interval's least denominator then grows, so
    the search ends, at the simplest dyadic of the arc itself."""
    lo, hi = below.lo, Fraction(1) if above is None else above.hi
    while True:
        d = _simplest_dyadic(lo, hi)
        if below.compare(d) <= 0:
            lo = d
        elif above is not None and above.compare(d) >= 0:
            hi = d
        else:
            return d


def _schur_blocks(a):
    """(sig S_b, d_b = det S_b, S_b, W_b = T_b adj(S_b) T_b) for each A_b of
    diagonal_blocks(A), S_b = A_b + A_b^t, T_b = A_b - A_b^t: the n_b
    leading pivots of [[S_b, T_b], [-T_b, 0]] and the block they leave."""
    blocks = []
    for blk in diagonal_blocks(a.as_lists()):
        n = len(blk)
        s = [[x + y for x, y in zip(row, col)] for row, col in zip(blk, zip(*blk))]
        t = [[x - y for x, y in zip(row, col)] for row, col in zip(blk, zip(*blk))]
        w = [sr + tr for sr, tr in zip(s, t)] + [[-x for x in tr] + [0] * n for tr in t]
        sig, d = congruence_signature(w, pivots=n)
        assert len(w) == n and d % 2, "det S_b = +-Delta_b(-1) is odd"
        blocks.append((sig, d, s, w))
    return blocks


def _form_value(blocks, u, v):
    """sigma at cos(theta) = x in (-1, 1), given u = c(1-x), v = c(1+x) and
    c > 0: half the sum over the _schur_blocks of sig S + sig N/d."""
    doubled = 0
    for sig, d, s, w in blocks:
        form = [[u * (d * x) + v * y for x, y in zip(srow, wrow)] for srow, wrow in zip(s, w)]
        doubled += sig + congruence_signature(form, divisor=d)[0]
    assert doubled % 2 == 0, "a realified Hermitian form has even signature"
    return doubled // 2


@lru_cache(maxsize=None)
def signature_function(a: SeifertMatrix) -> SignatureFunction:
    """Compute the full signature step function: exact breakpoints, one
    sampled value per open arc, and exact values at the breakpoints.

    sigma depends on x = cos(theta) alone, so each upper arc is sampled at
    the simplest dyadic x = p/q between its breakpoints (the arc through
    z = 1 between the largest root and 1) by _form_value with u = q - p,
    v = q + p, and the arc through theta = pi is the sum of the sig S_b.
    At a simple root of G one eigenvalue crosses zero (Rellich), so the
    adjacent arcs differ by exactly 2 and the point value is their mean.
    At a multiple root of G the point value is half the signature of the
    same form at the root itself. Lower arcs and points mirror the upper
    ones (sigma(conj z) = sigma(z)).
    """
    blocks = _schur_blocks(a)
    bps, repeated = _compute_breakpoints(a)
    through_pi = sum(sig for sig, *_ in blocks)
    if not bps:
        return SignatureFunction(a, (), (through_pi,), ())
    uppers = [bp.x for bp in bps[:len(bps) // 2]]  # decreasing x
    xs = [_dyadic_between(below, above) for above, below in zip([None] + uppers, uppers)]
    wrap, *upper_arcs = [_form_value(blocks, x.denominator - x.numerator,
                                     x.denominator + x.numerator) for x in xs]
    # around[i] and around[i + 1] are the arcs on either side of uppers[i]
    around = [wrap] + upper_arcs + [through_pi]
    upper_points = []
    for x, before, after in zip(uppers, around, around[1:]):
        if x.is_root_of(repeated):
            upper_points.append(
                _form_value(blocks, *AlgebraicElement.arc_factors(x, repeated)))
        else:
            assert abs(before - after) == 2, "a simple root moves one eigenvalue"
            upper_points.append((before + after) // 2)
    arc_values = upper_arcs + [through_pi] + upper_arcs[::-1] + [wrap]
    return SignatureFunction(a, bps, arc_values, upper_points + upper_points[::-1])


# eta invariants and approximation ------------------------------------------

def eta_cyclic(a: SeifertMatrix, k: int) -> int:
    """Sum of sigma over the k-th roots of unity e^(2*pi*i*j/k), j = 1..k
    (the term j = k is z = 1 and contributes 0)."""
    return signature_function(a).eta_sum(k)


def l2_eta_cyclic(a: SeifertMatrix, k: int) -> Fraction:
    """eta_cyclic(a, k) / k as an exact rational."""
    return Fraction(eta_cyclic(a, k), k)


def l2_eta_abelian(a: SeifertMatrix, eps):
    """A certified interval of width <= eps containing the integral of the
    signature function over the circle with normalized Haar measure (total
    mass 1). Each upper turn is enclosed in integers over one denominator
    den = lcm(2^D, the exact turns' denominators), D the depth of cells at
    most eps/(4 W) wide, W the sum of |v| + 1 over the arc values v (D = 0
    when every turn is exact), and a lower turn 1 - t in the mirrored
    (den - hi, den - lo). The arc through z = 1 has value 0, so its measure
    is not formed."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    sf = signature_function(a)
    weight = sum(abs(v) + 1 for v in sf.arc_values)
    # each arc measure is at most 2 * width wide, so hi - lo <= eps / 2
    width = eps / (4 * weight)
    uppers = sf.breakpoints[:len(sf.breakpoints) // 2]
    exact = [bp.exact_turn for bp in uppers]  # lower turns: the same denominators
    depth = _depth_for(width) if None in exact else 0
    den = lcm(1 << depth, *(t.denominator for t in exact if t is not None))
    step = den >> depth  # a cell's width over den
    encl = []
    for bp, t in zip(uppers, exact):
        if t is None:
            c = bp.cell(depth) * step
            encl.append((c, c + step))
        else:
            n = t.numerator * (den // t.denominator)
            encl.append((n, n))
    encl += [(den - hi, den - lo) for lo, hi in encl[::-1]]
    lo = hi = 0
    for v, (blo, bhi), (elo, ehi) in zip(sf.arc_values, encl, encl[1:]):
        mlo, mhi = max(0, elo - bhi), ehi - blo
        if v >= 0:
            lo += v * mlo
            hi += v * mhi
        else:
            lo += v * mhi
            hi += v * mlo
    lo, hi = Fraction(lo, den), Fraction(hi, den)
    assert hi - lo <= eps
    return lo, hi


@dataclass(frozen=True)
class ApproxRow:
    k: int
    average: Fraction
    gap_lo: Fraction
    gap_hi: Fraction


def approximation_table(a: SeifertMatrix, schedule, eps):
    """Rows (k, eta_cyclic(a,k)/k, |average - integral| bounds) for each k
    in the schedule; the gap interval accounts for the integral enclosure."""
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(b <= a_ for a_, b in zip(schedule, schedule[1:])) or any(k < 1 for k in schedule):
        raise ValueError("schedule must be strictly increasing and positive")
    ilo, ihi = l2_eta_abelian(a, eps)
    rows = []
    for k in schedule:
        avg = l2_eta_cyclic(a, k)
        if ilo <= avg <= ihi:
            glo = Fraction(0)
        else:
            glo = min(abs(avg - ilo), abs(avg - ihi))
        ghi = max(abs(avg - ilo), abs(avg - ihi))
        rows.append(ApproxRow(k, avg, glo, ghi))
    return rows


def factorial_schedule(top):
    """[2!, 3!, ..., top!]"""
    out = []
    f = 1
    for i in range(2, top + 1):
        f *= i
        out.append(f)
    return out
