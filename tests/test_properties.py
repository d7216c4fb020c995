"""Hypothesis-driven invariant checks, complementing the bulk randomized
suites in test_acceptance.py."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotsig import (UnitRootAngle, alexander_polynomial, arf_invariant,
                     block_sum, eta_cyclic, signature_function,
                     tl_signature_at, validate_seifert)
from knotsig.alexmod import torsion_order_by_resultant
from knotsig.polyz import (char_poly, cos_compact, cos_minimal_poly, cyclotomic,
                           isolate_roots, padd, palindromic_compact, pdeg,
                           pdivmod, peval, pgcd, pmul, pnorm,
                           pprimitive, psign, squarefree_part, sturm_chain,
                           sturm_count, vanishes_at_root_of_unity)
from knotsig.intmat import (congruence_signature, det, diagonal_blocks,
                            euler_phi, identity, kron,
                            mat_mul, mat_pow_mod, mat_sub, prime_factorization,
                            smith_form, transpose)
from knotsig.realalg import cos_turn_bounds, RealAlgebraic

import oracles
from conftest import (SLICE4, TREFOIL, conjugate, random_interesting_seifert, random_seifert,
                      torus_seifert)
from oracles import pdivides, pi_bounds, sign_at_cos_turn, xgcd


@st.composite
def small_seifert(draw):
    genus = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 10 ** 6))
    return random_interesting_seifert(random.Random(seed), genus)


@st.composite
def angles(draw):
    k = draw(st.integers(1, 48))
    j = draw(st.integers(0, k - 1))
    return UnitRootAngle.of(j, k)


class TestSignatureInvariants:
    @given(small_seifert(), angles())
    @settings(max_examples=120, deadline=None)
    def test_bound_and_conjugation(self, a, z):
        v = tl_signature_at(a, z)
        assert abs(v) <= a.n
        assert v == tl_signature_at(a, z.conjugate())

    @given(small_seifert(), angles())
    @settings(max_examples=80, deadline=None)
    def test_step_function_lookup_matches_pointwise(self, a, z):
        assert signature_function(a).value_at(z) == \
            oracles.tl_signature_by_cos_enclosure(a, z)

    @given(small_seifert(), small_seifert(), angles())
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b, z):
        ab = block_sum(a, b)
        assert tl_signature_at(ab, z) == tl_signature_at(a, z) + tl_signature_at(b, z)

    @given(small_seifert(), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_eta_sum_matches_direct(self, a, k):
        direct = sum(oracles.tl_signature_by_cos_enclosure(a, UnitRootAngle.of(j, k))
                     for j in range(1, k + 1))
        assert eta_cyclic(a, k) == direct


@st.composite
def repeated_sums(draw):
    """K # K or K # K # K for a random K of genus 1-3, conjugated or not: G
    has multiple roots wherever K has breakpoints. Unconjugated, the forms
    over Q(alpha) at those roots split into one block per summand."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    k = random_interesting_seifert(rng, draw(st.integers(1, 3)))
    out = block_sum(k, k)
    if draw(st.booleans()):
        out = block_sum(out, k)
    return conjugate(rng, out) if draw(st.booleans()) else out


class TestMultipleRootPoints:
    @given(repeated_sums())
    @settings(max_examples=25, deadline=None)
    def test_point_values_against_descartes_route(self, a):
        # the elimination over Z or Q(alpha) at each root against Descartes'
        # rule on the characteristic polynomial of H at that x
        sf = signature_function.__wrapped__(a)  # uncached
        for bp, value in zip(sf.breakpoints, sf.point_values):
            assert value == oracles._signature_at_x(a, bp.x.sign_of_poly), a.entries


class TestAlexanderInvariants:
    @given(small_seifert())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_unit_value(self, a):
        p = alexander_polynomial(a)
        assert p(1) == 1
        assert p.is_palindromic()

    @given(small_seifert())
    @settings(max_examples=60, deadline=None)
    def test_arf_is_a_bit(self, a):
        assert arf_invariant(a) in (0, 1)


@st.composite
def seifert_up_to_genus(draw, genus_max=6):
    """A Seifert matrix of genus 0..genus_max: random or biased toward
    unit-circle Alexander roots, conjugated or not, or a block sum of two."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if genus_max >= 2 and draw(st.booleans()):
        g = draw(st.integers(1, genus_max - 1))
        return block_sum(draw(seifert_up_to_genus(genus_max=g)),
                         draw(seifert_up_to_genus(genus_max=genus_max - g)))
    genus = draw(st.integers(0, genus_max))
    conjugate = draw(st.booleans())
    if draw(st.booleans()):
        return random_interesting_seifert(rng, genus, conjugate=conjugate)
    return random_seifert(rng, genus, bound=draw(st.integers(1, 5)),
                          conjugate=conjugate)


@st.composite
def seifert_with_doubles(draw):
    """A conjugated genus 1..4 matrix biased toward unit-circle roots, or a
    block sum K # K of one of genus 1..2, whose roots are all repeated."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        k = random_interesting_seifert(rng, draw(st.integers(1, 2)))
        return block_sum(k, k)
    return random_interesting_seifert(rng, draw(st.integers(1, 4)))


class TestArcSamples:
    """Every arc value against the congruence oracle at another rational
    cos(theta) inside the arc, with no characteristic polynomial."""

    @given(seifert_with_doubles(),
           st.fractions(min_value=0, max_value=1, max_denominator=50)
           .filter(lambda t: 0 < t < 1))
    @settings(max_examples=80, deadline=None)
    def test_arcs_against_congruence_oracle(self, a, t):
        sf = signature_function(a)
        u = len(sf.breakpoints) // 2
        xs = [bp.x for bp in sf.breakpoints[:u]]  # decreasing cos(theta)
        # the arc through theta = pi, the only arc without breakpoints
        assert sf.arc_values[u - 1 if u else 0] == \
            oracles.tl_signature_by_congruence(a, Fraction(-1))
        if not u:
            return
        for i, (x, x_next) in enumerate(zip(xs, xs[1:])):
            # isolating intervals share at most endpoints, none a root
            sample = x_next.hi + t * (x.lo - x_next.hi)
            assert sf.arc_values[i] == oracles.tl_signature_by_congruence(a, sample)
        assert sf.arc_values[u - 1] == \
            oracles.tl_signature_by_congruence(a, -1 + t * (xs[-1].lo + 1))
        assert sf.arc_values[-1] == 0 == \
            oracles.tl_signature_by_congruence(a, xs[0].hi + t * (1 - xs[0].hi))
        # sigma(conj z) = sigma(z): the lower half mirrors the upper one
        assert sf.arc_values[u:-1] == sf.arc_values[:u - 1][::-1]
        assert sf.point_values[u:] == sf.point_values[:u][::-1]


@st.composite
def symmetric_matrices(draw):
    """Random symmetric integer matrices up to 9 x 9: a plain one, one with
    an all-zero diagonal, a singular one (B^t D B with B of lower rank) or
    one with a zero diagonal block."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["plain", "zero_diagonal", "singular", "zero_block"]))
    entries = st.integers(-4, 4)
    if kind == "singular" and n:
        r = draw(st.integers(0, n - 1))
        b = [[draw(entries) for _ in range(n)] for _ in range(r)]
        d = [draw(entries) for _ in range(r)]
        return [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)]
                for i in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    if kind == "zero_diagonal":
        for i in range(n):
            m[i][i] = 0
    elif kind == "zero_block":
        z = draw(st.integers(0, n))
        for i in range(z):
            for j in range(z):
                m[i][j] = 0
    return m


class TestCongruenceSignature:
    @given(symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_against_rational_elimination(self, m):
        assert congruence_signature(m) == oracles.symmetric_signature(m)

    def test_edge_cases(self):
        assert congruence_signature([]) == 0
        assert congruence_signature([[0]]) == 0
        assert congruence_signature([[0, 1], [1, 0]]) == 0  # hyperbolic plane
        assert congruence_signature([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) == 0
        assert congruence_signature([[-3]]) == -1
        assert congruence_signature([[2, 1], [1, 2]]) == 2


@st.composite
def square_matrices(draw):
    """Random integer matrices up to 5 x 5, some with zero rows."""
    n = draw(st.integers(0, 5))
    zero = draw(st.sets(st.integers(0, 4), max_size=2))
    return [[0 if i in zero else draw(st.integers(-4, 4)) for _ in range(n)]
            for i in range(n)]


@st.composite
def permuted_block_sums(draw, blocks):
    """(M, [B_1, ..]): the block sum of one to three matrices drawn from
    `blocks` or all zero, its rows and columns reordered by one random
    permutation."""
    zero = st.integers(1, 3).map(lambda k: [[0] * k for _ in range(k)])
    parts = draw(st.lists(st.one_of(blocks, zero), min_size=1, max_size=3))
    # (block, index in it) for every row of the sum, in a random order
    order = draw(st.permutations([(b, i) for b, part in enumerate(parts)
                                  for i in range(len(part))]))
    m = [[parts[b][i][j] if b == c else 0 for c, j in order] for b, i in order]
    return m, parts


class TestDiagonalBlocks:
    """A simultaneous permutation of rows and columns is a congruence and a
    similarity: the signature of a reordered block sum is the sum of the
    blocks' and its characteristic polynomial their product."""

    @given(permuted_block_sums(symmetric_matrices()))
    @settings(max_examples=150, deadline=None)
    def test_signature_adds_over_blocks(self, case):
        m, parts = case
        expected = oracles.symmetric_signature(m)
        assert congruence_signature(m) == expected
        assert sum(map(congruence_signature, parts)) == expected

    @given(permuted_block_sums(square_matrices()))
    @settings(max_examples=150, deadline=None)
    def test_char_poly_multiplies_over_blocks(self, case):
        m, parts = case
        expected = oracles.char_poly_by_interpolation(m)
        assert char_poly(m) == expected
        product = [1]
        for part in parts:
            product = pmul(product, char_poly(part))
        assert product == expected

    def test_blocks_of_a_reordered_sum(self):
        # 0 and 2 are joined by entry (0, 2) alone, 1 and 3 by (3, 1) alone
        m = [[1, 0, 2, 0], [0, 0, 0, 0], [0, 0, 3, 0], [0, 5, 0, 0]]
        assert diagonal_blocks(m) == [[[1, 2], [0, 3]], [[0, 0], [5, 0]]]
        assert diagonal_blocks([]) == []
        assert diagonal_blocks([[0, 0], [0, 0]]) == [[[0]], [[0]]]


class TestArfInvariant:
    """Levine's det(A + A^t) mod 8 against the Arf sum over a symplectic
    basis."""

    @given(seifert_up_to_genus())
    @settings(max_examples=150, deadline=None)
    def test_matches_symplectic_oracle(self, a):
        assert arf_invariant(a) == oracles.arf_by_symplectic_basis(a)


class TestCertifiedEnclosures:
    def test_pi_bounds_tighten(self):
        enclosures = []
        for bits in (16, 64, 256):
            lo, hi = pi_bounds(bits)
            assert lo < hi
            assert hi - lo <= Fraction(1, 2 ** (bits - 1))
            enclosures.append((lo, hi))
        # every enclosure contains pi, so all pairs must overlap
        for lo1, hi1 in enclosures:
            for lo2, hi2 in enclosures:
                assert max(lo1, lo2) < min(hi1, hi2)
        lo, hi = enclosures[0]
        assert float(lo) <= math.pi <= float(hi)
        assert lo < Fraction(355, 113) < hi  # pi is within 3e-7 of 355/113

    @given(st.integers(1, 400), st.integers(1, 400))
    @settings(max_examples=120, deadline=None)
    def test_cos_enclosure_contains_float_cos(self, j, k):
        turn = Fraction(j % k, k)
        lo, hi = cos_turn_bounds(turn, 40)
        ref = math.cos(2 * math.pi * float(turn))
        assert float(lo) - 1e-9 <= ref <= float(hi) + 1e-9
        assert hi - lo <= Fraction(1, 2 ** 38)


class TestRootIsolation:
    @given(st.lists(st.integers(-6, 6), min_size=3, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_isolation_consistent_with_sturm_count(self, coeffs):
        from knotsig.polyz import squarefree_part, pnorm, pdeg
        p = pnorm(coeffs)
        if pdeg(p) < 1:
            return
        p = squarefree_part(p)
        if pdeg(p) < 1 or peval(p, Fraction(-1)) == 0 or peval(p, Fraction(1)) == 0:
            return
        ivs = isolate_roots(p, Fraction(-1), Fraction(1))
        chain = sturm_chain(p)
        assert len(ivs) == sturm_count(chain, Fraction(-1), Fraction(1))
        for lo, hi in ivs:
            assert peval(p, lo) * peval(p, hi) < 0
            assert sturm_count(chain, lo, hi) == 1
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 <= a2

    def test_each_point_evaluated_once(self, monkeypatch):
        import knotsig.polyz as polyz
        calls = []

        def counting(p, num, den=1):
            calls.append((tuple(p), num, den))
            return psign(p, num, den)

        monkeypatch.setattr(polyz, "psign", counting)
        polys = [[-3, 1, 10]]  # roots -3/5, the first split point, and 1/2
        for genus in (4, 6):
            for seed in range(3):
                a = random_interesting_seifert(random.Random(seed), genus)
                polys.append(squarefree_part(cos_compact(alexander_polynomial(a).coeffs)))
        found = 0
        for p in polys:
            calls.clear()
            found += len(isolate_roots(p, Fraction(-1), Fraction(1)))
            assert len(calls) == len(set(calls)), p
        assert found > len(polys)

    def test_real_algebraic_sign_against_floats(self):
        rng = random.Random(77)
        for _ in range(60):
            # a squarefree cubic with a root in (-1, 1)
            c = [rng.randint(-5, 5) for _ in range(4)]
            from knotsig.polyz import squarefree_part, pnorm, pdeg
            p = squarefree_part(pnorm(c))
            if pdeg(p) < 1:
                continue
            if peval(p, Fraction(-1)) == 0 or peval(p, Fraction(1)) == 0:
                continue
            for lo, hi in isolate_roots(p, Fraction(-1), Fraction(1)):
                alpha = RealAlgebraic.root_of(p, lo, hi)
                q = [rng.randint(-4, 4) for _ in range(3)]
                sign = alpha.sign_of_poly(q)
                flo, fhi = alpha.bounds(Fraction(1, 2 ** 40))
                approx = peval(q, Fraction((flo + fhi) / 2))
                if abs(approx) > Fraction(1, 2 ** 20):
                    assert sign == (approx > 0) - (approx < 0)

    def test_is_root_of_divisors(self):
        # the roots of psi_5 psi_7 psi_12 psi_6 are the cos(2 pi j/d); each
        # is a root of exactly one factor, which is found without refining
        orders = (5, 7, 12, 6)
        p = [1]
        for d in orders:
            p = pmul(p, list(cos_minimal_poly(d)))
        found = {d: 0 for d in orders}
        for lo, hi in isolate_roots(p, Fraction(-1), Fraction(1)):
            alpha = RealAlgebraic.root_of(p, lo, hi)
            hits = [d for d in orders if alpha.is_root_of(cos_minimal_poly(d))]
            assert len(hits) == 1 and (alpha.lo, alpha.hi) == (lo, hi)
            assert not alpha.is_root_of([3]) and not alpha.is_root_of([])
            found[hits[0]] += 1
            alpha.bounds(Fraction(1, 2 ** 30))
            assert [d for d in orders if alpha.is_root_of(cos_minimal_poly(d))] == hits
            assert alpha.sign_of_poly(cos_minimal_poly(hits[0])) == 0
        assert found == {d: euler_phi(d) // 2 for d in orders}
        # x = 1/2, the root of psi_6, isolated by (7/16, 9/16): the first
        # midpoint is x, which becomes an exact root, lo = hi
        lo, hi, w = Fraction(7, 16), Fraction(9, 16), Fraction(1, 2 ** 30)
        alpha = RealAlgebraic.root_of(p, lo, hi)
        want = oracles.bisect_by_fractions(p, lo, hi, w)
        assert alpha.bounds(w) == want == (Fraction(1, 2), Fraction(1, 2))
        assert [d for d in orders if alpha.is_root_of(cos_minimal_poly(d))] == [6]
        assert not alpha.is_root_of([3]) and not alpha.is_root_of([])
        # q vanishing at x or not, a divisor of p or not: q's sign at x
        for q in [cos_minimal_poly(d) for d in orders] + [[-1, 0, 4], [1, -3], [5]]:
            v = peval(q, Fraction(1, 2))
            assert alpha.sign_of_poly(q) == (v > 0) - (v < 0)
        assert alpha.sign_of_poly([]) == 0
        # bounds on an exact root refines nothing more
        assert alpha.bounds(Fraction(1, 2 ** 60)) == want == (alpha.lo, alpha.hi)


class TestIntegerRefinement:
    """Signs and bisection on integers (psign, RealAlgebraic) against the
    Fraction routes of the oracles, which they must match exactly."""

    @given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-10 ** 6, 10 ** 6),
           st.integers(1, 10 ** 6), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_psign_against_fraction_horner(self, coeffs, num, den, vanish):
        p = pnorm(coeffs)
        if vanish:  # a root at num/den, and so a zero sign
            p = pmul(p or [1], [-num, den])
        want = peval(p, Fraction(num, den))
        assert psign(p, num, den) == (want > 0) - (want < 0)
        assert psign(p, num) == psign(p, num, 1)

    @staticmethod
    def _roots(rng, count):
        """Squarefree polynomials with their isolating intervals in (-1, 1),
        dyadic and other rational roots among them, so that a midpoint can
        land on the root."""
        polys = [[-1, 4], [1, 0, -4], pmul([-1, 8], [-2, 0, 1]), pmul([1, 3], [-3, 8])]
        while len(polys) < count:
            p = squarefree_part(pnorm([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))]))
            if pdeg(p) >= 1 and peval(p, -1) and peval(p, 1):
                polys.append(p)
        return [(p, lo, hi) for p in polys for lo, hi in isolate_roots(p, -1, 1)]

    def test_bounds_against_fraction_bisection(self):
        widths = [Fraction(1, 2 ** k) for k in range(0, 90, 7)] + [Fraction(3, 1000), Fraction(1, 10 ** 20)]
        exact = 0
        for p, lo, hi in self._roots(random.Random(83), 40):
            walked = RealAlgebraic.root_of(p, lo, hi)
            for w in sorted(widths, reverse=True):
                want = oracles.bisect_by_fractions(p, lo, hi, w)
                assert RealAlgebraic.root_of(p, lo, hi).bounds(w) == want
                assert walked.bounds(w) == want
                assert (walked.lo, walked.hi) == want
                # lo and hi lie below and above alpha, or are alpha once it is
                # exact; a rational outside [lo, hi] is placed by the ends
                a, b = want
                assert walked.compare(a) == (0 if a == b else -1)
                assert walked.compare(b) == (0 if a == b else 1)
                assert walked.compare(a - w) == -1 and walked.compare(b + w) == 1
                exact += a == b
        assert exact > 0

    def test_sign_of_poly_against_fraction_interval_horner(self):
        rng = random.Random(89)
        seen = 0
        for p, lo, hi in self._roots(rng, 40):
            # a nearby polynomial: its root, if any, lies close to alpha
            q = padd(p, [rng.choice([-1, 1])] + [0] * rng.randint(0, 3))
            if pgcd(p, q) != [1]:
                continue
            alpha = RealAlgebraic.root_of(p, lo, hi)
            a, b = lo, hi
            while True:
                vlo, vhi = oracles.poly_eval_interval(q, a, b)
                if vlo > 0 or vhi < 0:
                    break
                a, b = oracles.bisect_by_fractions(p, a, b, (b - a) / 2)
                # a midpoint at a rational root: then the sign is q's there
            assert alpha.sign_of_poly(q) == (1 if vlo > 0 else -1)
            assert (alpha.lo, alpha.hi) == (a, b)
            assert (alpha.lo == alpha.hi) == (a == b)
            seen += a == b
        assert seen >= 2


class TestConcurrency:
    def test_parallel_queries_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor
        from knotsig import eta_cyclic, l2_eta_abelian, signature_function

        rng = random.Random(59)
        mats = [random_interesting_seifert(rng, 2) for _ in range(4)]
        jobs = [(a, k) for a in mats for k in (6, 24, 120, 720)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda job: eta_cyclic(*job), jobs))
        # fresh caches for the sequential pass
        signature_function.cache_clear()
        sequential = [eta_cyclic(a, k) for a, k in jobs]
        assert parallel == sequential
        for a in mats:
            lo, hi = l2_eta_abelian(a, Fraction(1, 10 ** 6))
            assert hi - lo <= Fraction(1, 10 ** 6)


class TestHighPrecisionOracles:
    """mpmath at 50+ digits as an independent numerical oracle for the
    certified enclosures, and determinant interpolation as an independent
    route to the symbolic characteristic polynomial."""

    def test_pi_bounds_against_mpmath(self):
        import mpmath
        mpmath.mp.dps = 80
        ref = Fraction(mpmath.nstr(mpmath.mp.pi, 70))
        tol = Fraction(1, 10 ** 65)
        for bits in (32, 128, 200):
            lo, hi = pi_bounds(bits)
            assert lo <= ref + tol and ref - tol <= hi

    def test_cos_bounds_against_mpmath(self):
        import mpmath
        mpmath.mp.dps = 60
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randrange(1, 1000)
            j = rng.randrange(k)
            turn = Fraction(j, k)
            lo, hi = cos_turn_bounds(turn, 120)
            ref = Fraction(mpmath.nstr(
                mpmath.cos(2 * mpmath.pi * mpmath.mpf(j) / k), 50))
            tol = Fraction(1, 10 ** 45)
            assert lo <= ref + tol and ref - tol <= hi
            assert hi - lo <= Fraction(1, 2 ** 118)

    def test_char_poly_against_determinant_interpolation(self):
        # two oracles against each other: tl_signature_by_cos_enclosure
        # counts signs on _char_poly_in_x
        from knotsig.polyz import peval
        from oracles import _char_poly_in_x, char_poly_at_x_by_interpolation
        rng = random.Random(29)
        xs = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
              Fraction(-3, 4), Fraction(7, 9)]
        for _ in range(10):
            a = random_interesting_seifert(rng, rng.choice([1, 2]))
            coeffs = _char_poly_in_x(a)
            for x in xs:
                direct = [peval(list(c), x) for c in coeffs]
                oracle = char_poly_at_x_by_interpolation(a, x)
                assert direct == oracle, (a.entries, x)
        # conjugated genus 6 and 8: 13 and 17 interpolation nodes, the
        # largest degrees in z the integer route has to recover
        for genus in (6, 8):
            a = random_interesting_seifert(rng, genus)
            coeffs = _char_poly_in_x(a)
            for x in (Fraction(1, 3), Fraction(-3, 4)):
                direct = [peval(list(c), x) for c in coeffs]
                oracle = char_poly_at_x_by_interpolation(a, x)
                assert direct == oracle, (a.entries, x)


class TestIntegerKernel:
    """The fixed-point cosine and pi kernel against mpmath carried 96 bits
    beyond the requested precision, on turns where the reduction or the
    series is at an edge: next to 0, 1/4 and 1/2, with huge binary and
    decimal denominators, negative and above 1."""

    EPS2, EPS10 = Fraction(1, 2 ** 40), Fraction(1, 10 ** 30)
    TURNS = [EPS2, EPS10, Fraction(1, 4) - EPS2, Fraction(1, 4) + EPS10,
             Fraction(1, 2) - EPS2, Fraction(1, 2) - EPS10,
             Fraction(123456789, 2 ** 40), Fraction(10 ** 29 + 7, 10 ** 30),
             -EPS2, -Fraction(1, 4) - EPS10, -Fraction(7, 2) + EPS2,
             1 + EPS10, Fraction(29, 4) - EPS2, 5 - EPS10, Fraction(3, 2) + EPS2]

    @staticmethod
    def _dyadic(x, bits):
        """x rounded down to a multiple of 2**-(bits + 96), as a Fraction."""
        import mpmath
        return Fraction(int(mpmath.floor(mpmath.ldexp(x, bits + 96))), 2 ** (bits + 96))

    @pytest.mark.parametrize("bits", [512, 2048])
    def test_cos_against_mpmath(self, bits):
        import mpmath
        with mpmath.workprec(bits + 96):
            for turn in self.TURNS:
                lo, hi = cos_turn_bounds(turn, bits)
                ref = mpmath.cos(2 * mpmath.pi * mpmath.mpf(turn.numerator) / turn.denominator)
                ref, tol = self._dyadic(ref, bits), Fraction(1, 2 ** (bits + 90))
                assert lo <= ref + tol and ref - tol <= hi, (turn, bits)
                assert -1 <= lo <= hi <= 1

    def test_width_contract(self):
        # turns shifted by a whole turn are keys no other test caches, and
        # bits increase, so the per-turn cache never answers for the kernel
        for turn in [t + 11 for t in self.TURNS + [Fraction(1, 7), Fraction(3, 7)]]:
            bits = 16
            while bits <= 4096:
                lo, hi = cos_turn_bounds(turn, bits)
                assert hi - lo <= Fraction(4, 2 ** bits), (turn, bits)
                bits *= 2

    @pytest.mark.parametrize("bits", [1024, 4096])
    def test_pi_against_mpmath(self, bits):
        import mpmath
        with mpmath.workprec(bits + 96):
            ref = self._dyadic(+mpmath.pi, bits)
        lo, hi = pi_bounds(bits)
        tol = Fraction(1, 2 ** (bits + 90))
        assert lo <= ref + tol and ref - tol <= hi
        assert hi - lo <= Fraction(2, 2 ** bits)


class TestPalindromicCompact:
    @given(st.lists(st.integers(-4, 4), max_size=7), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, w, extra):
        # p(t) = t^m W(t + 1/t) = sum_j w_j t^(m-j) (t^2 + 1)^j; zero
        # coefficients in W are the case the reduction must survive. With
        # extra > 0 (or zero top coefficients of W) p has as many zero
        # bottom as top coefficients about degree m; stripped, it is
        # palindromic of even degree
        m = max(len(w) - 1, 0) + extra
        p = []
        binom = [1]
        for j, c in enumerate(w):
            p = padd(p, [0] * (m - j) + [c * b for b in binom])
            binom = pmul(binom, [1, 0, 1])
        assert palindromic_compact(p[2 * m + 1 - len(p):]) == pnorm(w)

    def test_zero_coefficients(self):
        # Phi_12 = t^4 - t^2 + 1 = t^2 ((t + 1/t)^2 - 3); cos(2 pi/12)
        # is a root of 4x^2 - 3
        assert palindromic_compact([1, 0, -1, 0, 1]) == [-3, 0, 1]
        assert cos_minimal_poly(12) == (-3, 0, 4)
        # -2t^4 + 5t^2 - 2, the Alexander polynomial in TestCompactForm
        assert palindromic_compact([-2, 0, 5, 0, -2]) == [9, 0, -2]
        assert palindromic_compact([1]) == [1]
        assert palindromic_compact([]) == []
        # these cyclotomic polynomials all have zero coefficients
        for d in (8, 9, 12, 16, 18, 20, 24, 25, 27, 36):
            psi = list(cos_minimal_poly(d))
            assert len(psi) - 1 == euler_phi(d) // 2
            assert sign_at_cos_turn(psi, Fraction(1, d)) == 0

    def test_cos_compact_keeps_divisors(self):
        # the compaction is multiplicative up to content, so Phi_d | Delta
        # gives psi_d | G
        for d in range(3, 40):
            assert tuple(cos_compact(cyclotomic(d))) == cos_minimal_poly(d)
        rng = random.Random(1301)
        for _ in range(40):
            f, g = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
            f, g = f + f[-2::-1], g + g[-2::-1]  # palindromic of degree 4
            if not f[0] or not g[0]:
                continue
            fg = cos_compact(pmul(f, g))
            assert fg == pprimitive(pmul(cos_compact(f), cos_compact(g)))
            assert pdivides(cos_compact(f), fg)

    def test_rejects_non_palindromic(self):
        for p in ([1, 2], [1, 2, 3], [0, 1, 1], [0, 1, 0], [1, 0, 0, 1]):
            with pytest.raises(ValueError):
                palindromic_compact(p)


class TestSignAtCosTurn:
    def test_zero_certificates(self):
        # 2x - 1 vanishes exactly at the sixth-root cosine
        assert sign_at_cos_turn([-1, 2], Fraction(1, 6)) == 0
        assert sign_at_cos_turn([-1, 2], Fraction(5, 6)) == 0
        assert sign_at_cos_turn([-1, 2], Fraction(1, 5)) != 0
        # the minimal polynomial of cos(2 pi / 5): 4x^2 + 2x - 1
        assert sign_at_cos_turn([-1, 2, 4], Fraction(1, 5)) == 0
        assert sign_at_cos_turn([-1, 2, 4], Fraction(2, 5)) == 0
        assert sign_at_cos_turn([-1, 2, 4], Fraction(1, 7)) != 0

    @given(st.integers(1, 60), st.integers(1, 60),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_sign_matches_float_evaluation(self, j, k, q):
        turn = Fraction(j % k, k)
        s = sign_at_cos_turn(q, turn)
        x = math.cos(2 * math.pi * float(turn))
        val = sum(c * x ** i for i, c in enumerate(q))
        if abs(val) > 1e-6:
            assert s == (val > 0) - (val < 0)


class TestIntegerPrimitives:
    """The shared integer helpers of intmat, and the oracles' xgcd, against
    their definitions."""

    @given(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
    @settings(max_examples=300, deadline=None)
    def test_xgcd_bezout(self, a, b):
        x, y, g = xgcd(a, b)
        assert a * x + b * y == g
        assert g == math.gcd(a, b) >= 0

    def test_xgcd_zero_arguments(self):
        for a, b in ((0, 0), (0, -7), (-7, 0), (0, 5), (-4, -6)):
            x, y, g = xgcd(a, b)
            assert a * x + b * y == g == math.gcd(a, b)

    def test_prime_factorization(self):
        for n in range(1, 3001):
            fac = prime_factorization(n)
            assert math.prod(p ** e for p, e in fac.items()) == n
            for p, e in fac.items():
                assert e >= 1 and p >= 2
                assert all(p % q for q in range(2, math.isqrt(p) + 1)), p
        with pytest.raises(ValueError):
            prime_factorization(0)

    # primes above the trial bound, and strong pseudoprimes that pass
    # Miller-Rabin to the first four and the first nine prime bases. Rho
    # takes about sqrt(p) steps for all but the largest prime p, so 2^61 - 1
    # only ever comes last.
    LARGE_PRIMES = (1009, 65537, 998244353, 1000000007, 1000000009, 2 ** 31 - 1)
    PSEUDOPRIMES = {3215031751: {151: 1, 751: 1, 28351: 1},
                    3825123056546413051: {149491: 1, 747451: 1, 34233211: 1}}

    def test_prime_factorization_beyond_trial_division(self):
        rng = random.Random(1931)
        for _ in range(25):
            want = {}
            for p in rng.sample(self.LARGE_PRIMES + (2, 3, 997), rng.randrange(1, 4)):
                want[p] = rng.randrange(1, 3)
            if rng.randrange(2):
                want[2 ** 61 - 1] = 1
            n = math.prod(p ** e for p, e in want.items())
            got = prime_factorization(n)
            assert got == want and list(got) == sorted(got), n
        for n, want in self.PSEUDOPRIMES.items():
            assert prime_factorization(n) == want
            assert prime_factorization(4 * n) == {2: 2, **want}

    def test_perfect_powers_split_by_integer_roots(self):
        # rho would need about 2^30 steps on (2^61 - 1)^2 and on the cube
        p = 2 ** 61 - 1
        assert prime_factorization(p ** 2) == {p: 2}
        assert prime_factorization(7 * p ** 3) == {7: 1, p: 3}
        assert prime_factorization(1009 ** 4 * 65537 ** 6) == {1009: 4, 65537: 6}

    def test_prime_above_the_proven_bound_is_capped(self, monkeypatch):
        # Miller-Rabin proves nothing at 2^89 - 1, so rho runs on it and a
        # prime never splits: the step count ends at the cap
        from knotsig import CapExceeded
        monkeypatch.setenv("KNOTSIG_CAP", "1000")
        with pytest.raises(CapExceeded, match="rho steps"):
            prime_factorization(2 ** 89 - 1)

    def test_euler_phi_counts_units(self):
        for n in range(1, 501):
            assert euler_phi(n) == sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)

    @given(st.integers(1, 4), st.integers(0, 40), st.integers(1, 200), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_mat_pow_mod_is_repeated_product(self, n, e, mod, seed):
        rng = random.Random(seed)
        m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        want = identity(n)
        for _ in range(e):
            want = mat_mul(want, m)
        assert mat_pow_mod(m, e, mod) == [[x % mod for x in row] for row in want]

    @given(st.integers(1, 5), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_smith_transforms_mod_det(self, n, seed):
        # the transforms kept mod |det| are the exact ones reduced
        rng = random.Random(seed)
        m = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        big = abs(det(m))
        exact, small = smith_form(m), smith_form(m, modulus=big)
        assert small.d == exact.d
        if big:
            for got, want in ((small.u, exact.u), (small.u_inv, exact.u_inv), (small.v, exact.v)):
                assert [[x % big for x in row] for row in got] == \
                    [[x % big for x in row] for row in want]
                assert all(abs(x) <= big for row in got for x in row)
        else:
            assert (small.u, small.u_inv, small.v) == (exact.u, exact.u_inv, exact.v)


def _cover_pencil(a, k):
    """S (x) A - I (x) A^t, S the k-cycle shift: the 2gk x 2gk relation
    matrix of the k-fold cover."""
    ent = a.as_lists()
    shift = [[1 if i == (j + 1) % k else 0 for j in range(k)] for i in range(k)]
    return mat_sub(kron(shift, ent), kron(identity(k), transpose(ent)))


# a genus-3 matrix whose k = 20 pencil (120 x 120) is nonsingular
PENCIL_G3_K20 = _cover_pencil(random_interesting_seifert(random.Random(2), 3), 20)


@st.composite
def small_int_matrices(draw):
    """Up to 8 x 8: square or rectangular, dense or sparse, sometimes with a
    row that is a multiple of another (singular)."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8)) if draw(st.booleans()) else rows
    bound = draw(st.sampled_from([1, 3, 30, 1000]))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.8]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    m = [[0 if rng.random() < zero_share else rng.randint(-bound, bound) for _ in range(cols)]
         for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        m[-1] = [rng.choice([-2, 1, 3]) * x for x in m[0]]
    return m


class TestSmithForm:
    """smith_form builds its transforms by replaying the elimination's log;
    they must be exactly those of the eager elimination (oracles) and satisfy
    the defining identities, exactly and mod |det|."""

    @staticmethod
    def assert_matches_eager_and_identities(m, modulus=0):
        snf = smith_form(m, modulus=modulus)
        ref = oracles.smith_form_eager(m, modulus=modulus)
        assert snf.d == ref.d
        assert snf.u == ref.u and snf.u_inv == ref.u_inv and snf.v == ref.v
        rows, cols = len(m), len(m[0]) if m else 0
        diag = [[snf.d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
        red = (lambda x: x % modulus) if modulus else (lambda x: x)
        for got, want in ((mat_mul(mat_mul(snf.u, m), snf.v), diag),
                          (mat_mul(snf.u, snf.u_inv), identity(rows))):
            assert [[red(x) for x in row] for row in got] == \
                [[red(x) for x in row] for row in want]

    @given(small_int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_replayed_transforms_equal_eager(self, m):
        self.assert_matches_eager_and_identities(m)
        if m and len(m) == len(m[0]) and det(m):
            self.assert_matches_eager_and_identities(m, modulus=abs(det(m)))

    def test_cover_pencil(self):
        big = abs(det(PENCIL_G3_K20))
        assert big
        self.assert_matches_eager_and_identities(PENCIL_G3_K20, modulus=big)
        self.assert_matches_eager_and_identities(PENCIL_G3_K20)

    def test_transforms_built_on_first_read_only(self):
        snf = smith_form(PENCIL_G3_K20)
        assert math.prod(snf.d) == abs(det(PENCIL_G3_K20))
        assert not {"u", "u_inv", "v"} & set(vars(snf))
        assert snf.u is snf.u and snf.u_inv is snf.u_inv and snf.v is snf.v
        assert {"u", "u_inv", "v"} <= set(vars(snf))

    def test_cyclic_quotient_reads_only_the_transforms_it_needs(self, monkeypatch):
        from knotsig import alexander_module, cyclic_quotient, intmat
        made = []

        def recording(*args, **kwargs):
            made.append(smith_form(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(intmat, "smith_form", recording)
        a = random_interesting_seifert(random.Random(5), 3)
        assert cyclic_quotient(alexander_module(a), 12).module.order() > 1
        skew, rel = made
        # u, v of the skew form give Gamma (SeifertMatrix.gamma); u, u_inv of
        # R_k move t to its basis
        assert set(vars(skew)) & {"u", "u_inv", "v"} == {"u", "v"}
        assert set(vars(rel)) & {"u", "u_inv", "v"} == {"u", "u_inv"}


@st.composite
def sparse_square_matrices(draw):
    """Square, 2 x 2 up to 16 x 16, with 70 to 90 % zero entries: most
    rows are skipped at most steps of the elimination."""
    n = draw(st.integers(2, 16))
    bound = draw(st.sampled_from([1, 3, 30, 1000]))
    zero_share = draw(st.sampled_from([0.7, 0.8, 0.9]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return [[0 if rng.random() < zero_share else rng.randint(-bound, bound) for _ in range(n)]
            for _ in range(n)]


class TestDeterminant:
    """The fraction-free Bareiss det against Gaussian elimination over Q,
    on its edge structure: row swaps, skipped rows and singular input."""

    CASES = [
        [[0, 1], [1, 0]],                                   # zero leading entry
        [[0, 2, 1], [3, 0, 1], [1, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],                  # swap at every step
        [[1, 2, 3], [0, 4, 5], [0, 6, 7]],                  # pivot 1 = previous 1
        [[3, 1, 2], [0, 1, 5], [0, 0, 7]],                  # minors 3, 3: skip at k = 1
        [[2, 1, 1, 4], [0, 1, 0, 2], [0, 0, 1, 3], [5, 0, 0, 1]],
        [[1, 2], [2, 4]],                                   # singular
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],                  # zero column
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],                  # singular, last pivot 0
        [[1, 2, 3], [2, 4, 5], [3, 7, 1]],                  # swap after a step
        [[2, 4, 1], [1, 2, 5], [3, 6, 7]],                  # zero column after a step
        [[7]], [[0]], [],
        # each case below takes one path of the per-row divisors: row 3
        # skipped at steps 0 and 1, then eliminated at step 2 by its
        # divisor 1, not by the last pivot 5
        [[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]],
        [[2, 1, 0, 0, 0], [1, 3, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 2, 1],
         [0, 0, 0, 1, 3]],
        # a skipped row swapped into the pivot position, its divisor equal
        # to the last pivot and the swapped-out row's not
        [[3, 1, 0, 0, 0], [-1, 0, 0, 0, -2], [-3, -1, 0, -2, -1], [0, 0, 2, 0, -2],
         [0, -1, 0, 1, 0]],
        # a skipped row swapped in with a divisor other than the last pivot
        [[3, 0, 1, 0], [2, 0, 0, 2], [2, 0, 0, 0], [0, -2, 0, -1]],
        # the last row skipped to the end
        [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
        # a zero pivot column after skipped rows
        [[2, 1, 0, 1], [0, 0, 3, 0], [0, 0, 5, 1], [0, 0, 1, 4]],
    ]

    @pytest.mark.parametrize("m", CASES)
    def test_edge_cases(self, m):
        assert det(m) == oracles._frac_det(m)

    def test_cover_pencil(self):
        assert det(PENCIL_G3_K20) == oracles._frac_det(PENCIL_G3_K20) != 0

    @pytest.mark.parametrize("seed", range(6))
    def test_cover_pencil_is_the_resultant(self, seed):
        # |det(S (x) A - I (x) A^t)| = |Res(Delta, 1 + t + ... + t^(k-1))|
        rng = random.Random(seed)
        a = random_interesting_seifert(rng, 2 + seed % 3)
        k = rng.randint(2, 20)
        assert abs(det(_cover_pencil(a, k))) == abs(torsion_order_by_resultant(a, k))

    @pytest.mark.parametrize("p, q", [(5, 7), (7, 9), (8, 9)])
    def test_torus_knot_forms(self, p, q):
        # n = 24, 48 and 56: det(A - A^t) = 1 for every Seifert matrix, and
        # det(A + A^t) is the determinant of the knot
        a = torus_seifert(p, q)
        assert det(mat_sub(a.as_lists(), transpose(a.as_lists()))) == 1
        sym = a.symmetrization()
        assert det(sym) == oracles._frac_det(sym)

    @given(small_int_matrices())
    @settings(max_examples=200, deadline=None)
    def test_random(self, m):
        if m and len(m) == len(m[0]):
            assert det(m) == oracles._frac_det(m)

    @given(sparse_square_matrices())
    @settings(max_examples=200, deadline=None)
    def test_random_sparse(self, m):
        assert det(m) == oracles._frac_det(m)


_POLY = st.lists(st.integers(-30, 30), max_size=9).map(pnorm)


class TestPseudoDivision:
    """polyz division is integer pseudo-division; the gcd, divisibility and
    squarefree part built on it agree with Euclid over Q."""

    @given(_POLY, _POLY.filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_pseudo_division_identity(self, p, q):
        quot, rem = pdivmod(p, q)
        c = abs(q[-1]) ** max(pdeg(p) - pdeg(q) + 1, 0)
        assert c > 0 and pdeg(rem) < pdeg(q)
        assert all(type(x) is int for x in quot + rem)
        assert padd(pmul(quot, q), rem) == pnorm([c * x for x in p])

    def test_monic_divisor_is_plain_division(self):
        p = [5, -3, 0, 7, 2]
        quot, rem = pdivmod(p, [1, 0, 1])
        assert padd(pmul(quot, [1, 0, 1]), rem) == p

    @given(_POLY, _POLY, _POLY)
    @settings(max_examples=200, deadline=None)
    def test_against_euclid_over_q(self, a, b, common):
        if common:
            a, b = pmul(a, common), pmul(b, common)
        assert pgcd(a, b) == oracles.frac_pgcd(a, b)
        if b:
            assert pdivides(b, a) == (not oracles.frac_pdivmod(a, b)[1])
        if common:
            assert pdivides(common, a)
        if pdeg(a) >= 1:
            assert squarefree_part(a) == oracles.frac_squarefree_part(a)

    def test_squarefree_part_of_a_square(self):
        assert squarefree_part(pmul([-2, 3], pmul([-2, 3], [1, 0, 1]))) == [-2, 3, -2, 3]

    def test_cyclotomic_product_is_binomial(self):
        # Phi_d * prod_(e | d, e < d) Phi_e = t^d - 1, checked by multiplication only
        for d in range(1, 301):
            prod_ = [1]
            for e in range(1, d + 1):
                if d % e == 0:
                    prod_ = pmul(prod_, list(cyclotomic(e)))
            assert prod_ == [-1] + [0] * (d - 1) + [1], d


class TestRootsOfUnityByBinomials:
    """cyclotomic multiplies and divides by binomials t^e - 1, and
    vanishes_at_root_of_unity folds mod t^d - 1; the oracles divide by
    Phi_e. d runs to 2310, above the d <= 180 of the kernels benchmark."""

    def test_cyclotomic_below_400(self):
        for d in range(1, 400):
            assert cyclotomic(d) == oracles.cyclotomic_by_division(d), d

    @given(st.integers(1, 1500))
    @example(2310)  # 2*3*5*7*11: 16 binomials up, 16 down
    @example(729)
    @example(1024)
    @settings(max_examples=40, deadline=None)
    def test_cyclotomic_against_division(self, d):
        phi = cyclotomic(d)
        assert phi == oracles.cyclotomic_by_division(d)
        assert len(phi) - 1 == euler_phi(d)

    @given(st.data(), st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_vanishing_against_division(self, data, d):
        f = data.draw(st.lists(st.integers(-4, 4), max_size=3 * d))
        assert vanishes_at_root_of_unity(f, d) == \
            oracles.vanishes_at_root_of_unity_by_division(f, d)

    @given(st.data(), st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_vanishing_on_multiples_of_phi(self, data, d):
        g = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=2 * d))
        f = pmul(list(cyclotomic(d)), g)
        assert vanishes_at_root_of_unity(f, d)
        assert oracles.vanishes_at_root_of_unity_by_division(f, d)
        # Phi_e for e != d has no root at zeta_d
        e = data.draw(st.integers(1, 400).filter(lambda e: e != d))
        assert not vanishes_at_root_of_unity(list(cyclotomic(e)), d)


class TestNoFloatingPoint:
    """The library computes with integers and rationals only: no float
    literal, no use of the name float, and from math only the exact integer
    functions."""

    EXACT_MATH = {"comb", "gcd", "isqrt", "lcm", "prod"}

    def test_library_sources(self):
        import ast
        from pathlib import Path
        import knotsig
        sources = sorted(Path(knotsig.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        for path in sources:
            tree = ast.parse(path.read_text(), filename=str(path))
            math_names = set()
            for node in ast.walk(tree):
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                if isinstance(node, ast.Constant):
                    assert not isinstance(node.value, (float, complex)), where
                elif isinstance(node, ast.Name):
                    assert node.id != "float", where
                elif isinstance(node, ast.ImportFrom) and node.module == "math":
                    assert {a.name for a in node.names} <= self.EXACT_MATH, where
                elif isinstance(node, ast.Import):
                    math_names |= {a.asname or a.name for a in node.names
                                   if a.name == "math"}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in math_names):
                    assert node.attr in self.EXACT_MATH, f"{path.name}:{node.lineno}"

    def test_library_imports_are_used(self):
        # a route that moves to the oracles must take its imports with it
        import ast
        from pathlib import Path
        import knotsig
        for path in sorted(Path(knotsig.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for a in node.names:
                        imported[(a.asname or a.name).split(".")[0]] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused = [f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used]
            assert not unused, unused


class TestOneEliminationKernel:
    """Every signature value comes from intmat.congruence_signature: the
    characteristic-polynomial route and its interpolation live in the
    oracles only."""

    def test_no_characteristic_polynomial_route(self):
        import ast
        from pathlib import Path
        import knotsig
        src = Path(knotsig.__file__).parent
        imported = set()
        path = src / "signature.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                imported |= {a.name for a in node.names}
        assert "congruence_signature" in imported
        assert not imported & {"char_poly", "pinterpolate"}, imported
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)}
            assert "pinterpolate" not in defined, path.name


class TestCachesOnInstances:
    """The finite-group layer caches on its objects (cached_property), never
    in a module-level lru_cache, which would rehash each module per call
    and keep every module ever built alive."""

    def test_alexmod_and_mbreps_import_no_lru_cache(self):
        import ast
        from pathlib import Path
        import knotsig
        for name in ("alexmod.py", "mbreps.py"):
            path = Path(knotsig.__file__).parent / name
            tree = ast.parse(path.read_text(), filename=str(path))
            names = {a.name for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not names & {"lru_cache", "cache"}, name


class TestOneOrbitWalk:
    """Character.orbit is the one walk of a character under t: every other
    orbit question in the library reads its tuple."""

    def test_compose_t_is_called_only_in_character_orbit(self):
        import ast
        from pathlib import Path
        import knotsig
        inside = 0
        for path in sorted(Path(knotsig.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute) and node.func.attr == "compose_t"}
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) and cls.name == "Character":
                    for fn in cls.body:
                        if isinstance(fn, ast.FunctionDef) and fn.name == "orbit":
                            allowed = calls & set(ast.walk(fn))
                            inside += len(allowed)
                            calls -= allowed
            assert not calls, f"{path.name}: compose_t at {sorted(c.lineno for c in calls)}"
        assert inside, "Character.orbit walks by compose_t"

    @pytest.mark.parametrize("knot, k, orbits", [(TREFOIL, 9, 2), (SLICE4, 4, 5),
                                                 (TREFOIL, 24, 1)])
    def test_one_walk_per_orbit(self, monkeypatch, knot, k, orbits):
        # the trefoil's 24-fold cover has no torsion: one trivial character
        from knotsig import (Character, alexander_module, character_table_checks,
                             cyclic_quotient, enumerate_irreps)
        module = cyclic_quotient(alexander_module(knot), k).module
        walk, walks = Character.orbit, []

        def spy(chi, mod):
            walks.append(chi.exponents)
            return walk(chi, mod)

        monkeypatch.setattr(Character, "orbit", spy)
        reps = enumerate_irreps(k, module)
        assert character_table_checks(reps, k, module).all_ok
        assert len(walks) == len({frozenset(r.orbit) for r in reps}) == orbits


class TestRealalgBoundary:
    """Every cosine comparison is made inside realalg: signature uses only
    its public names, so the kernel's scale and guard bits stay private."""

    def test_signature_imports_no_private_realalg_name(self):
        import ast
        from pathlib import Path
        import knotsig
        path = Path(knotsig.__file__).parent / "signature.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "realalg":
                imported |= {a.name for a in node.names}
        assert "RealAlgebraic" in imported
        assert not [name for name in imported if name.startswith("_")]


class TestImportGraph:
    """The library's modules import each other without a cycle, so each
    can bind the names it uses when it is imported."""

    def test_no_import_cycle(self):
        import ast
        from graphlib import TopologicalSorter
        from pathlib import Path
        import knotsig
        graph = {}
        for path in sorted(Path(knotsig.__file__).parent.glob("*.py")):
            deps = graph[path.stem] = set()
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    deps |= {node.module} if node.module else {a.name for a in node.names}
        assert graph["polyz"] == {"intmat"}
        TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
