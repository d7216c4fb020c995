"""Hypothesis-driven invariant checks, complementing the bulk randomized
suites in test_acceptance.py."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotsig import (UnitRootAngle, alexander_polynomial, arf_invariant,
                     block_sum, eta_cyclic, signature_function,
                     tl_signature_at, validate_seifert)
from knotsig.polyz import (cos_minimal_poly, cyclotomic, isolate_roots, padd,
                           palindromic_compact, pdeg, pdivides, pdivmod, peval,
                           pgcd, pmul, pnorm, squarefree_part, sturm_chain,
                           sturm_count)
from knotsig.intmat import (det, euler_phi, identity, mat_mul, mat_pow_mod,
                            prime_factorization, smith_form, xgcd)
from knotsig.realalg import (cos_turn_bounds, pi_bounds, simplest_between,
                             sign_at_cos_turn, RealAlgebraic)

import oracles
from conftest import random_interesting_seifert


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
        assert signature_function(a).value_at(z) == tl_signature_at(a, z)

    @given(small_seifert(), small_seifert(), angles())
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b, z):
        ab = block_sum(a, b)
        assert tl_signature_at(ab, z) == tl_signature_at(a, z) + tl_signature_at(b, z)

    @given(small_seifert(), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_eta_sum_matches_direct(self, a, k):
        direct = sum(tl_signature_at(a, UnitRootAngle.of(j, k))
                     for j in range(1, k + 1))
        assert eta_cyclic(a, k) == direct


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

    @given(st.fractions(min_value=-10, max_value=10, max_denominator=60),
           st.fractions(min_value=-10, max_value=10, max_denominator=60))
    @settings(max_examples=150, deadline=None)
    def test_simplest_between(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        s = simplest_between(lo, hi)
        assert lo < s < hi
        # no fraction with a smaller denominator lies inside the interval
        for den in range(1, s.denominator):
            first = lo.numerator * den // lo.denominator + 1
            assert not lo < Fraction(first, den) < hi


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
        from knotsig.signature import _char_poly_in_x
        from knotsig.polyz import peval
        from oracles import char_poly_at_x_by_interpolation
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
        # coefficients in W, and extra > 0 (zero top coefficients of p
        # about degree m), are the cases the reduction must survive
        m = max(len(w) - 1, 0) + extra
        p = []
        binom = [1]
        for j, c in enumerate(w):
            p = padd(p, [0] * (m - j) + [c * b for b in binom])
            binom = pmul(binom, [1, 0, 1])
        assert palindromic_compact(p, m) == pnorm(w)
        if len(pnorm(w)) == m + 1:
            assert palindromic_compact(p) == pnorm(w)

    def test_zero_coefficients(self):
        # Phi_12 = t^4 - t^2 + 1 = t^2 ((t + 1/t)^2 - 3); cos(2 pi/12)
        # is a root of 4x^2 - 3
        assert palindromic_compact([1, 0, -1, 0, 1]) == [-3, 0, 1]
        assert cos_minimal_poly(12) == (-3, 0, 4)
        # -2t^4 + 5t^2 - 2, the Alexander polynomial in TestCompactForm
        assert palindromic_compact([-2, 0, 5, 0, -2]) == [9, 0, -2]
        assert palindromic_compact([0, 1, 0], 1) == [1]
        assert palindromic_compact([]) == []
        # these cyclotomic polynomials all have zero coefficients
        for d in (8, 9, 12, 16, 18, 20, 24, 25, 27, 36):
            psi = list(cos_minimal_poly(d))
            assert len(psi) - 1 == euler_phi(d) // 2
            assert sign_at_cos_turn(psi, Fraction(1, d)) == 0

    def test_rejects_non_palindromic(self):
        for p, m in (([1, 2], None), ([1, 2, 3], None), ([1, 0, 1], 0),
                     ([0, 1, 1], 1)):
            with pytest.raises(ValueError):
                palindromic_compact(p, m)


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
    """The shared integer helpers of intmat against their definitions."""

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
