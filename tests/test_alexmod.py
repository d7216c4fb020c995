import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from knotsig import (Character, FiniteLambdaModule, IntLaurentPoly, LinkingForm, CapExceeded,
                     alexander_module, alexander_polynomial, block_sum,
                     characters_of, characters_vanishing_on, cyclic_quotient,
                     double_cover_linking_form, find_linking_metabolizers,
                     finite_alexander_quotient, torsion_order_by_resultant)

from knotsig import intmat
from knotsig.knotio import read_knot
from knotsig.seifert import validate_seifert

from conftest import (FIGURE_EIGHT, FIXTURE_DIR, SLICE4, TREFOIL, conjugate, mirror,
                      random_interesting_seifert, random_module, random_seifert,
                      random_unimodular, torus_seifert)
from oracles import (action_order_brute, character_is_trivial, cyclic_quotient_by_kronecker,
                     frac_inverse, is_invertible_by_factoring, lambda_modules_isomorphic_brute,
                     linking_metabolizers_by_subgroup_search, resultant_by_sylvester)


class TestCyclicQuotient:
    def test_trefoil_double_cover(self, trefoil):
        hom = cyclic_quotient(alexander_module(trefoil), 2)
        assert hom.module.torsion == (3,)
        assert hom.free_rank == 0
        assert hom.module.t_matrix == ((2,),)  # t acts as multiplication by 2

    def test_trefoil_six_fold_has_free_rank(self, trefoil):
        hom = cyclic_quotient(alexander_module(trefoil), 6)
        assert hom.free_rank == 2
        assert torsion_order_by_resultant(trefoil, 6) == 0

    def test_unknot_any_k(self, unknot):
        for k in (1, 2, 5):
            hom = cyclic_quotient(alexander_module(unknot), k)
            assert hom.module.order() == 1 and hom.free_rank == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("a", [TREFOIL, FIGURE_EIGHT, SLICE4],
                             ids=["trefoil", "fig8", "slice4"])
    def test_torsion_order_equals_resultant(self, a, k):
        hom = cyclic_quotient(alexander_module(a), k)
        res = torsion_order_by_resultant(a, k)
        assert hom.free_rank == 0
        assert hom.module.order() == res

    def test_free_rank_vs_unit_root_count(self, trefoil, slice4):
        # free rank = total kernel dimension of the pencil at the k-th
        # roots of unity. It is bounded below by the number of distinct
        # such roots of the Alexander polynomial (deg gcd with t^k - 1) and
        # above by their multiplicity count; for the doubled root of the
        # 4x4 slice matrix the kernels are 1-dimensional, so rank 2 not 4.
        assert cyclic_quotient(alexander_module(trefoil), 6).free_rank == 2
        assert cyclic_quotient(alexander_module(slice4), 6).free_rank == 2
        assert cyclic_quotient(alexander_module(slice4), 12).free_rank == 2
        from knotsig.polyz import pgcd, pdeg
        from knotsig import alexander_polynomial
        for a, k in ((trefoil, 6), (slice4, 6), (slice4, 12), (trefoil, 4)):
            delta = list(alexander_polynomial(a).coeffs)
            tk = [-1] + [0] * (k - 1) + [1]
            distinct = pdeg(pgcd(delta, tk))
            free = cyclic_quotient(alexander_module(a), k).free_rank
            assert free >= distinct
            assert free <= a.n  # multiplicity total is at most deg Delta

    def test_action_well_defined_and_invertible(self):
        rng = random.Random(17)
        for _ in range(8):
            a = random_seifert(rng, rng.choice([1, 2]))
            for k in (2, 3, 4):
                hom = cyclic_quotient(alexander_module(a), k)
                m = hom.module
                if m.rank == 0:
                    continue
                o = m.action_order()
                assert k % o == 0  # the shift has order k, so o divides it
                vec = m.reduce_vec(tuple(range(1, m.rank + 1)))
                assert m.t_pow_apply(vec, o) == vec

    def test_resultant_on_random_matrices(self):
        rng = random.Random(19)
        for _ in range(10):
            a = random_seifert(rng, rng.choice([1, 2]))
            for k in (2, 3, 5):
                hom = cyclic_quotient(alexander_module(a), k)
                res = torsion_order_by_resultant(a, k)
                if res != 0:
                    assert hom.module.order() == res
                else:
                    assert hom.free_rank > 0

    def test_reduced_resultant_equals_sylvester(self):
        # the norm of f = 1 + ... + t^(k-1) modulo the monic transform of
        # Delta against the full (k - 1 + deg Delta) Sylvester matrix; at
        # k = 1 f is a constant operand
        from knotsig.polyz import resultant
        rng = random.Random(23)
        knots = [validate_seifert([[0, 1], [0, 0]]), TREFOIL, FIGURE_EIGHT, SLICE4]
        knots += [random_interesting_seifert(rng, rng.choice([1, 2, 3])) for _ in range(12)]
        seen = Counter()
        for a in knots:
            delta = list(alexander_polynomial(a).coeffs)
            for k in range(1, 41):
                want = abs(resultant_by_sylvester(delta, [1] * k))
                assert torsion_order_by_resultant(a, k) == want, (a.entries, k)
                seen["unit delta"] += delta == [1]
                seen["zero"] += want == 0
                seen["non-monic"] += abs(delta[-1]) > 1 and k >= len(delta)
        assert min(seen.values()) > 0 and len(seen) == 3, seen
        # constant operands: Res(c, q) = Res(q, c) = c^deg q, which is 1
        # (the 0 x 0 Sylvester determinant) when q is a constant too
        for c in (-3, -1, 2, 5):
            for q in ([1], [-4], [2, -1], [1, 0, -4, 3], [-2, 1, 0, 0, 7]):
                assert resultant([c], q) == resultant(q, [c]) == c ** (len(q) - 1)


class TestCoverRoutes:
    """coker R_k against the Kronecker pencil S (x) A - I (x) A^t: the same
    torsion and free rank, and Lambda-isomorphic torsion modules wherever
    the order admits the brute-force search."""

    @staticmethod
    def _compare(a, k):
        pres = alexander_module(a)
        hom, ref = cyclic_quotient(pres, k), cyclic_quotient_by_kronecker(pres, k)
        assert hom.module.torsion == ref.module.torsion, (a.entries, k)
        assert hom.free_rank == ref.free_rank, (a.entries, k)
        if hom.module.order() > 1000:
            return False
        assert lambda_modules_isomorphic_brute(hom.module, ref.module), (a.entries, k)
        return True

    def test_random_matrices(self):
        rng = random.Random(5)
        isomorphic = sum(self._compare(random_seifert(rng, rng.choice([1, 2, 3])),
                                       rng.randrange(2, 13)) for _ in range(64))
        assert isomorphic >= 12

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    @pytest.mark.parametrize("a", [TREFOIL, FIGURE_EIGHT, SLICE4],
                             ids=["trefoil", "fig8", "slice4"])
    def test_fixtures(self, a, k):
        self._compare(a, k)

    @pytest.mark.parametrize("genus, k", [(3, 40), (4, 200)])
    def test_resultant_at_large_k(self, genus, k):
        a = random_seifert(random.Random(7), genus)
        hom = cyclic_quotient(alexander_module(a), k)
        res = torsion_order_by_resultant(a, k)
        assert res > 0 and hom.free_rank == 0
        assert hom.module.order() == res


    def test_non_monic_delta_at_large_k(self):
        # k far above deg Delta with lc Delta != +-1: the twist fixture
        # (Delta = 2t^2 - 3t + 2) at k = 5000, and the first random genus-3
        # knot with a non-monic Delta of degree 6 and a finite cover at k = 2000
        rng = random.Random(2000)
        while True:
            a = random_interesting_seifert(rng, 3)
            delta = alexander_polynomial(a).coeffs
            if len(delta) == 7 and abs(delta[-1]) > 1 and torsion_order_by_resultant(a, 2000):
                break
        twist = read_knot(FIXTURE_DIR / "twist.json")
        assert alexander_polynomial(twist).coeffs == (2, -3, 2)
        for a, k in ((twist, 5000), (a, 2000)):
            hom = cyclic_quotient(alexander_module(a), k)
            assert hom.free_rank == 0
            assert hom.module.order() == torsion_order_by_resultant(a, k) > 0

class TestLambdaIsomorphismOracle:
    def test_small_modules(self):
        make = FiniteLambdaModule.make
        assert lambda_modules_isomorphic_brute(make((5,), [[2]]), make((5,), [[2]]))
        assert not lambda_modules_isomorphic_brute(make((5,), [[2]]), make((5,), [[3]]))
        assert not lambda_modules_isomorphic_brute(make((4,), [[1]]), make((2, 2), [[1, 0], [0, 1]]))
        # elements of order 3 in GL_2(F_2) are conjugate; a swap and the identity are not
        assert lambda_modules_isomorphic_brute(make((2, 2), [[0, 1], [1, 1]]),
                                               make((2, 2), [[1, 1], [1, 0]]))
        assert not lambda_modules_isomorphic_brute(make((2, 2), [[0, 1], [1, 0]]),
                                                   make((2, 2), [[1, 0], [0, 1]]))

    def test_conjugate_actions(self):
        rng = random.Random(31)
        for p, r in ((2, 3), (3, 3), (5, 2), (7, 2), (2, 4)):
            m = random_module(rng, (p,) * r)
            q = random_unimodular(rng, r)
            q_inv = [[int(x) for x in row] for row in frac_inverse(q)]
            t = intmat.mat_mul(intmat.mat_mul(q, [list(row) for row in m.t_matrix]), q_inv)
            assert lambda_modules_isomorphic_brute(m, FiniteLambdaModule.make(m.torsion, t))


class TestTPowers:
    """t^e is one modular matrix power, not a chain of e products."""

    MODULE = FiniteLambdaModule.make((1019,), [[2]])  # t has order 1018

    def test_inverse_power_on_a_long_orbit(self):
        assert self.MODULE.action_order() == 1018
        assert self.MODULE.t_pow_apply((1,), -1) == (510,)  # 2 * 510 = 1 mod 1019

    def test_semidirect_inverse_on_a_long_orbit(self):
        from knotsig import (SemidirectElement, semidirect_identity, semidirect_inverse,
                             semidirect_mul)
        x = SemidirectElement(1, (1,))
        inv = semidirect_inverse(x, self.MODULE)
        assert semidirect_mul(x, inv, self.MODULE) == semidirect_identity(self.MODULE)
        assert semidirect_mul(inv, x, self.MODULE) == semidirect_identity(self.MODULE)

    def test_matches_repeated_application(self):
        rng = random.Random(23)
        for _ in range(6):
            a = random_seifert(rng, rng.choice([1, 2]))
            m = cyclic_quotient(alexander_module(a), rng.choice([3, 4, 5])).module
            if m.rank == 0:
                continue
            vec = m.reduce_vec([rng.randrange(100) for _ in range(m.rank)])
            cur = vec
            for e in range(2 * m.action_order() + 1):
                assert m.t_pow_apply(vec, e) == cur
                cur = m.t_apply(cur)


class TestActionOrder:
    """The order of t, divided out of a known multiple, against iteration."""

    def test_cover_modules(self):
        rng = random.Random(29)
        seen = 0
        for _ in range(40):
            a = random_seifert(rng, rng.choice([1, 2, 3]))
            k = rng.randrange(2, 9)
            m = cyclic_quotient(alexander_module(a), k).module
            if m.rank:
                assert m.action_order() == action_order_brute(m), (m, k)
                seen += 1
        assert seen >= 20

    @pytest.mark.parametrize("torsion", [(2, 6), (3, 15), (2, 4, 12), (4, 8), (9, 45),
                                         (2, 2, 2, 6), (6, 30, 60), (5, 25), (7, 7, 21)])
    def test_mixed_prime_modules(self, torsion):
        rng = random.Random(sum(torsion))
        for _ in range(6):
            m = random_module(rng, torsion)
            assert m.action_order() == action_order_brute(m), m

    def test_large_prime(self):
        # the order of 2 mod 1000003 is 1000002: found without a million steps
        assert FiniteLambdaModule.make((1000003,), [[2]]).action_order() == 1000002

    def test_two_primes_above_a_billion(self):
        # d_r = p q: Brent's rho splits it, where trial division would take
        # about 10^9 steps; the order is minimal at every prime of it
        p, q = 1000000007, 1000000009
        assert intmat.prime_factorization(p * q) == {p: 1, q: 1}
        for m in (FiniteLambdaModule.make((p * q,), [[2]]),
                  random_module(random.Random(7), (3, 3 * p * q))):
            order = m.action_order()
            assert m.is_periodic(order)
            assert not any(m.is_periodic(order // r) for r in intmat.prime_factorization(order))

    def test_large_torsion_is_minimal_at_every_prime(self):
        # d_r = 8704405924 = 2^2 * 1231 * 1767751, and GL_4(F_2) adds more
        # primes to the multiple M; each is powered once, from t^(M/q^a)
        torsion = (4, 4, 4, 4, 8704405924, 8704405924)
        for seed in (1, 2, 3):
            m = random_module(random.Random(seed), torsion)
            order = m.action_order()
            assert m.is_periodic(order)
            assert not any(m.is_periodic(order // q) for q in intmat.prime_factorization(order))

    def test_trial_powers_stay_out_of_the_cache(self):
        # the minimisation tests dozens of t^(M/q) on (3367,)^4; only the
        # powers t_power_matrix serves, reduced mod the order, are kept, and
        # they are kept on the module itself
        m = random_module(random.Random(3367), (3367,) * 4)
        order = m.action_order()
        assert not m.__dict__.get("_t_powers")
        assert m.t_power_matrix(order + 5) == m.t_power_matrix(5)
        assert m.t_pow_apply((1, 0, 0, 0), order) == (1, 0, 0, 0)
        assert sorted(m.__dict__["_t_powers"]) == [0, 5]

    def test_trivial(self):
        assert FiniteLambdaModule.make((), ()).action_order() == 1
        assert FiniteLambdaModule.make((2, 2), [[1, 0], [0, 1]]).action_order() == 1


class TestInvertibility:
    """Invertibility of t from gcds along the torsion chain, against the
    prime-by-prime factoring oracle."""

    def test_random_modules_against_factoring(self):
        rng = random.Random(41)
        outcomes = Counter()
        for _ in range(1500):
            torsion = [rng.choice([2, 3, 4, 5, 6, 9, 10, 12, 15, 25, 30])]
            for _ in range(rng.randrange(3)):
                torsion.append(torsion[-1] * rng.choice([1, 1, 2, 3, 5, 6]))
            t = [[rng.randrange(d) * (d // torsion[j] if i > j else 1)
                  for j in range(len(torsion))] for i, d in enumerate(torsion)]
            try:
                FiniteLambdaModule.make(torsion, t)
                built = True
            except ValueError as exc:
                assert "not invertible" in str(exc)
                built = False
            assert built == is_invertible_by_factoring(torsion, t), (torsion, t)
            outcomes[built] += 1
        assert min(outcomes.values()) >= 300, outcomes

    def test_large_cover_built_without_factoring(self, monkeypatch):
        # both torsion coefficients are 1302034904649701, whose trial
        # division took seconds; building the module no longer factors it
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intmat, "prime_factorization", refuse)
        a = validate_seifert([[1, -1], [-2, -2]])
        hom = cyclic_quotient(alexander_module(a), 37)
        assert hom.module.torsion == (1302034904649701,) * 2
        assert hom.module.order() == torsion_order_by_resultant(a, 37)


class TestLinkingForm:
    def test_trefoil_value(self, trefoil):
        form = double_cover_linking_form(trefoil)
        assert form.module.torsion == (3,)
        assert form.modulus == 3
        assert Fraction(form.gram[0][0], form.modulus) == Fraction(1, 3)
        assert Fraction(form.pair((1,), (1,)), form.modulus) == Fraction(1, 3)

    def test_unknot_trivial(self, unknot):
        form = double_cover_linking_form(unknot)
        assert form.module.rank == 0

    @staticmethod
    def assert_self_linking_by_inverse_oracle(a):
        """x -> x^t B^-1 x mod 1 on Z^n, B = A + A^t, factors through
        coker(B), and D = |det B| kills coker(B), so the cube [0, D)^n covers
        each class D^(n-1) times. The multiset of self-linkings is an
        isometry invariant, so the form must give the same multiset."""
        b = a.symmetrization()
        binv = frac_inverse(b)  # independent exact inverse of A + A^t
        n = a.n
        d = int(abs(alexander_polynomial(a)(-1)))  # |det B|
        by_oracle = Counter(
            sum(x[r] * binv[r][s] * x[s] for r in range(n) for s in range(n)) % 1
            for x in product(range(d), repeat=n))
        form = double_cover_linking_form(a)
        assert form.module.order() == d
        per_class = Counter(Fraction(form.pair(v, v), form.modulus)
                            for v in form.module.elements())
        assert by_oracle == Counter({val: c * d ** (n - 1) for val, c in per_class.items()})

    def test_slice4_pinned_by_inverse_oracle(self, slice4):
        form = double_cover_linking_form(slice4)
        assert form.module.order() == 9
        assert form.module.torsion == (9,)
        g = Fraction(form.gram[0][0], form.modulus)
        # generator linking value must generate (1/9)Z/Z (nonsingular)
        assert g.denominator == 9
        self.assert_self_linking_by_inverse_oracle(slice4)

    @pytest.mark.parametrize("knot", [TREFOIL, FIGURE_EIGHT], ids=["trefoil", "fig8"])
    def test_self_linking_by_inverse_oracle(self, knot):
        self.assert_self_linking_by_inverse_oracle(knot)

    def test_gram_equals_inverse_on_smith_generators(self):
        # the generators are the columns g_i of U^-1 in the Smith form of B;
        # the gram must be g_i^t B^-1 g_j mod 1 with B^-1 from the oracle
        from knotsig.intmat import smith_form
        rng = random.Random(31)
        knots = [block_sum(TREFOIL, SLICE4), block_sum(TREFOIL, block_sum(TREFOIL, FIGURE_EIGHT))]
        knots += [random_seifert(rng, rng.choice([1, 2, 3])) for _ in range(20)]
        for a in knots:
            b = a.symmetrization()
            binv = frac_inverse(b)
            snf = smith_form(b)
            idx = [i for i, d in enumerate(snf.d) if d > 1]
            gens = [[snf.u_inv[r][i] for r in range(a.n)] for i in idx]
            want = tuple(tuple(sum(gi[r] * binv[r][s] * gj[s] for r in range(a.n)
                                   for s in range(a.n)) % 1 for gj in gens) for gi in gens)
            form = double_cover_linking_form(a)
            assert form.module.torsion == tuple(snf.d[i] for i in idx)
            assert tuple(tuple(Fraction(x, form.modulus) for x in row)
                         for row in form.gram) == want

    def test_symmetric_nonsingular_on_fixtures(self):
        rng = random.Random(29)
        for _ in range(10):
            a = random_seifert(rng, rng.choice([1, 2]))
            form = double_cover_linking_form(a)
            m = form.module
            r = m.rank
            for i in range(r):
                for j in range(r):
                    assert form.gram[i][j] == form.gram[j][i]
            # nonsingular: x -> pair(x, .) has trivial kernel (brute force)
            if 1 < m.order() <= 2000:
                gens = [tuple(1 if t == i else 0 for t in range(r)) for i in range(r)]
                kernel = [x for x in m.elements()
                          if all(form.pair(x, g) == 0 for g in gens)]
                assert kernel == [m.zero()]

    @pytest.mark.parametrize("gram, message", [
        (((Fraction(1, 3), 0), (0, 0)), "integers in"),  # the old Fraction form
        (((3, 0), (0, 0)), "integers in"),
        (((-1, 0), (0, 0)), "integers in"),
        (((True, 0), (0, 0)), "integers in"),
        (((0, 1), (2, 0)), "symmetric"),
        (((0, 1), (1, 0), (0, 0)), "size"),
    ])
    def test_gram_must_be_residues(self, gram, message):
        mod = FiniteLambdaModule.make((3, 3), [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match=message):
            LinkingForm(mod, gram)

    def test_gram_well_defined_on_torsion(self):
        # N = 6 and d_1 = 2: b(e_1, e_1) = 1/6 is not killed by 2, 3/6 is
        mod = FiniteLambdaModule.make((2, 6), [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="well defined"):
            LinkingForm(mod, ((1, 0), (0, 1)))
        assert LinkingForm(mod, ((3, 0), (0, 1))).pair((1, 1), (1, 1)) == 4

    def test_t_acts_as_minus_one(self, trefoil):
        form = double_cover_linking_form(trefoil)
        assert form.module.t_apply((1,)) == (2,)


class TestLinkingMetabolizers:
    def test_trefoil_none(self, trefoil):
        assert find_linking_metabolizers(double_cover_linking_form(trefoil)) == []

    def test_trivial_form(self, unknot):
        assert find_linking_metabolizers(double_cover_linking_form(unknot)) == [()]

    def test_hyperbolic_three_torsion(self):
        mod = FiniteLambdaModule.make((3, 3), [[1, 0], [0, 1]])
        form = LinkingForm(mod, ((0, 1), (1, 0)))  # b(e_1, e_2) = 1/3
        mets = find_linking_metabolizers(form)
        subgroups = {frozenset(_span(mod, gens)) for gens in mets}
        assert len(mets) == 2
        assert frozenset({(0, 0), (1, 0), (2, 0)}) in subgroups
        assert frozenset({(0, 0), (0, 1), (0, 2)}) in subgroups

    def test_metabolizer_order_squares_to_group_order(self):
        mod = FiniteLambdaModule.make((3, 3), [[0, 2], [1, 0]])
        form = LinkingForm(mod, ((0, 1), (1, 0)))
        for gens in find_linking_metabolizers(form):
            assert len(_span(mod, gens)) ** 2 == mod.order()

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("KNOTSIG_CAP", "100")
        mod = FiniteLambdaModule.make((2,) * 8, [[1 if i == j else 0 for j in range(8)]
                                                 for i in range(8)])
        gram = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))  # b = 1/2 on e_i
        form = LinkingForm(mod, gram)
        with pytest.raises(CapExceeded):
            find_linking_metabolizers(form)


class TestMetabolizerWalk:
    """The isotropic walk against the search over every t-invariant
    subgroup, which names each metabolizer by its first DFS path."""

    T = {"identity": [[1, 0], [0, 1]], "swap": [[0, 2], [1, 0]], "shear": [[1, 1], [0, 1]],
         "minus": [[2, 0], [0, 2]]}

    @pytest.mark.parametrize("t", sorted(T))
    def test_every_form_on_three_torsion_squared(self, t):
        # all 27 grams on (Z/3)^2: the hand-built hyperbolic form, the
        # degenerate ones (zero determinant mod 3) and, under the shear,
        # forms whose gram t does not preserve
        mod = FiniteLambdaModule.make((3, 3), self.T[t])
        for a, b, c in product(range(3), repeat=3):
            form = LinkingForm(mod, ((a, b), (b, c)))  # b(e_1, e_1) = a/3, ...
            assert find_linking_metabolizers(form) == linking_metabolizers_by_subgroup_search(form)

    def test_random_double_cover_forms(self):
        rng = random.Random(22)
        forms = []
        while len(forms) < 60:
            g = rng.choice([1, 1, 2, 3])
            k = (random_seifert if rng.random() < 0.5 else random_interesting_seifert)(rng, g)
            if g == 1 and rng.random() < 0.6:
                k = conjugate(rng, block_sum(k, rng.choice([k, mirror(k)])))
            form = double_cover_linking_form(k)
            if 1 < form.module.order() <= 45:
                forms.append(form)
        with_metabolizers = 0
        for form in forms:
            mets = find_linking_metabolizers(form)
            assert mets == linking_metabolizers_by_subgroup_search(form)
            with_metabolizers += bool(mets)
        assert with_metabolizers >= 10

    def test_greedy_names(self):
        # a conjugate of T(2,3) # -T(2,3) twice: a hyperbolic form on
        # (Z/3)^4 with t = -1, so prod_(i < 2) (3^i + 1) = 8 distinct
        # metabolizers, each g_i the least element of P outside the
        # t-invariant span of the earlier ones
        rng = random.Random(23)
        t23 = torus_seifert(2, 3)
        a = conjugate(rng, block_sum(block_sum(t23, mirror(t23)), block_sum(t23, mirror(t23))))
        form = double_cover_linking_form(a)
        mod = form.module
        mets = find_linking_metabolizers(form)
        assert mod.torsion == (3, 3, 3, 3)
        assert len({frozenset(_span(mod, gens)) for gens in mets}) == len(mets) == 8
        for gens in mets:
            p = _span(mod, gens)
            assert len(p) ** 2 == mod.order()
            for i, g in enumerate(gens):
                assert g == min(p - _span(mod, gens[:i]))

    def test_mixed_torsion_against_search(self):
        # 2-primary and non-homogeneous forms, which knot double covers
        # (odd order, t = -1) never give: random actions and random
        # nondegenerate grams, entry (i, j) a multiple of N / gcd(d_i, d_j)
        # so b is well defined (degenerate forms on (Z/3)^2 are above)
        rng = random.Random(31)
        with_metabolizers = 0
        for torsion, count in [((2, 8), 8), ((2, 2, 4), 8), ((4, 4), 8), ((5, 5), 8),
                               ((7, 7), 4), ((3, 27), 1), ((3, 3, 9), 1)]:
            n, r = torsion[-1], len(torsion)
            units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
            while count:
                gram = [[0] * r for _ in range(r)]
                for i in range(r):
                    for j in range(i, r):
                        step = n // math.gcd(torsion[i], torsion[j])
                        gram[i][j] = gram[j][i] = rng.randrange(0, n, step)
                form = LinkingForm(random_module(rng, torsion), tuple(map(tuple, gram)))
                if any(any(x) and not any(form.pair(x, e) for e in units)
                       for x in form.module.elements()):
                    continue
                mets = find_linking_metabolizers(form)
                assert mets == linking_metabolizers_by_subgroup_search(form), (torsion, gram)
                with_metabolizers += bool(mets)
                count -= 1
        assert with_metabolizers >= 15

    @pytest.mark.parametrize("p, m, count", [(3, 2, 8), (5, 2, 12), (7, 2, 16), (3, 3, 80)])
    def test_hyperbolic_count(self, p, m, count):
        # (F_p)^(2m) with m hyperbolic planes and t = -1 has
        # prod_(i < m) (p^i + 1) Lagrangians, every one t-invariant
        r = 2 * m
        minus = [[-int(i == j) for j in range(r)] for i in range(r)]
        mod = FiniteLambdaModule.make((p,) * r, minus)
        gram = tuple(tuple(int(i != j and i // 2 == j // 2) for j in range(r)) for i in range(r))
        mets = find_linking_metabolizers(LinkingForm(mod, gram))
        assert count == math.prod(p ** i + 1 for i in range(m))
        assert len({frozenset(_span(mod, gens)) for gens in mets}) == len(mets) == count
        for gens in mets:
            sub = _span(mod, gens)
            assert len(sub) == p ** m
            for i, g in enumerate(gens):
                assert g == min(sub - _span(mod, gens[:i]))


def _span(mod, gens):
    span = {mod.zero()}
    frontier = list(gens)
    while frontier:
        v = frontier.pop()
        if v in span:
            continue
        span.add(v)
        for s in list(span):
            w = mod.add(s, v)
            if w not in span:
                frontier.append(w)
        frontier.append(mod.t_apply(v))
    return span


class TestCharacters:
    def test_full_submodule_only_trivial(self):
        mod = FiniteLambdaModule.make((3,), [[2]])
        chars = characters_vanishing_on(mod, [(1,)], 3, 1)
        assert len(chars) == 1 and character_is_trivial(chars[0])

    def test_zero_submodule_full_dual(self):
        mod = FiniteLambdaModule.make((3,), [[2]])
        chars = characters_vanishing_on(mod, [], 3, 1)
        assert len(chars) == 3

    def test_hyperbolic_line(self):
        mod = FiniteLambdaModule.make((3, 3), [[1, 0], [0, 1]])
        chars = characters_vanishing_on(mod, [(1, 0)], 3, 1)
        assert len(chars) == 3
        assert all(chi.turn_of((1, 0)) == 0 for chi in chars)
        assert all(chi.exponents[0] == 0 for chi in chars)

    def test_count_matches_brute_force_over_full_dual(self):
        rng = random.Random(31)
        t_choices = {
            (2,): [[1]], (4,): [[3]], (2, 4): [[1, 0], [0, 3]],
            (3, 9): [[2, 0], [0, 4]], (6,): [[5]], (2, 2): [[0, 1], [1, 0]],
        }
        for _ in range(20):
            ds = rng.choice(list(t_choices))
            mod = FiniteLambdaModule.make(ds, t_choices[ds])
            gens = [tuple(rng.randrange(d) for d in ds)]
            p, r = rng.choice([(2, 1), (2, 2), (3, 1)])
            got = characters_vanishing_on(mod, gens, p, r)
            m = p ** r
            span = _span(mod, gens)  # t-invariant submodule generated
            count = 0
            for combo in product(*(range(d) for d in ds)):
                turns = [Fraction(c, d) for c, d in zip(combo, ds)]
                order_ok = all((m * t) % 1 == 0 for t in turns)
                vanishes = all(
                    Fraction(sum(t * v for t, v in zip(turns, vec))) % 1 == 0
                    for vec in span)
                if order_ok and vanishes:
                    count += 1
            assert len(got) == count

    def test_well_definedness_enforced(self):
        with pytest.raises(ValueError):
            Character(3, (5,))

    def test_characters_of_is_the_dual_in_lexicographic_order(self):
        # each well-defined character with values m-th roots of unity, once,
        # in the order that _character_orbits and characters_vanishing_on read
        for ds in [(), (2,), (2, 4), (3, 9), (2, 2, 6)]:
            mod = FiniteLambdaModule.make(ds, _basis(ds))
            for m in (1, 2, 3, 4, 6, 12):
                got = [chi.exponents for chi in characters_of(mod, m)]
                assert got == [c for c in product(range(m), repeat=len(ds))
                               if Character(m, c).is_well_defined_on(mod)], (ds, m)

    def test_character_count_capped_before_enumerating(self, monkeypatch):
        # the level-6 quotient of Delta = t^2 - t + 1 at p = 5 is (Z/5^6)^2:
        # 5^12 characters of order dividing 5^6, refused before the first
        monkeypatch.delenv("KNOTSIG_CAP", raising=False)
        mod = finite_alexander_quotient(IntLaurentPoly.make([1, -1, 1]), 5, 6)
        assert mod.torsion == (5 ** 6, 5 ** 6)
        monkeypatch.setattr("knotsig.alexmod.characters_of", None)  # never reached
        with pytest.raises(CapExceeded, match="character count") as exc:
            characters_vanishing_on(mod, [], 5, 6)
        assert exc.value.order == 5 ** 12

    def test_wrong_length_vector_rejected(self):
        # a vector with more or fewer coordinates than the rank is an error,
        # not cut short or padded
        mod = FiniteLambdaModule.make((3, 3), [[1, 0], [0, 1]])
        for vec in ((1, 2, 3), (1,)):
            with pytest.raises(ValueError, match="length"):
                mod.reduce_vec(vec)
            with pytest.raises(ValueError, match="length"):
                characters_vanishing_on(mod, [vec], 3, 1)


def _basis(ds):
    return [tuple(1 if i == j else 0 for j in range(len(ds))) for i in range(len(ds))]
