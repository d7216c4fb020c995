import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from knotsig import (ActionNotPeriodic, CapExceeded, Character, CharacterNotPeriodic,
                     FiniteLambdaModule, MonomialMatrix, SemidirectElement,
                     TWIST_SIGN, UnitRootAngle, build_rep,
                     character_table_checks, enumerate_irreps,
                     rep_json, semidirect_elements, semidirect_identity,
                     semidirect_inverse, semidirect_mul)
from knotsig.mbreps import MetabelianRep, _character_orbits, roots_of_unity_sum_equals

from conftest import random_module
from oracles import (character_periods_by_definition, character_turns_by_definition,
                     commutant_dimension,
                     groups_isomorphic_brute, monomial_conj_transpose, monomial_is_identity,
                     rep_matrix_by_definition, semidirect_mul_by_definition, vec_reduce,
                     vec_t_apply, vec_t_pow_apply)

Z3_FLIP = FiniteLambdaModule.make((3,), [[-1]])   # t = -1 on Z/3
Z3_TWO = FiniteLambdaModule.make((3,), [[2]])     # same action, written as 2
Z7_DOUBLE = FiniteLambdaModule.make((7,), [[2]])  # t = 2, order 3 on Z/7


class TestSemidirect:
    def test_identity_and_inverse(self):
        rng = random.Random(3)
        for _ in range(50):
            x = SemidirectElement.make(rng.randrange(6), (rng.randrange(3),),
                                       Z3_FLIP, cyclic_order=6)
            e = semidirect_identity(Z3_FLIP)
            assert semidirect_mul(e, x, Z3_FLIP, 6) == x
            assert semidirect_mul(x, e, Z3_FLIP, 6) == x
            inv = semidirect_inverse(x, Z3_FLIP, 6)
            assert semidirect_mul(x, inv, Z3_FLIP, 6) == e
            assert semidirect_mul(inv, x, Z3_FLIP, 6) == e

    def test_wrong_length_vector_rejected(self):
        # h must have one coordinate per torsion coefficient, not be cut short
        with pytest.raises(ValueError, match="length"):
            SemidirectElement.make(1, (1, 2), Z3_FLIP, cyclic_order=6)

    def test_associativity(self):
        els = list(semidirect_elements(Z7_DOUBLE, 3))
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (rng.choice(els) for _ in range(3))
            left = semidirect_mul(semidirect_mul(a, b, Z7_DOUBLE, 3), c, Z7_DOUBLE, 3)
            right = semidirect_mul(a, semidirect_mul(b, c, Z7_DOUBLE, 3), Z7_DOUBLE, 3)
            assert left == right

    def test_spec_single_product(self):
        # (1,0)*(1,1) = (0, t^1 * 0 + 1) = (0, 1) in Z/2 x| Z/3
        a = SemidirectElement(1, (0,))
        b = SemidirectElement(1, (1,))
        assert semidirect_mul(a, b, Z3_FLIP, 2) == SemidirectElement(0, (1,))

    def test_cayley_table_is_symmetric_group_on_three_letters(self):
        els = list(semidirect_elements(Z3_FLIP, 2))
        perms = list(permutations(range(3)))

        def compose(p, q):
            return tuple(p[q[i]] for i in range(3))

        def mul(a, b):
            return semidirect_mul(a, b, Z3_FLIP, 2)

        assert groups_isomorphic_brute(els, mul, perms, compose)


class TestTwistSign:
    def test_block_formula_is_homomorphism_under_positive_twist(self):
        assert TWIST_SIGN == 1
        chi = Character.make(7, (1,))
        rep = build_rep(3, UnitRootAngle.of(1, 3), chi, Z7_DOUBLE)
        els = list(semidirect_elements(Z7_DOUBLE, 3))
        for x in els:
            for y in els:
                prod = semidirect_mul(x, y, Z7_DOUBLE, 3)
                assert rep.matrix(prod) == rep.matrix(x) @ rep.matrix(y)

    def test_negative_twist_fails(self):
        # with the law (n,h)(n',h') = (n+n', t^(-n') h + h') the displayed
        # block matrices are not a homomorphism: exhibit a violating pair
        chi = Character.make(7, (1,))
        rep = build_rep(3, UnitRootAngle.of(1, 3), chi, Z7_DOUBLE)

        def mul_neg(x, y):
            th = Z7_DOUBLE.t_pow_apply(x.h, -y.n)
            return SemidirectElement((x.n + y.n) % 3, Z7_DOUBLE.add(th, y.h))

        els = list(semidirect_elements(Z7_DOUBLE, 3))
        bad = [(x, y) for x in els for y in els
               if rep.matrix(mul_neg(x, y)) != rep.matrix(x) @ rep.matrix(y)]
        assert bad


class TestBuildRep:
    def test_one_dimensional_is_abelian(self):
        rep = build_rep(1, UnitRootAngle.of(1, 5), Character.make(1, (0,)), Z3_FLIP)
        mat = rep.matrix(SemidirectElement(3, (2,)))
        assert mat.perm == (0,)
        assert (mat.turns, mat.modulus) == ((3,), 5)  # z^3 = exp(2*pi*i*3/5)

    def test_unitarity(self):
        chi = Character.make(3, (1,))
        rep = build_rep(2, UnitRootAngle.of(0, 1), chi, Z3_FLIP)
        for el in semidirect_elements(Z3_FLIP, 2):
            m = rep.matrix(el)
            assert monomial_is_identity(m @ monomial_conj_transpose(m))

    def test_character_not_periodic(self):
        chi = Character.make(7, (1,))  # orbit size 3 under doubling
        with pytest.raises(CharacterNotPeriodic):
            build_rep(2, UnitRootAngle.of(0, 1), chi, Z7_DOUBLE)

    def test_homomorphism_random_pairs_on_large_group(self):
        # Z/6 x| (Z/25)^2 has order 3750, beyond exhaustive reach: 10^3
        # random pairs instead
        module = FiniteLambdaModule.make((25, 25), [[0, -1], [1, 1]])
        chi = Character.make(25, (1, 0))
        rep = build_rep(6, UnitRootAngle.of(1, 6), chi, module)
        rng = random.Random(97)
        for _ in range(1000):
            x = SemidirectElement.make(rng.randrange(6),
                                       (rng.randrange(25), rng.randrange(25)),
                                       module, 6)
            y = SemidirectElement.make(rng.randrange(6),
                                       (rng.randrange(25), rng.randrange(25)),
                                       module, 6)
            prod = semidirect_mul(x, y, module, 6)
            assert rep.matrix(prod) == rep.matrix(x) @ rep.matrix(y)

    def test_permutation_block_shape(self):
        # column j carries chi(t^j h); the cyclic shift sends e_j to e_(j+n)
        chi = Character.make(3, (1,))
        rep = build_rep(2, UnitRootAngle.of(0, 1), chi, Z3_FLIP)
        m = rep.matrix(SemidirectElement(1, (0,)))
        assert m.perm == (1, 0)
        m2 = rep.matrix(SemidirectElement(0, (1,)))
        assert m2.perm == (0, 1)
        assert (m2.turns, m2.modulus) == ((1, 2), 3)  # chi(h), chi(th)


class TestIrreducibility:
    # build_rep(l, ...) is irreducible exactly when chi's orbit has length l
    def test_trivial_character(self):
        assert len(Character.make(1, (0,)).orbit(Z3_FLIP)) == 1

    def test_orbit_two(self):
        chi = Character.make(3, (1,))
        assert chi.orbit(Z3_TWO) == ((1,), (2,))

    def test_against_commutant_oracle(self):
        for module, m in ((Z3_FLIP, 2), (Z3_TWO, 6), (Z7_DOUBLE, 3)):
            for rep in enumerate_irreps(m, module):
                assert commutant_dimension(rep, m, module) == 1

    def test_reducible_has_larger_commutant(self):
        # chi trivial in dimension 2 decomposes into two characters
        chi = Character.make(3, (0,))
        rep = MetabelianRep(2, UnitRootAngle.of(0, 1), chi, chi.orbit(Z3_FLIP))
        assert commutant_dimension(rep, 2, Z3_FLIP) == 2


class TestEnumerate:
    def test_six_element_group(self):
        reps = enumerate_irreps(2, Z3_FLIP)
        dims = sorted(r.dim for r in reps)
        assert dims == [1, 1, 2]
        assert sum(d * d for d in dims) == 6

    def test_m6_example(self):
        reps = enumerate_irreps(6, Z3_TWO)
        assert len(reps) == 9
        assert sum(r.dim ** 2 for r in reps) == 18
        assert sorted(r.dim for r in reps) == [1] * 6 + [2] * 3

    def test_trivial_group(self):
        reps = enumerate_irreps(1, FiniteLambdaModule.make((), ()))
        assert len(reps) == 1 and reps[0].dim == 1

    def test_action_not_periodic(self):
        with pytest.raises(ActionNotPeriodic):
            enumerate_irreps(2, Z7_DOUBLE)  # t has order 3, not dividing 2

    def test_group_order_cap(self, monkeypatch):
        monkeypatch.setenv("KNOTSIG_CAP", "20")
        assert len(enumerate_irreps(6, Z3_TWO)) == 9  # order 18 is within the cap
        with pytest.raises(CapExceeded) as exc:
            enumerate_irreps(9, Z7_DOUBLE)  # order 63
        assert (exc.value.order, exc.value.cap) == (63, 20)
        with pytest.raises(ActionNotPeriodic):
            enumerate_irreps(100, Z7_DOUBLE)  # not periodic is reported first

    def test_dimension_bound(self):
        for module, m in ((Z3_FLIP, 4), (Z7_DOUBLE, 9), (Z3_TWO, 2)):
            o = module.action_order()
            for rep in enumerate_irreps(m, module):
                assert rep.dim <= o

    def test_characters_pairwise_distinct(self):
        for module, m in ((Z3_FLIP, 2), (Z7_DOUBLE, 3), (Z3_TWO, 6)):
            els = list(semidirect_elements(module, m))
            tables = []
            for rep in enumerate_irreps(m, module):
                tables.append(tuple(tuple(sorted(Fraction(t, rep.modulus)
                                                 for t in rep.character_turns(g)))
                                    for g in els))
            assert len(set(tables)) == len(tables)

    def test_restriction_consistency(self):
        # at (l, 0) the matrix is z^l times the identity, so the character
        # value is l copies of the turn of z^l
        for module, m in ((Z3_FLIP, 2), (Z7_DOUBLE, 3)):
            for rep in enumerate_irreps(m, module):
                el = SemidirectElement(rep.dim, module.zero())
                turns = rep.character_turns(el)
                n = rep.modulus
                expect = rep.z.numerator * (n // rep.z.denominator) * rep.dim % n
                assert turns == [expect] * rep.dim

    def test_rep_json_shape(self):
        reps = enumerate_irreps(6, Z3_TWO)
        for rep in reps:
            data = rep_json(rep, 6)
            assert data["w_den"] == 6 // data["dim"]
            assert 0 <= data["w_num"] < data["w_den"]


class TestCharacterTable:
    def test_six_element_group_passes(self):
        reps = enumerate_irreps(2, Z3_FLIP)
        report = character_table_checks(reps, 2, Z3_FLIP)
        assert report.all_ok
        assert report.group_order == 6

    def test_larger_groups_pass(self):
        for module, m in ((Z3_TWO, 6), (Z7_DOUBLE, 3)):
            reps = enumerate_irreps(m, module)
            report = character_table_checks(reps, m, module)
            assert report.all_ok

    def test_duplicate_rep_fails_orthonormality(self):
        reps = enumerate_irreps(2, Z3_FLIP)
        report = character_table_checks(list(reps) + [reps[0]], 2, Z3_FLIP)
        assert not report.orthonormal_ok
        assert report.failures

    def test_trivial_group_vacuous(self):
        module = FiniteLambdaModule.make((), ())
        reps = enumerate_irreps(1, module)
        report = character_table_checks(reps, 1, module)
        assert report.all_ok

    def test_roots_of_unity_sum(self):
        # 1 + zeta_3 + zeta_3^2 = 0
        counts = {0: 1, 1: 1, 2: 1}
        assert roots_of_unity_sum_equals(counts, 0, 3)
        assert not roots_of_unity_sum_equals(counts, 1, 3)
        assert roots_of_unity_sum_equals({0: 5}, 5, 1)
        # the same sum read mod 6: 1 + zeta_6^2 + zeta_6^4 = 0
        assert roots_of_unity_sum_equals({0: 1, 2: 1, 4: 1}, 0, 6)
        assert not roots_of_unity_sum_equals({0: 1, 1: 1, 2: 1}, 0, 6)


class TestMonomialMatrix:
    def test_multiplication_vs_dense(self):
        rng = random.Random(9)
        for _ in range(40):
            size = rng.randrange(1, 5)
            a = _random_monomial(rng, size)
            b = _random_monomial(rng, size)
            assert _dense(a @ b) == _matmul_dense(_dense(a), _dense(b))

    def test_conj_transpose_inverse(self):
        rng = random.Random(13)
        for _ in range(20):
            a = _random_monomial(rng, rng.randrange(1, 5))
            assert monomial_is_identity(a @ monomial_conj_transpose(a))

    def test_unequal_moduli_rejected(self):
        a = MonomialMatrix((0,), (1,), 3)
        with pytest.raises(ValueError):
            a @ MonomialMatrix((0,), (1,), 6)


class TestKernelsAgainstDefinitions:
    """The tuple kernels, the cached t^e matrices and the cached character
    orbits against the entry-by-entry definitions in the oracles, on
    unreduced and negative entries, negative exponents, Z x| F as well as
    Z/m x| F, and representations of every dimension up to the order of t."""

    CHAINS = [(3,), (2, 6), (4, 8), (2, 2, 2, 6), (5, 25)]

    @pytest.mark.parametrize("torsion", CHAINS)
    def test_module_kernels(self, torsion):
        rng = random.Random(7 * sum(torsion))
        for _ in range(4):
            module = random_module(rng, torsion)
            order = module.action_order()
            for _ in range(30):
                u = tuple(rng.randrange(-3 * d, 3 * d) for d in torsion)
                v = tuple(rng.randrange(-3 * d, 3 * d) for d in torsion)
                e = rng.randrange(-3 * order, 3 * order)
                ru, rv = vec_reduce(module, u), vec_reduce(module, v)
                assert module.reduce_vec(u) == ru
                assert module.add(u, v) == vec_reduce(module, map(sum, zip(ru, rv)))
                assert module.neg(u) == vec_reduce(module, (-x for x in ru))
                assert module.t_apply(u) == vec_t_apply(module, ru)
                assert module.t_pow_apply(u, e) == vec_t_pow_apply(module, u, e)
                chi = Character.make(torsion[-1], [rng.randrange(d) * (torsion[-1] // d)
                                                   for d in torsion])
                assert chi.turn_of(u) == sum(c * x for c, x in zip(chi.exponents, u)) % chi.modulus

    @pytest.mark.parametrize("torsion", CHAINS)
    def test_group_law_and_representations(self, torsion):
        rng = random.Random(11 * sum(torsion))
        for _ in range(3):
            module = random_module(rng, torsion)
            order = module.action_order()

            def element():
                return SemidirectElement(rng.randrange(-3 * order, 3 * order),
                                         tuple(rng.randrange(-3 * d, 3 * d) for d in torsion))

            for cyclic in (None, order, 2 * order):
                identity = semidirect_identity(module)
                for _ in range(30):
                    x, y = element(), element()
                    assert semidirect_mul(x, y, module, cyclic) == \
                        semidirect_mul_by_definition(x, y, module, cyclic)
                    inv = semidirect_inverse(x, module, cyclic)
                    assert semidirect_mul_by_definition(x, inv, module, cyclic) == identity
            orbits = _character_orbits(module)
            for chi, orbit in rng.sample(orbits, min(4, len(orbits))):
                size = len(orbit)
                for dim in sorted({size, min(2 * size, order), order}):
                    den = rng.randrange(1, 13)
                    rep = build_rep(dim, UnitRootAngle.of(rng.randrange(den), den), chi, module)
                    for _ in range(15):
                        g = element()
                        assert rep.matrix(g) == rep_matrix_by_definition(rep, g, module)
                        assert rep.character_turns(g) == \
                            character_turns_by_definition(rep, g, module)
                    a, b = rep.matrix(element()), rep.matrix(element())
                    assert _dense(a @ b) == _matmul_dense(_dense(a), _dense(b), rep.modulus)


class TestCharacterOrbit:
    """Character.orbit against the period by definition, on every character
    of seeded modules, scaled to d_r as _character_orbits scales them."""

    @pytest.mark.parametrize("torsion", [(3,), (2, 6), (4, 8), (2, 2, 2, 6), (5, 25),
                                         (7, 7, 21)])
    def test_orbits_against_definition(self, torsion):
        rng = random.Random(13 * sum(torsion))
        top = torsion[-1]
        chars = [Character(top, tuple(c * (top // d) for c, d in zip(combo, torsion)))
                 for combo in product(*(range(d) for d in torsion))]
        for _ in range(2):
            module = random_module(rng, torsion)
            order = module.action_order()
            z = UnitRootAngle.of(1, 3)
            for chi, period in zip(chars, character_periods_by_definition(module, chars)):
                orbit = chi.orbit(module)
                assert len(orbit) == period, (module, chi)
                for l in {1, max(1, period - 1), period, period + 1, 2 * period, order}:
                    if l % period:
                        with pytest.raises(CharacterNotPeriodic):
                            build_rep(l, z, chi, module)
                    else:
                        assert build_rep(l, z, chi, module).dim == l
            orbits = _character_orbits(module)
            assert sum(len(orbit) for _, orbit in orbits) == len(chars) == module.order()
            keys = [chi.exponents for chi, _ in orbits]
            assert keys == sorted(keys)
            covered = set()
            for chi, orbit in orbits:
                exponents = chi.orbit(module)
                assert exponents == orbit and chi.exponents == min(exponents)
                covered.update(exponents)
            assert covered == {chi.exponents for chi in chars}

    def test_rejects_a_character_not_defined_on_the_module(self):
        # t = 2 on Z/3 sends the exponent 1 mod 2 to 0, so a walk from that
        # ill-defined chi would never return; the orbit refuses it, and a
        # character with the wrong number of exponents too
        for chi in (Character.make(2, (1,)), Character.make(3, (1, 1))):
            with pytest.raises(ValueError):
                chi.orbit(Z3_TWO)


class TestCachesLiveOnInstances:
    def test_module_and_reps_are_freed(self):
        # the t^e matrices, the order of t, the modulus and the character
        # orbits are cached on the objects, so nothing keeps them alive
        import gc
        import weakref
        module = FiniteLambdaModule.make((3, 9), [[2, 0], [3, 4]])
        m = module.action_order()
        reps = enumerate_irreps(m, module)
        els = list(semidirect_elements(module, m))
        assert character_table_checks(reps, m, module).all_ok
        for x, y in zip(els, els[7:]):
            xy = semidirect_mul(x, y, module, m)
            assert all(r.matrix(xy) == r.matrix(x) @ r.matrix(y) for r in reps)
        assert module.__dict__["_t_powers"] and "_orbit" in reps[-1].__dict__
        refs = [weakref.ref(module)] + [weakref.ref(r) for r in reps]
        del module, reps, els, x, y, xy
        gc.collect()
        assert not [ref for ref in refs if ref() is not None]


def _random_monomial(rng, size):
    perm = list(range(size))
    rng.shuffle(perm)
    return MonomialMatrix(tuple(perm), tuple(rng.randrange(12) for _ in range(size)), 12)


def _dense(m):
    """Dense matrix of a monomial matrix: entries are turns mod its modulus
    (single turns), or None for a zero entry."""
    size = len(m.perm)
    out = [[None] * size for _ in range(size)]
    for j in range(size):
        out[m.perm[j]][j] = m.turns[j]
    return out


def _matmul_dense(a, b, modulus=12):
    size = len(a)
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = None
            for k in range(size):
                if a[i][k] is not None and b[k][j] is not None:
                    assert acc is None  # monomial structure
                    acc = (a[i][k] + b[k][j]) % modulus
            out[i][j] = acc
    return out
