import random

import pytest
from hypothesis import given, settings, strategies as st

from knotsig import (IntLaurentPoly, alexander_polynomial, arf_invariant,
                     block_sum, find_seifert_metabolizer, validate_seifert,
                     NotSquare, NotUnimodular, OddSize)
from knotsig.intmat import mat_mul
from knotsig.polyz import pnorm

from conftest import (random_interesting_seifert, random_seifert, random_unimodular,
                      torus_seifert, _mat_mul)
from oracles import alexander_by_cofactor, alexander_by_pencil_interpolation


class TestValidate:
    def test_empty_matrix_is_valid(self):
        a = validate_seifert([])
        assert a.n == 0 and a.genus == 0

    def test_trefoil_valid(self):
        a = validate_seifert([[-1, 1], [0, -1]])
        assert a.genus == 1

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate_seifert([[1, 2, 3], [0, 1, 2]])

    def test_odd_size(self):
        with pytest.raises(OddSize):
            validate_seifert([[0]])

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            validate_seifert([[1, 2], [2, 1]])


class TestAlexander:
    def test_unknot(self, unknot):
        assert str(alexander_polynomial(unknot)) == "1"

    def test_trefoil_by_hand(self, trefoil):
        # det([[1-t, t], [-1, 1-t]]) = t^2 - t + 1, expanded by hand
        assert alexander_polynomial(trefoil).coeffs == (1, -1, 1)

    def test_slice4_pinned_by_cofactor_oracle(self, slice4):
        raw = alexander_by_cofactor(slice4)
        # regression value computed by the cofactor oracle: (t^2 - t + 1)^2
        assert pnorm(raw) == [1, -2, 3, -2, 1]
        assert alexander_polynomial(slice4).coeffs == (1, -2, 3, -2, 1)

    def test_figure_eight_sign_normalization(self, figure_eight):
        p = alexander_polynomial(figure_eight)
        assert p.coeffs == (-1, 3, -1)
        assert p(1) == 1

    def test_matches_cofactor_oracle_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_seifert(rng, rng.choice([1, 2]))
            raw = alexander_by_cofactor(a)
            got = alexander_polynomial(a)
            # raw equals the canonical form up to a unit +-t^e
            stripped = list(raw)
            while stripped and stripped[0] == 0:
                stripped.pop(0)
            if sum(stripped) < 0:
                stripped = [-c for c in stripped]
            assert tuple(stripped) == got.coeffs

    @given(st.integers(1, 6), st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_pencil_and_cofactor_oracles(self, genus, seed, interesting):
        make = random_interesting_seifert if interesting else random_seifert
        a = make(random.Random(seed), genus)
        got = alexander_polynomial(a)
        assert IntLaurentPoly.make(alexander_by_pencil_interpolation(a)).canonical() == got
        if genus <= 4:
            assert IntLaurentPoly.make(alexander_by_cofactor(a)).canonical() == got

    @pytest.mark.parametrize("make", [
        lambda: random_seifert(random.Random(10), 10),
        lambda: random_seifert(random.Random(20), 20),
        lambda: torus_seifert(5, 7),
        lambda: torus_seifert(7, 9),  # genus 24
    ], ids=["random-g10", "random-g20", "T(5,7)", "T(7,9)"])
    def test_large_matches_pencil_oracle(self, make):
        a = make()
        raw = alexander_by_pencil_interpolation(a)
        assert IntLaurentPoly.make(raw).canonical() == alexander_polynomial(a)

    def test_computed_once_per_matrix(self):
        a = random_seifert(random.Random(3), 3)
        assert alexander_polynomial(a) is alexander_polynomial(a)
        assert alexander_polynomial(validate_seifert(a.as_lists())) is alexander_polynomial(a)


class TestGamma:
    @pytest.mark.parametrize("genus", [0, 1, 2, 5, 8])
    def test_integer_solution_of_v_gamma_equals_a(self, genus):
        a = random_seifert(random.Random(genus), genus)
        gamma = a.gamma
        assert len(gamma) == a.n and all(len(row) == a.n for row in gamma)
        assert all(type(x) is int for row in gamma for x in row)
        assert mat_mul(a.antisymmetrization(), gamma) == a.as_lists()

    def test_built_once(self, trefoil):
        a = validate_seifert(trefoil.as_lists())
        assert a.gamma is a.gamma


class TestArf:
    def test_unknot(self, unknot):
        assert arf_invariant(unknot) == 0

    def test_trefoil(self, trefoil):
        # e=(1,0), f=(0,1) is symplectic; q(e) = q(f) = 1
        assert arf_invariant(trefoil) == 1

    def test_slice4(self, slice4):
        assert arf_invariant(slice4) == 0

    def test_congruence_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_seifert(rng, rng.choice([1, 2, 3]), conjugate=False)
            p = random_unimodular(rng, a.n)
            pt = [[p[j][i] for j in range(a.n)] for i in range(a.n)]
            b = validate_seifert(_mat_mul(_mat_mul(pt, a.as_lists()), p))
            assert arf_invariant(a) == arf_invariant(b)


class TestMetabolizer:
    def test_unknot_empty_basis(self, unknot):
        met = find_seifert_metabolizer(unknot, 1)
        assert met is not None and met.basis == ()

    def test_slice4_found_within_bound_two(self, slice4):
        met = find_seifert_metabolizer(slice4, 2)
        assert met is not None
        ent = slice4.entries
        for x in met.basis:
            for y in met.basis:
                assert sum(x[i] * ent[i][j] * y[j]
                           for i in range(4) for j in range(4)) == 0
        from knotsig.intmat import spans_direct_summand
        assert spans_direct_summand([list(v) for v in met.basis])

    @pytest.mark.parametrize("vectors, expected", [
        ([], True),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], True),
        ([[1, 0, 0, 0], [1, 0, 2, 0]], False),  # 2e_3 is in the span, e_3 is not
        ([[2, 0, 0, 0]], False),
        ([[1, 2, 0, 1], [1, 2, 0, 1]], False),  # rank 1, not 2
    ])
    def test_spans_direct_summand(self, vectors, expected):
        from knotsig.intmat import spans_direct_summand
        assert spans_direct_summand(vectors) is expected

    def test_trefoil_not_found(self, trefoil):
        assert find_seifert_metabolizer(trefoil, 4) is None

    def test_metabolizer_forces_vanishing_signature(self, slice4):
        from knotsig import signature_function
        sf = signature_function(slice4)
        assert all(v == 0 for v in sf.arc_values)

    def test_random_metabolizers_force_vanishing_arcs(self):
        from knotsig import signature_function
        rng = random.Random(47)
        found = 0
        for _ in range(60):
            a = random_seifert(rng, 1, conjugate=False)
            met = find_seifert_metabolizer(a, 2)
            if met is None:
                continue
            found += 1
            assert all(v == 0 for v in signature_function(a).arc_values)
        assert found >= 3  # the sample must actually contain slice forms


class TestIntLaurentPoly:
    def test_canonical_strips_offset(self):
        # zeros at both ends go: leading ones as the unit t^k
        p = IntLaurentPoly.make([0, 0, 1, -1, 1, 0])
        assert p.coeffs == (1, -1, 1)
        assert p == IntLaurentPoly.make([1, -1, 1])
        assert IntLaurentPoly((0, -1, 2, -1, 0)).canonical().coeffs == (1, -2, 1)

    def test_str_formats(self):
        assert str(IntLaurentPoly.make([1])) == "1"
        assert str(IntLaurentPoly.make([1, -1, 1])) == "t^2-t+1"
        assert str(IntLaurentPoly.make([-1, 3, -1])) == "-t^2+3t-1"
        assert str(IntLaurentPoly.make([0, 2])) == "2"  # t is a unit


@st.composite
def seifert_matrices(draw):
    genus = draw(st.integers(1, 2))
    n = 2 * genus
    entries = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                            min_size=n, max_size=n))
    a = [row[:] for row in entries]
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i]
    for g in range(genus):
        a[2 * g][2 * g + 1] += 1
    return validate_seifert(a)


class TestProperties:
    @given(seifert_matrices())
    @settings(max_examples=150, deadline=None)
    def test_alexander_symmetric_and_one_at_one(self, a):
        p = alexander_polynomial(a)
        assert p(1) == 1
        assert p.is_palindromic()
        assert p.degree <= a.n

    @given(seifert_matrices(), seifert_matrices())
    @settings(max_examples=60, deadline=None)
    def test_alexander_multiplicative_under_block_sum(self, a, b):
        ab = block_sum(a, b)
        pa, pb, pab = (alexander_polynomial(x) for x in (a, b, ab))
        prod = [0] * (len(pa.coeffs) + len(pb.coeffs) - 1)
        for i, ca in enumerate(pa.coeffs):
            for j, cb in enumerate(pb.coeffs):
                prod[i + j] += ca * cb
        assert tuple(prod) == pab.coeffs
