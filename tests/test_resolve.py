import random

import pytest

from knotsig import (CapExceeded, IntLaurentPoly, PrimeDividesLeading, SemidirectElement,
                     build_resolution, enumerate_irreps,
                     finite_alexander_quotient,
                     quotient_group_order, semidirect_mul)

from oracles import matrix_order_brute

PHI6 = IntLaurentPoly.make([1, -1, 1])   # t^2 - t + 1
ONE = IntLaurentPoly.make([1])
FIG8 = IntLaurentPoly.make([-1, 3, -1])  # -t^2 + 3t - 1, leading unit -1


class TestFiniteQuotient:
    def test_phi6_mod_five(self):
        mod = finite_alexander_quotient(PHI6, 5, 1)
        assert mod.torsion == (5, 5)
        assert mod.order() == 25
        assert mod.t_matrix == ((0, 4), (1, 1))  # companion of t^2 = t - 1

    def test_phi6_mod_twenty_five(self):
        mod = finite_alexander_quotient(PHI6, 5, 2)
        assert mod.torsion == (25, 25)
        assert mod.order() == 625

    def test_trivial_polynomial(self):
        assert finite_alexander_quotient(ONE, 5, 3).order() == 1

    def test_nonmonic_leading_unit(self):
        # leading coefficient -1 is invertible mod every prime
        mod = finite_alexander_quotient(FIG8, 3, 1)
        assert mod.torsion == (3, 3)

    def test_nonmonic_leading_composite(self):
        # 2t^2 - 3t + 2: p = 2 divides the leading coefficient
        poly = IntLaurentPoly.make([2, -3, 2])
        with pytest.raises(PrimeDividesLeading):
            finite_alexander_quotient(poly, 2, 1)
        mod = finite_alexander_quotient(poly, 3, 1)
        assert mod.order() == 9

    def test_prime_divides_constant(self):
        # t^2 - t + 2: p = 2 divides the constant coefficient, not the leading one
        poly = IntLaurentPoly.make([2, -1, 1])
        with pytest.raises(ValueError, match="2 divides the constant coefficient"):
            finite_alexander_quotient(poly, 2, 1)
        with pytest.raises(ValueError, match="t is not a unit mod 2"):
            build_resolution(poly, 2, 2)
        assert finite_alexander_quotient(poly, 3, 1).order() == 9

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError):
            finite_alexander_quotient(PHI6, 6, 1)


class TestOrderOfT:
    def test_phi6_examples(self):
        assert finite_alexander_quotient(PHI6, 5, 1).action_order() == 6
        assert finite_alexander_quotient(PHI6, 2, 1).action_order() == 3
        assert finite_alexander_quotient(PHI6, 2, 2).action_order() == 6
        # t^6 = 1 identically mod Phi6
        assert finite_alexander_quotient(PHI6, 5, 3).action_order() == 6

    def test_trivial(self):
        assert finite_alexander_quotient(ONE, 7, 2).action_order() == 1

    def test_against_brute_force(self):
        rng = random.Random(41)
        polys = [PHI6, FIG8, IntLaurentPoly.make([1, -3, 1]),
                 IntLaurentPoly.make([2, -3, 2]), IntLaurentPoly.make([1, -1, 1, -1, 1])]
        for poly in polys:
            for p in (2, 3, 5, 7):
                if poly.coeffs[-1] % p == 0:
                    continue
                for i in (1, 2):
                    mod = finite_alexander_quotient(poly, p, i)
                    got = mod.action_order()
                    brute = matrix_order_brute([list(r) for r in mod.t_matrix], p ** i)
                    assert got == brute, (tuple(poly.coeffs), p, i)


class TestBuildResolution:
    def test_phi6_depth_three(self):
        report = build_resolution(PHI6, 5, 3)
        ks = [s.k for s in report.steps]
        assert ks[0] == 6
        for i, step in enumerate(report.steps, start=1):
            assert step.k > i
            assert step.module.order() == 25 ** i
        for a, b in zip(report.steps, report.steps[1:]):
            assert b.k % a.k == 0
            assert b.s >= a.s
        assert not report.separation_failures

    def test_z_generator_separated_at_one(self):
        for poly, p in ((PHI6, 5), (ONE, 3), (FIG8, 2)):
            report = build_resolution(poly, p, 2, witnesses=[(1, (0,) * poly.degree)])
            assert report.witnesses[0].separated_at == 1

    def test_unit_element_separated_at_one(self):
        report = build_resolution(PHI6, 5, 2, witnesses=[(0, (1, 0))])
        assert report.witnesses[0].separated_at == 1

    def test_deep_element_needs_depth(self):
        # (0, 5) reduces to zero mod 5 but not mod 25
        report = build_resolution(PHI6, 5, 3, witnesses=[(0, (5, 0))])
        assert report.witnesses[0].separated_at == 2

    def test_unseparated_is_reported_not_fatal(self):
        report = build_resolution(PHI6, 5, 1, witnesses=[(0, (5, 0))])
        assert report.witnesses[0].separated_at is None
        assert report.separation_failures

    def test_trivial_delta_resolves_the_integers(self):
        report = build_resolution(ONE, 5, 3, witnesses=[(7, ())])
        assert all(s.module.order() == 1 for s in report.steps)
        ks = [s.k for s in report.steps]
        assert ks[0] > 1 and all(b % a == 0 for a, b in zip(ks, ks[1:]))
        assert report.witnesses[0].separated_at is not None

    def test_order_minimality_per_step(self):
        from knotsig.intmat import identity, mat_pow_mod
        report = build_resolution(PHI6, 5, 2)
        for step in report.steps:
            comp, mod = step.module.t_matrix, step.module.torsion[0]
            assert mod == 5 ** step.index
            o = step.module.action_order()
            assert step.to_json_dict()["t_order"] == o
            assert mat_pow_mod(comp, o, mod) == identity(len(comp))
            for q in {2, 3, 5}:
                if o % q == 0:
                    assert mat_pow_mod(comp, o // q, mod) != identity(len(comp))

    @pytest.mark.parametrize("witness", [(0, (1, 2, 3)), (1, (1, 2, 3)), (0, (0, 0, 0))])
    def test_witness_of_wrong_length_rejected(self, witness):
        # checked also when n alone separates the witness at the first step,
        # and for the zero element, which is otherwise left out
        with pytest.raises(ValueError, match="length"):
            build_resolution(PHI6, 5, 1, witnesses=[witness])

    @pytest.mark.parametrize("bound", [0, -1])
    def test_witness_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="witness bound"):
            build_resolution(PHI6, 5, 2, witness_bound=bound)
        # explicit witnesses make the bound irrelevant
        report = build_resolution(PHI6, 5, 2, witnesses=[(0, (1, 0))], witness_bound=bound)
        assert report.witnesses[0].separated_at == 1

    def test_default_witnesses_capped(self, monkeypatch):
        # PHI6 at bound 2: 5^3 - 1 = 124 default witnesses
        monkeypatch.setenv("KNOTSIG_CAP", "123")
        with pytest.raises(CapExceeded) as exc:
            build_resolution(PHI6, 5, 1, witness_bound=2)
        assert (exc.value.order, exc.value.cap) == (124, 123)
        assert "witness count" in str(exc.value)
        # explicit witness lists are not capped
        many = [(n, (0, 0)) for n in range(1, 200)]
        assert len(build_resolution(PHI6, 5, 1, witnesses=many).witnesses) == 199
        monkeypatch.setenv("KNOTSIG_CAP", "124")
        assert len(build_resolution(PHI6, 5, 1, witness_bound=2).witnesses) == 124

    def test_tower_bits_capped(self, monkeypatch):
        # PHI6 at p = 5: the group orders' bit lengths sum to 8, 23, 45,
        # 74, 111, 161, 219, ... over levels 1, 2, 3, ...
        monkeypatch.setenv("KNOTSIG_CAP", "161")
        report = build_resolution(PHI6, 5, 6, witness_bound=2)
        assert sum(quotient_group_order(s).bit_length() for s in report.steps) == 161
        monkeypatch.setenv("KNOTSIG_CAP", "160")
        with pytest.raises(CapExceeded) as exc:
            build_resolution(PHI6, 5, 12, witness_bound=2)
        # raised at level 6, before level 7 is built
        assert (exc.value.order, exc.value.cap) == (161, 160)
        assert "tower bits" in str(exc.value)
        # the default witness count is checked first
        monkeypatch.setenv("KNOTSIG_CAP", "100")
        with pytest.raises(CapExceeded, match="witness count"):
            build_resolution(PHI6, 5, 12, witness_bound=2)

    def test_s_schedule_validation(self):
        with pytest.raises(ValueError):
            build_resolution(PHI6, 5, 2, s_schedule=[2, 1])
        report = build_resolution(PHI6, 5, 2, s_schedule=[1, 1])
        assert [s.s for s in report.steps] == [1, 1]
        report = build_resolution(PHI6, 5, 2, s_schedule=[2, 3])
        assert [s.s for s in report.steps] == [2, 3]


class TestQuotientGroupOrder:
    def test_spec_values(self):
        report = build_resolution(PHI6, 5, 2, s_schedule=[1, 2])
        assert quotient_group_order(report.steps[0]) == 6 * 25    # 150
        assert quotient_group_order(report.steps[1]) == 36 * 625  # k^2 * 625

    def test_trivial_delta(self):
        report = build_resolution(ONE, 5, 2)
        for step in report.steps:
            assert quotient_group_order(step) == step.k ** step.s


class TestQuotientMapHomomorphism:
    def test_reduction_is_a_homomorphism(self):
        # upstairs group Z x| Z[t]/(t^2 - t + 1) with the exact integer
        # companion action (the polynomial is monic with unit constant
        # term, so t is invertible over Z); images multiply via
        # semidirect_mul in the finite quotient
        comp = [[0, -1], [1, 1]]
        comp_inv = [[1, 1], [-1, 0]]

        def t_pow(h, e):
            mat = comp if e >= 0 else comp_inv
            for _ in range(abs(e)):
                h = (mat[0][0] * h[0] + mat[0][1] * h[1],
                     mat[1][0] * h[0] + mat[1][1] * h[1])
            return h

        def up_mul(x, y):
            return (x[0] + y[0],
                    tuple(a + b for a, b in zip(t_pow(x[1], y[0]), y[1])))

        rng = random.Random(43)
        report = build_resolution(PHI6, 5, 2, s_schedule=[1, 1])
        for step in report.steps:
            module = step.module
            m = step.cyclic_order()
            for _ in range(60):
                x = (rng.randrange(-9, 10), tuple(rng.randrange(-9, 10) for _ in range(2)))
                y = (rng.randrange(-9, 10), tuple(rng.randrange(-9, 10) for _ in range(2)))
                xi = SemidirectElement.make(*x, module, m)
                yi = SemidirectElement.make(*y, module, m)
                prod_img = semidirect_mul(xi, yi, module, m)
                assert SemidirectElement.make(*up_mul(x, y), module, m) == prod_img

    def test_irreps_of_quotients_tie_into_representation_module(self):
        report = build_resolution(PHI6, 5, 1, s_schedule=[1])
        step = report.steps[0]
        reps = enumerate_irreps(step.cyclic_order(), step.module)
        assert sum(r.dim ** 2 for r in reps) == quotient_group_order(step)
        report2 = build_resolution(PHI6, 2, 2, s_schedule=[1, 1])
        for step in report2.steps:
            reps = enumerate_irreps(step.cyclic_order(), step.module)
            assert sum(r.dim ** 2 for r in reps) == quotient_group_order(step)
