"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime (run with -s to see them all).

Criterion 1 pins the exact JSON that `eta-cyclic` prints for the bundled
slice example at k = 6: {"sum": -2, "average": "-1/3"}. The expected sum
is recomputed in the test by `oracles.tl_signature_by_congruence`
(congruence diagonalization, no characteristic polynomial), which gives
-1, 0, 0, 0, -1, 0 at cos(theta) = 1/2, -1/2, -1, -1/2, 1/2, 1. The
average is sum/k = -1/3. A bound rules out any larger value: the
Alexander polynomial is Phi_6^2 and span(e1, e2) is a metabolizer, so the
signature vanishes off the two breakpoints exp(+-i pi/3), where the form
is singular and |sigma| <= 3; hence |sum| <= 6.
"""

import json
import random
import time
from fractions import Fraction

from knotsig import (IntLaurentPoly, UnitRootAngle, alexander_module,
                     alexander_polynomial, arf_invariant, block_sum,
                     build_resolution, character_table_checks,
                     cyclic_quotient, double_cover_linking_form,
                     enumerate_irreps, factorial_schedule,
                     find_seifert_metabolizer, l2_eta_abelian, l2_eta_cyclic,
                     quotient_group_order, semidirect_elements,
                     semidirect_mul, signature_function, tl_signature_at,
                     torsion_order_by_resultant, validate_seifert)
from knotsig.cli import main

from conftest import (FIGURE_EIGHT, FIXTURE_DIR, SLICE4, TREFOIL,
                      random_interesting_seifert, random_seifert,
                      random_unimodular, _mat_mul)
from oracles import tl_signature_by_congruence, tl_signature_by_cos_enclosure

EPS9 = Fraction(1, 10 ** 9)
PHI6 = IntLaurentPoly.make([1, -1, 1])


def report(num, ok, elapsed, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {state} ({elapsed:.2f}s){' - ' + detail if detail else ''}")


class TestCriterion1:
    def test_eta_cyclic_slice_matrix_spec_literal(self, capsys):
        expected = {"sum": -2, "average": "-1/3"}
        path = FIXTURE_DIR / "slice_example.json"
        t0 = time.monotonic()
        code = main(["eta-cyclic", "--knot", str(path), "--k", "6"])
        out = capsys.readouterr().out
        elapsed = time.monotonic() - t0
        assert code == 0
        assert out.strip()
        data = json.loads(out)
        # the expected sum comes from the congruence oracle, not from knotsig,
        # at cos(2 pi j / 6) for j = 1..6
        a = validate_seifert(json.loads(path.read_text())["seifert"])
        cosines = [Fraction(c) for c in ("1/2", "-1/2", "-1", "-1/2", "1/2", "1")]
        oracle_sum = sum(tl_signature_by_congruence(a, x) for x in cosines)
        assert oracle_sum == expected["sum"]
        assert Fraction(expected["average"]) == Fraction(oracle_sum, 6)
        ok = data == expected and elapsed < 1.0
        with capsys.disabled():
            report("1 (literal sum -2, average -1/3)", ok, elapsed,
                   f"got sum={data.get('sum')} average={data.get('average')}; "
                   f"congruence oracle sum {oracle_sum}")
        assert elapsed < 1.0
        assert data == expected

    def test_eta_cyclic_slice_matrix_printed_source_value(self, capsys):
        # the printed value -2 is the signature sum over the sixth roots of
        # unity; exact equality, same runtime budget
        t0 = time.monotonic()
        code = main(["eta-cyclic", "--knot", str(FIXTURE_DIR / "slice_example.json"),
                     "--k", "6"])
        out = capsys.readouterr().out
        elapsed = time.monotonic() - t0
        assert code == 0
        assert out.strip()
        data = json.loads(out)
        ok = data["sum"] == -2 and data["average"] == "-1/3" and elapsed < 1.0
        with capsys.disabled():
            report("1bis (sum = -2 exactly)", ok, elapsed)
        assert ok


class TestCriterion2:
    def test_slice_vanishing_and_metabolizer(self):
        t0 = time.monotonic()
        lo, hi = l2_eta_abelian(SLICE4, EPS9)
        contains_zero = lo <= 0 <= hi
        width_ok = hi - lo <= EPS9
        met = find_seifert_metabolizer(SLICE4, 2)
        found = met is not None and len(met.basis) == 2
        ent = SLICE4.entries
        valid = found and all(
            sum(x[i] * ent[i][j] * y[j] for i in range(4) for j in range(4)) == 0
            for x in met.basis for y in met.basis)
        elapsed = time.monotonic() - t0
        ok = contains_zero and width_ok and valid and elapsed < 5.0
        report(2, ok, elapsed, f"integral in [{lo}, {hi}]")
        assert ok


class TestCriterion3:
    def test_factorial_averages_approach_integral(self):
        t0 = time.monotonic()
        rng = random.Random(2026)
        fixtures = [TREFOIL, SLICE4]
        fixtures += [random_seifert(rng, 2) for _ in range(5)]
        fixtures += [random_interesting_seifert(rng, 2) for _ in range(5)]
        fixtures += [random_seifert(rng, 3) for _ in range(5)]
        fixtures += [random_interesting_seifert(rng, 3) for _ in range(5)]
        assert len(fixtures) == 22
        worst_last = Fraction(0)
        for a in fixtures:
            lo, hi = l2_eta_abelian(a, EPS9)
            mid = (lo + hi) / 2
            nbp = len(signature_function(a).breakpoints)
            for k in factorial_schedule(8):
                gap = abs(l2_eta_cyclic(a, k) - mid)
                bound = Fraction(2 * a.n * (nbp + 1), k) + EPS9
                assert gap <= bound, (a.entries, k)
                if k == 40320:
                    worst_last = max(worst_last, gap)
        last_ok = worst_last < Fraction(1, 1000)
        elapsed = time.monotonic() - t0
        ok = last_ok and elapsed < 120.0
        report(3, ok, elapsed,
               f"22 fixtures, worst k=8! gap {float(worst_last):.2e}")
        assert ok


class TestCriterion4:
    def test_cover_torsion_oracle_equivalence(self):
        t0 = time.monotonic()
        for a in (TREFOIL, FIGURE_EIGHT, SLICE4):
            pres = alexander_module(a)
            for k in range(2, 41):
                hom = cyclic_quotient(pres, k)
                res = torsion_order_by_resultant(a, k)
                if res == 0:  # Delta vanishes at a k-th root of unity
                    assert hom.free_rank > 0, (a.name, k)
                    continue
                assert hom.free_rank == 0
                assert hom.module.order() == res, (a.name, k)
        hom2 = cyclic_quotient(alexander_module(TREFOIL), 2)
        assert hom2.module.torsion == (3,)
        form = double_cover_linking_form(TREFOIL)
        assert form.gram[0][0] == Fraction(1, 3)
        elapsed = time.monotonic() - t0
        ok = elapsed < 30.0
        report(4, ok, elapsed)
        assert ok


class TestCriterion5:
    def _quotients(self):
        seen = []
        for a in (TREFOIL, FIGURE_EIGHT, SLICE4):
            pres = alexander_module(a)
            for k in range(2, 10):
                hom = cyclic_quotient(pres, k)
                if hom.free_rank or hom.module.rank == 0:
                    continue
                if k * hom.module.order() <= 200 and k % hom.module.action_order() == 0:
                    seen.append((k, hom.module))
        for p in (2, 5):
            rep = build_resolution(PHI6, p, 2, s_schedule=[1, 1])
            for step in rep.steps:
                if quotient_group_order(step) <= 200:
                    seen.append((step.cyclic_order(), step.module))
        return seen

    def test_representation_suite(self):
        t0 = time.monotonic()
        quotients = self._quotients()
        assert quotients, "expected nontrivial finite quotients"
        checked_groups = 0
        for m, module in quotients:
            reps = enumerate_irreps(m, module)
            order = m * module.order()
            assert sum(r.dim ** 2 for r in reps) == order
            table = character_table_checks(reps, m, module)
            assert table.all_ok, (m, module.torsion)
            bound = module.action_order()
            assert all(r.dim <= bound for r in reps)
            els = list(semidirect_elements(module, m))
            products = [(x, y, semidirect_mul(x, y, module, m))
                        for x in els for y in els]
            for rep in reps:
                mats = {g: rep.matrix(g) for g in els}
                for x, y, prod in products:
                    assert mats[prod] == mats[x] @ mats[y]
            checked_groups += 1
        elapsed = time.monotonic() - t0
        ok = elapsed < 60.0
        report(5, ok, elapsed, f"{checked_groups} groups, orders "
               f"{sorted(m * mod.order() for m, mod in quotients)}")
        assert ok


class TestCriterion6:
    def test_resolution_suite(self):
        t0 = time.monotonic()
        rep = build_resolution(PHI6, 5, 3, witness_bound=3)
        ks = [s.k for s in rep.steps]
        assert ks[0] == 6
        for i, step in enumerate(rep.steps, start=1):
            assert step.k > i
            assert step.module.order() == 25 ** i
            assert set(step.module.torsion) == {5 ** i}
        for a, b in zip(rep.steps, rep.steps[1:]):
            assert b.k % a.k == 0
        assert rep.witnesses, "witness set must be nonempty"
        assert not rep.separation_failures
        assert all(w.separated_at is not None and w.separated_at <= 3
                   for w in rep.witnesses)
        elapsed = time.monotonic() - t0
        ok = elapsed < 30.0
        report(6, ok, elapsed, f"{len(rep.witnesses)} witnesses separated")
        assert ok


class TestCriterion7:
    """Standalone randomized property suites, 1000 cases each."""

    def _matrices(self, rng, count, genus_choices=(1, 2)):
        return [random_interesting_seifert(rng, rng.choice(genus_choices))
                for _ in range(count)]

    def test_step_function_constancy_on_arcs(self):
        t0 = time.monotonic()
        rng = random.Random(71)
        mats = self._matrices(rng, 40)
        cases = 0
        while cases < 1000:
            a = mats[cases % len(mats)]
            k = rng.randrange(2, 64)
            z = UnitRootAngle.of(rng.randrange(k), k)
            assert signature_function(a).value_at(z) == tl_signature_by_cos_enclosure(a, z)
            cases += 1
        elapsed = time.monotonic() - t0
        report("7a (arc constancy)", True, elapsed, "1000 cases")

    def test_conjugation_invariance(self):
        t0 = time.monotonic()
        rng = random.Random(73)
        mats = self._matrices(rng, 50)
        for cases in range(1000):
            a = mats[cases % len(mats)]
            k = rng.randrange(2, 64)
            z = UnitRootAngle.of(rng.randrange(1, k), k)
            assert tl_signature_at(a, z) == tl_signature_at(a, z.conjugate())
        elapsed = time.monotonic() - t0
        report("7b (conjugation invariance)", True, elapsed, "1000 cases")

    def test_additivity_under_block_sum(self):
        t0 = time.monotonic()
        rng = random.Random(79)
        pairs = [(random_interesting_seifert(rng, 1), random_interesting_seifert(rng, 1))
                 for _ in range(100)]
        sums = [block_sum(a, b) for a, b in pairs]
        for cases in range(1000):
            a, b = pairs[cases % 100]
            ab = sums[cases % 100]
            k = rng.randrange(2, 48)
            z = UnitRootAngle.of(rng.randrange(k), k)
            assert tl_signature_at(ab, z) == \
                tl_signature_at(a, z) + tl_signature_at(b, z)
        elapsed = time.monotonic() - t0
        report("7c (block sum additivity)", True, elapsed, "1000 cases")

    def test_alexander_symmetry(self):
        t0 = time.monotonic()
        rng = random.Random(83)
        for _ in range(1000):
            a = random_seifert(rng, rng.choice([1, 2, 3]), conjugate=False)
            p = alexander_polynomial(a)
            assert p(1) == 1
            assert p.is_palindromic()
        elapsed = time.monotonic() - t0
        report("7d (Alexander symmetry)", True, elapsed, "1000 cases")

    def test_arf_congruence_invariance(self):
        t0 = time.monotonic()
        rng = random.Random(89)
        for _ in range(1000):
            a = random_seifert(rng, rng.choice([1, 2]), conjugate=False)
            p = random_unimodular(rng, a.n)
            pt = [[p[j][i] for j in range(a.n)] for i in range(a.n)]
            b = validate_seifert(_mat_mul(_mat_mul(pt, a.as_lists()), p))
            assert arf_invariant(a) == arf_invariant(b)
        elapsed = time.monotonic() - t0
        report("7e (Arf congruence invariance)", True, elapsed, "1000 cases")
