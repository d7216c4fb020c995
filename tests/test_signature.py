import random
from fractions import Fraction

import pytest

from knotsig import (CirclePoint, UnitRootAngle, alexander_polynomial,
                     approximation_table, block_sum,
                     eta_cyclic, l2_eta_abelian, l2_eta_cyclic,
                     signature_function, tl_signature_at, validate_seifert,
                     factorial_schedule)
from knotsig import signature as signature_module
from knotsig.intmat import det, diagonal_blocks
from knotsig.knotio import read_knot
from knotsig.realalg import AlgebraicElement, cos_turn_bounds
from knotsig.polyz import (cos_compact, cyclotomic, isolate_roots, peval,
                           squarefree_part, sturm_chain, sturm_count)
from knotsig.signature import (SignatureFunction, _compute_breakpoints, _dyadic_between,
                               _order_candidates, _root_of_unity_orders)

from conftest import (FIGURE_EIGHT, FIXTURE_DIR, SLICE4, TREFOIL, UNKNOT, conjugate, mirror,
                      random_interesting_seifert, random_seifert, torus_seifert)
import oracles
from oracles import (_char_poly_in_x, _signature_at_x, pdivides, sign_at_cos_turn,
                     tl_signature_by_congruence, torus_signature_by_lattice_count,
                     tl_signature_by_cos_enclosure, vanishes_at_root_of_unity_by_division)


def angle(j, k):
    return UnitRootAngle.of(j, k)


class TestSignatureAt:
    def test_z_equal_one_is_zero(self, trefoil, slice4):
        for a in (trefoil, slice4):
            assert tl_signature_at(a, angle(0, 1)) == 0

    def test_trefoil_at_minus_one(self, trefoil):
        # matrix 2(A+A^t) = [[-4,2],[2,-4]], eigenvalues -2, -6
        assert tl_signature_at(trefoil, angle(1, 2)) == -2

    def test_trefoil_at_breakpoint(self, trefoil):
        # matrix [[-1, zbar], [z, -1]]: det 0, trace -2
        assert tl_signature_at(trefoil, angle(1, 6)) == -1

    def test_conjugation_invariance_examples(self, trefoil, slice4):
        for a in (trefoil, slice4):
            for j, k in ((1, 5), (2, 7), (3, 8), (1, 6)):
                assert tl_signature_at(a, angle(j, k)) == \
                    tl_signature_at(a, angle(k - j, k))

    def test_bounded_by_size(self, trefoil, slice4):
        for a in (trefoil, slice4):
            for j in range(1, 12):
                assert abs(tl_signature_at(a, angle(j, 12))) <= a.n

    def test_against_congruence_oracle_rational_angles(self):
        rng = random.Random(23)
        rational_x = {2: Fraction(-1), 3: Fraction(-1, 2),
                      4: Fraction(0), 6: Fraction(1, 2)}
        for _ in range(25):
            a = random_seifert(rng, rng.choice([1, 2]))
            for k, x in rational_x.items():
                assert tl_signature_at(a, angle(1, k)) == \
                    tl_signature_by_congruence(a, x)

    def test_point_values_against_congruence_oracle(self, trefoil, slice4):
        # both have their breakpoints at x = 1/2, where both engines apply
        # (the matrix there is singular; zero eigenvalues drop out)
        for a in (trefoil, slice4):
            assert tl_signature_at(a, angle(1, 6)) == \
                tl_signature_by_congruence(a, Fraction(1, 2)) == -1

    def test_large_denominator_angles_are_fast(self, trefoil):
        # 10! = 3628800; near z = 1 the signature vanishes, and the
        # reduced sixth-root grid point hits the breakpoint exactly
        assert tl_signature_at(trefoil, angle(1, 3628800)) == 0
        assert tl_signature_at(trefoil, angle(604800, 3628800)) == -1
        assert tl_signature_at(trefoil, angle(1814400, 3628800)) == -2


class TestBreakpoints:
    def test_unknot_no_breakpoints(self, unknot):
        assert signature_function(unknot).breakpoints == ()

    def test_figure_eight_no_breakpoints(self, figure_eight):
        assert signature_function(figure_eight).breakpoints == ()

    def test_trefoil_two_points_at_half(self, trefoil):
        bps = signature_function(trefoil).breakpoints
        assert len(bps) == 2
        assert [bp.hemisphere for bp in bps] == ["upper", "lower"]
        for bp in bps:
            assert bp.x.sign_of_poly([-1, 2]) == 0  # x = 1/2 exactly
        assert [bp.exact_turn for bp in bps] == [Fraction(1, 6), Fraction(5, 6)]

    def test_connected_sum_same_points(self, trefoil):
        double = block_sum(trefoil, trefoil)
        bps = signature_function(double).breakpoints
        assert len(bps) == 2
        for bp in bps:
            assert bp.x.sign_of_poly([-1, 2]) == 0

    def test_rational_noncyclotomic_breakpoint(self):
        # genus-1 matrix with Alexander polynomial 2t^2 - 3t + 2:
        # breakpoint at x = 3/4, which is not a root-of-unity cosine
        a = validate_seifert([[2, 2], [1, 2]])
        bps = signature_function(a).breakpoints
        assert len(bps) == 2
        assert all(bp.exact_turn is None for bp in bps)
        assert bps[0].x.sign_of_poly([-3, 4]) == 0
        lo, hi = oracles.turn_bounds(bps[0], Fraction(1, 10 ** 6))
        clo, chi_ = cos_turn_bounds(lo, 64)
        assert chi_ > Fraction(3, 4)  # cos(lo) > 3/4, so lo < turn


class TestSignatureFunction:
    def test_unknot(self, unknot):
        sf = signature_function(unknot)
        assert sf.breakpoints == () and sf.arc_values == (0,)
        assert sf.value_at(UnitRootAngle.of(0, 1)) == 0

    def test_trefoil_arcs_and_points(self, trefoil):
        sf = signature_function(trefoil)
        assert sf.arc_values == (-2, 0)
        assert sf.point_values == (-1, -1)

    def test_slice4_all_arcs_vanish(self, slice4):
        sf = signature_function(slice4)
        assert all(v == 0 for v in sf.arc_values)
        assert sf.point_values == (-1, -1)

    def test_value_at_matches_direct_evaluation(self, trefoil):
        sf = signature_function(trefoil)
        for k in (5, 6, 7, 12):
            for j in range(k):
                assert sf.value_at(angle(j, k)) == \
                    tl_signature_by_cos_enclosure(trefoil, angle(j, k))

    def test_step_constancy_on_arcs(self):
        rng = random.Random(37)
        for _ in range(6):
            a = random_seifert(rng, rng.choice([1, 2]))
            sf = signature_function(a)
            for j in range(1, 40):
                assert sf.value_at(angle(j, 40)) == \
                    tl_signature_by_cos_enclosure(a, angle(j, 40))


class TestEtaCyclic:
    def test_k_one_is_zero(self, trefoil, slice4, figure_eight):
        for a in (trefoil, slice4, figure_eight):
            assert eta_cyclic(a, 1) == 0

    def test_trefoil_k6_terms(self, trefoil):
        # terms -1, -2, -2, -2, -1, 0
        assert eta_cyclic(trefoil, 6) == -8
        assert l2_eta_cyclic(trefoil, 6) == Fraction(-4, 3)

    def test_slice4_k6_paper_value(self, slice4):
        # the printed value -2 is the plain sum over the sixth roots of
        # unity (two breakpoint hits at -1 each, all other terms vanish)
        assert eta_cyclic(slice4, 6) == -2
        assert l2_eta_cyclic(slice4, 6) == Fraction(-1, 3)

    def test_counting_agrees_with_direct_summation(self, trefoil):
        for k in (5, 6, 8, 360):
            direct = sum(tl_signature_by_cos_enclosure(trefoil, angle(j, k))
                         for j in range(1, k + 1))
            assert eta_cyclic(trefoil, k) == direct

    def test_counting_agrees_on_random_matrices(self):
        rng = random.Random(101)
        for _ in range(4):
            a = random_seifert(rng, rng.choice([1, 2]))
            for k in (7, 12, 30):
                direct = sum(tl_signature_by_cos_enclosure(a, angle(j, k))
                             for j in range(1, k + 1))
                assert eta_cyclic(a, k) == direct

    def test_lookup_loop_sums_to_eta(self):
        # each lookup reuses the separating bounds cached for its k
        a = random_interesting_seifert(random.Random(5), 4)
        sf = signature_function(a)
        assert any(bp.exact_turn is None for bp in sf.breakpoints)
        k = 5040
        assert sum(tl_signature_at(a, angle(j, k)) for j in range(1, k + 1)) == \
            sf.eta_sum(k)

    def test_ten_factorial_exact(self, trefoil):
        # 6 | 10!, so the average recovers the integral exactly: the arc
        # (1/6, 5/6) holds 2419199 grid points at value -2 plus the two
        # breakpoints at -1
        k = 3628800
        assert eta_cyclic(trefoil, k) == -2 * 2419199 - 2
        assert l2_eta_cyclic(trefoil, k) == Fraction(-4, 3)


class TestIntegral:
    def test_unknot_zero(self, unknot):
        lo, hi = l2_eta_abelian(unknot, Fraction(1, 10 ** 9))
        assert lo <= 0 <= hi and hi - lo <= Fraction(1, 10 ** 9)

    def test_trefoil_value(self, trefoil):
        # arc (pi/3, 5pi/3) has normalized measure 2/3 and value -2
        lo, hi = l2_eta_abelian(trefoil, Fraction(1, 10 ** 9))
        assert lo <= Fraction(-4, 3) <= hi
        assert hi - lo <= Fraction(1, 10 ** 9)

    def test_slice4_zero(self, slice4):
        lo, hi = l2_eta_abelian(slice4, Fraction(1, 10 ** 9))
        assert lo <= 0 <= hi and hi - lo <= Fraction(1, 10 ** 9)

    def test_riemann_average_approaches_integral(self, trefoil):
        lo, hi = l2_eta_abelian(trefoil, Fraction(1, 10 ** 6))
        avg = l2_eta_cyclic(trefoil, 720)
        assert abs(avg - (lo + hi) / 2) <= Fraction(8, 720) + Fraction(1, 10 ** 6)


class TestApproximationTable:
    def test_unknot(self, unknot):
        rows = approximation_table(unknot, [1, 2, 6], Fraction(1, 10 ** 9))
        assert all(r.average == 0 and r.gap_hi == 0 for r in rows)

    def test_trefoil_schedule(self, trefoil):
        rows = approximation_table(trefoil, [2, 6, 24, 120], Fraction(1, 10 ** 9))
        assert [r.average for r in rows] == \
            [Fraction(-1), Fraction(-4, 3), Fraction(-4, 3), Fraction(-4, 3)]
        assert rows[0].gap_hi >= rows[1].gap_hi >= rows[2].gap_hi

    def test_gap_bound_random(self):
        rng = random.Random(53)
        for _ in range(3):
            a = random_seifert(rng, 2)
            sched = factorial_schedule(6)
            rows = approximation_table(a, sched, Fraction(1, 10 ** 9))
            nbp = len(signature_function(a).breakpoints)
            bound = 2 * a.n * (nbp + 1)
            for row in rows:
                assert row.gap_hi <= Fraction(bound, row.k) + Fraction(1, 10 ** 8)

    def test_schedule_validation(self, trefoil):
        with pytest.raises(ValueError):
            approximation_table(trefoil, [], Fraction(1, 100))
        with pytest.raises(ValueError):
            approximation_table(trefoil, [4, 2], Fraction(1, 100))


class TestRicherFixtures:
    """A torus knot with two cyclotomic breakpoint pairs, a twist form with
    an irrational non-cyclotomic turn, and their block sum mixing both."""

    CINQ = validate_seifert([[-1, 1, 0, 0], [0, -1, 1, 0],
                             [0, 0, -1, 1], [0, 0, 0, -1]])
    TWIST = validate_seifert([[2, 2], [1, 2]])

    def test_cinquefoil_profile(self):
        sf = signature_function(self.CINQ)
        assert [bp.exact_turn for bp in sf.breakpoints] == \
            [Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)]
        assert sf.arc_values == (-2, -4, -2, 0)
        assert sf.point_values == (-1, -3, -3, -1)
        assert tl_signature_at(self.CINQ, angle(1, 2)) == -4
        assert eta_cyclic(self.CINQ, 10) == -24
        lo, hi = l2_eta_abelian(self.CINQ, Fraction(1, 10 ** 9))
        # 0.2 * (-2) + 0.4 * (-4) + 0.2 * (-2) = -12/5 exactly
        assert lo <= Fraction(-12, 5) <= hi

    def test_twist_irrational_breakpoint(self):
        sf = signature_function(self.TWIST)
        assert str(alexander_polynomial(self.TWIST)) == "2t^2-3t+2"
        assert len(sf.breakpoints) == 2
        bp = sf.breakpoints[0]
        assert bp.exact_turn is None  # cos = 3/4 is not a root-of-unity cosine
        assert bp.x.sign_of_poly([-3, 4]) == 0
        assert sf.arc_values == (2, 0)
        assert sf.point_values == (1, 1)
        # integral = 2 * (1 - 2 * turn): both enclosures bracket the same
        # number, so they must overlap
        lo, hi = l2_eta_abelian(self.TWIST, Fraction(1, 10 ** 9))
        tlo, thi = oracles.turn_bounds(bp, Fraction(1, 10 ** 12))
        assert max(lo, 2 * (1 - 2 * thi)) <= min(hi, 2 * (1 - 2 * tlo))
        assert hi - lo <= Fraction(1, 10 ** 9)

    def test_mixed_block_sum_counting(self, trefoil):
        mix = block_sum(self.TWIST, trefoil)
        sf = signature_function(mix)
        assert [bp.exact_turn for bp in sf.breakpoints] == \
            [None, Fraction(1, 6), Fraction(5, 6), None]
        assert sf.arc_values == (2, 0, 2, 0)
        assert sf.point_values == (1, 1, 1, 1)
        for k in (6, 10, 12, 30):
            direct = sum(tl_signature_by_cos_enclosure(mix, angle(j, k))
                         for j in range(1, k + 1))
            assert eta_cyclic(mix, k) == direct


class TestCornerGeometry:
    """Breakpoints close to z = 1 and close to each other stress the
    enclosure refinement in the counting and integration paths."""

    def test_breakpoint_near_one(self):
        a = validate_seifert([[2, 1], [0, 5]])  # x = 19/20, turn ~ 0.0507
        assert str(alexander_polynomial(a)) == "10t^2-19t+10"
        sf = signature_function(a)
        assert sf.arc_values == (2, 0) and sf.point_values == (1, 1)
        for k in (7, 40, 353):
            direct = sum(tl_signature_by_cos_enclosure(a, angle(j, k))
                         for j in range(1, k + 1))
            assert eta_cyclic(a, k) == direct

    def test_two_nearby_breakpoints(self):
        a = block_sum(validate_seifert([[4, 1], [0, 5]]),
                      validate_seifert([[1, 1], [0, 41]]))
        # roots at x = 39/40 and x = 81/82: turns 0.0355 and 0.0249
        sf = signature_function(a)
        assert sf.arc_values == (2, 4, 2, 0)
        assert sf.point_values == (1, 3, 3, 1)
        for k in (11, 100):
            direct = sum(tl_signature_by_cos_enclosure(a, angle(j, k))
                         for j in range(1, k + 1))
            assert eta_cyclic(a, k) == direct
        lo, hi = l2_eta_abelian(a, Fraction(1, 10 ** 9))
        assert hi - lo <= Fraction(1, 10 ** 9)

    @pytest.mark.parametrize("d", [104, 500])
    def test_breakpoint_within_a_64th_turn_of_one(self, d):
        # Alexander polynomial Dt^2 - (2D-1)t + D: x = 1 - 1/(2D), turn
        # ~ 1/(2 pi sqrt(D)) < 1/64, so the wrap arc is sampled in a sliver
        # of x and its turn enclosures must be narrow to count grid points
        a = validate_seifert([[d, 1], [0, 1]])
        sf = signature_function(a)
        assert sf.arc_values == (2, 0) and sf.point_values == (1, 1)
        assert oracles.turn_bounds(sf.breakpoints[-1], Fraction(1, 10 ** 6))[0] > Fraction(63, 64)
        for k in (7, 64, 100, 353):
            direct = sum(tl_signature_by_cos_enclosure(a, angle(j, k))
                         for j in range(1, k + 1))
            assert eta_cyclic(a, k) == direct
        eps = Fraction(1, 10 ** 9)
        lo, hi = l2_eta_abelian(a, eps)
        assert hi - lo <= eps


class TestTurnTracker:
    """Irrational breakpoint turns, enclosed by dyadic bisection against the
    integer cosine kernel."""

    def test_enclosures_against_mpmath(self):
        import mpmath
        rng = random.Random(61)
        mats = [validate_seifert([[500, 1], [0, 1]]), validate_seifert([[2, 1], [0, 5]])]
        mats += [random_interesting_seifert(rng, rng.choice([1, 2, 3])) for _ in range(8)]
        width = Fraction(1, 2 ** 100)
        seen = 0
        for a in mats:
            for bp in signature_function(a).breakpoints:
                if bp.exact_turn is not None:
                    continue
                lo, hi = oracles.turn_bounds(bp, width)
                assert hi - lo <= width
                assert (hi - lo).numerator == 1 and lo.denominator & (lo.denominator - 1) == 0
                xlo, _ = bp.x.bounds(Fraction(1, 2 ** 220))
                with mpmath.workprec(320):
                    x = mpmath.mpf(xlo.numerator) / xlo.denominator
                    ref = mpmath.acos(x) / (2 * mpmath.pi)
                    if bp.hemisphere == "lower":
                        ref = 1 - ref
                    ref = Fraction(int(mpmath.floor(mpmath.ldexp(ref, 200))), 2 ** 200)
                tol = Fraction(1, 2 ** 160)
                assert lo - tol <= ref <= hi + tol, (a.entries, bp)
                seen += 1
        assert seen >= 8

    def test_refinement_interleaved_inside_a_comparison(self, monkeypatch):
        # threads share a cached step function: another refinement of the
        # same turn cell may run while one waits on a cosine comparison
        from knotsig.realalg import RealAlgebraic
        x = signature_function(validate_seifert([[500, 1], [0, 1]])).breakpoints[0].x
        fine, coarse = Fraction(1, 2 ** 40), Fraction(1, 2 ** 20)
        expected = oracles.turn_bounds(self._fresh(x), fine)
        compare = RealAlgebraic._cos_exceeds
        nested = []

        def interleaved(self, a, b):
            if not nested:
                nested.append(None)
                nested[0] = oracles.turn_bounds(CirclePoint(self, "upper"), coarse)
            return compare(self, a, b)

        monkeypatch.setattr(RealAlgebraic, "_cos_exceeds", interleaved)
        assert oracles.turn_bounds(self._fresh(x), fine) == expected
        lo, hi = nested[0]
        assert lo <= expected[0] and expected[1] <= hi

    # Alexander polynomial D t^4 + (1 - 2D) t^2 + D = D (t^2 - 1)^2 + t^2
    # for D = 100 and 500: cos(theta) = +-sqrt(1 - 1/(4D)), turns within
    # 0.008 of 0 and of 1/2, where sin(2*pi*t) in Newton's step is small
    SQUARED = ([[-4, 1, -3, 0], [0, 0, -5, 0], [0, 5, 0, 1], [0, 0, 0, -1]],
               [[-5, 1, -3, 0], [0, 0, -5, 0], [0, 5, 0, 1], [0, 0, 0, -4]])

    @classmethod
    def _irrational_xs(cls):
        rng = random.Random(67)
        mats = [validate_seifert([[d, 1], [0, 1]]) for d in (2, 7, 100, 500)]
        mats += [validate_seifert(m) for m in cls.SQUARED]
        mats += [random_interesting_seifert(rng, rng.choice([2, 3])) for _ in range(4)]
        xs = []
        for a in mats:
            sf = signature_function(a)
            xs += [bp.x for bp in sf.breakpoints[:len(sf.breakpoints) // 2]
                   if bp.exact_turn is None]
        return xs

    @staticmethod
    def _fresh(x):
        from knotsig.realalg import RealAlgebraic
        return CirclePoint(RealAlgebraic(x.poly, x.lo, x.hi), "upper")

    def test_jump_matches_bisection(self):
        # the Newton-guessed cell at each depth is the one plain bisection
        # (oracles.turn_cell_by_bisection, Fraction x, cos_turn_bounds) reaches
        from oracles import turn_cell_by_bisection
        xs = self._irrational_xs()
        turns = []
        for x in xs:
            top = turn_cell_by_bisection(x.poly, x.lo, x.hi, 300)
            for depth in (20, 21, 64, 141, 200, 300):
                num = top >> (300 - depth)
                want = (Fraction(num, 1 << depth), Fraction(num + 1, 1 << depth))
                assert oracles.turn_bounds(self._fresh(x), Fraction(1, 1 << depth)) == want
            turns.append(Fraction(top, 1 << 300))
        assert len(xs) >= 10
        assert min(turns) < Fraction(1, 100) and max(turns) > Fraction(49, 100)

    def test_wrong_guess_falls_back_to_bisection(self, monkeypatch):
        from knotsig.realalg import RealAlgebraic
        xs = self._irrational_xs()
        width = Fraction(1, 2 ** 150)
        want = [oracles.turn_bounds(self._fresh(x), width) for x in xs]
        guess = RealAlgebraic._turn_guess
        for wrong in (lambda g: g + 1, lambda g: g - 1, lambda g: g ^ 4):
            def off(self, num, depth, target, wrong=wrong):
                g = wrong(guess(self, num, depth, target))
                first = num << (target - depth)
                return min(max(g, first), first + (1 << (target - depth)) - 1)
            monkeypatch.setattr(RealAlgebraic, "_turn_guess", off)
            assert [oracles.turn_bounds(self._fresh(x), width) for x in xs] == want

    def test_guess_is_certified_in_few_cosines(self, monkeypatch):
        # a guess that silently fails keeps every result and loses the
        # speed: one turn cell to 2^-200 must take at most 40 kernel calls,
        # where bisection alone takes about 200
        from knotsig import realalg
        kernel, calls = realalg._cos_scaled, []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(realalg, "_cos_scaled", counted)
        for x in self._irrational_xs():
            calls.clear()
            oracles.turn_bounds(self._fresh(x), Fraction(1, 2 ** 200))
            assert len(calls) <= 40, (x, len(calls))

    def test_threads_sharing_trackers(self):
        # every thread gets the fresh single-threaded cell, whatever the
        # others did to the shared turn cell and x interval meanwhile
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor
        from knotsig.polyz import psign
        xs = self._irrational_xs()
        depths = (150, 5, 64, 21, 200, 11, 90)
        want = {(i, d): oracles.turn_bounds(self._fresh(x), Fraction(1, 2 ** d))
                for i, x in enumerate(xs) for d in depths}
        shared = [self._fresh(x) for x in xs]
        inside, peak, lock = [0], [0], threading.Lock()

        def call(tracker, width):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                return oracles.turn_bounds(tracker, width)
            finally:
                with lock:
                    inside[0] -= 1

        # a switch every 100 us still lands inside the calls, which take
        # about 0.3 ms each; at 1 us with 8 threads the test once made no
        # progress for minutes while other jobs loaded the machine
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = {key: pool.submit(call, shared[key[0]], Fraction(1, 2 ** key[1]))
                           for key in want}
                got = {key: f.result(timeout=120) for key, f in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert peak[0] >= 2, "no two turn_bounds calls overlapped"
        for t in shared:
            x = t.x
            if x.lo != x.hi:
                assert psign(x.poly, x.lo.numerator, x.lo.denominator) * \
                    psign(x.poly, x.hi.numerator, x.hi.denominator) < 0

    def test_enclosures_do_not_depend_on_earlier_queries(self):
        a = validate_seifert([[7, 1], [0, 1]])
        bp = signature_function(a).breakpoints[0]
        fresh = [oracles.turn_bounds(self._fresh(bp.x), Fraction(1, 2 ** d)) for d in (1, 21, 90)]
        oracles.turn_bounds(bp, Fraction(1, 2 ** 120))
        assert [oracles.turn_bounds(bp, Fraction(1, 2 ** d)) for d in (1, 21, 90)] == fresh
        signature_function.cache_clear()
        first = l2_eta_abelian(a, Fraction(1, 10 ** 6))
        assert first[0].denominator == 2 ** 21
        l2_eta_abelian(a, Fraction(1, 10 ** 30))
        assert l2_eta_abelian(a, Fraction(1, 10 ** 6)) == first


class TestCompactForm:
    """Alexander polynomials with zero coefficients, whose compact form in
    t + 1/t the breakpoint search must get right."""

    # Alexander polynomial Phi_12: breakpoints at the primitive 12th roots
    PHI12 = [[-1, -1, -3, 3], [-2, -2, -2, 1], [-3, -2, 1, -1], [3, 1, -2, 0]]

    @pytest.mark.parametrize("entries, delta", [
        # -2t^4 + 5t^2 - 2: no unit-circle roots
        ([[-3, 0, -3, 5], [1, 2, -2, 0], [-5, -2, 1, 3], [6, 1, 2, -6]],
         "-2t^4+5t^2-2"),
        (PHI12, "t^4-t^2+1"),
    ])
    def test_step_function_against_congruence_oracle(self, entries, delta):
        a = validate_seifert(entries)
        assert str(alexander_polynomial(a)) == delta
        sf = signature_function(a)
        for k, x in ((2, Fraction(-1)), (3, Fraction(-1, 2)), (4, Fraction(0)),
                     (6, Fraction(1, 2))):
            expected = tl_signature_by_congruence(a, x)
            for j in (1, k - 1):
                assert tl_signature_at(a, angle(j, k)) == expected
                assert sf.value_at(angle(j, k)) == expected
        for j in range(24):
            assert sf.value_at(angle(j, 24)) == tl_signature_by_cos_enclosure(a, angle(j, 24))

    def test_phi12_breakpoints(self):
        sf = signature_function(validate_seifert(self.PHI12))
        assert [bp.exact_turn for bp in sf.breakpoints] == \
            [Fraction(j, 12) for j in (1, 5, 7, 11)]
        assert sf.arc_values == (-2, 0, -2, 0)


class TestTorusKnots:
    """T(p, q) from conftest.torus_seifert against closed forms."""

    def test_trefoil_is_t23(self):
        assert torus_seifert(2, 3).entries == TREFOIL.entries

    @pytest.mark.parametrize("p, q", [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5),
                                      (2, 11), (3, 7), (4, 5)])
    def test_l2_integral_closed_form(self, p, q):
        # the circle integral of the Tristram-Levine signature of T(p, q)
        # is -(p - 1/p)(q - 1/q)/3 (Collins 2010; Borodzik 2010)
        a = torus_seifert(p, q)
        assert a.n == (p - 1) * (q - 1)
        expected = -(p - Fraction(1, p)) * (q - Fraction(1, q)) / 3
        eps = Fraction(1, 10 ** 12)
        lo, hi = l2_eta_abelian(a, eps)
        assert lo <= expected <= hi and hi - lo <= eps


class TestLitherland:
    """Arc values of torus knots of genus 12-15 against Litherland's
    lattice-point count, at turns j/k with k prime to pq, which are never
    breakpoints (those are the i/p + j/q mod 1)."""

    def test_sign_pinned_on_trefoil(self):
        assert torus_signature_by_lattice_count(2, 3, Fraction(1, 2)) == -2 == \
            tl_signature_at(TREFOIL, angle(1, 2))
        for j in range(1, 13):
            if j != 2 and j != 10:
                assert torus_signature_by_lattice_count(2, 3, Fraction(j, 12)) == \
                    tl_signature_at(TREFOIL, angle(j, 12))

    @staticmethod
    def check(a, p, q):
        sf = signature_function(a)
        assert len(sf.breakpoints) == a.n  # Delta has simple roots only
        for k in (11, 13, 101):
            for j in range(1, k):
                assert sf.value_at(angle(j, k)) == \
                    torus_signature_by_lattice_count(p, q, Fraction(j, k)), (j, k)

    @pytest.mark.parametrize("p, q", [(5, 7), (6, 7), (4, 9)])
    def test_arcs(self, p, q):
        self.check(torus_seifert(p, q), p, q)

    def test_conjugate(self):
        self.check(conjugate(random.Random(7), torus_seifert(5, 7)), 5, 7)


class TestRootOfUnityOrders:
    """The search skips every d with phi(d) > deg Delta; the reference is
    the full definition: every d <= 4 deg^2 + 6 with Phi_d | Delta."""

    CINQ = TestRicherFixtures.CINQ
    # T(2,7): Delta = Phi_14
    T27 = validate_seifert([[-1 if j == i else 1 if j == i + 1 else 0
                             for j in range(6)] for i in range(6)])

    @staticmethod
    def brute_force_orders(a):
        delta = list(alexander_polynomial(a).coeffs)
        deg = len(delta) - 1
        return [d for d in range(1, 4 * deg * deg + 7)
                if pdivides(list(cyclotomic(d)), delta)]

    def test_against_full_definition(self, trefoil):
        for a, orders in ((self.CINQ, [10]), (self.T27, [14]),
                          (block_sum(trefoil, self.CINQ), [6, 10])):
            assert _root_of_unity_orders(alexander_polynomial(a)) == orders
            assert self.brute_force_orders(a) == orders
        assert [bp.exact_turn for bp in signature_function(self.T27).breakpoints] == \
            [Fraction(j, 14) for j in (1, 3, 5, 9, 11, 13)]


class TestOrderCandidates:
    """_order_candidates(deg) against {d >= 3 : phi(d) <= deg}, scanned far
    past the 2 deg^2 bound by a sieve that shares no code with
    intmat.euler_phi."""

    TOP = 80  # genus 40

    @staticmethod
    def phi_sieve(n):
        phi = list(range(n + 1))
        for p in range(2, n + 1):
            if phi[p] == p:  # p prime
                for m in range(p, n + 1, p):
                    phi[m] -= phi[m] // p
        return phi

    def test_candidates_for_every_degree(self):
        phi = self.phi_sieve(10 * self.TOP ** 2 + 100)
        for deg in range(self.TOP + 1):
            want = tuple(d for d in range(3, 10 * deg * deg + 101) if phi[d] <= deg)
            assert _order_candidates(deg) == want, deg

    def test_orders_of_torus_block_sums(self):
        sums = [block_sum(torus_seifert(2, 3), torus_seifert(2, 5)),
                block_sum(torus_seifert(3, 4), torus_seifert(2, 7)),
                block_sum(block_sum(torus_seifert(2, 3), torus_seifert(3, 5)),
                          torus_seifert(2, 9))]
        for a in sums:
            delta = list(alexander_polynomial(a).coeffs)
            deg = len(delta) - 1
            phi = self.phi_sieve(4 * deg * deg + 6)
            # Phi_d has degree phi(d), so no other d can divide
            want = [d for d in range(3, 4 * deg * deg + 7)
                    if phi[d] <= deg and vanishes_at_root_of_unity_by_division(delta, d)]
            assert want and _root_of_unity_orders(alexander_polynomial(a)) == want


class TestIntegerCells:
    """The k-grid counts and the arc measures read integer turn cells; the
    Fraction routes they replaced (oracles.grid_by_fractions,
    oracles.l2_eta_by_fraction_measures) give the same numbers."""

    KS = list(range(1, 41)) + [60, 97, 120, 360, 720, 5040, 40320, 99991,
                               362880, 3628800]
    EPS = [Fraction(1, 3), Fraction(1, 10 ** 6), Fraction(1, 10 ** 20),
           Fraction(1, 10 ** 40)]

    @staticmethod
    def knots():
        rng = random.Random(3001)
        out = [validate_seifert([[d, 1], [0, 1]]) for d in (2, 7, 20, 500)]
        out += [random_interesting_seifert(rng, rng.randint(1, 4)) for _ in range(12)]
        out += [block_sum(out[4], mirror(out[5])), block_sum(torus_seifert(3, 4), out[1]),
                torus_seifert(2, 5), torus_seifert(3, 5)]
        # no breakpoint; a double root at an exact turn; four double roots
        # with every arc 0
        out += [UNKNOT, FIGURE_EIGHT, SLICE4,
                block_sum(torus_seifert(2, 5), mirror(torus_seifert(2, 5)))]
        return out

    @staticmethod
    def fraction_copy(a, sf):
        """An uncached step function over the same data whose counts come
        from the Fraction grid."""
        copy = SignatureFunction(a, sf.breakpoints, sf.arc_values, sf.point_values)
        copy._grid = lambda k: oracles.grid_by_fractions(sf, k)
        return copy

    def test_against_fraction_routes(self):
        irrational = 0
        for a in self.knots():
            sf = signature_function(a)
            ref = self.fraction_copy(a, sf)
            irrational += sum(bp.exact_turn is None for bp in sf.breakpoints)
            for k in self.KS:
                assert sf._grid(k) == ref._grid(k), (a.entries, k)
                assert sf.eta_sum(k) == ref.eta_sum(k), (a.entries, k)
            for k in (7, 12, 30, 97):
                for j in range(k):
                    assert sf.value_at(angle(j, k)) == ref.value_at(angle(j, k))
            for eps in self.EPS:
                assert l2_eta_abelian(a, eps) == oracles.l2_eta_by_fraction_measures(sf, eps)
        assert irrational >= 20

    def test_lower_points_must_mirror_the_upper_ones(self):
        sf = signature_function(TestRicherFixtures.CINQ)
        up1, up3, low7, low9 = sf.breakpoints  # turns 1/10, 3/10, 7/10, 9/10
        SignatureFunction(TestRicherFixtures.CINQ, (up1, up3, low7, low9),
                          sf.arc_values, sf.point_values)
        with pytest.raises(AssertionError, match="mirror"):
            SignatureFunction(TestRicherFixtures.CINQ, (up1, up3, low9, low7),
                              sf.arc_values, sf.point_values)

    def test_comparison_and_mirror_are_reached(self, monkeypatch):
        # an irrational turn meets the k-grid through its cell at depth
        # D = (4k - 1).bit_length() and at most one comparison with a cosine
        # at a multiple of 1/k, made for the upper point of each root only:
        # the lower point's count is the mirror of the upper one's
        from knotsig.realalg import RealAlgebraic
        cell, exceeds, depths, denominators = (RealAlgebraic.turn_cell,
                                               RealAlgebraic._cos_exceeds, [], [])

        def cell_spy(x, depth):
            depths.append(depth)
            return cell(x, depth)

        def exceeds_spy(x, a, b):
            denominators.append(b)
            return exceeds(x, a, b)

        monkeypatch.setattr(RealAlgebraic, "turn_cell", cell_spy)
        monkeypatch.setattr(RealAlgebraic, "_cos_exceeds", exceeds_spy)
        compared, lowers = 0, 0
        for a in self.knots():
            sf = signature_function(a)
            fresh = SignatureFunction(a, sf.breakpoints, sf.arc_values, sf.point_values)
            irrational = [bp for bp in sf.breakpoints if bp.exact_turn is None]
            lowers += sum(bp.hemisphere == "lower" for bp in irrational)
            roots = len({bp.x for bp in irrational})  # one x per root
            for k in self.KS:
                depths.clear()
                denominators.clear()
                grid = fresh._grid(k)
                assert max(depths, default=0) <= (4 * k - 1).bit_length()
                if k & (k - 1):  # the cells compare at powers of 2 only
                    assert denominators.count(k) <= roots
                    compared += denominators.count(k)
                assert grid == oracles.grid_by_fractions(sf, k)
        assert compared and lowers


class TestAdditivity:
    def test_block_sum_additive(self):
        rng = random.Random(67)
        for _ in range(5):
            a = random_seifert(rng, 1)
            b = random_seifert(rng, 1)
            ab = block_sum(a, b)
            for j, k in ((1, 5), (1, 2), (3, 7), (1, 6), (2, 9)):
                assert tl_signature_at(ab, angle(j, k)) == \
                    tl_signature_at(a, angle(j, k)) + tl_signature_at(b, angle(j, k))


class TestDeterminantVanishing:
    def test_det_zero_exactly_at_breakpoints(self, trefoil):
        # constant coefficient of the oracle's characteristic polynomial is +-det
        det_poly = list(_char_poly_in_x(trefoil)[0])
        sf = signature_function(trefoil)
        for bp in sf.breakpoints:
            assert bp.x.sign_of_poly(det_poly) == 0
        for j, k in ((1, 5), (1, 4), (2, 7), (1, 12)):
            assert sign_at_cos_turn(det_poly, Fraction(j, k)) != 0


class TestArcSampling:
    """The sample x of every arc: a dyadic, not a root of G, strictly
    between the arc's two roots, and the simplest such dyadic. Checked by
    Sturm counts of the squarefree G, with no use of the isolating
    intervals."""

    @staticmethod
    def samples(sf):
        uppers = [bp.x for bp in sf.breakpoints[:len(sf.breakpoints) // 2]]
        return ([_dyadic_between(x_next, x) for x, x_next in zip(uppers, uppers[1:])]
                + [_dyadic_between(uppers[0], None)] if uppers else [])

    def check(self, a):
        sf = signature_function(a)
        xs = self.samples(sf)
        if not xs:
            return
        g = cos_compact(alexander_polynomial(a).coeffs)
        chain = sturm_chain(squarefree_part(g))
        # arc i lies below the upper roots 0..i; the wrap arc below none
        for above, x in zip(list(range(1, len(xs))) + [0], xs):
            assert x.denominator & (x.denominator - 1) == 0, "a dyadic"
            assert -1 < x < 1 and peval(g, x) != 0
            assert sturm_count(chain, x, 1) == above
            if x.denominator > 1:
                # neither neighbour of the same level lies in the arc, so no
                # dyadic of a lower level does either
                step = Fraction(1, x.denominator)
                lo, hi = x - step, x + step
                assert peval(g, lo) == 0 or sturm_count(chain, lo, x) > 0
                assert hi >= 1 or peval(g, hi) == 0 or sturm_count(chain, x, hi) > 0

    def test_fixtures(self):
        exact = 0
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            a = read_knot(path)
            if path.name == "trefoil.json":
                # bisecting its interval (-1, 1) reaches 0 and then the root
                # x = 1/2 of Phi6, which becomes an exact root (lo = hi), so the
                # samples below meet RealAlgebraic.compare at an exact root
                for bp in signature_function(a).breakpoints:
                    bp.x.bounds(Fraction(1, 4))
            self.check(a)
            exact += sum(bp.x.lo == bp.x.hi
                         for bp in signature_function(a).breakpoints)
        assert exact > 0

    def test_random(self):
        rng = random.Random(1213)
        for genus in (1, 2, 3, 4, 5, 6):
            for _ in range(3):
                self.check(random_interesting_seifert(rng, genus))
            self.check(random_seifert(rng, genus))


class TestPointValues:
    """Point values at simple roots are the mean of the adjacent arcs; only
    multiple roots of G eliminate the arc form at the root itself."""

    @pytest.fixture
    def point_calls(self, monkeypatch):
        """The arguments of every AlgebraicElement.arc_factors call, which
        opens each point elimination, and the ring it returned."""
        calls = []
        arc_factors = AlgebraicElement.arc_factors

        def spied(alpha, m):
            u, v = arc_factors(alpha, m)
            calls.append((alpha, m, getattr(u, "ring", None)))
            return u, v
        monkeypatch.setattr(AlgebraicElement, "arc_factors", staticmethod(spied))
        return calls

    def test_no_point_elimination_for_squarefree_g(self, point_calls):
        rng = random.Random(1217)
        tried = 0
        for genus in (1, 2, 3, 4):
            for _ in range(4):
                a = random_interesting_seifert(rng, genus)
                g = cos_compact(alexander_polynomial(a).coeffs)
                if squarefree_part(g) != g:
                    continue
                sf = signature_function.__wrapped__(a)  # uncached
                tried += len(sf.breakpoints)
        assert tried > 0 and not point_calls

    def test_multiple_roots_take_point_elimination(self, point_calls):
        k = random_interesting_seifert(random.Random(3), 2)
        assert signature_function(k).breakpoints
        signature_function.__wrapped__(block_sum(k, k))
        assert point_calls

    # Delta = (t^2 - t + 1)^2: the eigenvalue that vanishes at x = 1/2 does
    # so to even order, so both arcs are 0 and the mean of the arcs is wrong.
    # The last two matrices are the first and third hits of a search over
    # 4 x 4 entries in {-1, 0, 1} drawn by random.Random(17); every value
    # is the oracle route's, as the test checks.
    EVEN_ORDER = [
        ([[0, 0, 0, -1], [0, 0, -1, 0], [-1, -1, 0, 0], [0, 1, 0, 1]], 1),
        ([[0, 1, 0, 0], [0, -1, 1, 0], [0, 0, 0, 1], [-1, 0, 1, -1]], -1),
        ([[0, 0, 1, 1], [1, -1, -1, 0], [1, -1, 0, 0], [0, 1, 1, 1]], 1),
    ]

    @pytest.mark.parametrize("entries, value", EVEN_ORDER)
    def test_even_order_points(self, entries, value):
        a = validate_seifert(entries)
        assert alexander_polynomial(a).coeffs in ((1, -2, 3, -2, 1), (-1, 2, -3, 2, -1))
        sf = signature_function(a)
        assert sf.arc_values == (0, 0) and sf.point_values == (value, value)
        bp = sf.breakpoints[0]
        assert bp.exact_turn == Fraction(1, 6)
        assert _signature_at_x(a, bp.x.sign_of_poly) == value

    @staticmethod
    def ksum(a, copies):
        out = a
        for _ in range(copies - 1):
            out = block_sum(out, a)
        return out

    def test_multiple_roots_against_descartes_oracle(self, point_calls):
        """At every multiple root the point value equals the oracle's
        Descartes count; the irrational roots narrow m~ at a zero divisor."""
        rng = random.Random(1709)
        knots = [self.ksum(torus_seifert(2, 5), 2), self.ksum(torus_seifert(3, 4), 2),
                 self.ksum(torus_seifert(2, 7), 3)]
        for genus in (1, 2, 3, 4):
            k = random_interesting_seifert(rng, genus)
            knots += [conjugate(rng, block_sum(k, k)),
                      conjugate(rng, block_sum(k, mirror(k))),
                      conjugate(rng, self.ksum(k, 3))]
        checked = 0
        for a in knots:
            sf = signature_function.__wrapped__(a)  # uncached
            _, repeated = _compute_breakpoints(a)
            for bp, value in zip(sf.breakpoints, sf.point_values):
                if bp.x.is_root_of(repeated):
                    assert value == _signature_at_x(a, bp.x.sign_of_poly), a.entries
                    checked += 1
        assert checked >= 30
        degrees = [len(m) - 1 for _, m, _ in point_calls]
        assert max(degrees) >= 3
        assert any(ring and len(ring[1]) < len(m) for _, m, ring in point_calls), \
            "no zero divisor"

    def test_torus_cube_pinned(self, point_calls):
        # T(3,5) # T(3,5) # T(3,5): G = psi_15^3, so every breakpoint is a
        # multiple root, and its form over Q(alpha) splits into one block
        # per summand; the values are three times T(3,5)'s
        t35 = torus_seifert(3, 5)
        sf = signature_function.__wrapped__(self.ksum(t35, 3))  # uncached
        assert sf.arc_values == (-6, -12, -18, -24, -18, -12, -6, 0)
        assert sf.point_values == (-3, -9, -15, -21, -21, -15, -9, -3)
        assert len(point_calls) == 4
        single = signature_function(t35)
        assert sf.arc_values == tuple(3 * v for v in single.arc_values)
        assert sf.point_values == tuple(3 * v for v in single.point_values)

    def test_slice_sum_vanishes(self):
        # K # -K is slice: its step function is 0, points included. Its
        # Delta is a square, so every breakpoint takes the fallback.
        rng = random.Random(1223)
        with_points = 0
        for genus in (1, 1, 2, 2, 2):
            k = random_interesting_seifert(rng, genus)
            a = conjugate(rng, block_sum(k, mirror(k)))
            sf = signature_function(a)
            assert set(sf.arc_values) <= {0} and set(sf.point_values) <= {0}
            with_points += len(sf.breakpoints)
        assert with_points > 0

    @pytest.mark.parametrize("p, q", [(2, 5), (3, 4), (3, 5)])
    def test_torus_points_against_enclosure_oracle(self, p, q):
        a = torus_seifert(p, q)
        sf = signature_function(a)
        for bp, value in zip(sf.breakpoints, sf.point_values):
            t = bp.exact_turn
            assert value == tl_signature_by_cos_enclosure(
                a, angle(t.numerator, t.denominator))


class TestExactTurns:
    """Breakpoints at roots of unity get their turns from the order of the
    roots of psi_d alone: no isolating interval is refined, and every lookup
    at an exact turn is its point value."""

    TORUS = [(5, 7), (6, 7), (4, 9)]

    @pytest.mark.parametrize("p, q", TORUS)
    def test_torus_turns(self, p, q):
        # the roots of Delta are the e^(2 pi i j/pq) with p, q not dividing j
        bps = signature_function(torus_seifert(p, q)).breakpoints
        uppers = bps[:len(bps) // 2]
        assert all(bp.exact_turn is not None for bp in uppers)
        assert [bp.exact_turn for bp in uppers] == \
            sorted(Fraction(j, p * q) for j in range(1, (p * q + 1) // 2)
                   if j % p and j % q)

    def test_isolating_intervals_untouched(self):
        knots = [torus_seifert(p, q) for p, q in self.TORUS]
        knots += [read_knot(path) for path in sorted(FIXTURE_DIR.glob("*.json"))]
        checked = 0
        for a in knots:
            g = cos_compact(alexander_polynomial(a).coeffs)
            if not g or squarefree_part(g) != g:
                continue
            sf = signature_function.__wrapped__(a)  # uncached: no earlier refinement
            ivs = isolate_roots(g, Fraction(-1), Fraction(1))[::-1]
            uppers = sf.breakpoints[:len(sf.breakpoints) // 2]
            assert [(bp.x.lo, bp.x.hi) for bp in uppers] == ivs
            assert all(bp.x.lo != bp.x.hi for bp in uppers)
            checked += bool(uppers)
        assert checked == 6  # three torus knots, trefoil, cinquefoil, twist

    def test_lookups_at_exact_turns(self):
        t34 = torus_seifert(3, 4)
        knots = [(p * q, torus_seifert(p, q)) for p, q in self.TORUS]
        knots += [(12, conjugate(random.Random(1307), block_sum(t34, mirror(t34)))),
                  (12, block_sum(t34, t34))]  # K # -K is all 0, K # K is not
        for pq, a in knots:
            sf = signature_function(a)
            assert sf.breakpoints
            for bp, value in zip(sf.breakpoints, sf.point_values):
                t = bp.exact_turn
                assert sf.value_at(angle(t.numerator, t.denominator)) == value
            for k in (pq, 2 * pq):
                assert sf.eta_sum(k) == sum(sf.value_at(angle(j, k))
                                            for j in range(1, k + 1))


class TestSchurArcForms:
    """Each arc value and each multiple-root point value signs one n_b x n_b
    form per Seifert block, the Schur complement of S_b in the realified
    form; the 2n x 2n form of oracles.arc_form_value_2n is the reference."""

    @staticmethod
    def check(a):
        """Every sample and multiple-root point against the 2n form;
        returns the number of Q(alpha) points checked."""
        sf = signature_function.__wrapped__(a)  # uncached
        s, t = a.symmetrization(), a.antisymmetrization()
        # the arc through theta = pi, at x = -1, has sig S
        assert sf.arc_values[(len(sf.arc_values) - 1) // 2] == oracles.symmetric_signature(s)
        uppers = [bp.x for bp in sf.breakpoints[:len(sf.breakpoints) // 2]]
        if not uppers:
            return 0
        # the upper arcs, then the arc through z = 1
        values = sf.arc_values[:len(uppers) - 1] + sf.arc_values[-1:]
        for x, value in zip(TestArcSampling.samples(sf), values):
            p, q = x.numerator, x.denominator
            assert value == oracles.arc_form_value_2n(s, t, q - p, q + p), (a.entries, x)
        _, repeated = _compute_breakpoints(a)
        algebraic = 0
        for x, value in zip(uppers, sf.point_values):
            if x.is_root_of(repeated):
                u, v = AlgebraicElement.arc_factors(x, repeated)
                assert value == oracles.arc_form_value_2n(s, t, u, v), a.entries
                algebraic += not isinstance(u, int)
        return algebraic

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """(rows in, pivots, rows left, the input) of every elimination the
        step function runs."""
        calls = []
        eliminate = signature_module.congruence_signature

        def spied(b, **options):
            rows, entries = len(b), [list(row) for row in b]
            out = eliminate(b, **options)
            calls.append((rows, options.get("pivots"), len(b), entries))
            return out
        monkeypatch.setattr(signature_module, "congruence_signature", spied)
        return calls

    def test_random_and_conjugated(self):
        rng = random.Random(1409)
        for genus in (1, 2, 3, 4, 5, 6):
            for _ in range(2):
                k = random_interesting_seifert(rng, genus)
                self.check(k)
                self.check(conjugate(rng, k))
            self.check(random_seifert(rng, genus))

    def test_multiple_roots_and_negative_determinant(self):
        k = random_interesting_seifert(random.Random(3), 2)
        t25 = torus_seifert(2, 5)
        algebraic = sum(self.check(a) for a in (
            block_sum(k, k), conjugate(random.Random(1411), block_sum(k, k)),
            block_sum(t25, t25), conjugate(random.Random(1413), block_sum(t25, t25))))
        assert algebraic > 0, "no point over Q(alpha)"
        assert det(FIGURE_EIGHT.symmetrization()) < 0
        self.check(FIGURE_EIGHT)

    def test_zero_diagonal_takes_the_congruence(self, eliminations):
        # S = [[0, 1], [1, 0]] for A = [[0, 1], [0, 0]] (an unknot): its
        # Schur step meets a zero diagonal and adds one row to another
        hyperbolic = validate_seifert([[0, 1], [0, 0]])
        rng = random.Random(1427)
        knots = [block_sum(hyperbolic, TREFOIL)]
        for _ in range(3):
            a = block_sum(hyperbolic, conjugate(rng, TREFOIL)).as_lists()
            # a signed permutation keeps the blocks apart
            order, signs = rng.sample(range(4), 4), [rng.choice([-1, 1]) for _ in range(4)]
            knots.append(validate_seifert([[signs[i] * signs[j] * a[i][j] for j in order]
                                           for i in order]))
            knots.append(conjugate(rng, block_sum(hyperbolic, TREFOIL)))
        for a in knots:
            self.check(a)
        zero_leading = [entries for rows, pivots, _, entries in eliminations
                        if pivots and not any(entries[i][i] for i in range(pivots))]
        assert len(zero_leading) >= 4

    def test_forms_of_size_n(self, eliminations):
        """A full elimination sees at most n_b x n_b; only the Schur step
        sees 2 n_b x 2 n_b, and it stops after n_b pivots."""
        rng = random.Random(1423)
        arcs = 0
        for genus in (1, 2, 3, 4, 5, 6):
            for a in (random_seifert(rng, genus), random_interesting_seifert(rng, genus)):
                sizes = [len(b) for b in diagonal_blocks(a.as_lists())]
                eliminations.clear()
                signature_function.__wrapped__(a)  # uncached
                schur = [(rows, left) for rows, pivots, left, _ in eliminations if pivots]
                assert sorted(schur) == sorted((2 * n, n) for n in sizes)
                full = [rows for rows, pivots, _, _ in eliminations if not pivots]
                assert set(full) <= set(sizes)
                arcs += len(full)
        assert arcs > 12
