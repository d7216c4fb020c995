"""The trivial module, the unknot's 0 x 0 Seifert matrix, k = 1 and the
first two cyclotomic polynomials and roots of unity run the code that every
other input runs; these pin the values that code gives on them."""

import pytest

from knotsig import (FiniteLambdaModule, SemidirectElement, UnitRootAngle,
                     character_table_checks, enumerate_irreps, eta_cyclic,
                     find_seifert_metabolizer, semidirect_inverse, semidirect_mul,
                     signature_function, tl_signature_at, torsion_order_by_resultant)
from knotsig.mbreps import roots_of_unity_sum_equals
from knotsig.polyz import cyclotomic, vanishes_at_root_of_unity

from conftest import TREFOIL, UNKNOT

TRIVIAL = FiniteLambdaModule.make((), ())


class TestDegenerateInputs:
    def test_trivial_module_action(self):
        assert TRIVIAL.action_order() == 1
        assert TRIVIAL.is_periodic(5)
        assert TRIVIAL.t_power_matrix(-3) == ()
        assert TRIVIAL.t_pow_apply((), 7) == ()

    def test_trivial_module_representations(self):
        reps = enumerate_irreps(4, TRIVIAL)
        assert len(reps) == 4
        assert character_table_checks(reps, 4, TRIVIAL).all_ok

    def test_trivial_module_semidirect(self):
        x, y = SemidirectElement(2, ()), SemidirectElement(3, ())
        assert semidirect_mul(x, y, TRIVIAL, 4) == SemidirectElement(1, ())
        assert semidirect_mul(x, y, TRIVIAL) == SemidirectElement(5, ())
        assert semidirect_inverse(x, TRIVIAL, 4) == SemidirectElement(2, ())
        assert semidirect_inverse(x, TRIVIAL) == SemidirectElement(-2, ())

    def test_unknot_step_function(self):
        sf = signature_function(UNKNOT)
        assert sf.breakpoints == () and sf.arc_values == (0,)
        assert tl_signature_at(UNKNOT, UnitRootAngle(1, 3)) == 0
        assert tl_signature_at(UNKNOT, UnitRootAngle(0, 1)) == 0
        assert eta_cyclic(UNKNOT, 5) == 0

    def test_unknot_metabolizer(self):
        assert find_seifert_metabolizer(UNKNOT, 1).basis == ()

    def test_resultant_at_k_one(self):
        assert torsion_order_by_resultant(TREFOIL, 1) == 1
        assert torsion_order_by_resultant(UNKNOT, 1) == 1

    def test_first_cyclotomic(self):
        assert cyclotomic(1) == (-1, 1)

    @pytest.mark.parametrize("d", [0, -1, -3])
    def test_nonpositive_orders_are_refused(self, d):
        with pytest.raises(ValueError):
            cyclotomic(d)
        with pytest.raises(ValueError):
            vanishes_at_root_of_unity([1, 1], d)

    def test_second_cyclotomic(self):
        # d = 2 has one prime and d = 1 none: t^2 - 1 over t - 1, and t - 1
        assert cyclotomic(2) == (1, 1)

    def test_vanishing_at_one_and_minus_one(self):
        # d = 1 folds f to its value at 1; d = 2 to f(1) and f(-1), then
        # 1 - t keeps only the value at -1
        assert vanishes_at_root_of_unity([3, -1, -2], 1)
        assert not vanishes_at_root_of_unity([1, 1], 1)
        assert vanishes_at_root_of_unity([1, 1], 2)
        assert vanishes_at_root_of_unity([-1, 0, 1], 2)
        assert not vanishes_at_root_of_unity([-1, 1], 2)
        assert vanishes_at_root_of_unity([], 1) and vanishes_at_root_of_unity([], 2)

    def test_sums_of_first_and_second_roots_of_unity(self):
        assert roots_of_unity_sum_equals({0: 4}, 4, 1)
        assert not roots_of_unity_sum_equals({0: 4}, 3, 1)
        assert roots_of_unity_sum_equals({0: 2, 1: 3}, -1, 2)
        assert not roots_of_unity_sum_equals({0: 2, 1: 3}, 5, 2)
