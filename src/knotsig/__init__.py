"""Exact knot signature invariants from Seifert matrices.

Everything is computed in exact arithmetic: integer linear algebra,
rational intervals certified by explicit remainder bounds, and symbolic
zero tests. Results are values that do not change, apart from the
refinement state of a RealAlgebraic (its isolating interval and its turn
cell). That state only tightens and is replaced whole, which is why
sharing it across threads is safe.
"""

from .seifert import (SeifertMatrix, IntLaurentPoly, Metabolizer,
                      MalformedMatrix, NotSquare, OddSize, NotUnimodular,
                      validate_seifert, block_sum, alexander_polynomial,
                      arf_invariant, find_seifert_metabolizer)
from .signature import (UnitRootAngle, CirclePoint, SignatureFunction,
                        ApproxRow, tl_signature_at,
                        signature_function, l2_eta_abelian, eta_cyclic,
                        l2_eta_cyclic, approximation_table,
                        factorial_schedule)
from .realalg import PrecisionExhausted, RealAlgebraic
from .alexmod import (LambdaModulePresentation, FiniteLambdaModule,
                      CyclicCoverHomology, LinkingForm, Character,
                      CapExceeded, alexander_module,
                      cyclic_quotient, torsion_order_by_resultant,
                      double_cover_linking_form, find_linking_metabolizers,
                      characters_of, characters_vanishing_on)
from .mbreps import (SemidirectElement, MonomialMatrix, MetabelianRep,
                     CharacterNotPeriodic, ActionNotPeriodic, TWIST_SIGN,
                     semidirect_mul, semidirect_inverse, semidirect_identity,
                     semidirect_elements, build_rep,
                     enumerate_irreps, character_table_checks, rep_json)
from .resolve import (ResolutionStep, ResolutionReport, WitnessRecord,
                      PrimeDividesLeading, finite_alexander_quotient,
                      build_resolution, quotient_group_order)
from .knotio import read_knot

__all__ = [name for name in dir() if not name.startswith("_")]
