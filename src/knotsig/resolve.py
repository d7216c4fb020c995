"""Finite quotient towers of Z x| Lambda/(Delta) certifying residual
finiteness at desk scale.

At stage i the coefficient ring is reduced mod p^i (p coprime to the
leading coefficient, so Delta can be made monic and the quotient H/H_i is
free of rank deg(Delta) over Z/p^i with t acting by the companion matrix).
The cyclic order k_i is the exact order of t on H/H_i, minimally adjusted
so that k_i > i and k_i | k_(i+1); separation of concrete group elements
replaces the intersection axiom, which is not checkable at finite depth.
"""

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Optional

from .alexmod import FiniteLambdaModule
from .intmat import CapExceeded, default_cap, prime_factorization
from .seifert import IntLaurentPoly


class PrimeDividesLeading(ValueError):
    """p divides the leading coefficient, so the companion model breaks."""


def finite_alexander_quotient(delta: IntLaurentPoly, p: int, i: int) -> FiniteLambdaModule:
    """The module (Z/p^i)[t]/(delta): free of rank deg(delta) over Z/p^i,
    with t acting by the companion matrix of the monicized polynomial.
    Raises PrimeDividesLeading when p divides the leading coefficient, a
    constant delta included (then the quotient is infinite), and ValueError
    when p divides the constant coefficient (then t is not a unit)."""
    if p < 2 or prime_factorization(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    if i < 1:
        raise ValueError("level must be >= 1")
    coeffs = delta.canonical().coeffs
    if not coeffs:
        raise ValueError("the zero polynomial presents no finite quotient")
    deg, mod = len(coeffs) - 1, p ** i
    if coeffs[-1] % p == 0:
        raise PrimeDividesLeading(f"{p} divides the leading coefficient")
    if coeffs[0] % p == 0:
        raise ValueError(f"{p} divides the constant coefficient, so t is not a unit mod {p}")
    # the companion matrix: t e_j = e_(j+1) for j < deg - 1, and column
    # deg - 1 is -(c_0, ..., c_(deg-1)) / c_deg, which make reduces mod p^i
    neg_inv = -pow(coeffs[-1], -1, mod)
    return FiniteLambdaModule.make((mod,) * deg, [
        [int(r == c + 1) for c in range(deg - 1)] + [neg_inv * coeffs[r]] for r in range(deg)])


@dataclass(frozen=True)
class ResolutionStep:
    """One stage of the tower: the finite quotient Z/k^s x| H/H_i, with
    H/H_i the module (coefficients mod p^i). The quotient map sends (n, h)
    to SemidirectElement.make(n, h, module, cyclic_order())."""

    index: int
    k: int
    s: int
    module: FiniteLambdaModule

    def cyclic_order(self):
        return self.k ** self.s

    def to_json_dict(self):
        return {"i": self.index, "k": self.k, "s": self.s,
                "t_order": self.module.action_order(), "order": quotient_group_order(self)}


@dataclass(frozen=True)
class WitnessRecord:
    element: tuple          # (n, coefficient tuple)
    separated_at: Optional[int]


@dataclass(frozen=True)
class ResolutionReport:
    prime: int
    delta: IntLaurentPoly
    steps: tuple
    witnesses: tuple

    @property
    def separation_failures(self):
        return tuple(w for w in self.witnesses if w.separated_at is None)

    def to_json_dict(self):
        return {
            "p": self.prime,
            "delta": str(self.delta),
            "steps": [s.to_json_dict() for s in self.steps],
            "witnesses": [{"element": {"n": w.element[0], "h": list(w.element[1])},
                           "separated_at": w.separated_at}
                          for w in self.witnesses],
        }


def quotient_group_order(step: ResolutionStep) -> int:
    """k^s * p^(i * deg Delta), the order of Z/k^s x| H/H_i."""
    return step.cyclic_order() * step.module.order()


def build_resolution(delta: IntLaurentPoly, p: int, depth: int,
                     s_schedule=None, witnesses=None, witness_bound: int = 2) -> ResolutionReport:
    """Build the first `depth` stages of the tower for the given polynomial
    and prime, and separate witness elements.

    k_i is the exact order of t on H/H_i times the least factor enforcing
    k_i > i and k_(i-1) | k_i (any multiple of the exact order still acts
    trivially, so correctness is preserved). s_i defaults to i; a list
    s_schedule[i - 1] may be supplied instead. Witnesses default to all nonzero
    (n, h) with |n| and the coefficients of h bounded by witness_bound,
    (2 * witness_bound + 1)^(deg + 1) - 1 of them, capped like every
    enumeration (KNOTSIG_CAP, else 10**6); an explicit witness list is not
    capped, and its zero element is left out. The levels' group orders may
    have as many bits in all. An unseparated witness is recorded, not fatal
    (the depth may simply be too small)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if witnesses is None and witness_bound < 1:
        raise ValueError("witness bound must be >= 1, or no witness is checked")
    delta = delta.canonical()
    deg = delta.degree
    cap = default_cap()
    if witnesses is None:
        count = (2 * witness_bound + 1) ** (deg + 1) - 1
        if count > cap:
            raise CapExceeded(count, cap, "witness count")

    steps = []
    k_prev, s_prev, bits = 1, 0, 0
    for i in range(1, depth + 1):
        module = finite_alexander_quotient(delta, p, i)
        o = module.action_order()
        base = lcm(o, k_prev)
        k_i = base * (i // base + 1)
        s_i = i if s_schedule is None else int(s_schedule[i - 1])
        if s_i < max(1, s_prev):
            raise ValueError("s schedule must be positive and nondecreasing")
        assert k_i > i and k_i % k_prev == 0 and k_i % o == 0
        assert module.order() == p ** (i * deg), "H/H_i must be a p-group"
        steps.append(ResolutionStep(i, k_i, s_i, module))
        k_prev, s_prev = k_i, s_i
        if (bits := bits + quotient_group_order(steps[-1]).bit_length()) > cap:
            raise CapExceeded(bits, cap, "tower bits")

    if witnesses is None:
        rng = range(-witness_bound, witness_bound + 1)
        witnesses = product(rng, product(rng, repeat=deg))
    records = []
    for n, h in witnesses:
        h = tuple(h)
        sep = None
        for step in steps:
            # reduce first, so that the length of h is checked at every witness
            if any(step.module.reduce_vec(h)) or n % step.cyclic_order():
                sep = step.index
                break
        if n or any(h):
            records.append(WitnessRecord((n, h), sep))
    return ResolutionReport(p, delta, tuple(steps), tuple(records))
