"""Semidirect products Z/m x| F and their irreducible unitary representations.

Every matrix that appears here is monomial with root-of-unity entries, so
representations are stored as a permutation plus a tuple of turns, each a
residue mod N for the entry exp(2*pi*i*turn/N), and all identities are
checked exactly in integer arithmetic. Character orthogonality is verified
in exact cyclotomic arithmetic: a sum of N-th roots of unity is zero when
its coefficient vector, times the product of the 1 - t^(N/p) over the
primes p | N, is zero in Z[t]/(t^N - 1).
Products are built by sum, map and zip, with no Python frame per entry,
from caches on the objects: t^e on the module, and on each MetabelianRep
its modulus and the rows chi o t^j, j < l, read from Character.orbit.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul
from typing import NamedTuple

from .alexmod import Character, FiniteLambdaModule, characters_of
from .intmat import CapExceeded, default_cap
from .polyz import vanishes_at_root_of_unity
from .signature import UnitRootAngle

#: Sign s in the semidirect group law (n,h)(n',h') = (n+n', t^(s*n') h + h').
#: s = +1 is the unique choice making the standard block formula for
#: alpha_(l,z,chi) a homomorphism; the verifying computation is committed
#: as a test (s = -1 fails on explicit pairs).
TWIST_SIGN = 1


class CharacterNotPeriodic(ValueError):
    """chi composed with t^l differs from chi."""


class ActionNotPeriodic(ValueError):
    """t^m is not the identity on the module, so Z/m x| F is ill-defined."""

    def __init__(self, m):
        super().__init__(f"t^{m} is not the identity on the module")
        self.m = m


class SemidirectElement(NamedTuple):
    """Element (n, h) of Z x| F or Z/m x| F; h is a coordinate vector. A
    named tuple, so hashing and equality, done for every table lookup of
    the group, run in C."""

    n: int
    h: tuple

    @classmethod
    def make(cls, n, h, module: FiniteLambdaModule, cyclic_order=None):
        n = int(n) if cyclic_order is None else int(n) % cyclic_order
        return cls(n, module.reduce_vec(h))


def semidirect_mul(x: SemidirectElement, y: SemidirectElement,
                   module: FiniteLambdaModule, cyclic_order=None):
    """Group law (n,h)(n',h') = (n+n', t^(n') h + h') (TWIST_SIGN = +1)."""
    n = x.n + y.n
    if cyclic_order is not None:
        n %= cyclic_order
    h = tuple([(sum(map(mul, row, x.h)) + b) % d for row, b, d in
               zip(module.t_power_matrix(TWIST_SIGN * y.n), y.h, module.torsion)])
    return tuple.__new__(SemidirectElement, (n, h))


def semidirect_inverse(x: SemidirectElement, module: FiniteLambdaModule,
                       cyclic_order=None):
    n = -x.n
    if cyclic_order is not None:
        n %= cyclic_order
    h = module.neg(module.t_pow_apply(x.h, -TWIST_SIGN * x.n))
    return SemidirectElement(n, h)


def semidirect_identity(module: FiniteLambdaModule):
    return SemidirectElement(0, module.zero())


def semidirect_elements(module: FiniteLambdaModule, m: int):
    for n in range(m):
        for h in module.elements():
            yield SemidirectElement(n, h)


class MonomialMatrix(NamedTuple):
    """Unitary monomial matrix: column j has its only nonzero entry at row
    perm[j], with value exp(2*pi*i*turns[j]/modulus), 0 <= turns[j] < modulus.
    A named tuple, like SemidirectElement."""

    perm: tuple
    turns: tuple
    modulus: int

    def __matmul__(self, other):
        perm, turns, n = self
        other_perm, other_turns, other_n = other
        if other_n != n:
            raise ValueError("monomial matrices with different moduli")
        if len(perm) == 1:  # a character: perm is (0,) on both sides
            return tuple.__new__(MonomialMatrix, (perm, ((turns[0] + other_turns[0]) % n,), n))
        return tuple.__new__(MonomialMatrix, (
            tuple(map(perm.__getitem__, other_perm)),
            tuple([(turns[i] + t) % n for i, t in zip(other_perm, other_turns)]), n))


@dataclass(frozen=True)
class MetabelianRep:
    """The dimension-l unitary representation determined by a circle point
    z and a character chi on F: (n, h) maps to z^n P^n diag(chi(h),
    chi(t h), ..., chi(t^(l-1) h)) with P the cyclic shift whose first row
    has its 1 in the last column."""

    dim: int
    z: UnitRootAngle
    chi: Character
    module: FiniteLambdaModule

    @cached_property
    def modulus(self):
        """N = lcm(denominator of z, modulus of chi): every matrix entry is
        an N-th root of unity."""
        return lcm(self.z.denominator, self.chi.modulus)

    @cached_property
    def _orbit(self):
        # the exponents of chi o t^j, j < l, scaled to the modulus N (chi is
        # well defined, so chi(t^j h) = (chi o t^j)(h)), and the l shifts
        l, scale = self.dim, self.modulus // self.chi.modulus
        orbit = self.chi.orbit(self.module)
        rows = tuple(tuple(scale * c for c in orbit[j % len(orbit)].exponents) for j in range(l))
        return rows, tuple(tuple((j + n) % l for j in range(l)) for n in range(l))

    def _turns(self, elem):
        # z^n chi(t^j h) for each j, as residues mod N
        big = self.modulus
        zn = elem.n * self.z.numerator * (big // self.z.denominator)
        return tuple([(sum(map(mul, row, elem.h)) + zn) % big for row in self._orbit[0]])

    def matrix(self, elem: SemidirectElement) -> MonomialMatrix:
        return tuple.__new__(MonomialMatrix, (self._orbit[1][elem.n % self.dim],
                                              self._turns(elem), self.modulus))

    def character_turns(self, elem: SemidirectElement):
        """Turns of the diagonal entries of the matrix of elem: all of them
        when the shift fixes every index (l | n), none otherwise."""
        return list(self._turns(elem)) if elem.n % self.dim == 0 else []


def rep_json(rep: MetabelianRep, m: int):
    """JSON dict for a representation of Z/m x| F: dimension, the class
    parameter w = z^dim as w_num / w_den with w_den = m/dim, and the
    character exponents."""
    w_den = m // rep.dim
    w_num, rem = divmod(rep.z.numerator * rep.dim * w_den, rep.z.denominator)
    assert rem == 0
    return {
        "dim": rep.dim,
        "w_num": w_num % w_den,
        "w_den": w_den,
        "chi": list(rep.chi.exponents),
    }


def build_rep(l: int, z: UnitRootAngle, chi: Character,
              module: FiniteLambdaModule) -> MetabelianRep:
    """Construct the block representation; requires chi to be periodic of
    period dividing l under t. It is irreducible when that period is l."""
    if l % len(chi.orbit(module)):
        raise CharacterNotPeriodic(f"character does not return after t^{l}")
    return MetabelianRep(l, z, chi, module)


def _character_orbits(module: FiniteLambdaModule):
    """Orbits of the characters of F under chi -> chi o t, keyed by the
    lexicographically smallest exponent tuple and in increasing key order;
    modulus is d_r (1 on the trivial module). characters_of runs the
    characters in lexicographic order, so the first one met in an orbit is
    its key."""
    seen = set()
    orbits = []
    for chi in characters_of(module, max(module.torsion, default=1)):
        if chi.exponents in seen:
            continue
        orbit = chi.orbit(module)
        seen.update(chi.exponents for chi in orbit)
        orbits.append((orbit[0], len(orbit)))
    return orbits


def enumerate_irreps(m: int, module: FiniteLambdaModule):
    """One representative per equivalence class of irreducible unitary
    representations of Z/m x| F.

    Classes are parametrized by a t-orbit of characters (size l, the
    dimension) together with w = z^l running over the (m/l)-th roots of
    unity; z is the fixed l-th root exp(2*pi*i*a/m) of w = exp(2*pi*i*a/(m/l)).
    Completeness is certified by sum(dim^2) = m * |F|. The group order
    m * |F| is capped (KNOTSIG_CAP, else 10**6).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not module.is_periodic(m):
        raise ActionNotPeriodic(m)
    order, cap = m * module.order(), default_cap()
    if order > cap:
        raise CapExceeded(order, cap)
    o = module.action_order()
    reps = []
    total = 0
    for chi, l in _character_orbits(module):
        assert o % l == 0 and m % l == 0, "orbit size must divide the action order"
        for a in range(m // l):
            z = UnitRootAngle.of(a, m)
            rep = MetabelianRep(l, z, chi, module)
            reps.append(rep)
            total += l * l
    assert total == m * module.order(), "sum of squared dimensions certificate"
    return reps


# exact cyclotomic verification ---------------------------------------------

def roots_of_unity_sum_equals(turn_counts, value, n):
    """Whether sum over (turn, count) of count * exp(2*pi*i*turn/n), turns
    residues mod n, equals the given integer, exactly: the sum minus the
    integer is f(zeta_n) for f of degree below n, tested in Z[t]/(t^n - 1)
    by polyz.vanishes_at_root_of_unity."""
    vec = [0] * n
    for turn, count in turn_counts.items():
        vec[turn] += count
    vec[0] -= value
    return vanishes_at_root_of_unity(vec, n)


@dataclass(frozen=True)
class CharacterTableReport:
    group_order: int
    sum_dim_sq: int
    sum_dim_sq_ok: bool
    orthonormal_ok: bool
    failures: tuple

    @property
    def all_ok(self):
        return self.sum_dim_sq_ok and self.orthonormal_ok


def character_table_checks(reps, m: int, module: FiniteLambdaModule):
    """Verify sum(dim^2) = |G| and exact orthonormality of the characters
    of the given representations under the standard inner product."""
    order = m * module.order()
    sum_sq = sum(r.dim * r.dim for r in reps)
    elements = list(semidirect_elements(module, m))
    big = lcm(1, *(r.modulus for r in reps))
    tables = []
    for r in reps:
        scale = big // r.modulus
        tables.append([[scale * t for t in r.character_turns(g)] for g in elements])
    failures = []
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            counts = {}
            for ti, tj in zip(tables[i], tables[j]):
                for p in ti:
                    for q in tj:
                        key = (p - q) % big
                        counts[key] = counts.get(key, 0) + 1
            expected = order if i == j else 0
            if not roots_of_unity_sum_equals(counts, expected, big):
                failures.append((i, j))
    return CharacterTableReport(
        group_order=order,
        sum_dim_sq=sum_sq,
        sum_dim_sq_ok=sum_sq == order,
        orthonormal_ok=not failures,
        failures=tuple(failures),
    )
