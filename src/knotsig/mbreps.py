"""Semidirect products Z/m x| F and their irreducible unitary representations.

Every matrix that appears here is monomial with root-of-unity entries, so
representations are stored as a permutation plus a tuple of turns, each a
residue mod N for the entry exp(2*pi*i*turn/N), and all identities are
checked exactly in integer arithmetic. Character orthogonality is verified
in exact cyclotomic arithmetic: sums of N-th roots of unity are reduced
modulo the N-th cyclotomic polynomial.
"""

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import NamedTuple

from .alexmod import CapExceeded, Character, FiniteLambdaModule, default_cap
from .polyz import cyclotomic, pdivmod, pnorm
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
    th = module.t_pow_apply(x.h, TWIST_SIGN * y.n)
    return SemidirectElement(n, module.add(th, module.reduce_vec(y.h)))


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
        n = self.modulus
        if other.modulus != n:
            raise ValueError("monomial matrices with different moduli")
        turns = self.turns
        return MonomialMatrix(tuple(map(self.perm.__getitem__, other.perm)),
                              tuple([(turns[i] + t) % n
                                     for i, t in zip(other.perm, other.turns)]), n)

    def conj_transpose(self):
        inv = [0] * len(self.perm)
        for j, i in enumerate(self.perm):
            inv[i] = j
        turns = tuple(-self.turns[j] % self.modulus for j in inv)
        return MonomialMatrix(tuple(inv), turns, self.modulus)

    def is_identity(self):
        return all(i == j for j, i in enumerate(self.perm)) and \
            all(t == 0 for t in self.turns)


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
    irreducible: bool

    @property
    def modulus(self):
        """N = lcm(denominator of z, modulus of chi): every matrix entry is
        an N-th root of unity."""
        return lcm(self.z.denominator, self.chi.modulus)

    def matrix(self, elem: SemidirectElement) -> MonomialMatrix:
        l, n, big = self.dim, elem.n, self.modulus
        zn = n * self.z.numerator * (big // self.z.denominator)
        scale = big // self.chi.modulus
        h = self.module.reduce_vec(elem.h)
        perm = tuple((j + n) % l for j in range(l))
        turns = []
        for _ in range(l):
            turns.append((zn + scale * self.chi.turn_of(h)) % big)
            h = self.module.t_apply(h)
        return MonomialMatrix(perm, tuple(turns), big)

    def character_turns(self, elem: SemidirectElement):
        """Turns of the diagonal entries of the matrix of elem."""
        mat = self.matrix(elem)
        return [mat.turns[j] for j, i in enumerate(mat.perm) if i == j]


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


def is_irreducible(chi: Character, l: int, module: FiniteLambdaModule) -> bool:
    """Orbit criterion: chi has exact period l under composition with t."""
    cur = chi
    for _ in range(1, l):
        cur = cur.compose_t(module)
        if cur == chi:
            return False
    return cur.compose_t(module) == chi


def build_rep(l: int, z: UnitRootAngle, chi: Character,
              module: FiniteLambdaModule) -> MetabelianRep:
    """Construct the block representation; requires chi to be periodic of
    period dividing l under t."""
    cur = chi
    for _ in range(l):
        cur = cur.compose_t(module)
    if cur != chi:
        raise CharacterNotPeriodic(f"character does not return after t^{l}")
    return MetabelianRep(l, z, chi, module, is_irreducible(chi, l, module))


def _character_orbits(module: FiniteLambdaModule):
    """Orbits of the characters of F under chi -> chi o t, keyed by the
    lexicographically smallest exponent tuple; modulus is d_r."""
    if module.rank == 0:
        return [(Character(1, ()), 1)]
    m0 = module.torsion[-1]
    seen = set()
    orbits = []
    for combo in product(*(range(d) for d in module.torsion)):
        exps = tuple(c * (m0 // d) for c, d in zip(combo, module.torsion))
        if exps in seen:
            continue
        chi = Character(m0, exps)
        orbit = [chi.exponents]
        cur = chi.compose_t(module)
        while cur != chi:
            orbit.append(cur.exponents)
            cur = cur.compose_t(module)
        rep_exps = min(orbit)
        for e in orbit:
            seen.add(e)
        orbits.append((Character(m0, rep_exps), len(orbit)))
    orbits.sort(key=lambda pair: pair[0].exponents)
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
            rep = MetabelianRep(l, z, chi, module, irreducible=True)
            assert l <= o, "dimension bounded by the order of the t-action"
            reps.append(rep)
            total += l * l
    assert total == m * module.order(), "sum of squared dimensions certificate"
    return reps


# exact cyclotomic verification ---------------------------------------------

def roots_of_unity_sum_equals(turn_counts, value, n):
    """Whether sum over (turn, count) of count * exp(2*pi*i*turn/n), turns
    residues mod n, equals the given integer, exactly (reduction modulo the
    n-th cyclotomic polynomial)."""
    vec = [0] * n
    for turn, count in turn_counts.items():
        vec[turn] += count
    vec[0] -= value
    poly = pnorm(vec)
    if not poly:
        return True
    _, rem = pdivmod(poly, list(cyclotomic(n)))
    return not rem


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
