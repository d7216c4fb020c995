"""The Alexander module and its finite shadows.

The module over Lambda = Z[t, 1/t] presented by the pencil tA - A^t is
studied through its finite quotients. Its quotient by t^k - 1 is coker
R_k, R_k = G^k - (G - I)^k with G = (A - A^t)^(-1) A, a 2g x 2g integer
matrix; the torsion of the k-fold cyclic cover homology is read off one
exact Smith normal form of R_k, with the t-action transported to the
normal-form basis. The same quotient is, by definition, coker(S (x) A -
I (x) A^t) with S the k-cycle shift, a 2gk x 2gk matrix that the test
suite reduces as an independent check. The order of the torsion has a
further exact oracle, the resultant of the Alexander polynomial with
(t^k - 1)/(t - 1). For k = 2 the linking form on the torsion is
x^t (A + A^t)^(-1) y mod 1.
"""

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, isqrt, prod
from typing import Optional

from . import intmat
from .knotio import frac_str
from .polyz import cyclotomic, peval, resultant
from .seifert import SeifertMatrix, alexander_polynomial


class DegenerateForm(ValueError):
    """The symmetrized matrix is singular; the would-be finite form is not."""


class CapExceeded(RuntimeError):
    """Enumeration would exceed the configured group-order cap."""

    def __init__(self, order, cap):
        super().__init__(f"group order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


def default_cap():
    return int(os.environ.get("KNOTSIG_CAP", "1000000"))


@dataclass(frozen=True)
class LambdaModulePresentation:
    """Presentation pencil (A, A^t): the relation matrix is tA - A^t."""

    matrix: SeifertMatrix

    @property
    def size(self):
        return self.matrix.n

    def determinant(self):
        """Order of the module: the normalized Alexander polynomial."""
        return alexander_polynomial(self.matrix)


def alexander_module(a: SeifertMatrix) -> LambdaModulePresentation:
    return LambdaModulePresentation(a)


@dataclass(frozen=True)
class FiniteLambdaModule:
    """A finite abelian group with torsion coefficients d_1 | d_2 | ... | d_r
    (each >= 2) and an automorphism t given by an integer matrix acting on
    the coordinates mod each d_i."""

    torsion: tuple
    t_matrix: tuple

    def __post_init__(self):
        d = self.torsion
        for a, b in zip(d, d[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisor chain")
        if any(x < 2 for x in d):
            raise ValueError("torsion coefficients must be >= 2")
        t = self.t_matrix
        r = len(d)
        if len(t) != r or any(len(row) != r for row in t):
            raise ValueError("action matrix size mismatch")
        for i in range(r):
            for j in range(r):
                if (d[j] * t[i][j]) % d[i] != 0:
                    raise ValueError("action is not a well-defined endomorphism")
        # t is onto iff no prime p | d_r divides det t[s:, s:], s the first
        # index with p | d_s. The p with a given s divide d_s but not d_(s-1),
        # so strip from gcd(det, d_s) each factor it shares with d_(s-1).
        for s in range(r):
            g = gcd(intmat.det([list(row[s:]) for row in t[s:]]), d[s])
            while s and (c := gcd(g, d[s - 1])) > 1:
                g //= c
            if g != 1:
                raise ValueError("action is not invertible")

    @classmethod
    def make(cls, torsion, t_matrix):
        torsion = tuple(int(x) for x in torsion)
        if len(t_matrix) != len(torsion) or any(d < 2 for d in torsion):
            raise ValueError("need torsion coefficients >= 2 and one action row each")
        t = tuple(tuple(int(x) % torsion[i] for x in row)
                  for i, row in enumerate(t_matrix))
        return cls(torsion, t)

    @classmethod
    def trivial(cls):
        return cls((), ())

    @property
    def rank(self):
        return len(self.torsion)

    def order(self):
        return prod(self.torsion)

    def reduce_vec(self, vec):
        return tuple(int(v) % d for v, d in zip(vec, self.torsion))

    def zero(self):
        return (0,) * self.rank

    def add(self, u, v):
        return tuple((x + y) % d for x, y, d in zip(u, v, self.torsion))

    def neg(self, v):
        return tuple((-x) % d for x, d in zip(v, self.torsion))

    def elements(self):
        return product(*(range(d) for d in self.torsion))

    def t_apply(self, vec):
        return tuple(sum(self.t_matrix[i][j] * vec[j] for j in range(self.rank)) % d
                     for i, d in enumerate(self.torsion))

    def action_order(self):
        """Minimal o >= 1 with t^o the identity on the module."""
        return _action_order(self)

    def is_periodic(self, m):
        """Whether t^m is the identity on the module, from one modular power."""
        r = self.rank
        return not r or _t_power_matrix(self, m) == tuple(
            tuple(int(i == j) for j in range(r)) for i in range(r))

    def t_power_matrix(self, e):
        """The matrix of t^e on the module (e taken mod the action order)."""
        if self.rank == 0:
            return ()
        return _t_power_matrix(self, e % self.action_order())

    def t_pow_apply(self, vec, e):
        vec = self.reduce_vec(vec)
        if self.rank == 0:
            return vec
        mat = self.t_power_matrix(e)
        return tuple(sum(mat[i][j] * vec[j] for j in range(self.rank)) % d
                     for i, d in enumerate(self.torsion))

    def to_json_dict(self):
        return {"torsion": list(self.torsion), "t": [list(r) for r in self.t_matrix]}

    @classmethod
    def from_json_dict(cls, data):
        """The module of a {"torsion": [int, ...], "t": [[int, ...], ...]}
        dict; anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("module must be a JSON object")
        torsion, t = data.get("torsion"), data.get("t")
        if not (isinstance(torsion, list) and all(_is_int(x) for x in torsion)):
            raise ValueError("torsion must be a list of integers")
        if not (isinstance(t, list) and all(isinstance(row, list) and all(_is_int(x) for x in row)
                                            for row in t)):
            raise ValueError("t must be a list of rows of integers")
        return cls.make(torsion, t)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@lru_cache(maxsize=None)
def _action_order(module):
    # A known multiple M of the order, with primes divided out while t^(M/q)
    # stays the identity. On the p-primary part, with r coefficients d_i
    # divisible by p and p^e the p-part of d_r, t maps to GL_r(F_p), of order
    # p^(r(r-1)/2) * prod_(i <= r) (p^i - 1) = p^(r(r-1)/2) * prod_(j <= r)
    # Phi_j(p)^(r // j), and the kernel of Aut -> GL_r(F_p) has exponent
    # dividing p^(e-1).
    if module.rank == 0:
        return 1
    multiple = Counter()
    for p, e in intmat.prime_factorization(module.torsion[-1]).items():
        r = sum(1 for d in module.torsion if d % p == 0)
        part = Counter({p: r * (r - 1) // 2 + e - 1})
        for j in range(1, r + 1):
            for q, a in intmat.prime_factorization(peval(cyclotomic(j), p)).items():
                part[q] += a * (r // j)
        multiple |= part
    order = prod(q ** a for q, a in multiple.items())
    assert module.is_periodic(order), "t^M must be the identity"
    for q in multiple:
        while order % q == 0 and module.is_periodic(order // q):
            order //= q
    return order


@lru_cache(maxsize=None)
def _t_power_matrix(module, e):
    # t^e mod d_r, then row i mod d_i: exact because d_i | d_r and t is a
    # well-defined endomorphism
    power = intmat.mat_pow_mod(module.t_matrix, e, module.torsion[-1])
    return tuple(tuple(x % d for x in row) for row, d in zip(power, module.torsion))


@dataclass(frozen=True)
class CyclicCoverHomology:
    """Torsion and free rank of the homology of a finite cyclic cover."""

    module: FiniteLambdaModule
    free_rank: int


def cyclic_quotient(pres: LambdaModulePresentation, k: int) -> CyclicCoverHomology:
    """Quotient of the Alexander module by (t^k - 1), split into torsion
    plus free rank, with the induced t-action on the torsion.

    V = A - A^t is unimodular, so G = V^(-1) A is an integer matrix and
    tA - A^t = V((t - 1)G + I). On the module G is invertible and
    t = I - G^(-1), so t^k = 1 exactly when G^k = (G - I)^k: the quotient
    is coker R_k with the 2g x 2g matrix R_k = G^k - (G - I)^k. Write
    x^k - (x - 1)^k = c_0 + x r(x) with c_0 = (-1)^(k+1); then on coker R_k
    G^(-1) = -c_0 r(G) and t acts by I + c_0 r(G). One Smith form of R_k
    gives the torsion and the free rank, and t is moved to its basis as
    U T U^(-1). When R_k is nonsingular the transforms are kept mod
    |det R_k|, which every invariant factor divides.

    The torsion agrees with that of coker(S (x) A - I (x) A^t), S the
    k-cycle shift, which the test suite recomputes by that route; for
    prime-power k it is the torsion of the cover homology, and its order
    equals the resultant oracle.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = pres.size
    if n == 0:
        return CyclicCoverHomology(FiniteLambdaModule.trivial(), 0)
    skew = intmat.smith_form(pres.matrix.antisymmetrization())
    gamma = intmat.mat_mul(intmat.mat_mul(skew.v, skew.u), pres.matrix.as_lists())
    # c_j = coefficient of x^j in x^k - (x - 1)^k; r(G) by Horner
    c = [(-1) ** (k - j + 1) * comb(k, j) for j in range(k)]
    r = [[0] * n for _ in range(n)]
    for cj in reversed(c[1:]):
        r = intmat.mat_mul(r, gamma)
        for i in range(n):
            r[i][i] += cj
    rel = intmat.mat_mul(gamma, r)
    t_mat = [[c[0] * x for x in row] for row in r]
    for i in range(n):
        rel[i][i] += c[0]
        t_mat[i][i] += 1
    snf = intmat.smith_form(rel, modulus=abs(intmat.det(rel)))
    w = intmat.mat_mul(intmat.mat_mul(snf.u, t_mat), snf.u_inv)
    tor_idx = [i for i, d in enumerate(snf.d) if d not in (0, 1)]
    free_idx = [i for i, d in enumerate(snf.d) if d == 0]
    for i in free_idx:
        for j in tor_idx:
            assert w[i][j] == 0, "t-action must preserve the torsion submodule"
    torsion = tuple(snf.d[i] for i in tor_idx)
    t_tor = tuple(tuple(w[i][j] % snf.d[i] for j in tor_idx) for i in tor_idx)
    module = (FiniteLambdaModule.make(torsion, t_tor) if torsion
              else FiniteLambdaModule.trivial())
    return CyclicCoverHomology(module, len(free_idx))


def torsion_order_by_resultant(a: SeifertMatrix, k: int) -> int:
    """|prod over j=1..k-1 of Delta(zeta_k^j)|, computed exactly as the
    absolute resultant of Delta with (t^k - 1)/(t - 1). Zero signals an
    infinite quotient (Delta vanishes at some k-th root of unity).

    Independent of cyclic_quotient: no Smith form, no matrix pencils.
    """
    if k < 1:
        raise ValueError("k must be positive")
    delta = alexander_polynomial(a)
    if k == 1:
        return 1
    q = [1] * k  # 1 + t + ... + t^(k-1)
    return abs(resultant(list(delta.coeffs), q))


@dataclass(frozen=True)
class LinkingForm:
    """Symmetric nonsingular Q/Z-valued pairing on a FiniteLambdaModule,
    given by a Gram matrix of fractions mod 1 on the generators."""

    module: FiniteLambdaModule
    gram: tuple

    def __post_init__(self):
        r = self.module.rank
        g = self.gram
        if len(g) != r or any(len(row) != r for row in g):
            raise ValueError("gram size mismatch")
        for i in range(r):
            for j in range(r):
                if g[i][j] != g[j][i]:
                    raise ValueError("linking form must be symmetric")
                v = g[i][j] * self.module.torsion[i]
                if v.denominator != 1:
                    raise ValueError("form not well defined on the torsion")

    def pair(self, u, v):
        total = Fraction(0)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        total += x * y * self.gram[i][j]
        return total % 1

    def to_json_dict(self):
        d = self.module.to_json_dict()
        d["gram"] = [[frac_str(x) for x in row] for row in self.gram]
        return d


def double_cover_linking_form(a: SeifertMatrix) -> LinkingForm:
    """Linking form of the double branched cover: the pairing
    x^t (A + A^t)^(-1) y mod 1 on coker(A + A^t), with t acting as -1."""
    n = a.n
    if n == 0:
        return LinkingForm(FiniteLambdaModule.trivial(), ())
    snf = intmat.smith_form(a.symmetrization())
    if 0 in snf.d:
        raise DegenerateForm("A + A^t is singular")
    tor_idx = [i for i, d in enumerate(snf.d) if d > 1]
    torsion = tuple(snf.d[i] for i in tor_idx)
    if not torsion:
        return LinkingForm(FiniteLambdaModule.trivial(), ())
    # D = U B V gives B^-1 = V D^-1 U, and U g_i = e_i for the generator
    # g_i = column i of U^-1, so g_i^t B^-1 g_j = (g_i . V e_j) / d_j
    uinv, v = snf.u_inv, snf.v
    gram = tuple(tuple(Fraction(sum(uinv[r][i] * v[r][j] for r in range(n)), snf.d[j]) % 1
                       for j in tor_idx) for i in tor_idx)
    t_mat = tuple(tuple((-1 if i == j else 0) % torsion[i] for j in range(len(tor_idx)))
                  for i in range(len(tor_idx)))
    module = FiniteLambdaModule.make(torsion, t_mat)
    return LinkingForm(module, gram)


def find_linking_metabolizers(form: LinkingForm, cap: Optional[int] = None):
    """All t-invariant subgroups P with P equal to its own annihilator
    under the form, as generator tuples. Exhaustive, so the module order is
    capped (default from KNOTSIG_CAP, else 10**6)."""
    if cap is None:
        cap = default_cap()
    mod = form.module
    order = mod.order()
    if order > cap:
        raise CapExceeded(order, cap)
    if order == 1:
        return [()]
    sq = isqrt(order)
    if sq * sq != order:
        return []

    elements = list(mod.elements())

    def closure(gens):
        seen = {mod.zero()}
        frontier = [mod.zero()]
        for g in gens:
            if g not in seen:
                seen.add(g)
                frontier.append(g)
        while frontier:
            v = frontier.pop()
            for w in (mod.t_apply(v), *(mod.add(v, g) for g in list(seen))):
                if w not in seen:
                    if len(seen) >= order:
                        break
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    def perp(subgroup):
        gens = list(subgroup)
        return frozenset(x for x in elements
                         if all(form.pair(x, g) == 0 for g in gens))

    found = {}
    seen_subgroups = set()

    def search(gens, sub):
        if len(sub) > sq:
            return
        if len(sub) == sq and sub not in found:
            if perp(sub) == sub:
                found[sub] = tuple(gens)
        for g in elements:
            if g in sub:
                continue
            nsub = closure(list(sub) + [g])
            if nsub in seen_subgroups or len(nsub) > sq:
                continue
            seen_subgroups.add(nsub)
            search(gens + [g], nsub)

    base = closure([])
    seen_subgroups.add(base)
    search([], base)
    return sorted(found.values())


@dataclass(frozen=True)
class Character:
    """A character into the complex units with values that are m-th roots
    of unity: generator i maps to exp(2*pi*i*exponents[i]/modulus)."""

    modulus: int
    exponents: tuple

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if any(not 0 <= c < self.modulus for c in self.exponents):
            raise ValueError("exponents must be reduced mod the modulus")

    @classmethod
    def make(cls, modulus, exponents):
        return cls(modulus, tuple(int(c) % modulus for c in exponents))

    def is_well_defined_on(self, module: FiniteLambdaModule):
        return all((d * c) % self.modulus == 0
                   for d, c in zip(module.torsion, self.exponents))

    def turn_of(self, vec):
        """The value on vec as a residue mod the modulus: chi(vec) is
        exp(2*pi*i*turn_of(vec)/modulus)."""
        return sum(c * v for c, v in zip(self.exponents, vec)) % self.modulus

    def compose_t(self, module: FiniteLambdaModule):
        """The character x -> chi(t x)."""
        t = module.t_matrix
        r = module.rank
        new = [sum(t[i][j] * self.exponents[i] for i in range(r)) % self.modulus
               for j in range(r)]
        return Character(self.modulus, tuple(new))

    def order(self):
        g = self.modulus
        for c in self.exponents:
            g = gcd(g, c)
        return self.modulus // g

    def is_trivial(self):
        return all(c == 0 for c in self.exponents)


def characters_vanishing_on(module: FiniteLambdaModule, p_gens, p: int, r: int):
    """All characters of order dividing p**r vanishing on the t-invariant
    submodule generated by p_gens, enumerated exactly in lexicographic
    order. Vanishing is enforced on the t-orbits of the generators, so the
    submodule may be given by module generators over the group ring."""
    if r < 1 or p < 2:
        raise ValueError("need a prime p and r >= 1")
    m = p ** r
    gens = []
    for g in p_gens:
        v = module.reduce_vec(g)
        seen = set()
        while v not in seen:
            seen.add(v)
            gens.append(v)
            v = module.t_apply(v)
    ranges = []
    for d in module.torsion:
        step = m // gcd(d, m)
        ranges.append([j * step for j in range(gcd(d, m))])
    out = []
    for combo in product(*ranges):
        chi = Character.make(m, combo)
        if all(chi.turn_of(g) == 0 for g in gens):
            assert chi.is_well_defined_on(module)
            out.append(chi)
    return out
