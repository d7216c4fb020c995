"""The Alexander module and its finite shadows.

The module over Lambda = Z[t, 1/t] presented by the pencil tA - A^t is
studied through its finite quotients. Its quotient by t^k - 1 is coker
R_k, R_k = Gamma^k - (Gamma - I)^k with Gamma = (A - A^t)^(-1) A
(SeifertMatrix.gamma), a 2g x 2g integer matrix; the torsion of the k-fold
cyclic cover homology is read off one exact Smith normal form of R_k, with
the t-action transported to the normal-form basis. The same quotient is,
by definition, coker(S (x) A - I (x) A^t) with S the k-cycle shift, a
2gk x 2gk matrix that the test suite reduces as an independent check. The
order of the torsion has a further exact oracle, the resultant of the
Alexander polynomial with (t^k - 1)/(t - 1). For k = 2 the linking form on
the torsion is x^t (A + A^t)^(-1) y mod 1, held as d_r times it mod d_r;
its t-invariant metabolizers are found by a canonical walk that reaches
each isotropic t-invariant subgroup once, along its greedy generators."""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, isqrt, prod
from operator import add, mod, mul, neg

from . import intmat
from .intmat import CapExceeded, default_cap
from .knotio import frac_str
from .polyz import cyclotomic, peval, resultant
from .seifert import SeifertMatrix, alexander_polynomial


@dataclass(frozen=True)
class LambdaModulePresentation:
    """Presentation pencil (A, A^t): the relation matrix is tA - A^t."""

    matrix: SeifertMatrix


def alexander_module(a: SeifertMatrix) -> LambdaModulePresentation:
    return LambdaModulePresentation(a)


@dataclass(frozen=True)
class FiniteLambdaModule:
    """A finite abelian group with torsion coefficients d_1 | d_2 | ... | d_r
    (each >= 2) and an automorphism t given by an integer matrix acting on
    the coordinates mod each d_i. The order of t and the matrices of t^e, by
    e mod that order, are cached on the instance and go with it."""

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

    @property
    def rank(self):
        return len(self.torsion)

    def order(self):
        return prod(self.torsion)

    def reduce_vec(self, vec):
        if len(vec) != len(self.torsion):
            raise ValueError("coefficient vector length mismatch")
        return tuple(map(mod, map(int, vec), self.torsion))

    def zero(self):
        return (0,) * self.rank

    def add(self, u, v):
        return tuple(map(mod, map(add, u, v), self.torsion))

    def neg(self, v):
        return tuple(map(mod, map(neg, v), self.torsion))

    def elements(self):
        return product(*(range(d) for d in self.torsion))

    def t_apply(self, vec):
        return tuple([sum(map(mul, row, vec)) % d
                      for row, d in zip(self.t_matrix, self.torsion)])

    def action_order(self):
        """Minimal o >= 1 with t^o the identity on the module."""
        return self._action_order

    @cached_property
    def _action_order(self):
        # A known multiple M of the order, with primes divided out while
        # t^(M/q) stays the identity. On the p-primary part, with r
        # coefficients d_i divisible by p and p^e the p-part of d_r, t maps to
        # GL_r(F_p), of order p^(r(r-1)/2) * prod_(i <= r) (p^i - 1) =
        # p^(r(r-1)/2) * prod_(j <= r) Phi_j(p)^(r // j), and the kernel of
        # Aut -> GL_r(F_p) has exponent dividing p^(e-1).
        multiple = Counter()
        for p, e in intmat.prime_factorization(max(self.torsion, default=1)).items():
            r = sum(1 for d in self.torsion if d % p == 0)
            part = Counter({p: r * (r - 1) // 2 + e - 1})
            for j in range(1, r + 1):
                for q, a in intmat.prime_factorization(peval(cyclotomic(j), p)).items():
                    part[q] += a * (r // j)
            multiple |= part
        # the q-part of the order is the order of t^(M/q^a), q^a || M: the
        # number of q-th powers that take it to the identity
        big = prod(q ** a for q, a in multiple.items())
        assert self.is_periodic(big), "t^M must be the identity"
        identity, order = self._t_power(0), 1
        for q, a in multiple.items():
            power = self._t_power(big // q ** a)
            while power != identity:
                power, order = self._power(power, q), order * q
        return order

    def is_periodic(self, m):
        """Whether t^m is the identity on the module: t^m against t^0, each
        one modular power."""
        return self._t_power(m) == self._t_power(0)

    def _t_power(self, e):
        return self._power(self.t_matrix, e)

    def _power(self, matrix, e):
        # matrix^e mod d_r, then row i mod d_i: exact because d_i | d_r and
        # the matrix is a well-defined endomorphism
        power = intmat.mat_pow_mod(matrix, e, max(self.torsion, default=1))
        return tuple(tuple(x % d for x in row) for row, d in zip(power, self.torsion))

    @cached_property
    def _t_powers(self):
        # t^e by e mod the order; the minimisation's trial powers stay out
        return {}

    def t_power_matrix(self, e):
        """The matrix of t^e on the module (e taken mod the action order)."""
        e %= self._action_order
        if e not in self._t_powers:
            self._t_powers[e] = self._t_power(e)
        return self._t_powers[e]

    def t_pow_apply(self, vec, e):
        return tuple([sum(map(mul, row, vec)) % d
                      for row, d in zip(self.t_power_matrix(e), self.torsion)])

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


@dataclass(frozen=True)
class CyclicCoverHomology:
    """Torsion and free rank of the homology of a finite cyclic cover."""

    module: FiniteLambdaModule
    free_rank: int


def cyclic_quotient(pres: LambdaModulePresentation, k: int) -> CyclicCoverHomology:
    """Quotient of the Alexander module by (t^k - 1), split into torsion
    plus free rank, with the induced t-action on the torsion.

    tA - A^t = V((t - 1)Gamma + I) with Gamma = pres.matrix.gamma. On the
    module Gamma is invertible and t = I - Gamma^(-1), so t^k = 1 exactly
    when Gamma^k = (Gamma - I)^k: the quotient is coker R_k with the 2g x 2g
    matrix R_k = Gamma^k - (Gamma - I)^k. Write x^k - (x - 1)^k =
    c_0 + x r(x), c_j = (-1)^(k-j+1) comb(k, j) and c_0 = (-1)^(k+1); then on
    coker R_k Gamma^(-1) = -c_0 r(Gamma) and t acts by I + c_0 r(Gamma).
    r(Gamma) is summed by Horner from c_(k-1) = k down, each binomial made
    from the one before by comb(k, j) = comb(k, j+1) (j+1) / (k-j). One
    Smith form of R_k gives the torsion and the free rank, and t is moved to
    its basis as U T U^(-1), whose rows are read mod their d_i: so the
    transforms that smith_form reduces mod d_r serve as they are.

    The torsion agrees with that of coker(S (x) A - I (x) A^t), S the
    k-cycle shift, which the test suite recomputes by that route; for
    prime-power k it is the torsion of the cover homology, and its order
    equals the resultant oracle.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = pres.matrix.n
    gamma = pres.matrix.gamma
    r = [[0] * n for _ in range(n)]
    b = 1
    for j in range(k - 1, 0, -1):
        b = b * (j + 1) // (k - j)
        r = intmat.mat_mul(r, gamma)
        for i in range(n):
            r[i][i] += b if (k - j) % 2 else -b
    rel = intmat.mat_mul(gamma, r)
    c0 = 1 if k % 2 else -1
    t_mat = [[c0 * x for x in row] for row in r]
    for i in range(n):
        rel[i][i] += c0
        t_mat[i][i] += 1
    snf = intmat.smith_form(rel)
    w = intmat.mat_mul(intmat.mat_mul(snf.u, t_mat), snf.u_inv)
    tor_idx = [i for i, d in enumerate(snf.d) if d not in (0, 1)]
    free_idx = [i for i, d in enumerate(snf.d) if d == 0]
    for i in free_idx:
        for j in tor_idx:
            assert w[i][j] == 0, "t-action must preserve the torsion submodule"
    torsion = tuple(snf.d[i] for i in tor_idx)
    t_tor = tuple(tuple(w[i][j] % snf.d[i] for j in tor_idx) for i in tor_idx)
    return CyclicCoverHomology(FiniteLambdaModule.make(torsion, t_tor), len(free_idx))


def torsion_order_by_resultant(a: SeifertMatrix, k: int) -> int:
    """|prod over j=1..k-1 of Delta(zeta_k^j)|, computed exactly as the
    absolute resultant of Delta with f = (t^k - 1)/(t - 1) = 1 + ... +
    t^(k-1), a norm that polyz.resultant reaches in one Horner pass over
    the k coefficients of f. Zero signals an infinite quotient (Delta
    vanishes at some k-th root of unity).

    It shares Gamma with cyclic_quotient, through Delta. The test suite has
    the independent routes: Delta by cofactor expansion and by pencil
    interpolation, the resultant from the Sylvester matrix, and the cover
    homology from the Kronecker pencil.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return abs(resultant(list(alexander_polynomial(a).coeffs), [1] * k))


@dataclass(frozen=True)
class LinkingForm:
    """Symmetric Q/Z-valued pairing b on a FiniteLambdaModule, held in
    integers: gram[i][j] = N b(e_i, e_j) mod N, an int in [0, N), with
    N = d_r (1 on the trivial module)."""

    module: FiniteLambdaModule
    gram: tuple

    def __post_init__(self):
        r, n = self.module.rank, self.modulus
        g = self.gram
        if len(g) != r or any(len(row) != r for row in g):
            raise ValueError("gram size mismatch")
        for i, d in enumerate(self.module.torsion):
            for j in range(r):
                if not (_is_int(g[i][j]) and 0 <= g[i][j] < n):
                    raise ValueError("gram entries must be integers in [0, N)")
                if g[i][j] != g[j][i]:
                    raise ValueError("linking form must be symmetric")
                if d * g[i][j] % n:
                    raise ValueError("form not well defined on the torsion")

    @cached_property
    def modulus(self):
        return max(self.module.torsion, default=1)

    def pair(self, u, v):
        """N b(u, v) mod N, an integer residue: zero exactly when u and v
        pair trivially."""
        return sum(x * sum(map(mul, row, v)) for x, row in zip(u, self.gram) if x) % self.modulus

    def to_json_dict(self):
        d = self.module.to_json_dict()
        d["gram"] = [[frac_str(Fraction(x, self.modulus)) for x in row] for row in self.gram]
        return d


def double_cover_linking_form(a: SeifertMatrix) -> LinkingForm:
    """Linking form of the double branched cover: the pairing
    x^t (A + A^t)^(-1) y mod 1 on coker(A + A^t), with t acting as -1."""
    n = a.n
    snf = intmat.smith_form(a.symmetrization())
    # A + A^t = A - A^t mod 2, and det(A - A^t) = 1 for a valid Seifert matrix
    assert 0 not in snf.d, "A + A^t is nonsingular, its determinant being odd"
    tor_idx = [i for i, d in enumerate(snf.d) if d > 1]
    torsion = tuple(snf.d[i] for i in tor_idx)
    # D = U B V gives B^-1 = V D^-1 U, and U g_i = e_i for the generator
    # g_i = column i of U^-1, so g_i^t B^-1 g_j = (g_i . V e_j) / d_j, and N
    # times it is (g_i . V e_j) (N / d_j), N = d_r; smith_form keeps U^-1
    # and V mod d_r, which changes it by multiples of d_r (N / d_j), so of N
    uinv, v, big = snf.u_inv, snf.v, max(torsion, default=1)
    gram = tuple(tuple(sum(uinv[r][i] * v[r][j] for r in range(n)) * (big // snf.d[j]) % big
                       for j in tor_idx) for i in tor_idx)
    r = len(tor_idx)
    module = FiniteLambdaModule.make(torsion, [[-int(i == j) for j in range(r)] for i in range(r)])
    return LinkingForm(module, gram)


def find_linking_metabolizers(form: LinkingForm):
    """All t-invariant subgroups P with P equal to its own annihilator
    under the form, each named by its greedy generators: g_(i+1) is the
    lexicographically least element of P outside the t-invariant span of
    g_1, ..., g_i. Such a P is isotropic of order sqrt|H|. If |P|^2 = |H|,
    ann P holds P and the radical and has order |P| |P n rad|: so every
    such isotropic P is its own annihilator when the form is nondegenerate,
    and none is otherwise. The walk extends an isotropic t-invariant S by an
    isotropic g after the last of its greedy generators, kept only when g is
    the least element the extension adds (canonical augmentation), so it
    builds each such subgroup of order <= sqrt|H| once, along its name.
    Exhaustive, so the module order is capped (KNOTSIG_CAP, else 10**6)."""
    mod = form.module
    order, cap = mod.order(), default_cap()
    if order > cap:
        raise CapExceeded(order, cap)
    sq = isqrt(order)
    if sq * sq != order:
        return []
    pair = form.pair
    isotropic = [g for g in mod.elements() if not pair(g, g)]
    units = [tuple(int(i == j) for j in range(mod.rank)) for i in range(mod.rank)]
    if any(any(x) and not any(pair(x, e) for e in units) for x in isotropic):
        return []  # the radical is in the isotropic elements

    def augment(sub, gens, g):
        # the t-invariant span of sub and g and its generators; None once it
        # stops being isotropic (b is bilinear, so each new v is paired with
        # the generators only), passes order sq or adds an element below g
        sub, gens, frontier = set(sub), list(gens), [g]
        while frontier:
            v = frontier.pop()
            if v in sub:
                continue
            if pair(v, v) or any(pair(v, w) for w in gens):
                return None
            gens.append(v)
            base, m = list(sub), v
            while m not in sub:  # sub + <v>, one new coset of the old sub at a time
                coset = [mod.add(m, w) for w in base]
                if len(sub) + len(coset) > sq or min(coset) < g:
                    return None
                sub.update(coset)
                m = mod.add(m, v)
            frontier.append(mod.t_apply(v))
        return sub, gens

    stack, out = [((), {mod.zero()}, [], 0)], []
    while stack:
        name, sub, gens, start = stack.pop()
        if len(sub) == sq:
            out.append(name)
            continue
        for i, g in enumerate(isotropic[start:], start):
            if g not in sub and (child := augment(sub, gens, g)) is not None:
                stack.append((name + (g,), *child, i + 1))
    return sorted(out)


@dataclass(frozen=True)
class Character:
    """A character into the complex units with values that are m-th roots
    of unity: generator i maps to exp(2*pi*i*exponents[i]/modulus)."""

    modulus: int
    exponents: tuple

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if self.exponents and not 0 <= min(self.exponents) <= max(self.exponents) < self.modulus:
            raise ValueError("exponents must be reduced mod the modulus")

    @classmethod
    def make(cls, modulus, exponents):
        return cls(modulus, tuple(int(c) % modulus for c in exponents))

    def is_well_defined_on(self, module: FiniteLambdaModule):
        return len(self.exponents) == module.rank and all(
            (d * c) % self.modulus == 0 for d, c in zip(module.torsion, self.exponents))

    def turn_of(self, vec):
        """The value on vec as a residue mod the modulus: chi(vec) is
        exp(2*pi*i*turn_of(vec)/modulus)."""
        return sum(map(mul, self.exponents, vec)) % self.modulus

    @staticmethod
    def compose_t(exponents, t_columns, modulus):
        """The exponents of x -> chi(t x) from chi's: t^T times them, mod
        the modulus; t_columns are the columns of t's matrix."""
        return tuple([sum(map(mul, col, exponents)) % modulus for col in t_columns])

    def orbit(self, module: FiniteLambdaModule):
        """The exponent tuples of chi, chi o t, chi o t^2, ... up to the
        first return to chi, so its length is the period of chi under t. Each
        member is reduced mod the modulus, and chi o t of a well-defined chi
        is well defined. The walk ends because t is invertible, which the
        dual action inherits for a well-defined chi."""
        if not self.is_well_defined_on(module):
            raise ValueError("character is not well defined on the module")
        m, start, cols = self.modulus, self.exponents, tuple(zip(*module.t_matrix))
        orbit, cur = [start], self.compose_t(start, cols, m)
        while cur != start:
            orbit.append(cur)
            cur = self.compose_t(cur, cols, m)
        return tuple(orbit)


def characters_of(module: FiniteLambdaModule, m: int):
    """All characters of the module with values m-th roots of unity, in
    lexicographic order of their exponents: exponent i runs over the
    multiples of m / gcd(d_i, m) below m."""
    for exponents in product(*(range(0, m, m // gcd(d, m)) for d in module.torsion)):
        yield Character(m, exponents)


def characters_vanishing_on(module: FiniteLambdaModule, p_gens, p: int, r: int):
    """All characters of order dividing p**r vanishing on the t-invariant
    submodule generated by p_gens, enumerated exactly in lexicographic
    order. Vanishing is enforced on the t-orbits of the generators, so the
    submodule may be given by module generators over the group ring.
    The count of characters it reads, the product of the gcd(d_i, p**r), is
    capped (KNOTSIG_CAP, else 10**6) before any is enumerated."""
    if r < 1 or p < 2:
        raise ValueError("need a prime p and r >= 1")
    m = p ** r
    count, cap = prod(gcd(d, m) for d in module.torsion), default_cap()
    if count > cap:
        raise CapExceeded(count, cap, "character count")
    gens = []
    for g in p_gens:
        v = module.reduce_vec(g)
        seen = set()
        while v not in seen:
            seen.add(v)
            gens.append(v)
            v = module.t_apply(v)
    out = []
    for chi in characters_of(module, m):
        if all(chi.turn_of(g) == 0 for g in gens):
            assert chi.is_well_defined_on(module)
            out.append(chi)
    return out
