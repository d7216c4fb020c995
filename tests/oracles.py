"""Independent oracles for the test suite.

Every routine here recomputes a quantity by a different method than the
library uses: cofactor expansion and pencil interpolation instead of
one characteristic polynomial of (A - A^t)^(-1) A, congruence
diagonalization over Q instead of fraction-free elimination, Descartes'
rule on the characteristic polynomial of H instead of an elimination
over Q(alpha) at a multiple root, brute-force iteration
instead of order-finding, commutant dimensions instead of orbit criteria,
an integer symplectic basis instead of Levine's det(A + A^t) mod 8,
signs at certified cosine enclosures instead of signs at a rational
cos(theta) inside each arc, Litherland's lattice-point count for torus
knots instead of any matrix, the group law and representation matrices
entry by entry instead of tuple kernels and cached powers, linking-form
metabolizers by a search over every t-invariant subgroup instead of a walk
over the isotropic ones, cyclotomic polynomials and their roots by
polynomial division instead of binomials t^e - 1. A few helpers
that only tests need, such as the inverse of a monomial matrix, live here
too.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from knotsig.intmat import det, euler_phi, identity
from knotsig.mbreps import MonomialMatrix
from knotsig.polyz import (_variations, char_poly, cos_minimal_poly, palindromic_compact,
                           pdeg, pdivmod, peval, pnorm, psubst_scale)
from knotsig.realalg import (MAX_REFINE, PrecisionExhausted, _pi_scaled,
                             cos_turn_bounds)


# --- determinant of a polynomial matrix by cofactor expansion -------------

def _padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return pnorm(out)


def _pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return pnorm(out)


def poly_det_cofactor(mat):
    """Determinant of a matrix of integer polynomials (low-to-high lists)
    by first-row cofactor expansion."""
    n = len(mat)
    if n == 0:
        return [1]
    if n == 1:
        return pnorm(mat[0][0])
    total = []
    for j, entry in enumerate(mat[0]):
        if not pnorm(entry):
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        term = _pmul(entry, poly_det_cofactor(minor))
        if j % 2 == 1:
            term = [-c for c in term]
        total = _padd(total, term)
    return pnorm(total)


def alexander_by_cofactor(a):
    """det(tA - A^t) by cofactor expansion over Z[t], raw (unnormalized)."""
    n = a.n
    ent = a.entries
    mat = [[pnorm([-ent[j][i], ent[i][j]]) for j in range(n)] for i in range(n)]
    return poly_det_cofactor(mat)


def pinterpolate(xs, ys):
    """The integer polynomial of degree < len(xs) through the points
    (xs[i], ys[i]), by Newton's divided differences. Every division must be
    exact, as it is for an integer polynomial at consecutive integers."""
    dd = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - level])
            assert r == 0, "divided differences must be exact over Z"
            dd[i] = q
    out = []
    for x, d in zip(reversed(xs), reversed(dd)):
        out = _padd(_pmul(out, [-x, 1]), [d])
    return out


def alexander_by_pencil_interpolation(a):
    """det(tA - A^t) from Bareiss determinants of the pencil at n + 1
    consecutive integers t, interpolated by Newton's exact divided
    differences; raw (unnormalized). n is even, so t runs from -n/2 to n/2."""
    n = a.n
    ent = a.entries
    xs = range(-(n // 2), n // 2 + 1)
    ys = [det([[t * ent[i][j] - ent[j][i] for j in range(n)] for i in range(n)])
          for t in xs]
    return pinterpolate(xs, ys)


# --- signature of a Hermitian matrix by congruence diagonalization --------

def symmetric_signature(mat):
    """Signature of a symmetric matrix of Fractions by exact symmetric
    Gaussian elimination (congruence transforms only)."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    sig = 0
    todo = list(range(n))
    while todo:
        # find a nonzero diagonal entry among the remaining indices
        piv = next((i for i in todo if m[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in todo for j in todo
                         if i != j and m[i][j] != 0), None)
            if pair is None:
                break  # remaining block is zero: contributes nothing
            i, j = pair
            # congruence u_i -> u_i + u_j makes the diagonal nonzero
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            piv = i
        d = m[piv][piv]
        sig += 1 if d > 0 else -1
        todo.remove(piv)
        for r in todo:
            if m[r][piv]:
                f = m[r][piv] / d
                for c in range(n):
                    m[r][c] -= f * m[piv][c]
                for c in range(n):
                    m[c][r] -= f * m[c][piv]
    return sig


def tl_signature_by_congruence(a, x):
    """Signature of (1-z)A + (1-conj z)A^t at the circle point with
    cos(theta) = x (a rational in (-1, 1]), via the real symmetric form
    [[P, T], [-T, P/(1-x^2)]] congruent to the realified Hermitian matrix.
    Completely independent of characteristic polynomials."""
    x = Fraction(x)
    n = a.n
    if n == 0 or x == 1:
        return 0
    s = a.symmetrization()
    t = a.antisymmetrization()
    p = [[Fraction((1 - x) * s[i][j]) for j in range(n)] for i in range(n)]
    if x == -1:
        return symmetric_signature(p)
    scale = 1 / (1 - x * x)
    big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            big[i][j] = p[i][j]
            big[i][n + j] = Fraction(t[i][j])
            big[n + i][j] = Fraction(-t[i][j])
            big[n + i][n + j] = p[i][j] * scale
    doubled = symmetric_signature(big)
    assert doubled % 2 == 0
    return doubled // 2


def torus_signature_by_lattice_count(p, q, turn):
    """Tristram-Levine signature of the torus knot T(p, q) at
    exp(2*pi*i*turn), 0 < turn < 1, by Litherland's lattice-point count
    ("Signatures of iterated torus knots", 1979). Over 1 <= i < p and
    1 <= j < q, a point s = i/p + j/q with turn < s < turn + 1 counts -1
    and any other +1; that sign gives T(2, 3) the trefoil's -2 at z = -1.
    A turn with s - turn an integer is a breakpoint, where the count does
    not apply."""
    turn = Fraction(turn)
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            assert (s - turn).denominator != 1, "turn at a breakpoint"
            total += -1 if turn < s < turn + 1 else 1
    return total


# --- test-only views of monomial matrices and characters ------------------

def monomial_conj_transpose(m):
    """The conjugate transpose of a MonomialMatrix, its inverse."""
    inv = [0] * len(m.perm)
    for j, i in enumerate(m.perm):
        inv[i] = j
    return MonomialMatrix(tuple(inv), tuple(-m.turns[j] % m.modulus for j in inv), m.modulus)


def monomial_is_identity(m):
    return all(i == j for j, i in enumerate(m.perm)) and not any(m.turns)


def character_is_trivial(chi):
    return not any(chi.exponents)


# --- the group law and the representations by their definitions -----------
# Entry by entry, t applied one step at a time: the library's tuple kernels
# and its cached t^e matrices and character orbits are checked against these.

def vec_reduce(module, vec):
    return tuple(int(v) % d for v, d in zip(vec, module.torsion))


def vec_t_apply(module, vec):
    t = module.t_matrix
    return tuple(sum(t[i][j] * vec[j] for j in range(module.rank)) % d
                 for i, d in enumerate(module.torsion))


def vec_t_pow_apply(module, vec, e):
    """t^e vec for any integer e, by e mod the brute-force order steps."""
    vec = vec_reduce(module, vec)
    for _ in range(e % action_order_brute(module) if module.rank else 0):
        vec = vec_t_apply(module, vec)
    return vec


def semidirect_mul_by_definition(x, y, module, cyclic_order=None):
    """(n, h)(n', h') = (n + n', t^(s n') h + h'), s = TWIST_SIGN."""
    from knotsig.mbreps import TWIST_SIGN, SemidirectElement

    n = x.n + y.n
    if cyclic_order is not None:
        n %= cyclic_order
    th = vec_t_pow_apply(module, x.h, TWIST_SIGN * y.n)
    return SemidirectElement(n, tuple((a + b) % d for a, b, d in
                                      zip(th, vec_reduce(module, y.h), module.torsion)))


def rep_matrix_by_definition(rep, elem, module):
    """z^n P^n diag(chi(h), chi(t h), ..., chi(t^(l-1) h)), with chi(t^j h)
    from t applied j times to the reduced h, on the module rep acts on."""
    l, n, big = rep.dim, elem.n, rep.modulus
    zn = n * rep.z.numerator * (big // rep.z.denominator)
    scale = big // rep.chi.modulus
    h = vec_reduce(module, elem.h)
    turns = []
    for _ in range(l):
        chi_h = sum(c * v for c, v in zip(rep.chi.exponents, h)) % rep.chi.modulus
        turns.append((zn + scale * chi_h) % big)
        h = vec_t_apply(module, h)
    return MonomialMatrix(tuple((j + n) % l for j in range(l)), tuple(turns), big)


def character_periods_by_definition(module, characters):
    """For each character chi, the least l >= 1 with chi(t^l e_i) = chi(e_i)
    on every basis vector e_i, with t^l e_i from vec_t_pow_apply: l runs up
    to the brute-force order of t, where every character has returned."""
    basis = [tuple(int(i == j) for j in range(module.rank)) for i in range(module.rank)]
    images = [[vec_t_pow_apply(module, e, l) for e in basis]
              for l in range(1, action_order_brute(module) + 1)]

    def values(chi, vecs):
        return [sum(c * x for c, x in zip(chi.exponents, v)) % chi.modulus for v in vecs]

    return [next(l for l, vecs in enumerate(images, 1) if values(chi, vecs) == values(chi, basis))
            for chi in characters]


def character_turns_by_definition(rep, elem, module):
    """The turns on the diagonal of the full matrix."""
    mat = rep_matrix_by_definition(rep, elem, module)
    return [mat.turns[j] for j, i in enumerate(mat.perm) if i == j]


# --- commutant dimension of a monomial representation ----------------------

def commutant_dimension(rep, m, module):
    """Dimension of the commutant of the representation of Z/m x| F, by
    solving alpha(g) X = X alpha(g) over the generators: cells of X are
    linked with root-of-unity phase offsets; inconsistent cycles force 0.
    Irreducibility is equivalent to dimension 1 (Schur)."""
    from knotsig.mbreps import SemidirectElement

    l = rep.dim
    gens = [SemidirectElement(1, module.zero())]
    for i in range(module.rank):
        h = tuple(1 if j == i else 0 for j in range(module.rank))
        gens.append(SemidirectElement(0, h))
    parent = {}
    offset = {}  # phase turn mod N relative to the parent chain
    big = rep.modulus
    dead = set()

    def find(cell):
        if parent[cell] == cell:
            return cell, 0
        root, off = find(parent[cell])
        parent[cell] = root
        offset[cell] = (offset[cell] + off) % big
        return root, offset[cell]

    for r in range(l):
        for c in range(l):
            parent[(r, c)] = (r, c)
            offset[(r, c)] = 0
    for g in gens:
        mat = rep.matrix(g)
        perm, turns = mat.perm, mat.turns
        for r in range(l):
            for c in range(l):
                src = (r, c)
                dst = (perm[r], perm[c])
                delta = (turns[r] - turns[c]) % big  # X[dst] = X[src] * e^(2pi i delta/N)
                root_s, off_s = find(src)
                root_d, off_d = find(dst)
                if root_s == root_d:
                    if (off_s + delta - off_d) % big != 0:
                        dead.add(root_s)
                else:
                    parent[root_d] = root_s
                    offset[root_d] = (off_s + delta - off_d) % big
                    if root_d in dead:
                        dead.discard(root_d)
                        dead.add(root_s)
    roots = set()
    for cell in parent:
        root, _ = find(cell)
        roots.add(root)
    return sum(1 for r in roots if r not in dead)


# --- characteristic polynomial by determinant interpolation ----------------

def char_poly_at_x_by_interpolation(a, x):
    """Coefficients of det(lambda I - M(x)) for rational x, via exact
    determinants of the realified rational matrix at interpolation nodes.

    The realified 2n x 2n symmetric rational matrix [[P, T], [-T, P/(1-x^2)]]
    is congruent to the doubled Hermitian form but NOT similar to it, so
    its characteristic polynomial is useless here; instead interpolate
    det(lambda I - M) directly through the complex-free identity
    det(lambda I - M) * conj = det of the 2n x 2n real similarity model
    [[lambda - P, -K], [K, lambda - P]] with K = -yT, which IS similar to
    the direct sum of M and its conjugate. Entries carry y only in K and
    the determinant is a polynomial in y^2 = 1 - x^2, so Bareiss on scaled
    integer matrices evaluates it exactly at rational lambda.
    """
    n = a.n
    if n == 0:
        return [1]
    x = Fraction(x)
    s = a.symmetrization()
    t = a.antisymmetrization()
    ysq = 1 - x * x

    def det_big(lam):
        # det [[lam - P, yT], [-yT, lam - P]] with the y's cleared by a
        # block scaling that multiplies the determinant by ysq^n:
        # rows n..2n-1 scaled by y, columns n..2n-1 divided by y
        big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                p = (lam if i == j else 0) - (1 - x) * s[i][j]
                big[i][j] = Fraction(p)
                big[i][n + j] = Fraction(t[i][j]) * ysq
                big[n + i][j] = Fraction(-t[i][j])
                big[n + i][n + j] = Fraction(p)
        return _frac_det(big)

    # interpolate the degree-2n polynomial det_big(lam) = p(lam)^2
    nodes = list(range(2 * n + 1))
    vals = [det_big(Fraction(l)) for l in nodes]
    sq = _lagrange(nodes, vals)
    return _poly_sqrt_monic(sq)


def char_poly_by_interpolation(mat):
    """det(lambda I - M) for a square integer matrix M, lowest degree
    first, interpolated through exact determinants over Q at the n + 1
    nodes lambda = 0..n, with no Faddeev-LeVerrier and no block split."""
    n = len(mat)
    nodes = list(range(n + 1))
    vals = [_frac_det([[(lam if i == j else 0) - x for j, x in enumerate(row)]
                       for i, row in enumerate(mat)]) for lam in nodes]
    assert all(v.denominator == 1 for v in vals)
    return pinterpolate(nodes, [int(v) for v in vals])


def _frac_det(m):
    """Determinant by Gaussian elimination over Q (entries taken as
    Fractions, so integer input stays exact)."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return det


def frac_inverse(mat):
    """Exact inverse of a square integer matrix, as Fractions, by
    Gauss-Jordan elimination over Q (the library reads B^-1 off the Smith
    form instead)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _lagrange(xs, ys):
    n = len(xs)
    out = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xs[j]
                nxt[k + 1] += c
            basis = nxt
            denom *= xs[i] - xs[j]
        for k, c in enumerate(basis):
            out[k] += c * ys[i] / denom
    return out


def _poly_sqrt_monic(sq):
    """Square root of a monic-square polynomial (coefficient recursion)."""
    deg2 = len(sq) - 1
    assert deg2 % 2 == 0 and sq[-1] == 1
    n = deg2 // 2
    p = [Fraction(0)] * (n + 1)
    p[n] = Fraction(1)
    for k in range(n - 1, -1, -1):
        # coefficient of lambda^(n+k) in p^2: 2 p_k p_n + known terms
        acc = Fraction(0)
        for i in range(k + 1, n):
            j = n + k - i
            if k < j <= n:
                acc += p[i] * p[j]
        p[k] = (sq[n + k] - acc) / 2
    check = [Fraction(0)] * (deg2 + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(p):
            check[i + j] += a * b
    assert check == [Fraction(c) for c in sq]
    return p


# --- brute force orders and isomorphism ------------------------------------

def matrix_order_brute(mat, mod, cap=10 ** 6):
    """Order of an integer matrix modulo mod by direct iteration."""
    n = len(mat)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cur = [row[:] for row in ident]
    for k in range(1, cap + 1):
        cur = [[sum(cur[i][t] * mat[t][j] for t in range(n)) % mod
                for j in range(n)] for i in range(n)]
        if cur == ident:
            return k
    raise AssertionError("order exceeds cap")


@lru_cache(maxsize=None)
def action_order_brute(module, cap=10 ** 7):
    """Order of t on a FiniteLambdaModule, by applying t to the standard
    basis one step at a time; once per module, which is frozen and hashable."""
    basis = [tuple(int(i == j) for j in range(module.rank)) for i in range(module.rank)]
    cur = list(basis)
    for k in range(1, cap + 1):
        cur = [vec_t_apply(module, v) for v in cur]
        if cur == basis:
            return k
    raise AssertionError("order exceeds cap")


def is_invertible_by_factoring(torsion, t_matrix):
    """Whether t is onto the module with the given torsion chain, prime by
    prime: for each p dividing d_r, the action on F/pF (the coordinates i
    with p | d_i) must have a determinant that is nonzero mod p."""
    from knotsig.intmat import det, prime_factorization

    for p in prime_factorization(torsion[-1]):
        idx = [i for i, d in enumerate(torsion) if d % p == 0]
        if det([[t_matrix[i][j] % p for j in idx] for i in idx]) % p == 0:
            return False
    return True


def groups_isomorphic_brute(elements, mul, other_elements, other_mul):
    """Whether two small groups are isomorphic, by brute force over all
    bijections (intended for orders <= 8)."""
    from itertools import permutations

    n = len(elements)
    if n != len(other_elements):
        return False
    for perm in permutations(range(n)):
        phi = {elements[i]: other_elements[perm[i]] for i in range(n)}
        if all(phi[mul(a, b)] == other_mul(phi[a], phi[b])
               for a in elements for b in elements):
            return True
    return False


def lambda_modules_isomorphic_brute(m1, m2):
    """Whether two FiniteLambdaModules are isomorphic over Z[t, 1/t]: a
    search for a group isomorphism that commutes with t, one image per
    generator at a time (intended for orders up to about 10^3).

    The graph of a map fixed on some generators is the submodule of
    M1 x M2 their pairs generate, reached from 0 by adding a pair or
    applying t; it must stay the graph of an injective map."""
    if m1.torsion != m2.torsion:
        return False  # the invariant factors decide the group
    basis = [tuple(int(i == j) for j in range(m1.rank)) for i in range(m1.rank)]

    def graph(pairs):
        fwd, back = {m1.zero(): m2.zero()}, {m2.zero()}
        frontier = [(m1.zero(), m2.zero())]
        while frontier:
            x, y = frontier.pop()
            steps = [(m1.t_apply(x), m2.t_apply(y))]
            steps += [(m1.add(x, a), m2.add(y, b)) for a, b in pairs]
            for nx, ny in steps:
                if nx in fwd or ny in back:
                    if fwd.get(nx) != ny:
                        return None
                    continue
                fwd[nx] = ny
                back.add(ny)
                frontier.append((nx, ny))
        return fwd

    def search(pairs, known):
        if len(known) == m1.order():
            return True
        g = next(e for e in basis if e not in known)
        for y in m2.elements():
            ext = graph(pairs + [(g, y)])
            if ext is not None and search(pairs + [(g, y)], ext):
                return True
        return False

    return search([], graph([]))


# --- cyclic cover homology from the Kronecker pencil -------------------------

def cyclic_quotient_by_kronecker(pres, k):
    """Torsion, free rank and t-action of the Alexander module mod t^k - 1
    from the Smith form of the 2gk x 2gk matrix S (x) A - I (x) A^t, S the
    k-cycle shift, with t = S (x) I moved to the normal-form basis (the
    library reduces the 2g x 2g matrix G^k - (G - I)^k instead)."""
    from knotsig import intmat
    from knotsig.alexmod import CyclicCoverHomology, FiniteLambdaModule

    if k < 1:
        raise ValueError("k must be positive")
    n = pres.matrix.n
    if n == 0:
        return CyclicCoverHomology(FiniteLambdaModule.make((), ()), 0)
    a = pres.matrix.as_lists()
    at = intmat.transpose(a)
    shift = [[1 if i == (j + 1) % k else 0 for j in range(k)] for i in range(k)]
    big = intmat.mat_sub(intmat.kron(shift, a), intmat.kron(intmat.identity(k), at))
    t_big = intmat.kron(shift, intmat.identity(n))
    snf = intmat.smith_form(big)
    w = intmat.mat_mul(intmat.mat_mul(snf.u, t_big), snf.u_inv)
    tor_idx = [i for i, d in enumerate(snf.d) if d not in (0, 1)]
    free_idx = [i for i, d in enumerate(snf.d) if d == 0]
    for i in free_idx:
        for j in tor_idx:
            assert w[i][j] == 0, "t-action must preserve the torsion submodule"
    torsion = tuple(snf.d[i] for i in tor_idx)
    t_tor = tuple(tuple(w[i][j] % snf.d[i] for j in tor_idx) for i in tor_idx)
    return CyclicCoverHomology(FiniteLambdaModule.make(torsion, t_tor), len(free_idx))


# --- linking-form metabolizers by a search over all t-invariant subgroups ----

def linking_metabolizers_by_subgroup_search(form):
    """All t-invariant subgroups P with P equal to its own annihilator
    under the form, as generator tuples: a depth-first search that adds one
    element at a time in lexicographic order, closes each candidate over the
    whole group and compares it with its annihilator, scanned over every
    element (the library walks only isotropic subgroups and names each
    metabolizer by its greedy generators afterwards)."""
    from math import isqrt

    from knotsig.intmat import CapExceeded, default_cap

    mod = form.module
    order, cap = mod.order(), default_cap()
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


# --- Smith normal form with eagerly built transforms -------------------------

EagerSmithForm = namedtuple("EagerSmithForm", "d u u_inv v")


def smith_form_eager(mat, rows=None, cols=None, modulus=0):
    """The Smith form of mat, with the three transforms built eagerly, step by
    step alongside the elimination (the library logs the steps and replays
    them on first read). d is always exact; a nonzero `modulus` keeps
    the transforms mod it, so they stay its size instead of growing with
    every elimination step. Any multiple of the last nonzero d_i, such as
    |det| of a nonsingular square matrix, still gives the cokernel's
    coordinates (U x)_i mod d_i."""
    if rows is None:
        rows = len(mat)
    if cols is None:
        cols = len(mat[0]) if mat else 0
    m = [row[:] for row in mat]
    u = identity(rows)
    ui = identity(rows)
    v = identity(cols)

    def row_axpy(i, j, q):
        # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        for r in range(rows):
            ui[r][j] += q * ui[r][i]
        if modulus:
            u[i] = [a % modulus for a in u[i]]
            for r in range(rows):
                ui[r][j] %= modulus

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):
            ui[r][i], ui[r][j] = ui[r][j], ui[r][i]

    def row_neg(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]
        for r in range(rows):
            ui[r][i] = -ui[r][i]

    def col_axpy(i, j, q):
        # col_i -= q * col_j
        for r in range(rows):
            m[r][i] -= q * m[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]
        if modulus:
            for r in range(cols):
                v[r][i] %= modulus

    def col_swap(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def find_pivot(s):
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                x = abs(m[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    def near_quot(a, b):
        # quotient rounding a/b to nearest (b > 0), remainder in [-b/2, b/2]
        return (a + (b >> 1)) // b

    s = 0
    while True:
        piv = find_pivot(s)
        if piv is None:
            break
        # reduce with the globally smallest pivot until row and column are
        # clear; nearest-quotient remainders at least halve the pivot each
        # round, which also keeps the transform entries small
        while True:
            _, pi, pj = find_pivot(s)
            if pi != s:
                row_swap(s, pi)
            if pj != s:
                col_swap(s, pj)
            if m[s][s] < 0:
                row_neg(s)
            d = m[s][s]
            changed = False
            for i in range(s + 1, rows):
                if m[i][s]:
                    row_axpy(i, s, near_quot(m[i][s], d))
                    changed = changed or m[i][s] != 0
            for j in range(s + 1, cols):
                if m[s][j]:
                    col_axpy(j, s, near_quot(m[s][j], d))
                    changed = changed or m[s][j] != 0
            if not changed:
                break
        # enforce divisibility of the rest of the block by the pivot
        d = m[s][s]
        offender = None
        for i in range(s + 1, rows):
            for j in range(s + 1, cols):
                if m[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_axpy(s, offender, -1)   # row_s += row_offender
            continue
        s += 1

    d = [m[i][i] for i in range(min(rows, cols))]
    return EagerSmithForm(d, u, ui, v)


# --- polynomial gcd and division by Euclid over Q --------------------------

def frac_pdivmod(p, q):
    """Euclidean division over Q: Fraction lists (quot, rem) with
    p = quot*q + rem and deg rem < deg q."""
    r = [Fraction(c) for c in pnorm(p)]
    q = [Fraction(c) for c in pnorm(q)]
    quot = [Fraction(0)] * max(len(r) - len(q) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = r[k + len(q) - 1] / q[-1]
        quot[k] = c
        for i, qc in enumerate(q):
            r[k + i] -= c * qc
    return pnorm(quot), pnorm(r[:len(q) - 1])


def _frac_primitive(p):
    """The primitive integer polynomial with positive leading coefficient
    proportional to a nonzero Fraction list."""
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    sign = 1 if ints[-1] > 0 else -1
    return [sign * c // g for c in ints]


def frac_pgcd(p, q):
    """gcd of integer polynomials by Euclid over Q, as a primitive integer
    polynomial with positive leading coefficient."""
    a, b = pnorm(p), pnorm(q)
    while b:
        a, b = b, frac_pdivmod(a, b)[1]
    return _frac_primitive(a) if a else []


def frac_squarefree_part(p):
    """p / gcd(p, p') over Q, made primitive with positive leading term."""
    deriv = pnorm([i * c for i, c in enumerate(p)][1:])
    quot, rem = frac_pdivmod(p, frac_pgcd(p, deriv) or [1])
    assert not rem
    return _frac_primitive(quot)


# --- cyclotomic polynomials by division ------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_by_division(d):
    """Phi_d as t^d - 1 divided by Phi_e for every proper divisor e of d,
    each by integer division, where the library multiplies and divides by
    binomials t^e - 1 only."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p, rem = pdivmod(p, cyclotomic_by_division(e))
            assert not rem, "Phi_e divides t^d - 1"
    return tuple(p)


def pdivides(q, p):
    """Whether q divides p over Q (both integer polynomials), by the
    remainder of one pseudo-division."""
    if not pnorm(q):
        return not pnorm(p)
    return not pdivmod(p, q)[1]


def vanishes_at_root_of_unity_by_division(coeffs, d):
    """Whether Phi_d divides the integer polynomial coeffs, by one division
    by Phi_d, where the library folds coeffs mod t^d - 1."""
    return pdivides(cyclotomic_by_division(d), coeffs)


# --- Arf invariant from an integer symplectic basis -------------------------

def xgcd(a, b):
    """(x, y, g) with a*x + b*y = g = gcd(a, b) >= 0."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def lattice_row_basis(vectors):
    """Echelon basis of the integer row span of the given vectors (row
    operations only, so the lattice they generate is preserved)."""
    basis = {}  # leading index -> row
    for vec in vectors:
        v = list(vec)
        while True:
            j = next((i for i, x in enumerate(v) if x), None)
            if j is None:
                break
            if j not in basis:
                if v[j] < 0:
                    v = [-x for x in v]
                basis[j] = v
                break
            b = basis[j]
            if v[j] % b[j] == 0:
                q = v[j] // b[j]
                v = [x - q * y for x, y in zip(v, b)]
            else:
                x, y, g = xgcd(b[j], v[j])
                new = [x * p + y * q for p, q in zip(b, v)]
                v = [(b[j] // g) * q - (v[j] // g) * p for p, q in zip(b, v)]
                basis[j] = new
    return [basis[j] for j in sorted(basis)]


def _gcd_combination(vals):
    """gcd of vals and integer coefficients realizing it."""
    g = 0
    coeff = [0] * len(vals)
    for i, v in enumerate(vals):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            coeff = [0] * len(vals)
            coeff[i] = 1 if v > 0 else -1
            continue
        x, y, g2 = xgcd(g, v)
        coeff = [x * c for c in coeff]
        coeff[i] += y
        g = g2
    return g, coeff


def symplectic_basis(skew):
    """Symplectic basis of Z^n for a unimodular antisymmetric integer matrix.

    Returns (es, fs) with es[i]^t * skew * fs[j] = delta_ij and all other
    pairings zero, via integer symplectic reduction.
    """
    n = len(skew)

    def pair(u, v):
        return sum(u[i] * skew[i][j] * v[j] for i in range(n) for j in range(n))

    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    es, fs = [], []
    while basis:
        v = basis.pop(0)
        # find w in the span of the remaining basis with <v, w> = 1;
        # unimodularity makes the pairing values of v with the remaining
        # vectors have gcd 1
        vals = [pair(v, w) for w in basis]
        g, coeff = _gcd_combination(vals)
        assert g == 1, "pairing must be unimodular on the remaining span"
        w = [sum(c * bv[i] for c, bv in zip(coeff, basis)) for i in range(n)]
        assert pair(v, w) == 1
        es.append(v)
        fs.append(w)
        reduced = []
        for u in basis:
            a, b = pair(u, v), pair(u, w)
            nu = [u[i] + a * w[i] - b * v[i] for i in range(n)]
            if any(nu):
                reduced.append(nu)
        # the projections span the symplectic complement lattice but need
        # not be independent (w lay in the old span): re-extract a basis
        basis = lattice_row_basis(reduced)
    return es, fs


def arf_by_symplectic_basis(a):
    """Arf invariant in Z/2: sum of q(e_i) q(f_i) over a symplectic basis,
    with the quadratic refinement q(x) = x^t A x mod 2."""
    if a.n == 0:
        return 0
    es, fs = symplectic_basis(a.antisymmetrization())
    ent = a.entries

    def q(x):
        return sum(x[i] * ent[i][j] * x[j] for i in range(a.n) for j in range(a.n)) % 2

    return sum(q(e) * q(f) for e, f in zip(es, fs)) % 2


# --- Fraction bisection and interval Horner --------------------------------

def _sgn(x):
    return (x > 0) - (x < 0)


def poly_eval_interval(p, lo, hi):
    """Interval Horner evaluation of an integer polynomial on the rational
    interval [lo, hi], in Fractions."""
    alo = ahi = Fraction(0)
    for c in reversed(p):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def bisect_by_fractions(poly, lo, hi, width):
    """(lo, hi) after halving the isolating interval (lo, hi) of a root of
    the squarefree poly at (lo + hi)/2 until hi - lo <= width, with Fraction
    midpoints and Horner values; a midpoint at the root ends it as (m, m)."""
    lo, hi = Fraction(lo), Fraction(hi)
    sign_lo = _sgn(peval(poly, lo))
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = _sgn(peval(poly, mid))
        if s == 0:
            return mid, mid
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def turn_cell_by_bisection(poly, lo, hi, depth):
    """The num with arccos(x)/(2*pi) in (num, num + 1)/2^depth, for the root
    x of poly isolated by (lo, hi) whose turn is irrational: one halving per
    bit, each midpoint's cosine enclosure (cos_turn_bounds) separated from
    an x enclosure by bisect_by_fractions."""
    num = 0
    for k in range(1, depth + 1):
        mid = 2 * num + 1
        bits = k + 16
        while True:
            clo, chi = cos_turn_bounds(Fraction(mid, 1 << k), bits)
            lo, hi = bisect_by_fractions(poly, lo, hi, Fraction(1, 1 << bits))
            if clo > hi or chi < lo:
                break
            bits *= 2
        # cos decreasing on [0, 1/2]: cos(mid) > x means mid < turn
        num = mid if clo > hi else mid - 1
    return num


# --- signatures at rational turns through cosine enclosures ----------------

def pi_bounds(bits):
    """Rational lo < pi < hi with hi - lo <= 2**(1-bits) (Machin formula)."""
    lo, hi = _pi_scaled(bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


#: Rational values of cos(2*pi*j/d); the only rational turns with rational
#: cosine (Niven).
_COS_RATIONAL = {1: Fraction(1), 2: Fraction(-1), 3: Fraction(-1, 2),
                 4: Fraction(0), 6: Fraction(1, 2)}


def cos_turn_rational(turn):
    """cos(2*pi*turn) as an exact Fraction when it is rational, else None."""
    turn = Fraction(turn)
    d = turn.denominator
    return _COS_RATIONAL.get(d)


def sign_at_cos_turn(q, turn):
    """Exact sign of q(cos(2*pi*turn)) for an integer polynomial q and a
    rational turn.

    Zero is certified symbolically: cos(2*pi*j/d) is a root of the
    irreducible psi_d = cos_minimal_poly(d) of degree phi(d)/2 (d not in
    the rational-cosine table), so q vanishes there iff psi_d divides q.
    Nonzero signs come from certified cosine enclosures refined until
    decisive.
    """
    q = pnorm(list(q))
    if not q:
        return 0
    turn = Fraction(turn)
    r = cos_turn_rational(turn)
    if r is not None:
        return _sgn(peval(q, r))
    d = turn.denominator
    # psi_d is only built when its degree is small enough to divide q;
    # phi itself is cheap even for huge d
    if euler_phi(d) // 2 <= pdeg(q) and pdivides(list(cos_minimal_poly(d)), q):
        return 0
    bits = 16
    for _ in range(MAX_REFINE):
        lo, hi = cos_turn_bounds(turn, bits)
        vlo, vhi = poly_eval_interval(q, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        bits *= 2
    raise PrecisionExhausted("sign of polynomial at root-of-unity cosine")


# --- signature by Descartes' rule on the characteristic polynomial ---------

@lru_cache(maxsize=None)
def _char_poly_in_x(a):
    """Coefficients c_0..c_n of det(lambda*I - M(x)) as integer polynomials
    in x, where M(x) = (1-x)(A+A^t) - iy(A-A^t) = H(z) for z = x + iy: an
    independent route to the values the library takes from the arc form
    at multiple roots of G (over Q(alpha) when they are irrational).

    H(z) = (1-z)A + (1-1/z)A^t, so B_z = z*H(z) = (z-z^2)A + (z-1)A^t is an
    integer matrix at every integer z, and c_(n-k)(B_z) = z^k c_(n-k)(H(z)).
    Q_k(z) = c_(n-k)(B_z) is therefore an integer polynomial of degree
    <= 2k: it is recovered from the integer characteristic polynomials of
    B_z at the 2n+1 nodes z = -n..n by exact Newton interpolation. H(1/z)
    is the transpose of H(z), so Q_k is palindromic about degree k and
    Q_k(z) = z^k W_k(z + 1/z); the coefficient is c_(n-k)(x) = W_k(2x).
    Exact Faddeev-LeVerrier and divided-difference divisions, the degree
    bound and palindromy are asserted: together they certify the result.
    """
    n = a.n
    if n == 0:
        return ((1,),)
    ent = a.entries
    nodes = list(range(-n, n + 1))
    polys = [char_poly([[(z - z * z) * ent[i][j] + (z - 1) * ent[j][i]
                         for j in range(n)] for i in range(n)])
             for z in nodes]
    out = [None] * (n + 1)
    for k in range(n + 1):
        q = pinterpolate(nodes, [cp[n - k] for cp in polys])
        f = q + [0] * (2 * k + 1 - len(q))
        assert len(f) == 2 * k + 1 and f == f[::-1], \
            "c_(n-k)(B_z) must be palindromic about degree k"
        # zero top coefficients come with as many zero bottom ones
        out[n - k] = tuple(psubst_scale(palindromic_compact(q[len(f) - len(q):]), 2))
    return tuple(out)


def _signature_at_x(a, sign_of):
    """Signature at the circle points with cos(theta) = x, given sign_of(c),
    the exact sign of c(x) for an integer polynomial c. The hemisphere is
    irrelevant: the characteristic polynomial depends on x only. Descartes'
    rule on its coefficient signs, zeros dropped, is exact since it is
    real-rooted; the identity pos + neg + zeros = degree certifies it."""
    signs = [sign_of(list(c)) for c in _char_poly_in_x(a)]
    m = 0
    while signs[m] == 0:  # the leading coefficient is 1
        m += 1
    tail = signs[m:]
    pos = _variations(tail)
    neg = _variations([s if i % 2 == 0 else -s for i, s in enumerate(tail)])
    assert pos + neg + m == a.n, "sign pattern inconsistent with real-rootedness"
    return pos - neg


def tl_signature_by_cos_enclosure(a, z):
    """Signature at z = e^(2*pi*i*j/k) from the signs of the characteristic
    coefficients at cos(2*pi*j/k) itself, with no step function: the route
    the library took before it sampled arcs at rational cos(theta)."""
    if z.numerator == 0:
        return 0
    return _signature_at_x(a, lambda c: sign_at_cos_turn(c, z.turn))
