"""Independent oracles for the test suite.

Every routine here recomputes a quantity by a different method than the
library uses: cofactor expansion instead of interpolation, congruence
diagonalization instead of Descartes counting, brute-force iteration
instead of order-finding, commutant dimensions instead of orbit criteria.
"""

from fractions import Fraction
from math import gcd

from knotsig.polyz import pnorm


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


def _frac_det(m):
    n = len(m)
    m = [row[:] for row in m]
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


def action_order_brute(module, cap=10 ** 7):
    """Order of t on a FiniteLambdaModule, by applying t to the standard
    basis one step at a time."""
    basis = [tuple(int(i == j) for j in range(module.rank)) for i in range(module.rank)]
    cur = list(basis)
    for k in range(1, cap + 1):
        cur = [module.t_apply(v) for v in cur]
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
    n = pres.size
    if n == 0:
        return CyclicCoverHomology(FiniteLambdaModule.trivial(), 0)
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
    module = (FiniteLambdaModule.make(torsion, t_tor) if torsion
              else FiniteLambdaModule.trivial())
    return CyclicCoverHomology(module, len(free_idx))


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
