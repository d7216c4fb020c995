"""Exact integer matrix utilities and the integer number-theory helpers.

Matrices are lists of lists (row major). Smith normal form tracks the row
transform and its inverse so module structure (like a group action) can be
transported to the normal-form basis. This module is the one home of the
integer primitives the library shares: determinant, characteristic
polynomial, modular matrix power, extended gcd, prime factorization and
Euler's phi.
"""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def kron(a, b):
    """Kronecker product of integer matrices."""
    if not a:
        return []
    if not b:
        return [[] for _ in range(0)]
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            c = a[i][j]
            if c:
                for k in range(rb):
                    for l in range(cb):
                        out[i * rb + k][j * cb + l] = c * b[k][l]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def det(mat):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_pow_mod(m, e, mod):
    """m^e (e >= 0) with entries reduced mod `mod`, by square-and-multiply."""

    def mul(a, b):
        return [[x % mod for x in row] for row in mat_mul(a, b)]

    result = [[x % mod for x in row] for row in identity(len(m))]
    base = [[x % mod for x in row] for row in m]
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def char_poly(mat):
    """Coefficients c_0..c_n of det(lambda*I - M) for a square integer
    matrix M, lowest degree first, by Faddeev-LeVerrier over Z.

    N_1 = I, c_(n-k) = -tr(M N_k)/k, N_(k+1) = M N_k + c_(n-k) I. The
    coefficients are integers, so every division by k is exact."""
    n = len(mat)
    coeffs = [0] * n + [1]
    nk = identity(n)
    for k in range(1, n + 1):
        mn = mat_mul(mat, nk)
        c, r = divmod(-sum(mn[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division must be exact over Z"
        coeffs[n - k] = c
        for i in range(n):
            mn[i][i] += c
        nk = mn
    return coeffs


class SmithForm:
    """Smith normal form D = U * M * V with unimodular U, V.

    Attributes: d (diagonal entries, nonnegative, each dividing the next),
    u, u_inv, v. Diagonal length is min(rows, cols); entries beyond the
    rank are zero. With a modulus N the transforms are kept mod N, so
    U * M * V = D and U * U_inv = I hold mod N (N = 0 means exactly).
    """

    def __init__(self, d, u, u_inv, v):
        self.d = d
        self.u = u
        self.u_inv = u_inv
        self.v = v


def smith_form(mat, rows=None, cols=None, modulus=0):
    """The Smith form of mat. d is always exact; a nonzero `modulus` keeps
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
    return SmithForm(d, u, ui, v)


def invariant_factors(mat):
    return [x for x in smith_form(mat).d if x != 0]


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


def prime_factorization(n):
    """{p: e} with n = prod p^e, for a positive integer n, by trial division."""
    if n < 1:
        raise ValueError("only positive integers are factored")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n):
    """Euler's totient of a positive integer."""
    out = n
    for p in prime_factorization(n):
        out -= out // p
    return out


def spans_direct_summand(vectors, ambient_dim):
    """Whether the given integer vectors span a direct summand of Z^ambient
    of rank len(vectors) (equivalently they extend to a basis)."""
    if not vectors:
        return True
    mat = [list(v) for v in vectors]
    facs = invariant_factors(mat)
    return len(facs) == len(vectors) and all(f == 1 for f in facs)
