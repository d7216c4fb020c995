"""Exact integer matrix utilities and the integer number-theory helpers.

Matrices are lists of lists (row major). The Smith normal form logs the
row and column operations of its elimination and replays the log into the
row transform, its inverse or the column transform on first read, mod the
exponent of a square matrix's nontrivial finite cokernel, so module
structure (like a group action) can be transported to the normal-form
basis, and a caller that reads only the diagonal builds no transform. This
module is the one home of the integer primitives the library shares:
determinant, signature of a symmetric matrix, modular matrix power, prime
factorization and Euler's phi. The callers split a block sum by
diagonal_blocks where it pays: polyz.char_poly per matrix, the signature
step function once per Seifert matrix. The determinant is
Bareiss elimination with a divisor per row: a row whose entry in the pivot
column is zero is left alone, and when a pivot column reaches it, it is
divided by the pivot of the step that last changed it, which is exact
because the quotient is a minor. It also holds the one enumeration cap
(KNOTSIG_CAP), which bounds the library's searches and the rho steps of
the factorization.
"""

import os
from functools import cached_property
from itertools import count
from math import gcd


class CapExceeded(RuntimeError):
    """Enumeration would exceed the configured cap; noun names what is
    counted (a group order unless said otherwise)."""

    def __init__(self, order, cap, noun="group order"):
        super().__init__(f"{noun} {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


def default_cap():
    return int(os.environ.get("KNOTSIG_CAP", "1000000"))


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
    """Exact determinant of a square integer matrix: fraction-free Bareiss
    with a divisor per row.

    Bareiss step k maps row i > k to (r_i*p_k - c*r_k)/p_(k-1), where c is
    r_i[k] and p_k the pivot; every entry it makes is a minor of the
    matrix, so the division is exact. A row with c = 0 is only multiplied
    by p_k/p_(k-1), and these factors telescope, so such a row is left
    alone: it keeps the values s of the step t that last changed it and the
    divisor div_i = p_t (1 at the start), and its Bareiss values are
    s*p_(k-1)/p_t. When a pivot column next reaches it, its update is
    (s*p_k - c_s*r_k)/p_t, the same minor, so this division is exact too.
    The pivot row and the last entry take the factor p_(k-1)/p_t when
    their divisor is not the last pivot, which gives minors as well. A
    stored entry is zero exactly when its Bareiss value is, so the pivot
    search and the skip read stored values, and a row swap swaps divisors.
    """
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    div = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        rk = m[k]
        if rk[k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], rk
                    rk = m[k]
                    div[k], div[i] = div[i], div[k]
                    sign = -sign
                    break
            else:
                return 0
        d = div[k]
        if d != prev:
            for j in range(k, n):
                rk[j] = rk[j] * prev // d
        p = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            c = ri[k]
            if c:
                d = div[i]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * p - c * rk[j]) // d
                div[i] = p
        prev = p
    return sign * m[n - 1][n - 1] * prev // div[n - 1]


def diagonal_blocks(mat):
    """The principal submatrices of a square matrix on the connected
    components of its support graph, each a new list of rows with its
    indices in increasing order, the components in order of their least
    index. Indices i and j are joined when entry (i, j) or (j, i) is
    nonzero. A simultaneous permutation of rows and columns takes the
    matrix to the block sum of these blocks.

    A breadth-first search keeps the indices no component has reached and
    tests only those, so it stops as soon as every index is reached: a
    matrix whose first row reaches every index costs one pass over it, and
    a component that reaches every index is the one block, copied row by
    row."""
    n, out = len(mat), []
    rest = list(range(n))
    while rest:
        comp, rest = rest[:1], rest[1:]
        for i in comp:
            if not rest:
                break
            row, left = mat[i], []
            for j in rest:
                (comp if row[j] or mat[j][i] else left).append(j)
            rest = left
        if len(comp) == n:
            return [[list(row) for row in mat]]
        comp.sort()
        out.append([[mat[i][j] for j in comp] for i in comp])
    return out


def congruence_signature(b, divisor=1, pivots=None):
    """Signature of b/divisor by fraction-free symmetric elimination of b
    in place, Bareiss with diagonal pivots seeded with divisor, a d with
    every j x j minor of b equal to d^(j-1) times a ring element; returned
    with the last pivot. The open block left in b, the Schur complement
    times the last pivot, holds minors of a symmetric permutation of b over
    powers of d, so each division is exact (asserted); the sign of each
    Schur pivot, a quotient of consecutive pivots, is counted. With pivots,
    it stops after that many, each among the leading rows still open. A
    zero diagonal there with a nonzero b_ij gets u_i += u_j, a congruence
    that keeps every division exact. A zero open block adds nothing."""
    sig, prev = 0, divisor
    lead = len(b) if pivots is None else pivots
    while lead:
        piv = next((i for i in range(lead) if b[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(lead) for j in range(lead)
                         if b[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            b[piv] = [x + y for x, y in zip(b[piv], b[j])]
            for row in b:
                row[piv] += row[j]
        p = b[piv][piv]
        sig += 1 if (p > 0) == (prev > 0) else -1
        prow = b.pop(piv)
        del prow[piv]
        col = [row.pop(piv) for row in b]
        # the block stays symmetric: update the upper triangle, mirror it
        for i, (row, c) in enumerate(zip(b, col)):
            for j in range(i, len(b)):
                q, r = divmod(p * row[j] - c * prow[j], prev)
                assert r == 0, "Bareiss division must be exact"
                row[j] = b[j][i] = q
        prev = p
        lead -= 1
    return sig, prev


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


class SmithForm:
    """Smith normal form D = U * M * V with unimodular U, V.

    Attributes: d (diagonal entries, nonnegative, each dividing the next),
    u, u_inv, v. Diagonal length is min(rows, cols); entries beyond the
    rank are zero. The elimination logs its row and column operations, and
    each transform is built by replaying the log on its first read, so a
    caller pays only for the transforms it reads. A square M with last
    invariant factor d_r > 1 has a cokernel of exponent d_r, where the
    coordinates (U x)_i mod d_i and the generators U^-1 e_i live, so its
    transforms are kept mod d_r: U * M * V = D and U * U_inv = I hold mod
    d_r. Those of any other M are exact.
    """

    def __init__(self, d, rows, cols, row_ops, col_ops):
        self.d = d
        self._rows, self._cols = rows, cols
        self._row_ops, self._col_ops = row_ops, col_ops
        self._exponent = d[-1] if rows == cols and d and d[-1] > 1 else 0

    @cached_property
    def u(self):
        return _replay(self._rows, self._row_ops, self._exponent)

    @cached_property
    def u_inv(self):
        return transpose(_replay(self._rows, self._row_ops, self._exponent, dual=True))

    @cached_property
    def v(self):
        # column operations on V are row operations on V^t
        return transpose(_replay(self._cols, self._col_ops, self._exponent))


def _replay(size, ops, exponent, dual=False):
    """The identity of the given size after the logged row operations:
    ("swap", i, j), ("neg", i) and ("axpy", i, j, q) for row_i -= q*row_j.
    With dual, each operation's inverse transpose is applied instead, which
    builds (U^-1)^t. Only the row an axpy changes is reduced mod a nonzero
    exponent; a negation is not reduced."""
    out = identity(size)
    for op in ops:
        kind, i = op[0], op[1]
        if kind == "swap":
            j = op[2]
            out[i], out[j] = out[j], out[i]
        elif kind == "neg":
            out[i] = [-a for a in out[i]]
        else:
            j, q = op[2], op[3]
            if dual:
                i, j, q = j, i, -q
            row = [a - q * b for a, b in zip(out[i], out[j])]
            out[i] = [a % exponent for a in row] if exponent else row
    return out


def smith_form(mat):
    """The Smith form of mat, its transforms reduced as SmithForm says.
    The elimination runs on the matrix alone, on the block b = M[s:, s:]
    that is still open, and logs each operation with its global indices
    for SmithForm to replay."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    b = [row[:] for row in mat]
    row_ops, col_ops, diag = [], [], []
    s = 0
    while True:
        # the globally smallest nonzero |entry| of the block, first in
        # row-major order; nearest-quotient remainders at least halve it
        # each round, which also keeps the transform entries small
        best, pi = None, 0
        for i, row in enumerate(b):
            x = min(map(abs, filter(None, row)), default=None)
            if x is not None and (best is None or x < best):
                best, pi = x, i
                if x == 1:
                    break
        if best is None:
            break
        pj = next(j for j, x in enumerate(b[pi]) if x == best or x == -best)
        if pi:
            b[0], b[pi] = b[pi], b[0]
            row_ops.append(("swap", s, s + pi))
        if pj:
            for row in b:
                row[0], row[pj] = row[pj], row[0]
            col_ops.append(("swap", s, s + pj))
        p = b[0]
        if p[0] < 0:
            b[0] = p = [-x for x in p]
            row_ops.append(("neg", s))
        d = p[0]
        h = d >> 1
        for i in range(1, len(b)):
            c = b[i][0]
            if c:
                q = (c + h) // d
                b[i] = [x - q * y for x, y in zip(b[i], p)]
                row_ops.append(("axpy", s + i, s, q))
        # a column operation changes no other column's entry in the pivot
        # row, so the round's column quotients all come from p
        qs = [(x + h) // d if x else 0 for x in p]
        qs[0] = 0
        for j, q in enumerate(qs):
            if p[j] and j:
                col_ops.append(("axpy", s + j, s, q))
        for i, row in enumerate(b):
            c = row[0]
            if c:
                b[i] = [x - q * c for x, q in zip(row, qs)]
        if any(row[0] for row in b[1:]) or any(b[0][1:]):
            continue
        # enforce divisibility of the rest of the block by the pivot
        off = None
        if d != 1:
            off = next((i for i in range(1, len(b)) if any(x % d for x in b[i])), None)
        if off is not None:
            b[0] = [x + y for x, y in zip(b[0], b[off])]
            row_ops.append(("axpy", s, s + off, -1))   # row_s += row_off
            continue
        diag.append(d)
        b = [row[1:] for row in b[1:]]
        s += 1
    diag += [0] * (min(rows, cols) - len(diag))
    return SmithForm(diag, rows, cols, row_ops, col_ops)


# Miller-Rabin to the first 13 prime bases is proven below _MR_PROVEN
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


def prime_factorization(n):
    """{p: e} with n = prod p^e, for a positive integer n, primes increasing.
    Trial division removes the primes below 1000. A part left is prime if it
    is below 10^6 or passes Miller-Rabin below _MR_PROVEN; otherwise an
    integer k-th root splits it if it is a perfect power, and Brent's rho
    if not. So all is certified, and a prime part at or above _MR_PROVEN
    ends in CapExceeded once rho passes KNOTSIG_CAP steps."""
    if n < 1:
        raise ValueError("only positive integers are factored")
    out, d = {}, 2
    while d * d <= n and d < 1000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if d * d > n:  # n is 1 or a prime, and out is in order
        if n > 1:
            out[n] = 1
        return out
    parts, cap = [(n, 1)], default_cap()  # (m, e): m^e divides n
    while parts:
        m, e = parts.pop()
        if d * d > m or (m < _MR_PROVEN and _passes_miller_rabin(m)):
            out[m] = out.get(m, 0) + e
            continue
        k = 2
        while (root := _integer_root(m, k)) >= d and root ** k != m:
            k += 1
        if root >= d:
            parts.append((root, e * k))
        else:
            parts += [((f := _brent_factor(m, cap)), e), (m // f, e)]
    return dict(sorted(out.items()))


def _integer_root(m, k):
    # the floor of m^(1/k), by integer Newton steps down from a power of 2
    x = 1 << -(-m.bit_length() // k)
    while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
        x = y
    return x


def _passes_miller_rabin(n):
    # odd n > 41: False proves n composite, True n prime below _MR_PROVEN
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = q 2^s with q odd
    q = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, q, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n, cap):
    # a proper factor of an odd composite n: Brent's rho, a gcd per 128
    # steps. A step is one pair (x, y) compared, and a batch that takes the
    # count past cap raises CapExceeded, so a prime n ends there.
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(batch := min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                if (steps := steps + batch) > cap:
                    raise CapExceeded(steps, cap, "rho steps")
                if (g := gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def euler_phi(n):
    """Euler's totient of a positive integer."""
    out = n
    for p in prime_factorization(n):
        out -= out // p
    return out


def spans_direct_summand(vectors):
    """Whether the given integer vectors span a direct summand of Z^n of
    rank len(vectors) (equivalently they extend to a basis)."""
    facs = [x for x in smith_form([list(v) for v in vectors]).d if x != 0]
    return len(facs) == len(vectors) and all(f == 1 for f in facs)
