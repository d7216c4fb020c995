import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from knotsig import FiniteLambdaModule, SeifertMatrix, validate_seifert
from knotsig.intmat import kron

FIXTURE_DIR = Path(__file__).parent.parent / "fixtures"

TREFOIL = validate_seifert([[-1, 1], [0, -1]], name="trefoil")
FIGURE_EIGHT = validate_seifert([[1, 1], [0, -1]], name="figure-eight")
SLICE4 = validate_seifert([[0, 0, 1, 1], [0, 0, 0, 1], [1, 1, 0, 1], [0, 1, 0, 0]],
                          name="slice-example")
UNKNOT = validate_seifert([], name="unknot")


@pytest.fixture
def trefoil():
    return TREFOIL


@pytest.fixture
def figure_eight():
    return FIGURE_EIGHT


@pytest.fixture
def slice4():
    return SLICE4


@pytest.fixture
def unknot():
    return UNKNOT


def random_seifert(rng: random.Random, genus: int, bound: int = 2,
                   conjugate: bool = True) -> SeifertMatrix:
    """Random valid Seifert matrix: a symmetric part plus the standard
    block raising A - A^t to the symplectic form, optionally conjugated by
    a random unimodular matrix."""
    n = 2 * genus
    a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i]
    for g in range(genus):
        a[2 * g][2 * g + 1] += 1
    if conjugate:
        p = random_unimodular(rng, n)
        pt = [[p[j][i] for j in range(n)] for i in range(n)]
        a = _mat_mul(_mat_mul(pt, a), p)
    return validate_seifert(a)


def random_interesting_seifert(rng: random.Random, genus: int,
                               conjugate: bool = True) -> SeifertMatrix:
    """Random Seifert matrix biased toward having unit-circle Alexander
    roots: block sum of genus-1 pieces, half of them with positive
    determinant (which forces a breakpoint pair), then conjugated."""
    blocks = []
    for _ in range(genus):
        if rng.random() < 0.5:
            a, c = rng.choice([1, 1, 2, -1]), rng.choice([1, 2])
            b = rng.randint(-1, 1)
            while a * c - b * (b + 1) < 1:
                a, c, b = rng.choice([1, 2]), rng.choice([1, 2]), 0
            blocks.append([[a, b + 1], [b, c]])
        else:
            blocks.append([[rng.randint(-2, 2), rng.randint(-2, 2) + 1],
                           [rng.randint(-2, 2), rng.randint(-2, 2)]])
            blocks[-1][1][0] = blocks[-1][0][1] - 1
    n = 2 * genus
    a = [[0] * n for _ in range(n)]
    for g, blk in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                a[2 * g + i][2 * g + j] = blk[i][j]
    if conjugate:
        p = random_unimodular(rng, n)
        pt = [[p[j][i] for j in range(n)] for i in range(n)]
        a = _mat_mul(_mat_mul(pt, a), p)
    return validate_seifert(a)


def torus_seifert(p: int, q: int) -> SeifertMatrix:
    """Seifert matrix -(S_p (x) S_q) of the torus knot T(p, q), where S_n is
    the (n-1) x (n-1) matrix with 1 on the diagonal and -1 just above it:
    the join (Sebastiani-Thom) form of x^p + y^q."""
    def s(n):
        return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n - 1)]
                for i in range(n - 1)]
    return validate_seifert([[-x for x in row] for row in kron(s(p), s(q))],
                            name=f"T({p},{q})")


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    """-A^t, the Seifert matrix of -K (the mirror image with reversed
    orientation), the concordance inverse: knotsig.block_sum(a, mirror(a))
    is the slice knot K # -K."""
    return validate_seifert([[-a.entries[j][i] for j in range(a.n)]
                             for i in range(a.n)])


def conjugate(rng: random.Random, a: SeifertMatrix) -> SeifertMatrix:
    """P^t A P for P = random_unimodular(rng, a.n): the same knot."""
    p = random_unimodular(rng, a.n)
    pt = [[p[j][i] for j in range(a.n)] for i in range(a.n)]
    return validate_seifert(_mat_mul(_mat_mul(pt, a.as_lists()), p))


def random_module(rng: random.Random, torsion) -> FiniteLambdaModule:
    """A random well-defined invertible t on the torsion chain: entry (i, j)
    with i > j is a multiple of d_i / d_j."""
    while True:
        t = [[rng.randrange(d) * (d // torsion[j] if i > j else 1) for j in range(len(torsion))]
             for i, d in enumerate(torsion)]
        try:
            return FiniteLambdaModule.make(torsion, t)
        except ValueError:
            continue


def random_unimodular(rng: random.Random, n: int, steps: int = None):
    """Product of random elementary transvections and swaps."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    for _ in range(steps if steps is not None else 2 * n):
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            c = rng.choice([-1, 1])
            for col in range(n):
                m[i][col] += c * m[j][col]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
