"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed moves in steps of up to
1.7x that last from seconds to minutes, and that move the library and any
other Python code alike. A fixed slice of pure-Python work, which uses no
knotsig code, is therefore timed next to everything the benchmark measures,
and a duration t measured while the slice took c seconds is reported as
t * NOMINAL_SLICE_S / c: the time the same work takes on the machine when
the slice takes NOMINAL_SLICE_S. A change to knotsig cannot change the
slice, so it moves a reported time by the same share as the wall time.

The slice mixes the two kinds of work knotsig does, Fraction arithmetic on
multi-word integers and interpreted loops over small ints, tuples and
dicts; of the candidates tried, this mix tracked the batches of sig-ladder
and cover-reps best taken together (BASELINE.md).
"""

import random
from fractions import Fraction
from time import perf_counter

# About the median slice time on the baseline machine, where the slice took
# 3.4 to 6.5 ms as the machine's speed moved (BASELINE.md), so that reported
# times read close to wall seconds there.
NOMINAL_SLICE_S = 0.005
SLICE_REPS = 15

_rng = random.Random(1)
_FRACTIONS = tuple(Fraction(_rng.randint(-10 ** 6, 10 ** 6), _rng.randint(1, 10 ** 6))
                   for _ in range(40))
_KEYS = tuple(range(40))


def _work():
    s = Fraction(0)
    for f in _FRACTIONS:
        s += f
    for f in _FRACTIONS[:12]:
        s = s * f - 1
    n = 0
    for i in range(1500):
        n += i * i % 7
    d = {}
    for i in range(200):
        d[(i, _KEYS[i % 40])] = i
    return s, n, d


def slice_s():
    """Seconds the reference slice takes now."""
    t0 = perf_counter()
    for _ in range(SLICE_REPS):
        _work()
    return perf_counter() - t0


def warm_up():
    """Run the slice until the interpreter has specialised its code, so the
    first timed slice is not slower than the rest."""
    for _ in range(3):
        slice_s()


def scale(before, after):
    """Factor that turns a duration measured between a slice of `before`
    seconds and one of `after` seconds into reference seconds."""
    return 2 * NOMINAL_SLICE_S / (before + after)
