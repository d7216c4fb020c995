"""The benchmark workloads: seeded inputs, timed ops and their checks.

Every input is drawn from the generators in tests/conftest.py with a
random.Random seeded by the caller, so one seed always gives the same ops
in the same order, and no op input repeats within a batch. An op is
run(tr) -> result; its library calls sit in tr.span(layer) blocks, named
after the module and the public function called. check(result) runs after
the timed batch and raises AssertionError on a wrong answer.

Why each workload exists is recorded beside it in BENCHMARK.json.
"""

import cmath
import io
import json
import math
from collections import namedtuple
from contextlib import redirect_stdout
from fractions import Fraction

import oracles
from conftest import (FIGURE_EIGHT, FIXTURE_DIR, SLICE4, TREFOIL,
                      random_interesting_seifert, random_unimodular)
from knotsig import (IntLaurentPoly, UnitRootAngle, alexander_module,
                     alexander_polynomial, arf_invariant, build_resolution,
                     character_table_checks, cyclic_quotient,
                     double_cover_linking_form, enumerate_irreps, eta_cyclic,
                     factorial_schedule, find_linking_metabolizers,
                     find_seifert_metabolizer, l2_eta_abelian,
                     semidirect_elements, semidirect_mul, signature_function,
                     tl_signature_at, torsion_order_by_resultant,
                     validate_seifert)
from knotsig.cli import main as cli_main
from knotsig.intmat import (det, identity, kron, mat_mul, mat_sub, smith_form,
                            transpose)
from knotsig.knotio import dump_json, frac_str
from knotsig.polyz import (cyclotomic, isolate_roots, palindromic_compact,
                           peval, pprimitive, psubst_scale,
                           resultant, squarefree_part, sturm_chain,
                           sturm_count)
from knotsig.realalg import RealAlgebraic, cos_turn_bounds

Op = namedtuple("Op", "label run check")

# Turns whose cosine is rational, where the congruence oracle applies.
RATIONAL_TURNS = ((UnitRootAngle(1, 6), Fraction(1, 2)),
                  (UnitRootAngle(1, 4), Fraction(0)),
                  (UnitRootAngle(1, 3), Fraction(-1, 2)),
                  (UnitRootAngle(1, 2), Fraction(-1)))
# Small k at which eta_cyclic is checked against a direct sum.
ETA_CHECK_KS = (2, 6, 24)

# sig-ladder: (genus, knots per rung). The cheap low rungs carry more knots,
# so the op latencies have a tail worth reporting; genus 3 carries the most,
# so the median op falls inside one rung rather than between two, near
# its middle. Genus 6 carries 3 of the 33, so the p90 tail falls inside that
# rung: above it lie only the first degree-6 knot, which builds the
# cyclotomic table, and about 2 of the 3 genus-6 knots. With 2, it fell
# between the genus-5 and genus-6 rungs and moved by a quarter from run to
# run.
LADDER = ((1, 6), (2, 6), (3, 14), (4, 2), (5, 2), (6, 3))
# The breakpoint search builds cyclotomic(d) for every d <= 4*deg^2 + 6, so
# the largest Alexander degree in a batch sets much of its cost. Capping it
# makes that cost the same on every seed; the cap of 6 (d <= 150) keeps a
# batch near 2 s, where degree 8 would cost 4 times and 12 about 40 times
# as much.
TOP_DEGREE = 6
LADDER_EPS = Fraction(1, 10 ** 9)
LADDER_SCHEDULE = factorial_schedule(8)

CIRCLE_KNOTS = 12  # a third of them genus 2
# D < 104 keeps every breakpoint more than 1/64 turn away from z = 1: closer
# than that, signature_function raises ValueError("empty interval") when it
# samples the arc through z = 1 (a library defect, see CHANGES.md).
CIRCLE_D_RANGE = range(2, 100)
CIRCLE_EPS = Fraction(1, 10 ** 40)
CIRCLE_SCHEDULE = factorial_schedule(10)
X_REFINE = Fraction(1, 2 ** 48)  # the x-refinement `knotsig sigfn` performs

# cover-reps: (genus, k) of the cyclic covers, each of a fresh ladder knot,
# so that one costly knot does not set the cost of several ops. The last 18
# put the median op inside a group of like ops (20 to 50 ms); without them
# it fell where the small ops of different kinds lie sparse (10 to 40 ms)
# and moved by a fifth from seed to seed. They also bring the batch to 50
# ops, enough for a p95 tail, which falls among the three ops of about
# 300 ms (two groups and the k = 30 cover); the p90 tail of 40 ops fell
# between those and the ops of about 200 ms.
COVERS = (((2, 6), (2, 12), (2, 18), (2, 24), (2, 30), (3, 5), (3, 10), (3, 15),
           (3, 20), (4, 4), (4, 8), (4, 12)) + ((2, 12),) * 9 + ((3, 10),) * 9)
# The groups Z/k x| H of the fixtures' k-fold covers with order at most 48
# (all satisfy k % action_order == 0). TestCriterion5 also checks groups of
# order 72 to 180, which cost 2 to 11 s each.
GROUP_SOURCES = ((TREFOIL, (2, 3, 4, 8, 9, 10)), (FIGURE_EIGHT, (2, 3)),
                 (SLICE4, (2, 3, 4)))
FIXTURES = ("trefoil", "figure_eight", "cinquefoil", "twist",
            "slice_example", "unknot")
PHI6 = IntLaurentPoly.make([1, -1, 1])

# kernels: cyclotomic(d) for every d <= 180, from cold, in 12 blocks (each
# block's first d), cut narrower as d grows so that 8 of them cost 100 to
# 200 ms: the median op falls among those, where costs lie close together,
# and not between op kinds of different cost.
CYCLOTOMIC_TOP = 180
CYCLOTOMIC_STARTS = (1, 46, 63, 79, 100, 119, 136, 145, 149, 159, 168, 176)
PENCILS = ((2, 20), (3, 20), (4, 15))  # (genus, k): dimension 2gk
POLY_GENERA = (2, 3, 4, 5, 6)
RESULTANT_K = 30
REFINE_WIDTH = Fraction(1, 2 ** 256)
COS_BITS = 512
# Each cosine op is a pair of fresh turns t and 1/2 - t: the series for
# cos(2 pi t) costs about linearly more terms as t grows to 1/2, so every
# pair does about the same work. The 6 pairs are the top of the op costs,
# and the p90 tail falls in the middle of them.
COS_OPS = 6


def build(name, rng, scratch):
    """The ops of one batch of workload `name`, inputs drawn from `rng`.
    `scratch` is a directory for the files the CLI parity check writes."""
    if name == "sig-ladder":
        return _sig_ladder(rng, scratch)
    if name == "circle-integral":
        return _circle_integral(rng)
    if name == "cover-reps":
        return _cover_reps(rng)
    if name == "kernels":
        return _kernels(rng)
    raise ValueError(f"unknown workload {name!r}")


# inputs ---------------------------------------------------------------------

def ladder_knots(rng, rungs, conjugate=True):
    """Distinct seeded knots, rung by rung, each with Alexander polynomial
    of degree min(2g, TOP_DEGREE). Drawn as random_interesting_seifert
    draws them: a block sum of genus-1 blocks, then, if `conjugate`, a
    conjugation by a random unimodular matrix. A block adds 2 to the degree
    exactly when its determinant is nonzero."""
    out, seen = [], set()
    for genus, count in rungs:
        want = min(2 * genus, TOP_DEGREE)
        found = 0
        while found < count:
            a = random_interesting_seifert(rng, genus, conjugate=False).as_lists()
            blocks = sum(2 for b in range(0, 2 * genus, 2)
                         if a[b][b] * a[b + 1][b + 1] != a[b][b + 1] * a[b + 1][b])
            if blocks != want:
                continue
            if conjugate:
                p = random_unimodular(rng, 2 * genus)
                a = mat_mul(mat_mul(transpose(p), a), p)
            a = validate_seifert(a)
            if a.entries in seen:
                continue
            seen.add(a.entries)
            out.append(a)
            found += 1
    return out


def x_polynomial(delta):
    """Squarefree integer polynomial whose roots in (-1, 1) are the
    cos(theta) of the unit-circle roots of the palindromic `delta`."""
    return squarefree_part(pprimitive(psubst_scale(palindromic_compact(delta), 2)))


def circle_knots(rng, count):
    """Seeded conjugates, by random_unimodular, of [[D, 1], [0, 1]] (genus 1)
    and of block sums of two such blocks (genus 2), with a distinct D for
    every block of the batch. D t^2 - (2D - 1) t + D is irreducible and its
    two roots lie on the unit circle at irrational turns, so distinct D give
    coprime Alexander polynomials: no two knots share a breakpoint, and the
    turn-keyed cosine cache cannot turn one knot's refinement into another
    knot's hit."""
    genera = [1] * (count - count // 3) + [2] * (count // 3)
    rng.shuffle(genera)
    ds = iter(rng.sample(CIRCLE_D_RANGE, sum(genera)))
    out = []
    for genus in genera:
        n = 2 * genus
        a = [[0] * n for _ in range(n)]
        for b in range(0, n, 2):
            a[b][b], a[b][b + 1], a[b + 1][b + 1] = next(ds), 1, 1
        p = random_unimodular(rng, n)
        out.append(mat_mul(mat_mul(transpose(p), a), p))
    return out


def cover_pencil(a, k):
    """The relation matrix S (x) A - I (x) A^t of the k-fold cover, the
    matrix cyclic_quotient reduces."""
    ent = a.as_lists()
    shift = [[1 if i == (j + 1) % k else 0 for j in range(k)] for i in range(k)]
    return mat_sub(kron(shift, ent), kron(identity(k), transpose(ent)))


def random_turn(rng, k_lo, k_hi):
    k = rng.randint(k_lo, k_hi)
    return UnitRootAngle.of(rng.randrange(1, k), k)


# shared stages and checks ------------------------------------------------------

def _validate(tr, raw):
    with tr.span("seifert.validate"):
        return validate_seifert(raw)


def _signature_stages(tr, a, probe):
    """charpoly (the first tl_signature_at on a fresh matrix builds the
    characteristic polynomial) and the step function."""
    with tr.span("signature.charpoly"):
        probe_value = tl_signature_at(a, probe)
    with tr.span("signature.sigfn"):
        sf = signature_function(a)
    tr.count("signature.breakpoints", len(sf.breakpoints))
    tr.count("signature.irrational_breakpoints",
             sum(1 for bp in sf.breakpoints if bp.exact_turn is None))
    return probe_value, sf


def _etas(tr, a, schedule):
    out = {}
    for k in schedule:
        with tr.span("signature.eta"):
            out[k] = eta_cyclic(a, k)
    return out


def _l2(tr, a, eps):
    with tr.span("signature.l2"):
        return l2_eta_abelian(a, eps)


def _descartes_signature(coeffs):
    """Signature of a real-rooted polynomial from its coefficient signs."""
    signs = [(c > 0) - (c < 0) for c in coeffs]
    zeros = next(i for i, s in enumerate(signs) if s)
    tail = [s for s in signs[zeros:] if s]
    alt = [s if i % 2 == 0 else -s for i, s in enumerate(signs[zeros:]) if s]

    def variations(seq):
        return sum(1 for x, y in zip(seq, seq[1:]) if x != y)

    pos, neg = variations(tail), variations(alt)
    assert pos + neg + zeros == len(coeffs) - 1, "not real-rooted"
    return pos - neg


def _check_signature(res):
    """Values at the rational-cosine turns against the congruence oracle,
    the characteristic polynomial at x = 1/2 against the interpolation
    oracle (through the signature its signs determine: the library exposes
    the polynomial only through tl_signature_at), the probe against the
    step function, eta_cyclic at small k against a direct sum, and the
    width of the l2 enclosure."""
    a, sf = res["a"], res["sf"]
    assert sf.value_at(res["probe"]) == res["probe_value"], "probe vs step function"
    for z, x in RATIONAL_TURNS:
        expected = oracles.tl_signature_by_congruence(a, x)
        assert tl_signature_at(a, z) == expected, f"signature at {z.turn}"
        assert sf.value_at(z) == expected, f"step function at {z.turn}"
    charpoly = oracles.char_poly_at_x_by_interpolation(a, RATIONAL_TURNS[0][1])
    assert len(charpoly) == a.n + 1 and charpoly[-1] == 1
    assert _descartes_signature(charpoly) == tl_signature_at(a, RATIONAL_TURNS[0][0]), \
        "characteristic polynomial at x = 1/2"
    for k in ETA_CHECK_KS:
        if k in res["etas"]:
            direct = sum(tl_signature_at(a, UnitRootAngle.of(j, k)) for j in range(1, k))
            assert res["etas"][k] == direct, f"eta_cyclic({k})"
    lo, hi = res["l2"]
    assert lo <= hi and hi - lo <= res["eps"], "l2 enclosure wider than eps"


# sig-ladder ------------------------------------------------------------------

def _sig_ladder(rng, scratch):
    ops = []
    # Unconjugated: the cost of the characteristic polynomial grows with the
    # number of nonzero entries, which conjugation makes vary threefold from
    # seed to seed at genus 5 and 6.
    for i, a in enumerate(ladder_knots(rng, LADDER, conjugate=False)):
        raw, probe = a.as_lists(), random_turn(rng, 5, 40)
        ops.append(Op(f"g{a.genus}#{i}", _ladder_run(raw, probe),
                      _ladder_check(scratch / f"knot{i}.json")))
    return ops


def _ladder_run(raw, probe):
    def run(tr):
        a = _validate(tr, raw)
        with tr.span("seifert.alexander"):
            delta = alexander_polynomial(a)
        with tr.span("seifert.arf"):
            arf = arf_invariant(a)
        probe_value, sf = _signature_stages(tr, a, probe)
        etas = _etas(tr, a, LADDER_SCHEDULE)
        l2 = _l2(tr, a, LADDER_EPS)
        return {"a": a, "delta": delta, "arf": arf, "probe": probe,
                "probe_value": probe_value, "sf": sf, "etas": etas,
                "l2": l2, "eps": LADDER_EPS}
    return run


def _ladder_check(knot_file):
    def check(res):
        a = res["a"]
        _check_signature(res)
        assert res["arf"] in (0, 1)
        if a.genus <= 4:
            raw = oracles.alexander_by_cofactor(a)
            while raw and raw[0] == 0:
                raw = raw[1:]
            if sum(raw) < 0:
                raw = [-c for c in raw]
            assert list(res["delta"].coeffs) == raw, "Alexander polynomial vs cofactor"
        # CLI parity: the op's results, formatted as the CLI formats them,
        # equal what `knotsig l2` and `knotsig approx` print.
        # Written without a name, so the CLI reads back a SeifertMatrix equal
        # to the op's and reuses its cached step function: the check costs
        # little, and the formatting and l2/eta paths still run in full.
        knot_file.write_text(json.dumps({"seifert": a.as_lists()}), encoding="utf-8")
        lo, hi = res["l2"]
        assert _cli(["l2", "--knot", str(knot_file), "--eps", "1e-9"]) == \
            dump_json({"integral_lo": frac_str(lo), "integral_hi": frac_str(hi)}), "CLI l2"
        assert _cli(["approx", "--knot", str(knot_file), "--schedule", "factorial:8",
                     "--eps", "1e-9"]) == _approx_csv(res["etas"], lo, hi), "CLI approx"
    return check


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, f"knotsig {argv[0]} exited {code}"
    return buf.getvalue()


def _approx_csv(etas, lo, hi):
    lines = ["k,average,gap_lo,gap_hi\n"]
    for k, eta in etas.items():
        avg = Fraction(eta, k)
        gap_lo = 0 if lo <= avg <= hi else min(abs(avg - lo), abs(avg - hi))
        gap_hi = max(abs(avg - lo), abs(avg - hi))
        lines.append(f"{k},{frac_str(avg)},{frac_str(gap_lo)},{frac_str(gap_hi)}\n")
    return "".join(lines)


# circle-integral ---------------------------------------------------------------

def _circle_integral(rng):
    ops = []
    for i, raw in enumerate(circle_knots(rng, CIRCLE_KNOTS)):
        ops.append(Op(f"g{len(raw) // 2}#{i}", _circle_run(raw, random_turn(rng, 5, 40)),
                      _circle_check))
    return ops


def _circle_run(raw, probe):
    """approximation_table's work, stage by stage: the l2 enclosure, then
    eta_cyclic along the schedule; then the x-refinement `sigfn` does."""
    def run(tr):
        a = _validate(tr, raw)
        probe_value, sf = _signature_stages(tr, a, probe)
        l2 = _l2(tr, a, CIRCLE_EPS)
        etas = _etas(tr, a, CIRCLE_SCHEDULE)
        with tr.span("realalg.refine"):
            xs = [bp.x.bounds(X_REFINE) for bp in sf.breakpoints]
        return {"a": a, "probe": probe, "probe_value": probe_value, "sf": sf,
                "etas": etas, "l2": l2, "eps": CIRCLE_EPS, "xs": xs}
    return run


def _circle_check(res):
    a, sf = res["a"], res["sf"]
    _check_signature(res)
    assert any(bp.exact_turn is None for bp in sf.breakpoints), "no irrational breakpoint"
    lo, hi = res["l2"]
    mid = (lo + hi) / 2
    for k, eta in res["etas"].items():
        bound = Fraction(2 * a.n * (len(sf.breakpoints) + 1), k) + res["eps"]
        assert abs(Fraction(eta, k) - mid) <= bound, f"average at k={k} far from the integral"
    for bp, (xlo, xhi) in zip(sf.breakpoints, res["xs"]):
        assert xhi - xlo <= X_REFINE
        if xlo != xhi:
            assert peval(bp.x.poly, xlo) * peval(bp.x.poly, xhi) < 0, "x enclosure lost its root"


# cover-reps --------------------------------------------------------------------

def _cover_reps(rng):
    ops = []
    knots = ladder_knots(rng, [(g, 1) for g, _ in COVERS])
    for i, (a, (genus, k)) in enumerate(zip(knots, COVERS)):
        ops.append(Op(f"cover g{genus} k{k} #{i}", _cover_run(a.as_lists(), k), _cover_check))
    for knot, ks in GROUP_SOURCES:
        for k in ks:
            ops.append(Op(f"group {knot.name} k{k}", _group_run(knot, k), _group_check))
    for name in FIXTURES:
        with open(FIXTURE_DIR / f"{name}.json", encoding="utf-8") as fh:
            raw = json.load(fh)["seifert"]
        ops.append(Op(f"linking {name}", _linking_run(raw), _linking_check))
    ops.append(Op("resolve phi6 p5", _resolve_run(PHI6, 5, 3, 3), _resolve_check))
    for a in ladder_knots(rng, ((1, 1), (2, 1))):
        delta = alexander_polynomial(a)
        p = next(q for q in (3, 5, 7, 11, 13) if delta.coeffs[-1] % q)
        ops.append(Op(f"resolve g{a.genus} p{p}", _resolve_run(delta, p, 2, 2), _resolve_check))
    return ops


def _cover_run(raw, k):
    def run(tr):
        a = _validate(tr, raw)
        with tr.span("alexmod.cyclic_quotient"):
            hom = cyclic_quotient(alexander_module(a), k)
        with tr.span("alexmod.resultant"):
            order = torsion_order_by_resultant(a, k)
        tr.count("alexmod.smith_dim", k * a.n)
        return hom, order
    return run


def _cover_check(res):
    hom, order = res
    if hom.free_rank == 0:
        assert hom.module.order() == order, "cover torsion order vs resultant"
    else:
        assert order == 0, "infinite cover with nonzero resultant"


def _group_run(knot, k):
    def run(tr):
        with tr.span("alexmod.cyclic_quotient"):
            module = cyclic_quotient(alexander_module(knot), k).module
        tr.count("alexmod.smith_dim", k * knot.n)
        with tr.span("mbreps.enumerate"):
            reps = enumerate_irreps(k, module)
        with tr.span("mbreps.table"):
            table = character_table_checks(reps, k, module)
        with tr.span("mbreps.hom_check"):
            els = list(semidirect_elements(module, k))
            products = [(x, y, semidirect_mul(x, y, module, k)) for x in els for y in els]
            broken = 0
            for rep in reps:
                mats = {g: rep.matrix(g) for g in els}
                broken += sum(1 for x, y, xy in products if mats[xy] != mats[x] @ mats[y])
        tr.count("mbreps.group_order", k * module.order())
        tr.count("mbreps.products_checked", len(products) * len(reps))
        return k, module, reps, table, len(els), broken
    return run


def _group_check(res):
    k, module, reps, table, elements, broken = res
    order = k * module.order()
    assert elements == order
    assert sum(r.dim ** 2 for r in reps) == order, "sum of squared dimensions"
    assert table.all_ok, "character orthogonality"
    assert broken == 0, "representation is not a homomorphism"
    assert all(r.dim <= module.action_order() for r in reps)


def _linking_run(raw):
    def run(tr):
        a = _validate(tr, raw)
        with tr.span("alexmod.linking"):
            form = double_cover_linking_form(a)
            metabolizers = find_linking_metabolizers(form)
        with tr.span("seifert.metabolizer"):
            met = find_seifert_metabolizer(a, 2)
        return a, form, metabolizers, met
    return run


def _linking_check(res):
    a, form, metabolizers, met = res
    assert form.module.order() == abs(alexander_polynomial(a)(-1)), "|H_1| = |det|"
    assert all(row[j] == form.gram[j][i] for i, row in enumerate(form.gram)
               for j in range(len(row))), "linking form not symmetric"
    assert isinstance(metabolizers, list)
    if met is not None:
        ent = a.entries
        assert len(met.basis) == a.genus
        assert all(sum(x[i] * ent[i][j] * y[j] for i in range(a.n) for j in range(a.n)) == 0
                   for x in met.basis for y in met.basis), "metabolizer not isotropic"


def _resolve_run(delta, p, depth, witness_bound):
    def run(tr):
        with tr.span("resolve.build"):
            report = build_resolution(delta, p, depth, witness_bound=witness_bound)
        tr.count("resolve.witnesses", len(report.witnesses))
        return report
    return run


def _resolve_check(report):
    ks = [step.k for step in report.steps]
    assert all(k > i for i, k in enumerate(ks, start=1)), "k_i > i"
    assert all(b % a == 0 for a, b in zip(ks, ks[1:])), "k_i | k_(i+1)"
    assert report.witnesses and not report.separation_failures, "separation failure"


# kernels -------------------------------------------------------------------------

def _kernels(rng):
    ops = []
    for lo, hi in zip(CYCLOTOMIC_STARTS, CYCLOTOMIC_STARTS[1:] + (CYCLOTOMIC_TOP + 1,)):
        ds = range(lo, hi)
        ops.append(Op(f"cyclotomic {ds[0]}..{ds[-1]}", _cyclotomic_run(ds), _cyclotomic_check))
    knots = ladder_knots(rng, [(g, 1) for g in POLY_GENERA])
    for a in knots:
        delta = list(alexander_polynomial(a).coeffs)
        ops.append(Op(f"poly g{a.genus}", _poly_run(delta, x_polynomial(delta)), _poly_check))
    by_genus = {a.genus: a for a in knots}
    for genus, k in PENCILS:
        ops.append(Op(f"pencil g{genus} k{k}", _pencil_run(cover_pencil(by_genus[genus], k)),
                      _pencil_check))
    seen = set()
    while len(seen) < 2 * COS_OPS:
        t = Fraction(2 * rng.randrange(2 ** 38) + 1, 2 ** 40)  # in (0, 1/4)
        if t not in seen:
            seen.update((t, Fraction(1, 2) - t))
            ops.append(Op(f"cos #{len(seen) // 2 - 1}", _cos_run([t, Fraction(1, 2) - t]),
                          _cos_check))
    return ops


def _cyclotomic_run(ds):
    def run(tr):
        with tr.span("polyz.cyclotomic"):
            return [(d, cyclotomic(d)) for d in ds]
    return run


def _cyclotomic_check(res):
    for d, poly in res:
        assert len(poly) - 1 == _euler_phi(d), f"deg cyclotomic({d}) != phi({d})"


def _euler_phi(n):
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    return out - out // m if m > 1 else out


def _poly_run(delta, poly):
    def run(tr):
        with tr.span("polyz.isolate"):
            intervals = isolate_roots(poly, -1, 1)
        with tr.span("realalg.refine"):
            roots = [RealAlgebraic.root_of(poly, lo, hi).bounds(REFINE_WIDTH)
                     for lo, hi in intervals]
        with tr.span("polyz.resultant"):
            res = resultant(delta, [1] * RESULTANT_K)
        return delta, poly, intervals, roots, res
    return run


def _poly_check(res):
    delta, poly, intervals, roots, value = res
    assert len(intervals) == sturm_count(sturm_chain(poly), -1, 1)
    for (lo, hi), (rlo, rhi) in zip(intervals, roots):
        assert lo < hi and peval(poly, lo) * peval(poly, hi) < 0, "isolating interval"
        assert lo <= rlo <= rhi <= hi and rhi - rlo <= REFINE_WIDTH
        assert rlo == rhi or peval(poly, rlo) * peval(poly, rhi) < 0, "refined interval"
    # |Res(delta, 1 + t + ... + t^(k-1))| is the product of |delta| over the
    # nontrivial k-th roots of unity; compare in floating point.
    moduli = [abs(sum(c * cmath.exp(2j * math.pi * i * j / RESULTANT_K)
                      for i, c in enumerate(delta)))
              for j in range(1, RESULTANT_K)]
    if value == 0:
        assert min(moduli) < 1e-6, "zero resultant without a common root"
    else:
        assert math.isclose(abs(value), math.prod(moduli), rel_tol=1e-9), "resultant"


def _pencil_run(mat):
    def run(tr):
        with tr.span("intmat.det"):
            d = det(mat)
        with tr.span("intmat.smith"):
            snf = smith_form(mat)
        return d, snf.d
    return run


def _pencil_check(res):
    d, invariants = res
    assert math.prod(invariants) == abs(d), "product of Smith invariants != |det|"
    assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]) if a), "divisibility"


def _cos_run(turns):
    def run(tr):
        with tr.span("realalg.cos_bounds"):
            return [(t, cos_turn_bounds(t, COS_BITS)) for t in turns]
    return run


def _cos_check(res):
    for t, (lo, hi) in res:
        assert lo <= hi and hi - lo <= Fraction(4, 2 ** COS_BITS), "cos enclosure width"
        c = math.cos(2 * math.pi * t)
        assert lo - 1e-12 <= c <= hi + 1e-12, f"cos(2 pi {t}) outside its enclosure"
