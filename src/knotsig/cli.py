"""Command line surface: exact knot invariants in, JSON/CSV out.

Exit codes: 0 success, 2 invalid input, 3 computation failure, 4 an
enumeration cap (override with the KNOTSIG_CAP environment variable) or
the fixed turn-cell depth limit realalg.MAX_REFINE was exceeded. Output
is deterministic: identical inputs give byte-identical output.
"""

import argparse
import io
import sys
from fractions import Fraction

from .alexmod import (FiniteLambdaModule, alexander_module, cyclic_quotient,
                      double_cover_linking_form, find_linking_metabolizers,
                      torsion_order_by_resultant)
from .intmat import CapExceeded
from .knotio import dump_json, frac_str, read_json, read_knot
from .mbreps import enumerate_irreps, rep_json
from .resolve import build_resolution
from .seifert import (IntLaurentPoly, alexander_polynomial, arf_invariant,
                      find_seifert_metabolizer)
from .signature import (approximation_table, eta_cyclic, factorial_schedule,
                        l2_eta_abelian, l2_eta_cyclic, signature_function)

FACTORIAL_CAP = 10  # largest N for the factorial:N schedule


def _parse_eps(text):
    try:
        eps = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"eps {text!r} has a zero denominator") from None
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def _parse_schedule(text):
    if text.startswith("factorial:"):
        top = int(text.split(":", 1)[1])
        if top < 2 or top > FACTORIAL_CAP:
            raise ValueError(f"factorial schedule must use 2 <= N <= {FACTORIAL_CAP}")
        return factorial_schedule(top)
    out = [int(x) for x in text.split(",") if x.strip()]
    if not out:
        raise ValueError("empty schedule")
    return out


def _parse_delta(text):
    coeffs = [int(x) for x in text.split(",") if x.strip()]
    if not coeffs:
        raise ValueError("empty polynomial")
    return IntLaurentPoly.make(coeffs)


def _write(out_path, text):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_invariants(args):
    a = read_knot(args.knot)
    result = {
        "alexander": str(alexander_polynomial(a)),
        "arf": arf_invariant(a),
        "genus": a.genus,
    }
    met = find_seifert_metabolizer(a, args.bound)
    if met is not None:
        result["metabolizer"] = [list(v) for v in met.basis]
    _write(args.out, dump_json(result))


def cmd_l2(args):
    a = read_knot(args.knot)
    lo, hi = l2_eta_abelian(a, _parse_eps(args.eps))
    _write(args.out, dump_json({"integral_lo": frac_str(lo),
                                "integral_hi": frac_str(hi)}))


def cmd_eta_cyclic(args):
    a = read_knot(args.knot)
    total = eta_cyclic(a, args.k)
    _write(args.out, dump_json({"sum": total,
                                "average": frac_str(l2_eta_cyclic(a, args.k))}))


def cmd_approx(args):
    a = read_knot(args.knot)
    rows = approximation_table(a, _parse_schedule(args.schedule), _parse_eps(args.eps))
    buf = io.StringIO()
    buf.write("k,average,gap_lo,gap_hi\n")
    for row in rows:
        buf.write(f"{row.k},{frac_str(row.average)},"
                  f"{frac_str(row.gap_lo)},{frac_str(row.gap_hi)}\n")
    _write(args.out, buf.getvalue())


_X_REFINE = Fraction(1, 2 ** 48)


def cmd_sigfn(args):
    a = read_knot(args.knot)
    sf = signature_function(a)
    for bp in sf.breakpoints:
        bp.x.bounds(_X_REFINE)
    buf = io.StringIO()
    buf.write("kind,arc_index,x_lo,x_hi,hemisphere,value\n")
    bps = sf.breakpoints
    m = len(bps)

    def arc_rows(i):
        if m == 0:
            return [("upper", Fraction(-1), Fraction(1)),
                    ("lower", Fraction(-1), Fraction(1))]
        b0, b1 = bps[i], bps[(i + 1) % m]
        if b0.hemisphere == "upper" and b1.hemisphere == "upper":
            return [("upper", b1.x.hi, b0.x.lo)]
        if b0.hemisphere == "upper" and b1.hemisphere == "lower":
            # crosses theta = pi
            return [("upper", Fraction(-1), b0.x.lo),
                    ("lower", Fraction(-1), b1.x.lo)]
        if b0.hemisphere == "lower" and b1.hemisphere == "lower":
            return [("lower", b0.x.hi, b1.x.lo)]
        # wrap arc through theta = 0
        return [("lower", b0.x.hi, Fraction(1)),
                ("upper", b1.x.hi, Fraction(1))]

    for i, value in enumerate(sf.arc_values):
        for hemi, xlo, xhi in arc_rows(i):
            buf.write(f"arc,{i},{frac_str(xlo)},{frac_str(xhi)},{hemi},{value}\n")
    for i, (bp, pv) in enumerate(zip(bps, sf.point_values)):
        buf.write(f"point,{i},{frac_str(bp.x.lo)},{frac_str(bp.x.hi)},"
                  f"{bp.hemisphere},{pv}\n")
    _write(args.out, buf.getvalue())


def cmd_covers(args):
    a = read_knot(args.knot)
    hom = cyclic_quotient(alexander_module(a), args.k)
    result = {
        "k": args.k,
        "free_rank": hom.free_rank,
        "module": hom.module.to_json_dict(),
        "torsion_order": hom.module.order(),
        "resultant_order": torsion_order_by_resultant(a, args.k),
    }
    if args.k == 2:
        form = double_cover_linking_form(a)
        result["linking"] = form.to_json_dict()
        result["linking_metabolizers"] = [
            [list(g) for g in gens] for gens in find_linking_metabolizers(form)]
    _write(args.out, dump_json(result))


def cmd_reps(args):
    module = FiniteLambdaModule.from_json_dict(read_json(args.module))
    reps = enumerate_irreps(args.m, module)
    _write(args.out, dump_json([rep_json(r, args.m) for r in reps]))


def cmd_resolve(args):
    delta = _parse_delta(args.delta)
    schedule = None
    if args.s and args.s != "default":
        schedule = [int(x) for x in args.s.split(",") if x.strip()]
        if len(schedule) < args.depth:
            raise ValueError("s schedule shorter than depth")
    report = build_resolution(delta, args.p, args.depth, s_schedule=schedule,
                              witness_bound=args.witness_bound)
    _write(args.out, dump_json(report.to_json_dict()))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knotsig",
        description="Exact knot signature invariants from Seifert matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("invariants", help="Alexander polynomial, Arf, genus, metabolizer")
    p.add_argument("--knot", required=True)
    p.add_argument("--bound", type=int, default=5,
                   help="metabolizer search coefficient bound (default 5)")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("l2", help="certified enclosure of the signature integral")
    p.add_argument("--knot", required=True)
    p.add_argument("--eps", required=True, help="enclosure width, a rational like 1/1000000000 or 1e-9")
    common(p)
    p.set_defaults(func=cmd_l2)

    p = sub.add_parser("eta-cyclic", help="signature sum over k-th roots of unity")
    p.add_argument("--knot", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_eta_cyclic)

    p = sub.add_parser("approx", help="averages vs the integral along a schedule (CSV)")
    p.add_argument("--knot", required=True)
    p.add_argument("--schedule", required=True,
                   help="'factorial:N' for 2!..N!, or a comma list like 2,6,24")
    p.add_argument("--eps", default="1e-9")
    common(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("sigfn", help="signature step function (CSV)")
    p.add_argument("--knot", required=True)
    common(p)
    p.set_defaults(func=cmd_sigfn)

    p = sub.add_parser("covers", help="cyclic cover homology and linking data")
    p.add_argument("--knot", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("reps", help="irreducible representations of Z/m x| F")
    p.add_argument("--module", required=True,
                   help="JSON file {'torsion': [...], 't': [[...]]}")
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("resolve", help="finite quotient tower for Z x| Lambda/(Delta)")
    p.add_argument("--delta", required=True,
                   help="comma-separated integer coefficients, constant first")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--s", default="default",
                   help="'default' (s_i = i) or comma list, nondecreasing")
    p.add_argument("--witness-bound", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_resolve)

    return parser


_INPUT_ERRORS = (OSError, ValueError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
