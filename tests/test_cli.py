import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from knotsig import block_sum
from knotsig.cli import main

from conftest import mirror, random_seifert, torus_seifert

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInvariants:
    def test_unknot(self, capsys):
        code, out = run_cli(capsys, "invariants", "--knot", str(FIXTURES / "unknot.json"))
        assert code == 0
        data = json.loads(out)
        assert data == {"alexander": "1", "arf": 0, "genus": 0, "metabolizer": []}

    def test_trefoil(self, capsys):
        code, out = run_cli(capsys, "invariants", "--knot", str(FIXTURES / "trefoil.json"))
        assert code == 0
        data = json.loads(out)
        assert data["alexander"] == "t^2-t+1"
        assert data["arf"] == 1
        assert data["genus"] == 1
        assert "metabolizer" not in data

    def test_slice_example(self, capsys):
        code, out = run_cli(capsys, "invariants",
                            "--knot", str(FIXTURES / "slice_example.json"))
        data = json.loads(out)
        assert data["arf"] == 0
        met = data["metabolizer"]
        assert met == [[1, 0, 0, 0], [0, 1, 0, 0]]
        a4 = [[0, 0, 1, 1], [0, 0, 0, 1], [1, 1, 0, 1], [0, 1, 0, 0]]
        for x in met:
            for y in met:
                assert sum(x[i] * a4[i][j] * y[j]
                           for i in range(4) for j in range(4)) == 0


class TestL2AndEta:
    def test_slice_example_k6(self, capsys):
        code, out = run_cli(capsys, "eta-cyclic",
                            "--knot", str(FIXTURES / "slice_example.json"), "--k", "6")
        assert code == 0
        assert json.loads(out) == {"sum": -2, "average": "-1/3"}

    def test_trefoil_integral(self, capsys):
        code, out = run_cli(capsys, "l2", "--knot", str(FIXTURES / "trefoil.json"),
                            "--eps", "1e-9")
        data = json.loads(out)
        from fractions import Fraction
        lo, hi = Fraction(data["integral_lo"]), Fraction(data["integral_hi"])
        assert lo <= Fraction(-4, 3) <= hi
        assert hi - lo <= Fraction(1, 10 ** 9)

    def test_unknot_zeros(self, capsys):
        code, out = run_cli(capsys, "eta-cyclic",
                            "--knot", str(FIXTURES / "unknot.json"), "--k", "12")
        assert json.loads(out) == {"sum": 0, "average": "0"}


class TestApprox:
    def test_trefoil_factorial_five(self, capsys):
        code, out = run_cli(capsys, "approx", "--knot", str(FIXTURES / "trefoil.json"),
                            "--schedule", "factorial:5", "--eps", "1e-9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,average,gap_lo,gap_hi"
        assert len(lines) == 5
        assert lines[1].startswith("2,-1,")
        assert lines[2].startswith("6,-4/3,0,")

    def test_factorial_cap(self, capsys):
        code, _ = run_cli(capsys, "approx", "--knot", str(FIXTURES / "trefoil.json"),
                          "--schedule", "factorial:11")
        assert code == 2

    def test_comma_schedule(self, capsys):
        code, out = run_cli(capsys, "approx", "--knot", str(FIXTURES / "trefoil.json"),
                            "--schedule", "2,6,24")
        assert code == 0
        assert out == "k,average,gap_lo,gap_hi\n2,-1,1/3,1/3\n6,-4/3,0,0\n24,-4/3,0,0\n"

    def test_empty_comma_schedule(self, capsys):
        code = main(["approx", "--knot", str(FIXTURES / "trefoil.json"), "--schedule", ","])
        assert code == 2
        assert "empty schedule" in capsys.readouterr().err


class TestSigfn:
    def test_trefoil_rows(self, capsys):
        code, out = run_cli(capsys, "sigfn", "--knot", str(FIXTURES / "trefoil.json"))
        lines = out.strip().splitlines()
        assert lines[0] == "kind,arc_index,x_lo,x_hi,hemisphere,value"
        arcs = [l for l in lines[1:] if l.startswith("arc")]
        points = [l for l in lines[1:] if l.startswith("point")]
        assert len(points) == 2
        assert all(l.split(",")[2] == "1/2" and l.split(",")[3] == "1/2" for l in points)
        assert {l.split(",")[5] for l in points} == {"-1"}
        assert any(l.split(",")[5] == "-2" for l in arcs)

    def test_unknot_single_arc(self, capsys):
        code, out = run_cli(capsys, "sigfn", "--knot", str(FIXTURES / "unknot.json"))
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.startswith("arc")]) == 2  # both hemispheres
        assert not any(l.startswith("point") for l in lines)

    def test_cinquefoil_rows(self, capsys):
        # two upper breakpoints: arc 0 runs upper to upper, arc 2 lower to
        # lower, each between the x ends of its breakpoints
        from knotsig import read_knot, signature_function
        code, out = run_cli(capsys, "sigfn", "--knot", str(FIXTURES / "cinquefoil.json"))
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        arcs = [(int(r[1]), r[4], int(r[5])) for r in rows if r[0] == "arc"]
        points = [r for r in rows if r[0] == "point"]
        assert arcs == [(0, "upper", -2), (1, "upper", -4), (1, "lower", -4),
                        (2, "lower", -2), (3, "lower", 0), (3, "upper", 0)]
        assert [r[4] for r in points] == ["upper", "upper", "lower", "lower"]
        sf = signature_function(read_knot(str(FIXTURES / "cinquefoil.json")))
        assert sf.arc_values == (-2, -4, -2, 0)
        assert tuple(int(r[5]) for r in points) == sf.point_values == (-1, -3, -3, -1)
        upper_upper, lower_lower = rows[0], rows[3]
        assert upper_upper[2:4] == [points[1][3], points[0][2]]
        assert lower_lower[2:4] == [points[2][3], points[3][2]]

    @pytest.mark.parametrize("entries", [
        # Alexander polynomial -2t^4 + 5t^2 - 2, with zero coefficients
        [[-3, 0, -3, 5], [1, 2, -2, 0], [-5, -2, 1, 3], [6, 1, 2, -6]],
        # a breakpoint within 1/64 turn of z = 1
        [[104, 1], [0, 1]],
    ])
    def test_valid_matrix_exits_zero(self, capsys, tmp_path, entries):
        knot = tmp_path / "knot.json"
        knot.write_text(json.dumps({"seifert": entries}))
        code, out = run_cli(capsys, "sigfn", "--knot", str(knot))
        assert code == 0
        assert out.startswith("kind,arc_index,x_lo,x_hi,hemisphere,value\n")


class TestCovers:
    def test_trefoil_double(self, capsys):
        code, out = run_cli(capsys, "covers", "--knot", str(FIXTURES / "trefoil.json"),
                            "--k", "2")
        data = json.loads(out)
        assert data["module"] == {"torsion": [3], "t": [[2]]}
        assert data["torsion_order"] == 3 == data["resultant_order"]
        assert data["linking"]["gram"] == [["1/3"]]
        assert data["linking_metabolizers"] == []

    def test_round_trip_module_into_reps(self, capsys, tmp_path):
        code, out = run_cli(capsys, "covers", "--knot", str(FIXTURES / "trefoil.json"),
                            "--k", "2")
        module = json.loads(out)["module"]
        mod_file = tmp_path / "mod.json"
        mod_file.write_text(json.dumps(module))
        code, out = run_cli(capsys, "reps", "--module", str(mod_file), "--m", "2")
        assert code == 0
        classes = json.loads(out)
        assert sorted(c["dim"] for c in classes) == [1, 1, 2]

    def test_linking_json_readable_as_module(self, capsys):
        # the linking block carries the module keys plus a gram table;
        # the module reader accepts it back unchanged
        from knotsig import FiniteLambdaModule
        code, out = run_cli(capsys, "covers", "--knot", str(FIXTURES / "trefoil.json"),
                            "--k", "2")
        linking = json.loads(out)["linking"]
        mod = FiniteLambdaModule.from_json_dict(linking)
        assert mod.torsion == (3,)

    def test_cap_exceeded_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KNOTSIG_CAP", "2")
        code, _ = run_cli(capsys, "covers", "--knot", str(FIXTURES / "trefoil.json"),
                          "--k", "2")
        assert code == 4

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python before 3.10.7 has no limit on int-to-string digits")
    def test_output_integers_of_any_length(self, capsys, tmp_path):
        # the 11000-fold cover's torsion order has 4598 digits, above Python's
        # 4300-digit limit on int-to-string conversion; the limit still
        # guards input, so a 5000-digit entry in a knot file is bad input
        code, out = run_cli(capsys, "covers", "--knot", str(FIXTURES / "figure_eight.json"),
                            "--k", "11000")
        assert code == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            data = json.loads(out)
            digits = len(str(data["torsion_order"]))
        finally:
            sys.set_int_max_str_digits(limit)
        assert data["torsion_order"] == data["resultant_order"]
        assert digits > 4300
        big = tmp_path / "big.json"
        big.write_text('{"seifert": [[%s, 1], [0, -1]]}' % ("1" * 5000))
        assert main(["invariants", "--knot", str(big)]) == 2

    # double covers whose metabolizer search took minutes before it walked
    # only isotropic subgroups: (Z/15)^2 with four metabolizers or none, and
    # the hyperbolic (Z/3)^4 with prod_(i < 2) (3^i + 1) = 8
    T23, T25 = torus_seifert(2, 3), torus_seifert(2, 5)

    @pytest.mark.parametrize("knots, torsion, metabolizers", [
        ((T23, mirror(T23), T25, mirror(T25)), [15, 15],
         [[[1, 1]], [[1, 4]], [[1, 11]], [[1, 14]]]),
        ((T23, T23, T25, T25), [15, 15], []),
        ((T23, mirror(T23), T23, mirror(T23)), [3, 3, 3, 3], 8),
    ], ids=["T23#-T23#T25#-T25", "T23#T23#T25#T25", "T23#-T23#T23#-T23"])
    def test_linking_metabolizers_of_large_forms(self, capsys, tmp_path, knots, torsion,
                                                 metabolizers):
        a = knots[0]
        for k in knots[1:]:
            a = block_sum(a, k)
        knot = tmp_path / "knot.json"
        knot.write_text(json.dumps({"seifert": a.as_lists()}))
        t0 = time.monotonic()
        code, out = run_cli(capsys, "covers", "--knot", str(knot), "--k", "2")
        elapsed = time.monotonic() - t0
        assert code == 0
        data = json.loads(out)
        assert data["module"]["torsion"] == torsion
        found = data["linking_metabolizers"]
        assert (len(found) if isinstance(metabolizers, int) else found) == metabolizers
        assert elapsed < 10.0


class TestReps:
    def test_flip_action_classes(self, capsys, tmp_path):
        mod_file = tmp_path / "mod.json"
        mod_file.write_text('{"torsion": [3], "t": [[-1]]}')
        code, out = run_cli(capsys, "reps", "--module", str(mod_file), "--m", "2")
        classes = json.loads(out)
        assert len(classes) == 3
        assert sum(c["dim"] ** 2 for c in classes) == 6


class TestResolve:
    def test_phi6(self, capsys):
        code, out = run_cli(capsys, "resolve", "--delta", "1,-1,1", "--p", "5",
                            "--depth", "3")
        data = json.loads(out)
        assert data["p"] == 5
        assert data["steps"][0]["k"] == 6
        assert data["steps"][0]["order"] == 150
        assert all(w["separated_at"] == 1 for w in data["witnesses"])

    def test_invalid_s_schedule(self, capsys):
        code, _ = run_cli(capsys, "resolve", "--delta", "1,-1,1", "--p", "5",
                          "--depth", "3", "--s", "1")
        assert code == 2


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "invariants", "--knot", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["invariants", "--knot", "{dir}"],
        ["reps", "--module", "{dir}", "--m", "2"],
        ["invariants", "--knot", str(FIXTURES / "trefoil.json"), "--out", "{dir}"],
    ])
    def test_directory_path_is_bad_input(self, capsys, tmp_path, argv):
        code = main([a.format(dir=tmp_path) for a in argv])
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    def test_invalid_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seifert": [[1, 2], [2, 1]]}')
        code, _ = run_cli(capsys, "invariants", "--knot", str(bad))
        assert code == 2

    def test_odd_matrix(self, capsys, tmp_path):
        bad = tmp_path / "odd.json"
        bad.write_text('{"seifert": [[0]]}')
        code, _ = run_cli(capsys, "invariants", "--knot", str(bad))
        assert code == 2

    @pytest.mark.parametrize("seifert, message", [
        ("5", "list of rows"),
        ("[[1e400, 1], [0, -1]]", "entries must be integers"),
        ("[[true, 1], [0, -1]]", "entries must be integers"),
    ])
    def test_malformed_matrix(self, capsys, tmp_path, seifert, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seifert": %s}' % seifert)
        code = main(["invariants", "--knot", str(bad)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['"seifert"', '[[1, 0], [0, 1]]', "3"])
    def test_knot_file_not_an_object(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        code = main(["invariants", "--knot", str(bad)])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("module, message", [
        ('{"torsion": [3], "t": 5}', "rows of integers"),
        ('{"torsion": [3], "t": [1]}', "rows of integers"),
        ('{"torsion": [3.5], "t": [[1]]}', "list of integers"),
        ('{"torsion": [true], "t": [[1]]}', "list of integers"),
        ('{"torsion": 3, "t": [[1]]}', "list of integers"),
        ('{"t": [[1]]}', "list of integers"),
        ('{"torsion": [3]}', "rows of integers"),
        ('{"torsion": [3], "t": [[1.0]]}', "rows of integers"),
        ('[3]', "JSON object"),
        ('{"torsion": [0], "t": [[1]]}', "torsion coefficients >= 2"),
        ('{"torsion": [3], "t": [[1], [1]]}', "one action row each"),
        ('{"torsion": [], "t": [[1]]}', "one action row each"),
    ])
    def test_malformed_module(self, capsys, tmp_path, module, message):
        bad = tmp_path / "mod.json"
        bad.write_text(module)
        code = main(["reps", "--module", str(bad), "--m", "2"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_resolve_witness_bound_below_one(self, capsys, bound):
        code = main(["resolve", "--delta", "1,-1,1", "--p", "5", "--depth", "2",
                     "--witness-bound", bound])
        assert code == 2
        assert "witness bound" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_invariants_bound_below_one(self, capsys, bound):
        code = main(["invariants", "--knot", str(FIXTURES / "trefoil.json"),
                     "--bound", bound])
        assert code == 2
        assert "search bound" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command, flag, message", [
        ("eta-cyclic", "--k", "k must be positive"),
        ("covers", "--k", "k must be positive"),
        ("reps", "--m", "m must be positive"),
    ])
    def test_count_below_one(self, capsys, tmp_path, command, flag, message, value):
        if command == "reps":
            mod = tmp_path / "mod.json"
            mod.write_text('{"torsion": [3], "t": [[2]]}')
            argv = [command, "--module", str(mod)]
        else:
            argv = [command, "--knot", str(FIXTURES / "trefoil.json")]
        assert main(argv + [flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_resolve_witnesses_over_cap(self, capsys, monkeypatch):
        # degree 4 at bound 2: 5^5 - 1 = 3124 default witnesses
        monkeypatch.setenv("KNOTSIG_CAP", "1000")
        code = main(["resolve", "--delta", "1,-3,5,-3,1", "--p", "5", "--depth", "1",
                     "--witness-bound", "2"])
        assert code == 4
        assert "witness count 3124 exceeds cap 1000" in capsys.readouterr().err
        monkeypatch.setenv("KNOTSIG_CAP", "3124")
        assert main(["resolve", "--delta", "1,-3,5,-3,1", "--p", "5", "--depth", "1",
                     "--witness-bound", "2"]) == 0

    def test_metabolizer_search_over_cap(self, capsys, tmp_path, monkeypatch):
        # uncapped, bound 2 backtracks for seconds on this genus-3 matrix
        a = random_seifert(random.Random(1), 3)
        knot = tmp_path / "g3.json"
        knot.write_text(json.dumps({"seifert": a.as_lists()}))
        monkeypatch.setenv("KNOTSIG_CAP", "1000")
        code = main(["invariants", "--knot", str(knot), "--bound", "2"])
        assert code == 4
        assert "metabolizer search steps 1001 exceeds cap 1000" in capsys.readouterr().err

    def test_metabolizer_candidates_drawn_up_to_cap(self, capsys, tmp_path, monkeypatch):
        # only the first cap + 1 candidates can be visited, so shells of
        # max-norm 1 and 2 hold enough and the 11^6 tuples of bound 5 are
        # never drawn; the exit and its message are those of the full list
        from knotsig import seifert
        drawn = []

        def counting_product(*args, **kwargs):
            for v in product(*args, **kwargs):
                drawn.append(1)
                yield v

        monkeypatch.setattr(seifert, "product", counting_product)
        a = random_seifert(random.Random(1), 3)
        knot = tmp_path / "g3.json"
        knot.write_text(json.dumps({"seifert": a.as_lists()}))
        monkeypatch.setenv("KNOTSIG_CAP", "1000")
        code = main(["invariants", "--knot", str(knot), "--bound", "5"])
        assert code == 4
        assert "metabolizer search steps 1001 exceeds cap 1000" in capsys.readouterr().err
        assert 0 < len(drawn) <= 3 ** 6 + 5 ** 6

    @pytest.mark.parametrize("argv, depth", [
        (["l2", "--eps", "1e-600"], None),
        (["l2", "--eps", "1e-700"], 2330),
        (["approx", "--schedule", "2,6", "--eps", "1e-700"], 2330),
        (["eta-cyclic", "--k", str(10 ** 700 + 1)], 2328),
    ])
    def test_turn_cell_depth_limit(self, capsys, monkeypatch, argv, depth):
        # a turn cell deeper than realalg.MAX_REFINE is a fixed size limit:
        # it exits 4 like a cap, and KNOTSIG_CAP does not move it
        monkeypatch.setenv("KNOTSIG_CAP", str(10 ** 9))
        code = main(argv[:1] + ["--knot", str(FIXTURES / "twist.json")] + argv[1:])
        err = capsys.readouterr().err
        if depth is None:
            assert code == 0 and not err
        else:
            assert code == 4
            assert f"turn cell depth {depth} exceeds cap 2000" in err

    @pytest.mark.parametrize("p, depth, code", [
        (5316911983139663487003542222693990401, 1, 2),  # (2^61 - 1)^2
        (3317044064679887385961981, 1, 2),  # strong pseudoprime to 13 bases
        (2305843009213693951, 2, 0),  # 2^61 - 1: the order of t factors p^2
    ])
    def test_resolve_large_p_finishes(self, capsys, monkeypatch, p, depth, code):
        monkeypatch.delenv("KNOTSIG_CAP", raising=False)
        assert main(["resolve", "--delta", "1,-1,1", "--p", str(p),
                     "--depth", str(depth)]) == code
        if code:
            assert f"{p} is not prime" in capsys.readouterr().err

    def test_resolve_prime_divides_constant(self, capsys):
        code = main(["resolve", "--delta", "2,-1,1", "--p", "2", "--depth", "2"])
        assert code == 2
        assert "2 divides the constant coefficient" in capsys.readouterr().err

    def test_reps_over_cap(self, capsys, tmp_path, monkeypatch):
        # t = 2 has order 1000002 on Z/1000003, so m = 1000002 is periodic
        # but the group order m * 1000003 is far above the default cap
        monkeypatch.delenv("KNOTSIG_CAP", raising=False)
        mod = tmp_path / "mod.json"
        mod.write_text('{"torsion": [1000003], "t": [[2]]}')
        code = main(["reps", "--module", str(mod), "--m", "1000002"])
        assert code == 4
        assert "exceeds cap 1000000" in capsys.readouterr().err
        assert main(["reps", "--module", str(mod), "--m", "3"]) == 2

    def test_reps_cap_before_action_order(self, capsys, tmp_path, monkeypatch):
        # t = -1 on Z/((10^9 + 7)(10^9 + 9)): periodicity is one modular
        # power and the cap needs only |F|, so neither factors the torsion
        from knotsig import intmat

        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(intmat, "prime_factorization", refuse)
        monkeypatch.delenv("KNOTSIG_CAP", raising=False)
        mod = tmp_path / "mod.json"
        mod.write_text('{"torsion": [1000000016000000063], "t": [[1000000016000000062]]}')
        assert main(["reps", "--module", str(mod), "--m", "2"]) == 4
        assert "exceeds cap" in capsys.readouterr().err
        assert main(["reps", "--module", str(mod), "--m", "3"]) == 2
        assert "t^3 is not the identity" in capsys.readouterr().err

    def test_knot_file_without_seifert(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["invariants", "--knot", str(bad)]) == 2
        assert "must contain a 'seifert' matrix" in capsys.readouterr().err

    def test_internal_key_error_is_not_bad_input(self, capsys, monkeypatch):
        from knotsig import cli

        def broken(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "cmd_invariants", broken)
        assert main(["invariants", "--knot", str(FIXTURES / "trefoil.json")]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_eps_zero(self, capsys):
        code = main(["l2", "--knot", str(FIXTURES / "trefoil.json"), "--eps", "0"])
        assert code == 2
        assert "eps must be positive" in capsys.readouterr().err

    def test_resolve_zero_delta(self, capsys):
        code = main(["resolve", "--delta", "0", "--p", "3", "--depth", "1"])
        assert code == 2
        assert "zero polynomial" in capsys.readouterr().err

    def test_resolve_prime_divides_constant_delta(self, capsys):
        # (Z/3^i)[t]/(3) is infinite: no tower of trivial modules
        code = main(["resolve", "--delta", "3", "--p", "3", "--depth", "2"])
        assert code == 2
        assert "3 divides the leading coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["invariants", "--knot"], ["reps", "--m", "2", "--module"]])
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        assert main(argv + [str(deep)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ['["x"]', "7"])
    def test_knot_name_not_a_string(self, capsys, tmp_path, name):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": %s, "seifert": [[-1, 1], [0, -1]]}' % name)
        assert main(["invariants", "--knot", str(bad)]) == 2
        assert "knot name must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, cap, code", [
        ("1e-1000", None, 0), ("1e-100", "100", 0), ("1E-101", "100", 4), (".5e+1_01", "100", 4),
        ("x1e-101", "100", 2)])
    def test_eps_exponent_over_cap(self, capsys, monkeypatch, eps, cap, code):
        # the exponent is capped before Fraction raises 10 to it
        from knotsig import cli

        if code == 4:
            monkeypatch.setattr(cli, "Fraction", None)
        if cap is None:
            monkeypatch.delenv("KNOTSIG_CAP", raising=False)
        else:
            monkeypatch.setenv("KNOTSIG_CAP", cap)
        assert main(["l2", "--knot", str(FIXTURES / "trefoil.json"), "--eps", eps]) == code
        out, err = capsys.readouterr()
        if code == 4:
            assert "eps exponent 101 exceeds cap 100" in err
        elif code == 0:
            assert out == '{"integral_hi": "-4/3", "integral_lo": "-4/3"}\n'

    def test_eps_zero_denominator(self, capsys):
        code = main(["l2", "--knot", str(FIXTURES / "trefoil.json"), "--eps", "1/0"])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["sigfn", "--knot", str(FIXTURES / "trefoil.json"), "--threads", "2"])
        assert exc.value.code == 2

    def test_unknown_keys_ignored(self, capsys, tmp_path):
        f = tmp_path / "extra.json"
        f.write_text('{"name": "x", "seifert": [], "comment": "ignored"}')
        code, _ = run_cli(capsys, "invariants", "--knot", str(f))
        assert code == 0


def run_fresh(argv):
    """Stdout of `knotsig` in a fresh interpreter, so no cache is warm; the
    child finds knotsig whether or not PYTHONPATH names src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "knotsig.cli"] + argv,
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": path}).stdout.decode()


FILE_KEYS = ["name", "seifert", "torsion", "t"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FILE_KEYS), inner, max_size=4),
    max_leaves=16)
# a knot or module file: an object with some of the keys the commands read
FILE_OBJECTS = st.fixed_dictionaries({}, optional=dict.fromkeys(FILE_KEYS, JSON_VALUES))


class TestExitCodeContract:
    """Whatever JSON a knot or module file holds, a command answers (0),
    rejects the input (2) or stops at a cap (4); exit 3 is a bug."""

    COMMANDS = [["invariants", "--bound", "1", "--knot"], ["sigfn", "--knot"],
                ["covers", "--k", "2", "--knot"], ["reps", "--m", "2", "--module"]]

    @settings(max_examples=100, deadline=None)
    @given(value=FILE_OBJECTS | JSON_VALUES)
    def test_json_file_never_exits_3(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "contract.json"
        path.write_text(json.dumps(value))
        for argv in self.COMMANDS:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv + [str(path)])
            assert code in (0, 2, 4), (argv, value, err.getvalue())


class TestGolden:
    """Exact stdout of fresh `knotsig` commands.

    D20 is a conjugate of [[20, 1], [0, 1]], whose two breakpoints lie at
    irrational turns. The x intervals sigfn prints are as narrow as the
    turn trackers' cosine comparisons forced them, and the l2 bounds come
    from the tracked turn enclosures, so these bytes pin how far the
    certified refinement went. The reps cases pin the class parameters and
    their order."""

    KNOT = {"name": "D20", "seifert": [[20, -20], [-21, 22]]}
    SIGFN = (
        "kind,arc_index,x_lo,x_hi,hemisphere,value\n"
        "arc,0,-1,274438102292889/281474976710656,upper,2\n"
        "arc,0,-1,274438102292889/281474976710656,lower,2\n"
        "arc,1,137219051146445/140737488355328,1,lower,0\n"
        "arc,1,137219051146445/140737488355328,1,upper,0\n"
        "point,0,274438102292889/281474976710656,137219051146445/140737488355328,upper,1\n"
        "point,1,274438102292889/281474976710656,137219051146445/140737488355328,lower,1\n")
    L2 = ('{"integral_hi": "40449484580180705714969186198839486685519/'
          '21778071482940061661655974875633165533184", '
          '"integral_lo": "80898969160361411429938372397678973371037/'
          '43556142965880123323311949751266331066368"}\n')

    @pytest.mark.parametrize("argv, expected", [
        (["sigfn"], SIGFN),
        (["l2", "--eps", "1e-40"], L2),
    ])
    def test_irrational_breakpoints(self, tmp_path, argv, expected):
        knot = tmp_path / "d20.json"
        knot.write_text(json.dumps(self.KNOT))
        assert run_fresh([argv[0], "--knot", str(knot)] + argv[1:]) == expected

    REPS_Z3 = (
        '[{"chi": [0], "dim": 1, "w_den": 6, "w_num": 0}, '
        '{"chi": [0], "dim": 1, "w_den": 6, "w_num": 1}, '
        '{"chi": [0], "dim": 1, "w_den": 6, "w_num": 2}, '
        '{"chi": [0], "dim": 1, "w_den": 6, "w_num": 3}, '
        '{"chi": [0], "dim": 1, "w_den": 6, "w_num": 4}, '
        '{"chi": [0], "dim": 1, "w_den": 6, "w_num": 5}, '
        '{"chi": [1], "dim": 2, "w_den": 3, "w_num": 0}, '
        '{"chi": [1], "dim": 2, "w_den": 3, "w_num": 1}, '
        '{"chi": [1], "dim": 2, "w_den": 3, "w_num": 2}]\n')
    # the 3-fold cover module of fixtures/slice_example.json in the basis of
    # the Kronecker pencil (oracles.cyclic_quotient_by_kronecker); `covers
    # --k 3` prints a Lambda-isomorphic module in the basis of R_3 instead
    SLICE_K3 = {"torsion": [2, 2, 2, 2],
                "t": [[0, 1, 0, 0], [1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 1]]}
    COVERS_SLICE_K3 = (
        '{"free_rank": 0, "k": 3, "module": {"t": [[0, 1, 0, 1], [1, 1, 1, 0], '
        '[0, 0, 0, 1], [0, 0, 1, 1]], "torsion": [2, 2, 2, 2]}, '
        '"resultant_order": 16, "torsion_order": 16}\n')
    REPS_SLICE_K3 = (
        '[{"chi": [0, 0, 0, 0], "dim": 1, "w_den": 3, "w_num": 0}, '
        '{"chi": [0, 0, 0, 0], "dim": 1, "w_den": 3, "w_num": 1}, '
        '{"chi": [0, 0, 0, 0], "dim": 1, "w_den": 3, "w_num": 2}, '
        '{"chi": [0, 0, 0, 1], "dim": 3, "w_den": 1, "w_num": 0}, '
        '{"chi": [0, 0, 1, 0], "dim": 3, "w_den": 1, "w_num": 0}, '
        '{"chi": [0, 0, 1, 1], "dim": 3, "w_den": 1, "w_num": 0}, '
        '{"chi": [0, 1, 0, 0], "dim": 3, "w_den": 1, "w_num": 0}, '
        '{"chi": [0, 1, 1, 0], "dim": 3, "w_den": 1, "w_num": 0}]\n')

    INVARIANTS = {
        "cinquefoil": '{"alexander": "t^4-t^3+t^2-t+1", "arf": 1, "genus": 2}\n',
        "figure_eight": '{"alexander": "-t^2+3t-1", "arf": 1, "genus": 1}\n',
        "slice_example": ('{"alexander": "t^4-2t^3+3t^2-2t+1", "arf": 0, "genus": 2, '
                          '"metabolizer": [[1, 0, 0, 0], [0, 1, 0, 0]]}\n'),
        "trefoil": '{"alexander": "t^2-t+1", "arf": 1, "genus": 1}\n',
        "twist": '{"alexander": "2t^2-3t+2", "arf": 0, "genus": 1}\n',
        "unknot": '{"alexander": "1", "arf": 0, "genus": 0, "metabolizer": []}\n',
    }

    @pytest.mark.parametrize("name", sorted(INVARIANTS))
    def test_invariants(self, name):
        argv = ["invariants", "--knot", str(FIXTURES / f"{name}.json")]
        assert run_fresh(argv) == self.INVARIANTS[name]

    @pytest.mark.parametrize("module, m, expected", [
        ({"torsion": [3], "t": [[2]]}, 6, REPS_Z3),
        (SLICE_K3, 3, REPS_SLICE_K3),
    ])
    def test_reps(self, tmp_path, module, m, expected):
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(module))
        assert run_fresh(["reps", "--module", str(mod), "--m", str(m)]) == expected

    UNKNOT_COVERS = '"module": {"t": [], "torsion": []}, "resultant_order": 1, "torsion_order": 1}\n'
    UNKNOT = [
        (["invariants"], '{"alexander": "1", "arf": 0, "genus": 0, "metabolizer": []}\n'),
        (["l2", "--eps", "1e-9"], '{"integral_hi": "0", "integral_lo": "0"}\n'),
        (["eta-cyclic", "--k", "5"], '{"average": "0", "sum": 0}\n'),
        (["approx", "--schedule", "factorial:3"], "k,average,gap_lo,gap_hi\n2,0,0,0\n6,0,0,0\n"),
        (["sigfn"], ("kind,arc_index,x_lo,x_hi,hemisphere,value\n"
                     "arc,0,-1,1,upper,0\narc,0,-1,1,lower,0\n")),
        (["covers", "--k", "1"], '{"free_rank": 0, "k": 1, ' + UNKNOT_COVERS),
        (["covers", "--k", "2"], ('{"free_rank": 0, "k": 2, "linking": {"gram": [], "t": [], '
                                  '"torsion": []}, "linking_metabolizers": [[]], ' + UNKNOT_COVERS)),
        (["covers", "--k", "3"], '{"free_rank": 0, "k": 3, ' + UNKNOT_COVERS),
    ]

    def test_unknot_and_trivial_module(self, capsys, tmp_path):
        """Every subcommand on the unknot, and reps on the trivial module."""
        knot = ["--knot", str(FIXTURES / "unknot.json")]
        for argv, expected in self.UNKNOT:
            assert run_cli(capsys, *argv[:1], *knot, *argv[1:]) == (0, expected), argv
        mod = tmp_path / "trivial.json"
        mod.write_text('{"torsion": [], "t": []}')
        for m in (1, 2, 6):
            expected = [{"chi": [], "dim": 1, "w_den": m, "w_num": j} for j in range(m)]
            code, out = run_cli(capsys, "reps", "--module", str(mod), "--m", str(m))
            assert code == 0 and out == json.dumps(expected, sort_keys=True) + "\n"

    def test_covers_slice_k3(self):
        argv = ["covers", "--knot", str(FIXTURES / "slice_example.json"), "--k", "3"]
        assert run_fresh(argv) == self.COVERS_SLICE_K3

    def test_printed_slice_module_matches_kronecker_basis(self, tmp_path):
        from knotsig import FiniteLambdaModule, alexander_module, read_knot
        from oracles import cyclic_quotient_by_kronecker, lambda_modules_isomorphic_brute
        a = read_knot(str(FIXTURES / "slice_example.json"))
        ref = cyclic_quotient_by_kronecker(alexander_module(a), 3).module
        assert ref.to_json_dict() == self.SLICE_K3
        printed = json.loads(self.COVERS_SLICE_K3)["module"]
        assert lambda_modules_isomorphic_brute(ref, FiniteLambdaModule.from_json_dict(printed))
        # reps --m 3 finds as many classes, of the same dimensions, on both
        classes = []
        for module in (self.SLICE_K3, printed):
            mod = tmp_path / "mod.json"
            mod.write_text(json.dumps(module))
            out = json.loads(run_fresh(["reps", "--module", str(mod), "--m", "3"]))
            classes.append(sorted(c["dim"] for c in out))
        assert classes[0] == classes[1] == [1, 1, 1, 3, 3, 3, 3, 3]


    # a conjugate of the block sum of three trefoils: H_1 of its double
    # cover is (Z/3)^3, so the linking form's gram matrix and the printed
    # modules pin the bases that the Smith transforms U^-1 and V give
    TREFOIL3 = {"name": "trefoil3", "seifert": [
        [-2, 0, 0, 1, -1, 1], [-1, -1, 0, 0, 0, 0], [0, 0, -1, 1, 1, 1],
        [0, -1, 0, -2, 0, -1], [-1, 0, 1, -1, -2, 0], [0, 0, 0, -1, 0, -2]]}
    COVERS_TREFOIL3 = {
        2: ('{"free_rank": 0, "k": 2, "linking": {"gram": [["2/3", "0", "0"], '
            '["0", "0", "1/3"], ["0", "1/3", "1/3"]], "t": [[2, 0, 0], [0, 2, 0], '
            '[0, 0, 2]], "torsion": [3, 3, 3]}, "linking_metabolizers": [], '
            '"module": {"t": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "torsion": [3, 3, 3]}, '
            '"resultant_order": 27, "torsion_order": 27}\n'),
        3: ('{"free_rank": 0, "k": 3, "module": {"t": [[0, 1, 1, 1, 0, 0], '
            '[0, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 0], '
            '[0, 1, 1, 1, 0, 1], [1, 0, 0, 0, 1, 1]], "torsion": [2, 2, 2, 2, 2, 2]}, '
            '"resultant_order": 64, "torsion_order": 64}\n'),
        5: ('{"free_rank": 0, "k": 5, "module": {"t": [], "torsion": []}, '
            '"resultant_order": 1, "torsion_order": 1}\n'),
    }

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_covers_trefoil3(self, tmp_path, k):
        knot = tmp_path / "trefoil3.json"
        knot.write_text(json.dumps(self.TREFOIL3))
        argv = ["covers", "--knot", str(knot), "--k", str(k)]
        assert run_fresh(argv) == self.COVERS_TREFOIL3[k]

class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["invariants", "--knot", str(FIXTURES / "trefoil.json")],
        ["l2", "--knot", str(FIXTURES / "slice_example.json"), "--eps", "1e-6"],
        ["approx", "--knot", str(FIXTURES / "trefoil.json"), "--schedule", "2,6,24"],
        ["sigfn", "--knot", str(FIXTURES / "figure_eight.json")],
        ["sigfn", "--knot", str(FIXTURES / "twist.json")],
        ["covers", "--knot", str(FIXTURES / "slice_example.json"), "--k", "3"],
        ["approx", "--knot", str(FIXTURES / "cinquefoil.json"), "--schedule", "factorial:6"],
        ["resolve", "--delta", "1,-1,1", "--p", "2", "--depth", "2"],
    ])
    def test_byte_identical_runs(self, argv):
        assert run_fresh(argv) == run_fresh(argv)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_file = tmp_path / "o.json"
        code, stdout = run_cli(capsys, "invariants",
                               "--knot", str(FIXTURES / "trefoil.json"))
        code2, _ = run_cli(capsys, "invariants",
                           "--knot", str(FIXTURES / "trefoil.json"),
                           "--out", str(out_file))
        assert out_file.read_text() == stdout
