import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from knotsig.cli import main

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

    @pytest.mark.parametrize("module, m, expected", [
        ({"torsion": [3], "t": [[2]]}, 6, REPS_Z3),
        (SLICE_K3, 3, REPS_SLICE_K3),
    ])
    def test_reps(self, tmp_path, module, m, expected):
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(module))
        assert run_fresh(["reps", "--module", str(mod), "--m", str(m)]) == expected

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
