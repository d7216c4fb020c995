"""The README's examples, run as written: the library example's commented
values and every line of the CLI block."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from knotsig.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(after):
    """The first fenced block after the heading `after`."""
    return re.search(r"^## " + after + r"\n.*?^```\w*\n(.*?)^```", README,
                     re.MULTILINE | re.DOTALL).group(1)


def test_library_example_values():
    # each bare expression of the example, evaluated in order
    namespace, values = {}, []
    for stmt in ast.parse(fenced_block("Library example")).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    arcs, points, eta6, (lo, hi), at_minus_one = values
    assert arcs == (-2, 0)
    assert points == (-1, -1)
    assert eta6 == -8
    assert lo <= Fraction(-4, 3) <= hi and hi - lo <= Fraction(1, 10 ** 9)
    assert at_minus_one == -2


CLI_LINES = [line.split("#")[0].strip() for line in fenced_block("CLI").splitlines()
             if line.startswith("knotsig ")]


def test_cli_block_is_not_empty():
    assert len(CLI_LINES) == 8


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_cli_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("KNOTSIG_CAP", raising=False)
    module = tmp_path / "module.json"
    module.write_text('{"torsion": [3], "t": [[2]]}')
    argv = [str(module) if arg == "module.json" else arg for arg in shlex.split(line)[1:]]
    assert main(argv) == 0
    assert capsys.readouterr().out
