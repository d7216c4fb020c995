"""Reading knot fixture files and serializing exact values.

Knot input files are JSON objects {"name": str, "seifert": [[int,...],...]}
(row major); unknown keys are ignored. Machine-readable rationals are
always "num/den" strings (or a bare integer string), never decimal floats.
"""

import json
import sys
from fractions import Fraction

from .seifert import SeifertMatrix, validate_seifert


def read_json(path):
    """The JSON value in a file; nesting too deep to decode is bad input,
    so it raises ValueError like any other malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def read_knot(path) -> SeifertMatrix:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError("knot file must hold a JSON object")
    if "seifert" not in data:
        raise ValueError("knot file must contain a 'seifert' matrix")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("knot name must be a string")
    return validate_seifert(data["seifert"], name=name)


def frac_str(x) -> str:
    return str(Fraction(x))


def dump_json(obj) -> str:
    """obj as sorted-key JSON, one line. Python's limit on the digits of an
    int converted to a string guards the parsing of input; knotsig's own
    integers, such as a cover's torsion order, are written whatever their
    length, so the limit is lifted here and restored afterwards (it does
    not exist before Python 3.10.7)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return json.dumps(obj, sort_keys=True) + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
