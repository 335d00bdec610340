import ast
import tokenize
from fractions import Fraction
from pathlib import Path

import mdpwf
from mdpwf.numeric import format_fraction

SRC = Path(mdpwf.__file__).parent


def _scientific_literals(path):
    with open(path, "rb") as f:
        tokens = tokenize.tokenize(f.readline)
        return [
            (path.name, tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.NUMBER
            and not tok.string.lower().startswith("0x")
            and "e" in tok.string.lower()
        ]


def test_float_tolerances_are_written_only_in_numeric():
    # float mode's tolerance table lives in mdpwf.numeric; a literal such as
    # 1e-9 anywhere else is a bound that escaped it
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "numeric.py"
             for hit in _scientific_literals(path)]
    assert found == []
    assert _scientific_literals(SRC / "numeric.py")


def test_format_fraction_writes_integers_past_the_digit_limit():
    numerator = 7**40000  # 33,804 digits, past the default int-to-str limit of 4,300
    text = format_fraction(Fraction(numerator, 3))
    digits, denominator = text.split("/")
    assert denominator == "3"
    assert len(digits) == 33804 and digits.isdigit()
    assert int(digits[-18:]) == numerator % 10**18
    assert format_fraction(Fraction(-numerator)) == "-" + digits
    assert [format_fraction(q) for q in (Fraction(0), Fraction(-7), Fraction(22, -6))] == ["0", "-7", "-11/3"]


def _float_constants():
    tree = ast.parse((SRC / "numeric.py").read_text())
    return [
        node.targets[0].id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    ]


def _names_read(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def test_every_tolerance_is_read_outside_numeric():
    # a tolerance counts as read when another module reads it, or reads a
    # member of numeric that reads it (find_kappa takes KAPPA_SLACK through
    # NumericMode.default_slack); a deleted algorithm cannot leave its
    # tolerance behind
    numeric = ast.parse((SRC / "numeric.py").read_text())
    members = [
        node
        for top in numeric.body
        for node in ([top] + (top.body if isinstance(top, ast.ClassDef) else []))
        if isinstance(node, ast.FunctionDef)
    ]
    elsewhere = set().union(
        *(_names_read(ast.parse(p.read_text())) for p in SRC.glob("*.py") if p.name != "numeric.py")
    )
    constants = _float_constants()
    assert {"TIE_TOL", "KAPPA_SLACK"} <= set(constants)
    for name in constants:
        readers = {name} | {f.name for f in members if name in _names_read(f)}
        assert readers & elsewhere, f"{name} is read by no module but numeric"
