import tokenize
from pathlib import Path

import mdpwf

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
