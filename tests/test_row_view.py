"""Only `model.py` reduces over the row view's CSR pointers: every other
module takes successor sums, state maxima and the lowest-index tie rule
from `FloatView`'s methods."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdpwf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py")
POINTERS = {"succ_ptr", "row_ptr"}


def pointer_reductions(source):
    """Line numbers of `reduceat` calls whose arguments read a CSR pointer,
    directly or through a name assigned from one."""
    tree = ast.parse(source)

    def reads_pointer(node, aliases):
        return any(
            (isinstance(n, ast.Attribute) and n.attr in POINTERS)
            or (isinstance(n, ast.Name) and n.id in aliases)
            for n in ast.walk(node)
        )

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for t, v in pairs:
                    if reads_pointer(v, ()):
                        aliases |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reduceat"
        and any(reads_pointer(arg, aliases) for arg in [*node.args, *node.keywords])
    ]


def test_checker_finds_pointer_reductions():
    source = (
        "a = np.add.reduceat(x, view.succ_ptr[:-1])\n"
        "starts, other = view.row_ptr[:-1], 3\n"
        "b = np.maximum.reduceat(x, starts, axis=1)\n"
        "c = np.add.reduceat(x, other)\n"
        "d = np.add.reduceat(x, ptr[:-1])\n"
    )
    assert pointer_reductions(source) == [1, 3]


def test_package_modules_are_found():
    assert {"solve.py", "welfare.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pointer_reductions_outside_the_row_view(path):
    assert pointer_reductions(path.read_text()) == []
