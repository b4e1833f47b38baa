"""Only `laurent` sees a polynomial's term map or the bit layout of a
packed value.

Every other module of the package holds LaurentPoly values and works on
them through the class's own operators, accessors and public
constructor, so the canonical form is stated and kept in one module.
Outside laurent.py no module reads a `._terms` attribute, imports the
term-map type `Terms` or a kernel that computes on term maps, or uses
the unchecked `LaurentPoly._of`. `hecke` and `reps` compute on packed
values but never shift one: `laurent._packed` and `_unpacked` alone
place the digits.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from heckebasis.laurent import LaurentPoly, _cleared

SRC = Path(__file__).resolve().parents[1] / "src" / "heckebasis"

# The term-map names that laurent keeps to itself.
PRIVATE = {"Terms", "_combined", "_accumulate", "_canonical", "_demoted"}

# The modules that compute on packed values, whose layout laurent keeps.
PACKERS = {"hecke.py", "reps.py"}


def _offences(tree, packer=False):
    for node in ast.walk(tree):
        if packer and isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.LShift):
                yield node.lineno, "shifts with <<"
        if isinstance(node, ast.Attribute):
            if node.attr == "_terms":
                yield node.lineno, "reads ._terms"
            elif node.attr == "_of" and (
                getattr(node.value, "id", None) == "LaurentPoly"
                or getattr(node.value, "attr", None) == "LaurentPoly"
            ):
                yield node.lineno, "uses LaurentPoly._of"
            elif (
                node.attr in PRIVATE
                and isinstance(node.value, ast.Name)
                and node.value.id == "laurent"
            ):
                yield node.lineno, f"reads laurent.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).rpartition(".")[2] == "laurent":
            for alias in node.names:
                if alias.name in PRIVATE:
                    yield node.lineno, f"imports {alias.name}"


def _modules():
    return sorted(p for p in SRC.glob("*.py") if p.name != "laurent.py")


def test_sources_are_found():
    assert {"reps.py", "hecke.py", "modarith.py"} <= {p.name for p in _modules()}


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_term_map_outside_laurent(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_offences(tree, path.name in PACKERS)) == []


def test_checker_sees_each_form():
    code = (
        "x = p._terms\n"
        "from .laurent import LaurentPoly, Terms, _combined\n"
        "from heckebasis.laurent import _accumulate as acc\n"
        "from . import laurent\n"
        "y = laurent._canonical(x)\n"
        "z = laurent._demoted\n"
        "from .hecke import _canonical\n"
        "w = p.terms, LaurentPoly._terms_of, other._combined\n"
        "v = LaurentPoly._of(t), laurent.LaurentPoly._of, HeckeElement._of(d)\n"
        "n = 1 << k, n >> k\n"
        "n <<= k\n"
    )
    tree = ast.parse(code)
    assert [what for _, what in sorted(_offences(tree, packer=True))] == [
        "reads ._terms",
        "imports Terms",
        "imports _combined",
        "imports _accumulate",
        "reads laurent._canonical",
        "reads laurent._demoted",
        "uses LaurentPoly._of",
        "uses LaurentPoly._of",
        "shifts with <<",
        "shifts with <<",
    ]
    # a shift is an offence only in a module that packs
    assert "shifts with <<" not in {what for _, what in _offences(tree)}


def test_cleared_hands_out_no_term_map():
    # (D, lo, hi, norms) as ints and a list of ints, whatever the
    # coefficients: the l1 norm of D p is D times that of p
    u = LaurentPoly.monomial
    polys = [u(-1, Fraction(1, 2)) + u(2, Fraction(-2, 3)), u(1, 3), u(0, 0)]
    cleared = _cleared(polys)
    assert cleared == (6, -1, 2, [7, 18, 0])
    assert _cleared(iter(polys[1:])) == (1, 1, 1, [3, 0])
    assert _cleared([]) == (1, 0, 0, [])
    for *ints, norms in (cleared, _cleared(polys[1:]), _cleared([])):
        assert type(norms) is list
        assert {type(n) for n in ints + norms} == {int}
