"""Only `laurent` sees a polynomial's term map.

Every other module of the package holds LaurentPoly values and works on
them through the class's own operators and accessors, so the canonical
form is stated and kept in one module. Outside laurent.py no module
reads a `._terms` attribute, or imports the term-map type `Terms` or a
kernel that computes on term maps.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heckebasis"

# The term-map names that laurent keeps to itself.
PRIVATE = {"Terms", "_combined", "_accumulate", "_canonical", "_demoted"}


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "_terms":
                yield node.lineno, "reads ._terms"
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
    assert list(_offences(tree)) == []


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
    )
    assert [what for _, what in sorted(_offences(ast.parse(code)))] == [
        "reads ._terms",
        "imports Terms",
        "imports _combined",
        "imports _accumulate",
        "reads laurent._canonical",
        "reads laurent._demoted",
    ]
