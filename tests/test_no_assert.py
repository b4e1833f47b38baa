"""No invariant in the package rests on an assert.

`python -O` strips assert statements, so every check in src raises an
explicit exception instead. AssertionError is not raised by hand either:
the command line maps ValueError to exit 2 and ArithmeticError to exit 3,
and an AssertionError would end in a traceback.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heckebasis"


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_sources_are_found():
    assert {"cli.py", "modarith.py", "laurent.py"} <= {
        p.name for p in SRC.glob("*.py")
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_src(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_offences(tree)) == []


def test_checker_sees_both_forms():
    code = "assert x\nraise AssertionError('a')\nraise AssertionError\n"
    assert [what for _, what in _offences(ast.parse(code))] == [
        "assert statement",
        "raise AssertionError",
        "raise AssertionError",
    ]
