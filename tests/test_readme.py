"""The README's command-line examples, run through cli.main in process.

Every `heckebasis ...` line of the "Command line" code block runs; where
the README shows output under a line, stdout must equal it, a line
marked `# exit N` must exit N, and every other line must exit 0. Lines
that read input files the README does not ship are left out by name.
"""

import re
import shlex
from pathlib import Path

import pytest

from heckebasis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# Input files the examples name but the repository does not hold.
INPUT_FILES = {"matrix.json", "full.json", "root.json", "prime.json"}


def _examples():
    """(argv, shown stdout or None, expected exit) per command line."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    examples, current = [], None
    for line in block.splitlines():
        if line.startswith("heckebasis "):
            marker = re.search(r"#\s*exit (\d+)", line)
            words = shlex.split(line, comments=True)[1:]
            current = [words, [], int(marker.group(1)) if marker else 0]
            examples.append(current)
        elif line.strip():
            current[1].append(line)
    return [
        (argv, "".join(s + "\n" for s in shown) if shown else None, code)
        for argv, shown, code in examples
    ]


EXAMPLES = [
    ex for ex in _examples() if not INPUT_FILES.intersection(ex[0])
]


def test_the_block_is_parsed():
    every = _examples()
    assert len(every) - len(EXAMPLES) == 4  # the file-reading lines
    assert sum(out is not None for _, out, _ in EXAMPLES) == 6
    assert [code for _, _, code in EXAMPLES].count(2) == 1


@pytest.mark.parametrize(
    "argv, shown, code", EXAMPLES, ids=[" ".join(ex[0]) for ex in EXAMPLES]
)
def test_readme_example(argv, shown, code, capsys, tmp_path):
    assert main(argv + ["--cache-dir", str(tmp_path)]) == code
    out = capsys.readouterr().out
    if shown is not None:
        assert out == shown
