"""The README's examples give the outputs they state.

Every ``spin-kostka`` line of the CLI block runs through ``cli.main`` and
exits 0; a line that states its output as ``# -> value`` must print that
value.  Every line of the Library block but the import states its value
the same way, and must evaluate to it.
"""

import re
import shlex
from pathlib import Path

import pytest

from spinkostka import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, README.read_text(encoding="utf-8"), re.M | re.S)


def _split(line):
    """(code, stated output or None) of one example line."""
    code, _, comment = line.partition("#")
    stated = comment.strip()[3:].strip() if comment.strip().startswith("-> ") else None
    return code.strip(), stated


CLI_LINES = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("spin-kostka ")]
(LIBRARY,) = _blocks("python")


def test_the_examples_are_found():
    assert sum(_split(line)[1] is not None for line in CLI_LINES) >= 3
    assert LIBRARY.startswith("from spinkostka import ") and LIBRARY.count("# -> ") >= 4


@pytest.mark.parametrize("line", CLI_LINES, ids=lambda line: _split(line)[0])
def test_cli_example(line, capsys):
    code, stated = _split(line)
    assert cli.main(shlex.split(code)[1:]) == 0
    if stated is not None:
        assert capsys.readouterr().out == stated + "\n"


def test_library_example():
    first, *rest = [line for line in LIBRARY.splitlines() if line.strip()]
    namespace = {}
    exec(first, namespace)
    for line in rest:
        code, stated = _split(line)
        assert stated is not None, line
        assert str(eval(code, namespace)) == stated, line
