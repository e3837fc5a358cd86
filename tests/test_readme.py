"""The README's example sessions, run and compared byte for byte.

A fenced block whose first line starts with ``$ treedensity`` is one session:
the rest of that line is the argv, split as a POSIX shell splits it, and the
block's remaining lines are the exact output the command must print.
"""

import re
import shlex
from pathlib import Path

import pytest

from treedensity.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SESSIONS = re.findall(
    r"^```\n\$ treedensity ([^\n]*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
)


def test_the_readme_has_example_sessions():
    assert len(SESSIONS) >= 3


@pytest.mark.parametrize("command, output", SESSIONS, ids=[c for c, _ in SESSIONS])
def test_a_readme_example_prints_what_the_readme_shows(capsys, command, output):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == output
