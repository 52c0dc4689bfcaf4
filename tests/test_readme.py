"""The README's examples run as printed: every `biortho ...` line of its CLI
block exits 0, the first prints the JSON line shown below it, and the library
quick start executes."""

import re
import shlex
from pathlib import Path

import pytest

from biortho.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(heading):
    """Fenced code blocks of the README section under `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"```[a-z]*\n(.*?)\n\s*```",
                                            section, re.S)]


CLI_LINES = [line for line in _blocks("CLI")[0].splitlines()
             if line.startswith("biortho ")]


def test_cli_block_is_found():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out
    assert out
    if line == CLI_LINES[0]:
        assert out == _blocks("CLI")[1].strip() + "\n"


def test_library_quick_start_runs():
    (code,) = _blocks("Library quick start")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["exact"].reliable
