"""The README's examples run as written: its Python blocks run, and every
``scorecast`` line of its shell blocks parses."""
import re
import shlex
from pathlib import Path

import pytest

from scorecast.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
             for line in block.splitlines() if line.startswith("scorecast ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cli_lines():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
