"""README stays true: its commands run cleanly and its quick-start outputs are current."""

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mild2 import check_mild, cli, koch_presentation

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
COMMANDS = [
    line.split("#")[0].strip()
    for _, body in BLOCKS
    for line in body.splitlines()
    if line.startswith("mild2 ")
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def block_after(lang, body):
    """The code block that follows the first block of this language and body."""
    index = next(i for i, block in enumerate(BLOCKS) if block[0] == lang and block[1].strip() == body)
    return BLOCKS[index + 1][1]


def test_readme_commands_are_found():
    assert len(COMMANDS) == 10  # the CLI quick start, 8 more examples and selftest


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs_cleanly(command):
    code, _, err = run(shlex.split(command)[1:])
    assert (code, err) == (0, "")


def test_readme_library_quick_start_output():
    snippet = next(body for lang, body in BLOCKS if lang == "python")
    shown = block_after("python", snippet.strip())
    assert shown == check_mild(koch_presentation((41, 13, 5, 3, 19))).text() + "\n"


def test_readme_cli_quick_start_output():
    shown = block_after("sh", "mild2 check-mild --primes 41,13,5,3,19")
    code, out, _ = run(["check-mild", "--primes", "41,13,5,3,19"])
    assert code == 0 and json.loads(shown) == json.loads(out)
