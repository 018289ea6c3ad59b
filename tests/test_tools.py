"""tools/search_times.py checks every verdict it times."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mild2 import mildness

TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_times.py"


def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # main() puts its --src tree first
    spec = importlib.util.spec_from_file_location("search_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_search_times_reports_each_case(monkeypatch, capsys):
    assert load_tool(monkeypatch).main(["--d", "4", "--d", "5", "--koch", "18", "--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert [row[:3] for row in rows[1:]] == [["worst", "d=4", "17"], ["worst", "d=5", "33"], ["koch", "x18", "15764"]]


@pytest.mark.parametrize("answer", [True, False])
def test_search_times_exits_on_a_wrong_verdict(monkeypatch, answer):
    # always True finds a witness in the worst case; always False loses the
    # witnesses of the Koch sets that have one
    monkeypatch.setattr(mildness, "rank_criterion", lambda relators, part: answer)
    argv = ["--d", "4", "--koch", "0"] if answer else ["--d", "4", "--koch", "18"]
    with pytest.raises(SystemExit, match="expected no witness" if answer else "a maximal valid S passes"):
        load_tool(monkeypatch).main(argv + ["--repeats", "1"])
