"""tools/search_times.py checks every verdict it times; tools/launch_times.py
prints one row per launch and stops on a launch that fails."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from mild2 import mildness

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(monkeypatch, name="search_times"):
    monkeypatch.setattr(sys, "path", sys.path[:])  # search_times.main() puts its --src tree first
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


@pytest.mark.parametrize("d", [3, 11])
def test_search_times_reads_the_d_limit_from_the_measured_tree(monkeypatch, capsys, d):
    monkeypatch.setattr(mildness, "MAX_ENUMERATION_D", 10)
    with pytest.raises(SystemExit) as exc:
        load_tool(monkeypatch).main(["--d", str(d), "--koch", "0", "--repeats", "1"])
    assert exc.value.code == 2
    assert "--d must lie in 4..10" in capsys.readouterr().err


def test_launch_times_prints_the_bare_launch_and_each_command(monkeypatch, capsys):
    tool = load_tool(monkeypatch, "launch_times")
    assert tool.main(["--repeats", "1"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    names = ["launch", "python -c pass", "--help", "present", "check-mild", "augment", "series"]
    assert [row[:16].rstrip() for row in rows] == names
    # the bare launch in ms, then each command's ms and its difference to the bare launch
    assert [len(row[16:].split()) for row in rows[1:]] == [1, 2, 2, 2, 2, 2]


def test_launch_times_stops_on_a_failing_launch(monkeypatch, tmp_path):
    (tmp_path / "mild2").mkdir()
    (tmp_path / "mild2" / "cli.py").write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(SystemExit, match=re.escape("-m mild2.cli --help: exit 3")):
        load_tool(monkeypatch, "launch_times").main(["--repeats", "1", "--src", str(tmp_path)])
