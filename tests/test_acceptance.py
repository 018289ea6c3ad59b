"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with -s (or read the captured output) to see the lines.
"""

import pytest

from mild2 import acceptance


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"criterion_{k}" for k in range(1, 10)],
)
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.detail


def test_run_all_aggregates(capsys):
    # the programmatic entry point used by the selftest subcommand
    import sys

    ok = acceptance.run_all(stream=sys.stdout)
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln]
    assert ok is True
    assert len(lines) == 9
    assert all(line.startswith("PASS criterion") for line in lines)
