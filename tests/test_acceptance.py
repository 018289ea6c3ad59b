"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with -s (or read the captured output) to see the lines.
"""

import itertools
from types import SimpleNamespace

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


# criterion 4's FAIL texts past its 10 s, 60 s and 120 s limits; {s} is the seconds shown
E1, E2 = "(41, 13, 5, 3, 19)", "(5, 29, 7, 11, 3)"
PAST_10 = f"F2 oracle {E1} took {{s}}s >= 10s; F2 oracle {E2} took {{s}}s >= 10s; "
PAST_60 = (
    f"F2 oracle {E1} took {{s}}s >= 10s; F2pi oracle {E1} took {{s}}s >= 60s; "
    f"F2 oracle {E2} took {{s}}s >= 10s; F2pi oracle {E2} took {{s}}s >= 60s; "
)
PAST_120 = PAST_60 + "F2 degree-7 oracle took {s}s >= 120s; "


# every timed span lasts `seconds`, 0.01 s under or past one time limit; ""
# is a PASS, and any other detail the exact FAIL text
@pytest.mark.parametrize(
    "criterion, seconds, detail",
    [
        (acceptance.criterion_1, 0.99, ""),
        (acceptance.criterion_1, 1.01, "runtime 1.01s >= 1s; "),
        (acceptance.criterion_2, 0.99, ""),
        (acceptance.criterion_2, 1.01, "runtime 1.01s >= 1s; "),
        (acceptance.criterion_3, 2.99, ""),
        (acceptance.criterion_3, 3.01, "runtime 3.01s >= 3s; "),
        (acceptance.criterion_4, 9.99, ""),
        (acceptance.criterion_4, 10.01, PAST_10.format(s="10.0")),
        (acceptance.criterion_4, 59.99, PAST_10.format(s="60.0")),
        (acceptance.criterion_4, 60.01, PAST_60.format(s="60.0")),
        (acceptance.criterion_4, 119.99, PAST_60.format(s="120.0")),
        (acceptance.criterion_4, 120.01, PAST_120.format(s="120.0")),
        (acceptance.criterion_6, 4.99, ""),
        (acceptance.criterion_6, 5.01, "runtime 5.01s >= 5s; "),
        (acceptance.criterion_7, 29.99, ""),
        (acceptance.criterion_7, 30.01, "runtime 30.0s >= 30s; "),
        (acceptance.criterion_8, 9.99, ""),
        (acceptance.criterion_8, 10.01, "runtime 10.0s >= 10s; "),
        (acceptance.criterion_9, 29.99, ""),
        (acceptance.criterion_9, 30.01, "runtime 30.0s >= 30s; "),
    ],
)
def test_each_time_limit_fails_just_past_it_and_passes_just_under(monkeypatch, criterion, seconds, detail):
    ticks = itertools.count()
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * seconds))
    result = criterion()
    assert (result.ok, result.detail) == (detail == "", detail)
