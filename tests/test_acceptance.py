"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with -s (or read the captured output) to see the lines.
"""

import itertools
import sys
from types import SimpleNamespace

import pytest

from mild2 import acceptance, cli


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"criterion_{k}" for k in range(1, 10)],
)
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.detail


def test_registry_lists_the_nine_criteria_in_order():
    names = [f"criterion_{k}" for k in range(1, 10)]
    assert [check.__name__ for check in acceptance.CRITERIA] == names
    assert acceptance.CRITERIA == [getattr(acceptance, name) for name in names]


def test_run_all_aggregates(monkeypatch, capsys):
    # three stub criteria, the second failing: one line each, in order, and
    # one failure fails run_all and the selftest subcommand
    def stub(number, detail):
        return lambda: acceptance.CriterionResult(number, f"stub {number}", not detail, detail, 0.0)

    monkeypatch.setattr(acceptance, "CRITERIA", [stub(1, ""), stub(2, "broken; "), stub(3, "")])
    lines = [
        "PASS criterion 1: stub 1 (0.00s) ",
        "FAIL criterion 2: stub 2 (0.00s) broken; ",
        "PASS criterion 3: stub 3 (0.00s) ",
    ]
    assert acceptance.run_all(sys.stdout) is False
    assert capsys.readouterr().out.splitlines() == lines
    assert cli.main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == lines


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
