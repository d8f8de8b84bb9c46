"""Fidelity from captured table text, and failure classification."""

import pytest

import checks

FIG2 = """
== Fig. 2: % time without coverage at Taipei (1 week) ==
satellites  uncovered %  mean max gap (h)
----------  -----------  ----------------
         1        99.50             30.09
       200        37.07              0.59
      2000         0.00              0.00
"""

FIG3 = """
== Fig. 3: satellite idle time vs cities served (1 week) ==
cities -> mean idle %
  1 -> 99.40
  2 -> 98.88
  21 -> 89.08
"""

LINES = {"fig2": 6, "fig3": 5}


def test_parse_fig2_and_fig3_tables():
    assert checks.parse_fig2(FIG2) == {"1": 99.50, "200": 37.07, "2000": 0.0}
    assert checks.parse_fig3(FIG3) == {"1": 99.40, "2": 98.88, "21": 89.08}


def test_fidelity_is_the_largest_gap_to_the_reference():
    reference = {"1": 99.45, "200": 36.86, "2000": 0.0}
    assert checks.max_error(checks.parse_fig2(FIG2), reference) == pytest.approx(0.21)
    reference3 = {"1": 99.40, "2": 98.90, "21": 87.00}
    assert checks.max_error(checks.parse_fig3(FIG3), reference3) == pytest.approx(2.08)


def test_fidelity_refuses_mismatched_points():
    with pytest.raises(ValueError):
        checks.max_error({"1": 1.0}, {"1": 1.0, "10": 2.0})


def test_printed_table_must_round_the_captured_values():
    printed = checks.parse_fig3(FIG3)
    assert checks.table_agrees(printed, {"1": 99.4012, "2": 98.8751, "21": 89.0849})
    assert not checks.table_agrees(printed, {"1": 99.4012, "2": 98.86, "21": 89.0849})
    assert not checks.table_agrees(printed, {"1": 99.4012, "2": 98.8751})


@pytest.mark.parametrize(
    "table, expected",
    [
        (FIG2, None),
        ("", "empty table"),
        (FIG2.replace("       200        37.07              0.59\n", ""), "incomplete table"),
        (FIG2.replace("37.07", "nan"), "non-finite"),
        (FIG2.replace("37.07", "-inf"), "non-finite"),
    ],
)
def test_table_problem(table, expected):
    problem = checks.table_problem(table, LINES["fig2"])
    if expected is None:
        assert problem is None
    else:
        assert expected in problem


def record(**overrides):
    figures = {
        "fig2": {"name": "fig2", "table": FIG2, "error": None, "lost_workers": 0},
        "fig3": {"name": "fig3", "table": FIG3, "error": None, "lost_workers": 0},
    }
    for name, change in overrides.items():
        figures[name].update(change)
    return {"figures": list(figures.values())}


def classify(rec, exit_code=0, stderr="", first=None):
    return checks.classify(("fig2", "fig3"), rec, exit_code, stderr, LINES, first)


def test_a_clean_invocation_has_no_failures():
    assert classify(record()) == [None, None]


def test_exception_and_lost_worker_fail_their_operation():
    rec = record(fig2={"error": "Traceback...\nValueError: bad size\n"},
                 fig3={"lost_workers": 1})
    reasons = classify(rec)
    assert reasons[0] == "exception: ValueError: bad size"
    assert reasons[1] == "1 worker(s) lost"


def test_non_zero_exit_fails_every_operation():
    reasons = classify(record(), exit_code=1)
    assert reasons == ["exit code 1", "exit code 1"]
    assert classify(None, exit_code=-9) == ["no result (exit code -9)"] * 2


def test_leak_at_exit_fails_the_last_operation():
    stderr = ("resource_tracker.py:254: UserWarning: resource_tracker: There appear "
              "to be 1 leaked shared_memory objects to clean up at shutdown")
    assert classify(record(), stderr=stderr) == [None, "shared memory leaked at exit"]


def test_a_table_that_changes_between_invocations_fails():
    first = {"fig2": FIG2, "fig3": FIG3.replace("98.88", "98.87")}
    assert classify(record(), first=first) == [
        None, "table differs from the first invocation at this seed"
    ]
