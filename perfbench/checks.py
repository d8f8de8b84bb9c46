"""Output checks: figure tables, fidelity against the frozen references, and
the classification of each operation as succeeded or failed.

One operation is one figure regeneration inside one invocation.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+|nan|inf)"
_TABLE_ROW = re.compile(rf"^\s*({_NUMBER})\s+({_NUMBER})(?:\s+{_NUMBER})*\s*$", re.I)
_SERIES_ROW = re.compile(rf"^\s*({_NUMBER})\s+->\s+({_NUMBER})\s*$", re.I)
_NON_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf)(?![\w.])", re.I)

#: Standard-error text the interpreter's shared-memory resource tracker
#: prints when a segment outlives its process.
LEAK_MARKERS = ("leaked shared_memory", "resource_tracker: There appear to be")


def parse_fig2(table: str) -> Dict[str, float]:
    """Fig. 2 table text -> {satellites: uncovered %} (first two columns)."""
    rows = {}
    for line in table.splitlines():
        match = _TABLE_ROW.match(line)
        if match:
            rows[str(int(float(match.group(1))))] = float(match.group(2))
    return rows


def parse_fig3(table: str) -> Dict[str, float]:
    """Fig. 3 series text -> {cities: mean idle %}."""
    rows = {}
    for line in table.splitlines():
        match = _SERIES_ROW.match(line)
        if match:
            rows[str(int(float(match.group(1))))] = float(match.group(2))
    return rows


def max_error(values: Dict[str, float], reference: Dict[str, float]) -> float:
    """Largest |value - reference| over the reference's keys (both in pp)."""
    if set(values) != set(reference):
        raise ValueError(
            f"points differ from the reference: {sorted(values)} vs {sorted(reference)}"
        )
    return max(abs(values[key] - reference[key]) for key in reference)


def table_agrees(table: Dict[str, float], values: Dict[str, float]) -> bool:
    """Whether printed values are the captured ones rounded to two places."""
    return set(table) == set(values) and all(
        abs(table[key] - values[key]) <= 0.005 + 1e-9 for key in values
    )


def table_problem(table: str, expected_lines: Optional[int]) -> Optional[str]:
    """Why a captured figure table is unusable, or None when it is complete."""
    lines = [line for line in table.splitlines() if line.strip()]
    if not lines:
        return "empty table"
    if expected_lines is not None and len(lines) != expected_lines:
        return f"incomplete table: {len(lines)} of {expected_lines} lines"
    if _NON_FINITE.search(table):
        return "non-finite value in table"
    return None


def classify(
    figures: Sequence[str],
    record: Optional[dict],
    exit_code: Optional[int],
    stderr: str,
    expected_lines: Dict[str, int],
    first_tables: Optional[Dict[str, str]] = None,
) -> List[Optional[str]]:
    """The failure reason of each operation of one invocation (None = ok).

    An operation fails on an exception, an incomplete or non-finite table, a
    worker lost while it ran, or a table that differs from the first
    invocation at the same seed.  A non-zero exit fails every operation of
    the invocation; shared memory left at exit fails its last operation.
    """
    reasons: List[Optional[str]] = []
    reported = {item["name"]: item for item in (record or {}).get("figures", [])}
    for name in figures:
        item = reported.get(name)
        if item is None:
            reasons.append(f"no result (exit code {exit_code})")
        elif item.get("error"):
            reasons.append("exception: " + item["error"].strip().splitlines()[-1])
        elif item.get("lost_workers"):
            reasons.append(f"{item['lost_workers']} worker(s) lost")
        else:
            problem = table_problem(item["table"], expected_lines.get(name))
            if problem is None and first_tables and name in first_tables:
                if first_tables[name] != item["table"]:
                    problem = "table differs from the first invocation at this seed"
            reasons.append(problem)
    if exit_code != 0:
        reasons = [r or f"exit code {exit_code}" for r in reasons]
    if reasons and any(marker in stderr for marker in LEAK_MARKERS):
        reasons[-1] = reasons[-1] or "shared memory leaked at exit"
    return reasons
