"""The benchmark's workloads and the fixed settings they share.

Each workload is one ``python -m repro all`` configuration.  Why each one
exists, and which layers it exercises or bypasses, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The CLI's default seed; the fidelity probe runs here unless told otherwise.
WORKLOAD_SEED = 2024
#: A seed no reference was tuned on, for checking a claim on fresh inputs.
HELD_OUT_SEED = 7

#: The grid step of the frozen fidelity references (``make_references.py``).
REFERENCE_STEP_S = 60.0
#: The interval scan step whose window count ``intervals.pass_recall`` divides by.
REFERENCE_SCAN_STEP_S = 10.0

#: Every workload's grid step and interval scan step: the CLI default.
STEP_S = 300.0

WEEK_S = 7 * 86400.0
DAY_S = 86400.0

#: ``repro.cli.EXPERIMENTS`` order; one operation per figure per invocation.
FIGURES = ("fig1a", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5", "fig6", "sharing")
#: The figures the fidelity probe regenerates.
FIDELITY_FIGURES = ("fig2", "fig3")

#: Reference horizons: (runs, duration) pairs the references are frozen for.
REFERENCE_HORIZONS = {
    "week-100": {"runs": 100, "duration_s": WEEK_S, "windows": False},
    "day-10": {"runs": 10, "duration_s": DAY_S, "windows": True},
}


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    runs: int
    duration_s: float
    parallel: int
    reference: str  # key into REFERENCE_HORIZONS

    def config_fields(self, seed: int) -> dict:
        """Keyword arguments of the program's ``ExperimentConfig``."""
        return {
            "runs": self.runs,
            "step_s": STEP_S,
            "seed": seed,
            "duration_s": self.duration_s,
            "parallel": self.parallel,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("grid-paper", "grid", 100, WEEK_S, 1, "week-100"),
        Workload("intervals-cli", "intervals", 10, DAY_S, 1, "day-10"),
        Workload("grid-parallel", "grid", 100, WEEK_S, 2, "week-100"),
    )
}
