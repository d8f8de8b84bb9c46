"""Regenerate perfbench/references.json: the frozen fidelity references.

Run from the repository root (takes a few minutes, one process):

    python3 perfbench/make_references.py

What it freezes, for every reference horizon the workloads use and for the
default seed plus one held-out seed:

* Fig. 2 mean uncovered % per fleet size and Fig. 3 mean idle % per cities
  count on the *grid* engine at a fine step (``REFERENCE_STEP_S``), with the
  same runs and seed as the workload.  The grid is an unbiased sampler, so
  refining its step converges on the continuous-time answer; the evidence
  is the same run at half the step (``convergence``), whose largest
  difference from the reference is stored beside it.
* The number of contact windows a fine-step interval scan finds over the
  intervals workload's horizon, and the same at half that scan step.
  ``intervals.pass_recall`` divides the workload's window count by it.
* The line count of every figure table (the shape an operation's output
  must have to count as complete).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    HELD_OUT_SEED,
    REFERENCE_HORIZONS,
    REFERENCE_SCAN_STEP_S,
    REFERENCE_STEP_S,
    WORKLOAD_SEED,
)

OUTPUT = os.path.join(HERE, "references.json")


def _figures(runs: int, duration_s: float, step_s: float, seed: int):
    """Full-precision Fig. 2 / Fig. 3 values on a fresh grid-engine context."""
    from repro.experiments.common import ExperimentConfig, clear_caches
    from repro.experiments.fig2_coverage_vs_size import DEFAULT_SIZES, run_fig2
    from repro.experiments.fig3_idle_vs_cities import run_fig3

    clear_caches()
    config = ExperimentConfig(
        runs=runs, step_s=step_s, seed=seed, duration_s=duration_s
    )
    fig2 = run_fig2(config, sizes=DEFAULT_SIZES)
    fig3 = run_fig3(config)
    values = {
        "fig2": {str(p.satellites): p.mean_uncovered_percent for p in fig2.points},
        "fig3": {str(p.cities): p.mean_idle_percent for p in fig3.points},
    }
    clear_caches()
    return values


def _max_diff(a, b) -> float:
    return max(abs(a[key] - b[key]) for key in a)


def _windows(duration_s: float, scan_step_s: float) -> int:
    from repro.experiments.common import ALL_SITES, ExperimentConfig, starlink_pool
    from repro.orbits.propagator import BatchPropagator
    from repro.sim.intervals import find_contact_intervals

    config = ExperimentConfig(step_s=scan_step_s, duration_s=duration_s)
    sites = [
        city.terminal(min_elevation_deg=config.min_elevation_deg)
        for city in ALL_SITES
    ]
    propagator = BatchPropagator(starlink_pool(0).elements)
    return int(find_contact_intervals(propagator, sites, config.grid()).n_contacts)


def _table_lines():
    """Non-empty line count of every figure table (shape is config-free)."""
    from repro.cli import EXPERIMENTS
    from repro.experiments.common import ExperimentConfig, clear_caches

    config = ExperimentConfig(runs=1, step_s=600.0, duration_s=86400.0)
    lines = {}
    for name, runner in EXPERIMENTS.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            runner(config)
        lines[name] = sum(1 for line in buffer.getvalue().splitlines() if line.strip())
    clear_caches()
    return lines


def main() -> int:
    started = time.time()
    document = {
        "generated_by": "python3 perfbench/make_references.py",
        "reference_step_s": REFERENCE_STEP_S,
        "seeds": [WORKLOAD_SEED, HELD_OUT_SEED],
        "horizons": {},
        "table_lines": _table_lines(),
    }
    for key, horizon in REFERENCE_HORIZONS.items():
        runs, duration_s = horizon["runs"], horizon["duration_s"]
        entry = {"runs": runs, "duration_s": duration_s, "seeds": {}}
        for seed in (WORKLOAD_SEED, HELD_OUT_SEED):
            entry["seeds"][str(seed)] = _figures(runs, duration_s, REFERENCE_STEP_S, seed)
            print(f"{key} seed {seed}: done ({time.time() - started:.0f} s)", flush=True)
        half = _figures(runs, duration_s, REFERENCE_STEP_S / 2, WORKLOAD_SEED)
        reference = entry["seeds"][str(WORKLOAD_SEED)]
        entry["convergence"] = {
            "seed": WORKLOAD_SEED,
            "step_s": REFERENCE_STEP_S / 2,
            "fig2_max_diff_pp": _max_diff(reference["fig2"], half["fig2"]),
            "fig3_max_diff_pp": _max_diff(reference["fig3"], half["fig3"]),
        }
        if horizon.get("windows"):
            entry["windows"] = {
                "scan_step_s": REFERENCE_SCAN_STEP_S,
                "count": _windows(duration_s, REFERENCE_SCAN_STEP_S),
                "convergence": {
                    "scan_step_s": REFERENCE_SCAN_STEP_S / 2,
                    "count": _windows(duration_s, REFERENCE_SCAN_STEP_S / 2),
                },
            }
        document["horizons"][key] = entry
        print(f"{key}: converged ({time.time() - started:.0f} s)", flush=True)
    with open(OUTPUT, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT} in {time.time() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
