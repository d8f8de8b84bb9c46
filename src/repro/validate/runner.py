"""Validation orchestration: profiles, execution, and report rendering.

``python -m repro validate`` lands here.  Two profiles:

* **quick** — the CI-blocking gate: the 24 h propagator oracle at a coarse
  step, moderate visibility/packed oracles, a handful of fuzz trials per
  invariant, and every golden snapshot.  Target: tens of seconds.
* **full** — the pre-merge gate for performance PRs: the same oracles at
  finer steps and larger populations, and an order of magnitude more fuzz
  trials.  Target: under a minute.

Every check runs inside a ``validate.<check>`` span so ``--report`` (the
observability run report, schema'd via :mod:`repro.obs.report`) records
where validation time goes alongside the verdicts themselves (under
``extra.validation``, schema'd via :mod:`repro.validate.result`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.analysis.reporting import Table
from repro.obs import get_logger
from repro.obs.trace import span
from repro.validate import fuzz, goldens, oracles
from repro.validate.result import (
    STATUS_ERROR,
    CheckResult,
    ValidationReport,
)

_LOG = get_logger(__name__)

#: Default seed for the oracle and fuzz streams (the goldens carry their
#: own fixed seed inside :data:`repro.validate.goldens.GOLDEN_CONFIG`).
DEFAULT_SEED = 2024


@dataclass(frozen=True)
class ValidationProfile:
    """Sizing knobs of one validation tier."""

    name: str
    fuzz_trials: int
    propagator_satellites: int
    propagator_step_s: float
    visibility_satellites: int
    visibility_sites: int
    visibility_duration_s: float
    visibility_step_s: float
    packed_satellites: int
    packed_sites: int
    packed_subsets: int
    fused_satellites: int
    fused_sites: int
    fused_chunk_sizes: tuple
    intervals_satellites: int
    intervals_sites: int
    intervals_duration_s: float
    intervals_step_s: float


QUICK = ValidationProfile(
    name="quick",
    fuzz_trials=4,
    propagator_satellites=12,
    propagator_step_s=1_800.0,
    visibility_satellites=16,
    visibility_sites=5,
    visibility_duration_s=14_400.0,
    visibility_step_s=60.0,
    packed_satellites=32,
    packed_sites=6,
    packed_subsets=6,
    fused_satellites=24,
    fused_sites=4,
    fused_chunk_sizes=(1, 13, 1_000_000),
    intervals_satellites=12,
    intervals_sites=4,
    intervals_duration_s=14_400.0,
    intervals_step_s=120.0,
)

FULL = ValidationProfile(
    name="full",
    fuzz_trials=50,
    propagator_satellites=64,
    propagator_step_s=300.0,
    visibility_satellites=64,
    visibility_sites=12,
    visibility_duration_s=86_400.0,
    visibility_step_s=30.0,
    packed_satellites=128,
    packed_sites=12,
    packed_subsets=24,
    fused_satellites=96,
    fused_sites=8,
    fused_chunk_sizes=(1, 13, 64, 1_000_000),
    intervals_satellites=32,
    intervals_sites=8,
    intervals_duration_s=86_400.0,
    intervals_step_s=120.0,
)

PROFILES = {profile.name: profile for profile in (QUICK, FULL)}


def _run_check(name: str, thunk) -> CheckResult:
    """Execute one check under a span, converting crashes to error results."""
    start = time.perf_counter()
    with span(f"validate.{name}"):
        try:
            result = thunk()
        except Exception as error:  # A crashed check is a failed check.
            _LOG.exception("validation check %s crashed", name)
            result = CheckResult(
                name=name,
                status=STATUS_ERROR,
                details={"exception": f"{type(error).__name__}: {error}"},
            )
    result.elapsed_s = time.perf_counter() - start
    _LOG.info("%s: %s (%.2f s)", result.name, result.status, result.elapsed_s)
    return result


def run_validation(
    mode: str = "quick",
    seed: int = DEFAULT_SEED,
    update_goldens: bool = False,
) -> ValidationReport:
    """Run the oracle suite, the fuzz harness, and the golden gate.

    Args:
        mode: ``"quick"`` or ``"full"`` (see :data:`PROFILES`).
        seed: Root seed of the oracle/fuzz randomization streams.
        update_goldens: Rewrite the committed snapshots from this run
            instead of comparing against them.

    Raises:
        ValueError: On an unknown mode.
    """
    if mode not in PROFILES:
        raise ValueError(f"unknown validation mode {mode!r} (quick/full)")
    profile = PROFILES[mode]
    report = ValidationReport(mode=mode, seed=seed, goldens_updated=update_goldens)

    report.checks.append(
        _run_check(
            "oracle.propagator",
            lambda: oracles.check_propagator_agreement(
                seed,
                n_satellites=profile.propagator_satellites,
                step_s=profile.propagator_step_s,
            ),
        )
    )
    report.checks.append(
        _run_check(
            "oracle.visibility",
            lambda: oracles.check_visibility_oracle(
                seed,
                n_satellites=profile.visibility_satellites,
                n_sites=profile.visibility_sites,
                duration_s=profile.visibility_duration_s,
                step_s=profile.visibility_step_s,
            ),
        )
    )
    report.checks.append(
        _run_check(
            "oracle.packed",
            lambda: oracles.check_packed_agreement(
                seed,
                n_satellites=profile.packed_satellites,
                n_sites=profile.packed_sites,
                n_subsets=profile.packed_subsets,
            ),
        )
    )
    report.checks.append(
        _run_check(
            "oracle.fused",
            lambda: oracles.check_fused_agreement(
                seed,
                n_satellites=profile.fused_satellites,
                n_sites=profile.fused_sites,
                chunk_sizes=profile.fused_chunk_sizes,
            ),
        )
    )
    report.checks.append(
        _run_check(
            "oracle.intervals",
            lambda: oracles.check_interval_agreement(
                seed,
                n_satellites=profile.intervals_satellites,
                n_sites=profile.intervals_sites,
                duration_s=profile.intervals_duration_s,
                step_s=profile.intervals_step_s,
            ),
        )
    )

    for name in fuzz.INVARIANTS:
        report.checks.append(
            _run_check(
                f"fuzz.{name}",
                lambda name=name: fuzz.run_invariant(seed, name, profile.fuzz_trials),
            )
        )

    for name in goldens.GOLDEN_EXPERIMENTS:
        report.checks.append(
            _run_check(
                f"golden.{name}",
                lambda name=name: goldens.check_golden(name, update=update_goldens),
            )
        )
    return report


def _summarize_details(check: CheckResult) -> str:
    """One short human-readable cell per check for the summary table.

    Tolerates sparse details (a check may legitimately return fewer
    measurements than the full payload, e.g. when it bails out early).
    """
    details = check.details
    if check.status == STATUS_ERROR:
        return str(details.get("exception", "crashed"))
    if check.name == "oracle.propagator" and "max_error_m" in details:
        return (
            f"max error {details['max_error_m']:.2e} m "
            f"(< {details.get('threshold_m', '?')} m)"
        )
    if check.name == "oracle.visibility" and "disagreeing_samples" in details:
        return (
            f"{details['disagreeing_samples']} edge ties, "
            f"{details.get('interior_disagreements', '?')} interior, "
            f"max run {details.get('max_disagreement_run_steps', '?')} step(s)"
        )
    if check.name == "oracle.packed" and "selections" in details:
        return (
            f"{details['selections']} selections, "
            f"{len(details.get('mismatches', []))} mismatches"
        )
    if check.name == "oracle.fused" and "culled_pairs" in details:
        return (
            f"{len(details.get('chunk_sizes', []))} chunk sizes, "
            f"{details['culled_pairs']} pairs / "
            f"{details.get('culled_satellites', '?')} sats culled, "
            f"{len(details.get('mismatches', []))} mismatches"
        )
    if check.name == "oracle.intervals" and "contacts" in details:
        return (
            f"{details['contacts']} contacts, "
            f"{details.get('scheduling_comparisons', 0)} schedules, "
            f"{len(details.get('mismatches', []))} mismatches"
        )
    if check.name.startswith("fuzz.") and "trials" in details:
        return (
            f"{details['trials']} trials, "
            f"{len(details.get('failures', []))} failures"
        )
    if check.name.startswith("golden."):
        if details.get("updated"):
            return "snapshot rewritten"
        if "mismatches" in details:
            return (
                f"{details.get('fields_compared', '?')} fields, "
                f"{len(details['mismatches'])} drifted"
            )
        return str(details.get("error", ""))
    return ""


def render_validation_report(report: ValidationReport) -> None:
    """Print the human-facing summary table (stdout, like the figure tables)."""
    table = Table(
        f"repro validate --{report.mode} (seed {report.seed})",
        ["check", "status", "seconds", "summary"],
        precision=2,
    )
    for check in report.checks:
        table.add_row(
            check.name, check.status.upper(), check.elapsed_s,
            _summarize_details(check),
        )
    table.print()
    counts = report.counts
    print(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['error']} errored -> {'OK' if report.ok else 'FAILED'}"
    )
    for check in report.failures():
        for line in _failure_lines(check):
            print(f"  {check.name}: {line}")


def _failure_lines(check: CheckResult) -> List[str]:
    details = check.details
    if "mismatches" in details and details["mismatches"]:
        return [str(m) for m in details["mismatches"][:20]]
    if "config_mismatches" in details:
        return [str(m) for m in details["config_mismatches"][:20]]
    if "failures" in details and details["failures"]:
        return [
            f"trial {f['trial']}: {f['message']}" for f in details["failures"][:10]
        ]
    if "exception" in details:
        return [str(details["exception"])]
    if "error" in details:
        return [str(details["error"])]
    return [str(details)]
