"""Tests for validation orchestration (profiles, runner, rendering)."""

import pytest

from repro.validate import fuzz, goldens, oracles, runner
from repro.validate.result import STATUS_ERROR, passed
from repro.validate.runner import (
    FULL,
    PROFILES,
    QUICK,
    render_validation_report,
    run_validation,
)


class TestProfiles:
    def test_registry(self):
        assert PROFILES == {"quick": QUICK, "full": FULL}

    def test_full_is_strictly_heavier(self):
        assert FULL.fuzz_trials > QUICK.fuzz_trials
        assert FULL.propagator_satellites > QUICK.propagator_satellites
        assert FULL.propagator_step_s < QUICK.propagator_step_s
        assert FULL.visibility_step_s <= QUICK.visibility_step_s
        assert FULL.packed_subsets > QUICK.packed_subsets

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown validation mode"):
            run_validation(mode="medium")


@pytest.fixture
def stubbed_checks(monkeypatch):
    """Replace the expensive checks with instant pass-throughs."""
    calls = []

    def stub(name):
        def check(*args, **kwargs):
            calls.append((name, args, kwargs))
            return passed(name)

        return check

    monkeypatch.setattr(
        oracles, "check_propagator_agreement", stub("oracle.propagator")
    )
    monkeypatch.setattr(oracles, "check_visibility_oracle", stub("oracle.visibility"))
    monkeypatch.setattr(oracles, "check_packed_agreement", stub("oracle.packed"))
    monkeypatch.setattr(oracles, "check_fused_agreement", stub("oracle.fused"))
    monkeypatch.setattr(
        oracles, "check_interval_agreement", stub("oracle.intervals")
    )
    monkeypatch.setattr(
        fuzz, "run_invariant",
        lambda seed, name, trials: passed(f"fuzz.{name}", trials=trials),
    )
    monkeypatch.setattr(
        goldens, "check_golden",
        lambda name, update=False: passed(f"golden.{name}", updated=update),
    )
    return calls


class TestRunValidation:
    def test_check_order_and_names(self, stubbed_checks):
        report = run_validation(mode="quick", seed=3)
        names = [check.name for check in report.checks]
        expected = (
            ["oracle.propagator", "oracle.visibility", "oracle.packed",
             "oracle.fused", "oracle.intervals"]
            + [f"fuzz.{name}" for name in fuzz.INVARIANTS]
            + [f"golden.{name}" for name in goldens.GOLDEN_EXPERIMENTS]
        )
        assert names == expected
        assert report.ok
        assert report.mode == "quick"
        assert report.seed == 3

    def test_profile_sizes_reach_checks(self, stubbed_checks):
        run_validation(mode="full", seed=3)
        propagator = next(c for c in stubbed_checks if c[0] == "oracle.propagator")
        assert propagator[2]["n_satellites"] == FULL.propagator_satellites
        fuzz_checks = [c for c in stubbed_checks if c[0].startswith("fuzz")]
        assert not fuzz_checks  # fuzz goes through run_invariant, stubbed whole.

    def test_update_goldens_flag_propagates(self, stubbed_checks):
        report = run_validation(mode="quick", seed=3, update_goldens=True)
        assert report.goldens_updated
        for check in report.checks:
            if check.name.startswith("golden."):
                assert check.details["updated"]

    def test_crashed_check_becomes_error(self, stubbed_checks, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(oracles, "check_propagator_agreement", explode)
        report = run_validation(mode="quick", seed=3)
        crashed = report.checks[0]
        assert crashed.status == STATUS_ERROR
        assert "kaboom" in crashed.details["exception"]
        assert not report.ok
        assert report.counts["error"] == 1

    def test_elapsed_stamped(self, stubbed_checks):
        report = run_validation(mode="quick", seed=3)
        assert all(check.elapsed_s >= 0.0 for check in report.checks)


class TestRendering:
    def test_render_green_report(self, stubbed_checks, capsys):
        report = run_validation(mode="quick", seed=3)
        render_validation_report(report)
        out = capsys.readouterr().out
        assert "repro validate --quick (seed 3)" in out
        assert "-> OK" in out
        assert "oracle.propagator" in out

    def test_render_failure_details(self, stubbed_checks, monkeypatch, capsys):
        monkeypatch.setattr(
            goldens, "check_golden",
            lambda name, update=False: runner.CheckResult(
                name=f"golden.{name}", status="fail",
                details={"rtol": 1e-6, "atol": 1e-9, "fields_compared": 5,
                         "mismatches": ["values.x: 1 != golden 2"]},
            ),
        )
        report = run_validation(mode="quick", seed=3)
        render_validation_report(report)
        out = capsys.readouterr().out
        assert "-> FAILED" in out
        assert "values.x: 1 != golden 2" in out
        assert "5 fields, 1 drifted" in out

    def test_real_quick_run_summarizes_oracles(self, capsys):
        """One real (unstubbed) oracle row renders with its measurements."""
        check = oracles.check_propagator_agreement(
            seed=7, n_satellites=2, duration_s=3_600.0, step_s=1_200.0
        )
        assert "max error" in runner._summarize_details(check)
