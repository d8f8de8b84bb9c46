"""Command-line interface: regenerate any paper figure from the shell.

Usage::

    python -m repro fig2 --runs 10 --step 300
    python -m repro fig5 --log-level INFO --metrics-out run.json
    python -m repro all --parallel 4
    python -m repro list

Each subcommand runs the corresponding experiment at the requested fidelity
and prints the same rows the paper's figure reports (see EXPERIMENTS.md for
the reference configuration and measured-vs-paper numbers).  Figure tables
go to stdout; diagnostics go through the ``repro.*`` logger hierarchy
(``--log-level`` / ``REPRO_LOG``), and ``--metrics-out`` writes a JSON run
report with span timings, counters, and the exact configuration + seed.
``--trace-out`` additionally writes a Chrome trace-event file of the run's
spans and simulation timeline, loadable in Perfetto (https://ui.perfetto.dev).

``--live-status`` streams periodic progress lines (per-scenario ETA,
worker health from heartbeats) to stderr while the experiment runs —
with ``--parallel N`` the workers publish frames over the telemetry bus
(:mod:`repro.obs.bus`) and a SIGKILLed worker is detected and recovered
instead of hanging the run.  ``--metrics-format openmetrics`` switches
``--metrics-out`` from the JSON run report to the OpenMetrics text
exposition (:mod:`repro.obs.expose`).

Beyond the figures there are three utility subcommands::

    python -m repro bench-compare BENCH_A.json BENCH_B.json [--threshold 1.25]
    python -m repro bench-compare --history BENCH_PR1.json BENCH_PR3.json ...
    python -m repro obs diff A.json B.json
    python -m repro validate [--quick|--full] [--update-goldens] [--report FILE]

``bench-compare`` diffs two benchmark records (see benchmarks/) and exits
non-zero on a wall-clock regression past the threshold; with ``--history``
it renders a chain of records as a per-figure wall-time trajectory table
instead.  ``obs diff`` compares two ``--metrics-out`` run reports (spans,
counters, cache/cull ratios, timeline drops; see :mod:`repro.obs.diff`).
``validate`` runs the differential oracle suite, the seeded property-fuzz
harness, and the golden-figure regression gates (see :mod:`repro.validate`),
exiting non-zero on any red check; ``--report`` writes the schema'd
validation verdicts inside an observability run report.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.reporting import Series, Table
from repro.constants import WEEK_S
from repro.experiments.common import ExperimentConfig
from repro.obs import configure_logging, get_logger, write_run_report
from repro.obs.trace import profile, span, track_memory

_LOG = get_logger(__name__)

#: Observability flags shared by every subcommand, shown by ``list``.
OBSERVABILITY_FLAGS = (
    ("--log-level", "diagnostic verbosity (DEBUG..CRITICAL; also REPRO_LOG env)"),
    ("--metrics-out", "write a JSON run report (spans, counters, config, seed)"),
    ("--metrics-format", "run-report format: json (default) or openmetrics"),
    ("--live-status", "stream live progress lines (ETA, worker health) to stderr"),
    ("--profile", "dump cProfile stats for the run to a .pstats file"),
    ("--trace-out", "write a Chrome trace-event JSON (open in Perfetto)"),
    ("--track-memory", "sample tracemalloc peaks per span (adds overhead)"),
    ("--timeline-cap", "simulation-timeline ring capacity (also REPRO_TIMELINE_CAP)"),
)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        runs=args.runs,
        step_s=args.step,
        seed=args.seed,
        duration_s=args.duration,
        parallel=args.parallel,
    )


def _run_fig2(config: ExperimentConfig) -> None:
    from repro.experiments.fig2_coverage_vs_size import DEFAULT_SIZES, run_fig2

    result = run_fig2(config, sizes=DEFAULT_SIZES)
    table = Table(
        "Fig. 2: % time without coverage at Taipei (1 week)",
        ["satellites", "uncovered %", "mean max gap (h)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(
            point.satellites,
            point.mean_uncovered_percent,
            point.mean_max_gap_s / 3600.0,
        )
    table.print()


def _run_fig3(config: ExperimentConfig) -> None:
    from repro.experiments.fig3_idle_vs_cities import run_fig3

    result = run_fig3(config)
    series = Series(
        "Fig. 3: satellite idle time vs cities served (1 week)",
        "cities",
        "mean idle %",
        precision=2,
    )
    for point in result.points:
        series.add_point(point.cities, point.mean_idle_percent)
    series.print()


def _run_fig4a(config: ExperimentConfig) -> None:
    from repro.experiments.fig4a_single_addition import run_fig4a

    result = run_fig4a(config)
    table = Table(
        "Fig. 4a: weighted coverage gain from one added satellite",
        ["base size", "mean gain (h)", "max gain (h)"],
        precision=3,
    )
    for point in result.points:
        table.add_row(point.base_satellites, point.mean_gain_hours, point.max_gain_hours)
    table.print()


def _run_fig4b(config: ExperimentConfig) -> None:
    from repro.experiments.fig4b_phase_sweep import run_fig4b

    result = run_fig4b(config)
    series = Series(
        "Fig. 4b: coverage gain vs phase offset", "offset (deg)", "gain (h)",
        precision=3,
    )
    for point in result.points:
        series.add_point(point.phase_offset_deg, point.gain_hours)
    series.print()
    print(f"best offset: {result.best_offset_deg():.1f} deg")


def _run_fig4c(config: ExperimentConfig) -> None:
    from repro.experiments.fig4c_design_factors import run_fig4c

    result = run_fig4c(config)
    table = Table(
        "Fig. 4c: coverage gain by design factor", ["factor", "gain (min)"],
        precision=1,
    )
    for label, gain in result.ranking():
        table.add_row(label, gain * 60.0)
    table.print()


def _run_fig5(config: ExperimentConfig) -> None:
    from repro.experiments.fig5_withdrawal import DEFAULT_SIZES, run_fig5

    result = run_fig5(config, sizes=DEFAULT_SIZES)
    table = Table(
        "Fig. 5: coverage loss when half the satellites withdraw",
        ["L", "loss %", "lost time (h/week)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(point.satellites, point.mean_reduction_percent, point.mean_lost_hours)
    table.print()


def _run_fig6(config: ExperimentConfig) -> None:
    from repro.experiments.fig6_party_skew import DEFAULT_SKEWS, run_fig6

    result = run_fig6(config, skews=DEFAULT_SKEWS)
    table = Table(
        "Fig. 6: coverage loss when the largest of 11 parties exits",
        ["skew", "largest party sats", "loss %", "lost (h/week)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(
            point.skew,
            point.largest_party_satellites,
            point.mean_reduction_percent,
            point.mean_lost_hours,
        )
    table.print()


def _run_fig1a(config: ExperimentConfig) -> None:
    from repro.orbits.elements import OrbitalElements
    from repro.orbits.groundtrack import (
        compute_ground_track,
        nodal_shift_deg_per_orbit,
    )

    elements = OrbitalElements.from_degrees(altitude_km=546.0, inclination_deg=53.0)
    track = compute_ground_track(elements, 3 * 3600.0, step_s=min(config.step_s, 30.0))
    table = Table(
        "Fig. 1a: 3-hour ground track of one 53 deg / 546 km satellite",
        ["metric", "value"],
        precision=2,
    )
    table.add_row("orbital period (min)", elements.period_s / 60.0)
    table.add_row("max |latitude| (deg)", track.max_latitude_deg)
    table.add_row("westward node shift per orbit (deg)",
                  nodal_shift_deg_per_orbit(elements))
    table.print()


def _run_sharing(config: ExperimentConfig) -> None:
    from repro.experiments.sharing_upside import run_sharing_upside

    result = run_sharing_upside(config)
    upside = result.upside
    table = Table(
        "Sec. 2 claim: the MP-LEO sharing upside", ["metric", "value"],
        precision=3,
    )
    table.add_row("alone coverage (50 sats)", upside.alone_coverage_fraction)
    table.add_row("shared coverage (1000 sats)", upside.shared_coverage_fraction)
    table.add_row("equivalent go-it-alone sats", upside.equivalent_alone_satellites)
    table.add_row("satellite multiplier", upside.satellite_multiplier)
    table.print()


EXPERIMENTS: Dict[str, Callable[[ExperimentConfig], None]] = {
    "fig1a": _run_fig1a,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4a": _run_fig4a,
    "fig4b": _run_fig4b,
    "fig4c": _run_fig4c,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "sharing": _run_sharing,
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors point users at ``python -m repro list``."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        hint = "run 'python -m repro list' to see available experiments and flags"
        self.exit(2, f"{self.prog}: error: {message}\n{hint}\n")


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (``--runs``, ``--parallel``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    """Fidelity + observability flags shared by every experiment subcommand."""
    parser.add_argument(
        "--runs", type=_positive_int, default=10,
        help="Monte-Carlo runs per point (default: 10; paper: 100)",
    )
    parser.add_argument(
        "--step", type=float, default=300.0,
        help="time step in seconds (default: 300)",
    )
    parser.add_argument(
        "--seed", type=int, default=2024, help="random seed (default: 2024)"
    )
    parser.add_argument(
        "--duration", type=float, default=WEEK_S, metavar="SECONDS",
        help="experiment horizon in seconds (default: one week)",
    )
    parser.add_argument(
        "--parallel", type=_positive_int, default=1, metavar="N",
        help="Monte-Carlo worker processes (default: 1 = in-process); "
        "results are identical for every N — per-run seeds are "
        "order-independent",
    )
    parser.add_argument(
        "--chunk-size", type=_positive_int, default=None, metavar="SAMPLES",
        help="time samples per streaming visibility slab (default: 64); "
        "peak build memory scales with it, results do not — streaming is "
        "chunk-invariant bit for bit",
    )
    parser.add_argument(
        "--engine", default="grid", choices=("grid", "intervals"),
        help="contact engine: 'grid' reduces the packed visibility tensor; "
        "'intervals' reduces analytic (rise, set) windows refined by "
        "root-finding (default: grid); an execution knob like --chunk-size — "
        "both engines sample identical satellite subsets",
    )
    parser.add_argument(
        "--kernel-backend", default=None, choices=("numpy", "numba"),
        metavar="NAME",
        help="kernel backend for the hot reductions: 'numpy' (default) or "
        "'numba' (JIT-compiled; requires numba installed); also settable "
        "via the REPRO_KERNEL_BACKEND env var; an execution knob like "
        "--engine — every backend is bit-identical by contract "
        "(enforced by 'repro validate')",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL", type=str.upper,
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="diagnostic log level: DEBUG, INFO, WARNING, ERROR, CRITICAL "
        "(default: WARNING, or the REPRO_LOG env var)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write a JSON run report (spans, counters, config, seed) to FILE",
    )
    parser.add_argument(
        "--metrics-format", default="json", choices=("json", "openmetrics"),
        help="--metrics-out format: the JSON run report (default) or an "
        "OpenMetrics text exposition of the metrics registry",
    )
    parser.add_argument(
        "--live-status", action="store_true",
        help="stream periodic progress lines (per-scenario ETA, worker "
        "health via heartbeats) to stderr while the experiment runs; with "
        "--parallel N, workers stream telemetry frames live over the bus",
    )
    parser.add_argument(
        "--timeline-cap", type=_positive_int, default=None, metavar="EVENTS",
        help="simulation-timeline ring capacity (default: 65536, or the "
        "REPRO_TIMELINE_CAP env var); raise it when the run report warns "
        "about dropped timeline events",
    )
    parser.add_argument(
        "--profile", default=None, metavar="FILE",
        help="profile the run with cProfile and dump stats to FILE (.pstats)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the run (spans + simulation "
        "timeline) to FILE; open it in Perfetto or chrome://tracing",
    )
    parser.add_argument(
        "--track-memory", action="store_true",
        help="sample tracemalloc peak memory per span (folded into the "
        "--metrics-out report; adds measurable overhead)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Regenerate figures from 'A Call for Decentralized "
        "Satellite Networks' (HotNets '24).",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list available experiments and common flags"
    )

    for name in EXPERIMENTS:
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        _add_common_arguments(sub)

    all_sub = subparsers.add_parser("all", help="run every experiment")
    _add_common_arguments(all_sub)

    bench = subparsers.add_parser(
        "bench-compare",
        help="diff two benchmark records and flag wall-clock regressions",
    )
    bench.add_argument("bench_a", metavar="BENCH_A.json",
                       help="baseline benchmark record")
    bench.add_argument("bench_b", metavar="BENCH_B.json",
                       help="candidate benchmark record")
    bench.add_argument(
        "bench_more", metavar="BENCH_N.json", nargs="*",
        help="further records for --history (chronological order)",
    )
    bench.add_argument(
        "--history", action="store_true",
        help="render all records as a per-figure wall-time trajectory "
        "table (informational, exits 0) instead of the pairwise gate",
    )
    bench.add_argument(
        "--threshold", type=float, default=1.25, metavar="RATIO",
        help="fail when a figure's wall-clock ratio (new/base) exceeds "
        "this (default: 1.25)",
    )
    bench.add_argument(
        "--min-wall-s", type=float, default=0.01, metavar="SECONDS",
        help="ignore figures faster than this in the candidate record "
        "(default: 0.01)",
    )
    bench.add_argument(
        "--report-only", action="store_true",
        help="print the comparison but always exit 0",
    )

    obs = subparsers.add_parser(
        "obs", help="observability tooling over run-report artifacts"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_sub.add_parser(
        "diff",
        help="compare two --metrics-out run reports (spans, counters, "
        "cache/cull ratios, timeline drops)",
    )
    obs_diff.add_argument("report_a", metavar="A.json",
                          help="baseline run report")
    obs_diff.add_argument("report_b", metavar="B.json",
                          help="comparison run report")

    validate = subparsers.add_parser(
        "validate",
        help="run oracle cross-checks, property fuzzing, and golden gates",
    )
    tier = validate.add_mutually_exclusive_group()
    tier.add_argument(
        "--quick", dest="mode", action="store_const", const="quick",
        help="CI-sized tier: coarse oracles, few fuzz trials (default)",
    )
    tier.add_argument(
        "--full", dest="mode", action="store_const", const="full",
        help="pre-merge tier for perf PRs: fine oracles, many fuzz trials",
    )
    validate.set_defaults(mode="quick")
    validate.add_argument(
        "--update-goldens", action="store_true",
        help="rewrite the committed golden snapshots from this run "
        "(review the JSON diff before committing)",
    )
    validate.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="root seed of the oracle/fuzz streams (default: 2024; the "
        "goldens always use their own committed configuration)",
    )
    validate.add_argument(
        "--report", default=None, metavar="FILE",
        help="write an observability run report with the validation "
        "verdicts under extra.validation",
    )
    validate.add_argument(
        "--log-level", default=None, metavar="LEVEL", type=str.upper,
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="diagnostic log level (default: WARNING, or REPRO_LOG)",
    )
    return parser


def _run_validate(args: argparse.Namespace) -> int:
    from repro.validate import DEFAULT_SEED, render_validation_report, run_validation
    from repro.validate.goldens import GOLDEN_CONFIG

    seed = DEFAULT_SEED if args.seed is None else args.seed
    with span("validate"):
        report = run_validation(
            mode=args.mode, seed=seed, update_goldens=args.update_goldens
        )
    render_validation_report(report)
    if args.report:
        parent = os.path.dirname(os.path.abspath(args.report))
        if parent:
            os.makedirs(parent, exist_ok=True)
        document = write_run_report(
            args.report,
            command="validate",
            config=GOLDEN_CONFIG,
            extra={"validation": report.to_dict()},
        )
        _LOG.info(
            "validation report written to %s (%d checks, %d spans)",
            args.report, len(report.checks), len(document["spans"]),
        )
    return 0 if report.ok else 1


def _run_list() -> int:
    for name in EXPERIMENTS:
        print(name)
    print()
    print(
        "common flags (every experiment): "
        "--runs --step --seed --duration --parallel --chunk-size --engine "
        "--kernel-backend"
    )
    print("observability flags:")
    for flag, description in OBSERVABILITY_FLAGS:
        print(f"  {flag:14s}{description}")
    print()
    print(
        "utility subcommands: bench-compare (perf gate), "
        "validate --quick|--full [--update-goldens] (correctness gate)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        return _run_list()

    if args.command == "bench-compare":
        from repro.obs.bench import run_bench_compare, run_bench_history

        configure_logging(getattr(args, "log_level", None))
        if args.history:
            return run_bench_history(
                [args.bench_a, args.bench_b] + list(args.bench_more)
            )
        if args.bench_more:
            parser.error(
                "bench-compare takes exactly two records unless --history"
            )
        return run_bench_compare(
            args.bench_a,
            args.bench_b,
            threshold=args.threshold,
            min_wall_s=args.min_wall_s,
            report_only=args.report_only,
        )

    if args.command == "obs":
        from repro.obs.diff import run_obs_diff

        configure_logging(getattr(args, "log_level", None))
        return run_obs_diff(args.report_a, args.report_b)

    if args.command == "validate":
        configure_logging(args.log_level)
        return _run_validate(args)

    configure_logging(args.log_level)
    config = _config_from_args(args)
    if getattr(args, "chunk_size", None):
        # An execution knob like --parallel, not part of ExperimentConfig:
        # streaming is chunk-invariant, so it must not enter cache keys or
        # the golden config contract.
        from repro.experiments.common import default_context

        default_context().chunk_size = args.chunk_size
    if getattr(args, "engine", "grid") != "grid":
        # Same contract as --chunk-size: the engine switch changes how
        # contacts are computed, never which samples are drawn, so it stays
        # out of ExperimentConfig and the golden config contract.
        from repro.experiments.common import default_context

        default_context().engine = args.engine
    if getattr(args, "kernel_backend", None):
        # Same contract as --engine: backends change how the hot loops are
        # executed, never what they compute (bit-identity is enforced by
        # the oracle.backends validation check), so the choice stays out
        # of ExperimentConfig and the golden config contract.
        from repro.sim import backends

        try:
            backends.set_default_backend(args.kernel_backend)
        except RuntimeError as error:  # e.g. numba not installed
            parser.error(str(error))
    if getattr(args, "timeline_cap", None):
        from repro.obs import timeline as obs_timeline

        obs_timeline.resize(args.timeline_cap)
    live_bus = None
    if getattr(args, "live_status", False):
        from repro.obs.bus import default_bus

        live_bus = default_bus()
        live_bus.enable_live()
    for path in (args.metrics_out, args.profile, args.trace_out):
        parent = os.path.dirname(os.path.abspath(path)) if path else None
        if parent:
            os.makedirs(parent, exist_ok=True)
    _LOG.info("running %s with %s", args.command, config)

    try:
        with track_memory(args.track_memory):
            try:
                with profile(args.profile):
                    if args.command == "all":
                        for name, runner in EXPERIMENTS.items():
                            print(f"\n### {name} ###")
                            with span(f"experiment.{name}"):
                                runner(config)
                    else:
                        with span(f"experiment.{args.command}"):
                            EXPERIMENTS[args.command](config)
            finally:
                if live_bus is not None:
                    live_bus.disable_live()

            if args.metrics_out:
                if args.metrics_format == "openmetrics":
                    from repro.obs.expose import write_openmetrics

                    text = write_openmetrics(args.metrics_out)
                    _LOG.info(
                        "openmetrics exposition written to %s (%d lines)",
                        args.metrics_out, text.count("\n"),
                    )
                else:
                    report = write_run_report(
                        args.metrics_out, command=args.command, config=config
                    )
                    _LOG.info(
                        "run report written to %s (%d spans, %d counters, "
                        "%d timeline events)",
                        args.metrics_out, len(report["spans"]),
                        len(report["metrics"]["counters"]),
                        len(report["timeline"]["events"]),
                    )
        if args.trace_out:
            from repro.obs.export import write_chrome_trace

            document = write_chrome_trace(args.trace_out)
            _LOG.info(
                "chrome trace written to %s (%d events)",
                args.trace_out, len(document["traceEvents"]),
            )
        if args.profile:
            _LOG.info("profile written to %s", args.profile)
    finally:
        # Join the worker pool and unlink the shared-memory segments the
        # run published; left to interpreter exit they trip the resource
        # tracker's leaked-segment warning.
        from repro.experiments.common import default_context

        default_context().clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
