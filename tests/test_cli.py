"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.obs.export import SIM_PID, SPAN_PID, validate_chrome_trace


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.runs == 10
        assert args.step == 300.0
        assert args.seed == 2024
        assert args.duration == pytest.approx(7 * 86400.0)
        assert args.log_level is None
        assert args.metrics_out is None
        assert args.profile is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig5", "--runs", "3", "--step", "600", "--seed", "1"]
        )
        assert args.runs == 3
        assert args.step == 600.0
        assert args.seed == 1

    def test_parallel_defaults_to_one(self):
        args = build_parser().parse_args(["fig2"])
        assert args.parallel == 1

    def test_parallel_flag_parses(self):
        args = build_parser().parse_args(["fig3", "--parallel", "4"])
        assert args.parallel == 4

    def test_parallel_flows_into_config(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args(["fig2", "--parallel", "2"])
        assert _config_from_args(args).parallel == 2

    @pytest.mark.parametrize("flag", ["--parallel", "--runs"])
    @pytest.mark.parametrize("bad", ["0", "-1", "two"])
    def test_positive_int_flags_rejected_at_parse_time(self, flag, bad, capsys):
        """Bad --runs/--parallel values must exit 2, never traceback."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig2", flag, bad])
        assert exc_info.value.code == 2
        assert "python -m repro list" in capsys.readouterr().err

    def test_observability_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig2", "--duration", "86400", "--log-level", "DEBUG",
                "--metrics-out", "run.json", "--profile", "run.pstats",
                "--trace-out", "trace.json", "--track-memory",
            ]
        )
        assert args.duration == 86400.0
        assert args.log_level == "DEBUG"
        assert args.metrics_out == "run.json"
        assert args.profile == "run.pstats"
        assert args.trace_out == "trace.json"
        assert args.track_memory is True

    def test_trace_flags_default_off(self):
        args = build_parser().parse_args(["fig2"])
        assert args.trace_out is None
        assert args.track_memory is False

    def test_engine_flag_parses(self):
        assert build_parser().parse_args(["fig2"]).engine == "grid"
        args = build_parser().parse_args(["fig2", "--engine", "intervals"])
        assert args.engine == "intervals"

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig2", "--engine", "octree"])
        assert exc_info.value.code == 2

    def test_engine_flag_reaches_default_context(self, monkeypatch):
        """--engine intervals flips the context knob before the experiment
        runs, mirroring --chunk-size (never entering ExperimentConfig)."""
        from repro import cli
        from repro.experiments import common
        from repro.experiments.common import ExperimentContext

        scratch = ExperimentContext()
        monkeypatch.setattr(common, "_DEFAULT_CONTEXT", scratch)
        seen = {}
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig2",
            lambda config: seen.setdefault("engine", scratch.engine),
        )
        assert main(["fig2", "--engine", "intervals"]) == 0
        assert seen["engine"] == "intervals"

    def test_live_telemetry_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig2", "--live-status", "--metrics-format", "openmetrics",
                "--timeline-cap", "4096",
            ]
        )
        assert args.live_status is True
        assert args.metrics_format == "openmetrics"
        assert args.timeline_cap == 4096

    def test_live_telemetry_flags_default_off(self):
        args = build_parser().parse_args(["fig2"])
        assert args.live_status is False
        assert args.metrics_format == "json"
        assert args.timeline_cap is None

    def test_metrics_format_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(
                ["fig2", "--metrics-format", "prometheus-protobuf"]
            )
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("bad", ["0", "-8", "many"])
    def test_timeline_cap_rejects_non_positive(self, bad, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig2", "--timeline-cap", bad])
        assert exc_info.value.code == 2

    def test_bench_compare_parses(self):
        args = build_parser().parse_args(
            ["bench-compare", "a.json", "b.json", "--threshold", "1.5"]
        )
        assert args.command == "bench-compare"
        assert args.bench_a == "a.json"
        assert args.bench_b == "b.json"
        assert args.threshold == 1.5
        assert args.report_only is False

    def test_bench_compare_requires_two_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-compare", "a.json"])

    def test_bench_compare_history_parses(self):
        args = build_parser().parse_args(
            ["bench-compare", "--history", "a.json", "b.json", "c.json", "d.json"]
        )
        assert args.history is True
        assert args.bench_a == "a.json"
        assert args.bench_b == "b.json"
        assert args.bench_more == ["c.json", "d.json"]

    def test_obs_diff_parses(self):
        args = build_parser().parse_args(["obs", "diff", "a.json", "b.json"])
        assert args.command == "obs"
        assert args.obs_command == "diff"
        assert args.report_a == "a.json"
        assert args.report_b == "b.json"

    def test_obs_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["obs"])
        assert exc_info.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_command_message_is_usable(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig99"])
        assert exc_info.value.code != 0
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err
        assert "python -m repro list" in captured.err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        names = out.split("\n\n")[0].split()
        assert set(names) == set(EXPERIMENTS)

    def test_list_mentions_observability_flags(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for flag in (
            "--log-level", "--metrics-out", "--profile", "--duration",
            "--parallel",
        ):
            assert flag in out

    def test_parallel_worker_count_lands_in_run_report(self, capsys, tmp_path):
        """--parallel plumbs into ExperimentConfig and the run report."""
        import json

        path = tmp_path / "run.json"
        assert main(
            [
                "fig4c", "--runs", "1", "--step", "600",
                "--parallel", "2", "--metrics-out", str(path),
            ]
        ) == 0
        report = json.loads(path.read_text())
        assert report["config"]["parallel"] == 2

    def test_fig4c_runs(self, capsys):
        """fig4c is the cheapest experiment (no pool propagation)."""
        assert main(["fig4c", "--runs", "1", "--step", "600"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4c" in out
        assert "inclination" in out

    def test_fig4b_runs(self, capsys):
        assert main(["fig4b", "--runs", "1", "--step", "600"]) == 0
        out = capsys.readouterr().out
        assert "best offset" in out

    def test_metrics_out_writes_run_report(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--metrics-out", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["command"] == "fig4c"
        assert report["config"]["runs"] == 1
        assert report["config"]["step_s"] == 600.0
        assert report["seed"] == 2024
        assert "experiment.fig4c" in report["span_stats"]
        assert "sim.engine.sessions" in report["metrics"]["counters"]
        assert "experiments.visibility_cache.hits" in report["metrics"]["counters"]

    def test_profile_writes_pstats(self, capsys, tmp_path):
        path = tmp_path / "run.pstats"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--profile", str(path)]
        ) == 0
        assert path.exists() and path.stat().st_size > 0

    def test_duration_flag_shrinks_horizon(self, capsys):
        """A one-day fig4b run must parse and complete (smaller grid)."""
        assert main(
            ["fig4b", "--runs", "1", "--step", "900", "--duration", "86400"]
        ) == 0
        assert "best offset" in capsys.readouterr().out

    def test_tables_stay_on_stdout_with_logging_enabled(self, capsys):
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--log-level", "INFO"]
        ) == 0
        captured = capsys.readouterr()
        assert "Fig. 4c" in captured.out
        assert "Fig. 4c" not in captured.err

    def test_output_flags_create_missing_parent_dirs(self, capsys, tmp_path):
        """Nested output paths must be created, not rejected."""
        metrics = tmp_path / "reports" / "nested" / "run.json"
        trace = tmp_path / "traces" / "trace.json"
        pstats = tmp_path / "profiles" / "run.pstats"
        assert main(
            [
                "fig4c", "--runs", "1", "--step", "600",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
                "--profile", str(pstats),
            ]
        ) == 0
        assert metrics.exists()
        assert trace.exists()
        assert pstats.exists()

    def test_openmetrics_exposition_parses(self, capsys, tmp_path):
        """--metrics-format openmetrics writes a valid text exposition."""
        from repro.obs.expose import parse_openmetrics

        path = tmp_path / "metrics.om"
        assert main(
            [
                "fig4c", "--runs", "1", "--step", "600",
                "--metrics-out", str(path), "--metrics-format", "openmetrics",
            ]
        ) == 0
        text = path.read_text()
        families = parse_openmetrics(text)
        assert text.endswith("# EOF\n")
        assert any(name.startswith("sim_") for name in families)

    def test_live_status_lands_in_run_report_bus_section(
        self, capsys, tmp_path
    ):
        """--live-status keeps bus.live truthful in the report (sticky flag)."""
        from repro.obs.bus import default_bus

        path = tmp_path / "run.json"
        try:
            assert main(
                [
                    "fig4c", "--runs", "1", "--step", "600",
                    "--live-status", "--metrics-out", str(path),
                ]
            ) == 0
        finally:
            default_bus().reset()
        report = json.loads(path.read_text())
        assert report["schema"] == 3
        assert report["bus"]["live"] is True
        assert report["bus"]["frames_total"] > 0
        assert report["bus"]["failed_workers"] == []

    def test_timeline_cap_flows_into_report(self, capsys, tmp_path):
        from repro.obs import timeline as obs_timeline

        original = obs_timeline.TIMELINE.capacity
        path = tmp_path / "run.json"
        try:
            assert main(
                [
                    "fig4c", "--runs", "1", "--step", "600",
                    "--timeline-cap", "4096", "--metrics-out", str(path),
                ]
            ) == 0
            report = json.loads(path.read_text())
            assert report["timeline"]["capacity"] == 4096
        finally:
            obs_timeline.resize(original)

    def test_obs_diff_cli_round_trip(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--metrics-out", str(path)]
        ) == 0
        assert main(["obs", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "run diff: fig4c vs fig4c" in out

    def test_bench_compare_history_cli(self, capsys, tmp_path):
        def record(wall_s):
            return {
                "schema": 2,
                "figures": {"fig2": {"wall_s": wall_s}},
                "span_stats": {},
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            }

        paths = []
        for index, wall_s in enumerate([4.0, 2.0, 1.0]):
            path = tmp_path / f"bench{index}.json"
            path.write_text(json.dumps(record(wall_s)))
            paths.append(str(path))
        assert main(["bench-compare", "--history"] + paths) == 0
        assert "bench history" in capsys.readouterr().out
        # Three records without --history is a usage error, not a crash.
        with pytest.raises(SystemExit) as exc_info:
            main(["bench-compare"] + paths)
        assert exc_info.value.code == 2

    def test_track_memory_fills_report_memory_section(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            [
                "fig4c", "--runs", "1", "--step", "600",
                "--track-memory", "--metrics-out", str(path),
            ]
        ) == 0
        report = json.loads(path.read_text())
        assert report["memory"]["tracemalloc"] is True
        assert report["memory"]["sampled_spans"] > 0
        assert report["memory"]["peak_kb"] > 0.0


class TestTraceOut:
    def test_fig2_trace_round_trips_with_satellite_tracks(
        self, capsys, tmp_path
    ):
        """Acceptance: a fig2 run with --trace-out yields a valid Chrome
        trace with at least one satellite track, one contact slice, and the
        wall-clock spans."""
        from repro.experiments import common
        from repro.obs import timeline as obs_timeline
        from repro.obs import trace as obs_trace

        obs_timeline.reset()
        obs_trace.reset()  # Keep the span ring from overflowing mid-session.
        path = tmp_path / "trace.json"
        try:
            assert main(
                [
                    "fig2", "--runs", "1", "--step", "1800",
                    "--duration", "86400", "--trace-out", str(path),
                ]
            ) == 0
        finally:
            common.clear_caches()
            obs_timeline.reset()
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        events = document["traceEvents"]
        contacts = [e for e in events if e.get("name") == "contact"]
        assert contacts, "no contact slices in the trace"
        satellite_subjects = {e["args"]["subject"] for e in contacts}
        assert satellite_subjects, "no satellite tracks"
        track_labels = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["pid"] == SIM_PID and "tid" in e
        }
        assert satellite_subjects & track_labels
        span_names = {
            e["name"] for e in events if e["ph"] == "X" and e["pid"] == SPAN_PID
        }
        assert "experiment.fig2" in span_names

    def test_bench_compare_cli_exit_codes(self, capsys, tmp_path):
        def record(wall_s):
            return {
                "schema": 2,
                "figures": {"fig2": {"wall_s": wall_s}},
                "span_stats": {},
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            }

        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(record(1.0)))
        slow.write_text(json.dumps(record(2.0)))
        assert main(["bench-compare", str(base), str(base)]) == 0
        assert main(["bench-compare", str(base), str(slow)]) == 1
        assert main(
            ["bench-compare", str(base), str(slow), "--report-only"]
        ) == 0
        assert main(
            ["bench-compare", str(base), str(slow), "--threshold", "2.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out


class TestTeardown:
    def test_parallel_run_leaves_no_shared_memory_behind(self):
        """The CLI unlinks the segments it published before exiting."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "fig2", "--runs", "2",
                "--parallel", "2", "--duration", "86400",
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr
        assert "leaked shared_memory" not in result.stderr
