"""One invocation of the program: the ``python -m repro all`` path, from outside.

run.py starts this file as a child process, one per invocation, with a JSON
spec as its only argument.  It imports the program, builds the world through
``ExperimentContext`` exactly as the first figure of ``repro all`` would,
regenerates each figure in ``repro.cli.EXPERIMENTS`` order with its table
captured, tears the context down (worker pool joined, shared memory
unlinked) and prints one JSON record as its last line of standard output.

Spec keys: ``root`` (checkout root), ``config`` (``ExperimentConfig`` fields),
``engine``, ``figures`` (names to run; all when null), ``fidelity`` (capture
full-precision Fig. 2 / Fig. 3 values), ``trace`` (record layer spans) and
``spawned_at`` (the parent's ``time.monotonic()`` just before the spawn).
"""

import time

STARTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _world(context, config, engine: str) -> dict:
    """Build the engine's contact artifact as the first figure would; describe it.

    Parallel runs build it the same way: the runner shares it with its
    workers when the first pool scenario starts, as under the CLI.
    """
    context.pool(0)
    if engine != "intervals":
        context.visibility(config, 0)
        return {}
    contacts = context.contact_intervals(config, 0)
    closed = ~(contacts.truncated_start | contacts.truncated_end)
    durations = (contacts.set_s - contacts.rise_s)[closed]
    return {
        "windows": int(contacts.n_contacts),
        "shortest_window_s": float(durations.min()) if durations.size else 0.0,
    }


def _capture_results(store: dict) -> None:
    """Keep the full-precision Fig. 2 / Fig. 3 results the tables round."""
    from repro.experiments import fig2_coverage_vs_size as fig2
    from repro.experiments import fig3_idle_vs_cities as fig3

    run_fig2, run_fig3 = fig2.run_fig2, fig3.run_fig3

    def capture_fig2(*args, **kwargs):
        result = run_fig2(*args, **kwargs)
        store["fig2"] = {str(p.satellites): p.mean_uncovered_percent for p in result.points}
        return result

    def capture_fig3(*args, **kwargs):
        result = run_fig3(*args, **kwargs)
        store["fig3"] = {str(p.cities): p.mean_idle_percent for p in result.points}
        return result

    fig2.run_fig2, fig3.run_fig3 = capture_fig2, capture_fig3


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    record = {"started_at": STARTED_AT, "figures": []}

    import repro.cli as cli
    from repro.experiments.common import ExperimentConfig, default_context
    from repro.obs.bus import default_bus

    record["imported_at"] = time.monotonic()

    recorder = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    config = ExperimentConfig(**spec["config"])
    context = default_context()
    context.engine = spec["engine"]
    setup = recorder.begin("experiments.setup") if recorder else None
    record["world"] = _world(context, config, spec["engine"])
    if recorder:
        recorder.end(setup)
    record["ready_at"] = time.monotonic()

    fidelity = {}
    if spec["fidelity"]:
        _capture_results(fidelity)
    names = spec["figures"] or list(cli.EXPERIMENTS)
    bus = default_bus()
    for name in names:
        lost_before = len(bus.failed_workers)
        buffer = io.StringIO()
        error = None
        start = time.monotonic()
        figure = recorder.begin(f"experiments.{name}") if recorder else None
        try:
            with contextlib.redirect_stdout(buffer):
                cli.EXPERIMENTS[name](config)
        except Exception:
            error = traceback.format_exc()
        finally:
            if recorder:
                recorder.end(figure)
        record["figures"].append({
            "name": name,
            "start": start,
            "end": time.monotonic(),
            "table": buffer.getvalue(),
            "error": error,
            "lost_workers": len(bus.failed_workers) - lost_before,
        })
    record["fidelity"] = fidelity

    if recorder:
        import tracing

        record["trace"] = recorder.snapshot()
        record["trace"]["program_spans"] = [
            item.to_list() for item in tracing.program_spans()
        ]
        record["trace"]["program"] = tracing.program_telemetry()
    record["teardown_at"] = time.monotonic()
    print(json.dumps(record), flush=True)
    context.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
