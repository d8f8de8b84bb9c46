"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each invocation of the program is a fresh
child process (``invocation.py``) on the ``python -m repro all`` path; this
file starts them, measures them from outside and checks their output.

``--trace 0`` first runs the fidelity probe (Fig. 2 and Fig. 3 at the frozen
reference seed), then whole invocations at ``--seed`` until ``--seconds``
have passed (at least two), and reports medians of the end-to-end metrics.
``--trace 1`` runs traced, untraced, traced at ``--seed`` and reports the
per-layer metrics of the traced pair.  The last line of standard output is
the result object; the lines before it are diagnostics.  README.md says what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostinfo  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    FIDELITY_FIGURES,
    FIGURES,
    HELD_OUT_SEED,
    WORKLOAD_SEED,
    WORKLOADS,
    Workload,
)

#: No invocation starts if it would end later than this after the run began;
#: a run must finish within 180 s.
RUN_LIMIT_S = 165.0
#: Scratch files (child output, the written trace) live here, in the checkout.
SCRATCH = os.path.join(ROOT, ".perfbench")
INVOCATION = os.path.join(HERE, "invocation.py")


@dataclass
class Invocation:
    record: Optional[dict]
    exit_code: int
    stderr: str
    spawned_at: float
    exited_at: float
    maxrss_mib: float

    @property
    def ok(self) -> bool:
        return self.record is not None and self.exit_code == 0

    @property
    def wall(self) -> float:
        return self.exited_at - self.spawned_at


def _kill_group(pid: int) -> None:
    """Kill an invocation and every process it started (its session)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(
    workload: Workload,
    seed: int,
    deadline: float,
    figures=None,
    fidelity: bool = False,
    trace: bool = False,
) -> Invocation:
    """Run one child invocation to its exit; kill it at ``deadline``."""
    spec = {
        "root": ROOT,
        "config": workload.config_fields(seed),
        "engine": workload.engine,
        "figures": list(figures) if figures else None,
        "fidelity": fidelity,
        "trace": trace,
    }
    # The program's REPRO_* settings (kernel backend, log level, ring caps)
    # stay at their defaults: the benchmark measures the default program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    chunks: List[bytes] = []
    with tempfile.TemporaryFile(dir=SCRATCH) as out:
        spec["spawned_at"] = spawned_at = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, INVOCATION, json.dumps(spec)],
            stdout=out, stderr=subprocess.PIPE, cwd=ROOT, env=env,
            start_new_session=True,
        )
        # Standard error reaches end-of-file only when every process of the
        # invocation (pool workers, the shared-memory resource tracker) has
        # exited, so reading it to the end also waits for them and catches
        # the tracker's leak warning, which it prints after the main exit.
        reader = threading.Thread(target=lambda: chunks.append(process.stderr.read()))
        reader.start()
        timer = threading.Timer(max(0.0, deadline - spawned_at), _kill_group, (process.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
            exited_at = time.monotonic()
            reader.join(max(0.0, deadline - exited_at))
        finally:
            timer.cancel()
        if reader.is_alive():
            _kill_group(process.pid)
            reader.join()
        process.stderr.close()
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
    stderr = b"".join(chunks).decode(errors="replace")
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    if process.returncode != 0:
        sys.stderr.write(stderr[-4000:])
    return Invocation(
        record, process.returncode, stderr, spawned_at, exited_at, usage.ru_maxrss / 1024.0
    )


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _operations(invocations, expected_lines) -> List[Optional[str]]:
    """Failure reasons (None = ok) of every operation of ``(invocation, seed,
    figures)`` triples; tables must repeat between invocations at one seed."""
    reasons: List[Optional[str]] = []
    first: Dict[tuple, Dict[str, str]] = {}
    for inv, seed, figures in invocations:
        key = (seed, tuple(figures))
        reasons += checks.classify(
            figures, inv.record, inv.exit_code, inv.stderr, expected_lines, first.get(key)
        )
        if inv.ok and key not in first:
            first[key] = {item["name"]: item["table"] for item in inv.record["figures"]}
    return reasons


def timed_run(workload, args, references, deadline):
    """End-to-end metrics: the fidelity probe, then invocations for --seconds."""
    probe = invoke(workload, args.fidelity_seed, deadline, FIDELITY_FIGURES, fidelity=True)
    full: List[Invocation] = []
    started = time.monotonic()
    while len(full) < 2 or time.monotonic() - started < args.seconds:
        if full and (time.monotonic() + full[-1].wall > deadline or not full[-1].ok):
            break
        full.append(invoke(workload, args.seed, deadline))

    runs = [(probe, args.fidelity_seed, FIDELITY_FIGURES)]
    runs += [(inv, args.seed, FIGURES) for inv in full]
    reasons = _operations(runs, references["table_lines"])
    complete = [inv for inv in full if inv.ok]
    if not complete:
        return None, reasons, {}

    problems = []
    reference = references["horizons"][workload.reference]["seeds"][str(args.fidelity_seed)]
    errors = {"fig2_err_pp": 100.0, "fig3_err_pp": 100.0}  # worst case if unmeasured
    captured = probe.record.get("fidelity", {}) if probe.ok else {}
    if set(captured) == {"fig2", "fig3"}:
        try:
            errors["fig2_err_pp"] = checks.max_error(captured["fig2"], reference["fig2"])
            errors["fig3_err_pp"] = checks.max_error(captured["fig3"], reference["fig3"])
        except ValueError as error:
            problems.append(f"fidelity: {error}")
        tables = {item["name"]: item["table"] for item in probe.record["figures"]}
        for name, parse in (("fig2", checks.parse_fig2), ("fig3", checks.parse_fig3)):
            if not checks.table_agrees(parse(tables[name]), captured[name]):
                problems.append(f"printed {name} table disagrees with its result")
    else:
        problems.append("fidelity probe produced no Fig. 2 / Fig. 3 results")

    samples = {
        "setup_s": [inv.record["ready_at"] - inv.spawned_at for inv in [probe] + full if inv.ok],
        "query_s": [
            sum(item["end"] - item["start"] for item in inv.record["figures"])
            for inv in complete
        ],
        "total_s": [inv.wall for inv in complete],
        "peak_rss_mib": [inv.maxrss_mib for inv in complete],
    }
    values = {name: _median(series) for name, series in samples.items()}
    values.update(errors)
    extra = {"samples": samples, "problems": problems}
    return values, reasons, extra


def _traced_spans(inv: Invocation) -> List[tracing.Span]:
    """The invocation's spans, the program's phase spans and the process
    boundaries seen from here, nested into one tree."""
    record = inv.record
    spans = [tracing.Span.from_list(item) for item in record["trace"]["spans"]]
    spans += [tracing.Span.from_list(item) for item in record["trace"]["program_spans"]]
    spans += [
        tracing.Span("cli.invocation", inv.spawned_at, inv.exited_at, None),
        tracing.Span("cli.import", inv.spawned_at, record["imported_at"], None),
        tracing.Span("cli.teardown", record["teardown_at"], inv.exited_at, None),
    ]
    return tracing.nest(spans)


def traced_run(workload, args, references, deadline):
    """Per-layer metrics: traced, untraced and traced invocations at --seed."""
    order = (True, False, True)
    invocations = [invoke(workload, args.seed, deadline, trace=trace) for trace in order]
    reasons = _operations(
        [(inv, args.seed, FIGURES) for inv in invocations], references["table_lines"]
    )
    traced = [inv for inv, trace in zip(invocations, order) if trace and inv.ok]
    untraced = invocations[1]
    if not traced or not untraced.ok:
        return None, reasons, {}

    horizon = references["horizons"][workload.reference]
    reference_windows = horizon.get("windows", {}).get("count")
    per_invocation = []
    for inv in traced:
        spans = _traced_spans(inv)
        per_invocation.append((spans, tracing.layer_metrics(
            spans,
            inv.record["trace"]["counts"],
            inv.record["trace"]["maxima"],
            inv.record["trace"]["program"],
            inv.record["world"],
            reference_windows if workload.engine == "intervals" else None,
        )))
    metrics_list = [metrics for _, metrics in per_invocation]
    values = {key: _median([m[key] for m in metrics_list]) for key in metrics_list[0]}
    values["obs.trace_overhead_s"] = _median([inv.wall for inv in traced]) - untraced.wall

    problems = []
    if len(metrics_list) == 2:
        for key in tracing.REPEATING_COUNTS:
            first, second = metrics_list[0][key], metrics_list[1][key]
            if first != second:
                problems.append(f"count {key} did not repeat: {first} vs {second}")
    spans, metrics = per_invocation[0]
    layers = tracing.self_by_layer(spans)
    breakdown = {
        "self_s_by_layer": layers,
        "sum_s": sum(layers.values()),
        "traced_total_s": metrics["obs.traced_total_s"],
    }
    absent = sorted(set(traced[0].record["trace"]["absent"]))
    zero = sorted(key for key, value in values.items() if value == 0.0)
    notes = {
        "absent_targets": absent,
        "zero_metrics": zero,
        "zero_means": "the layer did not run on this workload (see README.md)",
    }
    path = os.path.join(SCRATCH, f"trace-{workload.name}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump([item.to_list() for item in spans], handle)
    extra = {
        "samples": {"traced_total_s": [inv.wall for inv in traced],
                    "untraced_total_s": [untraced.wall]},
        "trace_breakdown": breakdown,
        "notes": notes,
        "problems": problems,
        "trace_file": os.path.relpath(path, ROOT),
    }
    return values, reasons, extra


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=WORKLOAD_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fidelity-seed", type=int, choices=(WORKLOAD_SEED, HELD_OUT_SEED),
        default=WORKLOAD_SEED,
        help="seed of the fidelity probe: the default, or the held-out seed "
        "for checking a claim on inputs no change was tuned on",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under src/repro next to the benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    with open(os.path.join(HERE, "references.json")) as handle:
        references = json.load(handle)
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    os.makedirs(SCRATCH, exist_ok=True)
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    before = hostinfo.snapshot()

    run = traced_run if args.trace else timed_run
    values, reasons, extra = run(workload, args, references, started + RUN_LIMIT_S)
    if values is None:
        print("perfbench: no invocation completed; see the errors above", file=sys.stderr)
        return 1

    extra["diagnostics"] = hostinfo.summary(before, hostinfo.snapshot())
    extra["failures"] = [reason for reason in reasons if reason]
    for key, value in extra.items():
        print(json.dumps({key: value}))
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {
        item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
        for item in declared_metrics
    }
    failed = sum(1 for reason in reasons if reason)
    print(json.dumps({
        "correct": failed == 0 and not extra["problems"],
        "attempted": len(reasons),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
