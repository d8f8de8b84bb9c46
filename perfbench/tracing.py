"""Spans recorded from outside the program, and the layer numbers they give.

The traced invocation wraps the public functions of each layer (named after
the program's modules) in a recorder.  Every call becomes one span: name,
start, end and the span that was open when it started.  Counts are taken at
the same boundaries.  Spans stay in memory and leave the process once, in
the invocation record.

Self time is a span's duration minus what its direct children cover, so the
self times of every span plus the root's own remainder add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from workloads import FIGURES

MIB = float(1 << 20)


class Span:
    """One finished (or, while recording, open) call."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent]

    @classmethod
    def from_list(cls, item: Sequence) -> "Span":
        return cls(item[0], item[1], item[2], item[3])


# -- span trees ----------------------------------------------------------------


def nest(spans: List[Span]) -> List[Span]:
    """Re-derive every span's parent from time containment.

    Spans of one thread nest, so the innermost span that contains another is
    the one that was open when it started.  Used after spans from a second
    source (the program's own tracer) are merged in.  Returns the spans
    ordered by start, outermost first on ties, with ``parent`` as an index
    into that order.
    """
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    stack: List[int] = []
    for index, item in enumerate(ordered):
        while stack and ordered[stack[-1]].end < item.end:
            stack.pop()
        item.parent = stack[-1] if stack else None
        stack.append(index)
    return ordered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [item.duration for item in spans]
    for item in spans:
        if item.parent is not None:
            own[item.parent] -= item.duration
    return own


def self_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for item, own in zip(spans, self_times(spans)):
        totals[item.name] += own
    return dict(totals)


def self_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer (the span-name prefix before the dot)."""
    totals: Dict[str, float] = defaultdict(float)
    for name, own in self_by_name(spans).items():
        totals[name.split(".", 1)[0]] += own
    return dict(totals)


# -- recording -----------------------------------------------------------------


class Recorder:
    """Records spans and counts around wrapped calls, in memory."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, function: Callable, count: Optional[Callable] = None):
        """``function`` recorded as span ``name``; ``count(recorder, args,
        result)`` runs after the span closes."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end(index)
            if count is not None:
                count(recorder, args, result)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def patch(self, target: str, name: str, count: Optional[Callable] = None) -> bool:
        """Wrap ``module:attr`` or ``module:Class.method`` in place.

        A module-level function is also replaced in every loaded ``repro``
        module that imported it by name.  A target that does not exist is
        listed in ``absent`` and left alone, so the benchmark keeps running
        when a later version of the program moves a function.
        """
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            if getattr(raw.__func__, "__perfbench_wrapped__", False):
                return True
            setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, count)))
            return True
        if getattr(raw, "__perfbench_wrapped__", False):
            return True
        wrapped = self.wrap(name, raw, count)
        setattr(owner, attr, wrapped)
        if not outer:
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is raw
                ):
                    setattr(module, attr, wrapped)
        return True

    def snapshot(self) -> dict:
        return {
            "spans": [item.to_list() for item in self.spans],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "absent": list(self.absent),
        }


# -- the layer boundaries ------------------------------------------------------


def _count_propagate(rec: Recorder, args, result) -> None:
    rec.counts["orbits.propagate_samples"] += float(result.shape[0] * result.shape[1])


def _count_refine(rec: Recorder, args, result) -> None:
    rec.counts["orbits.refine_samples"] += float(result.shape[0])


def _count_threshold(rec: Recorder, args, result) -> None:
    import numpy as np

    dots = args[1]
    rec.counts["kernels.threshold_elements"] += float(dots.size)
    rec.counts["kernels.visible_bits"] += float(np.count_nonzero(result))
    slab = (dots.nbytes + result.nbytes) / MIB
    rec.maxima["kernels.slab_mib"] = max(rec.maxima["kernels.slab_mib"], slab)


def _count_pack(rec: Recorder, args, result) -> None:
    rec.counts["visibility.packed_mib"] += result.packed.nbytes / MIB


def _count_popcount(rec: Recorder, args, result) -> None:
    rec.counts["visibility.popcount_mib"] += args[1].nbytes / MIB


def _count_query(key: str) -> Callable:
    def count(rec: Recorder, args, result) -> None:
        rec.counts[key] += 1.0

    return count


def _count_events(rec: Recorder, args, result) -> None:
    rec.counts["intervals.events"] += 2.0 * args[0].size


#: (target, span name, count hook).  Span names are ``<layer>.<what>``; the
#: layer is the program module the function belongs to.
BOUNDARIES = (
    ("repro.constellation.shells:starlink_like_constellation", "constellation.pool", None),
    ("repro.orbits.propagator:BatchPropagator.unit_positions_eci_unspanned",
     "orbits.propagate", _count_propagate),
    ("repro.orbits.propagator:BatchPropagator.unit_positions_at",
     "orbits.refine", _count_refine),
    ("repro.sim.backends:NumpyBackend.threshold_slab", "kernels.threshold", _count_threshold),
    ("repro.sim.visibility:packed_visibility", "visibility.pack", _count_pack),
    ("repro.sim.backends:NumpyBackend.or_popcount", "visibility.popcount", _count_popcount),
    *(
        (f"repro.sim.visibility:PackedVisibility.{method}", "visibility.query", None)
        for method in ("coverage_fractions", "satellite_active_fractions",
                       "site_mask", "site_masks", "satellite_masks")
    ),
    ("repro.sim.kernels.subsets:SubsetQuery.build", "subsets.build", None),
    ("repro.sim.kernels.subsets:SubsetQuery.from_visibility", "subsets.build", None),
    *(
        (f"repro.sim.kernels.subsets:SubsetQuery.{method}", "subsets.reduce",
         _count_query("subsets.queries"))
        for method in ("coverage_fractions", "satellite_active_fractions",
                       "visible_counts", "k_coverage_fraction")
    ),
    ("repro.sim.intervals:find_contact_intervals", "intervals.find", None),
    ("repro.sim.intervals:ContactIntervals.restrict", "intervals.restrict", None),
    *(
        (f"repro.sim.intervals:ContactIntervals.{method}", "intervals.query",
         _count_query("intervals.queries"))
        for method in ("coverage_fractions", "satellite_active_fractions",
                       "visible_count_steps", "site_union", "satellite_union")
    ),
    ("repro.sim.intervals:grouped_union_seconds", "intervals.sort", _count_events),
    ("repro.sim.intervals:sweep_count_steps", "intervals.sort", _count_events),
    ("repro.sim.backends:NumpyBackend.sweep_accumulate", "intervals.sweep", None),
    ("repro.runner.monte_carlo:MonteCarloRunner.collect", "runner.collect", None),
    ("repro.runner.monte_carlo:MonteCarloRunner._run_in_process", "runner.task", None),
    ("repro.runner.pool:PersistentPool.__init__", "runner.spawn", None),
    ("repro.runner.pool:PersistentPool.map", "runner.wait", None),
    ("repro.runner.shared:ensure_shared_visibility", "runner.share", None),
    ("repro.runner.shared:ensure_shared_intervals", "runner.share", None),
)

#: Program spans read back from its own tracer, for phases of a fused loop
#: that cannot be wrapped from outside.
PROGRAM_SPANS = ("intervals.scan", "intervals.refine")


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary, and each scenario's ``run_one`` lazily."""
    for target, name, count in BOUNDARIES:
        recorder.patch(target, name, count)
    try:
        from repro.runner.monte_carlo import MonteCarloRunner
    except ImportError:
        return
    collect = MonteCarloRunner.collect

    @functools.wraps(collect)
    def collect_wrapping_scenario(self, scenario, *args, **kwargs):
        kind = type(scenario)
        run_one = inspect.getattr_static(kind, "run_one", None)
        if inspect.isfunction(run_one) and not getattr(run_one, "__perfbench_wrapped__", False):
            kind.run_one = recorder.wrap("experiments.run_one", run_one)
        return collect(self, scenario, *args, **kwargs)

    collect_wrapping_scenario.__perfbench_wrapped__ = True
    MonteCarloRunner.collect = collect_wrapping_scenario


def program_spans() -> List[Span]:
    """The program tracer's records of :data:`PROGRAM_SPANS`, on this clock."""
    from repro.obs import trace

    tracer = trace.TRACER
    epoch = time.monotonic() - tracer.now_s()
    return [
        Span(record.name, epoch + record.start_s,
             epoch + record.start_s + record.duration_s, None)
        for record in tracer.records
        if record.name in PROGRAM_SPANS
    ]


def program_telemetry() -> dict:
    """Counters and per-name span aggregates from the program's own registry."""
    from repro.obs import metrics, trace

    return {"counters": metrics.snapshot()["counters"], "stats": trace.stats()}


# -- per-layer metrics ---------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Span],
    counts: Dict[str, float],
    maxima: Dict[str, float],
    program: dict,
    world: dict,
    reference_windows: Optional[int],
) -> Dict[str, float]:
    """The per-layer numbers of one traced invocation.

    ``spans`` are nested (see :func:`nest`) and include the root span
    ``cli.invocation`` plus ``cli.import`` / ``cli.teardown`` and the
    ``experiments.<figure>`` spans; ``program`` is
    :func:`program_telemetry`'s output; ``world`` describes the contact
    artifact (window count, shortest window).
    """
    own = self_by_name(spans)
    inclusive: Dict[str, float] = defaultdict(float)
    for item in spans:
        inclusive[item.name] += item.duration
    counters = program.get("counters", {})
    stats = program.get("stats", {})

    def c(name: str) -> float:
        return float(counters.get(name, 0.0))

    spawned, reused = c("runner.pool.spawned"), c("runner.pool.reused")
    hits, misses = c("experiments.subset_cache.hits"), c("experiments.subset_cache.misses")
    elements = counts.get("kernels.threshold_elements", 0.0)
    refined_edges = c("sim.intervals.refined_edges")
    windows = float(world.get("windows", 0))

    out = {
        "cli.import_s": inclusive.get("cli.import", 0.0),
        "cli.teardown_s": inclusive.get("cli.teardown", 0.0),
        "constellation.pool_s": own.get("constellation.pool", 0.0),
        "orbits.propagate_s": own.get("orbits.propagate", 0.0),
        "orbits.propagate_samples": counts.get("orbits.propagate_samples", 0.0),
        "orbits.refine_s": own.get("orbits.refine", 0.0),
        "orbits.refine_samples": counts.get("orbits.refine_samples", 0.0),
        "kernels.threshold_s": own.get("kernels.threshold", 0.0),
        "kernels.threshold_elements": elements,
        "kernels.visible_ratio": _ratio(counts.get("kernels.visible_bits", 0.0), elements),
        "kernels.slab_mib": maxima.get("kernels.slab_mib", 0.0),
        "visibility.pack_s": own.get("visibility.pack", 0.0),
        "visibility.packed_mib": counts.get("visibility.packed_mib", 0.0),
        "visibility.popcount_s": own.get("visibility.popcount", 0.0),
        "visibility.popcount_mib": counts.get("visibility.popcount_mib", 0.0),
        "visibility.query_s": own.get("visibility.query", 0.0),
        "subsets.build_s": own.get("subsets.build", 0.0),
        "subsets.reduce_s": own.get("subsets.reduce", 0.0),
        "subsets.queries": counts.get("subsets.queries", 0.0),
        "intervals.scan_s": own.get("intervals.scan", 0.0),
        "intervals.refine_s": own.get("intervals.refine", 0.0),
        "intervals.refine_evals_per_edge": _ratio(
            counts.get("orbits.refine_samples", 0.0), refined_edges
        ),
        "intervals.restrict_s": own.get("intervals.restrict", 0.0),
        "intervals.query_s": own.get("intervals.query", 0.0),
        "intervals.sort_s": own.get("intervals.sort", 0.0),
        "intervals.sweep_s": own.get("intervals.sweep", 0.0),
        "intervals.events": counts.get("intervals.events", 0.0),
        "intervals.queries": counts.get("intervals.queries", 0.0),
        "intervals.windows": windows,
        "intervals.pass_recall": _ratio(windows, float(reference_windows or 0)),
        "intervals.shortest_window_s": float(world.get("shortest_window_s", 0.0)),
        "runner.runs": c("runner.runs"),
        # Summed over every process: worker spans merge into the parent's stats.
        "runner.kernel_s": sum(
            v["total_s"] for k, v in stats.items() if k.startswith("runner.run.")
        ),
        # The runner's own code: its wall minus kernels, spawn, share and wait.
        "runner.overhead_s": own.get("runner.collect", 0.0) + own.get("runner.task", 0.0),
        "runner.spawn_s": own.get("runner.spawn", 0.0),
        "runner.share_s": own.get("runner.share", 0.0),
        "runner.wait_s": own.get("runner.wait", 0.0),
        "runner.pool_reuse_ratio": _ratio(reused, spawned + reused),
        "experiments.subset_cache_hit_ratio": _ratio(hits, hits + misses),
        "obs.spans": float(len(spans)),
        "obs.unattributed_s": own.get("cli.invocation", 0.0),
        "obs.traced_total_s": inclusive.get("cli.invocation", 0.0),
    }
    for figure in FIGURES:
        out[f"experiments.{figure}_s"] = inclusive.get(f"experiments.{figure}", 0.0)
    return out


#: Count-type layer metrics that must repeat exactly between two invocations
#: of the same code at the same seed.
REPEATING_COUNTS = (
    "intervals.windows",
    "intervals.events",
    "runner.runs",
    "orbits.propagate_samples",
    "orbits.refine_samples",
    "kernels.threshold_elements",
    "subsets.queries",
    "intervals.queries",
)
