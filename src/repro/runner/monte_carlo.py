"""The Monte-Carlo runner: one driver for every figure experiment.

:class:`MonteCarloRunner` executes a :class:`~repro.runner.scenario.
Scenario` — sweep axis × repetitions — either in-process or over an opt-in
process pool (``ExperimentConfig.parallel`` / the CLI's ``--parallel N``).

Determinism contract
--------------------

Results are a pure function of ``(scenario, config)``:

* per-run RNGs come from order-independent seed derivation
  (:func:`repro.runner.scenario.run_rng`), so run *i* draws the same sample
  whether 5 or 500 runs were requested;
* samples are reduced in (point, run) order regardless of completion
  order, so parallel floating-point aggregation matches serial bit for bit.

``--parallel N`` therefore changes wall-clock only: stdout tables, result
objects, and figure rows are byte-identical for every N.

Parallel execution
------------------

Workers are plain ``multiprocessing`` pool processes.  The engine's world
state — the ~100 MB packed visibility tensor on the grid engine, the CSR
contact-window arrays on the intervals engine — is exported once through
:mod:`multiprocessing.shared_memory` (:mod:`repro.runner.shared`) and
installed into each worker's
:class:`~repro.experiments.common.ExperimentContext` at pool startup, so
spawning N workers costs N page-table mappings, not N artifact pickles.
A platform that refuses shared memory fails the parallel run with the
``OSError`` on both engines.

The pool itself is **persistent**: worker initialization installs world
state only (config, shared tensor/windows, engine), and each task ships
its scenario alongside the run indices, so one warm pool serves every
scenario of a CLI invocation back to back
(:class:`~repro.runner.pool.PersistentPool`).  The pool is owned by the
:class:`~repro.experiments.common.ExperimentContext` and torn down on
``context.clear()``, on worker loss, or when a run needs incompatible
worker state (different config/engine/world or live channel).

Each repetition runs inside a worker-local observability capture: its span
records, metric deltas, and simulation-timeline events travel back with the
sample and are folded into the parent's collectors
(``Tracer.merge_snapshot`` / ``MetricsRegistry.merge`` /
``timeline.extend``), so a parallel run still produces ONE run report with
every per-run wall time in the ``trace.span_seconds.runner.run.<name>``
histogram the bench schema records.

Live telemetry (the bus)
------------------------

With the telemetry bus in live mode (the CLI's ``--live-status``; see
:mod:`repro.obs.bus`), the parallel path streams instead of batching:
workers publish ``run.started`` / ``run.finished`` frames — the finish
frame carrying the sample *and* the observability capture — plus periodic
heartbeats from a daemon thread, and the parent drains the bus while the
pool runs.  Telemetry merges **incrementally, in (point, run) order**
through a reorder buffer, so the merged spans/metrics/timeline are
bit-identical to the batch merge (the deterministic projection is
regression-enforced in ``tests/runner/test_live_bus.py``).  Missed
heartbeats mark a worker dead: its lost repetitions are re-executed
in-process (results are pure functions of the task id, so the rerun is
exact), the failure lands in the run report's ``bus`` section, and every
already-merged frame is kept.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.common import (
    ENGINE_GRID,
    ENGINE_INTERVALS,
    ExperimentConfig,
    ExperimentContext,
    default_context,
    visibility_cache_key,
)
from repro.obs import bus as obs_bus
from repro.obs import get_logger, metrics
from repro.obs import timeline as obs_timeline
from repro.obs import trace as obs_trace
from repro.obs.timeline import TimelineEvent
from repro.obs.trace import span
from repro.runner.pool import PersistentPool
from repro.runner.scenario import RunContext, Scenario, run_rng
from repro.runner.shared import (
    SharedIntervalsHandle,
    SharedVisibilityHandle,
    attach_contact_intervals,
    attach_packed_visibility,
    ensure_shared_intervals,
    ensure_shared_visibility,
)

_LOG = get_logger(__name__)

_RUNS_TOTAL = metrics.counter("runner.runs")
_WORKERS = metrics.gauge("runner.workers")
_RERUN_TASKS = metrics.counter("runner.rerun_tasks")

#: The synthetic pool every scenario samples from (seed of the Starlink
#: shells); part of the visibility cache key.
POOL_SEED = 0

#: One parallel task: (point_index, run_index).
_Task = Tuple[int, int]

#: What actually crosses the pipe per task: the scenario and sweep point
#: ride along so a persistent pool's workers need no per-scenario state.
_ShippedTask = Tuple[Scenario, Any, int, int]

#: What a worker sends back per repetition: indices, the kernel's sample,
#: its wall time, and the observability capture (trace snapshot, metrics
#: snapshot, timeline event dicts).
_Payload = Tuple[int, int, Any, float, Dict, Dict, List[Dict]]

#: Seconds the parent waits per bus poll while the live pool runs.
_LIVE_POLL_S = 0.2

#: Seconds of post-completion grace for frame-queue flushing before the
#: parent declares frames lost (worker feeder threads flush in ms).
_LIVE_FLUSH_GRACE_S = 10.0


class MonteCarloRunner:
    """Executes scenarios: sweep × repetitions, serial or process-parallel.

    Args:
        config: The experiment configuration (``config.parallel`` sets the
            default worker count).
        context: Artifact cache to run against (default: the process-default
            context, so CLI/benchmark invocations share one tensor).
        parallel: Overrides ``config.parallel`` when given.
        bus: Telemetry bus to publish progress frames on (default: the
            process-default bus).  With ``bus.live`` set, parallel runs
            stream worker telemetry through it (see the module docstring).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        context: Optional[ExperimentContext] = None,
        parallel: Optional[int] = None,
        bus: Optional[obs_bus.TelemetryBus] = None,
    ) -> None:
        workers = config.parallel if parallel is None else parallel
        if workers < 1:
            raise ValueError(f"parallel must be >= 1, got {workers}")
        if config.runs < 1:
            raise ValueError(f"runs must be >= 1, got {config.runs}")
        self.config = config
        self.context = context if context is not None else default_context()
        self.parallel = workers
        self.bus = bus if bus is not None else obs_bus.default_bus()

    # -- public API ---------------------------------------------------------

    def run(self, scenario: Scenario) -> Any:
        """Execute a scenario end to end; returns ``scenario.finalize(...)``."""
        points, samples = self.collect(scenario)
        with span(f"reduce.{scenario.name}"):
            reduced = [
                scenario.reduce(point, index, samples[index], self.config)
                for index, point in enumerate(points)
            ]
            return scenario.finalize(reduced, self.config)

    def collect(self, scenario: Scenario) -> Tuple[List[Any], List[List[Any]]]:
        """Run every repetition; returns (points, samples per point).

        Samples are ordered by run index within each point — the raw
        material :meth:`run` reduces, exposed for tests that pin the
        order-independence of per-run seeds.
        """
        points = list(scenario.sweep(self.config, self.context))
        scenario.prepare(self.context, self.config)
        tasks: List[_Task] = [
            (point_index, run_index)
            for point_index, point in enumerate(points)
            for run_index in range(scenario.runs_for(point, self.config))
        ]
        workers = min(self.parallel, len(tasks))
        _WORKERS.set(workers)
        if self.bus.active:
            self.bus.publish(
                obs_bus.SCENARIO_STARTED,
                scenario=scenario.name,
                tasks=len(tasks),
                points=len(points),
                workers=workers,
            )
        with span(f"analysis.{scenario.name}"):
            if workers <= 1:
                by_task = self._collect_serial(scenario, points, tasks)
            elif self.bus.live:
                by_task = self._collect_parallel_live(
                    scenario, points, tasks, workers
                )
            else:
                by_task = self._collect_parallel(scenario, points, tasks, workers)
        if self.bus.active:
            self.bus.publish(obs_bus.SCENARIO_FINISHED, scenario=scenario.name)
        samples: List[List[Any]] = [[] for _ in points]
        for point_index, run_index in tasks:
            samples[point_index].append(by_task[(point_index, run_index)])
        return points, samples

    # -- serial path ---------------------------------------------------------

    def _collect_serial(
        self, scenario: Scenario, points: List[Any], tasks: List[_Task]
    ) -> Dict[_Task, Any]:
        by_task: Dict[_Task, Any] = {}
        for point_index, run_index in tasks:
            by_task[(point_index, run_index)] = self._run_in_process(
                scenario, points, point_index, run_index
            )
        return by_task

    def _run_in_process(
        self, scenario: Scenario, points: List[Any],
        point_index: int, run_index: int,
    ) -> Any:
        """One repetition on the parent process, with bus progress frames.

        Shared by the serial path and the dead-worker rerun fallback —
        telemetry is recorded directly into the parent collectors either
        way.
        """
        narrate = self.bus.active
        if narrate:
            self.bus.publish(
                obs_bus.RUN_STARTED,
                point_index=point_index, run_index=run_index,
            )
        ctx = RunContext(
            config=self.config,
            context=self.context,
            point=points[point_index],
            point_index=point_index,
            run_index=run_index,
            rng=run_rng(self.config.seed, scenario.salt, point_index, run_index),
            pool_seed=POOL_SEED,
        )
        start = time.perf_counter()
        with span(f"runner.run.{scenario.name}"):
            sample = scenario.run_one(ctx, run_index)
        _RUNS_TOTAL.inc()
        if narrate:
            self.bus.publish(
                obs_bus.RUN_FINISHED,
                point_index=point_index, run_index=run_index,
                wall_s=time.perf_counter() - start,
            )
        return sample

    # -- parallel path (batch merge) ------------------------------------------

    def _collect_parallel(
        self,
        scenario: Scenario,
        points: List[Any],
        tasks: List[_Task],
        workers: int,
    ) -> Dict[_Task, Any]:
        pool = self._acquire_pool(scenario, workers, live=False)
        chunksize = max(1, len(tasks) // (workers * 8))
        _LOG.info(
            "parallel %s: %d tasks on %d workers (chunksize %d)",
            scenario.name, len(tasks), workers, chunksize,
        )
        shipped = self._ship(scenario, points, tasks)
        try:
            payloads = pool.map(_run_task, shipped, chunksize=chunksize)
        except Exception:
            # A worker exception leaves the pool's queue state suspect;
            # don't let a later scenario inherit it.
            pool.dispose(terminate=True)
            raise
        return self._merge_payloads(payloads)

    @staticmethod
    def _ship(
        scenario: Scenario, points: List[Any], tasks: List[_Task]
    ) -> List[_ShippedTask]:
        """Attach the scenario and sweep point to each (point, run) task."""
        return [
            (scenario, points[point_index], point_index, run_index)
            for point_index, run_index in tasks
        ]

    def _pool_key(self, scenario: Scenario, live: bool) -> Tuple:
        """Everything that shapes worker-side state, as a reuse key.

        Two runs may share a warm pool only when their workers would have
        been initialized identically: same engine, same config, same
        world-state cache entry (``None`` for scenarios that never read the
        pool tensor), and — in live mode — the same bus.
        ``context.clear()`` disposes the pool, so a matching cache key
        implies the workers' attached world state is still current.
        """
        engine = self.context.engine
        world = (
            (engine, visibility_cache_key(self.config, POOL_SEED))
            if scenario.uses_pool
            else None
        )
        return (
            engine,
            self.config,
            POOL_SEED,
            world,
            live,
            id(self.bus) if live else None,
        )

    def _acquire_pool(
        self, scenario: Scenario, workers: int, live: bool
    ) -> PersistentPool:
        """The context's warm pool if compatible, else a fresh one.

        A fresh pool is adopted by the context (displacing — and disposing
        — any incompatible predecessor), so its workers stay warm for the
        next scenario of this invocation and die with ``context.clear()``.
        """
        key = self._pool_key(scenario, live)
        existing = self.context.worker_pool
        if existing is not None and existing.compatible(key, workers):
            _LOG.info(
                "reusing warm pool (%d workers) for %s",
                existing.workers, scenario.name,
            )
            return existing
        handle, segment = self._shared_handle(scenario)
        mp_context = _start_context()
        channel = self.bus.open_channel(mp_context) if live else None
        initargs = (self.config, handle, POOL_SEED, self.context.engine)
        if live:
            initargs = initargs + (channel, self.bus.heartbeat_s)
        pool = PersistentPool(
            key=key,
            workers=workers,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=initargs,
            segment=segment,
            channel=channel,
        )
        self.context.adopt_worker_pool(pool)
        return pool

    def _shared_handle(self, scenario: Scenario):
        """The shared-memory world-state handle for pool scenarios (or None).

        Engine-dependent: the grid engine exports the packed visibility
        tensor, the intervals engine the CSR contact-window arrays.
        """
        if not scenario.uses_pool:
            return None, None
        if self.context.engine == ENGINE_INTERVALS:
            return ensure_shared_intervals(self.context, self.config, POOL_SEED)
        # Cache-aware: on a miss the tensor is chunk-streamed straight
        # into a context-owned segment (no copy); ``segment`` is only
        # returned — and unlinked by the caller — for the copy fallback.
        return ensure_shared_visibility(self.context, self.config, POOL_SEED)

    def _merge_payloads(self, payloads: Sequence[_Payload]) -> Dict[_Task, Any]:
        """Fold worker observability into the parent; return samples by task.

        Payloads merge in (point, run) order — not completion order — so
        the parent's timeline and span record streams are as deterministic
        as the serial path's.
        """
        by_task: Dict[_Task, Any] = {}
        for payload in sorted(payloads, key=lambda item: (item[0], item[1])):
            point_index, run_index, sample, wall_s, trace_snap, metric_snap, events = (
                payload
            )
            by_task[(point_index, run_index)] = sample
            _merge_capture(wall_s, trace_snap, metric_snap, events)
        return by_task

    # -- parallel path (live streaming merge) -----------------------------------

    def _collect_parallel_live(
        self,
        scenario: Scenario,
        points: List[Any],
        tasks: List[_Task],
        workers: int,
    ) -> Dict[_Task, Any]:
        """Stream worker frames over the bus; merge telemetry incrementally.

        Samples and observability captures arrive inside ``run.finished``
        frames; the pool's own result channel only carries acks (and
        surfaces worker exceptions).  A reorder buffer
        (:class:`_IncrementalMerger`) applies captures strictly in (point,
        run) order, so the merged structures match the batch path's exactly.
        Tasks are submitted with ``chunksize=1`` so a dead worker loses at
        most the single repetition it was executing.
        """
        bus = self.bus
        pool = self._acquire_pool(scenario, workers, live=True)
        channel = pool.channel
        _LOG.info(
            "parallel-live %s: %d tasks on %d workers (heartbeat %.2fs, "
            "stall timeout %.1fs)",
            scenario.name, len(tasks), workers, bus.heartbeat_s,
            bus.stall_timeout_s,
        )
        by_task: Dict[_Task, Any] = {}
        merger = _IncrementalMerger(tasks)
        pending: Set[_Task] = set(tasks)
        in_flight: Dict[str, Set[_Task]] = {}
        idle: Dict[str, bool] = {}
        lost: List[_Task] = []
        orphan_since: Optional[float] = None
        try:
            result = pool.map_async(
                _run_task, self._ship(scenario, points, tasks), chunksize=1
            )
            flush_deadline: Optional[float] = None
            last_frame = time.monotonic()
            while pending:
                frames = bus.drain(channel, timeout_s=_LIVE_POLL_S)
                for frame in frames:
                    self._observe_live_frame(
                        frame, pending, in_flight, idle, by_task, merger
                    )
                if frames:
                    last_frame = time.monotonic()
                if bus.status is not None:
                    bus.status.render()
                if not pending:
                    break
                for worker in bus.stale_workers():
                    worker_lost = tuple(
                        sorted(in_flight.get(worker, set()) & pending)
                    )
                    bus.record_worker_failure(
                        worker,
                        f"no heartbeat for {bus.stall_timeout_s:.1f}s",
                        worker_lost,
                    )
                    _LOG.warning(
                        "worker %s declared dead; %d task(s) will re-run "
                        "in-process", worker, len(worker_lost),
                    )
                    for task in worker_lost:
                        pending.discard(task)
                        lost.append(task)
                # Orphan fallback: a SIGKILLed worker can die before its
                # ``run.started`` frame flushes, leaving its task pending
                # with no owner — stale detection then recovers nothing.
                # A pending task claimed by no live worker *while some live
                # worker sits idle* means the pool's task queue is empty
                # and that result will never come; after a stall-timeout of
                # that state, re-run the unclaimed tasks in-process.
                failed = {entry["worker"] for entry in bus.failed_workers}
                owned: Set[_Task] = set()
                idle_live = False
                for worker in bus.workers_seen:
                    if worker in failed:
                        continue
                    owned |= in_flight.get(worker, set())
                    if idle.get(worker):
                        idle_live = True
                orphans = pending - owned
                if orphans and idle_live:
                    now = time.monotonic()
                    if orphan_since is None:
                        orphan_since = now
                    elif now - orphan_since > bus.stall_timeout_s:
                        self._declare_lost(
                            bus, orphans, pending, lost,
                            "task(s) unclaimed by any live worker",
                        )
                        orphan_since = None
                else:
                    orphan_since = None
                # Last-resort catch-all: a worker that dies while holding
                # the frame queue's write lock silences every surviving
                # publisher at once — no heartbeats, no idle signal, no
                # per-worker recovery.  Total bus silence past the stall
                # timeout means nothing more will ever arrive.
                if pending and time.monotonic() - last_frame > bus.stall_timeout_s:
                    self._declare_lost(
                        bus, set(pending), pending, lost,
                        f"bus silent for {bus.stall_timeout_s:.1f}s",
                    )
                if result.ready() and pending:
                    # The pool finished (or broke): surface worker
                    # exceptions, then allow a grace window for queued
                    # frames to flush before declaring them lost.
                    result.get()
                    now = time.monotonic()
                    if flush_deadline is None:
                        flush_deadline = now + _LIVE_FLUSH_GRACE_S
                    elif now > flush_deadline:
                        _LOG.warning(
                            "%d task frame(s) never arrived after pool "
                            "completion; re-running in-process",
                            len(pending),
                        )
                        lost.extend(sorted(pending))
                        pending.clear()
            # Final sweep for stragglers queued behind the last poll.
            for frame in bus.drain(channel, timeout_s=0.0):
                self._observe_live_frame(
                    frame, pending, in_flight, idle, by_task, merger
                )
        except Exception:
            # A worker exception (surfaced by result.get()) taints the
            # pool's queue state; don't let a later scenario inherit it.
            pool.dispose(terminate=True)
            raise
        if lost:
            # Worker loss means the warm pool is down workers and its
            # frame queue may hold a dead writer's lock: kill it.  The
            # next parallel run respawns a fresh one.
            pool.dispose(terminate=True)
        for task in sorted(lost):
            # Exact re-execution: the sample is a pure function of the task
            # id.  The merger holds later tasks' captures back until this
            # slot resolves, so telemetry stays in (point, run) order.
            _RERUN_TASKS.inc()
            point_index, run_index = task
            by_task[task] = self._run_in_process(
                scenario, points, point_index, run_index
            )
            merger.resolve_external(task)
        merger.require_complete()
        return by_task

    def _declare_lost(
        self,
        bus: obs_bus.TelemetryBus,
        tasks: Set[_Task],
        pending: Set[_Task],
        lost: List[_Task],
        reason: str,
    ) -> None:
        """Give up on ``tasks``: record an unattributed worker failure (their
        owner's identity died with its unflushed frames) and queue the
        in-process rerun."""
        ordered = tuple(sorted(tasks))
        bus.record_worker_failure("unknown", reason, ordered)
        _LOG.warning(
            "%s; %d task(s) will re-run in-process", reason, len(ordered)
        )
        for task in ordered:
            pending.discard(task)
            lost.append(task)

    def _observe_live_frame(
        self,
        frame: obs_bus.Frame,
        pending: Set[_Task],
        in_flight: Dict[str, Set[_Task]],
        idle: Dict[str, bool],
        by_task: Dict[_Task, Any],
        merger: "_IncrementalMerger",
    ) -> None:
        if frame.kind == obs_bus.RUN_STARTED:
            task = (frame.payload["point_index"], frame.payload["run_index"])
            in_flight.setdefault(frame.worker, set()).add(task)
            idle[frame.worker] = False
        elif frame.kind == obs_bus.RUN_FINISHED:
            task = (frame.payload["point_index"], frame.payload["run_index"])
            in_flight.get(frame.worker, set()).discard(task)
            idle[frame.worker] = frame.worker != obs_bus.MAIN_WORKER
            if task in pending:
                pending.discard(task)
                by_task[task] = frame.payload["sample"]
                merger.add(task, frame.payload)
        elif frame.kind == obs_bus.HEARTBEAT:
            # Heartbeats carry the worker's current task: a second source
            # of ownership attribution (run.started frames can die in a
            # killed worker's queue buffer) and the idle signal the orphan
            # fallback needs.
            task = frame.payload.get("task")
            if task is None:
                idle[frame.worker] = True
            else:
                idle[frame.worker] = False
                in_flight.setdefault(frame.worker, set()).add(tuple(task))


class _IncrementalMerger:
    """Reorder buffer: apply worker captures strictly in (point, run) order.

    Frames arrive in completion order; the batch path merges in sorted task
    order.  Buffering out-of-order captures until their slot is next keeps
    the live path's merged telemetry bit-identical to the batch path's.
    A task handled outside the bus (the dead-worker in-process rerun, whose
    telemetry records directly into the parent collectors at execution
    time) is marked with :meth:`resolve_external` so the queue advances.
    """

    def __init__(self, tasks: Sequence[_Task]) -> None:
        self._order: List[_Task] = sorted(tasks)
        self._next = 0
        self._buffered: Dict[_Task, Optional[Dict]] = {}
        self.merged = 0

    def add(self, task: _Task, payload: Dict) -> None:
        self._buffered[task] = payload
        self._flush()

    def resolve_external(self, task: _Task) -> None:
        self._buffered[task] = None
        self._flush()

    def _flush(self) -> None:
        while self._next < len(self._order):
            task = self._order[self._next]
            if task not in self._buffered:
                return
            payload = self._buffered.pop(task)
            if payload is not None:
                _merge_capture(
                    payload["wall_s"], payload["trace"], payload["metrics"],
                    payload["events"],
                )
                self.merged += 1
            self._next += 1

    def require_complete(self) -> None:
        if self._next != len(self._order):  # pragma: no cover - invariant
            raise RuntimeError(
                f"telemetry merge incomplete: {len(self._order) - self._next} "
                "task(s) unresolved"
            )


def _merge_capture(
    wall_s: float, trace_snap: Dict, metric_snap: Dict, events: List[Dict]
) -> None:
    """Fold one repetition's observability capture into the parent.

    Worker span starts are relative to the worker's task-start epoch;
    re-base them so each task's records end "now" on the parent clock
    (durations — the quantity bench-compare reads — are exact either way).
    """
    offset = obs_trace.TRACER.now_s() - wall_s
    obs_trace.TRACER.merge_snapshot(trace_snap, start_offset_s=offset)
    metrics.REGISTRY.merge(metric_snap)
    obs_timeline.extend(TimelineEvent.from_dict(event) for event in events)
    _RUNS_TOTAL.inc()


def run_scenario(
    scenario: Scenario,
    config: ExperimentConfig,
    context: Optional[ExperimentContext] = None,
    parallel: Optional[int] = None,
    bus: Optional[obs_bus.TelemetryBus] = None,
) -> Any:
    """Convenience one-shot: build a runner and execute ``scenario``."""
    return MonteCarloRunner(
        config, context=context, parallel=parallel, bus=bus
    ).run(scenario)


def _start_context():
    """Fork where the platform offers it (cheap, inherits imports); spawn
    otherwise.  Both work: workers receive everything through initargs and
    the shared-memory handle, never through inherited globals."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- worker-side machinery ----------------------------------------------------
#
# Module-level (not closures) so both fork and spawn start methods can
# pickle/resolve them.  One _WorkerState per worker process, built once by
# the pool initializer and reused across tasks.


class _WorkerState:
    __slots__ = (
        "config", "context", "segment", "pool_seed",
        "publisher", "runs_done", "current_task",
    )

    def __init__(self, config, context, segment, pool_seed, publisher=None):
        self.config = config
        self.context = context
        self.segment = segment  # Keeps the shm mapping alive for the tensor.
        self.pool_seed = pool_seed
        self.publisher = publisher  # Live-mode bus publisher (else None).
        self.runs_done = 0
        self.current_task = None

    def heartbeat_payload(self) -> Dict:
        """Read by the heartbeat thread; plain reads are atomic enough."""
        task = self.current_task
        return {
            "runs_done": self.runs_done,
            "task": list(task) if task is not None else None,
        }


_WORKER: Optional[_WorkerState] = None


def _init_worker(
    config: ExperimentConfig,
    handle: Any,
    pool_seed: int,
    engine: str = ENGINE_GRID,
    channel: Optional[obs_bus.BusChannel] = None,
    heartbeat_s: float = obs_bus.DEFAULT_HEARTBEAT_S,
) -> None:
    """Pool initializer: private context, shared world state attached.

    World state **only** — no scenario, no sweep points: those ship with
    each task, so a persistent pool's workers serve any scenario against
    this (config, engine, world) without reinitialization.

    ``handle`` selects what gets installed: a
    :class:`~repro.runner.shared.SharedVisibilityHandle` attaches the
    packed tensor, a :class:`~repro.runner.shared.SharedIntervalsHandle`
    attaches the CSR contact windows (both zero-copy), and None (a
    scenario that never reads the pool) installs nothing.  In live mode
    (``channel`` given) the worker also announces itself on the bus —
    once per worker lifetime, however many scenarios it serves — and
    starts the daemon heartbeat thread.
    """
    global _WORKER
    context = ExperimentContext(engine=engine)
    segment = None
    if isinstance(handle, SharedVisibilityHandle):
        segment, visibility = attach_packed_visibility(handle)
        context.install_visibility(config, visibility, pool_seed=pool_seed)
    elif isinstance(handle, SharedIntervalsHandle):
        segment, contacts = attach_contact_intervals(handle)
        context.install_intervals(config, contacts, pool_seed=pool_seed)
    publisher = None
    if channel is not None:
        publisher = obs_bus.WorkerPublisher(channel, f"worker-{os.getpid()}")
    _WORKER = _WorkerState(config, context, segment, pool_seed, publisher)
    if publisher is not None:
        publisher.publish(obs_bus.WORKER_ONLINE, pid=os.getpid())
        publisher.start_heartbeats(heartbeat_s, _WORKER.heartbeat_payload)


def _run_task(task: _ShippedTask):
    """Execute one repetition in a worker and capture its observability.

    The task carries its scenario and sweep point (persistent-pool workers
    hold world state only).  The worker's collectors are reset at task
    start and snapshotted at task end, so the payload carries exactly this
    repetition's spans, metric deltas, and timeline events for the parent
    to merge.  In live mode the payload ships inside the ``run.finished``
    bus frame (the pool result is a bare ack); otherwise it returns
    through the pool as before.
    """
    state = _WORKER
    if state is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker used before _init_worker")
    scenario, point, point_index, run_index = task
    state.current_task = (point_index, run_index)
    if state.publisher is not None:
        state.publisher.publish(
            obs_bus.RUN_STARTED, point_index=point_index, run_index=run_index
        )
    obs_trace.TRACER.reset()
    metrics.REGISTRY.reset()
    obs_timeline.TIMELINE.reset()
    ctx = RunContext(
        config=state.config,
        context=state.context,
        point=point,
        point_index=point_index,
        run_index=run_index,
        rng=run_rng(state.config.seed, scenario.salt, point_index, run_index),
        pool_seed=state.pool_seed,
    )
    start = time.perf_counter()
    with span(f"runner.run.{scenario.name}"):
        sample = scenario.run_one(ctx, run_index)
    wall_s = time.perf_counter() - start
    state.runs_done += 1
    state.current_task = None
    if state.publisher is not None:
        state.publisher.publish(
            obs_bus.RUN_FINISHED,
            point_index=point_index,
            run_index=run_index,
            wall_s=wall_s,
            sample=sample,
            trace=obs_trace.TRACER.snapshot(),
            metrics=metrics.REGISTRY.snapshot(),
            events=obs_timeline.TIMELINE.snapshot()["events"],
        )
        return (point_index, run_index)
    return (
        point_index,
        run_index,
        sample,
        wall_s,
        obs_trace.TRACER.snapshot(),
        metrics.REGISTRY.snapshot(),
        obs_timeline.TIMELINE.snapshot()["events"],
    )
