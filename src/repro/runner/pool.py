"""A persistent, reusable Monte-Carlo worker pool.

Before this module, every :meth:`MonteCarloRunner.collect` spawned a fresh
``multiprocessing`` pool: N process forks, N shared-memory attaches, and N
context initializations *per scenario*.  A multi-figure CLI invocation
(``repro run --all --parallel 4``) paid that startup tax once per figure
even though every scenario reads the same world state.

:class:`PersistentPool` keeps the workers warm instead.  The pool is keyed
by everything that shapes worker-side state — engine, experiment config,
the world-state cache identity, and the live-telemetry channel — and the
runner reuses it for as long as the key matches (:meth:`compatible`).
Workers are initialized once with world state only (the shared packed
tensor or CSR contact windows); scenarios travel with each task, so the
same workers serve fig2, fig5, and fig6 back to back.

Ownership: the pool belongs to the :class:`~repro.experiments.common.
ExperimentContext` that the runner executes against
(``context.adopt_worker_pool``), so ``context.clear()`` tears the workers
down along with the cached world they map (the context, not the pool,
owns the world's shared-memory segment).  Disposal also closes the live
bus channel when the pool owns it.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.obs import get_logger, metrics

_LOG = get_logger(__name__)

_POOLS_SPAWNED = metrics.counter("runner.pool.spawned")
_POOLS_REUSED = metrics.counter("runner.pool.reused")


class PersistentPool:
    """A warm ``multiprocessing`` pool that outlives one scenario.

    Args:
        key: Hashable description of the worker-side state (engine,
            config, world-state identity, live channel).  Reuse
            requires an exact match — anything that would change what
            ``_init_worker`` installed forces a respawn.
        workers: Process count.
        mp_context: The multiprocessing start context.
        initializer: Worker initializer (module-level, picklable).
        initargs: Its arguments.
        channel: The live-telemetry bus channel workers publish on (None
            in batch mode).  Closed at disposal.
    """

    def __init__(
        self,
        key: Tuple,
        workers: int,
        mp_context,
        initializer,
        initargs: Tuple,
        channel: Optional[Any] = None,
    ) -> None:
        self.key = key
        self.workers = workers
        self.channel = channel
        self._disposed = False
        self.scenarios_served = 0
        self._pool = mp_context.Pool(
            processes=workers, initializer=initializer, initargs=initargs
        )
        _POOLS_SPAWNED.inc()
        _LOG.info("spawned persistent pool: %d workers", workers)

    # -- execution ----------------------------------------------------------

    def map(self, func, tasks, chunksize: int):
        self.scenarios_served += 1
        if self.scenarios_served > 1:
            _POOLS_REUSED.inc()
        return self._pool.map(func, tasks, chunksize=chunksize)

    def map_async(self, func, tasks, chunksize: int):
        self.scenarios_served += 1
        if self.scenarios_served > 1:
            _POOLS_REUSED.inc()
        return self._pool.map_async(func, tasks, chunksize=chunksize)

    # -- lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._disposed

    def compatible(self, key: Tuple, workers: int) -> bool:
        """Whether this pool can serve a run needing ``(key, workers)``.

        A larger pool serves a smaller request (extra workers idle); a
        smaller one cannot, and any key difference means the workers hold
        the wrong world state.
        """
        return self.alive and self.key == key and self.workers >= workers

    def dispose(self, terminate: bool = False) -> None:
        """Shut the workers down and release owned resources (idempotent).

        ``terminate=True`` kills workers instead of draining them — used
        after worker loss, when the pool's task queue state is suspect.
        """
        if self._disposed:
            return
        self._disposed = True
        try:
            if terminate:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
        except Exception:  # pragma: no cover - best-effort teardown
            _LOG.warning("pool teardown failed", exc_info=True)
        if self.channel is not None:
            try:
                self.channel.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            self.channel = None
        _LOG.info(
            "disposed persistent pool after %d scenario(s)",
            self.scenarios_served,
        )
