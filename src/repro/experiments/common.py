"""Shared experiment infrastructure.

The Monte-Carlo experiments all sample from the same synthetic Starlink-like
pool and evaluate coverage at the same sites (the 21 cities and/or Taipei),
so the expensive artifacts — the pool and its contact *world* — are owned by
an :class:`ExperimentContext` and built once per configuration.  The world
is a :class:`~repro.sim.visibility.PackedVisibility` on the grid engine and
a :class:`~repro.sim.intervals.ContactIntervals` on the intervals engine;
the context is the one place that chooses between them
(:meth:`ExperimentContext.world`), and every kernel queries either through
the contract both share.

A context is an explicit object with an explicit lifetime: the unified
runner (:mod:`repro.runner`) threads one through every scenario kernel, a
parallel worker process holds its own (with the world attached from shared
memory instead of rebuilt), and tests can create throwaway contexts that
never touch each other.  The module-level helpers
(:func:`starlink_pool`, :func:`pool_visibility`, :func:`clear_caches`)
delegate to one process-default context so existing call sites keep
working.

Cache traffic and build time are accounted through :mod:`repro.obs`
(counters ``experiments.visibility_cache.*`` / ``experiments.pool_cache.*``
and the ``visibility.build`` span).
"""

from __future__ import annotations

import atexit
import time
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constants import DEFAULT_MIN_ELEVATION_DEG, WEEK_S
from repro.constellation.satellite import Constellation
from repro.constellation.shells import starlink_like_constellation
from repro.ground.cities import CITIES, TAIPEI, population_weights
from repro.ground.sites import GroundSite
from repro.obs import get_logger, metrics
from repro.obs.trace import span
from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.intervals import ContactIntervals, find_contact_intervals
from repro.sim.kernels import SiteGeometry, as_fleet
from repro.sim.visibility import PackedVisibility, packed_visibility

_LOG = get_logger(__name__)

_POOL_HITS = metrics.counter("experiments.pool_cache.hits")
_POOL_MISSES = metrics.counter("experiments.pool_cache.misses")
_POOL_EVICTIONS = metrics.counter("experiments.pool_cache.evictions")
_VIS_HITS = metrics.counter("experiments.visibility_cache.hits")
_VIS_MISSES = metrics.counter("experiments.visibility_cache.misses")
_VIS_EVICTIONS = metrics.counter("experiments.visibility_cache.evictions")
_VIS_BUILD_SECONDS = metrics.histogram("experiments.visibility_cache.build_seconds")
_VIS_LAST_BUILD = metrics.gauge("experiments.visibility_cache.last_build_s")
_GEO_HITS = metrics.counter("experiments.geometry_cache.hits")
_GEO_MISSES = metrics.counter("experiments.geometry_cache.misses")
_GEO_EVICTIONS = metrics.counter("experiments.geometry_cache.evictions")
_INT_HITS = metrics.counter("experiments.interval_cache.hits")
_INT_MISSES = metrics.counter("experiments.interval_cache.misses")
_INT_EVICTIONS = metrics.counter("experiments.interval_cache.evictions")
_INT_BUILD_SECONDS = metrics.histogram("experiments.interval_cache.build_seconds")
_INT_LAST_BUILD = metrics.gauge("experiments.interval_cache.last_build_s")
_SUBSET_HITS = metrics.counter("experiments.subset_cache.hits")
_SUBSET_MISSES = metrics.counter("experiments.subset_cache.misses")

#: Contact-evaluation engines a context can run experiments on.
ENGINE_GRID = "grid"
ENGINE_INTERVALS = "intervals"
ENGINES = (ENGINE_GRID, ENGINE_INTERVALS)

#: A contact world: what one engine answers every coverage query from.
World = Union[PackedVisibility, ContactIntervals]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every figure experiment.

    The paper runs 100 Monte-Carlo repetitions of each experiment at an
    unstated time step; the defaults here (20 runs, 120 s) keep a full
    benchmark pass in minutes on a laptop while leaving the statistics
    stable (means move by well under the figure-level differences).
    EXPERIMENTS.md records the configuration used for the reported numbers.

    ``parallel`` is the Monte-Carlo worker count (the CLI's ``--parallel``):
    1 means run in-process; N > 1 fans runs out over a process pool.  It is
    an *execution* knob, not a statistical one — per-run seeds are derived
    order-independently (see :mod:`repro.runner.scenario`), so results are
    identical for every value of ``parallel``.
    """

    runs: int = 20
    step_s: float = 120.0
    seed: int = 2024
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG
    duration_s: float = WEEK_S  # The paper's horizon: one simulated week.
    parallel: int = 1

    def grid(self) -> TimeGrid:
        return TimeGrid(duration_s=self.duration_s, step_s=self.step_s)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)


#: All experiment sites: index 0 is Taipei (Fig. 2), 1..21 are the cities.
ALL_SITES = (TAIPEI,) + tuple(CITIES)
TAIPEI_INDEX = 0
CITY_INDICES = tuple(range(1, len(ALL_SITES)))

#: Cache key of one packed visibility tensor — every config field the tensor
#: depends on: pool seed, step, elevation mask, AND horizon.  Omitting the
#: horizon aliased differently sized grids onto one entry the moment
#: ``duration_s`` became configurable.
VisibilityKey = Tuple[int, float, float, float]


def _terminals(config: ExperimentConfig) -> list:
    """User terminals at every experiment site, under the config's mask."""
    return [
        city.terminal(min_elevation_deg=config.min_elevation_deg)
        for city in ALL_SITES
    ]


def visibility_cache_key(
    config: ExperimentConfig, pool_seed: int = 0
) -> VisibilityKey:
    """The exact-match key a config's visibility tensor is cached under."""
    return (pool_seed, config.step_s, config.min_elevation_deg, config.duration_s)


class ExperimentContext:
    """Owns the expensive experiment artifacts: pools + contact worlds.

    One context is one cache domain.  The process-default context (module
    helpers below) serves the CLI and the benchmark suite; the parallel
    runner gives each worker process its own context with the shared-memory
    world pre-installed; tests create throwaway contexts to keep cache
    state out of each other's way.

    Not thread-safe: experiments drive a context from one thread (or one
    process) at a time.

    Args:
        chunk_size: Streaming chunk (time samples per slab) for world
            builds owned by this context; None uses the adaptive
            :func:`repro.sim.kernels.default_chunk_size`.  An execution
            knob like ``parallel``: results are chunk-invariant, only peak
            memory changes (the CLI's ``--chunk-size`` sets it on the
            default context).
        engine: Which world scenario kernels query (:meth:`world`):
            ``"grid"`` (the packed dense tensor, default) or
            ``"intervals"`` (analytic rise/set windows).  A context-level
            execution knob like ``chunk_size`` — never part of
            :class:`ExperimentConfig`, set by the CLI's ``--engine``, and
            settable on a live context.  The engines agree within one
            coarse-scan step per contact edge (``oracle.intervals``
            quantifies it).
    """

    def __init__(
        self,
        chunk_size: Optional[int] = None,
        engine: str = ENGINE_GRID,
    ) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.chunk_size = chunk_size
        self.engine = engine
        self._pools: Dict[int, Constellation] = {}
        self._propagators: Dict[int, BatchPropagator] = {}
        self._visibility: Dict[VisibilityKey, PackedVisibility] = {}
        self._intervals: Dict[VisibilityKey, ContactIntervals] = {}
        self._geometry: Dict[
            Tuple[Tuple[GroundSite, ...], TimeGrid], SiteGeometry
        ] = {}
        self._subsets: Dict[tuple, object] = {}
        # Persistent worker pool (duck-typed: anything with dispose()).
        # Owned here so `clear()` tears down workers along with the shared
        # segments they map; set by the parallel runner.
        self._worker_pool: Optional[object] = None

    def pool(self, seed: int = 0) -> Constellation:
        """The cached synthetic Starlink-like pool (4408 satellites)."""
        if seed not in self._pools:
            _POOL_MISSES.inc()
            _LOG.info("building starlink-like pool (seed=%d)", seed)
            self._pools[seed] = starlink_like_constellation(
                rng=np.random.default_rng(seed)
            )
        else:
            _POOL_HITS.inc()
        return self._pools[seed]

    def pool_propagator(self, seed: int = 0) -> BatchPropagator:
        """A cached :class:`BatchPropagator` over the pool.

        Reusing one propagator instance across Monte-Carlo rebuilds keeps
        :meth:`SiteGeometry.thresholds`' per-propagator cache hot (the
        threshold table only depends on the pool's radii and the sites).
        """
        if seed not in self._propagators:
            self._propagators[seed] = BatchPropagator(self.pool(seed).elements)
        return self._propagators[seed]

    def site_geometry(
        self, sites: Sequence[GroundSite], grid: TimeGrid
    ) -> SiteGeometry:
        """The cached :class:`SiteGeometry` for a (sites, grid) pair.

        Sites and grid are fixed per experiment while the constellation
        sample varies, so the stacked unit vectors, radii, thresholds and
        the full ECI unit track are computed once and reused by every run.
        """
        key = (tuple(sites), grid)
        geometry = self._geometry.get(key)
        if geometry is None:
            _GEO_MISSES.inc()
            geometry = SiteGeometry(key[0], grid)
            geometry.prime_track()
            self._geometry[key] = geometry
        else:
            _GEO_HITS.inc()
        return geometry

    def visibility(
        self, config: ExperimentConfig, pool_seed: int = 0
    ) -> PackedVisibility:
        """Packed visibility of the full pool at every experiment site.

        The grid engine's world: the one expensive computation (~30-60 s
        for a week at 60-120 s steps); everything downstream is boolean
        reductions.  Cached per (pool seed, step, elevation mask, horizon).
        """
        key = visibility_cache_key(config, pool_seed)
        if key not in self._visibility:
            _VIS_MISSES.inc()
            _LOG.info(
                "visibility cache miss: building packed tensor "
                "(pool_seed=%d step=%.0fs mask=%.1fdeg duration=%.0fs)",
                *key,
            )
            sites = _terminals(config)
            grid = config.grid()
            propagator = self.pool_propagator(pool_seed)
            geometry = self.site_geometry(sites, grid)
            start = time.perf_counter()
            with span("visibility.build"):
                self._visibility[key] = packed_visibility(
                    propagator,
                    sites,
                    grid,
                    chunk_size=self.chunk_size,
                    geometry=geometry,
                )
            elapsed = time.perf_counter() - start
            _VIS_BUILD_SECONDS.observe(elapsed)
            _VIS_LAST_BUILD.set(elapsed)
            _LOG.info("packed tensor built in %.2f s", elapsed)
        else:
            _VIS_HITS.inc()
        return self._visibility[key]

    def contact_intervals(
        self, config: ExperimentConfig, pool_seed: int = 0
    ) -> ContactIntervals:
        """Analytic contact windows of the full pool at every site.

        The intervals-engine sibling of :meth:`visibility`: the coarse
        scan runs on the config's own grid (so both engines detect exactly
        the same passes) and every edge is refined by root-finding.
        Cached under the same key shape as the packed tensor.
        """
        key = visibility_cache_key(config, pool_seed)
        if key not in self._intervals:
            _INT_MISSES.inc()
            _LOG.info(
                "interval cache miss: finding contact windows "
                "(pool_seed=%d step=%.0fs mask=%.1fdeg duration=%.0fs)",
                *key,
            )
            sites = _terminals(config)
            grid = config.grid()
            propagator = self.pool_propagator(pool_seed)
            geometry = self.site_geometry(sites, grid)
            start = time.perf_counter()
            with span("intervals.build"):
                self._intervals[key] = find_contact_intervals(
                    propagator,
                    sites,
                    grid,
                    geometry=geometry,
                    chunk_size=self.chunk_size,
                )
            elapsed = time.perf_counter() - start
            _INT_BUILD_SECONDS.observe(elapsed)
            _INT_LAST_BUILD.set(elapsed)
            _LOG.info(
                "found %d contact windows in %.2f s",
                self._intervals[key].n_contacts,
                elapsed,
            )
        else:
            _INT_HITS.inc()
        return self._intervals[key]

    def world(self, config: ExperimentConfig, pool_seed: int = 0) -> World:
        """The engine's contact world of the full pool at every site.

        :meth:`visibility` on the grid engine, :meth:`contact_intervals`
        on the intervals engine — the same cache entries, so a world built
        through either is the world every kernel queries.
        """
        if self.engine == ENGINE_INTERVALS:
            return self.contact_intervals(config, pool_seed)
        return self.visibility(config, pool_seed)

    def world_key(self, config: ExperimentConfig, pool_seed: int = 0) -> tuple:
        """What identifies :meth:`world`'s answer: engine plus cache key."""
        return (self.engine, visibility_cache_key(config, pool_seed))

    def _worlds(self) -> Dict[VisibilityKey, World]:
        """The live world cache of the current engine."""
        if self.engine == ENGINE_INTERVALS:
            return self._intervals
        return self._visibility

    def install_world(
        self, config: ExperimentConfig, world: World, pool_seed: int = 0
    ) -> None:
        """Seed the current engine's cache with an externally built world.

        Parallel workers attach the parent's world from shared memory and
        install it here, so scenario kernels hit the cache instead of
        triggering a per-worker rebuild.
        """
        self._worlds()[visibility_cache_key(config, pool_seed)] = world

    def cached_worlds(self) -> Dict[VisibilityKey, World]:
        """A copy of the current engine's world cache (tests inspect keying)."""
        return dict(self._worlds())

    def worker_copy(self) -> "ExperimentContext":
        """An empty context with this one's execution knobs (engine, chunk
        size): what a parallel worker process starts from."""
        return ExperimentContext(chunk_size=self.chunk_size, engine=self.engine)

    def subset_query(
        self, config: ExperimentConfig, fleet=None, pool_seed: int = 0
    ) -> World:
        """The world a subset experiment queries, cached per fleet.

        ``fleet`` (pool indices; None = the whole pool) scopes the world:
        pool-wide this is :meth:`world` itself, otherwise a world over the
        fleet only that still takes pool indices.  Attrition/withdrawal
        experiments pay the precompute once and answer every composition
        with a cheap masked reduction.

        When the full-pool world is already cached the fleet world is its
        :meth:`restrict` (a row gather); on a cold cache the build is
        *fleet-scoped* — the einsum/trig scale with the fleet, not the
        pool, which is the ~50x win behind ``ablation_failures``.  Both
        paths yield bit-identical query results (all-circular pool;
        pinned by tests/sim/test_subsets.py).
        """
        if fleet is not None:
            fleet = as_fleet(fleet, self.pool_propagator(pool_seed).count)
        key = (
            self.world_key(config, pool_seed),
            None if fleet is None else fleet.tobytes(),
        )
        world = self._subsets.get(key)
        if world is not None:
            _SUBSET_HITS.inc()
            return world
        _SUBSET_MISSES.inc()
        if fleet is None:
            world = self.world(config, pool_seed)
        elif visibility_cache_key(config, pool_seed) in self._worlds():
            world = self.world(config, pool_seed).restrict(fleet)
        else:
            world = self._fleet_world(config, pool_seed, fleet)
        self._subsets[key] = world
        return world

    def _fleet_world(
        self, config: ExperimentConfig, pool_seed: int, fleet: np.ndarray
    ) -> World:
        """The engine's world of one fleet only, built from scratch."""
        sites = _terminals(config)
        grid = config.grid()
        pool = self.pool_propagator(pool_seed)
        build = (
            find_contact_intervals
            if self.engine == ENGINE_INTERVALS
            else packed_visibility
        )
        with span("subsets.build"):
            world = build(
                pool.subset(fleet),
                sites,
                grid,
                geometry=self.site_geometry(sites, grid),
                chunk_size=self.chunk_size,
            )
        world.fleet, world.pool_size = fleet, pool.count
        return world

    def cached_pool_seeds(self) -> Tuple[int, ...]:
        return tuple(sorted(self._pools))

    def dispose_segments(self) -> None:
        """Release shared-memory segments owned by cached worlds.

        A world whose ``segment`` is set was copied into a
        ``multiprocessing.shared_memory`` segment this context owns (the
        parallel-runner path, :func:`repro.runner.shared.share_world`) and
        its arrays are views into that segment.  They are rebound onto heap
        copies first: closing the segment unmaps the views, and a caller
        still holding the world would read unmapped memory.  Idempotent;
        workers never own segments (their attached worlds have ``segment
        is None``), so this never unlinks memory out from under a sibling
        process.
        """
        cached = list(self._visibility.values())
        cached.extend(self._intervals.values())
        for world in cached:
            segment = getattr(world, "segment", None)
            if segment is None:
                continue
            for name, view in world.share_state()[0].items():
                setattr(world, name, view.copy())
            world.segment = None
            try:
                segment.close()
            except OSError:  # pragma: no cover - already closed
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def adopt_worker_pool(self, pool: object) -> None:
        """Attach a persistent worker pool, disposing any previous one."""
        if self._worker_pool is not None and self._worker_pool is not pool:
            self._worker_pool.dispose()
        self._worker_pool = pool

    @property
    def worker_pool(self) -> Optional[object]:
        """The live persistent worker pool, if the runner attached one."""
        return self._worker_pool

    def dispose_worker_pool(self) -> None:
        """Tear down the persistent worker pool (idempotent)."""
        pool = self._worker_pool
        self._worker_pool = None
        if pool is not None:
            pool.dispose()

    def clear(self) -> None:
        """Drop every cached pool/world/geometry this context owns.

        Also tears down the persistent worker pool: its workers map the
        shared segments disposed below, and the next parallel run must
        respawn against fresh world state.
        """
        self.dispose_worker_pool()
        self.dispose_segments()
        _POOL_EVICTIONS.inc(len(self._pools))
        _VIS_EVICTIONS.inc(len(self._visibility))
        _GEO_EVICTIONS.inc(len(self._geometry))
        _INT_EVICTIONS.inc(len(self._intervals))
        self._pools.clear()
        self._propagators.clear()
        self._visibility.clear()
        self._intervals.clear()
        self._geometry.clear()
        self._subsets.clear()


#: Contexts holding shared-memory-backed worlds; their segments must be
#: unlinked before interpreter exit or the OS keeps the /dev/shm files.
#: Weak so contexts stay garbage-collectable; pool *worker* processes never
#: register here (they exit via os._exit and own no segments anyway).
_SEGMENT_OWNERS: "weakref.WeakSet[ExperimentContext]" = weakref.WeakSet()


def _register_segment_owner(context: ExperimentContext) -> None:
    """Unlink ``context``'s segments at interpreter exit if still owned."""
    _SEGMENT_OWNERS.add(context)


@atexit.register
def _dispose_segments_at_exit() -> None:  # pragma: no cover - exit hook
    for context in list(_SEGMENT_OWNERS):
        context.dispose_segments()


#: The process-default context behind the module-level helpers.
_DEFAULT_CONTEXT = ExperimentContext()


def default_context() -> ExperimentContext:
    """The process-default :class:`ExperimentContext`."""
    return _DEFAULT_CONTEXT


def starlink_pool(seed: int = 0) -> Constellation:
    """The default context's cached Starlink-like pool."""
    return _DEFAULT_CONTEXT.pool(seed)


def pool_visibility(config: ExperimentConfig, pool_seed: int = 0) -> PackedVisibility:
    """The default context's packed visibility for ``config``."""
    return _DEFAULT_CONTEXT.visibility(config, pool_seed)


def pool_contact_intervals(
    config: ExperimentConfig, pool_seed: int = 0
) -> ContactIntervals:
    """The default context's analytic contact windows for ``config``."""
    return _DEFAULT_CONTEXT.contact_intervals(config, pool_seed)


def clear_caches() -> None:
    """Drop the default context's caches (tests use this to bound memory)."""
    _DEFAULT_CONTEXT.clear()


#: Lazily built, read-only normalized city-weight vector.  The weighted
#: coverage reduction below runs inside every Monte-Carlo kernel of
#: Figs. 4a/5/6 and the sharing experiment; rebuilding the vector per call
#: was measurable noise in exactly those hot loops.
_CITY_WEIGHTS: Optional[np.ndarray] = None

#: City rows of a world's per-site answers (sites 1..21) as a fancy index.
_CITY_ROWS = np.array(CITY_INDICES)


def city_weights() -> np.ndarray:
    """Normalized population weights of the 21 cities (cached, read-only)."""
    global _CITY_WEIGHTS
    if _CITY_WEIGHTS is None:
        weights = np.array(population_weights(CITIES))
        weights.flags.writeable = False
        _CITY_WEIGHTS = weights
    return _CITY_WEIGHTS


def weighted_city_coverage(world: World, sat_indices) -> float:
    """Population-weighted coverage over the 21 cities for a pool subset.

    ``world`` is any contact world (:meth:`ExperimentContext.world` or
    :meth:`ExperimentContext.subset_query`); both engines return per-site
    fractions in :data:`ALL_SITES` order.
    """
    fractions = world.coverage_fractions(sat_indices)
    return float(city_weights() @ fractions[_CITY_ROWS])
