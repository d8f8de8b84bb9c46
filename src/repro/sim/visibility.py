"""Vectorized satellite-ground visibility.

The coverage experiments need, for S ground sites, N satellites and T time
samples, the boolean visibility tensor ``visible[s, n, t]``.  Computing it
through the full topocentric transform would be exact but slow; instead we
use the classical spherical-geometry equivalence (see
:mod:`repro.orbits.topocentric`):

    elevation(site, sat) >= mask
        <=>  central_angle(site_dir, sat_dir) <= psi(r_sat, R_site, mask)
        <=>  dot(unit_site, unit_sat) >= cos(psi)

where ``unit_site``/``unit_sat`` are geocentric unit vectors in a common
frame.  Both sides are rotated into ECI (sites rotate with Earth, satellites
come out of the propagator in ECI), so no per-satellite frame conversion is
needed.  Time is processed in chunks to bound peak memory.

The threshold ``psi`` is computed from each satellite's semi-major axis; for
the near-circular orbits of LEO constellations (e < 0.02) the instantaneous
radius differs from ``a`` by under ~1%, shifting footprint edges by a couple
of km — far below the time-step quantization of contact edges.

The heavy lifting lives in :mod:`repro.sim.kernels`: chunk-streaming
reduction kernels that never materialize the (S, N, T) tensor, plus the
geometric pair cull that skips propagation for (site, satellite) pairs
that can never see each other.  :class:`VisibilityEngine` keeps the
figure-facing API; :meth:`VisibilityEngine.visibility` remains the
materialized reference the streaming paths are tested bit-for-bit against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.constellation.satellite import Constellation
from repro.obs import get_logger
from repro.obs.trace import span
from repro.orbits.elements import OrbitalElements
from repro.orbits.propagator import BatchPropagator
from repro.ground.sites import GroundSite
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.kernels import (  # re-exported: the historical home of these
    SiteGeometry,
    coverage_cos_thresholds,
    record_visibility_metrics as _record_visibility_metrics,
)

__all__ = [
    "ConstellationLike",
    "PackedVisibility",
    "SiteGeometry",
    "VisibilityEngine",
    "coverage_cos_thresholds",
    "packed_visibility",
    "visibility_matrix",
]

_LOG = get_logger(__name__)

ConstellationLike = Union[Constellation, Sequence[OrbitalElements], BatchPropagator]


def _as_propagator(constellation: ConstellationLike) -> BatchPropagator:
    if isinstance(constellation, BatchPropagator):
        return constellation
    if isinstance(constellation, Constellation):
        return BatchPropagator(constellation.elements)
    return BatchPropagator(list(constellation))


class VisibilityEngine:
    """Computes visibility tensors over a time grid.

    The engine is stateless with respect to constellations: instantiate once
    per time grid and reuse it for many constellation samples (the
    Monte-Carlo experiments do exactly that).

    The reduction methods (:meth:`site_coverage`, :meth:`satellite_activity`,
    :meth:`visible_counts`) stream: they hold one (S, N, chunk) slab at a
    time and never allocate the full tensor.  :meth:`visibility` still
    materializes (S, N, T) — it is the exact reference the streaming paths
    are validated against, and some callers genuinely need the tensor.
    Every path slabs time by ``chunk_size``; None defers to the adaptive
    :func:`repro.sim.kernels.default_chunk_size`, sized per population at
    plan time.

    Example:
        >>> from repro.sim import TimeGrid, VisibilityEngine
        >>> engine = VisibilityEngine(TimeGrid.hours(3.0))
        >>> # visible = engine.visibility(constellation, [site])
    """

    def __init__(self, grid: TimeGrid, chunk_size: Optional[int] = None) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.grid = grid
        self.chunk_size = chunk_size

    def _site_units_eci(
        self, sites: Sequence[GroundSite], times_s: np.ndarray
    ) -> np.ndarray:
        """Geocentric unit directions of sites in ECI at each time: (S, T, 3)."""
        return SiteGeometry(sites, self.grid).units_eci(times_s)

    def _plan(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry],
        cull: bool,
    ) -> kernels.StreamPlan:
        if geometry is None:
            if not sites:
                raise ValueError("at least one ground site is required")
            geometry = SiteGeometry(sites, self.grid)
        return kernels.plan_stream(
            _as_propagator(constellation),
            geometry,
            self.grid,
            chunk_size=self.chunk_size,
            cull=cull,
        )

    def visibility(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Full visibility tensor (the materialized reference path).

        Args:
            constellation: A :class:`Constellation`, element list, or
                prebuilt :class:`BatchPropagator`.
            sites: Ground sites (terminals or stations).
            geometry: Precomputed :class:`SiteGeometry` (overrides
                ``sites``; experiment contexts cache these).
            cull: Apply the conservative geometric pair cull (bit-neutral;
                disable to force the fully unculled reference).

        Returns:
            Boolean array of shape (S, N, T).
        """
        plan = self._plan(constellation, sites, geometry, cull)
        visible = np.empty(
            (plan.n_sites, plan.n_satellites, self.grid.count), dtype=bool
        )
        visible_samples = 0
        with span("visibility.tensor"):
            for offset, slab in kernels.iter_slabs(plan):
                visible[:, :, offset : offset + slab.shape[2]] = slab
                visible_samples += int(np.count_nonzero(slab))
        _record_visibility_metrics(
            plan.n_sites, plan.n_satellites, self.grid.count, visible_samples
        )
        return visible

    def site_coverage(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Per-site coverage mask: (S, T) — true when any satellite is visible."""
        return kernels.stream_site_coverage(
            self._plan(constellation, sites, geometry, cull)
        )

    def satellite_activity(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Per-satellite activity mask: (N, T) — true when any site is visible.

        This is the paper's Fig. 3 notion of a satellite being "connected to a
        user terminal"; idle time is the complement.
        """
        return kernels.stream_satellite_activity(
            self._plan(constellation, sites, geometry, cull)
        )

    def visible_counts(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Number of visible satellites per site per time: (S, T) ints.

        Streamed; the counts accumulate into uint16 (uint32 past 65535
        satellites), which is exact — the count axis is bounded by N.
        """
        return kernels.stream_visible_counts(
            self._plan(constellation, sites, geometry, cull)
        )


def visibility_matrix(
    constellation: ConstellationLike,
    sites: Sequence[GroundSite],
    grid: TimeGrid,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Convenience wrapper: one-shot visibility tensor (S, N, T)."""
    return VisibilityEngine(grid, chunk_size=chunk_size).visibility(
        constellation, sites
    )


#: Lookup table mapping a byte value to its popcount; used to count covered
#: samples in packed masks without unpacking (shared with
#: :func:`repro.sim.kernels.or_popcount`).
_POPCOUNT = kernels.POPCOUNT_TABLE


class PackedVisibility:
    """A bit-packed visibility tensor for Monte-Carlo subset experiments.

    The paper's experiments repeatedly ask: "for a random subset of this
    satellite pool, what is the coverage at these sites?"  Propagating the
    pool once and answering each run with boolean reductions is orders of
    magnitude cheaper than re-propagating.  Packing 8 time samples per byte
    keeps a full Starlink-scale pool x 21 sites x one week at ~120 MB.

    The time axis is padded to a byte boundary with zero (= not visible)
    bits, which is neutral for every OR/popcount reduction as long as counts
    use the true sample count ``n_times``.

    The grid engine's *world*: it answers the query contract it shares with
    :class:`repro.sim.intervals.ContactIntervals` (``coverage_fractions``,
    ``satellite_active_fractions``, ``k_coverage_fraction``, ``restrict``)
    with the same index rules (:func:`repro.sim.kernels.index_array`).
    ``fleet`` is None for a pool-wide tensor; a restricted
    (:meth:`restrict`) or fleet-scoped tensor holds rows for the sorted
    pool indices in ``fleet`` only and still takes pool indices in
    ``[0, pool_size)``.

    Build instances with :func:`packed_visibility`.  ``segment`` is set
    when ``packed`` is a view into a ``multiprocessing.shared_memory``
    segment this process owns (:func:`repro.runner.shared.share_world`);
    whoever caches the instance disposes the segment
    (:meth:`repro.experiments.common.ExperimentContext.clear`).

    ``activity`` is a process-local :class:`repro.sim.kernels.ActivityTable`
    of active-sample counts of every row, one vector per site set, filled
    by :meth:`satellite_active_fractions`; an instance attached to a shared
    segment starts with it empty.
    """

    def __init__(
        self,
        packed: np.ndarray,
        n_times: int,
        grid: TimeGrid,
        fleet: Optional[np.ndarray] = None,
        pool_size: Optional[int] = None,
    ) -> None:
        if packed.ndim != 3 or packed.dtype != np.uint8:
            raise ValueError("packed must be a (S, N, ceil(T/8)) uint8 array")
        if packed.shape[2] * 8 < n_times:
            raise ValueError("packed array too short for n_times")
        if fleet is not None and fleet.size != packed.shape[1]:
            raise ValueError("fleet must name one pool index per row")
        self.packed = packed
        self.n_times = int(n_times)
        self.grid = grid
        self.fleet = fleet
        self.pool_size = packed.shape[1] if pool_size is None else int(pool_size)
        self._reset_local_state()

    def __getstate__(self):
        # The segment and the activity table are process-local: a pickled
        # copy carries the arrays by value and starts cold.
        state = dict(self.__dict__)
        del state["segment"], state["activity"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._reset_local_state()

    def _reset_local_state(self) -> None:
        self.segment = None  # Owned shared-memory segment, when shm-backed.
        self.activity = kernels.ActivityTable(
            self.packed.shape[0], "visibility.activity_table"
        )

    @property
    def n_sites(self) -> int:
        return self.packed.shape[0]

    @property
    def n_satellites(self) -> int:
        """Satellite rows held (the fleet size when restricted)."""
        return self.packed.shape[1]

    def share_state(self):
        """``(arrays, scalars)``: the constructor arguments that rebuild
        this world, split into what shared memory holds and the rest."""
        arrays = {"packed": self.packed}
        if self.fleet is not None:
            arrays["fleet"] = self.fleet
        return arrays, {
            "n_times": self.n_times, "grid": self.grid, "pool_size": self.pool_size,
        }

    def _rows(self, sat_indices) -> np.ndarray:
        return kernels.fleet_rows(sat_indices, self.fleet, self.pool_size)

    def _site(self, site_index) -> int:
        return int(kernels.index_array([site_index], self.n_sites, "site")[0])

    def _subset(self, sat_indices) -> np.ndarray:
        if sat_indices is None:
            return self.packed
        return self.packed[:, self._rows(sat_indices), :]

    def restrict(self, fleet) -> "PackedVisibility":
        """A compact copy holding only the rows of ``fleet`` (pool indices).

        The copy answers every query on pool indices drawn from the fleet
        with the exact bits this tensor gives: its rows are the same bytes.
        """
        fleet = kernels.as_fleet(fleet, self.pool_size)
        rows = np.ascontiguousarray(self.packed[:, self._rows(fleet), :])
        return PackedVisibility(rows, self.n_times, self.grid, fleet, self.pool_size)

    def site_mask(self, site_index: int, sat_indices=None) -> np.ndarray:
        """Boolean coverage mask (T,) of one site under a satellite subset."""
        rows = self.packed[self._site(site_index)]
        if sat_indices is not None:
            rows = rows[self._rows(sat_indices)]
        if rows.shape[0] == 0:
            return np.zeros(self.n_times, dtype=bool)
        packed_or = np.bitwise_or.reduce(rows, axis=0)
        return np.unpackbits(packed_or)[: self.n_times].astype(bool)

    def site_masks(self, sat_indices=None) -> np.ndarray:
        """Boolean coverage masks (S, T) for all sites under a subset."""
        rows = self._subset(sat_indices)
        if rows.shape[1] == 0:
            return np.zeros((self.n_sites, self.n_times), dtype=bool)
        packed_or = np.bitwise_or.reduce(rows, axis=1)  # (S, bytes)
        return np.unpackbits(packed_or, axis=1)[:, : self.n_times].astype(bool)

    def coverage_fractions(self, sat_indices=None) -> np.ndarray:
        """Covered fraction per site (S,) without unpacking full masks."""
        rows = self._subset(sat_indices)
        if rows.shape[1] == 0:
            return np.zeros(self.n_sites)
        counts = kernels.or_popcount(rows, axis=1)
        return counts / float(self.n_times)

    def visible_counts(self, site_index: int, sat_indices=None) -> np.ndarray:
        """Per-step visible-satellite counts (T,) at one site."""
        rows = self.packed[self._site(site_index)]
        if sat_indices is not None:
            rows = rows[self._rows(sat_indices)]
        bits = np.unpackbits(rows, axis=1)[:, : self.n_times]
        return bits.sum(axis=0, dtype=np.int64)

    def k_coverage_fraction(self, site_index: int, k: int, sat_indices=None) -> float:
        """Fraction of steps with >= k subset satellites visible at a site."""
        counts = self.visible_counts(site_index, sat_indices)
        if self.n_times == 0:
            return 0.0
        return float(np.count_nonzero(counts >= int(k)) / self.n_times)

    def _subset2(self, sat_indices, site_indices) -> np.ndarray:
        """Rows of the selected sites and satellites, gathered in one step
        (gathering either axis first would copy rows the other drops)."""
        if site_indices is None:
            return self._subset(sat_indices)
        sites = kernels.index_array(site_indices, self.n_sites, "site")
        if sat_indices is None:
            return self.packed[sites]
        return self.packed[np.ix_(sites, self._rows(sat_indices))]

    def satellite_active_fractions(
        self, sat_indices=None, site_indices=None
    ) -> np.ndarray:
        """Active fraction per satellite (any selected site visible).

        ``site_indices`` restricts which sites count as demand (the Fig. 3
        sweep serves the top-k cities only); default is all sites.  An empty
        site selection means no demand anywhere: every satellite's active
        fraction is zero.

        A satellite's count does not depend on the rest of the subset, so
        the first query per site set counts every row (:attr:`activity`)
        and each query gathers its satellites' counts.
        """
        rows = None if sat_indices is None else self._rows(sat_indices)
        counts = self.activity.lookup(
            site_indices,
            lambda sites: kernels.active_sample_counts(self.packed, sites),
        )
        if rows is not None:
            counts = counts[rows]
        return counts / float(self.n_times)

    def satellite_masks(self, sat_indices=None, site_indices=None) -> np.ndarray:
        """Boolean activity masks (N_subset, T): any selected site sees the
        satellite.  An empty site selection yields all-False masks."""
        rows = self._subset2(sat_indices, site_indices)
        if rows.shape[0] == 0 or rows.shape[1] == 0:
            return np.zeros((rows.shape[1], self.n_times), dtype=bool)
        packed_or = np.bitwise_or.reduce(rows, axis=0)
        return np.unpackbits(packed_or, axis=1)[:, : self.n_times].astype(bool)


def packed_visibility(
    constellation: ConstellationLike,
    sites: Sequence[GroundSite],
    grid: TimeGrid,
    chunk_size: Optional[int] = None,
    geometry: Optional[SiteGeometry] = None,
    cull: bool = True,
) -> PackedVisibility:
    """Compute a :class:`PackedVisibility` for a pool of satellites.

    Streams: one (S, N, chunk) slab is packed at a time, so peak memory is
    the packed result plus O(S·N·chunk) transients — the full boolean
    tensor is never held.  The chunk size defaults to the adaptive
    :func:`repro.sim.kernels.default_chunk_size` like every other stream,
    rounded down to a multiple of 8 so chunks pack cleanly; the final
    partial chunk is zero-padded (padding bits read "not visible").

    ``geometry`` reuses a cached :class:`SiteGeometry`.
    """
    if geometry is None:
        geometry = SiteGeometry(sites, grid)
    plan = kernels.plan_stream(
        _as_propagator(constellation),
        geometry,
        grid,
        chunk_size=chunk_size,
        cull=cull,
        pack=True,
    )
    return PackedVisibility(kernels.stream_packed_bits(plan), grid.count, grid)
