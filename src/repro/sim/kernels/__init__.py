"""Fused, chunk-streaming visibility kernels with geometric pair culling.

The figure experiments never need the full ``(S, N, T)`` visibility tensor:
every reduction the paper uses — site coverage (``any`` over satellites),
satellite activity (``any`` over sites), visible counts, and the bit-packed
Monte-Carlo pool — is a single pass over the time axis.  The kernels here
hold exactly one ``(S, N, chunk)`` slab at a time, so peak memory scales
with the chunk size, not the horizon: O(S·N·chunk) instead of O(S·N·T).
For the full synthetic Starlink pool at the 22 experiment sites over one
week, that is tens of MB of transients instead of a ~0.5 GB boolean tensor
plus GB-scale float64 intermediates.

Bit-identity contract
---------------------
Streaming must not change a single bit relative to the materialized
reference (:meth:`repro.sim.visibility.VisibilityEngine.visibility`): the
golden figures compare at rtol 1e-6 and one flipped visibility bit moves a
coverage fraction by 1/T.  Three rules keep the guarantee (pinned by
tests/sim/test_kernels.py and the ``oracle.fused`` validation check):

* the dot-product einsum always runs at the full ``(S, N, chunk)`` shape
  with the exact signature of the reference path — BLAS summation geometry
  (and hence the last ulp) depends on operand shapes, so culled satellites
  are *zeroed in the operand*, never removed from it;
* satellite culling only skips *propagation* (the per-chunk trig), and only
  on the all-circular fast path, where per-element results are independent
  of batch membership (the general Kepler path iterates to a batch-global
  tolerance, so a subset could converge in a different iteration count);
* chunking the time axis is bit-neutral: each time sample is an independent
  batched-GEMM slice (pinned by the chunk-invariance tests).

The threshold compare is an elementwise float64 ``>=``, and the packed
subset reductions share one integer OR+popcount (:func:`or_popcount`,
exact in any evaluation order).  Per-satellite activity is memoized
pool-wide, one vector per site set (:class:`ActivityTable`), so a subset
query gathers counts instead of reducing rows.  Both contact worlds
(:class:`repro.sim.visibility.PackedVisibility` and
:class:`repro.sim.intervals.ContactIntervals`) read every satellite and
site selection through :func:`index_array` and :func:`fleet_rows`, so they
accept and refuse the same selections.

Geometric pair culling
----------------------
A satellite with inclination *i* never exceeds geocentric latitude
``lambda_max = asin(|sin i|)`` (J2 secular drift changes RAAN, perigee and
phase — never the inclination), and a ground site sits at fixed geocentric
latitude ``phi``.  The central angle between their geocentric unit vectors
is therefore at least ``max(|phi| - lambda_max, 0)``, which upper-bounds
the achievable dot product by the cosine of that gap.  Pairs whose bound
falls short of the visibility threshold (minus a float-safety margin) can
*never* see each other — a 53 deg shell never covers a 75 deg-latitude
site — so their satellites need no propagation at all when no site can
reach them.  The bound is conservative: culling changes which work is
*skipped*, never the results.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_logger, metrics
from repro.obs.trace import span
from repro.orbits.frames import gmst_rad
from repro.orbits.propagator import BatchPropagator
from repro.ground.sites import GroundSite
from repro.sim.clock import TimeGrid

_LOG = get_logger(__name__)

#: Per-byte popcount lookup (shared with :mod:`repro.sim.visibility`).
POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint32
)


def or_popcount(rows: np.ndarray, axis: int) -> np.ndarray:
    """OR-reduce packed uint8 rows over ``axis``, then popcount per row.

    ``rows`` is ``(A, K, B)`` uint8; the reduction axis (0 or 1) is
    collapsed and the surviving ``(rows, B)`` bytes are popcounted and
    summed to int64 bit counts.  Callers guarantee a non-empty reduction
    axis.
    """
    packed_or = np.bitwise_or.reduce(rows, axis=axis)
    return POPCOUNT_TABLE[packed_or].sum(axis=1).astype(np.int64)


def index_array(indices, size: int, axis: str = "satellite") -> np.ndarray:
    """Validate a selection: a flat intp array of positions in ``[0, size)``.

    Unsorted and repeated positions keep their meaning (one answer per
    entry); an empty selection of any dtype selects nothing.  A negative,
    out-of-range or non-integer index raises :class:`IndexError` instead of
    wrapping numpy-style or reading another row.
    """
    array = np.asarray(indices)
    if array.size == 0:
        return np.empty(0, dtype=np.intp)
    if array.dtype.kind not in "iu":
        raise IndexError(f"{axis} indices must be integers, got {array.dtype}")
    array = array.reshape(-1).astype(np.intp, copy=False)
    low, high = int(array.min()), int(array.max())
    if low < 0 or high >= size:
        bad = low if low < 0 else high
        raise IndexError(f"{axis} index {bad} out of range [0, {size})")
    return array


def as_fleet(fleet, pool_size: int) -> np.ndarray:
    """A fleet selection as sorted unique pool indices.

    Raises :class:`IndexError` like :func:`index_array` and
    :class:`ValueError` on a repeated index.
    """
    array = np.sort(index_array(fleet, pool_size, "fleet"))
    if array.size > 1 and np.any(array[1:] == array[:-1]):
        raise ValueError("fleet indices must be unique")
    return array


def fleet_rows(
    indices, fleet: Optional[np.ndarray], pool_size: int
) -> np.ndarray:
    """Local rows of pool-index satellites in a world over ``fleet``.

    ``fleet`` is the sorted pool-index array a restricted world holds rows
    for, or None for a pool-wide world (rows are pool indices).  Invalid
    pool indices raise :class:`IndexError`; a valid pool index outside the
    fleet raises :class:`KeyError`.
    """
    array = index_array(indices, pool_size)
    if fleet is None or array.size == 0:
        return array
    local = np.minimum(np.searchsorted(fleet, array), max(fleet.size - 1, 0))
    if fleet.size == 0 or not np.array_equal(fleet[local], array):
        raise KeyError("subset contains satellites outside the fleet")
    return local


def active_sample_counts(packed: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Samples each satellite is seen by any of ``sites``: (N,) int64.

    ``packed`` is ``(S, N, B)`` uint8 and ``sites`` an integer index array;
    no sites means no demand, so every count is zero.
    """
    if sites.size == 0:
        return np.zeros(packed.shape[1], dtype=np.int64)
    return or_popcount(packed[sites], axis=0)


class ActivityTable:
    """Pool-wide per-satellite activity, one vector per distinct site set.

    A satellite's activity over a site set (its active samples or seconds)
    reduces over that satellite's own rows only; it never depends on which
    other satellites a query selects.  So the holder computes the vector
    for every satellite once per site set and answers each satellite
    subset with a gather.  Entries are keyed by the sorted unique site
    indices, so repeated and permuted selections share one entry.

    The table is process-local: it never pickles and never enters shared
    memory, and it goes away with its holder.  A shm-attached, restricted
    or unpickled copy of the holder starts cold.
    """

    __slots__ = ("n_sites", "vectors", "_builds", "_hits")

    def __init__(self, n_sites: int, counter_prefix: str) -> None:
        self.n_sites = int(n_sites)
        self.vectors = {}
        self._builds = metrics.counter(f"{counter_prefix}.builds")
        self._hits = metrics.counter(f"{counter_prefix}.hits")

    def clear(self) -> None:
        self.vectors.clear()

    def lookup(self, site_indices, build) -> np.ndarray:
        """The vector for a site selection (None = every site).

        On a miss, ``build(sites)`` computes it from the sorted unique
        site index array.  The selection is validated by
        :func:`index_array`: a negative or out-of-range site raises
        :class:`IndexError`.
        """
        if site_indices is None:
            sites = np.arange(self.n_sites, dtype=np.intp)
        else:
            sites = np.unique(index_array(site_indices, self.n_sites, "site"))
        key = sites.tobytes()
        vector = self.vectors.get(key)
        if vector is None:
            self._builds.inc()
            vector = self.vectors[key] = build(sites)
        else:
            self._hits.inc()
        return vector


#: Smallest default streaming chunk (time samples per slab).  The float64
#: dot-product slab is the peak allocation — (S, N, chunk) · 8 bytes — so
#: 64 samples keeps a full-pool build (22 × 4408) under ~100 MB of
#: transients while staying wide enough (~300k elements per einsum) for
#: BLAS efficiency.  Multiple of 8 so packed chunks land on byte
#: boundaries.
DEFAULT_STREAM_CHUNK = 64

#: Largest default streaming chunk.  Small constellations hit per-chunk
#: Python/dispatch overhead long before memory matters, so the adaptive
#: default below widens the chunk until the slab reaches
#: :data:`TARGET_SLAB_BYTES` or this cap.
MAX_STREAM_CHUNK = 2048

#: Boolean-slab byte budget the adaptive default chunk aims for.  The
#: accompanying float64 dot slab is 8x this, so the default's transient
#: peak stays in the tens of megabytes for any population.
TARGET_SLAB_BYTES = 4 * 2**20


def default_chunk_size(n_sites: int, n_satellites: int) -> int:
    """Adaptive chunk for callers that don't pick one.

    Sized so the (S, N, chunk) boolean slab is ~:data:`TARGET_SLAB_BYTES`,
    clamped to [:data:`DEFAULT_STREAM_CHUNK`, :data:`MAX_STREAM_CHUNK`] and
    kept a multiple of 8.  Chunking is bit-neutral (the fused oracle pins
    it), so the default is purely a time/memory trade: full-pool runs get
    small memory-bounded slabs, tiny design-sweep constellations get wide
    slabs that amortize per-chunk overhead.
    """
    pairs = n_sites * n_satellites
    if pairs <= 0:
        return MAX_STREAM_CHUNK
    chunk = TARGET_SLAB_BYTES // pairs // 8 * 8
    return int(min(MAX_STREAM_CHUNK, max(DEFAULT_STREAM_CHUNK, chunk)))

#: Float-safety margin subtracted from the threshold before declaring a
#: pair infeasible.  The geometric bound is exact in real arithmetic; the
#: margin absorbs the ~1e-15 rounding of the cos/arcsin chain with six
#: orders of magnitude to spare.
CULL_COS_MARGIN = 1e-9

_PAIRS_CULLED = metrics.counter("sim.visibility.culled_pairs")
_SATS_CULLED = metrics.counter("sim.visibility.culled_satellites")
_CULL_FRACTION = metrics.gauge("sim.visibility.cull_fraction")

# Kernel introspection (ISSUE 6): stream traffic and cull efficiency.
# Counters only ever read slab metadata (shape/nbytes) and plan scalars —
# never array contents — so they cannot perturb the bit-identity contract.
_SLABS_STREAMED = metrics.counter("sim.kernels.slabs_streamed")
_SLAB_BYTES = metrics.counter("sim.kernels.slab_bytes")
_PAIRS_EVALUATED = metrics.counter("sim.kernels.pairs_evaluated")
_CULL_RATIO = metrics.gauge("sim.kernels.cull_ratio")
_THRESH_HITS = metrics.counter("sim.kernels.threshold_cache.hits")
_THRESH_MISSES = metrics.counter("sim.kernels.threshold_cache.misses")
_THRESH_EVICTIONS = metrics.counter("sim.kernels.threshold_cache.evictions")

# Shared with repro.sim.visibility (get-or-create by name returns the same
# instruments; visibility.py cannot be imported here — it imports us).
_PAIRS = metrics.counter("sim.visibility.pairs")
_SAMPLES_TOTAL = metrics.counter("sim.visibility.pair_samples")
_SAMPLES_VISIBLE = metrics.counter("sim.visibility.pair_samples_visible")
_PASS_RATE = metrics.gauge("sim.visibility.mask_pass_rate")


def record_visibility_metrics(
    n_sites: int, n_sats: int, n_times: int, visible_samples: int
) -> None:
    """Account one visibility computation: pair counts and mask pass rate."""
    pairs = n_sites * n_sats
    samples = pairs * n_times
    _PAIRS.inc(pairs)
    _SAMPLES_TOTAL.inc(samples)
    _SAMPLES_VISIBLE.inc(visible_samples)
    if samples:
        _PASS_RATE.set(visible_samples / samples)
    _LOG.debug(
        "visibility: %d sites x %d sats x %d steps, mask pass rate %.4f",
        n_sites, n_sats, n_times, visible_samples / samples if samples else 0.0,
    )


def coverage_cos_thresholds(
    orbital_radii_m: np.ndarray,
    site_radii_m: np.ndarray,
    min_elevation_deg: np.ndarray,
) -> np.ndarray:
    """Vectorized cos(psi) thresholds for (site, satellite) pairs.

    Args:
        orbital_radii_m: (N,) satellite orbital radii.
        site_radii_m: (S,) geocentric site radii.
        min_elevation_deg: (S,) per-site elevation masks.

    Returns:
        (S, N) array of cosine thresholds: a satellite is visible from a site
        when the dot product of their geocentric unit vectors meets or
        exceeds the threshold.
    """
    radii = np.asarray(orbital_radii_m, dtype=np.float64)[None, :]
    site_radii = np.asarray(site_radii_m, dtype=np.float64)[:, None]
    masks = np.radians(np.asarray(min_elevation_deg, dtype=np.float64))[:, None]
    if np.any(radii <= site_radii):
        raise ValueError("orbital radius must exceed the site radius")
    psi = np.arccos(np.clip(site_radii / radii * np.cos(masks), -1.0, 1.0)) - masks
    return np.cos(psi)


def site_radii_m(sites: Sequence[GroundSite]) -> np.ndarray:
    """Batched geocentric site radii (S,).

    The einsum self-dot + sqrt reproduces ``np.linalg.norm`` on each row
    bit-for-bit (same three products, same summation order) without the
    per-site Python loop; ``np.linalg.norm(positions, axis=1)`` does *not*
    (it squares via a different reduction), which matters because the
    radii feed the visibility thresholds the goldens pin.
    """
    if not sites:
        return np.zeros(0, dtype=np.float64)
    positions = np.stack([site.position_ecef for site in sites])
    return np.sqrt(np.einsum("sk,sk->s", positions, positions, optimize=True))


class SiteGeometry:
    """Precomputed site-side geometry for one (sites, grid) pair.

    Everything the visibility kernels need from the ground segment —
    stacked ECEF unit vectors, geocentric radii, elevation masks, the
    per-grid ECI unit tracks, and the per-propagator cos thresholds — is
    fixed per experiment while the constellation sample varies, so
    :class:`~repro.experiments.common.ExperimentContext` caches instances
    across Monte-Carlo runs.

    The ECI track is built lazily (:meth:`prime_track`) because one-shot
    callers are better served computing chunk slices on the fly; cached
    contexts prime it once and every later build slices it for free.
    """

    def __init__(self, sites: Sequence[GroundSite], grid: TimeGrid) -> None:
        self.sites: Tuple[GroundSite, ...] = tuple(sites)
        self.grid = grid
        self.radii_m = site_radii_m(self.sites)
        if self.sites:
            self.unit_ecef = np.stack([site.unit_ecef for site in self.sites])
            self.min_elevation_deg = np.array(
                [site.min_elevation_deg for site in self.sites]
            )
        else:
            self.unit_ecef = np.zeros((0, 3))
            self.min_elevation_deg = np.zeros(0)
        #: Geocentric site latitudes (S,), for the pair-culling bound.
        self.latitude_rad = np.arcsin(np.clip(self.unit_ecef[:, 2], -1.0, 1.0))
        self._track: Optional[np.ndarray] = None
        # Thresholds depend on the propagator's radii; weak keying lets a
        # cached geometry serve many pool rebuilds without pinning
        # propagators alive.
        self._thresholds: "weakref.WeakKeyDictionary[BatchPropagator, np.ndarray]"
        self._thresholds = weakref.WeakKeyDictionary()

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def thresholds(self, propagator: BatchPropagator) -> np.ndarray:
        """Cached (S, N) cos thresholds for this propagator's radii."""
        cached = self._thresholds.get(propagator)
        if cached is None:
            _THRESH_MISSES.inc()
            cached = coverage_cos_thresholds(
                propagator.semi_major_axis_m, self.radii_m, self.min_elevation_deg
            )
            self._thresholds[propagator] = cached
            # The weak-keyed entry dies with the propagator; account it.
            weakref.finalize(propagator, _THRESH_EVICTIONS.inc)
        else:
            _THRESH_HITS.inc()
        return cached

    def units_eci(self, times_s: np.ndarray) -> np.ndarray:
        """Site geocentric unit directions in ECI at each time: (S, T, 3)."""
        theta = gmst_rad(times_s, self.grid.gmst_at_epoch_rad)  # (T,)
        cos_t = np.cos(theta)
        sin_t = np.sin(theta)
        x = self.unit_ecef[:, 0][:, None]
        y = self.unit_ecef[:, 1][:, None]
        out = np.empty((self.n_sites, times_s.size, 3))
        # ECEF -> ECI is a rotation by +theta about z.
        out[..., 0] = cos_t * x - sin_t * y
        out[..., 1] = sin_t * x + cos_t * y
        out[..., 2] = self.unit_ecef[:, 2][:, None]
        return out

    def prime_track(self) -> np.ndarray:
        """Build (and cache) the full (S, T, 3) ECI unit track for the grid."""
        if self._track is None:
            self._track = self.units_eci(self.grid.times_s)
            self._track.flags.writeable = False
        return self._track

    @property
    def track_primed(self) -> bool:
        return self._track is not None

    def units_chunk(self, offset: int, times_s: np.ndarray) -> np.ndarray:
        """Unit track for one chunk, contiguous: (S, Tc, 3).

        Slicing the primed track yields the same per-element values as
        computing the chunk directly (the trig is elementwise); the copy to
        contiguous layout keeps the einsum operand layout — and therefore
        its bits — independent of whether a track cache was present.
        """
        if self._track is None:
            return self.units_eci(times_s)
        return np.ascontiguousarray(
            self._track[:, offset : offset + times_s.size, :]
        )


def pair_cull_mask(
    propagator: BatchPropagator,
    geometry: SiteGeometry,
    thresholds: Optional[np.ndarray] = None,
    margin: float = CULL_COS_MARGIN,
) -> np.ndarray:
    """(S, N) feasibility: False where a pair can never see each other.

    Upper-bounds each pair's achievable dot product by
    ``cos(max(|site_latitude| - asin(|sin i|), 0))`` (latitudes can align
    in longitude at best) and compares against the visibility threshold
    minus ``margin``.  Conservative by construction: a False entry is a
    mathematical guarantee of zero visibility over any horizon.
    """
    if thresholds is None:
        thresholds = geometry.thresholds(propagator)
    sat_lat_max = np.arcsin(np.clip(np.abs(np.sin(propagator.inclination_rad)), 0.0, 1.0))
    gap = np.maximum(
        np.abs(geometry.latitude_rad)[:, None] - sat_lat_max[None, :], 0.0
    )  # (S, N) minimum central angle
    return np.cos(gap) >= thresholds - margin


class StreamPlan:
    """One resolved streaming computation: operands, chunking, culling.

    Built by :func:`plan_stream`; consumed by :func:`iter_slabs` and the
    ``stream_*`` kernels.  ``active_indices`` is None when every satellite
    propagates (culling off, not applicable, or nothing to cull).
    """

    __slots__ = (
        "propagator", "geometry", "grid", "chunk_size", "thresholds",
        "feasible", "active_indices", "active_propagator", "culled_pairs",
        "culled_satellites", "cull_applied",
    )

    def __init__(self, propagator, geometry, grid, chunk_size, thresholds,
                 feasible, active_indices, active_propagator, culled_pairs,
                 culled_satellites, cull_applied) -> None:
        self.propagator = propagator
        self.geometry = geometry
        self.grid = grid
        self.chunk_size = chunk_size
        self.thresholds = thresholds
        self.feasible = feasible
        self.active_indices = active_indices
        self.active_propagator = active_propagator
        self.culled_pairs = culled_pairs
        self.culled_satellites = culled_satellites
        self.cull_applied = cull_applied

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

    @property
    def n_satellites(self) -> int:
        return self.propagator.count

    @property
    def nothing_visible(self) -> bool:
        """True when culling proved no pair can ever connect."""
        return self.cull_applied and self.active_propagator is None


def plan_stream(
    propagator: BatchPropagator,
    geometry: SiteGeometry,
    grid: TimeGrid,
    chunk_size: Optional[int] = None,
    cull: bool = True,
    pack: bool = False,
) -> StreamPlan:
    """Resolve chunking and culling for one streaming computation.

    Args:
        propagator: The constellation to stream (callers adapt element
            lists / Constellations via the visibility layer).
        geometry: Precomputed site geometry (its grid must match ``grid``).
        grid: The time grid to stream over.
        chunk_size: Time samples per slab (default: adaptive, see
            :func:`default_chunk_size`); rounded down to a multiple of 8
            when ``pack`` so packed chunks land on byte boundaries.
        cull: Enable the geometric pair cull.  Infeasible pairs are always
            *counted*; propagation is only skipped on the all-circular fast
            path (see the module docstring's bit-identity contract).
        pack: Round the chunk for bit packing.
    """
    if chunk_size is None:
        chunk_size = default_chunk_size(geometry.n_sites, propagator.count)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if pack:
        chunk_size = max(8, chunk_size // 8 * 8)
    thresholds = geometry.thresholds(propagator)

    feasible = None
    active_indices = None
    active_propagator = propagator
    culled_pairs = 0
    culled_satellites = 0
    cull_applied = False
    if cull:
        feasible = pair_cull_mask(propagator, geometry, thresholds)
        culled_pairs = int(np.count_nonzero(~feasible))
        # Skipping propagation for a subset is only bit-safe on the
        # circular fast path (elementwise trig, no batch-global Kepler
        # iteration); see BatchPropagator.all_circular.
        if culled_pairs and propagator.all_circular:
            reachable = feasible.any(axis=0)  # (N,) any site could connect
            culled_satellites = int(np.count_nonzero(~reachable))
            if culled_satellites:
                cull_applied = True
                active = np.flatnonzero(reachable)
                if active.size:
                    active_indices = active
                    active_propagator = propagator.subset(active)
                else:
                    active_propagator = None
    _PAIRS_CULLED.inc(culled_pairs)
    _SATS_CULLED.inc(culled_satellites)
    pairs = geometry.n_sites * propagator.count
    _PAIRS_EVALUATED.inc(pairs - culled_pairs)
    _CULL_FRACTION.set(culled_pairs / pairs if pairs else 0.0)
    _CULL_RATIO.set(culled_pairs / pairs if pairs else 0.0)
    if culled_satellites:
        _LOG.debug(
            "pair cull: %d/%d pairs infeasible, %d/%d satellites skip propagation",
            culled_pairs, pairs, culled_satellites, propagator.count,
        )
    return StreamPlan(
        propagator=propagator,
        geometry=geometry,
        grid=grid,
        chunk_size=chunk_size,
        thresholds=thresholds,
        feasible=feasible,
        active_indices=active_indices,
        active_propagator=active_propagator,
        culled_pairs=culled_pairs,
        culled_satellites=culled_satellites,
        cull_applied=cull_applied,
    )


def iter_slabs(plan: StreamPlan) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (time_offset, boolean slab (S, N, Tc)) per chunk, in order.

    The slab is freshly computed per chunk and owned by the consumer until
    the next iteration; only one slab (plus its float64 dot-product twin)
    is alive at a time.  Culled satellites appear as all-False rows: their
    unit-vector columns are zeroed in the full-shape einsum operand, and a
    zero dot product never reaches a threshold (thresholds of cullable
    pairs are strictly positive — see :func:`pair_cull_mask`).
    """
    if plan.nothing_visible:
        for offset, chunk_times in _chunk_offsets(plan):
            slab = np.zeros(
                (plan.n_sites, plan.n_satellites, chunk_times.size), dtype=bool
            )
            _SLABS_STREAMED.inc()
            _SLAB_BYTES.inc(slab.nbytes)
            yield offset, slab
        return
    thresholds = plan.thresholds[:, :, None]
    for offset, chunk_times in _chunk_offsets(plan):
        if plan.active_indices is None:
            sat_units = plan.active_propagator.unit_positions_eci_unspanned(
                chunk_times
            )
        else:
            sat_units = np.zeros((plan.n_satellites, chunk_times.size, 3))
            sat_units[plan.active_indices] = (
                plan.active_propagator.unit_positions_eci_unspanned(chunk_times)
            )
        site_units = plan.geometry.units_chunk(offset, chunk_times)
        dots = np.einsum("ntk,stk->snt", sat_units, site_units, optimize=True)
        slab = dots >= thresholds
        # Release the float64 slab before yielding: it is 8x the boolean
        # slab and would otherwise stay alive across the next chunk's
        # einsum, doubling the transient peak.
        del dots
        _SLABS_STREAMED.inc()
        _SLAB_BYTES.inc(slab.nbytes)
        yield offset, slab


def _chunk_offsets(plan: StreamPlan) -> Iterator[Tuple[int, np.ndarray]]:
    offset = 0
    for chunk_times in plan.grid.chunks(plan.chunk_size):
        yield offset, chunk_times
        offset += chunk_times.size


def stream_site_coverage(plan: StreamPlan) -> np.ndarray:
    """Per-site coverage mask (S, T): any satellite visible, streamed."""
    coverage = np.zeros((plan.n_sites, plan.grid.count), dtype=bool)
    visible_samples = 0
    with span("visibility.stream"):
        for offset, slab in iter_slabs(plan):
            np.any(slab, axis=1, out=coverage[:, offset : offset + slab.shape[2]])
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return coverage


def stream_satellite_activity(plan: StreamPlan) -> np.ndarray:
    """Per-satellite activity mask (N, T): any site visible, streamed."""
    activity = np.zeros((plan.n_satellites, plan.grid.count), dtype=bool)
    visible_samples = 0
    with span("visibility.stream"):
        for offset, slab in iter_slabs(plan):
            np.any(slab, axis=0, out=activity[:, offset : offset + slab.shape[2]])
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return activity


def stream_visible_counts(plan: StreamPlan) -> np.ndarray:
    """Visible-satellite counts per site per time (S, T), streamed.

    Accumulates into uint16 (uint32 for constellations past 65535
    satellites) — the count axis is bounded by N, not T, so the narrow
    dtype is exact and keeps the output 4-8x smaller than int64.
    """
    dtype = np.uint16 if plan.n_satellites < 2**16 else np.uint32
    counts = np.zeros((plan.n_sites, plan.grid.count), dtype=dtype)
    visible_samples = 0
    with span("visibility.stream"):
        for offset, slab in iter_slabs(plan):
            counts[:, offset : offset + slab.shape[2]] = slab.sum(
                axis=1, dtype=dtype
            )
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return counts


def stream_packed_bits(plan: StreamPlan) -> np.ndarray:
    """Bit-pack the visibility tensor along time, chunk by chunk.

    Returns uint8 of shape (S, N, ceil(T/8)); the final partial byte is
    zero-padded (padding reads "not visible").

    Requires a plan built with ``pack=True`` (chunk a multiple of 8, so
    every chunk lands on a byte boundary).
    """
    if plan.chunk_size % 8:
        raise ValueError("packing needs a plan built with pack=True")
    n_bytes = (plan.grid.count + 7) // 8
    shape = (plan.n_sites, plan.n_satellites, n_bytes)
    # empty + sequential fill, not np.zeros: the packed tensor is a
    # long-lived cache read by thousands of gather calls, and calloc's
    # lazily faulted pages (first touched in the scattered per-chunk write
    # order below) map poorly — downstream reductions measure ~1.8x slower
    # than on a sequentially first-touched buffer.
    out = np.empty(shape, dtype=np.uint8)
    out.fill(0)
    visible_samples = 0
    with span("visibility.pack"):
        for offset, slab in iter_slabs(plan):
            chunk_packed = np.packbits(slab, axis=2)
            byte_offset = offset // 8
            out[:, :, byte_offset : byte_offset + chunk_packed.shape[2]] = (
                chunk_packed
            )
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return out


def _finish(plan: StreamPlan, visible_samples: int) -> None:
    record_visibility_metrics(
        plan.n_sites, plan.n_satellites, plan.grid.count, visible_samples
    )
