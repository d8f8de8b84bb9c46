"""Subset-query batch kernels over the packed visibility tensor.

Attrition / withdrawal / skew trajectories evaluate coverage for *many*
satellite subsets of one fleet (12+ per arm in ``ablation_failures``).
Re-running a full visibility build per composition — or even gathering
from the full-pool tensor when only 500 of 4400+ satellites matter — pays
for geometry the queries never touch.  :class:`SubsetQuery` precomputes
one per-(site, satellite) contribution structure, the packed bit rows of
exactly the fleet under study, and then answers weighted-city coverage,
idle capacity, and k-coverage for arbitrary subsets via
popcount-on-masked-rows (:func:`repro.sim.kernels.or_popcount`).

Two construction paths, bit-identical by the kernel layer's contract:

* :meth:`SubsetQuery.from_visibility` gathers fleet rows out of an
  already-built full-pool tensor (free when the cache is warm);
* :meth:`SubsetQuery.build` streams a fleet-scoped build through
  :func:`repro.sim.kernels.plan_stream` — on the all-circular fast path
  the per-satellite trig is elementwise, so the fleet-scoped rows match
  the full-pool rows bit for bit (pinned by tests/sim/test_subsets.py).

Query semantics mirror :class:`repro.sim.visibility.PackedVisibility`
exactly (including empty-subset behaviour); the brute-force agreement
tests compare both against unpacked boolean reductions.

The interval-native equivalent is
:class:`repro.sim.intervals.IntervalSubsetQuery`, built over a
fleet-restricted CSR window structure and answered by incremental event
sweeps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.orbits.propagator import BatchPropagator
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.kernels import SiteGeometry, plan_stream, stream_packed_bits


def _as_sorted_fleet(fleet) -> np.ndarray:
    """Normalize a fleet selection to a sorted intp array."""
    array = np.sort(np.asarray(fleet, dtype=np.intp).reshape(-1))
    if array.size > 1 and np.any(array[1:] == array[:-1]):
        raise ValueError("fleet indices must be unique")
    return array


class SubsetQuery:
    """Precomputed packed rows of one fleet; cheap arbitrary-subset queries.

    ``fleet`` is None when the query spans the whole pool (subset indices
    are then raw pool indices); otherwise it is the sorted pool-index
    array the packed rows were gathered/built for, and every queried
    subset must be drawn from it.
    """

    def __init__(
        self,
        packed: np.ndarray,
        n_times: int,
        fleet: Optional[np.ndarray] = None,
    ) -> None:
        if packed.ndim != 3 or packed.dtype != np.uint8:
            raise ValueError(
                f"packed must be (S, F, B) uint8, got {packed.dtype} "
                f"{packed.shape}"
            )
        if fleet is not None and fleet.size != packed.shape[1]:
            raise ValueError(
                f"fleet has {fleet.size} indices but packed holds "
                f"{packed.shape[1]} satellite rows"
            )
        self.packed = packed
        self.n_times = int(n_times)
        self.fleet = fleet

    # -- construction ------------------------------------------------------

    @classmethod
    def from_visibility(cls, visibility, fleet=None) -> "SubsetQuery":
        """Gather fleet rows from a built tensor (zero-copy when pool-wide).

        Gathering is exact by construction: the rows are the very bytes
        the full build produced.
        """
        if fleet is None:
            return cls(visibility.packed, visibility.n_times, None)
        fleet = _as_sorted_fleet(fleet)
        rows = np.ascontiguousarray(visibility.packed[:, fleet, :])
        return cls(rows, visibility.n_times, fleet)

    @classmethod
    def build(
        cls,
        propagator: BatchPropagator,
        geometry: SiteGeometry,
        grid: TimeGrid,
        fleet,
        chunk_size: Optional[int] = None,
        cull: bool = True,
    ) -> "SubsetQuery":
        """Stream a fleet-scoped packed build — skips the rest of the pool.

        Orders of magnitude cheaper than a full-pool build when the fleet
        is small (the einsum and trig scale with the fleet, not the pool).
        """
        fleet = _as_sorted_fleet(fleet)
        plan = plan_stream(
            propagator.subset(fleet), geometry, grid,
            chunk_size=chunk_size, cull=cull, pack=True,
        )
        packed = stream_packed_bits(plan)
        return cls(packed, grid.count, fleet)

    # -- indexing ----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.packed.shape[0]

    @property
    def n_satellites(self) -> int:
        """Satellites held by the precompute (the fleet size)."""
        return self.packed.shape[1]

    def _rows_for(self, subset) -> np.ndarray:
        """Map pool-index subsets to local packed rows (identity pool-wide)."""
        if subset is None:
            return np.arange(self.n_satellites, dtype=np.intp)
        subset = np.asarray(subset, dtype=np.intp).reshape(-1)
        if self.fleet is None:
            return subset
        local = np.searchsorted(self.fleet, subset)
        local = np.minimum(local, self.fleet.size - 1) if self.fleet.size else local
        if subset.size and (
            self.fleet.size == 0 or not np.array_equal(self.fleet[local], subset)
        ):
            raise KeyError("subset contains satellites outside the fleet")
        return local

    # -- queries -----------------------------------------------------------

    def coverage_fractions(self, subset=None) -> np.ndarray:
        """Covered fraction per site (S,) for one satellite subset."""
        local = self._rows_for(subset)
        if local.size == 0:
            return np.zeros(self.n_sites)
        rows = self.packed[:, local, :]
        counts = kernels.or_popcount(rows, axis=1)
        return counts / float(self.n_times)

    def satellite_active_fractions(
        self, subset=None, site_indices=None
    ) -> np.ndarray:
        """Active fraction per subset satellite (any selected site visible)."""
        local = self._rows_for(subset)
        rows = self.packed
        if site_indices is not None:
            rows = rows[np.asarray(site_indices, dtype=np.intp).reshape(-1)]
        rows = rows[:, local, :]
        if rows.shape[0] == 0 or rows.shape[1] == 0:
            return np.zeros(rows.shape[1])
        counts = kernels.or_popcount(rows, axis=0)
        return counts / float(self.n_times)

    def visible_counts(self, site_index: int, subset=None) -> np.ndarray:
        """Per-step visible-satellite counts (T,) at one site."""
        local = self._rows_for(subset)
        if local.size == 0:
            return np.zeros(self.n_times, dtype=np.int64)
        rows = self.packed[int(site_index), local, :]
        bits = np.unpackbits(rows, axis=1)[:, : self.n_times]
        return bits.sum(axis=0, dtype=np.int64)

    def k_coverage_fraction(self, site_index: int, k: int, subset=None) -> float:
        """Fraction of steps with >= k subset satellites visible at a site."""
        if self.n_times == 0:
            return 0.0
        counts = self.visible_counts(site_index, subset)
        return float(np.count_nonzero(counts >= int(k)) / self.n_times)


def query_for_sites(
    query: SubsetQuery, site_indices: Sequence[int]
) -> SubsetQuery:
    """A site-restricted view of a query (shares the packed rows)."""
    rows = query.packed[np.asarray(site_indices, dtype=np.intp).reshape(-1)]
    return SubsetQuery(rows, query.n_times, query.fleet)
