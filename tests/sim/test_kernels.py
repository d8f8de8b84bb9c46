"""Streaming kernels vs the materialized reference: exact equality.

Every test here compares a streaming reduction against plain numpy
reductions of the full (S, N, T) tensor with `np.array_equal` — not
almost-equal.  The streaming rewrite is only admissible because it is
bit-identical; these tests are the gate.
"""

import numpy as np
import pytest

from repro.constellation.walker import walker_delta
from repro.ground.sites import GroundSite
from repro.obs import metrics
from repro.orbits.elements import OrbitalElements
from repro.orbits.propagator import BatchPropagator
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine, packed_visibility


GRID = TimeGrid(duration_s=7_500.0, step_s=60.0)  # 125 samples: not 8-aligned.

SITES = [
    GroundSite("equator", 0.0, 10.0, min_elevation_deg=25.0),
    GroundSite("mid", 45.0, -70.0, min_elevation_deg=25.0),
    GroundSite("taipei-ish", 25.0, 121.5, min_elevation_deg=25.0),
    GroundSite("polar", 78.0, 15.0, min_elevation_deg=25.0),
]

#: Without the equator site the 10 deg shell below is unreachable from
#: every site, so satellite-level culling fires (at a 25 deg mask the
#: coverage footprint half-angle is ~8.5 deg: a 45 deg-latitude site needs
#: inclination above ~36 deg, Taipei above ~16 deg).
CULL_SITES = SITES[1:]

#: Chunk-size corners: one sample per slab, a prime, the default, > T.
CHUNKS = (1, 13, kernels.DEFAULT_STREAM_CHUNK, 100_000)


def _shell(count, planes, inclination_deg, altitude_km=550.0):
    return walker_delta(
        count,
        planes,
        1 % planes,
        inclination_deg=inclination_deg,
        altitude_km=altitude_km,
    )


@pytest.fixture(scope="module")
def mixed_pool():
    """Low- and mid-inclination shells: polar site cullable, others not."""
    return _shell(24, 3, 10.0) + _shell(24, 3, 53.0)


@pytest.fixture(scope="module")
def reference(mixed_pool):
    """The materialized unculled tensor and its plain numpy reductions."""
    visible = VisibilityEngine(GRID).visibility(mixed_pool, SITES, cull=False)
    return visible


class TestStreamingEqualsMaterialized:
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_site_coverage(self, mixed_pool, reference, chunk):
        plan = _plan(mixed_pool, SITES, chunk)
        assert np.array_equal(
            kernels.stream_site_coverage(plan), reference.any(axis=1)
        )

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_satellite_activity(self, mixed_pool, reference, chunk):
        plan = _plan(mixed_pool, SITES, chunk)
        assert np.array_equal(
            kernels.stream_satellite_activity(plan), reference.any(axis=0)
        )

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_visible_counts(self, mixed_pool, reference, chunk):
        plan = _plan(mixed_pool, SITES, chunk)
        counts = kernels.stream_visible_counts(plan)
        assert counts.dtype == np.uint16
        assert np.array_equal(counts, reference.sum(axis=1))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_packed_bits(self, mixed_pool, reference, chunk):
        packed = packed_visibility(mixed_pool, SITES, GRID, chunk_size=chunk)
        assert np.array_equal(packed.site_masks(), reference.any(axis=1))
        # Unpack fully: every bit, not just the OR reduction.
        unpacked = np.unpackbits(packed.packed, axis=2)[:, :, : GRID.count]
        assert np.array_equal(unpacked.astype(bool), reference)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_primed_track_is_bit_neutral(self, mixed_pool, reference, chunk):
        geometry = kernels.SiteGeometry(SITES, GRID)
        geometry.prime_track()
        assert geometry.track_primed
        propagator = BatchPropagator(mixed_pool)
        plan = kernels.plan_stream(propagator, geometry, GRID, chunk_size=chunk)
        assert np.array_equal(
            kernels.stream_site_coverage(plan), reference.any(axis=1)
        )

    def test_engine_reductions_stream(self, mixed_pool, reference):
        engine = VisibilityEngine(GRID)
        assert np.array_equal(
            engine.site_coverage(mixed_pool, SITES), reference.any(axis=1)
        )
        assert np.array_equal(
            engine.satellite_activity(mixed_pool, SITES), reference.any(axis=0)
        )
        assert np.array_equal(
            engine.visible_counts(mixed_pool, SITES), reference.sum(axis=1)
        )


def _plan(elements, sites, chunk, cull=True):
    return kernels.plan_stream(
        BatchPropagator(list(elements)),
        kernels.SiteGeometry(sites, GRID),
        GRID,
        chunk_size=chunk,
        cull=cull,
    )


class TestDegenerateSites:
    def test_empty_site_set_streams(self, mixed_pool):
        plan = _plan(mixed_pool, [], 13)
        coverage = kernels.stream_site_coverage(plan)
        assert coverage.shape == (0, GRID.count)
        activity = kernels.stream_satellite_activity(plan)
        assert activity.shape == (len(mixed_pool), GRID.count)
        assert not activity.any()  # No sites: no satellite is ever active.
        counts = kernels.stream_visible_counts(_plan(mixed_pool, [], 13))
        assert counts.shape == (0, GRID.count)

    def test_engine_still_rejects_empty_sites(self, mixed_pool):
        with pytest.raises(ValueError, match="at least one ground site"):
            VisibilityEngine(GRID).site_coverage(mixed_pool, [])

    def test_single_site_single_satellite(self):
        elements = _shell(1, 1, 53.0)
        site = [SITES[2]]
        visible = VisibilityEngine(GRID).visibility(elements, site, cull=False)
        for chunk in CHUNKS:
            plan = _plan(elements, site, chunk)
            assert np.array_equal(
                kernels.stream_site_coverage(plan), visible.any(axis=1)
            )

    def test_all_pairs_infeasible_short_circuits(self):
        """Polar site x equatorial shell: nothing visible, nothing propagated."""
        elements = _shell(16, 2, 5.0)
        site = [SITES[3]]  # 78 deg latitude.
        plan = _plan(elements, site, 13)
        assert plan.nothing_visible
        assert not kernels.stream_site_coverage(plan).any()


class TestCulling:
    def test_polar_low_inclination_pair_is_culled(self, mixed_pool):
        plan = _plan(mixed_pool, SITES, 13)
        # The 10 deg shell (24 satellites) can never reach the 78 deg site.
        assert plan.culled_pairs >= 24
        feasible = plan.feasible
        assert not feasible[3, :24].any()  # Every low-inclination pair culled.
        # The 53 deg shell overflies the equator/mid/Taipei latitudes.
        assert feasible[:3, 24:].all()

    def test_cull_skips_propagation_entirely(self):
        """A fully culled population costs zero state evaluations."""
        elements = _shell(16, 2, 5.0)
        plan = _plan(elements, [SITES[3]], 13)
        assert plan.nothing_visible
        evals = metrics.counter("orbits.propagator.state_evaluations")
        before = evals.value
        kernels.stream_site_coverage(plan)
        assert evals.value == before

    def test_partial_cull_propagates_only_reachable(self, mixed_pool):
        # One chunk: one propagation call over the whole grid.
        plan = _plan(mixed_pool, CULL_SITES, 100_000)
        assert plan.culled_satellites == 24
        assert plan.active_propagator.count == 24
        evals = metrics.counter("orbits.propagator.state_evaluations")
        before = evals.value
        kernels.stream_site_coverage(plan)
        assert evals.value - before == 24 * GRID.count  # Not 48 * count.

    def test_culled_results_bit_identical(self, mixed_pool):
        expected = VisibilityEngine(GRID).visibility(
            mixed_pool, CULL_SITES, cull=False
        )
        for chunk in (13, 100_000):
            culled = _plan(mixed_pool, CULL_SITES, chunk, cull=True)
            unculled = _plan(mixed_pool, CULL_SITES, chunk, cull=False)
            assert culled.culled_satellites == 24
            assert unculled.culled_satellites == 0
            assert np.array_equal(
                kernels.stream_site_coverage(culled),
                kernels.stream_site_coverage(unculled),
            )
        assert np.array_equal(
            kernels.stream_site_coverage(_plan(mixed_pool, CULL_SITES, 13)),
            expected.any(axis=1),
        )

    def test_cull_metrics_accounted(self, mixed_pool):
        pairs = metrics.counter("sim.visibility.culled_pairs")
        sats = metrics.counter("sim.visibility.culled_satellites")
        before_pairs, before_sats = pairs.value, sats.value
        plan = _plan(mixed_pool, CULL_SITES, 13)
        assert pairs.value - before_pairs == plan.culled_pairs > 0
        assert sats.value - before_sats == plan.culled_satellites == 24
        assert metrics.gauge("sim.visibility.cull_fraction").value > 0.0

    def test_eccentric_pool_streams_unculled_but_identical(self):
        """Eccentric orbits: the cull counts pairs but must not subset the
        batch Kepler solve; results still match the materialized path."""
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0 + 10.0 * index,
                inclination_deg=8.0,
                raan_deg=36.0 * index,
                mean_anomaly_deg=24.0 * index,
                eccentricity=0.01,
            )
            for index in range(10)
        ]
        propagator = BatchPropagator(elements)
        assert not propagator.all_circular
        plan = _plan(elements, SITES, 13)
        assert plan.culled_pairs > 0  # The polar site can't see an 8 deg shell...
        assert plan.culled_satellites == 0  # ...but no satellite is dropped.
        visible = VisibilityEngine(GRID).visibility(elements, SITES, cull=False)
        assert np.array_equal(
            kernels.stream_site_coverage(plan), visible.any(axis=1)
        )

    def test_cull_mask_is_conservative(self, mixed_pool):
        """No satellite with any actual visibility may ever be culled."""
        visible = VisibilityEngine(GRID).visibility(mixed_pool, SITES, cull=False)
        plan = _plan(mixed_pool, SITES, 13)
        seen = visible.any(axis=2)  # (S, N) pairs with real contact time
        assert not (seen & ~plan.feasible).any()


class TestDefaultChunkSize:
    def test_large_population_gets_memory_bounded_chunk(self):
        assert (
            kernels.default_chunk_size(22, 4408) == kernels.DEFAULT_STREAM_CHUNK
        )

    def test_small_population_gets_wide_chunk(self):
        assert kernels.default_chunk_size(21, 12) == kernels.MAX_STREAM_CHUNK

    def test_always_a_multiple_of_eight_within_bounds(self):
        for sites, sats in ((1, 1), (3, 700), (22, 4408), (0, 50), (5, 0)):
            chunk = kernels.default_chunk_size(sites, sats)
            assert chunk % 8 == 0
            assert (
                kernels.DEFAULT_STREAM_CHUNK
                <= chunk
                <= kernels.MAX_STREAM_CHUNK
            )

    def test_plan_uses_adaptive_default(self, mixed_pool):
        geometry = kernels.SiteGeometry(SITES, GRID)
        plan = kernels.plan_stream(
            BatchPropagator(mixed_pool), geometry, GRID, chunk_size=None
        )
        assert plan.chunk_size == kernels.default_chunk_size(
            len(SITES), len(mixed_pool)
        )


class TestSiteGeometry:
    def test_radii_match_per_site_norms(self):
        geometry = kernels.SiteGeometry(SITES, GRID)
        expected = np.array(
            [np.linalg.norm(site.position_ecef) for site in SITES]
        )
        assert np.array_equal(geometry.radii_m, expected)

    def test_empty_sites(self):
        geometry = kernels.SiteGeometry([], GRID)
        assert geometry.n_sites == 0
        assert geometry.radii_m.shape == (0,)
        assert geometry.unit_ecef.shape == (0, 3)

    def test_track_slices_match_direct_chunks(self):
        geometry = kernels.SiteGeometry(SITES, GRID)
        direct = [
            geometry.units_chunk(offset, times)
            for offset, times in _offsets(GRID, 13)
        ]
        geometry.prime_track()
        for (offset, times), expected in zip(_offsets(GRID, 13), direct):
            sliced = geometry.units_chunk(offset, times)
            assert sliced.flags["C_CONTIGUOUS"]
            assert np.array_equal(sliced, expected)

    def test_thresholds_cached_per_propagator(self, mixed_pool):
        geometry = kernels.SiteGeometry(SITES, GRID)
        propagator = BatchPropagator(mixed_pool)
        first = geometry.thresholds(propagator)
        assert geometry.thresholds(propagator) is first
        assert geometry.thresholds(BatchPropagator(mixed_pool)) is not first

    def test_invalid_chunk_sizes_rejected(self, mixed_pool):
        geometry = kernels.SiteGeometry(SITES, GRID)
        propagator = BatchPropagator(mixed_pool)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="chunk_size"):
                kernels.plan_stream(propagator, geometry, GRID, chunk_size=bad)


def _offsets(grid, chunk):
    offset = 0
    for times in grid.chunks(chunk):
        yield offset, times
        offset += times.size


class TestPropagatorDerived:
    def test_subset_refreshes_derived_state(self, mixed_pool):
        propagator = BatchPropagator(mixed_pool)
        subset = propagator.subset(np.arange(24, 48))
        assert subset.all_circular
        times = GRID.times_s[:16]
        assert np.array_equal(
            subset.unit_positions_eci(times),
            propagator.unit_positions_eci(times)[24:48],
        )

    def test_all_circular_flag(self):
        circular = BatchPropagator(_shell(4, 2, 53.0))
        assert circular.all_circular
        eccentric = BatchPropagator(
            [
                OrbitalElements.from_degrees(
                    altitude_km=550.0, inclination_deg=53.0, eccentricity=0.01
                )
            ]
        )
        assert not eccentric.all_circular


class TestOrPopcount:
    def test_popcount_table(self):
        values = np.arange(256, dtype=np.uint8)
        want = np.array([bin(v).count("1") for v in range(256)])
        np.testing.assert_array_equal(kernels.POPCOUNT_TABLE[values], want)

    def test_or_popcount_matches_unpacked_bits(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 256, size=(5, 17, 9), dtype=np.uint8)
        bits = np.unpackbits(rows, axis=2).astype(bool)
        for axis in (0, 1):
            got = kernels.or_popcount(rows, axis=axis)
            np.testing.assert_array_equal(got, bits.any(axis=axis).sum(axis=1))
            assert got.dtype == np.int64
