"""Tests for the vectorized visibility engine and packed visibility."""

import numpy as np
import pytest

from repro.constellation.satellite import Constellation, Satellite
from repro.ground.sites import UserTerminal
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import eci_to_ecef, gmst_rad
from repro.orbits.propagator import BatchPropagator
from repro.orbits.topocentric import elevation_deg
from repro.sim.clock import TimeGrid
from repro.sim.visibility import (
    PackedVisibility,
    VisibilityEngine,
    coverage_cos_thresholds,
    packed_visibility,
    visibility_matrix,
)


@pytest.fixture
def equator_terminal():
    return UserTerminal("eq", 0.0, 0.0, min_elevation_deg=25.0)


class TestThresholds:
    def test_shape(self):
        thresholds = coverage_cos_thresholds(
            np.array([7.0e6, 7.2e6]), np.array([6.37e6] * 3), np.array([10.0, 25.0, 40.0])
        )
        assert thresholds.shape == (3, 2)

    def test_higher_mask_higher_threshold(self):
        thresholds = coverage_cos_thresholds(
            np.array([7.0e6]), np.array([6.37e6, 6.37e6]), np.array([10.0, 40.0])
        )
        assert thresholds[1, 0] > thresholds[0, 0]

    def test_higher_orbit_lower_threshold(self):
        thresholds = coverage_cos_thresholds(
            np.array([6.9e6, 7.6e6]), np.array([6.37e6]), np.array([25.0])
        )
        assert thresholds[0, 1] < thresholds[0, 0]

    def test_rejects_suborbital(self):
        with pytest.raises(ValueError, match="orbital radius"):
            coverage_cos_thresholds(
                np.array([6.0e6]), np.array([6.37e6]), np.array([25.0])
            )


class TestVisibilityAgainstReference:
    """The fast path must agree with explicit elevation computation."""

    def test_matches_elevation_reference(self, small_walker, taipei_terminal, tiny_grid):
        engine = VisibilityEngine(tiny_grid)
        visible = engine.visibility(small_walker, [taipei_terminal])  # (1, N, T)

        propagator = BatchPropagator(small_walker.elements)
        times = tiny_grid.times_s
        positions_eci = propagator.positions_eci(times)  # (N, T, 3)
        theta = gmst_rad(times, tiny_grid.gmst_at_epoch_rad)
        positions_ecef = eci_to_ecef(positions_eci, theta[None, :])
        site_ecef = taipei_terminal.position_ecef
        elevations = elevation_deg(site_ecef, positions_ecef)  # (N, T)
        reference = elevations >= taipei_terminal.min_elevation_deg
        mismatches = np.sum(visible[0] != reference)
        # Edge samples can flip due to the spherical site-radius convention;
        # allow a vanishing fraction.
        assert mismatches <= reference.size * 0.001

    def test_overhead_satellite_visible(self, equator_terminal):
        # A satellite crossing directly over the equator site at t=0.
        elements = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.1, raan_deg=0.0, mean_anomaly_deg=0.0
        )
        constellation = Constellation([Satellite(sat_id="S", elements=elements)])
        grid = TimeGrid(duration_s=60.0, step_s=30.0)
        engine = VisibilityEngine(grid)
        visible = engine.visibility(constellation, [equator_terminal])
        assert visible[0, 0, 0]

    def test_antipodal_satellite_invisible(self, equator_terminal):
        elements = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.1, raan_deg=0.0, mean_anomaly_deg=180.0
        )
        constellation = Constellation([Satellite(sat_id="S", elements=elements)])
        grid = TimeGrid(duration_s=60.0, step_s=30.0)
        visible = VisibilityEngine(grid).visibility(constellation, [equator_terminal])
        assert not visible[0, 0, 0]

    def test_high_latitude_site_never_sees_low_inclination(self):
        """A 53-degree constellation cannot serve a polar site at 25 deg mask."""
        site = UserTerminal("arctic", 80.0, 0.0, min_elevation_deg=25.0)
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0, raan_deg=raan, mean_anomaly_deg=ma
            )
            for raan in (0.0, 90.0, 180.0, 270.0)
            for ma in (0.0, 120.0, 240.0)
        ]
        constellation = Constellation(
            [Satellite(sat_id=f"S{i}", elements=e) for i, e in enumerate(elements)]
        )
        grid = TimeGrid.hours(3.0, step_s=60.0)
        visible = VisibilityEngine(grid).visibility(constellation, [site])
        assert not visible.any()


class TestEngineReductions:
    def test_shapes(self, small_walker, taipei_terminal, short_grid):
        engine = VisibilityEngine(short_grid)
        sites = [taipei_terminal, UserTerminal("eq", 0.0, 0.0)]
        visible = engine.visibility(small_walker, sites)
        assert visible.shape == (2, 40, short_grid.count)
        assert engine.site_coverage(small_walker, sites).shape == (2, short_grid.count)
        assert engine.satellite_activity(small_walker, sites).shape == (
            40,
            short_grid.count,
        )
        counts = engine.visible_counts(small_walker, sites)
        assert counts.shape == (2, short_grid.count)

    def test_site_coverage_is_any(self, small_walker, taipei_terminal, short_grid):
        engine = VisibilityEngine(short_grid)
        visible = engine.visibility(small_walker, [taipei_terminal])
        coverage = engine.site_coverage(small_walker, [taipei_terminal])
        assert np.array_equal(coverage[0], visible[0].any(axis=0))

    def test_chunking_invariance(self, small_walker, taipei_terminal, short_grid):
        fine = VisibilityEngine(short_grid, chunk_size=7)
        coarse = VisibilityEngine(short_grid, chunk_size=100_000)
        assert np.array_equal(
            fine.visibility(small_walker, [taipei_terminal]),
            coarse.visibility(small_walker, [taipei_terminal]),
        )

    def test_rejects_no_sites(self, small_walker, short_grid):
        with pytest.raises(ValueError, match="at least one ground site"):
            VisibilityEngine(short_grid).visibility(small_walker, [])

    def test_accepts_elements_list(self, small_walker, taipei_terminal, tiny_grid):
        engine = VisibilityEngine(tiny_grid)
        via_constellation = engine.visibility(small_walker, [taipei_terminal])
        via_elements = engine.visibility(small_walker.elements, [taipei_terminal])
        assert np.array_equal(via_constellation, via_elements)

    def test_convenience_wrapper(self, small_walker, taipei_terminal, tiny_grid):
        direct = VisibilityEngine(tiny_grid).visibility(
            small_walker, [taipei_terminal]
        )
        wrapped = visibility_matrix(small_walker, [taipei_terminal], tiny_grid)
        assert np.array_equal(direct, wrapped)


class TestPackedVisibility:
    @pytest.fixture
    def packed(self, small_walker, taipei_terminal, short_grid):
        sites = [taipei_terminal, UserTerminal("eq", 0.0, 0.0)]
        return (
            packed_visibility(small_walker, sites, short_grid),
            VisibilityEngine(short_grid).visibility(small_walker, sites),
        )

    def test_site_mask_matches_unpacked(self, packed):
        packed_vis, dense = packed
        for site in range(2):
            assert np.array_equal(
                packed_vis.site_mask(site), dense[site].any(axis=0)
            )

    def test_subset_mask_matches(self, packed):
        packed_vis, dense = packed
        subset = np.array([3, 7, 21])
        assert np.array_equal(
            packed_vis.site_mask(0, subset), dense[0, subset].any(axis=0)
        )

    def test_site_masks_all(self, packed):
        packed_vis, dense = packed
        masks = packed_vis.site_masks()
        assert np.array_equal(masks, dense.any(axis=1))

    def test_coverage_fractions(self, packed):
        packed_vis, dense = packed
        fractions = packed_vis.coverage_fractions()
        expected = dense.any(axis=1).mean(axis=1)
        assert np.allclose(fractions, expected)

    def test_satellite_active_fractions(self, packed):
        packed_vis, dense = packed
        fractions = packed_vis.satellite_active_fractions()
        expected = dense.any(axis=0).mean(axis=1)
        assert np.allclose(fractions, expected)

    def test_satellite_fractions_with_site_subset(self, packed):
        packed_vis, dense = packed
        fractions = packed_vis.satellite_active_fractions(site_indices=[1])
        expected = dense[1].mean(axis=1)
        assert np.allclose(fractions, expected)

    def test_empty_subset_is_uncovered(self, packed):
        packed_vis, _ = packed
        mask = packed_vis.site_mask(0, np.array([], dtype=int))
        assert not mask.any()
        assert np.all(packed_vis.coverage_fractions(np.array([], dtype=int)) == 0.0)

    def test_dimensions(self, packed):
        packed_vis, dense = packed
        assert packed_vis.n_sites == 2
        assert packed_vis.n_satellites == 40
        assert packed_vis.n_times == dense.shape[2]

    def test_rejects_bad_dtype(self, short_grid):
        with pytest.raises(ValueError, match="uint8"):
            PackedVisibility(np.zeros((1, 1, 10)), 80, short_grid)

    def test_rejects_short_packing(self, short_grid):
        with pytest.raises(ValueError, match="too short"):
            PackedVisibility(np.zeros((1, 1, 2), dtype=np.uint8), 100, short_grid)


class TestPackedEmptySelections:
    """Regression: empty subset selections must be valid zero-result queries.

    Empty ``site_indices``/``sat_indices`` used to reduce over an empty
    axis (and a plain ``[]`` crashed outright with an IndexError because an
    empty Python list carries a float dtype); every reduction now returns
    explicit zeros of the right shape.
    """

    @pytest.fixture
    def packed(self, small_walker, taipei_terminal, short_grid):
        sites = [taipei_terminal, UserTerminal("eq", 0.0, 0.0)]
        return packed_visibility(small_walker, sites, short_grid)

    # Every reduction accepts the empty selection in all its spellings.
    EMPTY = [[], (), np.array([]), np.array([], dtype=np.intp)]

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_active_fractions_no_sites(self, packed, empty):
        fractions = packed.satellite_active_fractions(site_indices=empty)
        assert fractions.shape == (packed.n_satellites,)
        assert np.all(fractions == 0.0)

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_active_fractions_no_sats(self, packed, empty):
        fractions = packed.satellite_active_fractions(sat_indices=empty)
        assert fractions.shape == (0,)

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_masks_no_sites(self, packed, empty):
        masks = packed.satellite_masks(site_indices=empty)
        assert masks.shape == (packed.n_satellites, packed.n_times)
        assert masks.dtype == bool
        assert not masks.any()

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_masks_no_sats(self, packed, empty):
        masks = packed.satellite_masks(sat_indices=empty)
        assert masks.shape == (0, packed.n_times)
        assert masks.dtype == bool

    @pytest.mark.parametrize("empty", EMPTY)
    def test_both_axes_empty(self, packed, empty):
        assert packed.satellite_active_fractions(empty, empty).shape == (0,)
        assert packed.satellite_masks(empty, empty).shape == (0, packed.n_times)

    @pytest.mark.parametrize("empty", EMPTY)
    def test_site_reductions_accept_plain_empty(self, packed, empty):
        assert not packed.site_mask(0, empty).any()
        assert not packed.site_masks(empty).any()
        assert np.all(packed.coverage_fractions(empty) == 0.0)

    def test_subset_of_empty_site_selection_restricts_sats(self, packed):
        fractions = packed.satellite_active_fractions(
            sat_indices=[2, 5], site_indices=[]
        )
        assert fractions.shape == (2,)
        assert np.all(fractions == 0.0)

    def test_nonempty_selections_unchanged(self, packed):
        """The zero paths must not perturb ordinary subset reductions."""
        fractions = packed.satellite_active_fractions(
            sat_indices=[1, 3], site_indices=[0]
        )
        masks = packed.satellite_masks(sat_indices=[1, 3], site_indices=[0])
        assert np.allclose(fractions, masks.mean(axis=1))


def _random_packed(seed: int, n_sites: int = 5, n_sats: int = 12):
    """A random packed tensor and its (S, N, T) booleans; T is not a
    multiple of 8, so every row carries padding bits."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(duration_s=45 * 60.0, step_s=60.0)
    dense = rng.random((n_sites, n_sats, grid.count)) < 0.15
    return PackedVisibility(np.packbits(dense, axis=2), grid.count, grid), dense


def _unpacked_active(dense, sats, sites):
    """satellite_active_fractions from the boolean tensor."""
    sats = np.arange(dense.shape[1]) if sats is None else np.asarray(sats, dtype=np.intp)
    sites = np.arange(dense.shape[0]) if sites is None else np.asarray(sites, dtype=np.intp)
    if sites.size == 0 or sats.size == 0:
        return np.zeros(sats.size)
    return dense[sites][:, sats].any(axis=0).mean(axis=1)


class TestActivityTable:
    """The per-site-set activity table answers exactly like the unpacked
    boolean reduction, cold or warm, and shares entries between spellings
    of one site set."""

    SUBSETS = (None, [], [7], [9, 0, 4, 2], [5, 5, 1, 5], list(range(12)))
    SITE_SETS = (None, [], [0], [3, 0, 2], [2, 2, 4], [1, 4], [4, 3, 2, 1, 0])

    @staticmethod
    def _counts():
        from repro.obs import metrics

        return tuple(
            metrics.counter(f"visibility.activity_table.{name}").value
            for name in ("builds", "hits")
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_and_warm_match_unpacked(self, seed):
        for subset in self.SUBSETS:
            for sites in self.SITE_SETS:
                packed, dense = _random_packed(seed)
                want = _unpacked_active(dense, subset, sites)
                cold = packed.satellite_active_fractions(subset, sites)
                warm = packed.satellite_active_fractions(subset, sites)
                assert np.array_equal(cold, want), (subset, sites)
                assert np.array_equal(warm, want), (subset, sites)

    def test_one_table_serves_every_site_set(self):
        packed, dense = _random_packed(7)
        for _ in range(2):
            for sites in self.SITE_SETS:
                for subset in self.SUBSETS:
                    assert np.array_equal(
                        packed.satellite_active_fractions(subset, sites),
                        _unpacked_active(dense, subset, sites),
                    ), (subset, sites)
        # None and [4, 3, 2, 1, 0] are one site set; the rest are distinct.
        assert len(packed.activity.vectors) == len(self.SITE_SETS) - 1

    def test_permuted_and_repeated_sites_reuse_one_entry(self):
        packed, dense = _random_packed(3)
        before = self._counts()
        for sites in ([3, 0, 2], [0, 2, 3], [2, 2, 0, 3, 3], np.array([3, 2, 0])):
            got = packed.satellite_active_fractions([6, 1, 6], sites)
            assert np.array_equal(got, _unpacked_active(dense, [6, 1, 6], [0, 2, 3]))
        builds, hits = (a - b for a, b in zip(self._counts(), before))
        assert (len(packed.activity.vectors), builds, hits) == (1, 1, 3)

    def test_none_is_every_site(self):
        packed, _ = _random_packed(4)
        every = packed.satellite_active_fractions()
        assert np.array_equal(
            packed.satellite_active_fractions(site_indices=range(5)), every
        )
        assert len(packed.activity.vectors) == 1

    def test_rejects_out_of_range_site(self):
        packed, _ = _random_packed(0)
        with pytest.raises(IndexError):
            packed.satellite_active_fractions([0], [5])
        assert len(packed.activity.vectors) == 0

    def test_gathers_leave_masks_unchanged(self):
        packed, dense = _random_packed(5)
        for subset in self.SUBSETS[1:]:
            sats = np.asarray(subset, dtype=np.intp)
            for site in range(5):
                assert np.array_equal(
                    packed.site_mask(site, subset), dense[site, sats].any(axis=0)
                )
            for sites in self.SITE_SETS[1:]:
                want = np.zeros((sats.size, dense.shape[2]), dtype=bool)
                if sats.size and sites:
                    want = dense[np.asarray(sites)][:, sats].any(axis=0)
                assert np.array_equal(packed.satellite_masks(subset, sites), want)

    def test_shm_attached_copy_starts_cold(self):
        from repro.experiments.common import ExperimentConfig, ExperimentContext
        from repro.runner.shared import attach_world, share_world

        packed, dense = _random_packed(6)
        want = packed.satellite_active_fractions([3, 8], [1, 2])
        config = ExperimentConfig(step_s=900.0)
        context = ExperimentContext()
        context.install_world(config, packed)
        try:
            attached_segment, attached = attach_world(share_world(context, config))
            try:
                assert len(attached.activity.vectors) == 0
                assert np.array_equal(
                    attached.satellite_active_fractions([3, 8], [2, 1]), want
                )
                assert len(attached.activity.vectors) == 1
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()
        assert len(packed.activity.vectors) == 1
        assert np.array_equal(want, _unpacked_active(dense, [3, 8], [1, 2]))


class TestThresholdErrorPaths:
    """coverage_cos_thresholds domain errors and extreme elevation masks."""

    ORBIT = np.array([6.92e6])
    SITE = np.array([6.37e6])

    def test_rejects_equal_radii(self):
        with pytest.raises(ValueError, match="must exceed"):
            coverage_cos_thresholds(self.SITE, self.SITE, np.array([25.0]))

    def test_rejects_site_above_orbit(self):
        with pytest.raises(ValueError, match="must exceed"):
            coverage_cos_thresholds(self.SITE, self.ORBIT, np.array([25.0]))

    def test_rejects_any_bad_pair_in_batch(self):
        """One suborbital pair poisons the whole batch, loudly."""
        radii = np.array([6.92e6, 6.0e6])
        with pytest.raises(ValueError, match="must exceed"):
            coverage_cos_thresholds(radii, self.SITE, np.array([25.0]))

    def test_zero_mask_threshold_is_horizon_geometry(self):
        thresholds = coverage_cos_thresholds(self.ORBIT, self.SITE, np.array([0.0]))
        psi = np.arccos(self.SITE[0] / self.ORBIT[0])
        assert np.isclose(thresholds[0, 0], np.cos(psi))

    def test_near_vertical_mask_approaches_one(self):
        thresholds = coverage_cos_thresholds(
            self.ORBIT, self.SITE, np.array([89.9])
        )
        assert 0.999999 < thresholds[0, 0] <= 1.0

    def test_thresholds_monotonic_in_mask(self):
        masks = np.linspace(0.0, 89.0, 90)
        thresholds = coverage_cos_thresholds(
            self.ORBIT, np.full(masks.size, self.SITE[0]), masks
        )[:, 0]
        assert np.all(np.diff(thresholds) > 0.0)

    def test_thresholds_always_in_unit_interval(self):
        radii = np.linspace(6.6e6, 8.0e6, 7)
        masks = np.linspace(0.0, 89.9, 5)
        thresholds = coverage_cos_thresholds(
            radii, np.full(masks.size, self.SITE[0]), masks
        )
        assert np.all(thresholds >= -1.0)
        assert np.all(thresholds <= 1.0)


class TestChunkBoundaryIdentity:
    """chunk_size is an execution knob: any split must yield the same tensor."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 8, 13, 64, 10_000])
    def test_every_chunk_size_identical(
        self, small_walker, taipei_terminal, short_grid, chunk_size
    ):
        reference = VisibilityEngine(short_grid).visibility(
            small_walker, [taipei_terminal]
        )
        chunked = VisibilityEngine(short_grid, chunk_size=chunk_size).visibility(
            small_walker, [taipei_terminal]
        )
        assert np.array_equal(reference, chunked)

    def test_chunk_equal_to_grid_count(self, small_walker, taipei_terminal, short_grid):
        exact = VisibilityEngine(
            short_grid, chunk_size=short_grid.count
        ).visibility(small_walker, [taipei_terminal])
        reference = VisibilityEngine(short_grid).visibility(
            small_walker, [taipei_terminal]
        )
        assert np.array_equal(exact, reference)

    def test_rejects_nonpositive_chunk(self, short_grid):
        with pytest.raises(ValueError, match="chunk_size"):
            VisibilityEngine(short_grid, chunk_size=0)

    @pytest.mark.parametrize("chunk_size", [8, 24, 1000])
    def test_packed_chunk_identity(
        self, small_walker, taipei_terminal, short_grid, chunk_size
    ):
        """Packing in chunks must agree with the unpacked tensor bit-for-bit."""
        dense = VisibilityEngine(short_grid).visibility(
            small_walker, [taipei_terminal]
        )
        packed = packed_visibility(
            small_walker, [taipei_terminal], short_grid, chunk_size=chunk_size
        )
        assert np.array_equal(packed.site_masks(), dense.any(axis=1))
        assert np.array_equal(packed.satellite_masks(), dense.any(axis=0))


class TestIndexValidation:
    """The packed tensor refuses negative and out-of-range selections with
    IndexError instead of wrapping them numpy-style."""

    @pytest.mark.parametrize("sats", ([-1], [12], [0, -3]))
    def test_bad_satellites_raise(self, sats):
        packed, _ = _random_packed(1)
        calls = (
            lambda: packed.site_mask(0, sats),
            lambda: packed.site_masks(sats),
            lambda: packed.coverage_fractions(sats),
            lambda: packed.satellite_active_fractions(sats),
            lambda: packed.satellite_active_fractions(sats, [0]),
            lambda: packed.satellite_masks(sats, [0]),
            lambda: packed.visible_counts(0, sats),
            lambda: packed.k_coverage_fraction(0, 1, sats),
            lambda: packed.restrict(sats),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()

    @pytest.mark.parametrize("site", (-1, 5))
    def test_bad_sites_raise(self, site):
        packed, _ = _random_packed(1)
        calls = (
            lambda: packed.site_mask(site),
            lambda: packed.site_mask(site, []),
            lambda: packed.satellite_active_fractions([0], [site]),
            lambda: packed.satellite_masks([0], [0, site]),
            lambda: packed.k_coverage_fraction(site, 1),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()

    def test_restrict_is_a_row_gather_over_pool_indices(self):
        packed, dense = _random_packed(2)
        packed.satellite_active_fractions(None, [1, 3])
        fleet = [9, 2, 5]
        restricted = packed.restrict(fleet)
        assert len(restricted.activity.vectors) == 0  # Starts cold.
        assert restricted.fleet.tolist() == [2, 5, 9]
        assert np.array_equal(restricted.packed, packed.packed[:, [2, 5, 9]])
        for subset in ([], [5], [9, 2, 9]):
            assert np.array_equal(
                restricted.coverage_fractions(subset),
                packed.coverage_fractions(subset),
            )
            assert np.array_equal(
                restricted.satellite_active_fractions(subset, [1, 3]),
                packed.satellite_active_fractions(subset, [1, 3]),
            )
        with pytest.raises(KeyError):
            restricted.coverage_fractions([3])
        with pytest.raises(ValueError):
            packed.restrict([1, 1])
