"""Brute-force agreement tests for subset queries on restricted worlds.

Both engines' fleet-scoped worlds (:meth:`PackedVisibility.restrict` over
packed bits, :meth:`ContactIntervals.restrict` over CSR windows) are held
to the same contract: for every subset of pool indices — random, empty, or
the full fleet — the restricted world's answers must be bit-identical to
the pool-wide world's reductions, and to brute-force unpacked boolean
arithmetic.  The fleet-scoped *build* paths (a streamed packed build / a
contact search over the fleet only) must match the gather-from-full paths
bit for bit, also through :meth:`ExperimentContext.subset_query`.
"""

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.intervals import find_contact_intervals
from repro.sim.kernels import SiteGeometry
from repro.sim.visibility import PackedVisibility, packed_visibility
from repro.validate import gen

N_SATELLITES = 24
N_SITES = 4
SEED = 77


@pytest.fixture(scope="module")
def world():
    """A small all-circular batch (circular => fleet-scoped builds are
    bit-identical to full-pool row gathers) with its grid artifacts."""
    rng = gen.trial_rng(SEED, 9, 0)
    elements = list(gen.random_elements(rng, N_SATELLITES, 0.0))
    sites = list(gen.random_sites(rng, N_SITES))
    grid = TimeGrid(duration_s=7_200.0, step_s=60.0)
    propagator = BatchPropagator(elements)
    visibility = packed_visibility(propagator, sites, grid)
    contacts = find_contact_intervals(propagator, sites, grid)
    return propagator, sites, grid, visibility, contacts


def _subsets(rng, fleet):
    """Random subsets of a fleet, plus the empty and full edge cases."""
    random = [
        rng.choice(fleet, size=int(rng.integers(1, fleet.size + 1)),
                   replace=False)
        for _ in range(8)
    ]
    return random + [np.asarray(fleet), fleet[:0]]


def _dense_bits(query):
    """Unpack a query's packed rows to (S, F, T) booleans — the brute force."""
    bits = np.unpackbits(query.packed, axis=2)[:, :, : query.n_times]
    return bits.astype(bool)


class TestSubsetQueryGrid:
    def test_pool_wide_matches_packed_reductions(self, world):
        _, _, _, visibility, _ = world
        rng = np.random.default_rng(SEED)
        query = visibility.restrict(np.arange(N_SATELLITES))
        for subset in _subsets(rng, np.arange(N_SATELLITES)):
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                visibility.coverage_fractions(subset),
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset),
                visibility.satellite_active_fractions(subset),
            )

    def test_fleet_scoped_matches_brute_force(self, world):
        _, _, _, visibility, _ = world
        rng = np.random.default_rng(SEED + 1)
        fleet = np.sort(rng.choice(N_SATELLITES, size=14, replace=False))
        query = visibility.restrict(fleet)
        dense = _dense_bits(query)  # (S, F, T) for the fleet
        for subset in _subsets(rng, fleet):
            local = np.searchsorted(fleet, subset)
            mask = dense[:, local, :]
            covered = (
                mask.any(axis=1).mean(axis=1)
                if subset.size
                else np.zeros(N_SITES)
            )
            np.testing.assert_array_equal(
                query.coverage_fractions(subset), covered
            )
            active = (
                mask.any(axis=0).mean(axis=1)
                if subset.size
                else np.zeros(0)
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset), active
            )

    def test_k_coverage_matches_brute_force(self, world):
        _, _, _, visibility, _ = world
        rng = np.random.default_rng(SEED + 2)
        fleet = np.sort(rng.choice(N_SATELLITES, size=12, replace=False))
        query = visibility.restrict(fleet)
        dense = _dense_bits(query)
        subset = rng.choice(fleet, size=7, replace=False)
        local = np.searchsorted(fleet, subset)
        counts = dense[:, local, :].sum(axis=1)
        for site in range(N_SITES):
            np.testing.assert_array_equal(
                query.visible_counts(site, subset), counts[site]
            )
            for k in (1, 2, 3):
                assert query.k_coverage_fraction(site, k, subset) == float(
                    (counts[site] >= k).mean()
                )

    def test_streamed_build_bit_identical_to_gather(self, world):
        propagator, sites, grid, visibility, _ = world
        rng = np.random.default_rng(SEED + 3)
        fleet = np.sort(rng.choice(N_SATELLITES, size=10, replace=False))
        gathered = visibility.restrict(fleet)
        geometry = SiteGeometry(sites, grid)
        built = packed_visibility(propagator.subset(fleet), sites, grid, geometry=geometry)
        np.testing.assert_array_equal(built.packed, gathered.packed)

    def test_out_of_fleet_subset_rejected(self, world):
        _, _, _, visibility, _ = world
        fleet = np.arange(5)
        query = visibility.restrict(fleet)
        with pytest.raises(KeyError):
            query.coverage_fractions(np.array([3, 7]))

    def test_duplicate_fleet_rejected(self, world):
        _, _, _, visibility, _ = world
        with pytest.raises(ValueError):
            visibility.restrict(np.array([1, 1, 2]))


class TestActivityTable:
    """A restricted tensor's per-site-set activity table against unpacked
    booleans."""

    FLEET = np.array([2, 5, 6, 11, 13, 17, 20])
    SUBSETS = (None, [], [13], [20, 2, 11], [6, 6, 17, 6], list(FLEET))
    SITE_SETS = (None, [], [3], [2, 0, 3], [1, 1, 2], [3, 2, 1, 0])

    @classmethod
    def _query(cls, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration_s=52 * 60.0, step_s=60.0)
        dense = rng.random((N_SITES, cls.FLEET.size, grid.count)) < 0.12
        query = PackedVisibility(
            np.packbits(dense, axis=2), grid.count, grid, cls.FLEET, N_SATELLITES
        )
        return query, dense

    @classmethod
    def _want(cls, dense, subset, sites):
        local = (
            np.arange(cls.FLEET.size) if subset is None
            else np.searchsorted(cls.FLEET, np.asarray(subset, dtype=np.intp))
        )
        sites = np.arange(N_SITES) if sites is None else np.asarray(sites, dtype=np.intp)
        if sites.size == 0 or local.size == 0:
            return np.zeros(local.size)
        return dense[sites][:, local].any(axis=0).mean(axis=1)

    @pytest.mark.parametrize("seed", range(3))
    def test_cold_and_warm_match_unpacked(self, seed):
        for subset in self.SUBSETS:
            for sites in self.SITE_SETS:
                query, dense = self._query(seed)
                want = self._want(dense, subset, sites)
                assert np.array_equal(
                    query.satellite_active_fractions(subset, sites), want
                ), (subset, sites)
                assert np.array_equal(
                    query.satellite_active_fractions(subset, sites), want
                ), (subset, sites)

    def test_one_table_serves_every_site_set(self):
        query, dense = self._query(9)
        for _ in range(2):
            for sites in self.SITE_SETS:
                for subset in self.SUBSETS:
                    assert np.array_equal(
                        query.satellite_active_fractions(subset, sites),
                        self._want(dense, subset, sites),
                    ), (subset, sites)
        # None and [3, 2, 1, 0] are one site set; the rest are distinct.
        assert len(query.activity.vectors) == len(self.SITE_SETS) - 1

    def test_permuted_sites_reuse_one_entry(self):
        query, _ = self._query(1)
        want = query.satellite_active_fractions([17, 5], [0, 2])
        for sites in ([2, 0], [0, 0, 2], (2, 2, 0)):
            assert np.array_equal(
                query.satellite_active_fractions([17, 5], sites), want
            )
        assert len(query.activity.vectors) == 1

    def test_out_of_fleet_subset_rejected(self):
        query, _ = self._query(2)
        with pytest.raises(KeyError):
            query.satellite_active_fractions([3], [0])

    def test_pool_wide_query_matches_visibility(self, world):
        _, _, _, visibility, _ = world
        query = visibility.restrict(np.arange(N_SATELLITES))
        for sites in self.SITE_SETS:
            for subset in ([], [23, 0, 7], [4, 4, 19]):
                np.testing.assert_array_equal(
                    query.satellite_active_fractions(subset, sites),
                    visibility.satellite_active_fractions(subset, sites),
                )


class TestIntervalSubsetQuery:
    def test_pool_wide_matches_contacts_reductions(self, world):
        _, _, _, _, contacts = world
        rng = np.random.default_rng(SEED + 4)
        query = contacts.restrict(np.arange(N_SATELLITES))
        for subset in _subsets(rng, np.arange(N_SATELLITES)):
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                contacts.coverage_fractions(subset),
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset),
                contacts.satellite_active_fractions(subset),
            )

    def test_restricted_bit_identical_to_full(self, world):
        """The fleet-restricted precompute answers every subset with the
        exact bits the full CSR reduction produces."""
        _, _, _, _, contacts = world
        rng = np.random.default_rng(SEED + 5)
        fleet = np.sort(rng.choice(N_SATELLITES, size=13, replace=False))
        query = contacts.restrict(fleet)
        for subset in _subsets(rng, fleet):
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                contacts.coverage_fractions(subset),
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset),
                contacts.satellite_active_fractions(subset),
            )
        for site in range(N_SITES):
            subset = rng.choice(fleet, size=6, replace=False)
            assert query.k_coverage_fraction(
                site, 2, subset
            ) == contacts.k_coverage_fraction(site, 2, subset)

    def test_cold_fleet_scoped_build_matches_restriction(self, world):
        """Finding contacts for only the fleet's satellites produces the
        same windows as restricting the full-pool CSR."""
        propagator, sites, grid, _, contacts = world
        rng = np.random.default_rng(SEED + 6)
        fleet = np.sort(rng.choice(N_SATELLITES, size=9, replace=False))
        cold = find_contact_intervals(propagator.subset(fleet), sites, grid)
        warm = contacts.restrict(fleet)
        np.testing.assert_array_equal(cold.rise_s, warm.rise_s)
        np.testing.assert_array_equal(cold.set_s, warm.set_s)
        np.testing.assert_array_equal(cold.pair_offsets, warm.pair_offsets)

    def test_out_of_fleet_subset_rejected(self, world):
        _, _, _, _, contacts = world
        query = contacts.restrict(np.arange(5))
        with pytest.raises(KeyError):
            query.coverage_fractions(np.array([2, 9]))

    def test_duplicate_fleet_rejected(self, world):
        _, _, _, _, contacts = world
        with pytest.raises(ValueError):
            contacts.restrict(np.array([0, 0]))


@pytest.mark.parametrize("engine", ["grid", "intervals"])
class TestContextSubsetQuery:
    """``ExperimentContext.subset_query`` hands out worlds: the cached world
    itself pool-wide, its restriction when warm, a fleet-only build when
    cold — and the last two answer bit for bit alike."""

    CONFIG = ExperimentConfig(runs=1, step_s=900.0, duration_s=3600.0)
    FLEET = np.arange(7, 4408, 61)

    def test_pool_wide_is_the_world(self, engine):
        context = ExperimentContext(engine=engine)
        try:
            world = context.world(self.CONFIG)
            assert context.subset_query(self.CONFIG) is world
        finally:
            context.clear()

    def test_cold_build_matches_warm_restriction(self, engine):
        warm_context = ExperimentContext(engine=engine)
        cold_context = ExperimentContext(engine=engine)
        try:
            world = warm_context.world(self.CONFIG)
            warm = warm_context.subset_query(self.CONFIG, self.FLEET[::-1])
            cold = cold_context.subset_query(self.CONFIG, self.FLEET)
            assert cold_context.cached_worlds() == {}
            assert warm_context.subset_query(self.CONFIG, self.FLEET) is warm
            for query in (warm, cold):
                assert type(query) is type(world)
                assert query.fleet.tolist() == self.FLEET.tolist()
                assert query.pool_size == world.n_satellites
            arrays = ("packed",) if engine == "grid" else (
                "rise_s", "set_s", "pair_offsets", "truncated_start", "truncated_end",
            )
            for name in arrays:
                np.testing.assert_array_equal(getattr(warm, name), getattr(cold, name))
            rng = np.random.default_rng(SEED)
            for subset in _subsets(rng, self.FLEET):
                want = world.coverage_fractions(subset)
                np.testing.assert_array_equal(warm.coverage_fractions(subset), want)
                np.testing.assert_array_equal(cold.coverage_fractions(subset), want)
        finally:
            warm_context.clear()
            cold_context.clear()

    def test_bad_fleets_rejected(self, engine):
        context = ExperimentContext(engine=engine)
        try:
            with pytest.raises(ValueError):
                context.subset_query(self.CONFIG, [3, 3])
            with pytest.raises(IndexError):
                context.subset_query(self.CONFIG, [-1, 4])
            with pytest.raises(IndexError):
                context.subset_query(self.CONFIG, [4408])
            query = context.subset_query(self.CONFIG, [5, 9])
            with pytest.raises(KeyError):
                query.coverage_fractions([5, 6])
        finally:
            context.clear()
