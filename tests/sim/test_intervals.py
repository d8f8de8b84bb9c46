"""Tests for the analytic contact-interval engine and its interval algebra."""

import numpy as np
import pytest

from repro.ground.sites import GroundSite
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid
from repro.sim.intervals import (
    ContactIntervals,
    IntervalSet,
    find_contact_intervals,
    grouped_union_seconds,
    sweep_accumulate,
    sweep_count_steps,
)
from repro.sim.visibility import VisibilityEngine


@pytest.fixture
def sites():
    return [
        GroundSite(
            name="taipei", latitude_deg=25.0, longitude_deg=121.5,
            min_elevation_deg=25.0,
        ),
        GroundSite(
            name="quito", latitude_deg=-0.2, longitude_deg=-78.5,
            min_elevation_deg=25.0,
        ),
        GroundSite(
            name="oslo", latitude_deg=59.9, longitude_deg=10.7,
            min_elevation_deg=25.0,
        ),
    ]


class TestIntervalSetNormalization:
    def test_zero_length_dropped(self):
        s = IntervalSet([10.0, 40.0], [10.0, 50.0], 0.0, 100.0)
        assert s.count == 1
        assert s.starts[0] == 40.0 and s.stops[0] == 50.0

    def test_touching_intervals_merge(self):
        s = IntervalSet([0.0, 5.0, 10.0], [5.0, 10.0, 15.0], 0.0, 100.0)
        assert s.count == 1
        assert s.total_s == 15.0

    def test_overlapping_intervals_merge(self):
        s = IntervalSet([0.0, 3.0], [8.0, 12.0], 0.0, 100.0)
        assert s.count == 1
        assert s.total_s == 12.0

    def test_clipped_to_horizon(self):
        s = IntervalSet([-10.0, 90.0], [5.0, 200.0], 0.0, 100.0)
        assert np.all(s.starts >= 0.0) and np.all(s.stops <= 100.0)
        assert s.total_s == 15.0

    def test_outside_horizon_dropped(self):
        s = IntervalSet([-20.0, 150.0], [-5.0, 170.0], 0.0, 100.0)
        assert s.count == 0

    def test_unsorted_input(self):
        s = IntervalSet([50.0, 10.0], [60.0, 20.0], 0.0, 100.0)
        assert list(s.starts) == [10.0, 50.0]


class TestIntervalSetAlgebra:
    def test_complement_involution(self):
        s = IntervalSet([10.0, 40.0], [20.0, 70.0], 0.0, 100.0)
        assert s.complement().complement() == s

    def test_complement_of_empty_is_full(self):
        empty = IntervalSet.empty(5.0, 50.0)
        full = IntervalSet.full(5.0, 50.0)
        assert empty.complement() == full
        assert full.complement() == empty

    def test_complement_includes_boundary_gaps(self):
        s = IntervalSet([10.0], [20.0], 0.0, 100.0)
        gaps = s.complement()
        assert gaps.count == 2
        assert list(gaps.starts) == [0.0, 20.0]
        assert list(gaps.stops) == [10.0, 100.0]

    def test_full_horizon_contact_has_no_gaps(self):
        s = IntervalSet.full(0.0, 100.0)
        assert s.gap_lengths_s().size == 0
        assert s.coverage_fraction == 1.0

    def test_intersect_via_de_morgan(self):
        a = IntervalSet([0.0, 50.0], [30.0, 80.0], 0.0, 100.0)
        b = IntervalSet([20.0, 70.0], [60.0, 90.0], 0.0, 100.0)
        meet = a.intersect(b)
        assert list(meet.starts) == [20.0, 50.0, 70.0]
        assert list(meet.stops) == [30.0, 60.0, 80.0]

    def test_union_inclusion_exclusion(self):
        a = IntervalSet([0.0, 50.0], [30.0, 80.0], 0.0, 100.0)
        b = IntervalSet([20.0, 70.0], [60.0, 90.0], 0.0, 100.0)
        assert a.union(b).total_s + a.intersect(b).total_s == pytest.approx(
            a.total_s + b.total_s
        )

    def test_mismatched_horizons_rejected(self):
        a = IntervalSet([0.0], [1.0], 0.0, 10.0)
        b = IntervalSet([0.0], [1.0], 0.0, 20.0)
        with pytest.raises(ValueError):
            a.union(b)

    def test_sample_half_open_membership(self):
        s = IntervalSet([10.0], [20.0], 0.0, 100.0)
        got = s.sample([9.999, 10.0, 15.0, 19.999, 20.0])
        assert list(got) == [False, True, True, True, False]

    def test_gap_lengths(self):
        s = IntervalSet([10.0, 40.0], [20.0, 90.0], 0.0, 100.0)
        assert list(s.gap_lengths_s()) == [10.0, 20.0, 10.0]


class TestGroupedSweeps:
    def test_grouped_union_matches_per_group_sets(self):
        rng = np.random.default_rng(11)
        n_groups = 5
        starts, stops, groups = [], [], []
        for g in range(n_groups):
            for _ in range(rng.integers(0, 8)):
                a = float(rng.uniform(0.0, 900.0))
                starts.append(a)
                stops.append(a + float(rng.uniform(0.0, 200.0)))
                groups.append(g)
        seconds = grouped_union_seconds(
            np.array(starts), np.array(stops),
            np.array(groups, dtype=np.intp), n_groups,
        )
        for g in range(n_groups):
            rows = [i for i, grp in enumerate(groups) if grp == g]
            expect = IntervalSet(
                [starts[i] for i in rows], [stops[i] for i in rows],
                -1e9, 1e9,
            ).total_s
            assert seconds[g] == pytest.approx(expect)

    def test_empty_groups_are_zero(self):
        seconds = grouped_union_seconds(
            np.array([1.0]), np.array([2.0]), np.array([2], dtype=np.intp), 4
        )
        assert list(seconds) == [0.0, 0.0, 1.0, 0.0]

    def test_sweep_accumulate_matches_sequential_loop(self):
        rng = np.random.default_rng(11)
        n_groups = 4
        starts = rng.uniform(0.0, 500.0, size=(n_groups, 6))
        stops = starts + rng.uniform(0.0, 80.0, size=starts.shape)
        k = starts.size
        times = np.concatenate([starts.ravel(), stops.ravel()])
        deltas = np.concatenate(
            [np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)]
        )
        groups = np.tile(np.repeat(np.arange(n_groups), 6), 2)
        order = np.lexsort((deltas, times, groups))
        times, deltas, groups = times[order], deltas[order], groups[order]
        # Same additions in the same per-group array order: exact equality.
        want = np.zeros(n_groups)
        count = 0
        for i in range(times.size - 1):
            count += deltas[i]
            if groups[i + 1] == groups[i] and count > 0:
                want[groups[i]] += times[i + 1] - times[i]
        got = sweep_accumulate(times, deltas, groups, n_groups)
        np.testing.assert_array_equal(got, want)

    def test_sweep_count_steps(self):
        times, counts = sweep_count_steps(
            np.array([10.0, 15.0, 30.0]), np.array([20.0, 25.0, 40.0]), 0.0
        )
        assert times[0] == 0.0 and counts[0] == 0
        # Count at a time = value of the last step at or before it.
        probe = {5.0: 0, 12.0: 1, 17.0: 2, 22.0: 1, 27.0: 0, 35.0: 1, 45.0: 0}
        for t, expect in probe.items():
            idx = np.searchsorted(times, t, side="right") - 1
            assert counts[idx] == expect, t


class TestEngineParity:
    """The analytic engine against the dense grid tensor."""

    def _check_parity(self, constellation, sites, grid):
        reference = VisibilityEngine(grid).visibility(constellation, sites)
        contacts = find_contact_intervals(constellation, sites, grid)
        times = grid.times_s
        n_sites, n_sats, _ = reference.shape
        assert contacts.n_sites == n_sites
        assert contacts.n_satellites == n_sats
        assert contacts.n_contacts > 0, "vacuous: no contacts in fixture"
        for s in range(n_sites):
            for n in range(n_sats):
                mask = reference[s, n]
                pair = contacts.pair(s, n)
                assert np.array_equal(pair.sample(times), mask), (s, n)
                runs = int(mask[0]) + int(
                    np.count_nonzero(~mask[:-1] & mask[1:])
                )
                assert contacts.pair_count(s, n) == runs, (s, n)
            union_mask = reference[s].any(axis=0)
            assert np.array_equal(
                contacts.site_union(s).sample(times), union_mask
            ), s
            assert np.array_equal(
                contacts.sample_counts(times, s), reference[s].sum(axis=0)
            ), s
        return reference, contacts

    def test_resample_identity_circular(self, small_walker, sites, short_grid):
        self._check_parity(small_walker, sites, short_grid)

    def test_resample_identity_eccentric(self, sites, short_grid):
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0 + 40.0 * index,
                inclination_deg=53.0 + index,
                raan_deg=36.0 * index,
                mean_anomaly_deg=45.0 * index,
                eccentricity=0.015,
            )
            for index in range(10)
        ]
        self._check_parity(elements, sites, short_grid)

    def test_coverage_within_edge_budget(self, small_walker, sites, short_grid):
        reference, contacts = self._check_parity(small_walker, sites, short_grid)
        step = short_grid.step_s
        for s in range(len(sites)):
            union = contacts.site_union(s)
            budget = 2.0 * union.count * step / contacts.span_s
            drift = abs(
                union.coverage_fraction - float(reference[s].any(axis=0).mean())
            )
            assert drift <= budget

    def test_truncation_flags(self, small_walker, sites, short_grid):
        reference = VisibilityEngine(short_grid).visibility(small_walker, sites)
        contacts = find_contact_intervals(small_walker, sites, short_grid)
        for s in range(len(sites)):
            for n in range(len(small_walker)):
                rises, falls, t_start, t_end = contacts.pair_windows(s, n)
                mask = reference[s, n]
                if rises.size == 0:
                    assert not mask.any()
                    continue
                assert bool(t_start[0]) == bool(mask[0]), (s, n)
                assert bool(t_end[-1]) == bool(mask[-1]), (s, n)
                # Interior windows are never truncated.
                assert not t_start[1:].any() and not t_end[:-1].any()
                if t_start[0]:
                    assert rises[0] == short_grid.start_s
                if t_end[-1]:
                    assert falls[-1] == contacts.end_s

    def test_unrefined_edges_sit_on_scan_samples(
        self, small_walker, sites, short_grid
    ):
        contacts = find_contact_intervals(
            small_walker, sites, short_grid, refine=False
        )
        step = short_grid.step_s
        for edges in (contacts.rise_s, contacts.set_s):
            offsets = (edges - short_grid.start_s) / step
            assert np.allclose(offsets, np.round(offsets))

    def test_refinement_is_chunk_invariant(self, small_walker, sites, short_grid):
        base = find_contact_intervals(small_walker, sites, short_grid)
        for chunk in (1, 7, 1_000_000):
            other = find_contact_intervals(
                small_walker, sites, short_grid, chunk_size=chunk
            )
            assert np.array_equal(base.pair_offsets, other.pair_offsets), chunk
            assert np.allclose(base.rise_s, other.rise_s, atol=1e-6), chunk
            assert np.allclose(base.set_s, other.set_s, atol=1e-6), chunk


class TestContactIntervalsReductions:
    @pytest.fixture
    def contacts(self, small_walker, sites, short_grid):
        return find_contact_intervals(small_walker, sites, short_grid)

    def test_coverage_fractions_match_site_unions(self, contacts):
        subset = np.array([0, 3, 5, 11, 20])
        fractions = contacts.coverage_fractions(subset)
        for s in range(contacts.n_sites):
            expect = contacts.site_union(s, subset).coverage_fraction
            assert fractions[s] == pytest.approx(expect)

    def test_active_fractions_match_satellite_unions(self, contacts):
        subset = np.array([2, 7, 13])
        active = contacts.satellite_active_fractions(subset, [0, 2])
        for row, sat in enumerate(subset):
            expect = contacts.satellite_union(int(sat), [0, 2]).coverage_fraction
            assert active[row] == pytest.approx(expect)

    def test_empty_selections(self, contacts):
        assert contacts.coverage_fractions([]).tolist() == [0.0] * contacts.n_sites
        assert contacts.satellite_active_fractions([], None).size == 0
        assert contacts.satellite_active_fractions([1, 2], []).tolist() == [0.0, 0.0]
        assert contacts.contact_count(sat_indices=[]) == 0
        assert contacts.site_union(0, []).count == 0

    def test_contact_count_totals(self, contacts):
        per_pair = sum(
            contacts.pair_count(s, n)
            for s in range(contacts.n_sites)
            for n in range(contacts.n_satellites)
        )
        assert contacts.contact_count() == per_pair == contacts.n_contacts

    def test_k_coverage_monotone_in_k(self, contacts):
        fractions = [
            contacts.k_coverage_fraction(0, k) for k in range(1, 5)
        ]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == pytest.approx(
            contacts.site_union(0).coverage_fraction
        )


def _tied_contacts(seed: int, n_sites: int = 5, n_sats: int = 9) -> ContactIntervals:
    """A random CSR on a coarse integer clock, so events tie exactly.

    Rises and sets coincide across satellites and sites, and within a pair
    consecutive windows may touch (``set == next rise``).  Site 1 has no
    windows at all.
    """
    rng = np.random.default_rng(seed)
    rises, sets, counts = [], [], []
    for site in range(n_sites):
        for _ in range(n_sats):
            k = 0 if site == 1 else int(rng.integers(0, 4))
            # Sorted draws with replacement from a small range: many ties,
            # and equal neighbours make touching windows.
            edges = np.sort(rng.integers(0, 12, size=2 * k)) * 10.0
            rises.extend(edges[0::2])
            sets.extend(edges[1::2])
            counts.append(k)
    offsets = np.zeros(n_sites * n_sats + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    n = len(rises)
    return ContactIntervals(
        n_sites=n_sites,
        n_satellites=n_sats,
        start_s=0.0,
        end_s=120.0,
        rise_s=np.array(rises, dtype=np.float64),
        set_s=np.array(sets, dtype=np.float64),
        truncated_start=np.zeros(n, dtype=bool),
        truncated_end=np.zeros(n, dtype=bool),
        pair_offsets=offsets,
    )


def _shared(contacts):
    """Share ``contacts`` through a throwaway context: (context, handle)."""
    from repro.experiments.common import ExperimentConfig, ExperimentContext
    from repro.runner.shared import share_world

    config = ExperimentConfig(step_s=900.0)
    context = ExperimentContext(engine="intervals")
    context.install_world(config, contacts)
    return context, share_world(context, config)


def _gather_with_rows(contacts, pair_ids):
    """The windows of ``pair_ids`` plus the row each one came from."""
    counts = np.diff(contacts.pair_offsets)[pair_ids]
    rows = np.repeat(np.arange(pair_ids.size, dtype=np.intp), counts)
    return contacts._gather(pair_ids), rows


def _one_shot_coverage(contacts, sats):
    """coverage_fractions as one grouped_union_seconds call, no presort."""
    sats = np.asarray(sats, dtype=np.intp)
    if sats.size == 0:
        return np.zeros(contacts.n_sites)
    sites = np.arange(contacts.n_sites, dtype=np.intp)
    pair_ids = (sites[:, None] * contacts.n_satellites + sats[None, :]).ravel()
    flat, rows = _gather_with_rows(contacts, pair_ids)
    seconds = grouped_union_seconds(
        contacts.rise_s[flat], contacts.set_s[flat], rows // sats.size,
        contacts.n_sites,
    )
    return seconds / contacts.span_s


def _one_shot_active(contacts, sats, sites):
    """satellite_active_fractions with one group per subset position."""
    sats = np.asarray(sats, dtype=np.intp)
    sites = np.asarray(sites, dtype=np.intp)
    if sites.size == 0:
        return np.zeros(sats.size)
    pair_ids = (sites[:, None] * contacts.n_satellites + sats[None, :]).ravel()
    flat, rows = _gather_with_rows(contacts, pair_ids)
    seconds = grouped_union_seconds(
        contacts.rise_s[flat], contacts.set_s[flat], rows % sats.size,
        sats.size,
    )
    return seconds / contacts.span_s


class TestPresortedStreams:
    """Rank-gathered subset sweeps are bit-equal to the one-shot lexsort."""

    SUBSETS = (
        [],
        [4],
        [8, 0, 5, 2],  # unsorted
        [3, 3, 7, 3, 0],  # repeated
        list(range(9)),
        [6, 1, 6, 1],
    )
    SITE_SETS = ([], [0], [3, 0, 2], [1], [2, 2, 4], [0, 1, 2, 3, 4])

    @pytest.mark.parametrize("seed", range(6))
    def test_coverage_fractions_bit_equal(self, seed):
        contacts = _tied_contacts(seed)
        for subset in self.SUBSETS:
            got = contacts.coverage_fractions(subset)
            assert np.array_equal(got, _one_shot_coverage(contacts, subset)), subset
            assert got[1] == 0.0  # the site without windows

    @pytest.mark.parametrize("seed", range(6))
    def test_satellite_active_fractions_bit_equal(self, seed):
        contacts = _tied_contacts(seed)
        for subset in self.SUBSETS:
            for sites in self.SITE_SETS:
                got = contacts.satellite_active_fractions(subset, sites)
                want = _one_shot_active(contacts, subset, sites)
                assert np.array_equal(got, want), (subset, sites)

    def test_restricted_copy_bit_equal(self):
        contacts = _tied_contacts(4)
        fleet = np.array([1, 2, 4, 6, 8])
        restricted = contacts.restrict(fleet)
        assert restricted.streams == {}
        for local in ([], [0, 4], [3, 1, 1], [4, 3, 2, 1, 0]):
            pool = fleet[np.asarray(local, dtype=np.intp)]
            assert np.array_equal(
                restricted.coverage_fractions(pool),
                contacts.coverage_fractions(pool),
            )
            assert np.array_equal(
                restricted.coverage_fractions(pool),
                _one_shot_coverage(contacts, pool),
            )
            assert np.array_equal(
                restricted.satellite_active_fractions(pool, [0, 3]),
                _one_shot_active(contacts, pool, [0, 3]),
            )

    def test_streams_are_built_lazily_per_grouping(self):
        contacts = _tied_contacts(0)
        assert contacts.streams == {}
        contacts.coverage_fractions([0, 1])
        assert set(contacts.streams) == {"site"}
        site = contacts.streams["site"]
        contacts.coverage_fractions([2])
        assert contacts.streams["site"] is site
        contacts.satellite_active_fractions([0, 1])
        assert set(contacts.streams) == {"site", "satellite"}
        events = 2 * contacts.n_contacts
        assert site.times.dtype == np.float64 and site.times.size == events
        assert site.deltas.dtype == np.int8
        assert site.groups.dtype == np.uint8
        assert site.groups.size == events
        assert site.rise_rank.dtype == site.set_rank.dtype == np.int32
        assert site.rise_rank.size == site.set_rank.size == contacts.n_contacts
        assert contacts.streams["satellite"].groups.dtype == np.uint8
        with pytest.raises(ValueError):
            contacts.event_stream("pair")

    def test_pickle_ignores_warm_streams(self):
        import pickle

        contacts = _tied_contacts(2)
        cold = pickle.dumps(contacts)
        want = contacts.coverage_fractions([0, 3, 5])
        contacts.satellite_active_fractions([1, 2])
        assert set(contacts.streams) == {"site", "satellite"}
        assert pickle.dumps(contacts) == cold
        copy = pickle.loads(cold)
        assert copy.streams == {}
        assert np.array_equal(copy.coverage_fractions([0, 3, 5]), want)

    def test_shared_memory_copy_starts_cold(self):
        from repro.runner.shared import attach_world

        contacts = _tied_contacts(5)
        subsets = ([0, 3, 5], [8, 8, 1], list(range(9)))
        coverage = [contacts.coverage_fractions(s) for s in subsets]
        active = [contacts.satellite_active_fractions(s, [0, 4]) for s in subsets]
        context, handle = _shared(contacts)
        try:
            attached_segment, attached = attach_world(handle)
            try:
                assert attached.streams == {}
                for subset, want_cov, want_act in zip(subsets, coverage, active):
                    assert np.array_equal(
                        attached.coverage_fractions(subset), want_cov
                    )
                    assert np.array_equal(
                        attached.satellite_active_fractions(subset, [0, 4]),
                        want_act,
                    )
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()


class TestActivityTable:
    """Per-site-set active seconds are bit-equal to the one-shot sweep over
    the gathered windows, cold or warm, and shared between spellings of
    one site set."""

    SUBSETS = TestPresortedStreams.SUBSETS + (None,)
    SITE_SETS = TestPresortedStreams.SITE_SETS + (None, [4, 0, 2, 3, 1], [0, 3, 2])

    @staticmethod
    def _want(contacts, subset, sites):
        sats = np.arange(contacts.n_satellites) if subset is None else subset
        sites = np.arange(contacts.n_sites) if sites is None else sites
        return _one_shot_active(contacts, sats, sites)

    @staticmethod
    def _counts():
        from repro.obs import metrics

        return tuple(
            metrics.counter(f"intervals.activity_table.{name}").value
            for name in ("builds", "hits")
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_and_warm_bit_equal(self, seed):
        for subset in self.SUBSETS:
            for sites in self.SITE_SETS:
                contacts = _tied_contacts(seed)
                want = self._want(contacts, subset, sites)
                cold = contacts.satellite_active_fractions(subset, sites)
                warm = contacts.satellite_active_fractions(subset, sites)
                assert np.array_equal(cold, want), (subset, sites)
                assert np.array_equal(warm, want), (subset, sites)

    def test_one_table_serves_every_site_set(self):
        contacts = _tied_contacts(8)
        for _ in range(2):
            for sites in self.SITE_SETS:
                for subset in self.SUBSETS:
                    assert np.array_equal(
                        contacts.satellite_active_fractions(subset, sites),
                        self._want(contacts, subset, sites),
                    ), (subset, sites)
        # Distinct sorted unique site sets: [], [0], [0 2 3], [1], [2 4],
        # and every site (four spellings).
        assert len(contacts.activity.vectors) == 6

    def test_permuted_and_repeated_sites_reuse_one_entry(self):
        contacts = _tied_contacts(3)
        before = self._counts()
        want = self._want(contacts, [6, 1, 6], [0, 2, 3])
        for sites in ([3, 0, 2], [0, 2, 3], [2, 2, 0, 3, 3], np.array([3, 2, 0])):
            got = contacts.satellite_active_fractions([6, 1, 6], sites)
            assert np.array_equal(got, want)
        builds, hits = (a - b for a, b in zip(self._counts(), before))
        assert (len(contacts.activity.vectors), builds, hits) == (1, 1, 3)

    def test_zero_horizon_builds_nothing(self):
        contacts = ContactIntervals(
            2, 3, 50.0, 50.0, np.zeros(0), np.zeros(0),
            np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
            np.zeros(7, dtype=np.int64),
        )
        assert np.array_equal(
            contacts.satellite_active_fractions([2, 0], [1]), np.zeros(2)
        )
        assert len(contacts.activity.vectors) == 0

    def test_restricted_copy_starts_cold(self):
        contacts = _tied_contacts(4)
        contacts.satellite_active_fractions(None, [0, 3])
        fleet = np.array([1, 2, 4, 6, 8])
        restricted = contacts.restrict(fleet)
        assert len(restricted.activity.vectors) == 0
        for local in ([], [0, 4], [3, 1, 1]):
            pool = fleet[np.asarray(local, dtype=np.intp)]
            assert np.array_equal(
                restricted.satellite_active_fractions(pool, [3, 0]),
                self._want(contacts, pool, [0, 3]),
            )

    def test_pickle_bytes_equal_warm_and_cold(self):
        import pickle

        contacts = _tied_contacts(2)
        cold = pickle.dumps(contacts)
        want = contacts.satellite_active_fractions([1, 2], [0, 4])
        contacts.satellite_active_fractions(None, None)
        assert len(contacts.activity.vectors) == 2
        assert pickle.dumps(contacts) == cold
        copy = pickle.loads(cold)
        assert len(copy.activity.vectors) == 0
        assert np.array_equal(copy.satellite_active_fractions([1, 2], [4, 0]), want)

    def test_shared_memory_copy_starts_cold(self):
        from repro.runner.shared import attach_world

        contacts = _tied_contacts(6)
        want = contacts.satellite_active_fractions([7, 0, 7], [2, 4])
        context, handle = _shared(contacts)
        try:
            attached_segment, attached = attach_world(handle)
            try:
                assert len(attached.activity.vectors) == 0
                assert np.array_equal(
                    attached.satellite_active_fractions([7, 0, 7], [4, 2]), want
                )
                assert len(attached.activity.vectors) == 1
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()


class TestUnitPositionsAt:
    """Paired per-element evaluation against the full state matrix."""

    @pytest.mark.parametrize("eccentricity", [0.0, 0.02])
    def test_matches_positions_eci(self, eccentricity):
        from repro.orbits.propagator import BatchPropagator

        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0 + 25.0 * index,
                inclination_deg=40.0 + 5.0 * index,
                raan_deg=60.0 * index,
                mean_anomaly_deg=80.0 * index,
                eccentricity=eccentricity,
            )
            for index in range(5)
        ]
        propagator = BatchPropagator(elements)
        times = np.linspace(0.0, 7200.0, 9)
        full = propagator.positions_eci(times)  # (N, T, 3)
        full_units = full / np.linalg.norm(full, axis=-1, keepdims=True)
        sat_idx = np.array([0, 2, 4, 1, 3, 0])
        probe_t = times[np.array([1, 3, 5, 7, 0, 8])]
        units = propagator.unit_positions_at(sat_idx, probe_t)
        for row, (n, t) in enumerate(zip(sat_idx, [1, 3, 5, 7, 0, 8])):
            np.testing.assert_allclose(
                units[row], full_units[n, t], atol=1e-9
            )


class TestIndexValidation:
    """A negative or out-of-range site or satellite raises IndexError; it
    never wraps or reads another site's windows (9 satellites, 5 sites)."""

    BAD_SATS = ([-1], [9], [0, -3], [2, 100])
    BAD_SITES = ([-1], [5], [0, -2])

    @pytest.mark.parametrize("sats", BAD_SATS)
    def test_bad_satellites_raise(self, sats):
        contacts = _tied_contacts(0)
        calls = (
            lambda: contacts.contact_count(sat_indices=sats),
            lambda: contacts.site_union(2, sats),
            lambda: contacts.coverage_fractions(sats),
            lambda: contacts.satellite_active_fractions(sats),
            lambda: contacts.satellite_active_fractions(sats, [0, 2]),
            lambda: contacts.visible_count_steps(0, sats),
            lambda: contacts.k_coverage_fraction(0, 1, sats),
            lambda: contacts.sample_counts([0.0, 60.0], 0, sats),
            lambda: contacts.satellite_union(sats[-1]),
            lambda: contacts.pair(0, sats[-1]),
            lambda: contacts.pair_count(0, sats[-1]),
            lambda: contacts.pair_truncation(0, sats[-1]),
            lambda: contacts.pair_windows(0, sats[-1]),
            lambda: contacts.restrict(sats),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()

    @pytest.mark.parametrize("sites", BAD_SITES)
    def test_bad_sites_raise(self, sites):
        contacts = _tied_contacts(0)
        calls = (
            lambda: contacts.contact_count(site_indices=sites),
            lambda: contacts.satellite_active_fractions([0, 1], sites),
            lambda: contacts.satellite_union(0, sites),
            lambda: contacts.site_union(sites[-1], [0, 1]),
            lambda: contacts.site_union(sites[-1], []),
            lambda: contacts.k_coverage_fraction(sites[-1], 1),
            lambda: contacts.pair(sites[-1], 0),
            lambda: contacts.pair_windows(sites[-1], 0),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()

    def test_zero_span_still_refuses_bad_sites(self):
        contacts = ContactIntervals(
            2, 3, 50.0, 50.0, np.zeros(0), np.zeros(0),
            np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
            np.zeros(7, dtype=np.int64),
        )
        with pytest.raises(IndexError):
            contacts.satellite_active_fractions([0], [2])
        with pytest.raises(IndexError):
            contacts.k_coverage_fraction(-1, 1)

    def test_valid_selections_keep_their_meaning(self):
        contacts = _tied_contacts(0)
        assert contacts.contact_count(sat_indices=[8]) >= 0
        assert contacts.site_union(2, []).total_s == 0.0
        assert np.array_equal(
            contacts.coverage_fractions([8, 0, 8]),
            contacts.coverage_fractions([0, 8]),
        )
        assert contacts.satellite_active_fractions([3, 3, 1]).shape == (3,)
        assert contacts.coverage_fractions(np.array([], dtype=float)).shape == (5,)

    def test_non_integer_selection_raises(self):
        contacts = _tied_contacts(0)
        with pytest.raises(IndexError):
            contacts.coverage_fractions([0.0, 1.0])
        with pytest.raises(IndexError):
            contacts.coverage_fractions(np.array([True, False]))

    def test_restricted_world_separates_bad_from_absent(self):
        contacts = _tied_contacts(0)
        restricted = contacts.restrict([1, 4, 6])
        assert restricted.fleet.tolist() == [1, 4, 6]
        assert restricted.pool_size == 9
        with pytest.raises(KeyError):
            restricted.coverage_fractions([1, 2])
        for bad in ([-1], [9]):
            with pytest.raises(IndexError):
                restricted.coverage_fractions(bad)
        with pytest.raises(ValueError):
            contacts.restrict([3, 3])
