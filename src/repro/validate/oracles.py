"""Differential oracle cross-checks: fast paths vs slow-but-exact references.

Three cross-checks, each pitting an optimized implementation the figures
depend on against an independent formulation of the same physics:

* :func:`check_propagator_agreement` — the vectorized
  :class:`~repro.orbits.propagator.BatchPropagator` (including its
  circular fast path) against the scalar
  :class:`~repro.orbits.propagator.J2Propagator`, position-by-position
  over randomized element sets.
* :func:`check_visibility_oracle` — the spherical-geometry cos-threshold
  shortcut of :class:`~repro.sim.visibility.VisibilityEngine` against the
  exact topocentric elevation of :func:`repro.orbits.topocentric.
  elevation_deg`, with a quantified edge-disagreement budget: the two
  formulations are algebraically equivalent, so any disagreement must sit
  on a contact edge (a floating-point tie at the threshold crossing) and
  span at most ``edge_budget_steps`` samples.
* :func:`check_packed_agreement` — every reduction of
  :class:`~repro.sim.visibility.PackedVisibility` (site masks, coverage
  fractions, satellite activity, with and without satellite/site subset
  restrictions) against plain boolean reductions of the unpacked tensor.
  Bit packing is lossless, so agreement is exact, not approximate.
* :func:`check_fused_agreement` — the streaming kernels of
  :mod:`repro.sim.kernels` (chunked slabs, geometric pair culling, cached
  site tracks) against reductions of the materialized unculled tensor,
  bit-exact across chunk sizes; the population is rigged so the cull
  genuinely fires.
* :func:`check_interval_agreement` — the analytic contact-interval engine
  of :mod:`repro.sim.intervals` against the dense grid engine: resampling
  the refined (rise, set) windows at the grid instants must reproduce the
  grid masks bit for bit (the coarse scan *is* the grid kernel, and
  refinement is clamped to the bracketing step), while continuous-measure
  reductions (coverage fractions, gap lengths) must agree within the
  quantified budget of one time step per refined contact edge.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ground.sites import GroundSite
from repro.obs import get_logger
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import eci_to_ecef, gmst_rad
from repro.orbits.propagator import BatchPropagator, J2Propagator
from repro.orbits.topocentric import elevation_deg
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.visibility import (
    VisibilityEngine,
    packed_visibility,
)
from repro.validate import gen
from repro.validate.result import CheckResult, failed, passed

_LOG = get_logger(__name__)


def check_propagator_agreement(
    seed: int,
    n_satellites: int = 16,
    duration_s: float = 86_400.0,
    step_s: float = 1_800.0,
    max_eccentricity: float = gen.MAX_DOMAIN_ECCENTRICITY,
    max_error_m: float = 1.0,
) -> CheckResult:
    """Scalar-vs-batch propagator state agreement on random element sets.

    Propagates the same randomized elements through both implementations
    over ``duration_s`` (default: the 24 h acceptance horizon) and fails if
    any position differs by ``max_error_m`` or more.  Two batches run: an
    all-circular one (pinning the batch fast path, which skips the Kepler
    solve entirely) and a mixed circular/eccentric one (pinning the general
    path against the scalar reference).
    """
    times = TimeGrid(duration_s=duration_s, step_s=step_s).times_s
    worst_error_m = 0.0
    worst_batch = None
    for batch_name, eccentricity_ceiling in (
        ("circular", 0.0),
        ("mixed", max_eccentricity),
    ):
        rng = gen.trial_rng(seed, 1, 0 if eccentricity_ceiling == 0.0 else 1)
        elements = gen.random_elements(rng, n_satellites, eccentricity_ceiling)
        batch_positions = BatchPropagator(elements).positions_eci(times)
        scalar_positions = np.empty_like(batch_positions)
        for sat, element in enumerate(elements):
            propagator = J2Propagator(element)
            for t, time_s in enumerate(times):
                scalar_positions[sat, t] = propagator.position_eci(time_s)
        error_m = float(
            np.linalg.norm(batch_positions - scalar_positions, axis=-1).max()
        )
        if error_m > worst_error_m:
            worst_error_m, worst_batch = error_m, batch_name
    details = {
        "satellites": n_satellites,
        "times": int(times.size),
        "duration_s": duration_s,
        "max_error_m": worst_error_m,
        "threshold_m": max_error_m,
        "worst_batch": worst_batch,
    }
    if worst_error_m < max_error_m:
        return passed("oracle.propagator", **details)
    return failed("oracle.propagator", **details)


def _max_run_length(mask: np.ndarray) -> int:
    """Longest run of consecutive True along the last axis, over all rows."""
    if not mask.any():
        return 0
    run = np.zeros(mask.shape[:-1], dtype=np.int64)
    longest = 0
    for t in range(mask.shape[-1]):
        run = np.where(mask[..., t], run + 1, 0)
        longest = max(longest, int(run.max()))
    return longest


def _edge_adjacent(*masks: np.ndarray) -> np.ndarray:
    """Samples adjacent to a transition in any of the given boolean masks.

    A sample t is edge-adjacent when some mask changes value between t-1
    and t or between t and t+1; the first and last grid samples are always
    edge-adjacent (a contact truncated by the horizon has its edge outside
    the grid).
    """
    shape = masks[0].shape
    near = np.zeros(shape, dtype=bool)
    for mask in masks:
        transitions = mask[..., :-1] != mask[..., 1:]
        near[..., :-1] |= transitions
        near[..., 1:] |= transitions
    near[..., 0] = True
    near[..., -1] = True
    return near


def check_visibility_oracle(
    seed: int,
    n_satellites: int = 24,
    n_sites: int = 6,
    duration_s: float = 21_600.0,
    step_s: float = 60.0,
    edge_budget_steps: int = 1,
    sites: Optional[Sequence] = None,
    elements: Optional[Sequence] = None,
) -> CheckResult:
    """Exact topocentric elevation vs the cos-threshold visibility shortcut.

    Both formulations are exact on the same spherical geometry (the
    threshold identity ``el >= mask  <=>  dot(unit_site, unit_sat) >=
    cos(psi)`` is an algebraic rewrite, and for the circular orbits used
    here the shortcut's semi-major-axis radius equals the true radius), so
    they may only disagree where floating-point rounding breaks a tie at
    the threshold — i.e. exactly at a contact edge.  The check therefore
    asserts two things about the disagreement set:

    * every disagreeing sample is adjacent to a visibility transition in
      one of the two masks (no interior disagreement ever), and
    * no edge contributes more than ``edge_budget_steps`` consecutive
      disagreeing samples (the budget is in units of the time step: a
      tie can shift a contact boundary by at most one sampling instant
      per step of budget).
    """
    rng = gen.trial_rng(seed, 2)
    if elements is None:
        elements = gen.random_elements(rng, n_satellites, max_eccentricity=0.0)
    if sites is None:
        sites = gen.random_sites(rng, n_sites)
    grid = TimeGrid(duration_s=duration_s, step_s=step_s)
    propagator = BatchPropagator(list(elements))

    shortcut = VisibilityEngine(grid).visibility(propagator, list(sites))

    theta = gmst_rad(grid.times_s, grid.gmst_at_epoch_rad)
    sat_ecef = eci_to_ecef(propagator.positions_eci(grid.times_s), theta)
    exact = np.empty_like(shortcut)
    for s, site in enumerate(sites):
        elevations = elevation_deg(site.position_ecef, sat_ecef)  # (N, T)
        exact[s] = elevations >= site.min_elevation_deg

    disagree = shortcut ^ exact
    interior = disagree & ~_edge_adjacent(exact, shortcut)
    longest_run = _max_run_length(disagree)
    details = {
        "sites": len(sites),
        "satellites": propagator.count,
        "samples": int(grid.count),
        "step_s": step_s,
        "disagreeing_samples": int(disagree.sum()),
        "interior_disagreements": int(interior.sum()),
        "max_disagreement_run_steps": longest_run,
        "edge_budget_steps": edge_budget_steps,
    }
    if interior.any() or longest_run > edge_budget_steps:
        return failed("oracle.visibility", **details)
    return passed("oracle.visibility", **details)


def _unpacked_reductions_match(
    packed, visible: np.ndarray, sat_indices, site_indices
) -> List[str]:
    """Compare every PackedVisibility reduction against boolean reductions.

    Returns a list of mismatch descriptions (empty = exact agreement).
    ``visible`` is the unpacked (S, N, T) boolean tensor the packed form
    was built from.
    """
    mismatches: List[str] = []
    # The packed methods get the selections verbatim (including plain empty
    # lists) to exercise their own index normalization; the numpy reference
    # indexing below needs an integer dtype for empty selections.
    sat_ref = None if sat_indices is None else np.asarray(sat_indices, dtype=np.intp)
    site_ref = (
        None if site_indices is None else np.asarray(site_indices, dtype=np.intp)
    )
    subset = visible if sat_ref is None else visible[:, sat_ref, :]
    restricted = subset if site_ref is None else subset[site_ref]

    # Per-site union masks and coverage fractions under the satellite subset.
    expect_site_masks = subset.any(axis=1)
    if not np.array_equal(packed.site_masks(sat_indices), expect_site_masks):
        mismatches.append("site_masks")
    for site in range(visible.shape[0]):
        if not np.array_equal(
            packed.site_mask(site, sat_indices), expect_site_masks[site]
        ):
            mismatches.append(f"site_mask[{site}]")
    if not np.array_equal(
        packed.coverage_fractions(sat_indices),
        expect_site_masks.mean(axis=1) if expect_site_masks.size
        else np.zeros(visible.shape[0]),
    ):
        mismatches.append("coverage_fractions")

    # Per-satellite activity under both subset axes.
    n_subset = restricted.shape[1]
    if restricted.shape[0] == 0 or n_subset == 0:
        expect_sat_masks = np.zeros((n_subset, visible.shape[2]), dtype=bool)
    else:
        expect_sat_masks = restricted.any(axis=0)
    if not np.array_equal(
        packed.satellite_masks(sat_indices, site_indices), expect_sat_masks
    ):
        mismatches.append("satellite_masks")
    if not np.array_equal(
        packed.satellite_active_fractions(sat_indices, site_indices),
        expect_sat_masks.mean(axis=1) if expect_sat_masks.size
        else np.zeros(n_subset),
    ):
        mismatches.append("satellite_active_fractions")
    return mismatches


def check_packed_agreement(
    seed: int,
    n_satellites: int = 40,
    n_sites: int = 7,
    duration_s: float = 10_800.0,
    step_s: float = 60.0,
    n_subsets: int = 8,
) -> CheckResult:
    """Packed vs unpacked boolean reductions, exact equality.

    Builds one boolean visibility tensor and its bit-packed twin, then
    replays every reduction the experiments use — full pool, random
    satellite subsets, random site restrictions, empty and singleton
    selections — demanding bit-exact agreement.  Deliberately includes a
    non-multiple-of-8 sample count so the byte-padding path is always
    exercised.
    """
    rng = gen.trial_rng(seed, 3)
    elements = gen.random_elements(rng, n_satellites, max_eccentricity=0.0)
    sites = gen.random_sites(rng, n_sites)
    count = int(duration_s // step_s)
    if count % 8 == 0:
        count += 3  # Force padding bits into every packed row.
    grid = TimeGrid(duration_s=count * step_s, step_s=step_s)

    engine = VisibilityEngine(grid)
    visible = engine.visibility(elements, sites)  # (S, N, T) bool
    packed = packed_visibility(elements, sites, grid)

    selections = [(None, None), (None, []), ([], None), ([], [])]
    for _ in range(n_subsets):
        sat_size = int(rng.integers(1, n_satellites + 1))
        site_size = int(rng.integers(1, n_sites + 1))
        sat_subset = rng.choice(n_satellites, size=sat_size, replace=False)
        site_subset = rng.choice(n_sites, size=site_size, replace=False)
        selections.append((sat_subset, None))
        selections.append((sat_subset, site_subset))
        selections.append((None, site_subset))

    mismatched: List[str] = []
    for sat_indices, site_indices in selections:
        for name in _unpacked_reductions_match(
            packed, visible, sat_indices, site_indices
        ):
            sat_count = "all" if sat_indices is None else len(sat_indices)
            site_count = "all" if site_indices is None else len(site_indices)
            mismatched.append(f"{name} (sats={sat_count}, sites={site_count})")

    details = {
        "sites": n_sites,
        "satellites": n_satellites,
        "samples": int(grid.count),
        "selections": len(selections),
        "mismatches": mismatched,
    }
    if mismatched:
        return failed("oracle.packed", **details)
    return passed("oracle.packed", **details)


def check_fused_agreement(
    seed: int,
    n_satellites: int = 28,
    n_sites: int = 5,
    duration_s: float = 10_800.0,
    step_s: float = 60.0,
    chunk_sizes: Sequence[int] = (1, 13, 64, 1_000_000),
) -> CheckResult:
    """Streaming (culled) kernels vs the materialized unculled reference.

    Builds a random circular population *plus* a guaranteed-cullable block —
    a ~79 deg-latitude site that a handful of injected low-inclination
    satellites can never reach — and demands bit-exact agreement of every
    streaming reduction (site coverage, satellite activity, visible counts,
    packed bits) with reductions of
    :meth:`~repro.sim.visibility.VisibilityEngine.visibility` computed with
    culling disabled.  Sweeps chunk sizes across the degenerate corners
    (one sample per slab, a prime, the default, and larger than the grid)
    and repeats the sweep with the site track primed, pinning the cached
    ECI-track slicing path the experiment contexts use.  Fails outright if
    the cull never fired — a check that stops exercising culling is a
    broken check, not a passing one.
    """
    rng = gen.trial_rng(seed, 4)
    elements = list(gen.random_elements(rng, n_satellites, max_eccentricity=0.0))
    for _ in range(4):
        elements.append(
            OrbitalElements.from_degrees(
                altitude_km=550.0,
                inclination_deg=6.0,
                raan_deg=float(rng.uniform(0.0, 360.0)),
                mean_anomaly_deg=float(rng.uniform(0.0, 360.0)),
            )
        )
    # Latitudes bounded away from the equator: every satellite ground
    # track crosses the equator, so a near-equatorial site can reach ANY
    # shell and a single one would keep the injected 6 deg satellites
    # alive at satellite level.  |lat| >= 35 deg with masks >= 15 deg
    # leaves a worst-case 29 deg latitude gap against a <= 12.3 deg
    # footprint half-angle — the whole-satellite skip is guaranteed to
    # fire for every random draw.  (Fully random sites remain covered by
    # oracle.visibility; this oracle pins streaming/culling identity.)
    sites = [
        GroundSite(
            name=f"fused-site-{index}",
            latitude_deg=float(rng.choice([-1.0, 1.0]) * rng.uniform(35.0, 85.0)),
            longitude_deg=float(rng.uniform(-180.0, 180.0)),
            altitude_m=0.0,
            min_elevation_deg=float(rng.uniform(15.0, 40.0)),
        )
        for index in range(n_sites)
    ]
    sites.append(
        GroundSite(
            name="cull-polar",
            latitude_deg=79.0,
            longitude_deg=float(rng.uniform(-180.0, 180.0)),
            min_elevation_deg=25.0,
        )
    )
    count = int(duration_s // step_s)
    if count % 8 == 0:
        count += 3  # Keep the packed byte-padding path in play.
    grid = TimeGrid(duration_s=count * step_s, step_s=step_s)

    propagator = BatchPropagator(elements)
    reference = VisibilityEngine(grid).visibility(propagator, sites, cull=False)
    expect_coverage = reference.any(axis=1)
    expect_activity = reference.any(axis=0)
    expect_counts = reference.sum(axis=1)
    expect_packed = packed_visibility(
        propagator, sites, grid, cull=False
    ).site_masks()

    mismatched: List[str] = []
    culled_pairs = 0
    culled_satellites = 0
    for primed in (False, True):
        geometry = kernels.SiteGeometry(sites, grid)
        if primed:
            geometry.prime_track()
        for chunk in chunk_sizes:
            plan = kernels.plan_stream(propagator, geometry, grid, chunk_size=chunk)
            culled_pairs = plan.culled_pairs
            culled_satellites = plan.culled_satellites
            label = f"chunk={chunk}, primed={primed}"
            if not np.array_equal(
                kernels.stream_site_coverage(plan), expect_coverage
            ):
                mismatched.append(f"site_coverage ({label})")
            if not np.array_equal(
                kernels.stream_satellite_activity(
                    kernels.plan_stream(propagator, geometry, grid, chunk_size=chunk)
                ),
                expect_activity,
            ):
                mismatched.append(f"satellite_activity ({label})")
            if not np.array_equal(
                kernels.stream_visible_counts(
                    kernels.plan_stream(propagator, geometry, grid, chunk_size=chunk)
                ),
                expect_counts,
            ):
                mismatched.append(f"visible_counts ({label})")
            if not np.array_equal(
                packed_visibility(
                    propagator, sites, grid, chunk_size=chunk, geometry=geometry
                ).site_masks(),
                expect_packed,
            ):
                mismatched.append(f"packed_bits ({label})")
    if not culled_pairs or not culled_satellites:
        mismatched.append(
            f"cull never fired (pairs={culled_pairs}, "
            f"satellites={culled_satellites})"
        )

    details = {
        "sites": len(sites),
        "satellites": propagator.count,
        "samples": int(grid.count),
        "chunk_sizes": list(chunk_sizes),
        "culled_pairs": culled_pairs,
        "culled_satellites": culled_satellites,
        "mismatches": mismatched,
    }
    if mismatched:
        return failed("oracle.fused", **details)
    return passed("oracle.fused", **details)


def check_interval_agreement(
    seed: int,
    n_satellites: int = 16,
    n_sites: int = 5,
    duration_s: float = 14_400.0,
    step_s: float = 120.0,
    tolerance_s: float = 0.01,
) -> CheckResult:
    """Analytic contact intervals vs the dense grid engine.

    The interval engine's coarse scan *is* the grid kernel and each refined
    edge is clamped to its bracketing scan step, so two classes of agreement
    are checkable, one exact and one budgeted:

    * **bit-exact where both engines sample the same instants** — for every
      (site, satellite) pair, resampling the refined windows at the grid
      times must reproduce the grid mask bit for bit; per-pair contact
      (run) counts, per-site union masks, and per-site visible-satellite
      counts must match exactly;
    * **budgeted on continuous measures** — coverage fractions may differ
      by at most one time step per refined contact edge (two edges per
      window), and each coverage gap by at most ``2 * step_s``, because a
      refined edge moves at most one step away from its scan sample while
      staying inside the bracketing interval.

    Runs an all-circular batch (the propagator fast path the refinement
    evaluator also takes) and a mixed-eccentricity batch (the Kepler-solve
    path).  Fails outright if no contact was ever found — a vacuously
    green comparison is a broken check.

    On top of the raw-geometry checks, the downstream consumers are held to
    the same contract: the interval downlink scheduler must produce
    bit-identical assignments, downlinked volumes, and backlogs to the grid
    scheduler under every policy (decisions happen at grid cadence, where
    the resampling identity makes the candidate sets equal), and the
    interval capacity accountants must agree with the grid ones within the
    per-contact-edge budget.
    """
    from repro.sim.capacity import (
        spare_capacity_split,
        spare_capacity_split_intervals,
        utilization_from_intervals,
        utilization_from_visibility,
    )
    from repro.sim.coverage import gap_lengths_s
    from repro.sim.intervals import find_contact_intervals
    from repro.sim.scheduling import (
        DownlinkScheduler,
        IntervalDownlinkScheduler,
        SchedulingPolicy,
    )

    mismatches: List[str] = []
    total_contacts = 0
    samples = 0
    scheduling_comparisons = 0
    for batch_name, eccentricity_ceiling in (
        ("circular", 0.0),
        ("eccentric", gen.MAX_DOMAIN_ECCENTRICITY),
    ):
        rng = gen.trial_rng(seed, 5, 0 if eccentricity_ceiling == 0.0 else 1)
        elements = list(
            gen.random_elements(rng, n_satellites, eccentricity_ceiling)
        )
        sites = gen.random_sites(rng, n_sites)
        grid = TimeGrid(duration_s=duration_s, step_s=step_s)
        propagator = BatchPropagator(elements)
        reference = VisibilityEngine(grid).visibility(propagator, list(sites))
        contacts = find_contact_intervals(
            propagator, list(sites), grid, tolerance_s=tolerance_s
        )
        total_contacts += contacts.n_contacts
        samples = int(grid.count)
        times = grid.times_s
        span_total = contacts.span_s

        for s in range(len(sites)):
            for n in range(len(elements)):
                mask = reference[s, n]
                pair = contacts.pair(s, n)
                label = f"{batch_name}, site={s}, sat={n}"
                if not np.array_equal(pair.sample(times), mask):
                    mismatches.append(f"pair_resample ({label})")
                runs = int(mask[0]) + int(
                    np.count_nonzero(~mask[:-1] & mask[1:])
                )
                if contacts.pair_count(s, n) != runs:
                    mismatches.append(
                        f"contact_count ({label}): "
                        f"{contacts.pair_count(s, n)} != {runs}"
                    )
                budget = 2.0 * pair.count * step_s / span_total
                drift = abs(pair.coverage_fraction - float(mask.mean()))
                if drift > budget:
                    mismatches.append(
                        f"pair_coverage ({label}): |{drift:.3e}| > {budget:.3e}"
                    )

            site_mask = reference[s].any(axis=0)
            union = contacts.site_union(s)
            label = f"{batch_name}, site={s}"
            if not np.array_equal(union.sample(times), site_mask):
                mismatches.append(f"union_resample ({label})")
            if not np.array_equal(
                contacts.sample_counts(times, s), reference[s].sum(axis=0)
            ):
                mismatches.append(f"visible_counts ({label})")
            # Gap correspondence.  An interval gap containing >= 1 grid
            # sample matches a grid gap one-to-one (in temporal order, by
            # the resampling identity); a sample-free gap is a sub-step
            # hand-off hole the grid cannot represent and must be shorter
            # than the two-edge budget.
            grid_gaps = gap_lengths_s(site_mask, step_s)
            holes = union.complement()
            sampled = (
                np.searchsorted(times, holes.stops, side="left")
                - np.searchsorted(times, holes.starts, side="left")
            )
            lengths = holes.durations_s()
            visible_gaps = lengths[sampled > 0]
            micro_gaps = lengths[sampled == 0]
            if visible_gaps.size != grid_gaps.size:
                mismatches.append(
                    f"gap_count ({label}): "
                    f"{visible_gaps.size} != {grid_gaps.size}"
                )
            elif grid_gaps.size and (
                np.abs(visible_gaps - grid_gaps).max() > 2.0 * step_s
            ):
                mismatches.append(
                    f"gap_lengths ({label}): worst drift "
                    f"{np.abs(visible_gaps - grid_gaps).max():.2f} s "
                    f"> {2.0 * step_s:.2f} s"
                )
            if micro_gaps.size and micro_gaps.max() >= 2.0 * step_s:
                mismatches.append(
                    f"micro_gaps ({label}): sample-free gap of "
                    f"{micro_gaps.max():.2f} s >= {2.0 * step_s:.2f} s"
                )

        # Scheduling agreement — decisions run at grid cadence, so the
        # interval scheduler's candidate sets equal the grid masks and the
        # whole schedule must be bit-identical, floats included.
        for policy in SchedulingPolicy:
            grid_schedule = DownlinkScheduler(
                reference,
                grid,
                downlink_rate_mbps=800.0,
                generation_rate_mbps=20.0,
                policy=policy,
            ).run()
            interval_schedule = IntervalDownlinkScheduler(
                contacts,
                grid,
                downlink_rate_mbps=800.0,
                generation_rate_mbps=20.0,
                policy=policy,
            ).run()
            label = f"{batch_name}, policy={policy.value}"
            if not np.array_equal(
                grid_schedule.assignment, interval_schedule.assignment
            ):
                mismatches.append(f"schedule_assignment ({label})")
            if not np.array_equal(
                grid_schedule.downlinked_megabits,
                interval_schedule.downlinked_megabits,
            ):
                mismatches.append(f"schedule_downlinked ({label})")
            if not np.array_equal(
                grid_schedule.remaining_backlog_megabits,
                interval_schedule.remaining_backlog_megabits,
            ):
                mismatches.append(f"schedule_backlog ({label})")
            scheduling_comparisons += 1

        # Capacity agreement — continuous-time unions vs sampled means,
        # within the two-edges-per-window budget per satellite.
        windows_per_sat = (
            np.diff(contacts.pair_offsets)
            .reshape(len(sites), len(elements))
            .sum(axis=0)
        )
        capacity_budget = 2.0 * windows_per_sat * step_s / span_total
        idle_drift = np.abs(
            utilization_from_visibility(reference).per_satellite_idle_fraction
            - utilization_from_intervals(contacts).per_satellite_idle_fraction
        )
        if np.any(idle_drift > capacity_budget):
            mismatches.append(
                f"capacity_idle ({batch_name}): worst drift "
                f"{idle_drift.max():.3e} over budget"
            )
        party_names = ("alpha", "beta", "gamma")
        terminal_parties = [party_names[i % 3] for i in range(len(sites))]
        satellite_parties = [party_names[n % 3] for n in range(len(elements))]
        grid_ledger = spare_capacity_split(
            reference, terminal_parties, satellite_parties
        )
        interval_ledger = spare_capacity_split_intervals(
            contacts, terminal_parties, satellite_parties
        )
        # Spare time is a difference of two swept unions, so it carries
        # both unions' edge budgets.
        ledger_budget = 2.0 * capacity_budget
        for field in ("own_fraction", "spare_fraction", "idle_fraction"):
            ledger_drift = np.abs(
                getattr(grid_ledger, field) - getattr(interval_ledger, field)
            )
            if np.any(ledger_drift > ledger_budget):
                mismatches.append(
                    f"capacity_{field} ({batch_name}): worst drift "
                    f"{ledger_drift.max():.3e} over budget"
                )

    if total_contacts == 0:
        mismatches.append("no contacts found: the comparison is vacuous")

    details = {
        "sites": n_sites,
        "satellites": n_satellites,
        "samples": samples,
        "step_s": step_s,
        "tolerance_s": tolerance_s,
        "contacts": total_contacts,
        "scheduling_policies": [p.value for p in SchedulingPolicy],
        "scheduling_comparisons": scheduling_comparisons,
        "mismatches": mismatches,
    }
    if mismatches:
        return failed("oracle.intervals", **details)
    return passed("oracle.intervals", **details)
