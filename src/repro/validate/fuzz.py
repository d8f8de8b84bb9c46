"""Seeded, stdlib-only property fuzzing of physical invariants.

A deliberately small property-testing harness — no hypothesis dependency,
no shrinking — built on the same stateless ``SeedSequence`` spawning as the
Monte-Carlo runner: invariant *k*, trial *t* of a run seeded with *s* draws
from ``SeedSequence(s, spawn_key=(FUZZ_STREAM, k, t))``, so a red trial is
replayed exactly by :func:`replay_trial` with the triple the report
records, regardless of trial count or ordering.

The invariants are physics the figures silently rely on:

* ``radius_bounds`` — propagated radii stay inside the ellipse's
  [a(1-e), a(1+e)] band (a vectorization bug that bends radii bends every
  coverage footprint).
* ``unit_norms`` — the visibility engine's direction vectors are unit
  length (the cos-threshold comparison assumes it).
* ``scalar_batch_state`` — batch positions match the scalar reference on
  random short horizons (the 24 h sweep lives in
  :func:`repro.validate.oracles.check_propagator_agreement`).
* ``visibility_split`` — computing visibility over a grid equals
  concatenating the tensors of the grid split at a random sample; also the
  chunk-size identity (chunking is pure tiling).
* ``raan_drift_sign`` — nodal regression for prograde orbits, advance for
  retrograde, batch rates equal to scalar rates.
* ``kepler_wrap`` — Kepler solutions converge and agree scalar-vs-batch
  across mean anomalies spanning wrap boundaries.
* ``interval_algebra`` — the :class:`~repro.sim.intervals.IntervalSet`
  algebra on adversarial inputs (zero-length intervals, touching
  endpoints, full-horizon contacts, empty sets): normalization,
  De Morgan / complement identities, inclusion-exclusion, and
  sample-membership against a brute-force point-in-interval loop.
* ``intervals_shm_roundtrip`` — sharing a random world of each engine (a
  :class:`~repro.sim.intervals.ContactIntervals` window soup and a
  :class:`~repro.sim.visibility.PackedVisibility` bit tensor) through
  :func:`repro.runner.shared.share_world` and attaching it back is
  bit-exact (every array, dtype and scalar), zero-copy (attached arrays
  are segment views), a pickled copy never carries a process-local
  segment handle, and ``context.clear()`` unlinks the segment.
* ``world_contract`` — the two world classes answer one query contract.
  A random bit tensor and its exact window twin (each visible run of
  samples becomes one window) are queried with random selections —
  unsorted, repeated, empty, negative, out-of-range, non-integer and
  out-of-fleet — pool-wide and through random ``restrict()`` chains.
  Both engines must return the same shapes and values or raise the same
  exception type, and every restricted answer must equal the pool-wide
  answer of the same engine bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from repro.obs import get_logger
from repro.orbits.kepler import solve_kepler, solve_kepler_batch
from repro.orbits.propagator import BatchPropagator, J2Propagator, j2_secular_rates
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine
from repro.validate import gen
from repro.validate.result import CheckResult, failed, passed

_LOG = get_logger(__name__)

#: Spawn-key stream id reserved for the fuzz harness (oracle checks use 1-3).
FUZZ_STREAM = 100

#: An invariant takes one trial rng and raises AssertionError on violation.
Invariant = Callable[[np.random.Generator], None]


def invariant_radius_bounds(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(1, 12)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    grid = gen.random_grid(rng)
    radii = np.linalg.norm(
        BatchPropagator(elements).positions_eci(grid.times_s), axis=-1
    )
    axes = np.array([e.semi_major_axis_m for e in elements])[:, None]
    eccs = np.array([e.eccentricity for e in elements])[:, None]
    low = axes * (1.0 - eccs) * (1.0 - 1e-9)
    high = axes * (1.0 + eccs) * (1.0 + 1e-9)
    assert np.all(radii >= low), (
        f"radius below perigee bound by {float((low - radii).max()):.3e} m"
    )
    assert np.all(radii <= high), (
        f"radius above apogee bound by {float((radii - high).max()):.3e} m"
    )


def invariant_unit_norms(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(1, 12)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    grid = gen.random_grid(rng)
    units = BatchPropagator(elements).unit_positions_eci(grid.times_s)
    norms = np.linalg.norm(units, axis=-1)
    worst = float(np.abs(norms - 1.0).max())
    assert worst < 1e-9, f"unit-vector norm off by {worst:.3e}"


def invariant_scalar_batch_state(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(1, 6)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    times = gen.random_grid(rng, min_samples=4, max_samples=32).times_s
    batch = BatchPropagator(elements).positions_eci(times)
    for sat, element in enumerate(elements):
        propagator = J2Propagator(element)
        for t, time_s in enumerate(times):
            error_m = float(
                np.linalg.norm(batch[sat, t] - propagator.position_eci(time_s))
            )
            assert error_m < 1e-3, (
                f"sat {sat} at t={time_s:.0f}s: scalar/batch differ by "
                f"{error_m:.3e} m"
            )


def invariant_visibility_split(rng: np.random.Generator) -> None:
    elements = gen.random_elements(rng, int(rng.integers(2, 10)))
    sites = gen.random_sites(rng, int(rng.integers(1, 5)))
    grid = gen.random_grid(rng, min_samples=8, max_samples=96)
    whole = VisibilityEngine(grid).visibility(elements, sites)

    # Chunk-size identity: chunking is pure tiling of the time axis.
    chunk = int(rng.integers(1, grid.count + 1))
    chunked = VisibilityEngine(grid, chunk_size=chunk).visibility(elements, sites)
    assert np.array_equal(whole, chunked), f"chunk_size={chunk} changed the tensor"

    # Time-grid split identity: [0, k) ++ [k, T) == [0, T).  Integer-second
    # steps (see gen.random_grid) make the split sample times bit-identical.
    split = int(rng.integers(1, grid.count))
    head = TimeGrid(start_s=0.0, duration_s=split * grid.step_s, step_s=grid.step_s)
    tail = TimeGrid(
        start_s=split * grid.step_s,
        duration_s=(grid.count - split) * grid.step_s,
        step_s=grid.step_s,
    )
    stitched = np.concatenate(
        [
            VisibilityEngine(head).visibility(elements, sites),
            VisibilityEngine(tail).visibility(elements, sites),
        ],
        axis=2,
    )
    assert np.array_equal(whole, stitched), (
        f"splitting the grid at sample {split} changed the tensor"
    )


def invariant_raan_drift_sign(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(2, 16)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    batch = BatchPropagator(elements)
    for index, element in enumerate(elements):
        rates = j2_secular_rates(element)
        inclination = element.inclination_deg
        if inclination < 89.9:
            assert rates.raan_rate < 0.0, (
                f"prograde orbit (i={inclination:.2f}) must regress, "
                f"got {rates.raan_rate:+.3e} rad/s"
            )
        elif inclination > 90.1:
            assert rates.raan_rate > 0.0, (
                f"retrograde orbit (i={inclination:.2f}) must advance, "
                f"got {rates.raan_rate:+.3e} rad/s"
            )
        batch_rate = float(batch.raan_rate[index])
        assert math.isclose(batch_rate, rates.raan_rate, rel_tol=1e-12, abs_tol=1e-18), (
            f"batch RAAN rate {batch_rate:+.6e} != scalar {rates.raan_rate:+.6e}"
        )


def invariant_kepler_wrap(rng: np.random.Generator) -> None:
    two_pi = 2.0 * math.pi
    # Mean anomalies hugging the wrap boundary from both sides, plus
    # uniform draws over several revolutions (including negatives).
    boundary = np.array([-1e-9, 0.0, 1e-9, two_pi - 1e-9, two_pi, two_pi + 1e-9])
    uniform = rng.uniform(-2.0 * two_pi, 4.0 * two_pi, size=24)
    means = np.concatenate([boundary, uniform])
    eccs = rng.uniform(0.0, gen.MAX_DOMAIN_ECCENTRICITY, size=means.size)

    batch = solve_kepler_batch(means, eccs)
    for mean, ecc, batch_e in zip(means, eccs, batch):
        scalar_e = solve_kepler(float(mean), float(ecc))
        residual = abs(scalar_e - ecc * math.sin(scalar_e) - (float(mean) % two_pi))
        assert residual < 1e-10, (
            f"solve_kepler residual {residual:.3e} at M={mean:.6f}, e={ecc:.4f}"
        )
        assert math.isclose(scalar_e, float(batch_e), rel_tol=0.0, abs_tol=1e-9), (
            f"scalar {scalar_e!r} != batch {float(batch_e)!r} "
            f"at M={mean:.6f}, e={ecc:.4f}"
        )


def invariant_interval_algebra(rng: np.random.Generator) -> None:
    from repro.sim.intervals import IntervalSet

    start_s = float(rng.uniform(-1_000.0, 1_000.0))
    span = float(rng.uniform(10.0, 100_000.0))
    end_s = start_s + span

    def random_set() -> IntervalSet:
        """An adversarial interval soup: zero-length windows, touching
        endpoints, full-horizon contacts, and windows straddling (or
        entirely outside) the horizon — everything normalization must
        absorb."""
        starts: List[float] = []
        stops: List[float] = []
        for _ in range(int(rng.integers(0, 10))):
            kind = int(rng.integers(0, 4))
            if kind == 0:  # zero-length (must be dropped)
                at = float(rng.uniform(start_s, end_s))
                starts.append(at)
                stops.append(at)
            elif kind == 1:  # the full horizon
                starts.append(start_s)
                stops.append(end_s)
            elif kind == 2:  # straddles or misses the horizon (clipping)
                a = float(rng.uniform(start_s - span, end_s + span))
                starts.append(a)
                stops.append(a + float(rng.uniform(0.0, span)))
            else:  # interior window
                a = float(rng.uniform(start_s, end_s))
                starts.append(a)
                stops.append(a + float(rng.uniform(0.0, end_s - a)))
        if rng.random() < 0.5:  # a touching pair (must merge into one)
            mid = float(rng.uniform(start_s, end_s))
            width = float(rng.uniform(0.0, span / 4.0))
            starts.extend([mid - width, mid])
            stops.extend([mid, mid + width])
        return IntervalSet(starts, stops, start_s, end_s)

    a = random_set()
    b = random_set()
    empty = IntervalSet.empty(start_s, end_s)
    full = IntervalSet.full(start_s, end_s)

    # Normalization: clipped to the horizon, zero-length dropped, sorted,
    # pairwise disjoint with touching neighbours merged.
    for name, s in (("a", a), ("b", b)):
        assert np.all(s.starts < s.stops), f"{name}: zero-length kept"
        assert np.all(s.starts >= start_s) and np.all(s.stops <= end_s), (
            f"{name}: not clipped to horizon"
        )
        assert np.all(s.starts[1:] > s.stops[:-1]), (
            f"{name}: overlapping or touching neighbours survived"
        )
        assert math.isclose(
            s.total_s, float(s.durations_s().sum()), abs_tol=1e-9
        ), f"{name}: total_s != sum of durations"

    # Complement: involution, and the empty/full poles map to each other.
    assert a.complement().complement() == a, "complement not an involution"
    assert empty.complement() == full, "complement of empty != full"
    assert full.complement() == empty, "complement of full != empty"

    # Lattice identities with the poles, idempotence, commutativity.
    assert a.union(empty) == a and a.intersect(full) == a, "identity laws"
    assert a.union(full) == full and a.intersect(empty) == empty, (
        "absorption by the poles"
    )
    assert a.union(a) == a and a.intersect(a) == a, "idempotence"
    assert a.union(b) == b.union(a), "union not commutative"
    assert a.intersect(b) == b.intersect(a), "intersect not commutative"
    assert a.union(a.complement()) == full, "A | ~A != full"
    assert a.intersect(a.complement()) == empty, "A & ~A != empty"

    # Inclusion-exclusion on measures.
    lhs = a.union(b).total_s + a.intersect(b).total_s
    assert math.isclose(lhs, a.total_s + b.total_s, abs_tol=1e-6), (
        f"|A|+|B| = {a.total_s + b.total_s:.9f} != "
        f"|A|B|+|A&B| = {lhs:.9f}"
    )

    # Pointwise semantics: membership sampling must match a brute-force
    # point-in-interval loop, and distribute over union/intersection.
    times = rng.uniform(start_s - 1.0, end_s + 1.0, size=48)
    sampled = a.sample(times)
    for t, got in zip(times, sampled):
        manual = any(
            lo <= t < hi for lo, hi in zip(a.starts, a.stops)
        )
        assert bool(got) == manual, f"sample({t}) = {got}, brute force {manual}"
    assert np.array_equal(
        a.union(b).sample(times), a.sample(times) | b.sample(times)
    ), "union does not sample as OR"
    assert np.array_equal(
        a.intersect(b).sample(times), a.sample(times) & b.sample(times)
    ), "intersect does not sample as AND"


def _random_contacts(rng: np.random.Generator):
    """A random CSR window soup: per-pair counts from 0 (including the
    all-empty contacts that exercise the 1-byte-segment guard) with sorted
    rises and random truncation flags."""
    from repro.sim.intervals import ContactIntervals

    n_sites = int(rng.integers(1, 5))
    n_sats = int(rng.integers(1, 7))
    start_s = float(rng.uniform(-1_000.0, 1_000.0))
    span = float(rng.uniform(10.0, 100_000.0))
    end_s = start_s + span
    counts = rng.integers(0, 5, size=n_sites * n_sats)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    total = int(offsets[-1])
    rises = np.empty(total)
    sets = np.empty(total)
    for pair in range(n_sites * n_sats):
        lo, hi = offsets[pair], offsets[pair + 1]
        pair_rises = np.sort(rng.uniform(start_s, end_s, size=hi - lo))
        rises[lo:hi] = pair_rises
        sets[lo:hi] = pair_rises + rng.uniform(0.0, span / 10.0, size=hi - lo)
    return ContactIntervals(
        n_sites=n_sites,
        n_satellites=n_sats,
        start_s=start_s,
        end_s=end_s,
        rise_s=rises,
        set_s=np.minimum(sets, end_s),
        truncated_start=rng.random(total) < 0.2,
        truncated_end=rng.random(total) < 0.2,
        pair_offsets=offsets,
    )


def _random_bits(rng: np.random.Generator):
    """A random (sites, satellites, samples) visibility tensor and its grid."""
    step = float(rng.integers(1, 601))
    n_times = int(rng.integers(1, 41))
    grid = TimeGrid(duration_s=n_times * step, step_s=step)
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 8)), n_times)
    return rng.random(shape) < float(rng.uniform(0.0, 0.6)), grid


def invariant_intervals_shm_roundtrip(rng: np.random.Generator) -> None:
    import pickle

    from repro.experiments.common import ExperimentConfig, ExperimentContext
    from repro.runner.shared import attach_world, share_world
    from repro.sim.visibility import PackedVisibility

    bits, grid = _random_bits(rng)
    worlds = (
        ("intervals", _random_contacts(rng)),
        ("grid", PackedVisibility(np.packbits(bits, axis=2), grid.count, grid)),
    )
    config = ExperimentConfig()
    for engine, world in worlds:
        arrays, scalars = world.share_state()
        originals = {name: array.copy() for name, array in arrays.items()}
        context = ExperimentContext(engine=engine)
        context.install_world(config, world)
        try:
            handle = share_world(context, config)
            attached_segment, attached = attach_world(handle)
            try:
                assert type(attached) is type(world)
                shared_arrays, shared_scalars = attached.share_state()
                assert shared_scalars == scalars, (
                    f"{engine}: scalars changed across the segment round-trip"
                )
                assert set(shared_arrays) == set(originals)
                for name, original in originals.items():
                    for side, roundtrip in (
                        ("attached", shared_arrays[name]),
                        ("owner", getattr(world, name)),
                    ):
                        assert roundtrip.dtype == original.dtype, (
                            f"{engine} {side} {name}: dtype "
                            f"{roundtrip.dtype} != {original.dtype}"
                        )
                        assert np.array_equal(roundtrip, original), (
                            f"{engine} {side} {name}: values changed across "
                            f"the segment round-trip"
                        )
                        assert roundtrip.base is not None, (
                            f"{engine} {side} {name}: array is a copy, "
                            f"not a segment view"
                        )
                # A pickled copy must carry the values intact and never the
                # process-local segment handle.
                for side, source in (("attached", attached), ("owner", world)):
                    clone = pickle.loads(pickle.dumps(source))
                    assert clone.segment is None, (
                        f"{engine}: pickled {side} world kept a segment"
                    )
                    clone_arrays, _ = clone.share_state()
                    for name, original in originals.items():
                        assert np.array_equal(clone_arrays[name], original), (
                            f"{engine}: pickled {side} {name} changed"
                        )
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()
        assert world.segment is None, f"{engine}: clear() kept the segment"
        try:
            attach_world(handle)[0].close()
        except FileNotFoundError:
            pass
        else:
            raise AssertionError(f"{engine}: segment outlived context.clear()")


def _window_twin(bits: np.ndarray, grid: TimeGrid):
    """The ContactIntervals whose windows are exactly the visible runs of
    ``bits`` (sample k covers ``[k * step, (k + 1) * step)``)."""
    from repro.sim.intervals import ContactIntervals

    n_sites, n_sats, n_times = bits.shape
    padded = np.zeros((n_sites * n_sats, n_times + 2), dtype=np.int8)
    padded[:, 1:-1] = bits.reshape(n_sites * n_sats, n_times)
    edges = np.diff(padded, axis=1)
    pair_r, rise_k = np.nonzero(edges == 1)
    _, set_k = np.nonzero(edges == -1)
    offsets = np.zeros(n_sites * n_sats + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_r, minlength=n_sites * n_sats), out=offsets[1:])
    return ContactIntervals(
        n_sites=n_sites,
        n_satellites=n_sats,
        start_s=grid.start_s,
        end_s=grid.start_s + n_times * grid.step_s,
        rise_s=grid.start_s + grid.step_s * rise_k.astype(np.float64),
        set_s=grid.start_s + grid.step_s * set_k.astype(np.float64),
        truncated_start=rise_k == 0,
        truncated_end=set_k == n_times,
        pair_offsets=offsets,
    )


def _draw_selection(rng: np.random.Generator, members: np.ndarray, size: int):
    """A random satellite or site selection: None, empty, valid ``members``
    (unsorted, repeated), or a few members plus one bad index (negative,
    past ``size``, non-integer, or valid but outside ``members``)."""
    kind = int(rng.integers(0, 9))
    if kind == 0 or (members.size == 0 and kind < 4):
        return None
    if kind == 1:
        return [] if rng.random() < 0.5 else np.empty(0)
    if kind in (2, 3):
        return rng.choice(members, size=int(rng.integers(1, 2 * members.size + 1)))
    count = int(rng.integers(0, 3)) if members.size else 0
    selection = [int(i) for i in rng.choice(members, size=count)]
    absent = np.setdiff1d(np.arange(size), members)
    if kind == 4:
        bad = -int(rng.integers(1, size + 2))
    elif kind == 5:
        bad = size + int(rng.integers(0, 3))
    elif kind == 6:
        return np.asarray(selection + [0.5])
    elif kind == 7 and absent.size:
        bad = int(rng.choice(absent))
    else:
        return selection
    selection.insert(int(rng.integers(0, len(selection) + 1)), bad)
    return selection


def _outcome(call):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return "ok", call()
    except Exception as error:  # The exception type is the outcome.
        return "raise", type(error)


def _alike(label: str, outcomes, same) -> bool:
    """Assert both engines returned ``same`` values or raised the same
    exception type; True when they returned."""
    (grid_kind, grid_got), (int_kind, int_got) = (
        outcomes["grid"], outcomes["intervals"]
    )
    assert grid_kind == int_kind and (
        grid_got is int_got if grid_kind == "raise" else same(grid_got, int_got)
    ), f"{label} differs across engines: {outcomes}"
    return grid_kind == "ok"


def _equal_answers(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


def _same_fleet(a, b) -> bool:
    return np.array_equal(a.fleet, b.fleet)


def invariant_world_contract(rng: np.random.Generator) -> None:
    from repro.sim.visibility import PackedVisibility

    bits, grid = _random_bits(rng)
    n_sites, pool_size, _ = bits.shape
    sites = np.arange(n_sites)
    # Per engine, a restrict() chain of (world, its fleet) pairs.
    chains = {
        "grid": [PackedVisibility(np.packbits(bits, axis=2), grid.count, grid)],
        "intervals": [_window_twin(bits, grid)],
    }
    fleets = [np.arange(pool_size)]
    for _ in range(int(rng.integers(1, 3))):
        fleet = _draw_selection(rng, fleets[-1], pool_size)
        if fleet is None:
            fleet = fleets[-1]
        outcomes = {
            engine: _outcome(lambda w=chain[-1]: w.restrict(fleet))
            for engine, chain in chains.items()
        }
        if not _alike(f"restrict({fleet!r})", outcomes, _same_fleet):
            break
        for engine, chain in chains.items():
            chain.append(outcomes[engine][1])
        fleets.append(chains["grid"][-1].fleet)

    queries = (
        ("coverage_fractions",
         lambda w, sats, site_set, site: w.coverage_fractions(sats)),
        ("satellite_active_fractions",
         lambda w, sats, site_set, site: w.satellite_active_fractions(sats, site_set)),
        ("k_coverage_fraction",
         lambda w, sats, site_set, site: w.k_coverage_fraction(site, 1 + site % 2, sats)),
    )
    for level, fleet in enumerate(fleets):
        for _ in range(6):
            sats = _draw_selection(rng, fleet, pool_size)
            site_set = _draw_selection(rng, sites, n_sites)
            site = int(rng.integers(-1, n_sites + 1))
            # A restricted world's "every satellite" is its fleet.
            pool_sats = fleet if sats is None else sats
            for name, query in queries:
                label = f"{name}(sats={sats!r}, sites={site_set!r}, site={site})"
                outcomes = {
                    engine: _outcome(
                        lambda w=chain[level]: query(w, sats, site_set, site)
                    )
                    for engine, chain in chains.items()
                }
                if not _alike(label, outcomes, _equal_answers):
                    continue
                # Restricted answers are the pool-wide answers, bit for bit.
                for engine, chain in chains.items():
                    pool_kind, pool_got = _outcome(
                        lambda w=chain[0]: query(w, pool_sats, site_set, site)
                    )
                    assert pool_kind == "ok" and _equal_answers(
                        pool_got, outcomes[engine][1]
                    ), f"{engine} level {level} {label}: pool-wide {pool_got!r}"


#: Registered invariants in a stable order (the index is the spawn key).
#: Append only — the index feeds the replay spawn key, so reordering or
#: inserting mid-list silently reseeds every later invariant.
INVARIANTS: Dict[str, Invariant] = {
    "radius_bounds": invariant_radius_bounds,
    "unit_norms": invariant_unit_norms,
    "scalar_batch_state": invariant_scalar_batch_state,
    "visibility_split": invariant_visibility_split,
    "raan_drift_sign": invariant_raan_drift_sign,
    "kepler_wrap": invariant_kepler_wrap,
    "interval_algebra": invariant_interval_algebra,
    "intervals_shm_roundtrip": invariant_intervals_shm_roundtrip,
    "world_contract": invariant_world_contract,
}


def _invariant_index(name: str) -> int:
    return list(INVARIANTS).index(name)


def replay_trial(seed: int, invariant: str, trial: int) -> None:
    """Re-run one (seed, invariant, trial) combination exactly.

    Raises the original AssertionError if the trial still fails — the
    debugging entry point for a red fuzz report.
    """
    rng = gen.trial_rng(seed, FUZZ_STREAM, _invariant_index(invariant), trial)
    INVARIANTS[invariant](rng)


def run_invariant(seed: int, name: str, trials: int) -> CheckResult:
    """Run one invariant for ``trials`` independent seeded trials."""
    failures: List[Dict[str, object]] = []
    index = _invariant_index(name)
    for trial in range(trials):
        rng = gen.trial_rng(seed, FUZZ_STREAM, index, trial)
        try:
            INVARIANTS[name](rng)
        except AssertionError as error:
            failures.append({"trial": trial, "message": str(error)})
            _LOG.warning("fuzz.%s trial %d failed: %s", name, trial, error)
    details = {
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "replay": f"repro.validate.fuzz.replay_trial({seed}, {name!r}, <trial>)",
    }
    if failures:
        return failed(f"fuzz.{name}", **details)
    return passed(f"fuzz.{name}", **details)


def run_all_invariants(seed: int, trials: int) -> List[CheckResult]:
    """Run every registered invariant; one :class:`CheckResult` each."""
    return [run_invariant(seed, name, trials) for name in INVARIANTS]
