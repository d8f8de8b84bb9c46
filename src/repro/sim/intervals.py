"""Event-driven contact intervals: analytic (rise, set) windows.

The grid engine answers every coverage question by sampling visibility on a
dense time grid — O(sites x sats x samples) regardless of how sparse the
contacts actually are.  This module refactors that to the event
representation the paper's MP-LEO market reasons about: per (site,
satellite) *contact windows* ``[rise_s, set_s)`` found analytically.

The finder works in two stages (the classic ``get_overpasses`` idiom):

1. **Coarse scan** — stream the exact same boolean visibility slabs the
   grid engine uses (:func:`repro.sim.kernels.plan_stream` /
   :func:`~repro.sim.kernels.iter_slabs`) and record every sign change of
   ``dot(unit_site, unit_sat) - cos_threshold`` between consecutive
   samples.  Because the scan *is* the grid kernel, a pass is detected iff
   the grid detects it, and resampling the refined intervals back onto the
   scan grid reproduces the grid masks bit-for-bit.
2. **Edge refinement** — each detected transition brackets a root of the
   continuous elevation function in ``(t_{k-1}, t_k]``.  A clamped,
   vectorized bisection on the exact topocentric geometry
   (:meth:`BatchPropagator.unit_positions_at` against the rotating site
   direction) narrows every bracket to ``tolerance_s`` at once.  The
   refined edge is taken from the *new-state* side of the bracket, so the
   resampling identity above survives refinement exactly.

On top of the windows sits an interval algebra (:class:`IntervalSet`:
union / intersect / complement, coverage fraction, gap list) and grouped
event-sweep reductions (:class:`ContactIntervals`: per-site coverage
fractions, per-satellite active fractions, k-coverage) that reproduce
every reduction the grid engine offers — with error bounded by one coarse
step per contact edge instead of one step per *sample*.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics
from repro.obs.trace import span
from repro.orbits.frames import gmst_rad
from repro.ground.sites import GroundSite
from repro.orbits.propagator import BatchPropagator
from repro.sim import kernels
from repro.sim.clock import TimeGrid

#: Default width to which each rise/set edge is narrowed (seconds).
DEFAULT_EDGE_TOLERANCE_S = 1e-2

#: Edges refined per bisection batch; bounds the temporary (K,) arrays.
REFINE_BATCH = 1 << 17

_CONTACTS_FOUND = metrics.counter("sim.intervals.contacts")
_EDGES_REFINED = metrics.counter("sim.intervals.refined_edges")
_SCAN_TRANSITIONS = metrics.counter("sim.intervals.scan_transitions")


def _as_float_array(values) -> np.ndarray:
    return np.atleast_1d(np.asarray(values, dtype=np.float64))


class IntervalSet:
    """A normalized set of half-open intervals over a fixed horizon.

    Intervals are ``[start, stop)`` within ``[start_s, end_s)``.  The
    constructor normalizes: clips to the horizon, drops zero-length
    intervals, sorts, and merges overlapping *and touching* intervals, so
    ``starts``/``stops`` are always strictly interleaved
    (``starts[i] < stops[i] < starts[i+1]``).
    """

    __slots__ = ("starts", "stops", "start_s", "end_s")

    def __init__(self, starts, stops, start_s: float, end_s: float) -> None:
        if end_s < start_s:
            raise ValueError("horizon end precedes start")
        self.start_s = float(start_s)
        self.end_s = float(end_s)
        starts = _as_float_array(starts)
        stops = _as_float_array(stops)
        if starts.shape != stops.shape:
            raise ValueError("starts and stops must have the same shape")
        starts = np.clip(starts, self.start_s, self.end_s)
        stops = np.clip(stops, self.start_s, self.end_s)
        keep = stops > starts
        starts = starts[keep]
        stops = stops[keep]
        if starts.size:
            order = np.argsort(starts, kind="stable")
            starts = starts[order]
            stops = stops[order]
            reach = np.maximum.accumulate(stops)
            # A new merged run begins where the next start lies strictly
            # beyond everything seen so far; equality (touching) merges.
            new_run = np.empty(starts.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = starts[1:] > reach[:-1]
            heads = np.flatnonzero(new_run)
            tails = np.append(heads[1:] - 1, starts.size - 1)
            starts = starts[heads]
            stops = reach[tails]
        self.starts = starts
        self.stops = stops

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, start_s: float, end_s: float) -> "IntervalSet":
        return cls(np.empty(0), np.empty(0), start_s, end_s)

    @classmethod
    def full(cls, start_s: float, end_s: float) -> "IntervalSet":
        return cls(np.array([start_s]), np.array([end_s]), start_s, end_s)

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[Tuple[float, float]], start_s: float, end_s: float
    ) -> "IntervalSet":
        if not len(pairs):
            return cls.empty(start_s, end_s)
        arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
        return cls(arr[:, 0], arr[:, 1], start_s, end_s)

    # -- basic properties -------------------------------------------------

    @property
    def count(self) -> int:
        return int(self.starts.size)

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def total_s(self) -> float:
        """Total covered seconds."""
        return float((self.stops - self.starts).sum())

    @property
    def coverage_fraction(self) -> float:
        if self.span_s == 0.0:
            return 0.0
        return self.total_s / self.span_s

    def durations_s(self) -> np.ndarray:
        return self.stops - self.starts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self.start_s == other.start_s
            and self.end_s == other.end_s
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.stops, other.stops)
        )

    def __hash__(self) -> int:  # pragma: no cover - sets are not hashed
        return id(self)

    def __repr__(self) -> str:
        return (
            f"IntervalSet({self.count} intervals, "
            f"{self.total_s:.1f}s of [{self.start_s}, {self.end_s}))"
        )

    def _require_same_horizon(self, other: "IntervalSet") -> None:
        if (self.start_s, self.end_s) != (other.start_s, other.end_s):
            raise ValueError("interval sets span different horizons")

    # -- algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        self._require_same_horizon(other)
        return IntervalSet(
            np.concatenate([self.starts, other.starts]),
            np.concatenate([self.stops, other.stops]),
            self.start_s,
            self.end_s,
        )

    def complement(self) -> "IntervalSet":
        """Uncovered time over the horizon (includes boundary gaps)."""
        return IntervalSet(
            np.concatenate([[self.start_s], self.stops]),
            np.concatenate([self.starts, [self.end_s]]),
            self.start_s,
            self.end_s,
        )

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # De Morgan: endpoints all come from the operands or the horizon
        # bounds, so the result is exact (no float arithmetic on times).
        self._require_same_horizon(other)
        return self.complement().union(other.complement()).complement()

    def gaps(self) -> "IntervalSet":
        """Alias of :meth:`complement`, matching grid gap semantics
        (runs of uncovered samples at the horizon edges count as gaps)."""
        return self.complement()

    def gap_lengths_s(self) -> np.ndarray:
        return self.complement().durations_s()

    # -- sampling ---------------------------------------------------------

    def sample(self, times_s) -> np.ndarray:
        """Boolean membership of each time: ``starts <= t < stops``."""
        times = np.asarray(times_s, dtype=np.float64)
        idx = np.searchsorted(self.starts, times, side="right") - 1
        out = np.zeros(times.shape, dtype=bool)
        valid = idx >= 0
        out[valid] = times[valid] < self.stops[idx[valid]]
        return out


def sweep_accumulate(
    times: np.ndarray,
    deltas: np.ndarray,
    groups: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Accumulate covered seconds from a lexsorted +1/-1 event stream.

    Inputs are already sorted by (group, time, delta); each group's deltas
    sum to zero, so one global cumsum never carries a positive count
    across a group boundary.  ``np.bincount`` adds the inter-event float64
    spans in array order per group, so equal sorted streams give
    bit-identical sums.
    """
    count = np.cumsum(deltas)
    same = groups[1:] == groups[:-1]
    covered = np.where(same & (count[:-1] > 0), times[1:] - times[:-1], 0.0)
    return np.bincount(groups[:-1], weights=covered, minlength=n_groups)


def grouped_union_seconds(
    starts: np.ndarray,
    stops: np.ndarray,
    groups: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Union measure per group via an exact +1/-1 event sweep, one shot.

    Intervals need not be sorted or disjoint within a group.  The sweep
    lexsorts this call's events by (group, time, delta), takes one global
    cumulative sum of the deltas — each group's deltas sum to zero, so the
    count never carries across group boundaries — and accumulates
    inter-event spans where the running count is positive.  All arithmetic
    is on the original float64 endpoints; no coordinate shifting, so no
    precision loss at scale.

    This is the reference formulation for ad-hoc interval lists.  The
    :class:`ContactIntervals` subset reductions reach the same sorted
    stream without sorting per call (see :class:`EventStream`) and are
    bit-identical to calling this on their gathered windows.
    """
    k = int(starts.size)
    if k == 0:
        return np.zeros(n_groups, dtype=np.float64)
    times = np.concatenate([starts, stops])
    deltas = np.concatenate(
        [np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)]
    )
    both = np.concatenate([groups, groups])
    order = np.lexsort((deltas, times, both))
    return sweep_accumulate(times[order], deltas[order], both[order], n_groups)


class EventStream:
    """Every window's rise and set event, sorted once by (group, time, delta).

    The presorted twin of :func:`grouped_union_seconds` for a fixed window
    list queried by many subsets.  ``times`` / ``deltas`` / ``groups`` hold
    the ``2 * K`` events in the same key order that function's lexsort
    uses; ``rise_rank[w]`` / ``set_rank[w]`` are the positions of window
    ``w``'s two events in that order.

    :meth:`union_seconds` answers a window subset by sorting the subset's
    ranks (one integer sort) and gathering the events in rank order.  That
    masked stream *is* the lexsorted stream of the subset: restricting a
    sorted sequence keeps it sorted, and events tied on all three keys are
    interchangeable.  The accumulation then adds the same spans in the same
    per-group order, so the result is bit-identical to
    :func:`grouped_union_seconds` over the same windows.

    Layout per event: float64 time, int8 delta (widened only for the
    sweep), the narrowest integer fitting the group ids, and an int32 rank.
    """

    __slots__ = ("times", "deltas", "groups", "rise_rank", "set_rank", "n_groups")

    def __init__(
        self,
        rise_s: np.ndarray,
        set_s: np.ndarray,
        window_groups: np.ndarray,
        n_groups: int,
    ) -> None:
        k = int(rise_s.size)
        self.n_groups = int(n_groups)
        times = np.concatenate([rise_s, set_s])
        deltas = np.concatenate(
            [np.ones(k, dtype=np.int8), -np.ones(k, dtype=np.int8)]
        )
        group_dtype = np.min_scalar_type(max(self.n_groups - 1, 0))
        groups = np.concatenate([window_groups, window_groups]).astype(group_dtype)
        order = np.lexsort((deltas, times, groups))
        ranks = np.empty(2 * k, dtype=np.int32)
        ranks[order] = np.arange(2 * k, dtype=np.int32)
        self.times = times[order]
        self.deltas = deltas[order]
        self.groups = groups[order]
        self.rise_rank = ranks[:k]
        self.set_rank = ranks[k:]

    def union_seconds(self, windows: np.ndarray) -> np.ndarray:
        """Union measure per group over the given window indices.

        Repeated windows are allowed: their events are tied on every key,
        so the extra copies add only zero-length spans.
        """
        if windows.size == 0:
            return np.zeros(self.n_groups, dtype=np.float64)
        ranks = np.concatenate([self.rise_rank[windows], self.set_rank[windows]])
        ranks.sort()
        return sweep_accumulate(
            self.times[ranks],
            self.deltas[ranks].astype(np.int64),
            self.groups[ranks],
            self.n_groups,
        )


def sweep_count_steps(
    starts: np.ndarray, stops: np.ndarray, start_s: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Step function of overlapping-interval counts.

    Returns ``(times, counts)`` where ``counts[i]`` holds on
    ``[times[i], times[i+1])`` (and from ``times[-1]`` onward), with
    ``times[0] == start_s``.
    """
    k = int(starts.size)
    if k == 0:
        return np.array([start_s]), np.zeros(1, dtype=np.int64)
    times = np.concatenate([starts, stops])
    deltas = np.concatenate(
        [np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)]
    )
    order = np.lexsort((deltas, times))
    times = times[order]
    counts = np.cumsum(deltas[order])
    keep = np.empty(times.size, dtype=bool)
    keep[:-1] = times[1:] != times[:-1]
    keep[-1] = True
    times = times[keep]
    counts = counts[keep]
    if times[0] > start_s:
        times = np.concatenate([[start_s], times])
        counts = np.concatenate([[0], counts])
    return times, counts


class ContactIntervals:
    """CSR-packed contact windows for every (site, satellite) pair.

    Pair ``(s, n)`` owns the slice
    ``pair_offsets[s * n_satellites + n] : pair_offsets[... + 1]`` of the
    flat ``rise_s`` / ``set_s`` arrays (sorted by rise within each pair).
    ``truncated_start`` / ``truncated_end`` flag windows clipped by the
    horizon rather than closed by a real elevation crossing.

    ``segment`` is set when the CSR arrays are views into a
    ``multiprocessing.shared_memory`` segment this object's owning context
    holds (see :func:`repro.runner.shared.ensure_shared_intervals`); it is
    process-local state and never pickles.

    ``streams`` caches one :class:`EventStream` per grouping the subset
    reductions use — ``"site"`` for :meth:`coverage_fractions`,
    ``"satellite"`` for :meth:`satellite_active_fractions` — each built on
    its first query.  Like ``segment`` it is process-local: it never
    pickles and never enters a shared segment, so every worker, restricted
    copy and unpickled copy sorts its own.
    """

    __slots__ = (
        "n_sites",
        "n_satellites",
        "start_s",
        "end_s",
        "rise_s",
        "set_s",
        "truncated_start",
        "truncated_end",
        "pair_offsets",
        "segment",
        "streams",
    )

    #: Slots holding process-local state, left out of pickles.
    _LOCAL_SLOTS = ("segment", "streams")

    def __init__(
        self,
        n_sites: int,
        n_satellites: int,
        start_s: float,
        end_s: float,
        rise_s: np.ndarray,
        set_s: np.ndarray,
        truncated_start: np.ndarray,
        truncated_end: np.ndarray,
        pair_offsets: np.ndarray,
    ) -> None:
        self.n_sites = int(n_sites)
        self.n_satellites = int(n_satellites)
        self.start_s = float(start_s)
        self.end_s = float(end_s)
        self.rise_s = rise_s
        self.set_s = set_s
        self.truncated_start = truncated_start
        self.truncated_end = truncated_end
        self.pair_offsets = pair_offsets
        self.segment = None
        self.streams = {}
        expected = self.n_sites * self.n_satellites + 1
        if pair_offsets.shape != (expected,):
            raise ValueError("pair_offsets length must be n_sites*n_sats + 1")

    def __getstate__(self):
        # Shared-memory segments are process-local handles; a pickled copy
        # carries the arrays by value.  Event streams are rebuilt on demand
        # by whoever unpickles.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._LOCAL_SLOTS
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.segment = None
        self.streams = {}

    @property
    def n_contacts(self) -> int:
        return int(self.rise_s.size)

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s

    def nbytes(self) -> int:
        """Resident payload size (the figure reported by benchmarks)."""
        return int(
            self.rise_s.nbytes
            + self.set_s.nbytes
            + self.truncated_start.nbytes
            + self.truncated_end.nbytes
            + self.pair_offsets.nbytes
        )

    # -- index helpers ----------------------------------------------------

    def _sat_array(self, sat_indices) -> np.ndarray:
        if sat_indices is None:
            return np.arange(self.n_satellites, dtype=np.intp)
        return np.asarray(sat_indices, dtype=np.intp).reshape(-1)

    def _site_array(self, site_indices) -> np.ndarray:
        if site_indices is None:
            return np.arange(self.n_sites, dtype=np.intp)
        return np.asarray(site_indices, dtype=np.intp).reshape(-1)

    def _pair_slice(self, site_index: int, sat_index: int) -> slice:
        p = int(site_index) * self.n_satellites + int(sat_index)
        return slice(int(self.pair_offsets[p]), int(self.pair_offsets[p + 1]))

    def _gather(self, pair_ids: np.ndarray) -> np.ndarray:
        """CSR multi-row gather: indices into the interval arrays of every
        window of the requested pairs, pair by pair in ``pair_ids`` order."""
        first = self.pair_offsets[pair_ids]
        counts = self.pair_offsets[pair_ids + 1] - first
        # Window j of the output lies in pair row r; it is window
        # j - out_start[r] of that pair, so its index is
        # (first[r] - out_start[r]) + j.
        out_start = np.cumsum(counts) - counts
        total = int(counts.sum())
        return np.repeat(first - out_start, counts) + np.arange(total, dtype=np.intp)

    def event_stream(self, grouping: str) -> EventStream:
        """The pool-wide :class:`EventStream` grouped by ``"site"`` or
        ``"satellite"``, sorted on first use and cached on this object."""
        stream = self.streams.get(grouping)
        if stream is not None:
            return stream
        pairs = np.repeat(
            np.arange(self.n_sites * self.n_satellites, dtype=np.intp),
            np.diff(self.pair_offsets),
        )
        if grouping == "site":
            window_groups, n_groups = pairs // self.n_satellites, self.n_sites
        elif grouping == "satellite":
            window_groups, n_groups = pairs % self.n_satellites, self.n_satellites
        else:
            raise ValueError(f"unknown event grouping {grouping!r}")
        stream = EventStream(self.rise_s, self.set_s, window_groups, n_groups)
        self.streams[grouping] = stream
        return stream

    # -- per-pair views ---------------------------------------------------

    def pair(self, site_index: int, sat_index: int) -> IntervalSet:
        sl = self._pair_slice(site_index, sat_index)
        return IntervalSet(
            self.rise_s[sl], self.set_s[sl], self.start_s, self.end_s
        )

    def pair_count(self, site_index: int, sat_index: int) -> int:
        sl = self._pair_slice(site_index, sat_index)
        return sl.stop - sl.start

    def pair_truncation(
        self, site_index: int, sat_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        sl = self._pair_slice(site_index, sat_index)
        return self.truncated_start[sl], self.truncated_end[sl]

    def pair_windows(
        self, site_index: int, sat_index: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw (rise, set, truncated_start, truncated_end) arrays, aligned.

        Unlike :meth:`pair`, which normalizes into an :class:`IntervalSet`,
        this preserves window order so truncation flags stay aligned with
        their windows.
        """
        sl = self._pair_slice(site_index, sat_index)
        return (
            self.rise_s[sl],
            self.set_s[sl],
            self.truncated_start[sl],
            self.truncated_end[sl],
        )

    # -- grid-parity reductions -------------------------------------------

    def contact_count(self, site_indices=None, sat_indices=None) -> int:
        sites = self._site_array(site_indices)
        sats = self._sat_array(sat_indices)
        if sites.size == 0 or sats.size == 0:
            return 0
        pair_ids = (sites[:, None] * self.n_satellites + sats[None, :]).ravel()
        counts = self.pair_offsets[pair_ids + 1] - self.pair_offsets[pair_ids]
        return int(counts.sum())

    def site_union(self, site_index: int, sat_indices=None) -> IntervalSet:
        """Coverage of one site by a satellite subset (grid ``site_mask``)."""
        sats = self._sat_array(sat_indices)
        if sats.size == 0:
            return IntervalSet.empty(self.start_s, self.end_s)
        pair_ids = int(site_index) * self.n_satellites + sats
        flat = self._gather(pair_ids)
        return IntervalSet(
            self.rise_s[flat], self.set_s[flat], self.start_s, self.end_s
        )

    def satellite_union(self, sat_index: int, site_indices=None) -> IntervalSet:
        """Time a satellite is busy serving any of the given sites."""
        sites = self._site_array(site_indices)
        if sites.size == 0:
            return IntervalSet.empty(self.start_s, self.end_s)
        pair_ids = sites * self.n_satellites + int(sat_index)
        flat = self._gather(pair_ids)
        return IntervalSet(
            self.rise_s[flat], self.set_s[flat], self.start_s, self.end_s
        )

    def coverage_fractions(self, sat_indices=None) -> np.ndarray:
        """Per-site covered fraction, one grouped sweep for all sites."""
        sats = self._sat_array(sat_indices)
        if sats.size == 0 or self.span_s == 0.0:
            return np.zeros(self.n_sites)
        sites = np.arange(self.n_sites, dtype=np.intp)
        pair_ids = (sites[:, None] * self.n_satellites + sats[None, :]).ravel()
        flat = self._gather(pair_ids)
        seconds = self.event_stream("site").union_seconds(flat)
        return seconds / self.span_s

    def satellite_active_fractions(
        self, sat_indices=None, site_indices=None
    ) -> np.ndarray:
        """Fraction of the horizon each satellite serves >= 1 site.

        One entry per position of ``sat_indices``; a satellite listed
        twice gets its fraction twice.
        """
        sats = self._sat_array(sat_indices)
        sites = self._site_array(site_indices)
        if sats.size == 0:
            return np.zeros(0)
        if sites.size == 0 or self.span_s == 0.0:
            return np.zeros(sats.size)
        # Group by pool satellite, then read each position's satellite: the
        # group holds the events the one-shot sweep gives that position
        # (a repeated satellite's copies add only zero-length spans).
        pair_ids = (sites[:, None] * self.n_satellites + sats[None, :]).ravel()
        flat = self._gather(pair_ids)
        seconds = self.event_stream("satellite").union_seconds(flat)
        return seconds[sats] / self.span_s

    def visible_count_steps(
        self, site_index: int, sat_indices=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Step function of simultaneously-visible satellite counts."""
        sats = self._sat_array(sat_indices)
        if sats.size == 0:
            return np.array([self.start_s]), np.zeros(1, dtype=np.int64)
        pair_ids = int(site_index) * self.n_satellites + sats
        flat = self._gather(pair_ids)
        return sweep_count_steps(
            self.rise_s[flat], self.set_s[flat], self.start_s
        )

    def k_coverage_fraction(
        self, site_index: int, k: int, sat_indices=None
    ) -> float:
        """Fraction of the horizon with >= k satellites visible."""
        if self.span_s == 0.0:
            return 0.0
        times, counts = self.visible_count_steps(site_index, sat_indices)
        spans = np.diff(np.concatenate([times, [self.end_s]]))
        return float(spans[counts >= k].sum() / self.span_s)

    def sample_counts(
        self, times_s: np.ndarray, site_index: int, sat_indices=None
    ) -> np.ndarray:
        """Visible-satellite counts at explicit times (grid parity)."""
        times = np.asarray(times_s, dtype=np.float64)
        step_times, counts = self.visible_count_steps(site_index, sat_indices)
        idx = np.searchsorted(step_times, times, side="right") - 1
        return counts[np.maximum(idx, 0)] * (idx >= 0)

    # -- fleet restriction -------------------------------------------------

    def restrict(self, sat_indices) -> "ContactIntervals":
        """A compact copy holding only the given satellite columns.

        The returned object's satellite axis is the *position* within
        ``sat_indices``.  Windows are gathered pair by pair in (site-major,
        given-order) layout with within-pair order preserved, so any
        reduction over the restricted CSR is bit-identical to the same
        reduction over the full CSR with the same satellite list: the
        grouped sweep sees the identical multiset of (group, time, delta)
        events, and events equal on all three sort keys are
        interchangeable.
        """
        sats = self._sat_array(sat_indices)
        sites = np.arange(self.n_sites, dtype=np.intp)
        pair_ids = (sites[:, None] * self.n_satellites + sats[None, :]).ravel()
        flat = self._gather(pair_ids)
        counts = self.pair_offsets[pair_ids + 1] - self.pair_offsets[pair_ids]
        offsets = np.zeros(pair_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return ContactIntervals(
            n_sites=self.n_sites,
            n_satellites=int(sats.size),
            start_s=self.start_s,
            end_s=self.end_s,
            rise_s=np.ascontiguousarray(self.rise_s[flat]),
            set_s=np.ascontiguousarray(self.set_s[flat]),
            truncated_start=np.ascontiguousarray(self.truncated_start[flat]),
            truncated_end=np.ascontiguousarray(self.truncated_end[flat]),
            pair_offsets=offsets,
        )


class IntervalSubsetQuery:
    """Interval-native subset queries over a fleet-restricted CSR.

    The event-sweep twin of
    :class:`repro.sim.kernels.subsets.SubsetQuery`: one
    :meth:`ContactIntervals.restrict` precompute shrinks the window
    structure to the fleet under study, and the restricted copy sorts its
    events once per grouping on first query (:class:`EventStream`).  Each
    subset is then a rank gather of just its windows' events plus one
    grouped sweep (:func:`sweep_accumulate`).  Query results are
    bit-identical to calling the full :class:`ContactIntervals` reductions
    with the same pool indices (see :meth:`ContactIntervals.restrict`).

    ``fleet`` is None for a pool-wide query (subset indices are raw pool
    indices, delegated without restriction).
    """

    def __init__(
        self, contacts: "ContactIntervals", fleet: Optional[np.ndarray] = None
    ) -> None:
        self.contacts = contacts
        self.fleet = fleet

    @classmethod
    def from_contacts(cls, contacts, fleet=None) -> "IntervalSubsetQuery":
        if fleet is None:
            return cls(contacts, None)
        fleet = np.sort(np.asarray(fleet, dtype=np.intp).reshape(-1))
        if fleet.size > 1 and np.any(fleet[1:] == fleet[:-1]):
            raise ValueError("fleet indices must be unique")
        return cls(contacts.restrict(fleet), fleet)

    @property
    def n_sites(self) -> int:
        return self.contacts.n_sites

    @property
    def n_satellites(self) -> int:
        """Satellites held by the precompute (the fleet size)."""
        return self.contacts.n_satellites

    def _local(self, subset):
        """Map pool-index subsets to restricted columns (identity pool-wide)."""
        if subset is None or self.fleet is None:
            return subset
        subset = np.asarray(subset, dtype=np.intp).reshape(-1)
        if subset.size == 0:
            return subset
        local = np.searchsorted(self.fleet, subset)
        local = np.minimum(local, self.fleet.size - 1)
        if self.fleet.size == 0 or not np.array_equal(self.fleet[local], subset):
            raise KeyError("subset contains satellites outside the fleet")
        return local

    def coverage_fractions(self, subset=None) -> np.ndarray:
        """Covered fraction per site (S,) for one satellite subset."""
        return self.contacts.coverage_fractions(self._local(subset))

    def satellite_active_fractions(
        self, subset=None, site_indices=None
    ) -> np.ndarray:
        """Active fraction per subset satellite (any selected site visible)."""
        return self.contacts.satellite_active_fractions(
            self._local(subset), site_indices
        )

    def k_coverage_fraction(self, site_index: int, k: int, subset=None) -> float:
        """Fraction of the horizon with >= k subset satellites visible."""
        return self.contacts.k_coverage_fraction(
            site_index, int(k), self._local(subset)
        )


def _edge_visibility(
    propagator: BatchPropagator,
    geometry: "kernels.SiteGeometry",
    site_idx: np.ndarray,
    sat_idx: np.ndarray,
    times: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Exact topocentric visibility test at per-edge (pair, time) points."""
    sat_units = propagator.unit_positions_at(sat_idx, times)
    theta = gmst_rad(times, geometry.grid.gmst_at_epoch_rad)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    ux = geometry.unit_ecef[site_idx, 0]
    uy = geometry.unit_ecef[site_idx, 1]
    uz = geometry.unit_ecef[site_idx, 2]
    dots = (
        sat_units[:, 0] * (cos_t * ux - sin_t * uy)
        + sat_units[:, 1] * (sin_t * ux + cos_t * uy)
        + sat_units[:, 2] * uz
    )
    return dots >= thresholds[site_idx, sat_idx]


def find_contact_intervals(
    constellation,
    sites: Sequence[GroundSite],
    grid: TimeGrid,
    *,
    tolerance_s: float = DEFAULT_EDGE_TOLERANCE_S,
    geometry: Optional["kernels.SiteGeometry"] = None,
    chunk_size: Optional[int] = None,
    cull: bool = True,
    refine: bool = True,
) -> ContactIntervals:
    """Find analytic contact windows for every (site, satellite) pair.

    ``grid`` is the *coarse scan* grid: a pass is detected iff at least one
    scan sample falls inside it — exactly the grid engine's detection
    semantics, so running the scan at the grid's own step makes the two
    engines agree on which passes exist.  Each detected edge is then
    refined to ``tolerance_s`` by bisection on the continuous geometry
    (skipped when ``refine`` is false: edges stay at scan-sample times).

    Refined edges keep the resampling identity: the rise lies in
    ``(t_{k-1}, t_k]`` for the first visible sample ``t_k`` (sets
    symmetric), so sampling the result on the scan grid reproduces the
    grid-engine masks bit-for-bit.
    """
    from repro.sim.visibility import _as_propagator

    propagator = _as_propagator(constellation)
    if geometry is None:
        geometry = kernels.SiteGeometry(sites, grid)
    plan = kernels.plan_stream(
        propagator, geometry, grid, chunk_size=chunk_size, cull=cull
    )
    n_sites = plan.n_sites
    n_sats = plan.n_satellites
    step = grid.step_s
    start_s = grid.start_s
    total = grid.count
    end_s = start_s + step * total

    # -- stage 1: coarse scan for state transitions -----------------------
    trans_pair: List[np.ndarray] = []
    trans_k: List[np.ndarray] = []
    trans_rising: List[np.ndarray] = []
    first_state: Optional[np.ndarray] = None
    prev_col: Optional[np.ndarray] = None
    with span("intervals.scan"):
        for offset, slab in kernels.iter_slabs(plan):
            if prev_col is None:
                first_state = slab[:, :, 0].copy()
            else:
                b_s, b_n = np.nonzero(prev_col != slab[:, :, 0])
                if b_s.size:
                    trans_pair.append(b_s * n_sats + b_n)
                    trans_k.append(np.full(b_s.size, offset, dtype=np.int64))
                    trans_rising.append(slab[b_s, b_n, 0])
            if slab.shape[2] > 1:
                d_s, d_n, d_l = np.nonzero(slab[:, :, 1:] != slab[:, :, :-1])
                if d_s.size:
                    trans_pair.append(d_s * n_sats + d_n)
                    trans_k.append(offset + d_l.astype(np.int64) + 1)
                    trans_rising.append(slab[d_s, d_n, d_l + 1])
            prev_col = slab[:, :, -1].copy()

    if first_state is None:  # zero-sample grid cannot occur (TimeGrid >= 1)
        first_state = np.zeros((n_sites, n_sats), dtype=bool)
        prev_col = first_state

    if trans_pair:
        t_pair = np.concatenate(trans_pair)
        t_k = np.concatenate(trans_k)
        t_rising = np.concatenate(trans_rising)
        # The per-slab fragments are no longer needed; at megaconstellation
        # scale they hold tens of MB that would otherwise stay alive
        # through refinement.
        trans_pair.clear()
        trans_k.clear()
        trans_rising.clear()
    else:
        t_pair = np.empty(0, dtype=np.int64)
        t_k = np.empty(0, dtype=np.int64)
        t_rising = np.empty(0, dtype=bool)
    _SCAN_TRANSITIONS.inc(int(t_pair.size))

    # Implicit edges at the horizon: visible at the first sample means the
    # window is already open (truncated start); visible at the last sample
    # means it never closed (truncated end, clipped at the horizon).
    open_pairs = np.flatnonzero(first_state.ravel()).astype(np.int64)
    still_open = np.flatnonzero(prev_col.ravel()).astype(np.int64)

    rise_pair = np.concatenate([open_pairs, t_pair[t_rising]])
    rise_k = np.concatenate(
        [np.zeros(open_pairs.size, dtype=np.int64), t_k[t_rising]]
    )
    rise_trunc = np.concatenate(
        [np.ones(open_pairs.size, dtype=bool),
         np.zeros(int(t_rising.sum()), dtype=bool)]
    )
    falling = ~t_rising
    set_pair = np.concatenate([t_pair[falling], still_open])
    set_k = np.concatenate(
        [t_k[falling], np.full(still_open.size, total, dtype=np.int64)]
    )
    set_trunc = np.concatenate(
        [np.zeros(int(falling.sum()), dtype=bool),
         np.ones(still_open.size, dtype=bool)]
    )
    del t_pair, t_k, t_rising, falling

    order = np.lexsort((rise_k, rise_pair))
    rise_pair, rise_k, rise_trunc = (
        rise_pair[order], rise_k[order], rise_trunc[order]
    )
    order = np.lexsort((set_k, set_pair))
    set_pair, set_k, set_trunc = set_pair[order], set_k[order], set_trunc[order]
    if not np.array_equal(rise_pair, set_pair):  # pragma: no cover - invariant
        raise AssertionError("rise/set pairing broke: unbalanced transitions")

    # -- stage 2: bisection refinement of real crossings -------------------
    rise_s = start_s + step * rise_k.astype(np.float64)
    set_s = start_s + step * set_k.astype(np.float64)
    if refine and rise_pair.size:
        thresholds = plan.thresholds
        iters = max(1, int(math.ceil(math.log2(max(step / tolerance_s, 2.0)))))
        # One flat batch of every non-truncated edge: rises refine toward
        # the visible (hi) side, sets toward the invisible (hi) side; in
        # both cases the lo-side state is the *old* state, so a single
        # vectorized loop handles them together.
        edge_pair = np.concatenate([rise_pair[~rise_trunc], set_pair[~set_trunc]])
        edge_hi = np.concatenate([rise_s[~rise_trunc], set_s[~set_trunc]])
        lo_state = np.concatenate(
            [np.zeros(int((~rise_trunc).sum()), dtype=bool),
             np.ones(int((~set_trunc).sum()), dtype=bool)]
        )
        refined = np.empty(edge_pair.size, dtype=np.float64)
        with span("intervals.refine"):
            for lo_idx in range(0, edge_pair.size, REFINE_BATCH):
                sl = slice(lo_idx, min(lo_idx + REFINE_BATCH, edge_pair.size))
                site_idx = (edge_pair[sl] // n_sats).astype(np.intp)
                sat_idx = (edge_pair[sl] % n_sats).astype(np.intp)
                hi = edge_hi[sl].copy()
                lo = hi - step
                state = lo_state[sl]
                for _ in range(iters):
                    mid = 0.5 * (lo + hi)
                    vis = _edge_visibility(
                        propagator, geometry, site_idx, sat_idx, mid, thresholds
                    )
                    take_lo = vis == state
                    lo = np.where(take_lo, mid, lo)
                    hi = np.where(take_lo, hi, mid)
                refined[sl] = hi
        _EDGES_REFINED.inc(int(edge_pair.size))
        n_rise = int((~rise_trunc).sum())
        rise_s[~rise_trunc] = refined[:n_rise]
        set_s[~set_trunc] = refined[n_rise:]

    counts = np.bincount(rise_pair, minlength=n_sites * n_sats)
    pair_offsets = np.zeros(n_sites * n_sats + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_offsets[1:])
    _CONTACTS_FOUND.inc(int(rise_pair.size))
    return ContactIntervals(
        n_sites=n_sites,
        n_satellites=n_sats,
        start_s=start_s,
        end_s=end_s,
        rise_s=rise_s,
        set_s=set_s,
        truncated_start=rise_trunc,
        truncated_end=set_trunc,
        pair_offsets=pair_offsets,
    )


__all__ = (
    "DEFAULT_EDGE_TOLERANCE_S",
    "ContactIntervals",
    "EventStream",
    "IntervalSet",
    "find_contact_intervals",
    "grouped_union_seconds",
    "sweep_count_steps",
)
