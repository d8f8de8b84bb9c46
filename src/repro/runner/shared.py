"""Zero-copy world-state sharing for parallel Monte-Carlo workers.

The packed visibility tensor of the full synthetic Starlink pool is the one
big experiment artifact (~100 MB for a week at 60 s steps).  Pickling it to
every worker process would dominate parallel startup and multiply resident
memory by the worker count; instead the parent copies the packed bytes into
a :mod:`multiprocessing.shared_memory` segment once, and every worker maps
the same physical pages read-only-by-convention:

    parent:  shm, handle = share_packed_visibility(visibility)
    worker:  shm, visibility = attach_packed_visibility(handle)   # no copy

The :class:`SharedVisibilityHandle` is a tiny picklable descriptor (name +
shape + grid); the segment itself never crosses the pipe.  The parent owns
the segment's lifetime: close+unlink in a ``finally`` via
:func:`unlink_shared_visibility` once the pool has joined.

The intervals engine shares the same way: the five CSR arrays of a
:class:`~repro.sim.intervals.ContactIntervals` (rise/set times, truncation
flags, pair offsets) are packed back to back into ONE segment at fixed
offsets (:func:`_intervals_layout`), and workers rebuild the object from
zero-copy views (:func:`attach_contact_intervals`).  Shared memory is the
only transport: when the platform refuses a segment, the ``OSError``
propagates out of :func:`ensure_shared_visibility` and
:func:`ensure_shared_intervals` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    _register_segment_owner,
    visibility_cache_key,
)
from repro.obs import get_logger
from repro.sim.clock import TimeGrid
from repro.sim.intervals import ContactIntervals
from repro.sim.visibility import PackedVisibility

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class SharedVisibilityHandle:
    """Picklable descriptor of a shared packed-visibility segment."""

    shm_name: str
    shape: Tuple[int, int, int]  # (sites, satellites, packed bytes)
    n_times: int
    grid: TimeGrid

    @property
    def nbytes(self) -> int:
        sites, sats, packed_bytes = self.shape
        return sites * sats * packed_bytes


def share_packed_visibility(
    visibility: PackedVisibility,
) -> Tuple[shared_memory.SharedMemory, SharedVisibilityHandle]:
    """Copy a tensor into shared memory; returns (segment, handle).

    The caller (the parent process) keeps the segment object alive while
    workers run and must close+unlink it afterwards
    (:func:`unlink_shared_visibility`).
    """
    packed = np.ascontiguousarray(visibility.packed)
    segment = shared_memory.SharedMemory(create=True, size=packed.nbytes)
    view = np.ndarray(packed.shape, dtype=np.uint8, buffer=segment.buf)
    view[:] = packed
    handle = SharedVisibilityHandle(
        shm_name=segment.name,
        shape=tuple(packed.shape),
        n_times=visibility.n_times,
        grid=visibility.grid,
    )
    _LOG.info(
        "shared visibility tensor %s: %.1f MB, shape %s",
        segment.name, packed.nbytes / 1e6, packed.shape,
    )
    return segment, handle


def attach_packed_visibility(
    handle: SharedVisibilityHandle,
) -> Tuple[shared_memory.SharedMemory, PackedVisibility]:
    """Map an existing segment into this process; returns (segment, tensor).

    The worker must keep the returned segment object referenced for as long
    as the tensor is in use (the numpy array is a view into its buffer) and
    should ``close()`` it at shutdown — never ``unlink()``: the parent owns
    the segment.
    """
    segment = _attach_untracked(handle.shm_name)
    packed = np.ndarray(handle.shape, dtype=np.uint8, buffer=segment.buf)
    visibility = PackedVisibility(packed, handle.n_times, handle.grid)
    return segment, visibility


def _handle_for(visibility: PackedVisibility) -> SharedVisibilityHandle:
    return SharedVisibilityHandle(
        shm_name=visibility.segment.name,
        shape=tuple(visibility.packed.shape),
        n_times=visibility.n_times,
        grid=visibility.grid,
    )


def ensure_shared_visibility(
    context: ExperimentContext,
    config: ExperimentConfig,
    pool_seed: int = 0,
) -> Tuple[SharedVisibilityHandle, Optional[shared_memory.SharedMemory]]:
    """A shared-memory handle for the context's packed tensor, build-free
    when possible.

    Returns ``(handle, owned_segment)``.  Three paths:

    * **Cache miss** — the tensor is packed *straight into* a fresh segment
      (chunk-streamed via the ``out_allocator`` hook), so it is born shared:
      no second copy, no doubled peak.  The segment is attached to the
      cached tensor (``visibility.segment``) and owned by the context —
      later parallel runs against the same config reuse it for free;
      ``owned_segment`` is None.
    * **Cache hit, shm-backed** — reuse the live segment; ``owned_segment``
      is None.
    * **Cache hit, heap-backed** (tensor built outside any parallel run) —
      fall back to copying into a throwaway segment; ``owned_segment`` is
      that segment and the caller must
      :func:`unlink_shared_visibility` it after the pool joins.
    """
    cached = context.cached_visibility().get(
        visibility_cache_key(config, pool_seed)
    )
    if cached is not None:
        if cached.segment is not None:
            return _handle_for(cached), None
        segment, handle = share_packed_visibility(cached)
        return handle, segment

    segments = []

    def allocate(shape: Tuple[int, int, int]) -> np.ndarray:
        size = max(1, int(np.prod(shape)))
        segment = shared_memory.SharedMemory(create=True, size=size)
        segments.append(segment)
        return np.ndarray(shape, dtype=np.uint8, buffer=segment.buf)

    visibility = context.visibility(config, pool_seed, out_allocator=allocate)
    if not segments:  # pragma: no cover - raced install; copy instead
        segment, handle = share_packed_visibility(visibility)
        return handle, segment
    visibility.segment = segments[0]
    _register_segment_owner(context)
    _LOG.info(
        "packed tensor born shared in %s: %.1f MB",
        segments[0].name, segments[0].size / 1e6,
    )
    return _handle_for(visibility), None


@dataclass(frozen=True)
class SharedIntervalsHandle:
    """Picklable descriptor of a shared contact-intervals segment."""

    shm_name: str
    n_sites: int
    n_satellites: int
    start_s: float
    end_s: float
    n_contacts: int

    @property
    def nbytes(self) -> int:
        _, total = _intervals_layout(
            self.n_sites, self.n_satellites, self.n_contacts
        )
        return total


def _intervals_layout(n_sites: int, n_satellites: int, n_contacts: int):
    """Byte layout of one CSR-interval segment: {array: (offset, dtype, count)}.

    The five arrays are packed back to back in a fixed order; every array
    starts at an 8-byte-aligned offset because the float64/int64 arrays
    come first and the bool arrays last.
    """
    layout = {}
    cursor = 0
    for name, dtype, count in (
        ("rise_s", np.float64, n_contacts),
        ("set_s", np.float64, n_contacts),
        ("pair_offsets", np.int64, n_sites * n_satellites + 1),
        ("truncated_start", np.bool_, n_contacts),
        ("truncated_end", np.bool_, n_contacts),
    ):
        layout[name] = (cursor, np.dtype(dtype), int(count))
        cursor += np.dtype(dtype).itemsize * int(count)
    return layout, cursor


def _intervals_views(
    segment: shared_memory.SharedMemory, handle: SharedIntervalsHandle
) -> dict:
    layout, _ = _intervals_layout(
        handle.n_sites, handle.n_satellites, handle.n_contacts
    )
    return {
        name: np.ndarray(
            (count,), dtype=dtype, buffer=segment.buf, offset=offset
        )
        for name, (offset, dtype, count) in layout.items()
    }


def _intervals_handle_for(
    contacts: ContactIntervals, shm_name: str
) -> SharedIntervalsHandle:
    return SharedIntervalsHandle(
        shm_name=shm_name,
        n_sites=contacts.n_sites,
        n_satellites=contacts.n_satellites,
        start_s=contacts.start_s,
        end_s=contacts.end_s,
        n_contacts=contacts.n_contacts,
    )


def share_contact_intervals(
    contacts: ContactIntervals,
) -> Tuple[shared_memory.SharedMemory, SharedIntervalsHandle]:
    """Copy CSR interval arrays into one shared segment; (segment, handle).

    Same ownership contract as :func:`share_packed_visibility`: the caller
    keeps the segment alive while workers run and releases it afterwards
    (:func:`unlink_shared_visibility` works on any segment).
    """
    _, total = _intervals_layout(
        contacts.n_sites, contacts.n_satellites, contacts.n_contacts
    )
    segment = shared_memory.SharedMemory(create=True, size=max(1, total))
    handle = _intervals_handle_for(contacts, segment.name)
    for name, view in _intervals_views(segment, handle).items():
        view[:] = getattr(contacts, name)
    _LOG.info(
        "shared contact intervals %s: %.1f MB, %d windows",
        segment.name, total / 1e6, contacts.n_contacts,
    )
    return segment, handle


def attach_contact_intervals(
    handle: SharedIntervalsHandle,
) -> Tuple[shared_memory.SharedMemory, ContactIntervals]:
    """Map a shared interval segment; returns (segment, contacts) — no copy.

    As with :func:`attach_packed_visibility`, the worker must keep the
    segment referenced while the contacts are in use and must never
    ``unlink()`` it: the parent owns the segment.
    """
    segment = _attach_untracked(handle.shm_name)
    views = _intervals_views(segment, handle)
    contacts = ContactIntervals(
        n_sites=handle.n_sites,
        n_satellites=handle.n_satellites,
        start_s=handle.start_s,
        end_s=handle.end_s,
        rise_s=views["rise_s"],
        set_s=views["set_s"],
        truncated_start=views["truncated_start"],
        truncated_end=views["truncated_end"],
        pair_offsets=views["pair_offsets"],
    )
    return segment, contacts


def ensure_shared_intervals(
    context: ExperimentContext,
    config: ExperimentConfig,
    pool_seed: int = 0,
) -> Tuple[SharedIntervalsHandle, None]:
    """A shared-memory handle for the context's contact intervals.

    Returns ``(handle, owned_segment)`` with the same caller contract as
    :func:`ensure_shared_visibility` (``owned_segment`` is always None
    here: interval segments are small, so the context adopts them and
    later runs against the same config reuse the mapping for free).  The
    cached object's CSR arrays are rebound onto the segment views, so the
    shared copy is the only resident one.  If the platform refuses shared
    memory, the ``OSError`` propagates and the cached object is left
    heap-backed (``segment`` None).
    """
    contacts = context.contact_intervals(config, pool_seed)
    if contacts.segment is not None:
        return _intervals_handle_for(contacts, contacts.segment.name), None
    segment, handle = share_contact_intervals(contacts)
    for name, view in _intervals_views(segment, handle).items():
        setattr(contacts, name, view)
    contacts.segment = segment
    _register_segment_owner(context)
    return handle, None


def unlink_shared_visibility(segment: shared_memory.SharedMemory) -> None:
    """Release a parent-owned segment (idempotent best effort)."""
    try:
        segment.close()
    except OSError:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On POSIX, a process that merely *attaches* (create=False) still
    registers the segment with the resource tracker, which then unlinks it
    when any attacher exits — yanking the memory out from under the parent
    and every sibling worker, with "leaked shared_memory" noise for flavour
    (CPython issue bpo-38119).  Only the creating parent should own
    cleanup.  Python 3.13 grew ``track=False`` for exactly this; on older
    versions, suppress shared-memory registration for the duration of the
    attach (workers attach serially from the pool initializer, and the
    suppression window contains no other allocation).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter.
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
