"""Zero-copy world sharing for parallel Monte-Carlo workers.

The context's contact world — the packed visibility tensor on the grid
engine, the CSR contact windows on the intervals engine — is the one big
experiment artifact (~100 MB for a week at 60 s steps).  Pickling it to
every worker process would dominate parallel startup and multiply resident
memory by the worker count; instead the parent copies the world's arrays
into one :mod:`multiprocessing.shared_memory` segment, and every worker
maps the same physical pages read-only-by-convention:

    parent:  handle = share_world(context, config)      # copy once, adopt
    worker:  segment, world = attach_world(handle)        # no copy

Both world classes name their arrays and the scalars that rebuild them
(``share_state()``), so one :class:`WorldHandle` type, one share function
and one attach function serve both engines.  The handle is a tiny picklable
descriptor (segment name, world class, array layout, scalars); the segment
itself never crosses the pipe.

The context owns the segment: :func:`share_world` rebinds the cached
world's arrays onto views of it, so the shared copy is the only resident
one, and ``context.clear()`` unlinks it.  Shared memory is the only
transport: when the platform refuses a segment, the ``OSError`` propagates
and the cached world stays heap-backed.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Tuple

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    World,
    _register_segment_owner,
)
from repro.obs import get_logger

_LOG = get_logger(__name__)

#: Byte alignment of every array in a segment.
_ALIGN = 8


@dataclass(frozen=True)
class WorldHandle:
    """Picklable descriptor of a world held in a shared segment.

    ``layout`` lists ``(name, dtype, shape, offset)`` per array and
    ``scalars`` the remaining constructor arguments of ``world_type``.
    """

    shm_name: str
    world_type: type
    layout: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    scalars: Tuple[Tuple[str, Any], ...]

    @property
    def nbytes(self) -> int:
        """Bytes the arrays occupy in the segment (alignment included)."""
        return _layout_end(self.layout)


def _layout_end(layout) -> int:
    """Where the last array of a back-to-back layout ends."""
    if not layout:
        return 0
    _, dtype, shape, offset = layout[-1]
    return offset + np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64))


def _layout(arrays: Dict[str, np.ndarray]):
    """Back-to-back placement of ``arrays``, each at an aligned offset."""
    layout = []
    cursor = 0
    for name, array in arrays.items():
        cursor = -(-cursor // _ALIGN) * _ALIGN
        layout.append((name, array.dtype.str, tuple(array.shape), cursor))
        cursor += array.nbytes
    return tuple(layout)


def _views(segment: shared_memory.SharedMemory, layout) -> Dict[str, np.ndarray]:
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        for name, dtype, shape, offset in layout
    }


def _handle(world: World) -> WorldHandle:
    arrays, scalars = world.share_state()
    return WorldHandle(
        shm_name=world.segment.name,
        world_type=type(world),
        layout=_layout(arrays),
        scalars=tuple(scalars.items()),
    )


def share_world(
    context: ExperimentContext, config: ExperimentConfig, pool_seed: int = 0
) -> WorldHandle:
    """The handle of the context's world in shared memory.

    The first call copies the world's arrays into a segment the context
    owns and rebinds the cached world onto views of it; later calls reuse
    that segment for free.  ``context.clear()`` unlinks it.
    """
    world = context.world(config, pool_seed)
    if world.segment is None:
        arrays, _ = world.share_state()
        layout = _layout(arrays)
        size = _layout_end(layout)
        segment = shared_memory.SharedMemory(create=True, size=max(1, size))
        for name, view in _views(segment, layout).items():
            view[...] = arrays[name]
            setattr(world, name, view)
        world.segment = segment
        _register_segment_owner(context)
        _LOG.info(
            "shared %s %s: %.1f MB",
            type(world).__name__, segment.name, size / 1e6,
        )
    return _handle(world)


def attach_world(handle: WorldHandle) -> Tuple[shared_memory.SharedMemory, World]:
    """Map a shared world into this process; returns ``(segment, world)``.

    The worker must keep the returned segment referenced for as long as
    the world is in use (its arrays are views into the segment's buffer)
    and must never ``unlink()`` it: the parent's context owns the segment.
    """
    segment = _attach_untracked(handle.shm_name)
    world = handle.world_type(
        **dict(handle.scalars), **_views(segment, handle.layout)
    )
    return segment, world


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
