"""Pluggable compiled backends for the three hot kernel inner loops.

The kernel layer has exactly three inner loops worth compiling — the
threshold+reduce slab comparison (:func:`repro.sim.kernels.iter_slabs`),
the interval event-sweep accumulation
(:meth:`repro.sim.intervals.EventStream.union_seconds`), and the subset
popcount reduction (:class:`repro.sim.visibility.PackedVisibility` and the
subset-query kernels).  Each is routed through a process-wide *backend*
object so an optional compiled implementation (numba) can replace the
numpy reference without any call-site knowing.

Bit-identity contract
---------------------
A backend is only admissible if it reproduces the numpy reference
**bit for bit** — the goldens pin figure tables at rtol 1e-6, and one
flipped visibility bit moves a coverage fraction by 1/T.  The three ops
were chosen because identity is provable, not just observed:

* ``threshold_slab`` is an elementwise ``>=`` on float64 — no summation,
  so there is no accumulation order to differ on;
* ``or_popcount`` is pure integer arithmetic (bitwise OR + table lookup +
  integer sum) — exact in any evaluation order;
* ``sweep_accumulate`` receives an *already sorted* event stream — the
  lexsort of :func:`~repro.sim.intervals.grouped_union_seconds`, or the
  same order gathered by rank from a presorted
  :class:`~repro.sim.intervals.EventStream` (the sort stays in numpy so
  tie order is fixed once) — and accumulates
  inter-event float64 spans **in array order per group**, exactly the
  order ``np.bincount`` adds its weights — a sequential compiled loop
  performs the same additions in the same order.

The ``oracle.backends`` check in ``repro validate`` enforces this for
every backend importable in the running environment; the numpy backend is
additionally checked against straight-line numpy expressions so the
routing layer itself cannot drift.

Selection
---------
``repro --kernel-backend {numpy,numba}`` or ``REPRO_KERNEL_BACKEND`` pick
the process default (numpy when unset).  The knob is an execution detail,
never an experiment parameter: it does not appear in
:class:`~repro.experiments.common.ExperimentConfig`, cache keys, or
goldens, because results are bit-identical by contract.  Parallel workers
inherit the parent's choice through the pool initializer.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

from repro.obs import get_logger

_LOG = get_logger(__name__)

#: Environment variable consulted for the initial process default.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Per-byte popcount lookup (shared with :mod:`repro.sim.visibility`).
POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint32
)


class NumpyBackend:
    """The reference backend: straight numpy, always available."""

    name = "numpy"

    @staticmethod
    def is_available() -> bool:
        return True

    @staticmethod
    def unavailable_reason() -> Optional[str]:
        return None

    def threshold_slab(self, dots: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Elementwise ``dots >= thresholds`` (thresholds broadcast)."""
        return dots >= thresholds

    def or_popcount(self, rows: np.ndarray, axis: int) -> np.ndarray:
        """OR-reduce packed uint8 rows over ``axis``, then popcount per row.

        ``rows`` is ``(A, K, B)`` uint8; the reduction axis (0 or 1) is
        collapsed and the surviving ``(rows, B)`` bytes are popcounted and
        summed to int64 bit counts.  Callers guarantee a non-empty
        reduction axis.
        """
        packed_or = np.bitwise_or.reduce(rows, axis=axis)
        return POPCOUNT_TABLE[packed_or].sum(axis=1).astype(np.int64)

    def sweep_accumulate(
        self,
        times: np.ndarray,
        deltas: np.ndarray,
        groups: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        """Accumulate covered seconds from a lexsorted +1/-1 event stream.

        Inputs are already sorted by (group, time, delta); each group's
        deltas sum to zero, so one global cumsum never carries a positive
        count across a group boundary.
        """
        count = np.cumsum(deltas)
        same = groups[1:] == groups[:-1]
        covered = np.where(
            same & (count[:-1] > 0), times[1:] - times[:-1], 0.0
        )
        return np.bincount(groups[:-1], weights=covered, minlength=n_groups)


class NumbaBackend:
    """Optional ``numba.njit`` backend for the same three loops.

    Lazily imports and compiles on first use; :meth:`is_available` never
    raises, so callers can probe without a hard dependency.  Worth
    installing when subset sweeps dominate (large Monte-Carlo attrition /
    withdrawal trajectories) — the compiled popcount fuses the OR, lookup
    and sum without materializing the ``(rows, B)`` intermediate, and the
    sweep loop skips the four temporaries of the numpy path.
    """

    name = "numba"

    def __init__(self) -> None:
        self._kernels = None
        self._lock = threading.Lock()

    @staticmethod
    def is_available() -> bool:
        try:
            import numba  # noqa: F401
        except Exception:
            return False
        return True

    @staticmethod
    def unavailable_reason() -> Optional[str]:
        try:
            import numba  # noqa: F401
        except Exception as error:
            return f"{type(error).__name__}: {error}"
        return None

    def _compiled(self):
        """Compile the jit kernels once (thread-safe, import-gated)."""
        if self._kernels is not None:
            return self._kernels
        with self._lock:
            if self._kernels is not None:
                return self._kernels
            import numba

            @numba.njit(cache=False)
            def threshold_slab(dots, thresholds, out):
                n_sites, n_sats, n_times = dots.shape
                for s in range(n_sites):
                    for n in range(n_sats):
                        limit = thresholds[s, n, 0]
                        for t in range(n_times):
                            out[s, n, t] = dots[s, n, t] >= limit
                return out

            @numba.njit(cache=False)
            def or_popcount_rows(rows, table, out):
                # rows: (A, K, B) uint8, reduce over K.
                n_rows, n_reduce, n_bytes = rows.shape
                for a in range(n_rows):
                    total = numba.int64(0)
                    for b in range(n_bytes):
                        merged = numba.uint8(0)
                        for k in range(n_reduce):
                            merged |= rows[a, k, b]
                        total += table[merged]
                    out[a] = total
                return out

            @numba.njit(cache=False)
            def sweep_accumulate(times, deltas, groups, out):
                # Same additions, same order as np.bincount's weighted
                # pass: sequential in array index, per-group bins.
                count = numba.int64(0)
                for i in range(times.size - 1):
                    count += deltas[i]
                    if groups[i + 1] == groups[i] and count > 0:
                        out[groups[i]] += times[i + 1] - times[i]
                return out

            self._kernels = (threshold_slab, or_popcount_rows, sweep_accumulate)
        return self._kernels

    def threshold_slab(self, dots: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        kernel, _, _ = self._compiled()
        dots = np.ascontiguousarray(dots)
        thresholds = np.ascontiguousarray(
            np.broadcast_to(thresholds, (dots.shape[0], dots.shape[1], 1))
        )
        out = np.empty(dots.shape, dtype=np.bool_)
        return kernel(dots, thresholds, out)

    def or_popcount(self, rows: np.ndarray, axis: int) -> np.ndarray:
        _, kernel, _ = self._compiled()
        if axis == 0:
            rows = rows.transpose(1, 0, 2)
        elif axis != 1:
            raise ValueError(f"axis must be 0 or 1, got {axis}")
        rows = np.ascontiguousarray(rows)
        out = np.empty(rows.shape[0], dtype=np.int64)
        table = POPCOUNT_TABLE.astype(np.int64)
        return kernel(rows, table, out)

    def sweep_accumulate(
        self,
        times: np.ndarray,
        deltas: np.ndarray,
        groups: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        _, _, kernel = self._compiled()
        out = np.zeros(n_groups, dtype=np.float64)
        if times.size == 0:
            return out
        return kernel(
            np.ascontiguousarray(times, dtype=np.float64),
            np.ascontiguousarray(deltas, dtype=np.int64),
            np.ascontiguousarray(groups, dtype=np.int64),
            out,
        )


_BACKENDS = {
    NumpyBackend.name: NumpyBackend(),
    NumbaBackend.name: NumbaBackend(),
}

_DEFAULT_NAME: Optional[str] = None  # Resolved lazily (env) on first use.
_DEFAULT_LOCK = threading.Lock()


def backend_names() -> tuple:
    """Registered backend names, available or not."""
    return tuple(_BACKENDS)


def available_backends() -> Dict[str, bool]:
    """Mapping of backend name -> importable in this environment."""
    return {name: backend.is_available() for name, backend in _BACKENDS.items()}


def get_backend(name: str):
    """Look up a backend by name, verifying availability.

    Raises:
        ValueError: Unknown name.
        RuntimeError: Known but not importable here (e.g. numba missing).
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r} (choose from {sorted(_BACKENDS)})"
        )
    if not backend.is_available():
        raise RuntimeError(
            f"kernel backend {name!r} is not available: "
            f"{backend.unavailable_reason()}"
        )
    return backend


def set_default_backend(name: str):
    """Set the process-wide default backend (validates availability)."""
    global _DEFAULT_NAME
    backend = get_backend(name)
    with _DEFAULT_LOCK:
        _DEFAULT_NAME = name
    _LOG.info("kernel backend set to %s", name)
    return backend


def default_backend_name() -> str:
    """The active default backend name (env-resolved on first call)."""
    global _DEFAULT_NAME
    if _DEFAULT_NAME is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_NAME is None:
                requested = os.environ.get(ENV_VAR, "").strip()
                if requested:
                    get_backend(requested)  # Raise early on bad values.
                    _DEFAULT_NAME = requested
                    _LOG.info(
                        "kernel backend %s selected via %s", requested, ENV_VAR
                    )
                else:
                    _DEFAULT_NAME = NumpyBackend.name
    return _DEFAULT_NAME


def default_backend():
    """The active default backend object."""
    return _BACKENDS[default_backend_name()]


@contextmanager
def use_backend(name: str):
    """Temporarily switch the process default (tests, oracle checks)."""
    global _DEFAULT_NAME
    previous = default_backend_name()
    set_default_backend(name)
    try:
        yield _BACKENDS[name]
    finally:
        with _DEFAULT_LOCK:
            _DEFAULT_NAME = previous
