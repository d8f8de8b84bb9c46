"""Tests for shared-memory transports (parent-side round trips): the
packed visibility tensor and the CSR contact-interval arrays."""

import pickle

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.runner import shared
from repro.runner.shared import (
    SharedIntervalsHandle,
    SharedVisibilityHandle,
    attach_contact_intervals,
    attach_packed_visibility,
    ensure_shared_intervals,
    share_contact_intervals,
    share_packed_visibility,
    unlink_shared_visibility,
)
from repro.sim.clock import TimeGrid
from repro.sim.intervals import ContactIntervals
from repro.sim.visibility import PackedVisibility


def _tiny_visibility(seed: int = 0) -> PackedVisibility:
    """A small random tensor: 3 sites x 5 satellites x 20 samples."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(duration_s=20 * 60.0, step_s=60.0)
    n_times = grid.count
    bits = rng.random((3, 5, n_times)) < 0.3
    packed = np.packbits(bits, axis=2)
    return PackedVisibility(packed, n_times, grid)


def _tiny_contacts(seed: int = 0, n_sites: int = 2, n_sats: int = 3) -> ContactIntervals:
    """Small random CSR contact windows over a [0, 3600] horizon."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=n_sites * n_sats)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    total = int(offsets[-1])
    rises = np.sort(rng.uniform(0.0, 3000.0, size=total))
    return ContactIntervals(
        n_sites=n_sites,
        n_satellites=n_sats,
        start_s=0.0,
        end_s=3600.0,
        rise_s=rises,
        set_s=rises + rng.uniform(1.0, 600.0, size=total),
        truncated_start=rng.random(total) < 0.25,
        truncated_end=rng.random(total) < 0.25,
        pair_offsets=offsets,
    )


class TestShareAttachRoundTrip:
    def test_attached_tensor_is_equal(self):
        visibility = _tiny_visibility()
        segment, handle = share_packed_visibility(visibility)
        try:
            attached_segment, attached = attach_packed_visibility(handle)
            try:
                assert np.array_equal(attached.packed, visibility.packed)
                assert attached.n_times == visibility.n_times
                assert attached.grid == visibility.grid
                # Same coverage reductions through the shared pages.
                assert np.array_equal(
                    attached.site_mask(0), visibility.site_mask(0)
                )
            finally:
                attached_segment.close()
        finally:
            unlink_shared_visibility(segment)

    def test_attach_is_a_view_not_a_copy(self):
        visibility = _tiny_visibility()
        segment, handle = share_packed_visibility(visibility)
        try:
            attached_segment, attached = attach_packed_visibility(handle)
            try:
                # Writing through the segment is visible in the view: the
                # attached array aliases the shared buffer.
                original = attached.packed[0, 0, 0]
                segment.buf[0] = int(original) ^ 0xFF
                assert attached.packed[0, 0, 0] == int(original) ^ 0xFF
            finally:
                attached_segment.close()
        finally:
            unlink_shared_visibility(segment)

    def test_handle_is_picklable_and_small(self):
        visibility = _tiny_visibility()
        segment, handle = share_packed_visibility(visibility)
        try:
            payload = pickle.dumps(handle)
            # The whole point: the handle crosses the pipe, the tensor
            # does not.
            assert len(payload) < 10 * handle.nbytes + 4096
            restored = pickle.loads(payload)
            assert restored == handle
            assert restored.shape == tuple(visibility.packed.shape)
        finally:
            unlink_shared_visibility(segment)

    def test_handle_nbytes(self):
        handle = SharedVisibilityHandle(
            shm_name="x", shape=(3, 5, 4), n_times=20,
            grid=TimeGrid(duration_s=1200.0, step_s=60.0),
        )
        assert handle.nbytes == 3 * 5 * 4


class TestUnlink:
    def test_unlink_is_idempotent(self):
        segment, _ = share_packed_visibility(_tiny_visibility())
        unlink_shared_visibility(segment)
        unlink_shared_visibility(segment)  # Second call must not raise.

    def test_attach_after_unlink_fails(self):
        visibility = _tiny_visibility()
        segment, handle = share_packed_visibility(visibility)
        unlink_shared_visibility(segment)
        with pytest.raises(FileNotFoundError):
            attach_packed_visibility(handle)


class TestIntervalsRoundTrip:
    def test_attached_contacts_are_equal(self):
        contacts = _tiny_contacts()
        segment, handle = share_contact_intervals(contacts)
        try:
            attached_segment, attached = attach_contact_intervals(handle)
            try:
                assert attached.n_sites == contacts.n_sites
                assert attached.n_satellites == contacts.n_satellites
                assert attached.start_s == contacts.start_s
                assert attached.end_s == contacts.end_s
                for name in (
                    "rise_s", "set_s", "pair_offsets",
                    "truncated_start", "truncated_end",
                ):
                    got = getattr(attached, name)
                    want = getattr(contacts, name)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                # Same reductions through the shared pages.
                for s in range(contacts.n_sites):
                    assert attached.site_union(s) == contacts.site_union(s)
            finally:
                del attached
                attached_segment.close()
        finally:
            unlink_shared_visibility(segment)

    def test_attach_is_a_view_not_a_copy(self):
        contacts = _tiny_contacts(seed=1)
        assert contacts.n_contacts > 0
        segment, handle = share_contact_intervals(contacts)
        try:
            attached_segment, attached = attach_contact_intervals(handle)
            try:
                # rise_s sits at offset 0: writing through the segment is
                # visible in the attached array (it aliases the buffer).
                patched = np.float64(1234.5)
                segment.buf[:8] = patched.tobytes()
                assert attached.rise_s[0] == patched
            finally:
                del attached
                attached_segment.close()
        finally:
            unlink_shared_visibility(segment)

    def test_empty_contacts_round_trip(self):
        """Zero windows still exports (the 1-byte segment-size guard)."""
        empty = ContactIntervals(
            n_sites=1,
            n_satellites=2,
            start_s=0.0,
            end_s=100.0,
            rise_s=np.zeros(0),
            set_s=np.zeros(0),
            truncated_start=np.zeros(0, dtype=bool),
            truncated_end=np.zeros(0, dtype=bool),
            pair_offsets=np.zeros(3, dtype=np.int64),
        )
        segment, handle = share_contact_intervals(empty)
        try:
            attached_segment, attached = attach_contact_intervals(handle)
            try:
                assert attached.n_contacts == 0
                assert np.array_equal(attached.pair_offsets, empty.pair_offsets)
            finally:
                del attached
                attached_segment.close()
        finally:
            unlink_shared_visibility(segment)

    def test_handle_is_picklable_and_small(self):
        contacts = _tiny_contacts()
        segment, handle = share_contact_intervals(contacts)
        try:
            payload = pickle.dumps(handle)
            assert len(payload) < 4096  # The arrays stay in the segment.
            restored = pickle.loads(payload)
            assert restored == handle
            assert restored.nbytes == handle.nbytes
        finally:
            unlink_shared_visibility(segment)

    def test_contacts_pickle_drops_segment(self):
        contacts = _tiny_contacts()
        segment, handle = share_contact_intervals(contacts)
        try:
            _, attached = attach_contact_intervals(handle)
            clone = pickle.loads(pickle.dumps(attached))
            assert clone.segment is None
            assert np.array_equal(clone.rise_s, contacts.rise_s)
        finally:
            unlink_shared_visibility(segment)


class TestEnsureSharedIntervals:
    CONFIG = ExperimentConfig(runs=1, step_s=900.0, duration_s=3600.0)

    def test_context_adopts_segment_and_reuses_it(self):
        context = ExperimentContext(engine="intervals")
        contacts = _tiny_contacts(seed=2)
        context.install_intervals(self.CONFIG, contacts)
        try:
            handle, owned = ensure_shared_intervals(context, self.CONFIG)
            assert owned is None  # The context always adopts the segment.
            assert isinstance(handle, SharedIntervalsHandle)
            assert contacts.segment is not None
            # The cached arrays were rebound onto segment views: the shared
            # copy is the only resident one.
            assert contacts.rise_s.base is not None
            # A second call reuses the adopted segment, no new export.
            again, _ = ensure_shared_intervals(context, self.CONFIG)
            assert again.shm_name == handle.shm_name
        finally:
            context.clear()
        assert contacts.segment is None  # clear() released it.

    def test_refused_shm_raises_and_leaves_context_consistent(self, monkeypatch):
        context = ExperimentContext(engine="intervals")
        contacts = _tiny_contacts(seed=3)
        rise_s = contacts.rise_s
        context.install_intervals(self.CONFIG, contacts)

        def refuse(*args, **kwargs):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(shared.shared_memory, "SharedMemory", refuse)
        try:
            with pytest.raises(OSError, match="no shared memory"):
                ensure_shared_intervals(context, self.CONFIG)
            # Nothing was rebound: the cached object stays heap-backed.
            assert contacts.segment is None
            assert contacts.rise_s is rise_s
            assert context.contact_intervals(self.CONFIG) is contacts
        finally:
            context.clear()
        assert contacts.segment is None
