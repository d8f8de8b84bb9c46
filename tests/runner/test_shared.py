"""Tests for the one shared-memory world transport (parent-side round
trips): the packed visibility tensor and the CSR contact-interval arrays
both go through :func:`share_world` / :func:`attach_world`."""

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.runner import shared
from repro.runner.shared import WorldHandle, attach_world, share_world
from repro.sim.clock import TimeGrid
from repro.sim.intervals import ContactIntervals
from repro.sim.visibility import PackedVisibility

CONFIG = ExperimentConfig(runs=1, step_s=900.0, duration_s=3600.0)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


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


def _shared(world, engine: str):
    """Install ``world`` in a throwaway context and share it: (context, handle)."""
    context = ExperimentContext(engine=engine)
    context.install_world(CONFIG, world)
    return context, share_world(context, CONFIG)


class TestShareAttachRoundTrip:
    def test_attached_tensor_is_equal(self):
        visibility = _tiny_visibility()
        want = visibility.packed.copy()
        want_mask = visibility.site_mask(0)
        context, handle = _shared(visibility, "grid")
        try:
            attached_segment, attached = attach_world(handle)
            try:
                assert np.array_equal(attached.packed, want)
                assert np.array_equal(visibility.packed, want)
                assert attached.n_times == visibility.n_times
                assert attached.grid == visibility.grid
                # Same coverage reductions through the shared pages.
                assert np.array_equal(attached.site_mask(0), want_mask)
                assert np.array_equal(
                    attached.site_mask(0), visibility.site_mask(0)
                )
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()

    def test_attach_is_a_view_not_a_copy(self):
        visibility = _tiny_visibility()
        context, handle = _shared(visibility, "grid")
        try:
            attached_segment, attached = attach_world(handle)
            try:
                # Writing through the segment is visible in the view: the
                # attached array aliases the shared buffer.
                original = attached.packed[0, 0, 0]
                visibility.segment.buf[0] = int(original) ^ 0xFF
                assert attached.packed[0, 0, 0] == int(original) ^ 0xFF
                # The parent's cached world was rebound onto the segment too.
                assert visibility.packed[0, 0, 0] == int(original) ^ 0xFF
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()

    def test_handle_is_picklable_and_small(self):
        visibility = _tiny_visibility()
        shape = visibility.packed.shape
        context, handle = _shared(visibility, "grid")
        try:
            payload = pickle.dumps(handle)
            # The whole point: the handle crosses the pipe, the tensor
            # does not.
            assert len(payload) < 10 * handle.nbytes + 4096
            restored = pickle.loads(payload)
            assert restored == handle
            assert restored.world_type is PackedVisibility
            assert dict((name, shape) for name, _, shape, _ in restored.layout) == {
                "packed": tuple(shape)
            }
        finally:
            context.clear()

    def test_handle_nbytes(self):
        handle = WorldHandle(
            shm_name="x",
            world_type=PackedVisibility,
            layout=(("packed", "|u1", (3, 5, 4), 0),),
            scalars=(("n_times", 20),),
        )
        assert handle.nbytes == 3 * 5 * 4
        # Every array starts 8-byte aligned, the bool flag arrays too.
        contacts = _tiny_contacts(seed=1)
        context, handle = _shared(contacts, "intervals")
        try:
            offsets = [offset for _, _, _, offset in handle.layout]
            assert all(offset % 8 == 0 for offset in offsets)
            assert handle.nbytes == contacts.segment.size
        finally:
            context.clear()


class TestUnlink:
    def test_unlink_is_idempotent(self):
        context, _ = _shared(_tiny_visibility(), "grid")
        context.dispose_segments()
        context.dispose_segments()  # Second call must not raise.
        context.clear()

    def test_attach_after_unlink_fails(self):
        context, handle = _shared(_tiny_visibility(), "grid")
        context.clear()
        with pytest.raises(FileNotFoundError):
            attach_world(handle)


class TestIntervalsRoundTrip:
    def test_attached_contacts_are_equal(self):
        contacts = _tiny_contacts()
        want = {
            name: getattr(contacts, name).copy()
            for name in (
                "rise_s", "set_s", "pair_offsets",
                "truncated_start", "truncated_end",
            )
        }
        unions = [contacts.site_union(s) for s in range(contacts.n_sites)]
        context, handle = _shared(contacts, "intervals")
        try:
            attached_segment, attached = attach_world(handle)
            try:
                assert attached.n_sites == contacts.n_sites
                assert attached.n_satellites == contacts.n_satellites
                assert attached.start_s == contacts.start_s
                assert attached.end_s == contacts.end_s
                for name, array in want.items():
                    got = getattr(attached, name)
                    assert got.dtype == array.dtype
                    assert np.array_equal(got, array)
                # Same reductions through the shared pages.
                for s in range(contacts.n_sites):
                    assert attached.site_union(s) == unions[s]
                    assert attached.site_union(s) == contacts.site_union(s)
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()

    def test_attach_is_a_view_not_a_copy(self):
        contacts = _tiny_contacts(seed=1)
        assert contacts.n_contacts > 0
        context, handle = _shared(contacts, "intervals")
        try:
            attached_segment, attached = attach_world(handle)
            try:
                # rise_s sits at offset 0: writing through the segment is
                # visible in the attached array (it aliases the buffer).
                patched = np.float64(1234.5)
                contacts.segment.buf[:8] = patched.tobytes()
                assert attached.rise_s[0] == patched
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()

    def test_empty_contacts_round_trip(self):
        """Zero windows still share (the 1-byte segment-size guard)."""
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
        context, handle = _shared(empty, "intervals")
        try:
            attached_segment, attached = attach_world(handle)
            try:
                assert attached.n_contacts == 0
                assert np.array_equal(attached.pair_offsets, np.zeros(3))
            finally:
                del attached
                attached_segment.close()
        finally:
            context.clear()

    def test_handle_is_picklable_and_small(self):
        contacts = _tiny_contacts()
        context, handle = _shared(contacts, "intervals")
        try:
            payload = pickle.dumps(handle)
            assert len(payload) < 4096  # The arrays stay in the segment.
            restored = pickle.loads(payload)
            assert restored == handle
            assert restored.nbytes == handle.nbytes
        finally:
            context.clear()

    def test_contacts_pickle_drops_segment(self):
        contacts = _tiny_contacts()
        rise_s = contacts.rise_s.copy()
        context, handle = _shared(contacts, "intervals")
        try:
            _, attached = attach_world(handle)
            clone = pickle.loads(pickle.dumps(attached))
            assert clone.segment is None
            assert np.array_equal(clone.rise_s, rise_s)
            owner_clone = pickle.loads(pickle.dumps(contacts))
            assert owner_clone.segment is None
            assert np.array_equal(owner_clone.rise_s, rise_s)
        finally:
            del attached
            context.clear()


class TestEnsureSharedIntervals:
    CONFIG = CONFIG

    def test_context_adopts_segment_and_reuses_it(self):
        context = ExperimentContext(engine="intervals")
        contacts = _tiny_contacts(seed=2)
        context.install_world(self.CONFIG, contacts)
        try:
            handle = share_world(context, self.CONFIG)
            assert isinstance(handle, WorldHandle)
            # The context always adopts the segment.
            assert contacts.segment is not None
            assert handle.shm_name == contacts.segment.name
            # The cached arrays were rebound onto segment views: the shared
            # copy is the only resident one.
            assert contacts.rise_s.base is not None
            # A second call reuses the adopted segment, no new export.
            again = share_world(context, self.CONFIG)
            assert again.shm_name == handle.shm_name
        finally:
            context.clear()
        assert contacts.segment is None  # clear() released it.

    def test_refused_shm_raises_and_leaves_context_consistent(self, monkeypatch):
        context = ExperimentContext(engine="intervals")
        contacts = _tiny_contacts(seed=3)
        rise_s = contacts.rise_s
        context.install_world(self.CONFIG, contacts)

        def refuse(*args, **kwargs):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(shared.shared_memory, "SharedMemory", refuse)
        try:
            with pytest.raises(OSError, match="no shared memory"):
                share_world(context, self.CONFIG)
            # Nothing was rebound: the cached object stays heap-backed.
            assert contacts.segment is None
            assert contacts.rise_s is rise_s
            assert context.contact_intervals(self.CONFIG) is contacts
        finally:
            context.clear()
        assert contacts.segment is None

    def test_grid_world_is_adopted_the_same_way(self):
        context = ExperimentContext()
        visibility = _tiny_visibility(seed=4)
        context.install_world(self.CONFIG, visibility)
        try:
            handle = share_world(context, self.CONFIG)
            assert handle.world_type is PackedVisibility
            assert handle.shm_name == visibility.segment.name
            assert visibility.packed.base is not None
            assert share_world(context, self.CONFIG).shm_name == handle.shm_name
        finally:
            context.clear()
        assert visibility.segment is None


class TestSegmentOwnership:
    """A heap-built grid tensor shared for a worker pool belongs to the
    context: it outlives the pool and is unlinked by ``context.clear()``,
    with nothing left for the resource tracker to complain about, and the
    world stays readable afterwards.  Runs in a child process because a
    read of unmapped memory crashes the interpreter."""

    SCRIPT = textwrap.dedent(
        """
        from repro.experiments.common import ExperimentConfig, ExperimentContext
        from repro.experiments.fig2_coverage_vs_size import Fig2Scenario
        from repro.runner import MonteCarloRunner
        from repro.runner.shared import _attach_untracked

        def exists(name):
            try:
                _attach_untracked(name).close()
            except FileNotFoundError:
                return False
            return True

        config = ExperimentConfig(runs=2, step_s=900.0, duration_s=3600.0)
        context = ExperimentContext()
        world = context.world(config)
        assert world.segment is None  # Built on the heap.
        coverage = world.coverage_fractions(list(range(0, 4408, 7)))
        MonteCarloRunner(config, context=context, parallel=2).run(
            Fig2Scenario(sizes=(10,))
        )
        name = world.segment.name
        assert context.worker_pool is not None
        context.dispose_worker_pool()
        assert exists(name), "segment unlinked with the pool"
        context.clear()
        assert world.segment is None
        assert not exists(name), "segment survived context.clear()"
        # A caller still holding the world reads heap copies, not unmapped
        # segment memory.
        assert (world.coverage_fractions(list(range(0, 4408, 7))) == coverage).all()
        print("ok")
        """
    )

    def test_heap_grid_world_lives_until_clear(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
        assert "resource_tracker" not in result.stderr
        assert "leaked" not in result.stderr
