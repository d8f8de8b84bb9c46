"""Tests for ExperimentContext cache keying/lifetime and the city-weight cache."""

import gc
import weakref

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    visibility_cache_key,
)


class TestVisibilityCacheKeying:
    def test_key_fields(self):
        config = ExperimentConfig(step_s=300.0, min_elevation_deg=25.0,
                                  duration_s=86400.0)
        assert visibility_cache_key(config, pool_seed=3) == (
            3, 300.0, 25.0, 86400.0,
        )

    def test_distinct_configs_never_alias(self):
        """Every config field the tensor depends on separates cache entries."""
        base = ExperimentConfig(step_s=300.0, duration_s=86400.0)
        variants = [
            (base, 1),  # pool seed
            (ExperimentConfig(step_s=600.0, duration_s=86400.0), 0),
            (ExperimentConfig(step_s=300.0, min_elevation_deg=40.0,
                              duration_s=86400.0), 0),
            (ExperimentConfig(step_s=300.0, duration_s=2 * 86400.0), 0),
        ]
        keys = {visibility_cache_key(base, 0)}
        for config, pool_seed in variants:
            keys.add(visibility_cache_key(config, pool_seed))
        assert len(keys) == 1 + len(variants)

    def test_statistical_knobs_do_not_split_the_cache(self):
        """runs/seed/parallel don't change the tensor — one entry serves all."""
        a = ExperimentConfig(runs=3, seed=1, parallel=1, step_s=300.0)
        b = ExperimentConfig(runs=50, seed=99, parallel=8, step_s=300.0)
        assert visibility_cache_key(a) == visibility_cache_key(b)

    def test_install_and_lookup_share_the_key(self):
        context = ExperimentContext()
        config = ExperimentConfig(step_s=900.0, duration_s=86400.0)
        sentinel = object()
        context.install_world(config, sentinel, pool_seed=2)
        cached = context.cached_worlds()
        assert cached[visibility_cache_key(config, 2)] is sentinel
        # A different pool seed does not see the installed tensor.
        assert visibility_cache_key(config, 0) not in cached


class TestContextLifetime:
    def test_contexts_are_isolated(self):
        first, second = ExperimentContext(), ExperimentContext()
        config = ExperimentConfig(step_s=900.0)
        first.install_world(config, object())
        assert second.cached_worlds() == {}

    def test_clear_releases_entries(self):
        """clear() must actually free the tensors, not just forget the keys."""
        context = ExperimentContext()
        config = ExperimentConfig(step_s=900.0)

        class Tensor:  # Weakref-able stand-in for a PackedVisibility.
            pass

        tensor = Tensor()
        ref = weakref.ref(tensor)
        context.install_world(config, tensor)
        del tensor
        assert ref() is not None  # The cache keeps it alive...
        context.clear()
        gc.collect()
        assert ref() is None  # ...and clear() lets it go.
        assert context.cached_worlds() == {}

    def test_clear_releases_pools(self):
        context = ExperimentContext()
        context.pool()
        assert context.cached_pool_seeds() == (0,)
        context.clear()
        assert context.cached_pool_seeds() == ()

    def test_module_clear_caches_clears_default_context(self):
        config = ExperimentConfig(step_s=900.0)
        sentinel = object()
        common.default_context().install_world(config, sentinel)
        common.clear_caches()
        assert common.default_context().cached_worlds() == {}


class TestCityWeightCache:
    def test_same_array_returned(self):
        assert common.city_weights() is common.city_weights()

    def test_read_only(self):
        weights = common.city_weights()
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_normalized(self):
        weights = common.city_weights()
        assert weights.shape == (len(common.CITY_INDICES),)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0.0).all()

    def test_weighted_coverage_uses_city_rows(self):
        """The weighted reduction equals the manual dot over city sites."""

        class StubVisibility:
            def coverage_fractions(self, sat_indices):
                return np.linspace(0.0, 1.0, len(common.ALL_SITES))

        stub = StubVisibility()
        fractions = stub.coverage_fractions(None)
        expected = float(
            common.city_weights() @ fractions[list(common.CITY_INDICES)]
        )
        got = common.weighted_city_coverage(stub, np.arange(3))
        assert got == pytest.approx(expected)
        # Taipei (site 0) carries zero coverage in the stub, so any leak of
        # the non-city row would lower the weighted value.
        assert got > 0.0
