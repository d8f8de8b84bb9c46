"""Tests for the persistent warm worker pool (the ISSUE-10 tentpole).

One CLI invocation running several scenarios must pay the pool spawn cost
once: the runner parks its ``PersistentPool`` on the ``ExperimentContext``,
and every later scenario with the same pool key (engine, config, world,
live-ness) reuses the warm workers.  Contracts pinned here:

* batch and live parallel collection across >= 2 scenarios reuse ONE pool
  object (asserted by identity and by ``scenarios_served``);
* in live mode each worker publishes ``worker.online`` once per process
  lifetime, so the frame count across all scenarios equals the worker
  count — the observable proof that no respawn happened;
* warm-pool results stay bit-identical to serial execution;
* ``context.clear()`` disposes the adopted pool, and a key change (e.g. a
  different config) retires the old pool and spawns a fresh one.

Scenarios are module-level classes so the pool can pickle them under any
start method.
"""

import io
from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.obs.bus import WORKER_ONLINE, BusRecorder, TelemetryBus
from repro.runner import MonteCarloRunner, Scenario

CONFIG = ExperimentConfig(runs=4, step_s=900.0, seed=7)


@dataclass
class AlphaScenario(Scenario):
    """Cheap pool-free scenario: one random draw per run."""

    points: tuple = (10, 20, 30)

    name = "alpha"
    salt = 41
    uses_pool = False

    def sweep(self, config, context):
        return list(self.points)

    def run_one(self, ctx, run_index):
        return float(ctx.point) + float(ctx.rng.random())

    def reduce(self, point, point_index, samples, config):
        return (point, samples)


@dataclass
class BetaScenario(AlphaScenario):
    """A second scenario shape so reuse crosses scenario identities."""

    points: tuple = (5, 6)

    name = "beta"
    salt = 42


def live_bus(**kwargs) -> TelemetryBus:
    kwargs.setdefault("heartbeat_s", 0.05)
    kwargs.setdefault("stall_timeout_s", 5.0)
    bus = TelemetryBus(**kwargs)
    bus.enable_live(stream=io.StringIO(), interval_s=0.01)
    return bus


def _serial(scenario):
    return MonteCarloRunner(
        CONFIG, context=ExperimentContext(), parallel=1
    ).run(scenario)


class TestBatchReuse:
    def test_two_scenarios_share_one_pool(self):
        context = ExperimentContext()
        try:
            runner = MonteCarloRunner(CONFIG, context=context, parallel=2)
            alpha = runner.run(AlphaScenario())
            pool = context.worker_pool
            assert pool is not None and pool.alive
            beta = runner.run(BetaScenario())
            assert context.worker_pool is pool  # No respawn.
            assert pool.scenarios_served == 2
            assert alpha == _serial(AlphaScenario())
            assert beta == _serial(BetaScenario())
        finally:
            context.clear()

    def test_clear_disposes_pool(self):
        context = ExperimentContext()
        MonteCarloRunner(CONFIG, context=context, parallel=2).run(
            AlphaScenario()
        )
        pool = context.worker_pool
        assert pool.alive
        context.clear()
        assert context.worker_pool is None
        assert not pool.alive
        pool.dispose()  # Idempotent.

    def test_key_change_respawns(self):
        """A different config is a different pool key: the stale pool is
        retired and a fresh one adopted in its place."""
        context = ExperimentContext()
        try:
            MonteCarloRunner(CONFIG, context=context, parallel=2).run(
                AlphaScenario()
            )
            first = context.worker_pool
            other = ExperimentConfig(runs=4, step_s=900.0, seed=8)
            MonteCarloRunner(other, context=context, parallel=2).run(
                AlphaScenario()
            )
            second = context.worker_pool
            assert second is not first
            assert not first.alive
            assert second.alive
            assert second.scenarios_served == 1
        finally:
            context.clear()


class TestLiveReuse:
    def test_worker_online_once_across_scenarios(self):
        """Two live scenarios, one pool: exactly ``parallel`` worker.online
        frames in the whole transcript — workers came up once."""
        context = ExperimentContext()
        try:
            bus = live_bus()
            recorder = BusRecorder()
            bus.subscribe(recorder)
            runner = MonteCarloRunner(
                CONFIG, context=context, parallel=2, bus=bus
            )
            alpha = runner.run(AlphaScenario())
            pool = context.worker_pool
            beta = runner.run(BetaScenario())
            assert context.worker_pool is pool
            assert recorder.count(WORKER_ONLINE) == 2
            assert alpha == _serial(AlphaScenario())
            assert beta == _serial(BetaScenario())
        finally:
            context.clear()

    def test_live_and_batch_pools_do_not_mix(self):
        """Live-ness is part of the pool key: a batch runner after a live
        runner must not inherit the live pool (its workers hold a bus
        channel the batch path would leave dangling)."""
        context = ExperimentContext()
        try:
            MonteCarloRunner(
                CONFIG, context=context, parallel=2, bus=live_bus()
            ).run(AlphaScenario())
            live_pool = context.worker_pool
            MonteCarloRunner(CONFIG, context=context, parallel=2).run(
                AlphaScenario()
            )
            assert context.worker_pool is not live_pool
        finally:
            context.clear()
