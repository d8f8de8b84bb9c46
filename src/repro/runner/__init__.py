"""repro.runner — the unified Scenario/Runner experiment layer.

Every figure experiment is a :class:`Scenario`: a sweep axis, a pure
per-run kernel, and a reduction.  One :class:`MonteCarloRunner` executes
them all — serially or over a process pool (``--parallel N``) — with
order-independent per-run seeding so results never depend on run count,
execution order, or worker count.
"""

from repro.runner.monte_carlo import (
    POOL_SEED,
    MonteCarloRunner,
    run_scenario,
)
from repro.runner.pool import PersistentPool
from repro.runner.scenario import (
    RunContext,
    Scenario,
    run_rng,
    run_seed_sequence,
)
from repro.runner.shared import WorldHandle, attach_world, share_world

__all__ = [
    "MonteCarloRunner",
    "POOL_SEED",
    "PersistentPool",
    "RunContext",
    "Scenario",
    "WorldHandle",
    "attach_world",
    "run_rng",
    "run_scenario",
    "run_seed_sequence",
    "share_world",
]
