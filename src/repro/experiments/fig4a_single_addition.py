"""Fig. 4a — coverage gain from adding one satellite to an existing base.

Paper methodology (§3.3): population-weighted global coverage time over one
week, over the 21 cities; in each run, randomly sample one satellite from
the Starlink network and add it to a base of 1, 100, or 500 satellites.

Paper anchors: on a single-satellite base the addition gains >1 hour on
average and >4 hours at best; gains shrink as the base grows (diminishing
returns), but remain visible at 100 and 500 satellites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    weighted_city_coverage,
)
from repro.runner import RunContext, Scenario, run_scenario

DEFAULT_BASE_SIZES: Sequence[int] = (1, 100, 500)


@dataclass(frozen=True)
class Fig4aPoint:
    base_satellites: int
    mean_gain_hours: float
    max_gain_hours: float
    min_gain_hours: float


@dataclass(frozen=True)
class Fig4aResult:
    points: List[Fig4aPoint]
    config: ExperimentConfig

    def mean_gain_series(self) -> List[Tuple[int, float]]:
        return [(p.base_satellites, p.mean_gain_hours) for p in self.points]


@dataclass
class Fig4aScenario(Scenario):
    """Coverage gain from one extra satellite on a random base.

    Each run draws a fresh base *and* a fresh additional satellite (disjoint
    from the base), then measures the weighted coverage-time delta.
    """

    base_sizes: Sequence[int] = DEFAULT_BASE_SIZES

    name = "fig4a"
    salt = 4

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[int]:
        pool_size = len(context.pool())
        for base_size in self.base_sizes:
            if base_size + 1 > pool_size:
                raise ValueError(
                    f"size {base_size + 1} exceeds pool of {pool_size}"
                )
        return list(self.base_sizes)

    def run_one(self, ctx: RunContext, run_index: int) -> float:
        world = ctx.world()

        def coverage(indices: np.ndarray) -> float:
            return weighted_city_coverage(world, indices)

        draw = ctx.rng.choice(ctx.pool_size(), size=ctx.point + 1, replace=False)
        base, extra = draw[:-1], draw
        horizon_hours = ctx.config.grid().duration_s / 3600.0
        return float((coverage(extra) - coverage(base)) * horizon_hours)

    def reduce(
        self,
        point: int,
        point_index: int,
        samples: List[float],
        config: ExperimentConfig,
    ) -> Fig4aPoint:
        gains = np.array(samples)
        return Fig4aPoint(
            base_satellites=point,
            mean_gain_hours=float(gains.mean()),
            max_gain_hours=float(gains.max()),
            min_gain_hours=float(gains.min()),
        )

    def finalize(
        self, reduced: List[Fig4aPoint], config: ExperimentConfig
    ) -> Fig4aResult:
        return Fig4aResult(points=reduced, config=config)


def run_fig4a(
    config: ExperimentConfig = ExperimentConfig(),
    base_sizes: Sequence[int] = DEFAULT_BASE_SIZES,
) -> Fig4aResult:
    """Run the Fig. 4a experiment (see :class:`Fig4aScenario`)."""
    return run_scenario(Fig4aScenario(base_sizes=base_sizes), config)
