"""§2 claim — "a participant contributing just 50 satellites can get
coverage worth over 1000 satellites by trading off their spare capacities".

Methodology: calibrate a go-it-alone curve (weighted city coverage vs own
constellation size), then compare a party's coverage alone (its 50
satellites) against what it experiences inside a shared MP-LEO constellation
(every member's satellites).  The "worth" is the go-it-alone size whose
coverage matches the shared experience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple, Union

import numpy as np

from repro.core.sharing import SharingUpside, sharing_upside
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    weighted_city_coverage,
)
from repro.runner import RunContext, Scenario, run_scenario

DEFAULT_CALIBRATION_SIZES: Sequence[int] = (
    10, 25, 50, 100, 200, 400, 700, 1000, 1500, 2000, 3000, 4000,
)

#: The sweep-axis sentinel for the shared-network evaluation point (the
#: calibration points are plain ints).
NETWORK_POINT = "network"


@dataclass(frozen=True)
class SharingUpsideResult:
    upside: SharingUpside
    calibration: List[Tuple[int, float]]
    config: ExperimentConfig


@dataclass
class SharingUpsideScenario(Scenario):
    """The §2 sharing-upside measurement for one representative party.

    The sweep axis is the go-it-alone calibration sizes plus one final
    :data:`NETWORK_POINT` where the shared constellation and the party's
    own slice of it are evaluated together.
    """

    contributed: int = 50
    network_size: int = 1000
    calibration_sizes: Sequence[int] = DEFAULT_CALIBRATION_SIZES

    name = "sharing"
    salt = 7

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[Union[int, str]]:
        if not 0 < self.contributed <= self.network_size:
            raise ValueError(
                f"contributed ({self.contributed}) must be in (0, network_size]"
            )
        pool_size = len(context.pool())
        for size in (*self.calibration_sizes, self.network_size):
            if size > pool_size:
                raise ValueError(f"size {size} exceeds pool of {pool_size}")
        return [*self.calibration_sizes, NETWORK_POINT]

    def run_one(self, ctx: RunContext, run_index: int) -> Any:
        world = ctx.world()

        def coverage(indices: np.ndarray) -> float:
            return weighted_city_coverage(world, indices)

        if ctx.point == NETWORK_POINT:
            network = ctx.rng.choice(
                ctx.pool_size(), size=self.network_size, replace=False
            )
            own = network[: self.contributed]
            return (coverage(own), coverage(network))
        indices = ctx.rng.choice(ctx.pool_size(), size=ctx.point, replace=False)
        return coverage(indices)

    def reduce(
        self,
        point: Union[int, str],
        point_index: int,
        samples: List[Any],
        config: ExperimentConfig,
    ) -> Any:
        if point == NETWORK_POINT:
            alone = np.array([sample[0] for sample in samples])
            shared = np.array([sample[1] for sample in samples])
            return (float(alone.mean()), float(shared.mean()))
        return (point, float(np.mean(samples)))

    def finalize(
        self, reduced: List[Any], config: ExperimentConfig
    ) -> SharingUpsideResult:
        calibration = reduced[:-1]
        alone_mean, shared_mean = reduced[-1]
        upside = sharing_upside(
            party="participant",
            contributed=self.contributed,
            alone_coverage_fraction=alone_mean,
            shared_coverage_fraction=shared_mean,
            coverage_by_count=calibration,
        )
        return SharingUpsideResult(
            upside=upside, calibration=calibration, config=config
        )


def run_sharing_upside(
    config: ExperimentConfig = ExperimentConfig(),
    contributed: int = 50,
    network_size: int = 1000,
    calibration_sizes: Sequence[int] = DEFAULT_CALIBRATION_SIZES,
) -> SharingUpsideResult:
    """Measure the §2 sharing upside (see :class:`SharingUpsideScenario`).

    Args:
        contributed: Satellites the party brings (the paper's 50).
        network_size: Total MP-LEO constellation size it joins (the paper's
            benchmark of 1000-satellite coverage).
        calibration_sizes: Go-it-alone sizes for the worth curve.
    """
    return run_scenario(
        SharingUpsideScenario(
            contributed=contributed,
            network_size=network_size,
            calibration_sizes=calibration_sizes,
        ),
        config,
    )
