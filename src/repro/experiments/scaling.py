"""Scalability measurements (§5.2 closing prose).

The paper reports wall-clock feasibility rather than a figure:

    "without power, we are able to process trees with 500 nodes and 125
    pre-existing servers in 30 minutes; with power and no pre-existing
    server, we can process trees with 300 nodes in one hour.  The algorithm
    with power and pre-existing servers is the most time-consuming: it
    takes around one hour to process a tree with 70 nodes and 10
    pre-existing servers."

:func:`run_scaling` times the three regimes over a size sweep so the
benchmark can check the *ordering* (cost-only ≪ power-no-pre < power-with-
pre) and record absolute numbers for EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.costs import ModalCostModel, UniformCostModel
from repro.core.dp_withpre import replica_update
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting, random_preexisting_modes

__all__ = ["ScalingPoint", "run_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One timed solve."""

    regime: str  #: "cost", "power-nopre" or "power-withpre"
    n_nodes: int
    n_preexisting: int
    seconds: float
    detail: str  #: solver output summary (replica count / frontier size)


def _mean_time(fn, repeats: int) -> tuple[float, str]:
    best = float("inf")
    detail = ""
    for _ in range(repeats):
        t0 = time.perf_counter()
        detail = fn()
        best = min(best, time.perf_counter() - t0)
    return best, detail


def run_scaling(
    cost_sizes: Sequence[tuple[int, int]] = ((100, 25), (200, 50), (500, 125)),
    power_nopre_sizes: Sequence[int] = (50, 100, 300),
    power_withpre_sizes: Sequence[tuple[int, int]] = ((50, 5), (70, 10), (100, 10)),
    *,
    seed: int = 2014,
    repeats: int = 1,
) -> list[ScalingPoint]:
    """Time the three solver regimes at the paper's reference sizes."""
    rng = np.random.default_rng(seed)
    points: list[ScalingPoint] = []
    cost_model = UniformCostModel(1e-4, 1e-5)
    power_model = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
    modal_costs = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)

    for n, e in cost_sizes:
        tree = paper_tree(n_nodes=n, rng=rng)
        pre = random_preexisting(tree, e, rng=rng)
        secs, detail = _mean_time(
            lambda: f"R={replica_update(tree, 10, pre, cost_model).n_replicas}",
            repeats,
        )
        points.append(ScalingPoint("cost", n, e, secs, detail))

    for n in power_nopre_sizes:
        tree = paper_tree(n_nodes=n, request_range=(1, 5), rng=rng)
        secs, detail = _mean_time(
            lambda: f"frontier={len(KERNELS['array'](tree, power_model, modal_costs))}",
            repeats,
        )
        points.append(ScalingPoint("power-nopre", n, 0, secs, detail))

    for n, e in power_withpre_sizes:
        tree = paper_tree(n_nodes=n, request_range=(1, 5), rng=rng)
        pre = random_preexisting_modes(tree, e, 2, rng=rng, mode=1)
        secs, detail = _mean_time(
            lambda: (
                f"frontier={len(KERNELS['array'](tree, power_model, modal_costs, pre))}"
            ),
            repeats,
        )
        points.append(ScalingPoint("power-withpre", n, e, secs, detail))

    return points
