"""Experiment 3 — power minimisation under a cost bound (Figures 8–11).

Protocol (§5.2): random trees with two modes ``W₁ = 5 < W₂ = 10``, power
``P_i = W₁³/10 + W_i³`` (static part ``W₁³/10``, dynamic ``W_i³``, α = 3),
5 pre-existing servers, clients with 1–5 requests.  For each cost bound the
optimal bi-criteria DP is compared against GR (capacity sweep 5..10,
load-determined modes, best candidate under the bound).

    "In Figure 8, we plot the inverse of the power of a solution, given a
    bound on the cost (the higher the better).  If the algorithm fails to
    find a solution for a tree, the value is 0, and we average the inverse
    of the power over the 100 trees."

The paper's "power inverse" axis runs 0..1, so the inverse is normalised;
we normalise per tree by the *unconstrained optimal power* (the frontier's
right end): ``inv = P_opt / P`` — 1.0 means the bound no longer binds, and
failures contribute 0.  Raw mean powers are reported alongside.

Variants: Figure 9 drops pre-existing servers, Figure 10 uses high trees
with bounds 10..35, Figure 11 prices ``create = delete = 1``,
``changed = 0.1`` with bounds 30..90.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable

import numpy as np

from repro.analysis.stats import SeriesStats, summarize
from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError
from repro.power.greedy_power import greedy_power_candidates
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting_modes

__all__ = ["Exp3Config", "Exp3Result", "run_experiment3"]

_EPS = 1e-9


@dataclass(frozen=True)
class Exp3Config:
    """Parameters of Experiment 3 (defaults: the paper's Figure 8)."""

    n_trees: int = 100
    n_nodes: int = 50
    children_range: tuple[int, int] = (6, 9)
    client_prob: float = 0.5
    request_range: tuple[int, int] = (1, 5)
    mode_capacities: tuple[int, ...] = (5, 10)
    alpha: float = 3.0
    #: §5.2: the static part of ``P_i = W₁³/10 + W_i³``.
    static_power: float = 5.0**3 / 10.0
    n_preexisting: int = 5
    #: pre-existing servers start at full capacity (highest mode).
    preexisting_mode: int = 1
    create: float = 0.1
    delete: float = 0.01
    changed: float = 0.001
    cost_bounds: tuple[float, ...] = tuple(float(b) for b in range(15, 46))
    seed: int = 2013

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigurationError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.n_preexisting < 0 or self.n_preexisting > self.n_nodes:
            raise ConfigurationError(
                f"n_preexisting must be in [0, {self.n_nodes}]"
            )
        if not (0 <= self.preexisting_mode < len(self.mode_capacities)):
            raise ConfigurationError(
                f"preexisting_mode out of range for {self.mode_capacities}"
            )

    def power_model(self) -> PowerModel:
        return PowerModel(
            modes=ModeSet(self.mode_capacities),
            static_power=self.static_power,
            alpha=self.alpha,
        )

    def cost_model(self) -> ModalCostModel:
        return ModalCostModel.uniform(
            len(self.mode_capacities),
            create=self.create,
            delete=self.delete,
            changed=self.changed,
        )

    def no_preexisting(self) -> Exp3Config:
        """The Figure 9 variant (no pre-existing replicas)."""
        return replace(self, n_preexisting=0)

    def high_trees(self) -> Exp3Config:
        """The Figure 10 variant (high trees, shifted bound range)."""
        return replace(
            self,
            children_range=(2, 4),
            cost_bounds=tuple(float(b) for b in range(10, 36)),
        )

    def expensive_costs(self) -> Exp3Config:
        """The Figure 11 variant (create=delete=1, changed=0.1)."""
        return replace(
            self,
            create=1.0,
            delete=1.0,
            changed=0.1,
            # Start below the feasibility knee so the plot shows where each
            # algorithm first finds solutions (reuse lets DP enter earlier).
            cost_bounds=tuple(float(b) for b in range(20, 91, 2)),
        )


@dataclass(frozen=True)
class Exp3Result:
    """Aggregated power curves (Figure 8–11 series)."""

    config: Exp3Config
    bounds: tuple[float, ...]
    dp_inverse: tuple[SeriesStats, ...]  #: normalised inverse power, 0 on failure
    gr_inverse: tuple[SeriesStats, ...]
    dp_success: tuple[float, ...]  #: fraction of trees with a DP solution
    gr_success: tuple[float, ...]
    #: mean GR/DP power ratio over trees where both succeed (paper: "GR
    #: consumes in average more than 30% more power than DP" mid-range).
    gr_over_dp: tuple[SeriesStats, ...]

    def series(self) -> dict[str, list[tuple[float, float]]]:
        return {
            "DP": [(b, s.mean) for b, s in zip(self.bounds, self.dp_inverse, strict=True)],
            "GR": [(b, s.mean) for b, s in zip(self.bounds, self.gr_inverse, strict=True)],
        }

    def rows(self) -> list[tuple[float, float, float, float, float, float]]:
        """(bound, DP inv, GR inv, DP success, GR success, GR/DP ratio)."""
        return [
            (b, d.mean, g.mean, ds, gs, r.mean)
            for b, d, g, ds, gs, r in zip(
                self.bounds,
                self.dp_inverse,
                self.gr_inverse,
                self.dp_success,
                self.gr_success,
                self.gr_over_dp, strict=True,
            )
        ]

    def peak_gr_overhead(self) -> float:
        """Largest mean GR-over-DP power overhead across bounds (ratio)."""
        vals = [s.mean for s in self.gr_over_dp if s.n > 0]
        return max(vals) if vals else float("nan")


def run_experiment3(
    config: Exp3Config | None = None,
    *,
    progress: Callable[[int, int], None] | None = None,
) -> Exp3Result:
    """Run Experiment 3: one frontier + one GR sweep per tree, then sweep
    the cost bounds over both."""
    if config is None:
        config = Exp3Config()
    rng = np.random.default_rng(config.seed)
    power_model = config.power_model()
    cost_model = config.cost_model()
    n_bounds = len(config.cost_bounds)
    dp_inv: list[list[float]] = [[] for _ in range(n_bounds)]
    gr_inv: list[list[float]] = [[] for _ in range(n_bounds)]
    dp_ok: list[int] = [0] * n_bounds
    gr_ok: list[int] = [0] * n_bounds
    ratio: list[list[float]] = [[] for _ in range(n_bounds)]

    for t in range(config.n_trees):
        tree = paper_tree(
            n_nodes=config.n_nodes,
            children_range=config.children_range,
            client_prob=config.client_prob,
            request_range=config.request_range,
            rng=rng,
        )
        pre = random_preexisting_modes(
            tree,
            config.n_preexisting,
            len(config.mode_capacities),
            rng=rng,
            mode=config.preexisting_mode,
        )
        frontier = KERNELS["array"](tree, power_model, cost_model, pre).pairs()
        candidates = greedy_power_candidates(tree, power_model, cost_model, pre)
        p_opt = frontier[-1][1]  # unconstrained optimum (frontier right end)

        for idx, bound in enumerate(config.cost_bounds):
            dp_power: float | None = None
            for cost, power in frontier:
                if cost <= bound + _EPS:
                    dp_power = power
                else:
                    break
            gr_best = candidates.best_under_cost(bound)
            gr_power = gr_best.power if gr_best is not None else None

            dp_inv[idx].append(p_opt / dp_power if dp_power else 0.0)
            gr_inv[idx].append(p_opt / gr_power if gr_power else 0.0)
            if dp_power is not None:
                dp_ok[idx] += 1
            if gr_power is not None:
                gr_ok[idx] += 1
            if dp_power is not None and gr_power is not None:
                ratio[idx].append(gr_power / dp_power)
        if progress is not None:
            progress(t + 1, config.n_trees)

    n = float(config.n_trees)
    return Exp3Result(
        config=config,
        bounds=config.cost_bounds,
        dp_inverse=tuple(summarize(s) for s in dp_inv),
        gr_inverse=tuple(summarize(s) for s in gr_inv),
        dp_success=tuple(k / n for k in dp_ok),
        gr_success=tuple(k / n for k in gr_ok),
        gr_over_dp=tuple(summarize(s) for s in ratio),
    )
