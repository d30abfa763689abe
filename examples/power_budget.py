#!/usr/bin/env python
"""Power budgeting: how many watts does a tighter budget cost?

Reproduces the Experiment-3 methodology (§5.2) on a single instance so the
numbers are easy to follow: an operator with 5 already-deployed full-speed
servers wants the least power-hungry reconfiguration that stays under a
reconfiguration budget, with two server speeds W₁=5 and W₂=10 and power
``P_i = W₁³/10 + W_i³``.

Three solvers are compared across budgets:

* the exact bi-criteria DP (paper §4.3, the Pareto engine);
* GR — the [19] greedy swept over capacities 5..10 (the paper's baseline);
* hill-climbing local search seeded by GR (§6 future work).

Run: ``python examples/power_budget.py``
"""

from __future__ import annotations

import numpy as np

from repro import ModalCostModel
from repro.power import (
    KERNELS,
    PowerModel,
    greedy_power_candidates,
    local_search_power,
)
from repro.tree.generators import paper_tree, random_preexisting_modes


def main() -> None:
    rng = np.random.default_rng(2013)
    tree = paper_tree(n_nodes=50, children_range=(6, 9), client_prob=0.5,
                      request_range=(1, 5), rng=rng)
    power_model = PowerModel.paper_experiment3()
    cost_model = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
    pre = random_preexisting_modes(tree, 5, 2, rng=rng, mode=1)
    print(f"instance: {tree.n_nodes} nodes, {tree.total_requests} requests, "
          f"pre-existing full-speed servers at {sorted(pre)}")

    frontier = KERNELS["array"](tree, power_model, cost_model, pre)
    print(f"\nexact frontier ({len(frontier)} points):")
    for cost, power in frontier.pairs():
        print(f"  cost <= {cost:6.2f} -> power {power:8.1f}")

    greedy = greedy_power_candidates(tree, power_model, cost_model, pre)
    lo = int(frontier.min_cost())
    hi = int(frontier.pairs()[-1][0]) + 2
    print(f"\n{'budget':>7} {'DP power':>10} {'GR power':>10} {'local-search':>13}")
    for budget in range(lo, hi + 1):
        dp = frontier.best_under_cost(budget)
        gr = greedy.best_under_cost(budget)
        ls = local_search_power(tree, power_model, cost_model, budget, pre)
        cells = [
            f"{dp.power:10.1f}" if dp else f"{'-':>10}",
            f"{gr.power:10.1f}" if gr else f"{'-':>10}",
            f"{ls.power:13.1f}" if ls else f"{'-':>13}",
        ]
        print(f"{budget:>7} " + " ".join(cells))

    mid = (lo + hi) // 2
    dp = frontier.best_under_cost(mid)
    gr = greedy.best_under_cost(mid)
    if dp and gr:
        print(f"\nat budget {mid}: GR burns "
              f"{(gr.power / dp.power - 1) * 100:.1f}% more power than the "
              f"optimal placement (paper reports >30% mid-range on average)")
        slow = sum(1 for m in dp.server_modes.values() if m == 0)
        print(f"the optimum runs {slow}/{dp.n_replicas} servers at the slow "
              "mode — load-balancing requests instead of concentrating them")


if __name__ == "__main__":
    main()
