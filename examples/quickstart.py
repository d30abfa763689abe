#!/usr/bin/env python
"""Quickstart: place replicas in a tree, update them, and go power-aware.

Walks the three layers of the library on one small instance:

1. build a distribution tree and find a minimum-replica placement (GR and
   the classical DP agree on the count);
2. requests change — update the placement, reusing yesterday's servers
   where it is optimal to do so (MinCost-WithPre, the paper's Theorem 1);
3. switch on the power model and trade money for watts along the exact
   cost/power frontier (MinPower-BoundedCost, Theorem 3).

Run: ``python examples/quickstart.py``
"""

from __future__ import annotations

import numpy as np

from repro import (
    ModalCostModel,
    TreeBuilder,
    UniformCostModel,
    greedy_placement,
    replica_update,
)
from repro.dynamics import RedrawRequests
from repro.power import KERNELS, ModeSet, PowerModel

CAPACITY = 10


def build_tree():
    """A two-level distribution tree with nine clients."""
    b = TreeBuilder()
    root = b.add_root()
    regions = b.add_nodes(root, 3)
    for region in regions:
        for _ in range(2):
            site = b.add_node(region)
            b.add_client(site, requests=3)
    b.add_client(regions[0], requests=4)
    b.add_client(regions[1], requests=2)
    b.add_client(root, requests=3)
    return b.build()


def main() -> None:
    tree = build_tree()
    print(f"tree: {tree.n_nodes} nodes, {tree.n_clients} clients, "
          f"{tree.total_requests} requests, capacity W={CAPACITY}")

    # --- 1. initial placement (no servers exist yet) -------------------
    first = greedy_placement(tree, CAPACITY)
    print(f"\n[1] initial GR placement: {sorted(first.replicas)} "
          f"({first.n_replicas} servers)")

    # --- 2. the workload moves; update, reusing where optimal ----------
    evolved = RedrawRequests((1, 6)).evolve(tree, np.random.default_rng(7))
    updated = replica_update(
        evolved,
        CAPACITY,
        preexisting=first.replicas,
        cost_model=UniformCostModel(create=0.1, delete=0.01),
    )
    print(f"\n[2] after demand shift: {sorted(updated.replicas)}")
    print(f"    reused {updated.n_reused}, created {updated.n_created}, "
          f"deleted {updated.n_deleted}; cost = {updated.cost:.2f}")
    naive = greedy_placement(evolved, CAPACITY, preexisting=first.replicas)
    print(f"    (GR would reuse only {naive.n_reused} of its "
          f"{naive.n_replicas} servers)")

    # --- 3. power-aware: the exact cost/power frontier -----------------
    power_model = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
    cost_model = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
    pre_modes = {v: 1 for v in first.replicas}  # yesterday's servers, full speed
    frontier = KERNELS["array"](evolved, power_model, cost_model, pre_modes)
    print("\n[3] cost/power frontier (each extra euro buys fewer watts):")
    for cost, power in frontier.pairs():
        print(f"    cost <= {cost:6.2f}  ->  power {power:8.1f}")
    budget = (frontier.min_cost() + frontier.pairs()[-1][0]) / 2
    best = frontier.best_under_cost(budget)
    assert best is not None
    print(f"    with budget {budget:.2f}: {best.n_replicas} servers, "
          f"power {best.power:.1f}, modes "
          f"{ {v: power_model.modes.capacity(m) for v, m in sorted(best.server_modes.items())} }")


if __name__ == "__main__":
    main()
