"""Core replica-placement algorithms (the paper's §3 contribution).

* :func:`~repro.core.greedy.greedy_placement` — GR baseline of [19]
  (minimal replica count, oblivious to pre-existing servers);
* :func:`~repro.core.dp_nopre.dp_nopre_placement` — classical
  MinCost-NoPre dynamic program;
* :func:`~repro.core.dp_withpre.replica_update` — optimal
  MinCost-WithPre: a flow-indexed kernel for Equation 2, and the paper's
  Theorem-1 algorithm (:func:`~repro.core.dp_withpre.theorem1_update`)
  for any other cost function;
* :mod:`~repro.core.exhaustive` — brute-force oracles for tests;
* :mod:`~repro.core.solution` / :mod:`~repro.core.costs` — shared
  placement records, validity checks and cost models.
"""

from repro.core.costs import ModalCostModel, UniformCostModel
from repro.core.dp_nopre import dp_min_replicas, dp_nopre_placement
from repro.core.dp_withpre import replica_update, theorem1_update
from repro.core.exhaustive import (
    exhaustive_min_cost,
    exhaustive_min_replicas,
    iter_valid_placements,
)
from repro.core.greedy import greedy_min_replicas, greedy_placement
from repro.core.solution import (
    PlacementCheck,
    PlacementResult,
    assign_clients,
    evaluate_placement,
    server_loads,
    verify_placement,
)

__all__ = [
    "ModalCostModel",
    "PlacementCheck",
    "PlacementResult",
    "UniformCostModel",
    "assign_clients",
    "dp_min_replicas",
    "dp_nopre_placement",
    "evaluate_placement",
    "exhaustive_min_cost",
    "exhaustive_min_replicas",
    "greedy_min_replicas",
    "greedy_placement",
    "iter_valid_placements",
    "replica_update",
    "server_loads",
    "theorem1_update",
    "verify_placement",
]
