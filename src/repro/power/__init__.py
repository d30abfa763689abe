"""Power-aware placement (the paper's §4 contribution).

* :mod:`~repro.power.modes` — mode sets and the Equation-3 power model;
* :mod:`~repro.power.dp_power_pareto` — the frontier types and the plain
  Pareto-label DP (the test reference; no production path calls it).
  :func:`power_frontier`, exported here, is that slow reference; solve
  with ``KERNELS["array"]``, which takes the same arguments;
* :mod:`~repro.power.dp_power_array` — the structure-of-arrays numpy
  kernel, the one engine every caller runs (byte-identical frontiers);
* :mod:`~repro.power.kernels` — :data:`~repro.power.kernels.KERNELS`,
  where callers look the engine up, and the MinPower(-BoundedCost)
  entry points :func:`~repro.power.kernels.min_power` and
  :func:`~repro.power.kernels.min_power_bounded_cost` built on it;
* :mod:`~repro.power.dp_power_counts` — paper-faithful count-vector DP
  (Theorem 3 state space; validation reference);
* :mod:`~repro.power.greedy_power` — the GR capacity-sweep baseline of §5.2;
* :mod:`~repro.power.exhaustive_power` — brute-force oracle;
* :mod:`~repro.power.npcomplete` — Theorem 2's 2-Partition reduction;
* :mod:`~repro.power.heuristics` — §6 future-work heuristics.
"""

from repro.power.dp_power_array import power_frontier_array
from repro.power.dp_power_counts import power_frontier_counts
from repro.power.dp_power_pareto import FrontierPoint, PowerFrontier, power_frontier
from repro.power.exhaustive_power import exhaustive_min_power, exhaustive_power_frontier
from repro.power.greedy_power import GreedyPowerCandidates, greedy_power_candidates
from repro.power.heuristics import local_search_power, reuse_aware_greedy_power
from repro.power.frontstore import FrontStore
from repro.power.kernels import KERNELS, min_power, min_power_bounded_cost
from repro.power.modes import ModeSet, PowerModel
from repro.power.npcomplete import (
    TwoPartitionReduction,
    build_reduction,
    partition_from_placement,
    solve_two_partition_via_minpower,
    two_partition_reference,
)
from repro.power.result import (
    FrontierColumns,
    ModalPlacementResult,
    modal_from_replicas,
)
from repro.power.serialize import (
    frontier_from_columnar,
    frontier_to_columnar,
    modal_cost_model_from_dict,
    modal_cost_model_to_dict,
    modal_result_to_record,
    power_model_from_dict,
    power_model_to_dict,
)

__all__ = [
    "KERNELS",
    "FrontStore",
    "FrontierColumns",
    "FrontierPoint",
    "GreedyPowerCandidates",
    "ModalPlacementResult",
    "ModeSet",
    "PowerFrontier",
    "PowerModel",
    "TwoPartitionReduction",
    "build_reduction",
    "exhaustive_min_power",
    "exhaustive_power_frontier",
    "frontier_from_columnar",
    "frontier_to_columnar",
    "greedy_power_candidates",
    "local_search_power",
    "min_power",
    "min_power_bounded_cost",
    "modal_cost_model_from_dict",
    "modal_cost_model_to_dict",
    "modal_from_replicas",
    "modal_result_to_record",
    "partition_from_placement",
    "power_frontier",
    "power_frontier_array",
    "power_frontier_counts",
    "power_model_from_dict",
    "power_model_to_dict",
    "reuse_aware_greedy_power",
    "solve_two_partition_via_minpower",
    "two_partition_reference",
]
