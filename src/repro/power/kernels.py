"""The production Pareto-DP engine.

:data:`KERNELS` maps the one engine every caller runs, ``"array"`` —
:func:`~repro.power.dp_power_array.power_frontier_array`, the
structure-of-arrays numpy kernel.  Servers, sessions, workers, the CLI,
the experiments and the 2-Partition reduction all look it up here at
call time rather than importing the function, so a wrapper installed
into the dict (the tracing harness under ``perfbench/`` does this, and
its workloads import the dict) sees every solve.

The plain row-tuple DP :func:`~repro.power.dp_power_pareto.power_frontier`
is not an engine choice: it is the reference the array kernel is pinned
against in the tests, and no module under ``src/`` calls it.

:class:`~repro.power.frontstore.FrontStore` (re-exported here) retains
per-subtree tables *across* array-kernel solves; it is the engine
interface the incremental re-solve sessions of
:mod:`repro.dynamics.incremental` are built on.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.core.costs import ModalCostModel
from repro.exceptions import InfeasibleError
from repro.power.dp_power_array import power_frontier_array
from repro.power.frontstore import FrontStore
from repro.power.modes import PowerModel
from repro.power.result import ModalPlacementResult
from repro.tree.model import Tree

__all__ = ["KERNELS", "FrontStore", "min_power", "min_power_bounded_cost"]

#: Engine name -> solver callable (``power_frontier``'s signature plus
#: ``stats=`` and ``front_store=``).
KERNELS: dict[str, Callable] = {"array": power_frontier_array}


def min_power(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel | None = None,
    preexisting_modes: Mapping[int, int] | None = None,
) -> ModalPlacementResult:
    """Solve MinPower (§2.3): minimal power, cost unconstrained.

    The problem is NP-complete for arbitrary mode counts (Theorem 2); this
    exact solver is practical for the small mode counts of real processors
    and for the reduction instances of §4.2.
    """
    cm = cost_model or ModalCostModel.uniform(power_model.modes.n_modes)
    return KERNELS["array"](tree, power_model, cm, preexisting_modes).min_power()


def min_power_bounded_cost(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    cost_bound: float,
    preexisting_modes: Mapping[int, int] | None = None,
) -> ModalPlacementResult:
    """Solve MinPower-BoundedCost (§2.3) for one bound.

    Raises :class:`InfeasibleError` when no placement meets the bound; use
    the frontier directly when sweeping bounds (Experiment 3).
    """
    frontier = KERNELS["array"](tree, power_model, cost_model, preexisting_modes)
    result = frontier.best_under_cost(cost_bound)
    if result is None:
        raise InfeasibleError(
            f"no placement has cost <= {cost_bound} (cheapest is "
            f"{frontier.min_cost():.3f})"
        )
    return result
