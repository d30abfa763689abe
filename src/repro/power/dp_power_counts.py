"""MinPower-BoundedCost — paper-faithful count-vector dynamic program.

This mirrors §4.3 literally: per subtree, the state enumerates

* ``n_m`` — new servers operated at mode ``W_m`` (``M`` counters), and
* ``e_{o,m}`` — reused pre-existing servers whose mode changed from ``W_o``
  to ``W_m`` (``M²`` counters),

and stores the *set of achievable* request flows traversing the subtree
root for every reachable state — the direct generalisation of Algorithm
3's ``(e, n)`` tables.  (Keeping only the minimal flow per count vector
is lossy: a larger flow can complete to a strictly cheaper solution,
e.g. a reused root absorbing enough requests to stay at its old mode
avoids the mode-change charge at the price of more power — a genuine
point of the cost/power frontier.)  Its complexity is exponential in the
number of modes
(Theorem 3: ``O(N·M·(N-E+1)^{2M}·(E+1)^{2M²})``), polynomial for fixed
``M``; the implementation keeps states in sparse dictionaries so only
reachable count vectors are materialised (bounded by subtree contents, the
same small-to-large trick used everywhere in this library).

It exists as the fidelity reference: tests assert its root frontier equals
:mod:`repro.power.dp_power_pareto`'s on randomised instances, which is the
machine-checkable version of the Pareto solver's dominance argument.  Use
the Pareto solver for anything but validation — `bench_ablation_pareto`
quantifies the gap.

Modes are load-determined (§2.2), see the discussion in
:mod:`repro.power.dp_power_pareto`.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.power.dp_power_pareto import pareto_min_sweep
from repro.power.modes import PowerModel
from repro.tree.model import Tree

__all__ = ["power_frontier_counts"]

_MAX_NODES = 60


def power_frontier_counts(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
) -> list[tuple[float, float]]:
    """Exact (cost, power) frontier via the paper's count-vector states.

    Returns non-dominated ``(cost, power)`` pairs sorted by cost.  Intended
    for validation on small instances (guarded at ``n_nodes <= 60``); no
    placement reconstruction is provided — use the Pareto solver for that.
    """
    if tree.n_nodes > _MAX_NODES:
        raise ConfigurationError(
            f"count-vector DP is a validation tool capped at {_MAX_NODES} "
            f"nodes (got {tree.n_nodes}); use KERNELS['array'] instead"
        )
    modes = power_model.modes
    m_count = modes.n_modes
    if cost_model.n_modes != m_count:
        raise ConfigurationError(
            f"cost model covers {cost_model.n_modes} modes but the mode set "
            f"has {m_count}"
        )
    pre = dict(preexisting_modes or {})
    for v, old in pre.items():
        if not (0 <= v < tree.n_nodes):
            raise ConfigurationError(f"pre-existing server {v} is not a tree node")
        if not (0 <= old < m_count):
            raise ConfigurationError(f"pre-existing server {v} has bad mode {old}")
    w_max = modes.max_capacity

    # State layout: counts[0:m] = n_m (new by mode), counts[m + o*m + mm] =
    # e_{o,mm} (reused, old mode o -> new mode mm).
    zero_state = (0,) * (m_count + m_count * m_count)

    def place_new(state: tuple[int, ...], mode: int) -> tuple[int, ...]:
        lst = list(state)
        lst[mode] += 1
        return tuple(lst)

    def place_reused(state: tuple[int, ...], old: int, mode: int) -> tuple[int, ...]:
        lst = list(state)
        lst[m_count + old * m_count + mode] += 1
        return tuple(lst)

    def add_states(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b, strict=True))

    tables: list[dict[tuple[int, ...], set[int]] | None] = [None] * tree.n_nodes

    for v in tree.post_order():
        j = int(v)
        load = tree.client_load(j)
        if load > w_max:
            raise InfeasibleError(
                f"direct client load {load} at node {j} exceeds W={w_max}",
                node=j,
            )
        acc: dict[tuple[int, ...], set[int]] = {zero_state: {load}}
        for child in tree.children(j):
            child_table = tables[child]
            assert child_table is not None
            tables[child] = None
            options: dict[tuple[int, ...], set[int]] = {}
            for state, flows in child_table.items():
                for flow in flows:
                    # Option 1: no replica on the child, flow passes up.
                    options.setdefault(state, set()).add(flow)
                    # Option 2: replica on the child absorbs the flow at
                    # its load-determined mode.
                    mode = modes.mode_of(flow)
                    placed = (
                        place_reused(state, pre[child], mode)
                        if child in pre
                        else place_new(state, mode)
                    )
                    options.setdefault(placed, set()).add(0)
            merged: dict[tuple[int, ...], set[int]] = {}
            for s1, flows1 in acc.items():
                for s2, flows2 in options.items():
                    s = add_states(s1, s2)
                    bucket = merged.setdefault(s, set())
                    for f1 in flows1:
                        for f2 in flows2:
                            f = f1 + f2
                            if f <= w_max:
                                bucket.add(f)
            merged = {s: fl for s, fl in merged.items() if fl}
            acc = merged
        tables[j] = acc

    root = tree.root
    root_table = tables[root]
    assert root_table is not None
    if not root_table:
        raise InfeasibleError("no valid replica placement exists")

    pre_by_mode = [0] * m_count
    for old in pre.values():
        pre_by_mode[old] += 1

    def complete(state: tuple[int, ...]) -> tuple[float, float]:
        """Price a finished state: Equation 4 cost and Equation 3 power."""
        new_by_mode = list(state[:m_count])
        reused = {
            (o, mm): state[m_count + o * m_count + mm]
            for o in range(m_count)
            for mm in range(m_count)
        }
        deleted = [
            pre_by_mode[o] - sum(reused[(o, mm)] for mm in range(m_count))
            for o in range(m_count)
        ]
        cost = cost_model.total(new_by_mode, reused, deleted)
        power = 0.0
        for mm in range(m_count):
            power += new_by_mode[mm] * power_model.mode_power(mm)
            for o in range(m_count):
                power += reused[(o, mm)] * power_model.mode_power(mm)
        # Round like the other solvers so frontiers compare exactly.
        return round(cost, 9), round(power, 9)

    candidates: list[tuple[float, float]] = []
    for state, flows in root_table.items():
        variants: list[tuple[int, ...]] = []
        for flow in flows:
            if flow == 0:
                variants.append(state)
                if root in pre:  # idle reused root
                    variants.append(place_reused(state, pre[root], 0))
            else:
                mode = modes.mode_of(flow)
                if root in pre:
                    variants.append(place_reused(state, pre[root], mode))
                else:
                    variants.append(place_new(state, mode))
        candidates.extend(complete(s) for s in variants)

    candidates.sort()
    # One shared sweep with the Pareto engine: identical explicit
    # tie-breaking, hence byte-identical frontiers by construction.
    return pareto_min_sweep(candidates)
