"""MinCost-NoPre — classical dynamic program (no pre-existing servers).

This is the O(N²)-style algorithm the paper attributes to Cidon et al. [6]:
for each node ``j`` and each replica budget ``k`` spent strictly inside
``subtree_j``, compute the minimal number of requests that must traverse
``j`` upwards.  Merging a child is a 1-D min-plus convolution extended with
the option of placing a replica *on* the child (which absorbs the child's
residual flow).

The table at ``j`` is bounded by the number of internal nodes strictly
inside ``subtree_j`` (small-to-large), so the whole run is O(N²) time in the
worst case and much less on the bushy trees of the experiments.

The module exists both as the classical baseline and as an independent
cross-check of :mod:`repro.core.dp_withpre` (whose ``E = ∅`` specialisation
must agree everywhere); tests exploit that redundancy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.core.solution import PlacementResult
from repro.tree.model import Tree

__all__ = ["dp_min_replicas", "dp_nopre_placement"]

_PLACED_NONE = 0
_PLACED_NEW = 2


def _merge(
    acc: np.ndarray,
    child: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-plus merge of an accumulator table with one child's offer.

    ``child`` is the child's raw table (flow by replica count, *excluding*
    the child node).  The offer extends it with "replica on the child"
    (flow 0, one extra replica).  Returns ``(new_table, choice_k, placed)``
    where ``choice_k[k]`` is the number of replicas attributed to the child
    subtree (including the child itself when ``placed[k]``).
    """
    inf = capacity + 1
    nc = child.shape[0]
    # offer[d] = best flow contribution of the child branch with d replicas.
    offer = np.full(nc + 1, inf, dtype=np.int64)
    offer_placed = np.zeros(nc + 1, dtype=np.int8)
    offer[:nc] = child
    feasible = child <= capacity
    place_better = np.zeros(nc + 1, dtype=bool)
    place_better[1:] = feasible & (offer[1:] > 0)
    offer[place_better] = 0
    offer_placed[place_better] = _PLACED_NEW

    na = acc.shape[0]
    out = np.full(na + nc, inf, dtype=np.int64)
    choice_k = np.zeros(na + nc, dtype=np.int64)
    placed = np.zeros(na + nc, dtype=np.int8)
    for d in range(nc + 1):
        if offer[d] > capacity:
            continue
        cand = acc + offer[d]
        np.minimum(cand, inf, out=cand)
        cand[cand > capacity] = inf
        region = out[d : d + na]
        better = cand < region
        if better.any():
            region[better] = cand[better]
            choice_k[d : d + na][better] = d
            placed[d : d + na][better] = offer_placed[d]
    return out, choice_k, placed


def dp_nopre_placement(tree: Tree, capacity: int) -> PlacementResult:
    """Optimal (minimum replica count) placement without pre-existing servers.

    Raises :class:`InfeasibleError` when some node's direct client load
    exceeds ``capacity``.
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    inf = capacity + 1
    n = tree.n_nodes
    tables: list[np.ndarray | None] = [None] * n
    # choices[j] = list over merge steps of (choice_k, placed) arrays.
    choices: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n)]

    for v in tree.post_order():
        j = int(v)
        load = tree.client_load(j)
        if load > capacity:
            raise InfeasibleError(
                f"direct client load {load} at node {j} exceeds W={capacity}",
                node=j,
            )
        acc = np.array([load], dtype=np.int64)
        for child in tree.children(j):
            acc, choice_k, placed = _merge(acc, tables[child], capacity)
            choices[j].append((choice_k, placed))
            tables[child] = None  # free child memory early
        acc[acc > capacity] = inf
        tables[j] = acc

    root_table = tables[tree.root]
    assert root_table is not None
    best_total = None
    best_k = None
    root_replica = False
    for k in range(root_table.shape[0]):
        f = int(root_table[k])
        if f > capacity:
            continue
        total = k if f == 0 else k + 1
        if best_total is None or total < best_total:
            best_total = total
            best_k = k
            root_replica = f > 0
    if best_total is None:
        raise InfeasibleError("no valid replica placement exists")

    replicas = _reconstruct(tree, choices, tree.root, best_k)
    if root_replica:
        replicas.append(tree.root)
    if len(replicas) != best_total:
        raise SolverError(
            f"reconstructed {len(replicas)} replicas, expected {best_total}"
        )
    return PlacementResult.from_replicas(tree, replicas, capacity)


def _reconstruct(
    tree: Tree,
    choices: list[list[tuple[np.ndarray, np.ndarray]]],
    node: int,
    k: int,
) -> list[int]:
    """Unwind merge backpointers to recover the replica set."""
    replicas: list[int] = []
    stack: list[tuple[int, int]] = [(node, k)]
    while stack:
        j, budget = stack.pop()
        children = tree.children(j)
        for idx in range(len(children) - 1, -1, -1):
            choice_k, placed = choices[j][idx]
            d = int(choice_k[budget])
            flag = int(placed[budget])
            child = children[idx]
            if flag == _PLACED_NEW:
                replicas.append(child)
                stack.append((child, d - 1))
            else:
                stack.append((child, d))
            budget -= d
        if budget != 0:
            raise SolverError(
                f"backtracking left budget {budget} at node {j}; DP tables corrupt"
            )
    return replicas


def dp_min_replicas(tree: Tree, capacity: int) -> int:
    """Minimal replica count (classical MinCost-NoPre objective)."""
    return dp_nopre_placement(tree, capacity).n_replicas
