"""MinCost-WithPre — the paper's optimal update algorithm (§3, Theorem 1).

Given a tree with pre-existing servers ``E``, find the replica set ``R``
minimising ``cost(R) = R + (R-e)·create + (E-e)·delete`` (Equation 2), or
any user-supplied cost of ``(servers, reused, pre-existing)``.

This implements Algorithms 1–4 of the paper:

* ``init`` / ``main`` (Algorithms 1–2) become a single post-order pass that
  allocates per-node tables ``minr_j[e, n]`` — the minimal number of
  requests traversing ``j`` when exactly ``e`` pre-existing and ``n`` new
  servers are used *strictly inside* ``subtree_j``.  Infeasible cells hold
  the sentinel ``W + 1`` exactly as in Algorithm 1.
* ``merge`` (Algorithm 3) becomes a 2-D min-plus convolution between the
  accumulated table of ``j`` and each child's *offer* table (child kept
  replica-free, or hosting a reused / new replica that absorbs its
  residual flow).
* ``replica-update`` (Algorithm 4) prices every feasible root cell —
  adding a root replica when requests remain — and keeps the cheapest.  We
  additionally price the "reuse the root as an idle server" option (never
  chosen when ``delete < 1``, i.e. in every paper configuration, but
  required for exactness under exotic cost models where deletions cost
  more than keeping a server).

Deviations from the pseudo-code; costs are unchanged, and placements may
differ only between equal-cost optima:

* tables are bounded by the *subtree contents* (``e ≤ |E ∩ subtree_j|``,
  ``n ≤ |subtree_j|``) instead of the global ``(E+1)×(N-E+1)`` bound — the
  classic small-to-large argument; values are identical where both exist,
  and out-of-bound cells are provably infeasible;
* **leaf batching**: a node's childless children are folded in as one
  closed-form offer.  With the loads of the pre-existing leaves ``P`` and
  of the other leaves ``N`` sorted in descending order (ties to the lower
  node id), hosting ``a`` and ``b`` of them leaves
  ``(ΣP − top_a(P)) + (ΣN − top_b(N))`` requests.  That is the min-plus
  product of the single-leaf offers, because capping at ``W`` commutes
  with the product when every value is non-negative.  Each internal-child
  merge loops over whichever operand has fewer feasible cells and takes a
  vectorised minimum into the output window;
* **lazy argmin recovery**: instead of O(N) ``req`` vectors per cell, each
  merge keeps its input accumulator and offer, and backtracking re-finds
  one optimal split per merge along the chosen path with a vectorised
  equality search; a leaf batch gives back its top-``a`` / top-``b``
  leaves.  Tables use the narrowest unsigned dtype holding the sum of two
  cells, so no subtree size is capped;
* **vectorised Equation-2 root pricing**: a :class:`UniformCostModel`
  prices the whole root table in one numpy expression with the float
  operation order of :meth:`UniformCostModel.total`, keeping the first
  minimum in scan order (cell-major, replica-free before root replica);
  any other :class:`CostLike` is priced cell by cell in the same order.

Worst-case complexity matches Theorem 1: O(N · (N-E+1)² · (E+1)²) ⊆ O(N⁵).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.stats import CoreDPStats

from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.core.costs import UniformCostModel
from repro.core.solution import PlacementResult
from repro.tree.model import Tree
from repro.tree.validate import check_preexisting

__all__ = ["replica_update", "CostLike", "RootChoice"]

#: One internal-child merge: ``(child, offer, accumulator before the merge)``.
_Step = tuple[int, np.ndarray, np.ndarray]
#: Per non-leaf node: final table, its merges, and its batched pre-existing
#: and other leaves, each sorted by load descending.
_Node = tuple[np.ndarray, list[_Step], list[int], list[int]]


class CostLike(Protocol):
    """Anything pricing ``(n_servers, n_reused, n_preexisting)`` triples."""

    def total(self, n_servers: int, n_reused: int, n_preexisting: int) -> float: ...


@dataclass(frozen=True)
class RootChoice:
    """Selected root-table cell (diagnostic payload on the result)."""

    e: int
    n: int
    residual: int
    root_replica: bool


def _unhosted(leaves: list[int], loads: list[int]) -> np.ndarray:
    """``[k]``: load of ``leaves`` left over when the first ``k`` host a replica."""
    prefix = np.cumsum([0] + [loads[c] for c in leaves])
    return prefix[-1] - prefix


def _offer_table(table: np.ndarray, is_pre: bool, capacity: int) -> np.ndarray:
    """Extend a child's table with the replica-on-child option.

    Offer cell ``(de, dn)`` is the best flow the child branch contributes
    when it uses ``de`` pre-existing and ``dn`` new servers *including* a
    possible replica on the child itself (Algorithm 3, lines 11 / 16 / 23).
    """
    re_, rn = table.shape
    offer = np.full((re_ + is_pre, rn + (not is_pre)), capacity + 1, table.dtype)
    offer[:re_, :rn] = table
    hosted = offer[1:] if is_pre else offer[:, 1:]
    hosted[table <= capacity] = 0
    return offer


def _merge(acc: np.ndarray, offer: np.ndarray, inf: int) -> np.ndarray:
    """2-D min-plus convolution of the accumulator with a child offer."""
    shape = (acc.shape[0] + offer.shape[0] - 1, acc.shape[1] + offer.shape[1] - 1)
    out = np.full(shape, inf, acc.dtype)
    small, big = acc, offer
    if np.count_nonzero(acc < inf) > np.count_nonzero(offer < inf):
        small, big = offer, acc
    be, bn = big.shape
    es, ns = np.nonzero(small < inf)
    # ``out`` starts at ``inf``, so the running minimum also caps every sum.
    for e, n, v in zip(es.tolist(), ns.tolist(), small[es, ns].tolist(), strict=True):
        window = out[e : e + be, n : n + bn]
        np.minimum(window, big + v, out=window)
    return out


def _split(
    before: np.ndarray, offer: np.ndarray, e: int, n: int, target: int
) -> tuple[int, int]:
    """First ``(de, dn)`` with ``before[e-de, n-dn] + offer[de, dn] == target``."""
    lo_e, hi_e = max(0, e - before.shape[0] + 1), min(e, offer.shape[0] - 1)
    lo_n, hi_n = max(0, n - before.shape[1] + 1), min(n, offer.shape[1] - 1)
    sums = (
        offer[lo_e : hi_e + 1, lo_n : hi_n + 1]
        + before[e - hi_e : e - lo_e + 1, n - hi_n : n - lo_n + 1][::-1, ::-1]
    )
    hits = np.flatnonzero(sums == target)
    if not hits.size:
        raise SolverError(
            f"backtracking found no split for budget (e={e}, n={n}); "
            "DP tables corrupt"
        )
    de, dn = divmod(int(hits[0]), sums.shape[1])
    return lo_e + de, lo_n + dn


def replica_update(
    tree: Tree,
    capacity: int,
    preexisting: Iterable[int] = (),
    cost_model: CostLike | None = None,
    *,
    stats: CoreDPStats | None = None,
) -> PlacementResult:
    """Solve MinCost-WithPre optimally (paper Algorithm 4, ``replica-update``).

    Parameters
    ----------
    tree, capacity:
        The instance; ``capacity`` is the uniform server capacity ``W``.
    preexisting:
        The set ``E`` of nodes already hosting a replica.
    cost_model:
        Defaults to the paper's Equation 2 with ``create=0.1``,
        ``delete=0.01``; any object with a
        ``total(n_servers, n_reused, n_preexisting)`` method works
        ("the total cost is an arbitrary function of the number of existing
        servers that are reused, and of the number of new servers", §1).
    stats:
        Optional :class:`repro.perf.CoreDPStats` collector; when given it
        accumulates table-size statistics (negligible overhead).

    Returns
    -------
    PlacementResult
        Optimal placement with reuse/creation/deletion bookkeeping, total
        cost, and the selected root cell in ``extra["root_choice"]``.

    Raises
    ------
    InfeasibleError
        When no valid placement exists (some direct client load exceeds
        ``capacity``).
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    eset = check_preexisting(tree, preexisting)
    model: CostLike = cost_model if cost_model is not None else UniformCostModel()
    inf = capacity + 1
    dtype = np.min_scalar_type(2 * inf)
    loads = tree.client_loads.tolist()
    root = tree.root

    dp: dict[int, _Node] = {}
    for j in tree.post_order().tolist():
        if loads[j] > capacity:
            raise InfeasibleError(
                f"direct client load {loads[j]} at node {j} exceeds W={capacity}",
                node=j,
            )
        kids = tree.children(j)
        if not kids and j != root:
            continue  # batched into the parent's leaf offer
        by_load = sorted(
            (c for c in kids if c not in dp), key=loads.__getitem__, reverse=True
        )
        pre = [c for c in by_load if c in eset]
        new = [c for c in by_load if c not in eset]
        acc = np.minimum(
            loads[j] + _unhosted(pre, loads)[:, None] + _unhosted(new, loads), inf
        ).astype(dtype)
        if by_load and stats is not None:
            stats.record_merge(*acc.shape)
        steps: list[_Step] = []
        for child in kids:
            if child in dp:
                offer = _offer_table(dp[child][0], child in eset, capacity)
                steps.append((child, offer, acc))
                acc = _merge(acc, offer, inf)
                if stats is not None:
                    stats.record_merge(*acc.shape)
        dp[j] = (acc, steps, pre, new)

    cost, best = _price_root(dp[root][0], model, len(eset), root in eset, capacity)
    replicas = _reconstruct(dp, eset, root, best.e, best.n)
    if best.root_replica:
        replicas.append(root)
    expected = best.e + best.n + (1 if best.root_replica else 0)
    if len(replicas) != expected:
        raise SolverError(
            f"reconstructed {len(replicas)} replicas, expected {expected}"
        )
    return PlacementResult.from_replicas(
        tree,
        replicas,
        capacity,
        preexisting=eset,
        cost=cost,
        extra={"root_choice": best},
    )


def _price_root(
    table: np.ndarray,
    model: CostLike,
    n_pre: int,
    root_is_pre: bool,
    capacity: int,
) -> tuple[float, RootChoice]:
    """Cheapest root option: the first minimum in cell-major order, with a
    cell's replica-free option before its root-replica one."""
    options = np.empty(table.shape + (2,), dtype=bool)
    options[..., 0] = table == 0
    # A root replica absorbs the residual flow; an idle one (flow 0) can
    # only pay off as a reused pre-existing root (module docstring).
    options[..., 1] = (table <= capacity) & ((table > 0) | root_is_pre)
    cand = np.flatnonzero(options)
    if not cand.size:
        raise InfeasibleError("no valid replica placement exists")
    e, rest = np.divmod(cand, 2 * table.shape[1])
    n, replica = np.divmod(rest, 2)
    servers = e + n + replica
    reused = e + replica * root_is_pre
    if type(model) is UniformCostModel:
        # The float operation order of UniformCostModel.total.
        costs = (
            servers
            + (servers - reused) * model.create
            + (n_pre - reused) * model.delete
        )
    else:
        costs = np.array(
            [
                model.total(s, r, n_pre)
                for s, r in zip(servers.tolist(), reused.tolist(), strict=True)
            ],
            dtype=np.float64,
        )
    best = int(np.argmin(costs))
    be, bn = int(e[best]), int(n[best])
    choice = RootChoice(be, bn, int(table[be, bn]), bool(replica[best]))
    return float(costs[best]), choice


def _reconstruct(
    dp: dict[int, _Node], eset: frozenset[int], root: int, e: int, n: int
) -> list[int]:
    """Unwind the merges along the chosen cells into an explicit replica set."""
    replicas: list[int] = []
    stack: list[tuple[int, int, int]] = [(root, e, n)]
    while stack:
        j, e, n = stack.pop()
        after, steps, pre, new = dp[j]
        for child, offer, before in reversed(steps):
            de, dn = _split(before, offer, e, n, int(after[e, n]))
            table = dp[child][0]
            if (
                de < table.shape[0]
                and dn < table.shape[1]
                and table[de, dn] == offer[de, dn]
            ):
                stack.append((child, de, dn))
            else:  # the child's own replica absorbs its residual flow
                replicas.append(child)
                is_pre = child in eset
                stack.append((child, de - is_pre, dn - (not is_pre)))
            e, n, after = e - de, n - dn, before
        replicas += pre[:e] + new[:n]
    return replicas
