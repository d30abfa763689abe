"""MinCost-WithPre — the paper's optimal update algorithm (§3, Theorem 1).

Given a tree with pre-existing servers ``E``, find the replica set ``R``
minimising ``cost(R) = R + (R-e)·create + (E-e)·delete`` (Equation 2), or
any user-supplied cost of ``(servers, reused, pre-existing)``.

Two exact kernels answer it; :func:`replica_update` picks one.

**Flow kernel (Equation 2).**  Equation 2 is linear in the reused count
``e`` and the new count ``n``: ``cost = e·(1 − delete) + n·(1 + create) +
|E|·delete``.  An optimal placement therefore minimises a sum of
per-server weights, and each node needs one scalar per residual flow
``r ∈ [0, W]`` leaving it, not a table over ``(e, n)``.  Node ``j`` keeps
a monotone *staircase*: the least weight of a placement inside
``subtree_j`` that lets at most ``r`` requests leave ``j``.  Its
children's staircases are merged by an O(W²) min-plus product over the
shared flow budget; ``j`` then either passes the merged flow on or hosts
a server absorbing up to ``W``.  Childless children are folded in first,
one group per server weight, by the sorted-load closed form below.
Tables only span flows a subtree can produce, so a large ``W`` costs at
most the subtree's request total.  The total is O(N·W²).

* **Exact weights.**  Both weights become Python ints over a common power
  of two (``float.as_integer_ratio``), and only those ints are compared.
  When ``delete > 1`` a reused server has negative weight, so keeping a
  pre-existing server idle (flow 0) pays, at any node, the root included.
* **Pricing and ties.**  The reported cost is the float expression of
  :meth:`UniformCostModel.total` on the chosen counts, so it is
  bit-identical to the Theorem-1 kernel's whenever the two pick the same
  exact minimum.  Different ``(e, n)`` pairs tie exactly only for prices
  whose Equation-2 sums are exact in floats, where any pick prices the
  same; for other float prices the exact weight is never above the
  Theorem-1 kernel's pick, which minimises rounded sums.  Backtracking
  prefers passing flow on over hosting, and the first split in flow order.

**Theorem-1 kernel (any cost function).**  :func:`theorem1_update`
implements Algorithms 1–4 of the paper:

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
* **leaf batching** (shared with the flow kernel): a node's childless
  children are folded in as one closed-form offer.  With the loads of the
  pre-existing leaves ``P`` and of the other leaves ``N`` sorted in
  descending order (ties to the lower node id), hosting ``a`` and ``b`` of
  them leaves ``(ΣP − top_a(P)) + (ΣN − top_b(N))`` requests.  That is the
  min-plus product of the single-leaf offers, because capping at ``W``
  commutes with the product when every value is non-negative.  Each
  internal-child merge loops over whichever operand has fewer feasible
  cells and takes a vectorised minimum into the output window;
* **lazy argmin recovery** (shared with the flow kernel): instead of O(N)
  ``req`` vectors per cell, each merge keeps its input accumulator and
  offer, and backtracking re-finds one optimal split per merge along the
  chosen path; a leaf batch gives back its top-``a`` / top-``b`` leaves.
  Tables use the narrowest unsigned dtype holding the sum of two cells, so
  no subtree size is capped;
* **vectorised Equation-2 root pricing**: a :class:`UniformCostModel`
  prices the whole root table in one numpy expression with the float
  operation order of :meth:`UniformCostModel.total`, keeping the first
  minimum in scan order (cell-major, replica-free before root replica);
  any other :class:`CostLike` is priced cell by cell in the same order.

Worst-case complexity matches Theorem 1: O(N · (N-E+1)² · (E+1)²) ⊆ O(N⁵).

**Dispatch.**  :func:`replica_update` runs the flow kernel when the cost
model is exactly a :class:`UniformCostModel` with finite prices, and the
Theorem-1 kernel for any other :class:`CostLike`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

__all__ = ["replica_update", "theorem1_update", "CostLike", "RootChoice"]

#: One internal-child merge: ``(child, offer, accumulator before the merge)``.
_Step = tuple[int, np.ndarray, np.ndarray]
#: Per non-leaf node: final table, its merges, and its batched pre-existing
#: and other leaves, each sorted by load descending.
_Node = tuple[np.ndarray, list[_Step], list[int], list[int]]
#: A flow-kernel merge operand: an internal child, or a leaf group with
#: its hosted count per flow budget.
_Part = int | tuple[list[int], list[int]]
#: A flow-kernel staircase: its ``(flow, least weight)`` steps, flow rising
#: and weight falling; a budget between two steps gets the lower one.
_Stair = list[tuple[int, int]]
#: One flow-kernel merge: ``(operand, its staircase, accumulator before)``.
_FlowStep = tuple[_Part, _Stair, _Stair]
#: Per non-leaf node: own staircase, merged children, and the merges.
_FlowNode = tuple[_Stair, _Stair, list[_FlowStep]]


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

    An Equation-2 model with finite prices runs the O(N·W²) flow kernel;
    any other model runs :func:`theorem1_update` (module docstring).
    """
    model: CostLike = cost_model if cost_model is not None else UniformCostModel()
    if (
        type(model) is not UniformCostModel
        or not math.isfinite(model.create)
        or not math.isfinite(model.delete)
    ):
        return theorem1_update(tree, capacity, preexisting, model)
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    return _flow_update(tree, capacity, check_preexisting(tree, preexisting), model)


def theorem1_update(
    tree: Tree,
    capacity: int,
    preexisting: Iterable[int] = (),
    cost_model: CostLike | None = None,
    *,
    stats: CoreDPStats | None = None,
) -> PlacementResult:
    """MinCost-WithPre by Theorem 1's ``(e, n)`` tables, for any cost model.

    Takes the arguments of :func:`replica_update` and returns the same
    kind of result; it is the oracle the flow kernel is tested against.

    ``stats`` is an optional :class:`repro.perf.CoreDPStats` collector;
    when given it accumulates table-size statistics (negligible overhead).
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


# ---------------------------------------------------------------------------
# flow kernel (Equation 2)
# ---------------------------------------------------------------------------


def _weights(model: UniformCostModel) -> tuple[int, int]:
    """Exact ``(reused, new)`` server weights, scaled to ints by one power of two."""
    create_num, create_den = model.create.as_integer_ratio()
    delete_num, delete_den = model.delete.as_integer_ratio()
    scale = max(create_den, delete_den)
    return (
        scale - delete_num * (scale // delete_den),
        scale + create_num * (scale // create_den),
    )


def _leaf_group(
    leaves: list[int], loads: list[int], weight: int, capacity: int
) -> tuple[_Stair, list[int]]:
    """Staircase of childless children sharing one server weight.

    ``leaves`` are sorted by load descending; hosting the first ``k``
    leaves the least flow for ``k`` servers.  Returns the staircase and
    the hosted count at each of its steps.
    """
    if weight < 0:  # every such server pays for itself, idle or not
        return [(0, len(leaves) * weight)], [len(leaves)]
    flow = sum(loads[c] for c in leaves)
    flows = [flow]  # ``flows[k]``: left over with the first k hosted
    for c in leaves:
        if not flow:  # zero-load leaves never need a server
            break
        flow -= loads[c]
        flows.append(flow)
    counts = [k for k in range(len(flows) - 1, -1, -1) if flows[k] <= capacity]
    if not weight:
        del counts[1:]  # free servers: only the fewest reaching flow 0
    return [(flows[k], k * weight) for k in counts], counts


def _at(stair: _Stair, flow: int) -> int:
    """Least weight letting at most ``flow`` requests leave."""
    best = stair[0][1]
    for f, w in stair:
        if f > flow:
            break
        best = w
    return best


def _minplus(a: _Stair, b: _Stair, capacity: int) -> _Stair:
    """Staircase of two independent parts sharing one flow budget."""
    if len(a) == 1:
        fa, wa = a[0]
        return [(fa + fb, wa + wb) for fb, wb in b if fa + fb <= capacity]
    out: _Stair = []
    for f, w in sorted(
        (fa + fb, wa + wb) for fa, wa in a for fb, wb in b if fa + fb <= capacity
    ):
        if not out or w < out[-1][1]:
            out.append((f, w))
    return out


def _flow_split(
    before: _Stair, table: _Stair, flow: int, target: int
) -> tuple[int, int]:
    """Steps ``(i, k)`` of ``before`` and ``table`` sharing ``flow`` at
    total weight ``target``."""
    for i, (fi, wi) in enumerate(before):
        for k, (fk, wk) in enumerate(table):
            if fi + fk <= flow and wi + wk == target:
                return i, k
    raise SolverError(f"backtracking found no split for flow {flow}; DP tables corrupt")


def _flow_update(
    tree: Tree, capacity: int, eset: frozenset[int], model: UniformCostModel
) -> PlacementResult:
    """The flow kernel behind :func:`replica_update` (module docstring)."""
    w_pre, w_new = _weights(model)
    loads = tree.client_loads.tolist()
    root = tree.root
    nodes: dict[int, _FlowNode] = {}
    for j in tree.post_order().tolist():
        load = loads[j]
        if load > capacity:
            raise InfeasibleError(
                f"direct client load {load} at node {j} exceeds W={capacity}",
                node=j,
            )
        kids = tree.children(j)
        if not kids and j != root:
            continue  # batched into the parent's leaf groups
        by_load = sorted(
            (c for c in kids if c not in nodes), key=loads.__getitem__, reverse=True
        )
        parts: list[tuple[_Part, _Stair]] = []
        for group, weight in (
            ([c for c in by_load if c in eset], w_pre),
            ([c for c in by_load if c not in eset], w_new),
        ):
            if group:
                table, counts = _leaf_group(group, loads, weight, capacity)
                parts.append(((group, counts), table))
        parts += [(c, nodes[c][0]) for c in kids if c in nodes]
        acc: _Stair = [(0, 0)]
        steps: list[_FlowStep] = []
        for part, table in parts:
            steps.append((part, table, acc))
            acc = _minplus(acc, table, capacity)
        # Host j (absorbing up to W) or pass load + children's flow on.
        host = _at(acc, capacity - load) + (w_pre if j in eset else w_new)
        own = [(f + load, w) for f, w in acc if f + load <= capacity and w < host]
        if not own or own[0][0]:
            own.insert(0, (0, host))
        nodes[j] = (own, acc, steps)

    replicas = _flow_reconstruct(nodes, loads, capacity, root)
    n_reused = sum(1 for v in replicas if v in eset)
    cost = model.total(len(replicas), n_reused, len(eset))
    result = PlacementResult.from_replicas(
        tree, replicas, capacity, preexisting=eset, cost=cost
    )
    inside = [v for v in replicas if v != root]
    e = sum(1 for v in inside if v in eset)
    choice = RootChoice(
        e, len(inside) - e, result.loads.get(root, 0), len(inside) < len(replicas)
    )
    return replace(result, extra={"root_choice": choice})


def _flow_reconstruct(
    nodes: dict[int, _FlowNode], loads: list[int], capacity: int, root: int
) -> list[int]:
    """Unwind the staircases from flow 0 at the root into a replica set."""
    replicas: list[int] = []
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        j, budget = stack.pop()
        own, after, steps = nodes[j]
        load = loads[j]
        if budget >= load and _at(after, budget - load) == _at(own, budget):
            budget -= load
        else:
            replicas.append(j)
            budget = capacity - load
        for part, table, before in reversed(steps):
            i, k = _flow_split(before, table, budget, _at(after, budget))
            if isinstance(part, int):
                stack.append((part, table[k][0]))
            else:
                replicas += part[0][: part[1][k]]
            budget, after = before[i][0], before
    return replicas
