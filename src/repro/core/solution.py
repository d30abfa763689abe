"""Replica placements under the *closest* service policy.

A solution is a set ``R`` of internal nodes (§2.1).  Each client is served by
the first node on its path to the root that belongs to ``R``; a replica
therefore absorbs *all* unserved requests of its subtree.  This module
computes server loads, client assignments and validity checks (Equation 1:
``req_j <= W`` for every server), and defines the
:class:`PlacementResult` record shared by every solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.exceptions import InfeasibleError
from repro.tree.model import Tree

__all__ = [
    "PlacementCheck",
    "PlacementResult",
    "assign_clients",
    "evaluate_placement",
    "server_loads",
    "verify_placement",
]


def server_loads(tree: Tree, replicas: Iterable[int]) -> tuple[dict[int, int], int]:
    """Per-replica served load and the unserved residual at the root.

    Returns ``(loads, unserved)`` where ``loads[v]`` is the number of
    requests processed by replica ``v`` (Equation 1's ``req_v``) and
    ``unserved`` is the request volume no replica absorbs (0 for any valid
    placement).
    """
    in_r = [False] * tree.n_nodes
    for v in replicas:
        in_r[v] = True
    flow = tree.client_loads.tolist()
    parents = tree.parents
    loads: dict[int, int] = {}
    for v in tree.post_order().tolist():
        if in_r[v]:
            loads[v] = flow[v]
            flow[v] = 0
        p = parents[v]
        if p is not None:
            flow[p] += flow[v]
    return loads, flow[tree.root]


def assign_clients(tree: Tree, replicas: Iterable[int]) -> list[int | None]:
    """Closest-ancestor server of each client (``None`` when unserved).

    Entry ``i`` corresponds to ``tree.clients[i]``; the walk starts at the
    client's attachment node itself (a replica there serves the client).
    """
    rset = set(replicas)
    out: list[int | None] = []
    for c in tree.clients:
        server: int | None = None
        v: int | None = c.node
        while v is not None:
            if v in rset:
                server = v
                break
            v = tree.parent(v)
        out.append(server)
    return out


@dataclass(frozen=True)
class PlacementCheck:
    """Outcome of validating a replica placement."""

    ok: bool
    loads: Mapping[int, int]
    unserved: int
    overloaded: tuple[int, ...]
    capacity: int

    @property
    def violations(self) -> tuple[str, ...]:
        msgs: list[str] = []
        if self.unserved:
            msgs.append(f"{self.unserved} requests reach the root unserved")
        for v in self.overloaded:
            msgs.append(
                f"replica {v} serves {self.loads[v]} > W={self.capacity} requests"
            )
        return tuple(msgs)


def evaluate_placement(
    tree: Tree, replicas: Iterable[int], capacity: int
) -> PlacementCheck:
    """Check validity of ``replicas`` without raising."""
    loads, unserved = server_loads(tree, replicas)
    overloaded = tuple(sorted(v for v, q in loads.items() if q > capacity))
    ok = unserved == 0 and not overloaded
    return PlacementCheck(
        ok=ok,
        loads=loads,
        unserved=unserved,
        overloaded=overloaded,
        capacity=capacity,
    )


def verify_placement(
    tree: Tree, replicas: Iterable[int], capacity: int
) -> dict[int, int]:
    """Like :func:`evaluate_placement` but raise on an invalid placement."""
    check = evaluate_placement(tree, replicas, capacity)
    if not check.ok:
        raise InfeasibleError(
            "invalid placement: " + "; ".join(check.violations)
        )
    return dict(check.loads)


@dataclass(frozen=True)
class PlacementResult:
    """A solved placement together with its bookkeeping.

    Attributes
    ----------
    replicas:
        The server set ``R``.
    loads:
        Requests served per replica.
    reused:
        ``R ∩ E`` — pre-existing servers kept in the solution.
    created:
        ``R \\ E`` — newly created servers.
    deleted:
        ``E \\ R`` — pre-existing servers removed.
    cost:
        Total cost under the solver's cost model (Equation 2 or 4);
        ``None`` for solvers that do not price solutions.
    """

    replicas: frozenset[int]
    loads: Mapping[int, int]
    reused: frozenset[int] = frozenset()
    created: frozenset[int] = frozenset()
    deleted: frozenset[int] = frozenset()
    cost: float | None = None
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        """Total number of servers ``R`` in the solution."""
        return len(self.replicas)

    @property
    def n_reused(self) -> int:
        return len(self.reused)

    @property
    def n_created(self) -> int:
        return len(self.created)

    @property
    def n_deleted(self) -> int:
        return len(self.deleted)

    @staticmethod
    def from_replicas(
        tree: Tree,
        replicas: Iterable[int],
        capacity: int,
        preexisting: Iterable[int] = (),
        cost: float | None = None,
        extra: Mapping[str, object] | None = None,
    ) -> PlacementResult:
        """Build a result from a raw replica set, verifying validity."""
        rset = frozenset(int(v) for v in replicas)
        eset = frozenset(int(v) for v in preexisting)
        loads = verify_placement(tree, rset, capacity)
        return PlacementResult(
            replicas=rset,
            loads=loads,
            reused=rset & eset,
            created=rset - eset,
            deleted=eset - rset,
            cost=cost,
            extra=dict(extra or {}),
        )
