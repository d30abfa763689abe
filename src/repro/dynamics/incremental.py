"""Incremental delta re-solve engine for live placement sessions.

The paper's Experiment 2 (and :func:`repro.dynamics.session.run_session`)
treats every workload change as a solve-from-scratch: each step pays a
full O(tree) Pareto-DP pass even when one client moved.  A
:class:`SessionState` instead keeps the tree *and* the solved per-subtree
DP fronts alive between steps, keyed by labelled AHU subtree codes
(:mod:`repro.batch.canonical`) in a
:class:`repro.power.FrontStore`.  Applying a delta then costs:

1. an O(depth) incremental relabelling — only nodes on the root paths of
   the delta's *dirty* nodes can change code
   (:meth:`repro.power.FrontStore.advance_codes`);
2. a re-solve in which every subtree hanging off those root paths is
   answered from the store by content address (changed subtrees get new
   keys, so stale tables can never be served — the invalidation
   invariant), leaving only the root-path tables to recompute.

Frontiers are byte-identical to cold solves of the array kernel and of
the row-tuple reference (pinned by ``tests/dynamics/test_incremental.py``),
because a store hit aliases the
representative's ``(g, p)`` rows verbatim and every dominance sweep is a
function of the candidate multiset only.

Deltas
------
Four churn primitives cover Experiment 2's evolution models and the
serve-protocol session grammar:

* :class:`AddClient` — attach a new client to an internal node;
* :class:`RemoveClient` — detach one client (addressed by its index in
  ``tree.clients`` *at the moment the delta is applied*);
* :class:`SetRequests` — change one client's request rate (same
  addressing);
* :class:`MigrateSubtree` — re-hang an internal subtree under a new
  parent (the structural move of :mod:`repro.dynamics.migration`).

Dirty-node rules: a client edit dirties its attachment node; a migration
dirties the old and the new parent (the moved subtree's own codes do not
depend on where it hangs).  Everything else that changes is an ancestor
of a dirty node, which is exactly what ``advance_codes`` recomputes.

This module is covered by the ``determinism`` lint rule: no clocks, no
ambient randomness — latency accounting lives with the callers
(serve layer, CLI, benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Union

from repro.exceptions import (
    ConfigurationError,
    TreeStructureError,
    WorkloadError,
)
from repro.perf.stats import Collector
from repro.power.frontstore import FrontStore
from repro.power.kernels import KERNELS
from repro.tree.model import Client, Tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.costs import ModalCostModel
    from repro.power.dp_power_pareto import PowerFrontier
    from repro.power.modes import PowerModel

__all__ = [
    "AddClient",
    "RemoveClient",
    "SetRequests",
    "MigrateSubtree",
    "Delta",
    "ApplyResult",
    "SessionStats",
    "SessionState",
    "apply_deltas",
    "delta_from_dict",
    "delta_to_dict",
]


@dataclass(frozen=True)
class AddClient:
    """Attach a new client issuing ``requests`` to internal node ``node``."""

    node: int
    requests: int


@dataclass(frozen=True)
class RemoveClient:
    """Detach the client at index ``client`` of the current ``tree.clients``."""

    client: int


@dataclass(frozen=True)
class SetRequests:
    """Set the request rate of the client at index ``client``."""

    client: int
    requests: int


@dataclass(frozen=True)
class MigrateSubtree:
    """Re-hang the subtree rooted at ``node`` under ``new_parent``.

    ``new_parent`` must not lie inside the moved subtree (that would
    disconnect it into a cycle) and the root cannot move.
    """

    node: int
    new_parent: int


Delta = Union[AddClient, RemoveClient, SetRequests, MigrateSubtree]

#: Wire names of the delta kinds (the serve protocol's delta grammar).
_KIND_ADD = "add_client"
_KIND_REMOVE = "remove_client"
_KIND_SET = "set_requests"
_KIND_MIGRATE = "migrate"


def delta_to_dict(delta: Delta) -> dict[str, int | str]:
    """JSON-able ``{"kind": ..., ...}`` form of one delta."""
    if isinstance(delta, AddClient):
        return {"kind": _KIND_ADD, "node": delta.node, "requests": delta.requests}
    if isinstance(delta, RemoveClient):
        return {"kind": _KIND_REMOVE, "client": delta.client}
    if isinstance(delta, SetRequests):
        return {
            "kind": _KIND_SET,
            "client": delta.client,
            "requests": delta.requests,
        }
    if isinstance(delta, MigrateSubtree):
        return {
            "kind": _KIND_MIGRATE,
            "node": delta.node,
            "new_parent": delta.new_parent,
        }
    raise ConfigurationError(f"unknown delta object {delta!r}")


def delta_from_dict(raw: Mapping[str, object]) -> Delta:
    """Parse one wire-form delta (inverse of :func:`delta_to_dict`)."""
    kind = raw.get("kind")
    try:
        if kind == _KIND_ADD:
            return AddClient(int(raw["node"]), int(raw["requests"]))  # type: ignore[arg-type]
        if kind == _KIND_REMOVE:
            return RemoveClient(int(raw["client"]))  # type: ignore[arg-type]
        if kind == _KIND_SET:
            return SetRequests(int(raw["client"]), int(raw["requests"]))  # type: ignore[arg-type]
        if kind == _KIND_MIGRATE:
            return MigrateSubtree(int(raw["node"]), int(raw["new_parent"]))  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed {kind!r} delta: {raw!r}") from exc
    raise ConfigurationError(
        f"unknown delta kind {kind!r}; expected one of "
        f"['{_KIND_ADD}', '{_KIND_MIGRATE}', '{_KIND_REMOVE}', '{_KIND_SET}']"
    )


def apply_deltas(
    tree: Tree, deltas: Iterable[Delta]
) -> tuple[Tree, set[int]]:
    """Apply a delta batch to ``tree``; returns ``(new_tree, dirty_nodes)``.

    Deltas are applied in order against the evolving state (client
    indices address the client tuple as it stands when their delta is
    reached).  The dirty set contains every node whose own subtree-code
    inputs changed — the seed set for
    :meth:`repro.power.FrontStore.advance_codes`.  A batch of client
    edits only patches a copy of ``tree`` (:meth:`Tree.with_clients`
    with ``touched``); a batch with a migration rebuilds the tree.
    """
    n = tree.n_nodes
    parents: list[int | None] = list(tree.parents)
    clients: list[Client] = list(tree.clients)
    dirty: set[int] = set()
    migrated = False
    for delta in deltas:
        if isinstance(delta, AddClient):
            if not (0 <= delta.node < n):
                raise WorkloadError(
                    f"add_client references unknown internal node {delta.node}"
                )
            clients.append(Client(delta.node, delta.requests))
            dirty.add(delta.node)
        elif isinstance(delta, RemoveClient):
            if not (0 <= delta.client < len(clients)):
                raise WorkloadError(
                    f"remove_client index {delta.client} out of range "
                    f"(tree has {len(clients)} clients)"
                )
            dirty.add(clients.pop(delta.client).node)
        elif isinstance(delta, SetRequests):
            if not (0 <= delta.client < len(clients)):
                raise WorkloadError(
                    f"set_requests index {delta.client} out of range "
                    f"(tree has {len(clients)} clients)"
                )
            clients[delta.client] = clients[delta.client].with_requests(
                delta.requests
            )
            dirty.add(clients[delta.client].node)
        elif isinstance(delta, MigrateSubtree):
            v, q = delta.node, delta.new_parent
            if not (0 <= v < n) or not (0 <= q < n):
                raise TreeStructureError(
                    f"migrate references nodes outside 0..{n - 1}: "
                    f"node={v}, new_parent={q}"
                )
            old_parent = parents[v]
            if old_parent is None:
                raise TreeStructureError("the root cannot be migrated")
            # Walk up from the target: landing on v would hang the
            # subtree under itself (cycle).  O(depth).
            u: int | None = q
            while u is not None:
                if u == v:
                    raise TreeStructureError(
                        f"cannot migrate node {v} under its own descendant {q}"
                    )
                u = parents[u]
            parents[v] = q
            dirty.add(old_parent)
            dirty.add(q)
            migrated = True
        else:
            raise ConfigurationError(f"unknown delta object {delta!r}")
    if migrated:
        return Tree(parents, clients, validate=False), dirty
    # Client edits only: the structure is unchanged and the dirty nodes
    # are exactly the ones whose clients changed, so patch a copy.
    return tree.with_clients(clients, touched=dirty), dirty


@dataclass
class SessionStats(Collector):
    """Cumulative per-session counters (no latency — see the serve layer)."""

    solves: int = 0
    deltas_applied: int = 0
    fronts_reused: int = 0
    fronts_invalidated: int = 0
    store_resets: int = 0


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of one :meth:`SessionState.apply` call."""

    frontier: PowerFrontier
    deltas_applied: int
    fronts_reused: int
    fronts_invalidated: int


class SessionState:
    """A live placement session: tree + retained fronts + delta engine.

    Parameters mirror the kernel's; every solve runs the array kernel
    through :data:`repro.power.KERNELS` against the session's front
    store (a private one unless ``store`` is given).  The pre-existing set
    is fixed for the session's lifetime — re-anchoring the pre-set is a
    new session, not a delta (its markers participate in every subtree
    code, so changing them invalidates globally anyway).
    """

    def __init__(
        self,
        tree: Tree,
        power_model: PowerModel,
        cost_model: ModalCostModel,
        preexisting_modes: Mapping[int, int] | None = None,
        *,
        store: FrontStore | None = None,
    ) -> None:
        self._store = store if store is not None else FrontStore()
        self._tree = tree
        self._power_model = power_model
        self._cost_model = cost_model
        self._pre = dict(preexisting_modes or {})
        self._frontier: PowerFrontier | None = None
        self._closed = False
        self.stats = SessionStats()

    # -- accessors ------------------------------------------------------
    @property
    def store(self) -> FrontStore:
        return self._store

    @property
    def tree(self) -> Tree:
        return self._tree

    @property
    def preexisting_modes(self) -> dict[int, int]:
        return dict(self._pre)

    def frontier(self) -> PowerFrontier:
        """The current frontier (solves on first use)."""
        if self._frontier is None:
            return self.solve()
        return self._frontier

    # -- engine ---------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("session is closed")

    def solve(self) -> PowerFrontier:
        """(Re-)solve the current tree through the front store."""
        self._check_open()
        self._frontier = self._solve(self._tree)
        return self._frontier

    def _solve(self, tree: Tree) -> PowerFrontier:
        resets_before = self._store.resets
        frontier = KERNELS["array"](
            tree,
            self._power_model,
            self._cost_model,
            self._pre,
            front_store=self._store,
        )
        self.stats.solves += 1
        self.stats.store_resets += self._store.resets - resets_before
        return frontier

    def apply(self, deltas: Iterable[Delta]) -> ApplyResult:
        """Apply a delta batch and re-solve incrementally.

        A rejected batch leaves the session as it was: invalid deltas
        raise before any state changes, and a batch whose re-solve fails
        (an :class:`~repro.exceptions.InfeasibleError`, say) restores the
        store's current codes, so the tree, frontier and the addressing
        of later deltas are those from before the call.
        """
        self._check_open()
        batch: Sequence[Delta] = tuple(deltas)
        new_tree, dirty = apply_deltas(self._tree, batch)
        # Relabel only the union of root paths from the dirty nodes;
        # the subsequent solve sees the advanced codes via the store's
        # current-codes fast path (no full relabelling).
        self._store.advance_codes(new_tree, self._pre, dirty)
        hits_before = self._store.hits
        misses_before = self._store.misses
        try:
            frontier = self._solve(new_tree)
        except BaseException:
            self._store.codes_for(self._tree, self._pre)
            raise
        self._tree = new_tree
        self._frontier = frontier
        reused = self._store.hits - hits_before
        invalidated = self._store.misses - misses_before
        self.stats.deltas_applied += len(batch)
        self.stats.fronts_reused += reused
        self.stats.fronts_invalidated += invalidated
        return ApplyResult(frontier, len(batch), reused, invalidated)

    def close(self) -> None:
        """Release every retained table; the session is unusable after."""
        if not self._closed:
            self._closed = True
            self._frontier = None
            self._store.release()
