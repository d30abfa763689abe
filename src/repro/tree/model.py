"""Core distribution-tree data structure.

The model follows §2.1 of the paper: a rooted tree whose *internal* nodes
(`0..n-1`) may host replicas, and whose leaves are *clients*.  A client is
attached to exactly one internal node and issues a fixed number of requests
per time unit.  Several clients may hang off the same internal node; the
solvers only ever need the aggregated per-node client load, but clients are
kept as first-class objects so that workload evolution (§5.1, Experiment 2)
can redraw individual request counts.

:class:`Tree` instances are immutable after construction and precompute the
queries that dominate the dynamic programs: children lists, a post-order,
depths, per-node client loads and per-subtree aggregates.  All hot arrays are
numpy ``int64`` so the solvers can slice them without copies (see the
hpc-parallel guides: views, not copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import TreeStructureError, WorkloadError

__all__ = ["Client", "Tree"]


@dataclass(frozen=True)
class Client:
    """A leaf client attached to an internal node.

    Attributes
    ----------
    node:
        Identifier of the internal node this client hangs off.
    requests:
        Number of requests issued per time unit (``r_i`` in the paper);
        strictly positive.
    """

    node: int
    requests: int

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise WorkloadError(
                f"client at node {self.node} has non-positive requests "
                f"({self.requests}); the paper's r_i are >= 1"
            )

    def with_requests(self, requests: int) -> Client:
        """Return a copy of this client issuing ``requests`` requests."""
        return Client(self.node, requests)


class Tree:
    """Immutable rooted tree of internal nodes with attached clients.

    Parameters
    ----------
    parents:
        ``parents[v]`` is the parent of internal node ``v``; exactly one
        entry must be ``None`` (the root).  Node identifiers are the indices
        ``0..n-1``.
    clients:
        Iterable of :class:`Client` (or ``(node, requests)`` pairs).
    validate:
        When true (default) the structure is checked to be a single rooted
        tree; disable only for trusted generated input.

    Notes
    -----
    The tree is *fixed* for the whole lifetime of a placement problem, which
    is the paper's key platform assumption; mutating workloads produce new
    ``Tree`` instances via :meth:`with_clients`.
    """

    __slots__ = (
        "_parents",
        "_children",
        "_root",
        "_clients",
        "_clients_at",
        "_client_load",
        "_post_order",
        "_post_index",
        "_depth",
        "_subtree_internal",
        "_subtree_requests",
    )

    def __init__(
        self,
        parents: Sequence[int | None] | Mapping[int, int | None],
        clients: Iterable[Client | tuple[int, int]] = (),
        *,
        validate: bool = True,
    ) -> None:
        parent_list = _normalize_parents(parents)
        n = len(parent_list)
        if n == 0:
            raise TreeStructureError("a tree needs at least one internal node")

        roots = [v for v, p in enumerate(parent_list) if p is None]
        if validate:
            if len(roots) != 1:
                raise TreeStructureError(
                    f"expected exactly one root (parent None), found {len(roots)}"
                )
            for v, p in enumerate(parent_list):
                if p is not None and not (0 <= p < n):
                    raise TreeStructureError(
                        f"node {v} references out-of-range parent {p}"
                    )
                if p == v:
                    raise TreeStructureError(f"node {v} is its own parent")
        elif len(roots) != 1:  # cheap sanity check even when trusted
            raise TreeStructureError("parent vector does not define one root")
        root = roots[0]

        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent_list):
            if p is not None:
                children[p].append(v)

        # Aggregates are built on Python ints and converted with one
        # np.asarray each: per-element numpy scalar updates cost more than
        # the whole construction otherwise (it runs once per session delta
        # and per request decode).
        client_objs: list[Client] = []
        clients_at: list[list[Client]] = [[] for _ in range(n)]
        load = [0] * n
        for c in clients:
            if not isinstance(c, Client):
                c = Client(int(c[0]), int(c[1]))
            node = c.node
            if not (0 <= node < n):
                raise WorkloadError(
                    f"client references unknown internal node {node}"
                )
            client_objs.append(c)
            clients_at[node].append(c)
            load[node] += c.requests

        # Post-order as the reverse of a pre-order that visits children
        # last-first; also detects cycles/unreachable nodes (every node
        # must be visited exactly once from the root).
        post: list[int] = []
        depth = [0] * n
        stack = [root]
        while stack:
            v = stack.pop()
            post.append(v)
            kids = children[v]
            if kids:
                d = depth[v] + 1
                for c in kids:
                    depth[c] = d
                stack.extend(kids)
        if len(post) != n:
            raise TreeStructureError(
                f"parent vector is not a single tree: reached {len(post)} of "
                f"{n} nodes from the root (cycle or disconnected component)"
            )
        post.reverse()

        post_arr = np.asarray(post, dtype=np.int64)
        post_index = np.empty(n, dtype=np.int64)
        post_index[post_arr] = np.arange(n, dtype=np.int64)

        # Subtree aggregates, excluding the node itself for internal counts
        # (matching the (e, n) table convention of Algorithm 3) but including
        # it for request totals.
        sub_internal = [0] * n
        sub_requests = list(load)
        for v in post:
            p = parent_list[v]
            if p is not None:
                sub_internal[p] += sub_internal[v] + 1
                sub_requests[p] += sub_requests[v]

        self._parents = tuple(parent_list)
        self._children = tuple(tuple(cs) for cs in children)
        self._root = root
        self._clients = tuple(client_objs)
        self._clients_at = tuple(tuple(cs) for cs in clients_at)
        self._client_load = np.asarray(load, dtype=np.int64)
        self._post_order = post_arr
        self._post_index = post_index
        self._depth = np.asarray(depth, dtype=np.int64)
        self._subtree_internal = np.asarray(sub_internal, dtype=np.int64)
        self._subtree_requests = np.asarray(sub_requests, dtype=np.int64)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of internal nodes (``N`` in the paper)."""
        return len(self._parents)

    @property
    def root(self) -> int:
        """Identifier of the root node ``r``."""
        return self._root

    @property
    def clients(self) -> tuple[Client, ...]:
        """All clients, in insertion order."""
        return self._clients

    @property
    def n_clients(self) -> int:
        return len(self._clients)

    @property
    def total_requests(self) -> int:
        """Sum of all client requests in the tree."""
        return int(self._subtree_requests[self._root])

    def parent(self, v: int) -> int | None:
        """Parent of ``v`` (``None`` for the root)."""
        return self._parents[v]

    def children(self, v: int) -> tuple[int, ...]:
        """Internal children of ``v`` in construction order."""
        return self._children[v]

    def clients_at(self, v: int) -> tuple[Client, ...]:
        """Clients directly attached to ``v``."""
        return self._clients_at[v]

    def client_load(self, v: int) -> int:
        """Aggregated requests of clients directly attached to ``v``."""
        return int(self._client_load[v])

    @property
    def client_loads(self) -> np.ndarray:
        """Read-only ``int64`` array of per-node direct client loads."""
        view = self._client_load.view()
        view.flags.writeable = False
        return view

    def depth(self, v: int) -> int:
        """Edge distance from the root (root has depth 0)."""
        return int(self._depth[v])

    @property
    def height(self) -> int:
        """Maximum node depth."""
        return int(self._depth.max())

    def subtree_internal_count(self, v: int) -> int:
        """Number of internal nodes strictly inside ``subtree_v``.

        Matches the paper's convention where the tables at ``v`` exclude
        ``v`` itself (placement on ``v`` is decided at its parent).
        """
        return int(self._subtree_internal[v])

    def subtree_requests(self, v: int) -> int:
        """Total client requests issued inside ``subtree_v`` (incl. ``v``)."""
        return int(self._subtree_requests[v])

    # ------------------------------------------------------------------
    # traversals
    # ------------------------------------------------------------------
    def post_order(self) -> np.ndarray:
        """Post-order of internal nodes (children before parents)."""
        view = self._post_order.view()
        view.flags.writeable = False
        return view

    def pre_order(self) -> Iterator[int]:
        """Pre-order traversal (parents before children)."""
        stack = [self._root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(self._children[v]))

    def ancestors(self, v: int, *, include_self: bool = False) -> Iterator[int]:
        """Yield ancestors of ``v`` walking up to the root."""
        if include_self:
            yield v
        p = self._parents[v]
        while p is not None:
            yield p
            p = self._parents[p]

    def subtree_nodes(self, v: int, *, include_root: bool = True) -> Iterator[int]:
        """Yield internal nodes of ``subtree_v`` in pre-order."""
        stack = [v]
        first = True
        while stack:
            u = stack.pop()
            if not first or include_root:
                yield u
            first = False
            stack.extend(reversed(self._children[u]))

    def is_ancestor(self, anc: int, v: int) -> bool:
        """True when ``anc`` lies on the path from ``v`` to the root.

        A node is considered an ancestor of itself.
        """
        while v is not None:  # type: ignore[comparison-overlap]
            if v == anc:
                return True
            v = self._parents[v]  # type: ignore[assignment]
        return False

    # ------------------------------------------------------------------
    # derived instances
    # ------------------------------------------------------------------
    def with_clients(
        self,
        clients: Iterable[Client | tuple[int, int]],
        *,
        touched: Iterable[int] | None = None,
    ) -> Tree:
        """Return a tree with identical structure but a new workload.

        ``touched``, when given, must name every node whose attached
        clients differ from this tree's (other nodes keep theirs, in the
        same relative order).  The new tree then shares every structural
        field with this one and updates only the client tuples, the
        touched nodes' loads and the request totals on their root paths,
        instead of rebuilding everything.
        """
        if touched is None:
            return Tree(self._parents, clients, validate=False)
        n = self.n_nodes
        client_objs = [
            c if isinstance(c, Client) else Client(int(c[0]), int(c[1]))
            for c in clients
        ]
        at: dict[int, list[Client]] = {v: [] for v in touched}
        for c in client_objs:
            if not (0 <= c.node < n):
                raise WorkloadError(
                    f"client references unknown internal node {c.node}"
                )
            if c.node in at:
                at[c.node].append(c)
        clients_at = list(self._clients_at)
        load = self._client_load.copy()
        sub_requests = self._subtree_requests.copy()
        parents = self._parents
        for v, cs in at.items():
            clients_at[v] = tuple(cs)
            change = sum(c.requests for c in cs) - int(load[v])
            if change:
                load[v] += change
                u: int | None = v
                while u is not None:
                    sub_requests[u] += change
                    u = parents[u]
        tree = Tree.__new__(Tree)
        tree._parents = parents
        tree._children = self._children
        tree._root = self._root
        tree._clients = tuple(client_objs)
        tree._clients_at = tuple(clients_at)
        tree._client_load = load
        tree._post_order = self._post_order
        tree._post_index = self._post_index
        tree._depth = self._depth
        tree._subtree_internal = self._subtree_internal
        tree._subtree_requests = sub_requests
        return tree

    @property
    def parents(self) -> tuple[int | None, ...]:
        """Parent vector (root entry is ``None``)."""
        return self._parents

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._parents == other._parents and self._clients == other._clients

    def __hash__(self) -> int:
        return hash((self._parents, self._clients))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tree(n_nodes={self.n_nodes}, n_clients={self.n_clients}, "
            f"total_requests={self.total_requests}, height={self.height})"
        )


def _normalize_parents(
    parents: Sequence[int | None] | Mapping[int, int | None],
) -> list[int | None]:
    """Accept either a sequence or a dense ``{node: parent}`` mapping."""
    if isinstance(parents, Mapping):
        n = len(parents)
        missing = [v for v in range(n) if v not in parents]
        if missing:
            raise TreeStructureError(
                f"parent mapping must use contiguous ids 0..{n - 1}; "
                f"missing {missing[:5]}"
            )
        return [parents[v] for v in range(n)]
    return [None if p is None else int(p) for p in parents]
