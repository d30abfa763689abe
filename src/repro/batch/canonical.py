"""Canonical forms and content-addressed digests for solver instances.

Replica-placement traffic is dominated by *structurally identical* requests:
the same tree shape solved against many request vectors, or the same
instance resubmitted under a different node labelling (the paper's
experiment campaigns themselves re-solve a handful of tree families
thousands of times).  To dedupe such traffic the batch layer needs a
canonical form that is invariant under relabelling of internal nodes.

The canonicalisation is the classical AHU rooted-tree encoding extended
with per-node annotations, with subtree codes *interned to integers*:

* each node's annotation is the sorted multiset of its direct client
  request counts plus a pre-existing-server marker (``0`` for plain
  nodes, ``1 + old_mode`` for pre-existing servers, so an unmoded
  pre-existing set is exactly the all-modes-0 case);
* nodes are processed level by level (by subtree height, leaves first);
  a node's key is ``(annotation, sorted child codes)`` and every *new*
  key in a level is assigned the next integer code in sorted key order.
  Because identical keys can only occur at one height, and the sorted
  assignment within a level is label-free, two isomorphic annotated
  trees receive identical code tables — by induction over heights;
* the canonical node numbering is the pre-order walk that visits
  children in ascending code order; siblings with equal codes (roots of
  isomorphic annotated subtrees) are visited in *descending* node id
  order.  The tie rule changes no canonical instance, but it fixes
  :attr:`Canonical.to_canonical`, hence which original node a mapped-back
  witness names, so it is part of the contract.

Interning keeps the encoding near-linear: the original string encoding
concatenated child codes, which is O(N²) characters on path-shaped trees
(``benchmarks/bench_canonical_deep.py`` guards the regression).

:func:`canonicalize` runs on a flat layout of the tree.  Numpy does the
per-node work once per tree: each node's annotation becomes one integer
ordered like the annotation tuple (a node's load stands for its request
tuple unless some node has several clients); a leaf's code is its
annotation integer; non-root leaves are sorted by parent, code and
descending id, which gives both every node's sorted leaf-child codes
(one flat list sliced per parent) and the leaves' places in the
pre-order; and the output tuples are built from whole arrays.  Only the
internal nodes go through Python: one pass for subtree sizes and
heights, one over the levels for their codes (a one-node level, as on
a path, takes the next code without building a key), and one top-down
pass that places each internal child after its parent's leaf children
and its earlier siblings' subtrees.  Codes are order-isomorphic to the
interned codes above rather than equal to them (internal codes start
above the largest leaf code), which is all the sibling order and the
key comparisons see.  The scalar per-node version is kept as the test
oracle (``tests/batch/_canonical_oracle.py``), and every field of the
result must equal it.

Two instances receive the same digest **iff** there is a tree isomorphism
mapping one onto the other that preserves client workloads and the
pre-existing set (including old modes, when given as a mapping) — so a
cached solution for one can be relabelled into a solution for the other
via :attr:`Canonical.from_canonical`.

The digest additionally covers the solver parameters a policy's solution
set actually consumes — capacity, cost model, power model, modal cost
model — as declared by the policy (:mod:`repro.batch.registry`), so
distinct questions about the same tree never collide while equivalent
questions share one record.

:func:`routing_key` is the digest's cheap shadow for the cluster router:
a hash of relabelling-invariant per-node counts, read straight from the
request dict, that is equal whenever the digest is.  The router places
requests by it, so the owning worker's :func:`canonicalize` is the only
one a request pays for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.costs import UniformCostModel
from repro.tree.model import Tree
from repro.tree.validate import check_preexisting

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.costs import ModalCostModel
    from repro.power.modes import PowerModel

__all__ = [
    "Canonical",
    "SubtreeCodes",
    "UnkeyableInstanceError",
    "canonicalize",
    "instance_digest",
    "labelled_subtree_codes",
    "relabel_tree",
    "routing_key",
]

#: Bumped to 2 when AHU codes switched from strings to interned integers
#: (the child ordering, hence the canonical numbering, changed) and the
#: digest grew optional power-model fields.  Old records can never be
#: returned: they are keyed by old-schema digests no new request computes.
_DIGEST_SCHEMA = 2

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Canonical:
    """Canonical form of a ``(tree, pre-existing)`` pair.

    Attributes
    ----------
    parents:
        Canonical parent vector; entry 0 is the root and every parent id
        is smaller than its child's (pre-order property).
    clients:
        Sorted ``(canonical node, requests)`` pairs.
    preexisting:
        Sorted canonical ids of the pre-existing servers.
    preexisting_modes:
        Sorted ``(canonical node, old mode)`` pairs; mode 0 for every
        server when the pre-existing set was given as a plain iterable.
    to_canonical:
        ``to_canonical[original_id] == canonical_id``.
    from_canonical:
        Inverse permutation of :attr:`to_canonical`.
    """

    parents: tuple[int | None, ...]
    clients: tuple[tuple[int, int], ...]
    preexisting: tuple[int, ...]
    preexisting_modes: tuple[tuple[int, int], ...]
    to_canonical: tuple[int, ...]
    from_canonical: tuple[int, ...]

    def map_back(self, canonical_nodes: Iterable[int]) -> frozenset[int]:
        """Translate canonical node ids into the instance's original ids."""
        return frozenset(self.from_canonical[v] for v in canonical_nodes)


def _normalize_preexisting(
    preexisting: Iterable[int] | Mapping[int, int],
) -> dict[int, int]:
    """Coerce either pre-existing shape to the ``{node: old_mode}`` form."""
    return (
        {int(v): int(m) for v, m in preexisting.items()}
        if isinstance(preexisting, Mapping)
        else {int(v): 0 for v in preexisting}
    )


def _annotate(req_rank: np.ndarray, nodes: list[int], modes: list[int]) -> np.ndarray:
    """One ``int64`` per node, ordered and equal like the pair (request
    rank, marker), the marker being 0 for plain nodes and ``1 + mode``
    for the pre-existing ``nodes``.

    ``req_rank`` is non-negative.  Markers are replaced by their dense
    ranks, and request ranks too large to pack beside them by theirs.
    """
    markers = sorted({0, *(m + 1 for m in modes)})
    width = len(markers)
    if width == 1:
        return req_rank
    if (int(req_rank.max()) + 1) * width > _INT64_MAX:
        req_rank = np.unique(req_rank, return_inverse=True)[1].reshape(-1)
    rank = {m: i for i, m in enumerate(markers)}
    plain = rank[0]
    ann = req_rank * width + plain
    ann[nodes] += [rank[m + 1] - plain for m in modes]
    return ann


def canonicalize(
    tree: Tree, preexisting: Iterable[int] | Mapping[int, int] = ()
) -> Canonical:
    """Compute the relabelling-invariant canonical form of an instance.

    ``preexisting`` is either a plain iterable of node ids (the MinCost
    shape) or a ``{node: old_mode}`` mapping (the power shape); a plain
    set canonicalises exactly like the all-modes-0 mapping.
    """
    pre_modes = _normalize_preexisting(preexisting)
    check_preexisting(tree, pre_modes)
    n = tree.n_nodes
    parent_list = list(tree.parents)
    parent_list[tree.root] = -1
    par = np.fromiter(parent_list, dtype=np.int64, count=n)
    pre_nodes = list(pre_modes)

    # Annotation: one integer per node ordered and equal like the pair
    # (sorted request tuple, marker).  When every client sits alone on
    # its node (request counts are positive, so the nodes with a load
    # are the client nodes), the load orders the request tuples: ``()``
    # is 0 and ``(r,)`` is r.  Otherwise the distinct tuples of the client
    # nodes are ranked in Python (``()``, the smallest, keeps rank 0).
    load = tree.client_loads
    holders = np.flatnonzero(load)
    if holders.size == tree.n_clients:
        req_rank, c_node, c_req = load, holders, load[holders]
    else:
        clients = tree.clients
        c_node = np.fromiter([c.node for c in clients], np.int64, len(clients))
        c_req = np.fromiter([c.requests for c in clients], np.int64, len(clients))
        tuples = [
            tuple(sorted(c.requests for c in tree.clients_at(v)))
            for v in holders.tolist()
        ]
        rank = {reqs: i for i, reqs in enumerate(sorted({(), *tuples}))}
        req_rank = np.zeros(n, dtype=np.int64)
        req_rank[holders] = [rank[reqs] for reqs in tuples]
    ann = _annotate(req_rank, pre_nodes, list(pre_modes.values()))

    # Leaves: a leaf's code is its annotation.  Non-root leaves are laid
    # out by parent, then code, then id descending (a stable sort of the
    # id-descending list), which is their order in the canonical
    # pre-order; every internal code sorts above every leaf code, so a
    # node's leaf children come first among its children.
    is_child = par >= 0
    is_internal = np.bincount(par[is_child], minlength=n) > 0
    leaves = np.flatnonzero(is_child & ~is_internal)[::-1]
    leaves = leaves[np.lexsort((ann[leaves], par[leaves]))]
    leaf_par = par[leaves]
    n_leaf_kids = np.bincount(leaf_par, minlength=n)
    leaf_start = np.cumsum(n_leaf_kids) - n_leaf_kids
    leaf_codes = ann[leaves].tolist()
    leaf_start_l = leaf_start.tolist()
    n_leaf_l = n_leaf_kids.tolist()

    # Internal nodes, children first: subtree sizes, and heights to
    # group them into levels (a height-h node has a height-(h-1) child,
    # so it comes after the first node of every lower level).
    post = tree.post_order()
    internal = post[is_internal[post]].tolist()
    size = [1] * n
    height = [1] * n
    levels: list[list[int]] = []
    for u in internal:
        size[u] += n_leaf_l[u]
        h = height[u]
        if h > len(levels):
            levels.append([u])
        else:
            levels[h - 1].append(u)
        p = parent_list[u]
        if p >= 0:
            size[p] += size[u]
            if height[p] <= h:
                height[p] = h + 1

    # Internal codes, level by level from the lowest: a node's key is
    # (annotation, sorted child codes), and a level's distinct keys take
    # the next codes in sorted order.  A one-node level needs no key.
    ann_l = ann.tolist()
    next_code = int(ann.max()) + 1
    kid_items: dict[int, list[tuple[int, int]]] = {}
    for level in levels:
        if len(level) == 1:
            level_codes = [next_code]
            next_code += 1
        else:
            keys: list[tuple[int, tuple[int, ...]]] = []
            for u in level:
                s = leaf_start_l[u]
                kids = leaf_codes[s:s + n_leaf_l[u]]
                if u in kid_items:
                    kids += [c for c, _ in sorted(kid_items[u])]
                keys.append((ann_l[u], tuple(kids)))
            ranks = {key: i for i, key in enumerate(sorted(set(keys)), next_code)}
            level_codes = [ranks[key] for key in keys]
            next_code += len(ranks)
        for u, c in zip(level, level_codes):
            p = parent_list[u]
            if p >= 0:
                kid_items.setdefault(p, []).append((c, -u))

    # Canonical numbering: pre-order, siblings by code ascending, ties by
    # node id descending.  After a node's leaf children, each internal
    # child starts where the previous one's subtree ends.
    pre = [0] * n
    for u in reversed(internal):
        if u in kid_items:
            at = pre[u] + 1 + n_leaf_l[u]
            for _, neg in sorted(kid_items[u]):
                pre[-neg] = at
                at += size[-neg]
    to_canon = np.fromiter(pre, dtype=np.int64, count=n)
    to_canon[leaves] = (
        to_canon[leaf_par] + 1 + np.arange(leaves.size) - leaf_start[leaf_par]
    )
    from_canon = np.empty(n, dtype=np.int64)
    from_canon[to_canon] = np.arange(n)

    canon_parents: list[int | None] = [None] * n
    canon_parents[1:] = to_canon[par[from_canon[1:]]].tolist()
    canon_node = to_canon[c_node]
    order = np.lexsort((c_req, canon_node))
    canon_modes = tuple(
        sorted(zip(to_canon[pre_nodes].tolist(), pre_modes.values()))
    )
    return Canonical(
        parents=tuple(canon_parents),
        clients=tuple(zip(canon_node[order].tolist(), c_req[order].tolist())),
        preexisting=tuple(v for v, _ in canon_modes),
        preexisting_modes=canon_modes,
        to_canonical=tuple(to_canon.tolist()),
        from_canonical=tuple(from_canon.tolist()),
    )


@dataclass(frozen=True)
class SubtreeCodes:
    """Per-node labelled AHU subtree codes of one tree.

    Produced by :func:`labelled_subtree_codes`.  Both attributes are
    intern ids: equal values identify isomorphic annotated subtrees
    *within the call that produced them* (ids are assigned in discovery
    order, so they are not comparable across calls or trees — use
    :func:`canonicalize` / :func:`instance_digest` for cross-instance
    identity).

    Attributes
    ----------
    codes:
        ``codes[v]`` interns ``(client load sum at v, pre-marker of v,
        sorted child codes)`` — the full labelled code of ``subtree_v``.
    table_keys:
        ``table_keys[v]`` interns ``(client load sum at v, sorted child
        codes)`` — the code of ``v``'s marker-0 twin, i.e. the same code
        with the node's *own* pre-marker excluded.  This is the
        power-DP *table signature*: the per-flow
        label table of ``subtree_v`` (:mod:`repro.power.dp_power_array`)
        depends on every load and pre-existing mode strictly inside the
        subtree and on ``v``'s own load, but not on whether ``v`` itself
        is pre-existing (placement on ``v`` is decided at its parent), so
        equal ``table_keys`` means the computed tables are equal and can
        be shared within one solve.
    """

    codes: tuple[int, ...]
    table_keys: tuple[int, ...]


def labelled_subtree_codes(
    tree: Tree,
    preexisting: Iterable[int] | Mapping[int, int] = (),
    *,
    intern: dict[tuple, int] | None = None,
) -> SubtreeCodes:
    """Intern the labelled AHU code of every node's subtree.

    The annotation per node is its aggregated direct client load plus
    the pre-existing-server marker (``0`` plain, ``1 + old_mode`` for
    pre-existing servers) — the same marker convention as
    :func:`canonicalize`, but with the client request *sum* instead of
    the multiset: the dynamic programs only ever consume the per-node
    aggregate, so subtrees whose workloads differ only in how one load
    splits across clients still share a code (strictly more sharing
    than the instance-level canonical form allows).

    Interning keeps this near-linear like :func:`canonicalize`: a
    node's key embeds its children's *codes* (not their expansions), so
    identical keys are discovered with one dictionary lookup.  Unlike
    :func:`canonicalize` no level-by-level ordering is needed — equal
    keys imply equal heights by construction, and within-tree equality
    is all the intern ids promise.

    ``intern`` optionally supplies a caller-owned intern table.  Ids
    then stay comparable across *every call sharing that table* — the
    contract the live-session front store
    (:mod:`repro.power.frontstore`) relies on to match subtree tables
    across deltas.  Without it a fresh table is used per call and ids
    are only comparable within that call.
    """
    pre_modes = _normalize_preexisting(preexisting)
    check_preexisting(tree, pre_modes)
    n = tree.n_nodes
    codes = [0] * n
    keys = [0] * n
    if intern is None:
        intern = {}
    loads = tree.client_loads.tolist()
    children = tree.children
    # A node's table_key is the code its marker-0 twin would carry, so one
    # intern table serves both: for plain nodes code == table_key (one
    # lookup), for pre-existing nodes the twin key is interned separately
    # (a twin id never being a real node's code is harmless — only id
    # equality is promised).
    for vi in tree.post_order().tolist():
        kids_nodes = children(vi)
        kids = tuple(sorted(codes[c] for c in kids_nodes)) if kids_nodes else ()
        load = loads[vi]
        marker = pre_modes.get(vi, -1) + 1
        full_key = (load, marker, kids)
        c = intern.get(full_key)
        if c is None:
            c = intern[full_key] = len(intern)
        codes[vi] = c
        if marker:
            twin_key = (load, 0, kids)
            k = intern.get(twin_key)
            if k is None:
                k = intern[twin_key] = len(intern)
            keys[vi] = k
        else:
            keys[vi] = c
    return SubtreeCodes(codes=tuple(codes), table_keys=tuple(keys))


def instance_digest(
    canonical: Canonical,
    capacity: int | None,
    cost_model: UniformCostModel | None,
    solver: str,
    *,
    power_model: PowerModel | None = None,
    modal_cost_model: ModalCostModel | None = None,
    include_pre_modes: bool = False,
) -> str:
    """Content-addressed SHA-256 digest of a canonical solver instance.

    Only the parameters a solver policy's *solution set* consumes belong
    in its digest (:attr:`repro.batch.registry.SolverPolicy.digest_fields`
    makes that call per policy): pass ``cost_model=None`` for policies
    that price solutions only during fan-out (greedy, dp_nopre), and
    ``capacity=None`` for power policies, whose capacity comes from the
    mode set.  ``include_pre_modes`` additionally covers the pre-existing
    servers' old modes (the power shape of the pre-existing set).
    """
    payload: dict = {
        "schema": _DIGEST_SCHEMA,
        "solver": solver,
        "capacity": None if capacity is None else int(capacity),
        "create": None if cost_model is None else cost_model.create,
        "delete": None if cost_model is None else cost_model.delete,
        "parents": canonical.parents,
        "clients": canonical.clients,
        "pre": canonical.preexisting,
    }
    if power_model is not None or modal_cost_model is not None:
        from repro.power.serialize import (
            modal_cost_model_to_dict,
            power_model_to_dict,
        )

        if power_model is not None:
            payload["power"] = power_model_to_dict(power_model)
        if modal_cost_model is not None:
            payload["modal_cost"] = modal_cost_model_to_dict(modal_cost_model)
    if include_pre_modes:
        payload["pre_modes"] = canonical.preexisting_modes
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class UnkeyableInstanceError(ValueError):
    """A raw instance dict that :func:`routing_key` cannot key.

    Raised only by the key's own documented checks (value coercion and
    the parent and node range checks), so a caller that falls back on it
    never hides a defect inside the key computation.
    """


def routing_key(
    raw: Mapping[str, Any],
    solver: str,
    *,
    preexisting: bool = False,
    pre_modes: bool = False,
) -> str:
    """Cheap relabelling-invariant routing key of a raw instance dict.

    Contract: two instances with equal :func:`instance_digest` under one
    policy have equal routing keys, when ``solver`` is that policy's
    digest name, ``preexisting`` says whether its digest covers the
    pre-existing set and ``pre_modes`` whether it covers their old modes
    (the ``include_pre_modes`` of the digest).  The converse does not
    hold: the key only has to spread distinct instances over a hash
    ring, so no :class:`Tree` is built and no AHU code computed.

    The key hashes ``solver``, the sorted per-node rows ``(child count,
    summed direct client load, pre marker)`` and the sorted multiset of
    client request counts, all of which an isomorphism preserves.  The
    pre marker is ``0`` for plain nodes and for every node when
    ``preexisting`` is false, ``1`` for a pre-existing server, and
    ``1 + old_mode`` when ``pre_modes`` is true (servers without an
    explicit mode count as mode 0, as in
    :meth:`~repro.batch.instance.BatchInstance.pre_modes`).

    Values are coerced with ``int()`` like
    :func:`~repro.batch.instance.instance_from_dict`, and node ids are
    range-checked before any array is sized by them.  Raises
    :class:`UnkeyableInstanceError` (a :class:`ValueError`) for a dict
    that cannot be keyed; such a request is malformed and its parser
    reports the real error.
    """
    try:
        tree = raw["tree"]
        parents = [-1 if p is None else int(p) for p in tree["parents"]]
        nodes: list[int] = []
        requests: list[int] = []
        for v, r in tree["clients"]:
            nodes.append(int(v))
            requests.append(int(r))
        pre: list[int] = []
        marks: list[int] = []
        if preexisting:
            raw_modes = raw.get("preexisting_modes")
            if raw_modes is not None:
                for v, m in raw_modes:
                    pre.append(int(v))
                    marks.append(1 + int(m) if pre_modes else 1)
            else:
                pre = [int(v) for v in raw.get("preexisting", ())]
                marks = [1] * len(pre)
        n = len(parents)
        par = np.array(parents, dtype=np.int64)
        node = np.array(nodes, dtype=np.int64)
        req = np.array(requests, dtype=np.int64)
        pre_ids = np.array(pre, dtype=np.int64)
        mark = np.array(marks, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UnkeyableInstanceError(f"instance cannot be keyed: {exc}") from exc
    if n == 0 or par.min() < -1 or par.max() >= n:
        raise UnkeyableInstanceError("instance cannot be keyed: parent out of range")
    for ids in (node, pre_ids):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise UnkeyableInstanceError("instance cannot be keyed: node out of range")
    kids = np.bincount(par[par >= 0], minlength=n)
    load = np.zeros(n, dtype=np.int64)
    np.add.at(load, node, req)  # wraps mod 2**64: still order-independent
    marker = np.zeros(n, dtype=np.int64)
    marker[pre_ids] = mark
    order = np.lexsort((marker, load, kids))
    digest = hashlib.sha256(f"{solver}|{n}|{req.size}|".encode())
    for column in (kids[order], load[order], marker[order], np.sort(req)):
        digest.update(column.astype("<i8").tobytes())
    return digest.hexdigest()


def relabel_tree(
    tree: Tree,
    perm: Sequence[int],
    preexisting: Iterable[int] | Mapping[int, int] = (),
) -> tuple[Tree, frozenset[int]] | tuple[Tree, dict[int, int]]:
    """Apply a node permutation (``perm[old] == new``) to an instance.

    Returns the relabelled tree and pre-existing set — an isomorphic copy
    that must canonicalise to the same digest.  A ``{node: mode}``
    pre-existing mapping is relabelled to a mapping; a plain iterable to
    a frozenset.  Used by the batch tests and the duplicate-heavy
    benchmark workloads.
    """
    n = tree.n_nodes
    if sorted(int(p) for p in perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    parents: list[int | None] = [None] * n
    for old, p in enumerate(tree.parents):
        parents[int(perm[old])] = None if p is None else int(perm[p])
    clients = [(int(perm[c.node]), c.requests) for c in tree.clients]
    relabelled = Tree(parents, clients, validate=False)
    if isinstance(preexisting, Mapping):
        return relabelled, {int(perm[v]): int(m) for v, m in preexisting.items()}
    return relabelled, frozenset(int(perm[v]) for v in preexisting)
