"""Scalar reference canonicaliser: the oracle for :func:`canonicalize`.

This is the per-node Python implementation that
:func:`repro.batch.canonical.canonicalize` replaced with numpy passes
over a flat layout.  It is kept verbatim so the equivalence tests can
demand that every :class:`~repro.batch.canonical.Canonical` field,
hence every digest and every mapped-back witness, stays byte-identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.batch.canonical import Canonical
from repro.tree.model import Tree
from repro.tree.validate import check_preexisting


def canonicalize_reference(
    tree: Tree, preexisting: Iterable[int] | Mapping[int, int] = ()
) -> Canonical:
    """AHU canonical form computed node by node (see module docstring)."""
    pre_modes = (
        {int(v): int(m) for v, m in preexisting.items()}
        if isinstance(preexisting, Mapping)
        else {int(v): 0 for v in preexisting}
    )
    check_preexisting(tree, pre_modes)
    n = tree.n_nodes

    # Group nodes by subtree height so codes can be interned level by
    # level: identical keys only ever occur at one height, and assigning
    # fresh integers in sorted-key order per level is labelling-free.
    heights = [0] * n
    by_height: list[list[int]] = []
    for v in tree.post_order():
        vi = int(v)
        kids = tree.children(vi)
        h = 1 + max((heights[c] for c in kids), default=-1)
        heights[vi] = h
        while len(by_height) <= h:
            by_height.append([])
        by_height[h].append(vi)

    codes = [0] * n
    intern: dict[tuple, int] = {}
    for level in by_height:
        level_keys: dict[int, tuple] = {}
        for vi in level:
            reqs = tuple(sorted(c.requests for c in tree.clients_at(vi)))
            marker = pre_modes.get(vi, -1) + 1
            kids = tuple(sorted(codes[c] for c in tree.children(vi)))
            level_keys[vi] = (reqs, marker, kids)
        for key in sorted(set(level_keys.values())):
            if key not in intern:
                intern[key] = len(intern)
        for vi in level:
            codes[vi] = intern[level_keys[vi]]

    # Canonical numbering: pre-order, children in ascending code order.
    # Identically coded siblings root isomorphic annotated subtrees, so
    # any order between them yields the same canonical instance.
    order: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(
            sorted(tree.children(v), key=codes.__getitem__, reverse=True)
        )

    to_canon = [0] * n
    for canon_id, orig in enumerate(order):
        to_canon[orig] = canon_id
    parents: list[int | None] = [None] * n
    for canon_id, orig in enumerate(order):
        p = tree.parent(orig)
        parents[canon_id] = None if p is None else to_canon[p]

    clients = tuple(
        sorted((to_canon[c.node], c.requests) for c in tree.clients)
    )
    canon_modes = tuple(
        sorted((to_canon[v], m) for v, m in pre_modes.items())
    )
    return Canonical(
        parents=tuple(parents),
        clients=clients,
        preexisting=tuple(v for v, _ in canon_modes),
        preexisting_modes=canon_modes,
        to_canonical=tuple(to_canon),
        from_canonical=tuple(order),
    )
