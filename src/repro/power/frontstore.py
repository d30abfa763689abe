"""Cross-solve retention of per-subtree DP fronts (live sessions).

Both Pareto-DP kernels already share computed ``(node, flow)`` tables
*within* one solve through the labelled-AHU memo
(:func:`repro.batch.canonical.labelled_subtree_codes`): equal
``table_keys`` mean equal tables.  A :class:`FrontStore` extends that
contract *across* solves — the incremental re-solve engine
(:mod:`repro.dynamics.incremental`) applies a delta to a tree, re-solves,
and every subtree the delta did not touch is answered from the store
instead of being recomputed, so per-delta work collapses to the root
path of the edit plus cheap bookkeeping.

Four design points make this sound and cheap:

* **One intern table per store.**  ``labelled_subtree_codes`` ids are
  only comparable within the call that produced them; the store passes
  its own persistent ``intern`` dict into every relabelling (and into
  the incremental :meth:`FrontStore.advance_codes` path), so a table
  key means the same annotated subtree in *every* solve the store has
  seen.  Content addressing then makes invalidation implicit: a delta
  that changes a subtree changes its key, the lookup misses, and the
  subtree is recomputed — stale entries can never be returned, no
  matter what is (or is not) evicted.
* **Lazy isomorphisms.**  A hit at node ``v`` aliases the stored
  representative's front verbatim; mapping the representative's node
  ids onto the local ones is deferred behind :class:`LazyIso` (a
  mapping-like object built on first subscript), so serving a hit is
  O(fronts), not O(subtree) — the property that keeps per-delta latency
  sublinear in tree size when only a root path is recomputed.
* **Child-prefix accumulators.**  A node's table is a left fold over its
  children in construction order, and the accumulator after the first
  ``i`` children depends only on the node's load and the ordered *full*
  codes of those children (the full code carries the pre-mode marker,
  which prices placing a replica on the child).  The array kernel
  interns that as a prefix key, ``("prefix", prev_key, code(child))``
  chained from a per-load base, and publishes each accumulator as an
  ordinary :class:`StoreEntry` with :attr:`StoreEntry.prefix` set to
  the number of children it covers.  A delta that changes one child
  then resumes the fold from the longest retained prefix before it
  (:meth:`FrontStore.longest_prefix`) instead of re-merging every
  sibling.  A prefix hit is aliased like a table hit, through a lazy
  isomorphism that pairs the ordered prefix children position by
  position and then descends with :func:`cross_tree_iso` — never by
  node identity: a batch that swaps loads between two leaves keeps the
  child's code but moves the nodes, so identity-keyed provenance would
  reproduce the right ``(cost, power)`` pairs with wrong placements.
  Prefix lookups are counted in :attr:`FrontStore.prefix_hits`, apart
  from the table :attr:`~FrontStore.hits`/:attr:`~FrontStore.misses`.
* **Budgeted retention.**  Entries idle for :attr:`FrontStore.max_idle`
  generations are evicted at solve end, and blowing the entry/label/
  provenance budgets triggers a full :meth:`FrontStore.reset` (the next
  solve is cold).  Prefix entries share the same budgets and eviction.
  Eviction is *only* a memory policy: correctness never depends on what
  is retained, because lookups are content-keyed.

The store is kernel-specific (``"tuple"`` rows vs ``"array"`` columnar
fronts are not interchangeable) and the kernels refuse a store built
for the other engine.  Served frontiers are byte-identical to cold
solves: aliased fronts carry exactly the representative's ``(g, p)``
values in canonical order, and every per-bucket dominance sweep is a
function of the candidate *multiset* only (pinned by
``tests/dynamics/test_incremental.py`` against both kernels).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.exceptions import ConfigurationError
from repro.tree.model import Tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.canonical import SubtreeCodes

__all__ = ["FrontStore", "LazyIso", "StoreEntry", "cross_tree_iso"]

#: Kernel names a store may be bound to (mirrors repro.power.kernels,
#: imported lazily to avoid a module cycle).
_KERNEL_NAMES = ("array", "tuple")


def cross_tree_iso(
    src_tree: Tree,
    src_codes: Sequence[int],
    src: int,
    dst_tree: Tree,
    dst_codes: Sequence[int],
    dst: int,
    prefix: int = 0,
) -> dict[int, int]:
    """Isomorphism between equal-code subtrees of two trees.

    The two code sequences must come from one shared intern table (the
    store guarantees this), so equal codes identify isomorphic annotated
    subtrees across trees; pairing child lists sorted by code yields a
    load- and pre-mode-preserving bijection exactly as the within-solve
    :func:`repro.power.dp_power_pareto._subtree_iso` does.

    ``prefix > 0`` maps a child-prefix accumulator instead: only the
    first ``prefix`` children of ``src`` and ``dst`` are paired, position
    by position (their ordered full codes are equal by the prefix key).
    """
    mapping: dict[int, int] = {}
    if prefix:
        mapping[src] = dst
        stack = list(
            zip(
                src_tree.children(src)[:prefix],
                dst_tree.children(dst)[:prefix],
                strict=True,
            )
        )
    else:
        stack = [(src, dst)]
    get_a = src_codes.__getitem__
    get_b = dst_codes.__getitem__
    while stack:
        a, b = stack.pop()
        mapping[a] = b
        ka = src_tree.children(a)
        if ka:
            kb = dst_tree.children(b)
            if len(ka) == 1:
                stack.append((ka[0], kb[0]))
            else:
                stack.extend(
                    zip(
                        sorted(ka, key=get_a),
                        sorted(kb, key=get_b),
                        strict=True,
                    )
                )
    return mapping


class LazyIso:
    """Mapping-like view of a cross-tree isomorphism, built on demand.

    Placement reconstruction subscripts isos one node at a time
    (``node = iso[node]``), so a ``__getitem__`` that materialises the
    full map on first use slots into both kernels' existing walks.  A
    hit whose placement is never reconstructed pays O(1).
    """

    __slots__ = (
        "_src_tree",
        "_src_codes",
        "_src_node",
        "_dst_tree",
        "_dst_codes",
        "_dst_node",
        "_prefix",
        "_map",
    )

    def __init__(
        self,
        src_tree: Tree,
        src_codes: Sequence[int],
        src_node: int,
        dst_tree: Tree,
        dst_codes: Sequence[int],
        dst_node: int,
        prefix: int = 0,
    ) -> None:
        self._src_tree = src_tree
        self._src_codes = src_codes
        self._src_node = src_node
        self._dst_tree = dst_tree
        self._dst_codes = dst_codes
        self._dst_node = dst_node
        self._prefix = prefix
        self._map: dict[int, int] | None = None

    def __getitem__(self, v: int) -> int:
        m = self._map
        if m is None:
            m = self._map = cross_tree_iso(
                self._src_tree,
                self._src_codes,
                self._src_node,
                self._dst_tree,
                self._dst_codes,
                self._dst_node,
                self._prefix,
            )
        return m[v]


class StoreEntry:
    """One retained subtree table (immutable once published).

    ``prefix`` is 0 for a node's full table and ``i > 0`` for the
    accumulator over the node's first ``i`` children.
    """

    __slots__ = (
        "key", "tree", "codes", "node", "table", "n_labels", "last_gen", "prefix"
    )

    def __init__(
        self,
        key: int,
        tree: Tree,
        codes: Sequence[int],
        node: int,
        table: Mapping[int, Any],
        n_labels: int,
        last_gen: int,
        prefix: int = 0,
    ) -> None:
        self.key = key
        self.tree = tree
        self.codes = codes
        self.node = node
        self.table = table
        self.n_labels = n_labels
        self.last_gen = last_gen
        self.prefix = prefix


class FrontStore:
    """Retained per-subtree fronts shared across solves of one session.

    Parameters
    ----------
    kernel:
        ``"array"`` or ``"tuple"`` — the engine whose table layout the
        store holds; the kernels validate the binding.
    max_entries / max_labels:
        Retention budgets (table count / total labels across tables).
        Exceeding either at solve end triggers :meth:`reset`.
    max_idle:
        Entries not hit or published for this many solves are evicted
        at solve end (generation LRU).
    max_log_entries:
        Array-kernel provenance-log length budget; the shared log only
        grows while the store lives, so blowing it also resets.

    Attributes of note: :attr:`epoch` increments on every reset so
    session layers can detect that retained state (including the shared
    intern table) was dropped; :attr:`prov` is the array kernel's
    persistent provenance log (``None`` until first array solve, and
    owned here so aliases published in one solve stay resolvable in
    later ones).
    """

    def __init__(
        self,
        kernel: str,
        *,
        max_entries: int = 65536,
        max_labels: int = 5_000_000,
        max_idle: int = 64,
        max_log_entries: int = 4_000_000,
    ) -> None:
        if kernel not in _KERNEL_NAMES:
            raise ConfigurationError(
                f"unknown front-store kernel {kernel!r}; expected one of "
                f"{sorted(_KERNEL_NAMES)}"
            )
        if max_entries < 1 or max_labels < 1 or max_idle < 1:
            raise ConfigurationError(
                "front-store budgets must be positive "
                f"(max_entries={max_entries}, max_labels={max_labels}, "
                f"max_idle={max_idle})"
            )
        self.kernel = kernel
        self.max_entries = max_entries
        self.max_labels = max_labels
        self.max_idle = max_idle
        self.max_log_entries = max_log_entries
        self._intern: dict[tuple, int] = {}
        self._entries: dict[int, StoreEntry] = {}
        self._labels_retained = 0
        self._gen = 0
        #: Array-kernel provenance log, owned across solves (see class
        #: docstring); typed loosely to keep this module import-light.
        self.prov: Any = None
        # Codes of the store's *current* tree (the one solves run on).
        self._codes_tree: Tree | None = None
        self._codes_pre: dict[int, int] = {}
        self._codes_sub: SubtreeCodes | None = None
        # Counters (monotonic except epoch-scoped ones).
        self.hits = 0
        self.misses = 0
        self.prefix_hits = 0
        self.published = 0
        self.evictions = 0
        self.resets = 0
        self.epoch = 0

    # ------------------------------------------------------------------
    # code management (one shared intern table)
    # ------------------------------------------------------------------
    def codes_for(
        self, tree: Tree, preexisting: Iterable[int] | Mapping[int, int] = ()
    ) -> SubtreeCodes:
        """Subtree codes of ``tree`` under the store's intern table.

        Answered from the registered current codes when ``(tree, pre)``
        is unchanged; otherwise relabels from scratch (sharing the
        intern table keeps the resulting keys comparable with every
        retained entry).
        """
        from repro.batch.canonical import (
            _normalize_preexisting,
            labelled_subtree_codes,
        )

        pre_modes = _normalize_preexisting(preexisting)
        if (
            self._codes_sub is not None
            and self._codes_tree is tree
            and self._codes_pre == pre_modes
        ):
            return self._codes_sub
        sub = labelled_subtree_codes(tree, pre_modes, intern=self._intern)
        self._codes_tree = tree
        self._codes_pre = pre_modes
        self._codes_sub = sub
        return sub

    def advance_codes(
        self,
        new_tree: Tree,
        preexisting: Iterable[int] | Mapping[int, int],
        dirty: Iterable[int],
    ) -> SubtreeCodes:
        """Incrementally relabel after a delta touching ``dirty`` nodes.

        ``dirty`` must contain every node whose *own* code inputs
        changed: the attachment node of each client edit, and both the
        old and the new parent of a migrated subtree.  Everything else
        that can change is an ancestor of a dirty node (a node's key
        embeds its children's codes and nothing deeper), so recomputing
        the union of root paths, children before parents, reproduces
        exactly what a from-scratch relabelling under the same intern
        table would assign — pinned by the incremental test suite.

        Falls back to a full :meth:`codes_for` when no current codes
        are registered (first solve, or right after a :meth:`reset`).
        """
        from repro.batch.canonical import SubtreeCodes, _normalize_preexisting

        pre_modes = _normalize_preexisting(preexisting)
        old = self._codes_sub
        if (
            old is None
            or self._codes_tree is None
            or self._codes_pre != pre_modes
            or new_tree.n_nodes != len(old.codes)
        ):
            return self.codes_for(new_tree, pre_modes)
        codes = list(old.codes)
        keys = list(old.table_keys)
        affected: set[int] = set()
        parents = new_tree.parents
        for v in dirty:
            u: int | None = int(v)
            while u is not None and u not in affected:
                affected.add(u)
                u = parents[u]
        intern = self._intern
        loads = new_tree.client_loads
        children = new_tree.children
        depth = new_tree.depth
        # Deepest first: an affected node's affected children are
        # strictly deeper, so their codes are final when the parent's
        # key is rebuilt.  The loop body mirrors labelled_subtree_codes.
        for vi in sorted(affected, key=lambda v: (depth(v), v), reverse=True):
            kids_nodes = children(vi)
            kids = (
                tuple(sorted(codes[c] for c in kids_nodes)) if kids_nodes else ()
            )
            load = int(loads[vi])
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
        sub = SubtreeCodes(codes=tuple(codes), table_keys=tuple(keys))
        self._codes_tree = new_tree
        self._codes_pre = pre_modes
        self._codes_sub = sub
        return sub

    # ------------------------------------------------------------------
    # solve-scoped API (called by the kernels)
    # ------------------------------------------------------------------
    def begin_solve(self, kernel: str) -> None:
        """Open one solve generation; validates the kernel binding."""
        if kernel != self.kernel:
            raise ConfigurationError(
                f"front store is bound to the {self.kernel!r} kernel but the "
                f"{kernel!r} kernel was invoked with it; table layouts are "
                "not interchangeable"
            )
        self._gen += 1

    def lookup(self, key: int) -> StoreEntry | None:
        """Retained table for ``key`` (bumps its generation) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entry.last_gen = self._gen
        self.hits += 1
        return entry

    def make_iso(
        self, entry: StoreEntry, tree: Tree, codes: Sequence[int], dst: int
    ) -> LazyIso:
        """Deferred isomorphism mapping ``entry``'s subtree onto ``dst``."""
        return LazyIso(
            entry.tree, entry.codes, entry.node, tree, codes, dst, entry.prefix
        )

    def publish(
        self,
        key: int,
        tree: Tree,
        codes: Sequence[int],
        node: int,
        table: Mapping[int, Any],
        n_labels: int,
        prefix: int = 0,
    ) -> None:
        """Retain one computed table (first publication of a key wins).

        ``prefix > 0`` publishes the accumulator over ``node``'s first
        ``prefix`` children under a :meth:`prefix_key`.
        """
        if key in self._entries:
            return
        self._entries[key] = StoreEntry(
            key, tree, codes, node, table, n_labels, self._gen, prefix
        )
        self._labels_retained += n_labels
        if not prefix:
            self.published += 1

    def prefix_key(self, prev: int, code: int) -> int:
        """Key of an accumulator extended by one child of full code ``code``.

        ``prev`` is the key of the shorter prefix, or ``-1 - load`` for
        the bare accumulator of a node with direct load ``load`` (intern
        ids are non-negative, so the bases never collide with them).
        """
        key = ("prefix", prev, code)
        k = self._intern.get(key)
        if k is None:
            k = self._intern[key] = len(self._intern)
        return k

    def longest_prefix(
        self, load: int, child_codes: Iterable[int]
    ) -> tuple[int, int, StoreEntry | None]:
        """Longest retained accumulator over a prefix of ``child_codes``.

        Returns ``(length, key, entry)`` — ``(0, -1 - load, None)`` when
        no prefix is retained.  A hit bumps the entry's generation and
        :attr:`prefix_hits`; table :attr:`hits`/:attr:`misses` are not
        touched.  Nothing is interned: a key absent from the intern table
        was never published, and neither was any longer one.
        """
        intern = self._intern
        prev = -1 - load
        known: list[int] = []
        for code in child_codes:
            k = intern.get(("prefix", prev, code))
            if k is None:
                break
            known.append(k)
            prev = k
        entries = self._entries
        for length in range(len(known), 0, -1):
            entry = entries.get(known[length - 1])
            if entry is not None:
                entry.last_gen = self._gen
                self.prefix_hits += 1
                return length, known[length - 1], entry
        return 0, -1 - load, None

    def end_solve(self) -> None:
        """Close a solve: evict idle entries, enforce retention budgets."""
        horizon = self._gen - self.max_idle
        if horizon > 0:
            for key in [
                k for k, e in self._entries.items() if e.last_gen < horizon
            ]:
                self._labels_retained -= self._entries.pop(key).n_labels
                self.evictions += 1
        prov_len = 0 if self.prov is None else len(self.prov.kind)
        if (
            len(self._entries) > self.max_entries
            or self._labels_retained > self.max_labels
            or prov_len > self.max_log_entries
        ):
            self.reset()

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every retained structure; the next solve runs cold.

        The intern table goes too (alias chains and code ids reference
        it transitively), so the epoch bump tells session layers their
        cached codes are no longer comparable with future ones.
        """
        self._entries.clear()
        self._labels_retained = 0
        self._intern = {}
        self.prov = None
        self._codes_tree = None
        self._codes_pre = {}
        self._codes_sub = None
        self.resets += 1
        self.epoch += 1

    def release(self) -> None:
        """Release all retained tables (terminal; used by session close)."""
        self.reset()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def labels_retained(self) -> int:
        """Total labels across retained tables (budget accounting)."""
        return self._labels_retained

    def snapshot(self) -> dict[str, int]:
        """Counter snapshot for stats plumbing (JSON-able)."""
        return {
            "entries": len(self._entries),
            "labels_retained": self._labels_retained,
            "intern_size": len(self._intern),
            "hits": self.hits,
            "misses": self.misses,
            "prefix_hits": self.prefix_hits,
            "published": self.published,
            "evictions": self.evictions,
            "resets": self.resets,
            "epoch": self.epoch,
            "generation": self._gen,
        }
