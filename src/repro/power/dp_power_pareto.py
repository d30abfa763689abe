"""MinPower / MinPower-BoundedCost — exact Pareto-label dynamic program.

This is the production engine behind the paper's §4.3 algorithm.  The paper
parameterises per-subtree tables by full count vectors — ``n_j`` new servers
per mode and ``e_{j,j'}`` reused servers per mode change — and minimises the
requests traversing the subtree root for every vector (complexity
``O(N·M·(N-E+1)^{2M}·(E+1)^{2M²})``, Theorem 3).  We observe that a count
vector influences the completion of a partial solution **only** through three
additive quantities:

* ``flow`` — requests leaving the subtree (integer, ``<= W_M``);
* ``g`` — cost accumulated so far, with reuse credited against the deletion
  charge (a reused server contributes ``1 + changed[o][m] - delete[o]``; a
  new one ``1 + create[m]``; the constant ``Σ_E delete[o]`` is re-added at
  the root, recovering Equation 4 exactly);
* ``p`` — power accumulated so far (Equation 3 summands).

Two partial solutions with equal flow and component-wise ordered ``(g, p)``
admit exactly the same completions with ordered totals, so dominated labels
can be discarded: per node we keep, for every flow value, only the Pareto
frontier over ``(g, p)``.  This is exact — it returns the same optima as the
count-vector DP (:mod:`repro.power.dp_power_counts`, cross-checked in the
tests) — and usually exponentially smaller.  Worst-case label growth remains
super-polynomial, as it must, since MinPower is NP-complete (Theorem 2).

Modes are *load-determined* (§2.2: ``W_{i-1} < req_j <= W_i`` ⇒ mode ``i``):
a placed server absorbing flow ``f`` runs at ``mode_of(f)``.  The paper's
pseudo-code loops over all modes with sufficient capacity; under Equation 3
power is strictly increasing in the mode, so only the load-determined mode
can appear in an optimal solution and the loop is redundant (see DESIGN.md).

The solver returns the **entire cost/power frontier**, so a single run
answers every cost-bound query of Experiment 3 (Figures 8–11).

Kernel
------
A label is one flat row tuple ``(g, p, back)``; a (node, flow) front is a
plain list of rows maintaining two invariants:

1. rows are sorted with ``g`` strictly increasing and ``p`` strictly
   decreasing, each step by more than ``_EPS`` (sorted *and* Pareto);
2. ``back`` is the label's provenance, referencing other rows directly —
   ``None`` (base, no placements), ``("m", a, b)`` (merge of two rows),
   ``("x", a, b, node, mode)`` (merge where a replica on ``node`` absorbs
   row ``b``'s flow at ``mode``), or ``("s", rep, iso)`` (memo alias, see
   below).  There is no separate label store: unreachable labels are
   garbage-collected with their tables, and sorts never compare ``back``
   (all candidate sorts key on ``(g, p)`` via :func:`operator.itemgetter`,
   so tie-breaking is deterministic by build order, never by reference).

The merge of a child into the accumulator never materialises the full
``|acc| × |options|`` cross product blindly.  The child's ``pass`` /
``place`` options are virtual (no label is allocated for an option; an
accepted merge row records the child row plus the placement decision
directly), and the bucket-pair work is tiered:

* **identity** — a child whose only completion is the empty flow-0 label at
  a non-negative placement price contributes nothing: the whole merge is
  skipped (``acc`` unchanged).  Empty leaves/subtrees — half the nodes of
  the paper's generators — cost one dict probe.
* **alias** — a label with ``p == 0.0`` provably carries *no placements*
  (every placement adds ``P_static + (W/s)^α > 0`` power), so merging with
  it is the identity on the other operand: the merged row *is* the other
  row, reused verbatim — for whole pass buckets, the row list itself is
  shared.  This collapses first-child merges and pass-only chains (high
  trees) to O(1) per bucket.  (The proof needs every mode power to be
  strictly positive; should ``(W/s)^α`` underflow to 0.0 with zero static
  power, the kernel detects it and disables aliasing for that solve.)
* **shifted copy** — when one operand front is a singleton the product
  inherits the other front's sortedness: the merged front is emitted by
  one comprehension, no sort, no sweep.
* **sort + sweep** — genuinely combinatorial buckets up to
  ``_BRUTE_LIMIT`` candidates materialise and sort the product (a C sort
  beats per-candidate discipline at this size), then apply the ``_EPS``
  dominance sweep.
* **stream merge** — larger products pop candidates from per-row sorted
  streams through a heap in global ``(g, p)`` order; after each pop a
  bisect on the stream's ``p`` column jumps directly to the next candidate
  that could still be accepted under the running best, so dominated
  candidates in between are *never generated at all*.

On top of the merge, the kernel memoizes tables by *labelled AHU subtree
code* (:func:`repro.batch.canonical.labelled_subtree_codes`): the table of
a subtree depends only on its shape, its per-node client-load sums and the
pre-existing modes strictly inside it (plus the root's own load), so two
nodes with equal ``table_keys`` share one computed table.  The second
occurrence is answered without visiting the subtree at all — its labels
are thin ``("s", rep, iso)`` aliases carrying the isomorphism that maps
the representative subtree's node ids onto the local ones, composed during
placement reconstruction.

Tie-breaking is explicit and shared with the count-vector oracle
(:func:`pareto_min_sweep`): candidates are processed in ascending exact
``(primary, secondary)`` order and one is kept iff its secondary value
improves the best seen by more than ``_EPS`` — so of two labels whose ``p``
tie within ``_EPS``, the one with strictly smaller ``g`` (or equal ``g``
and smaller ``p``) survives, deterministically, in every kernel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.stats import ParetoDPStats

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.power.modes import PowerModel
from repro.power.result import (
    FrontierColumns,
    ModalPlacementResult,
    modal_from_replicas,
)
from repro.tree.model import Tree

__all__ = [
    "PowerFrontier",
    "FrontierPoint",
    "pareto_min_sweep",
    "power_frontier",
    "min_power",
    "min_power_bounded_cost",
]

_EPS = 1e-9

#: Sort key for candidate rows: compare (g, p) only — never the provenance
#: references that follow — so ties resolve by build order (stable sort),
#: deterministically.
_GP = itemgetter(0, 1)

#: Cross products up to this size are merged by sort+sweep (a C-speed sort
#: beats per-candidate heap discipline while everything fits in cache);
#: larger ones go through the stream-merging heap whose dominance skips
#: make the work output-sensitive instead of product-sensitive.  Both
#: paths accept exactly the same (g, p) set (see ``pareto_min_sweep``);
#: the split only trades constant factors.
_BRUTE_LIMIT = 1024

#: The shared base label: no flow absorbed yet beyond the node's own
#: clients, no placements, no provenance.  Immutable, hence one instance
#: serves every node of every solve.
_BASE = (0.0, 0.0, None)
_BASE_FRONT = [_BASE]


def pareto_min_sweep(candidates: Iterable[tuple]) -> list[tuple]:
    """Sweep ``(primary, secondary, ...)`` tuples sorted ascending.

    The one shared tie-breaking rule of the power solvers: a candidate is
    kept iff its ``secondary`` (index 1) improves the best seen so far by
    more than ``_EPS``.  Together with exact lexicographic pre-sorting
    this makes the kept set deterministic: among candidates whose
    secondary values tie within ``_EPS``, the first in sort order — the
    strictly cheaper ``primary``, or equal ``primary`` and smaller
    ``secondary`` — survives.  Used for the root frontier here and in
    :mod:`repro.power.dp_power_counts`, so both kernels emit identical
    frontiers by construction.
    """
    kept: list[tuple] = []
    best = float("inf")
    for cand in candidates:
        s = cand[1]
        if s < best - _EPS:
            kept.append(cand)
            best = s
    return kept


def _subtree_iso(
    tree: Tree, codes: Sequence[int], rep: int, dst: int
) -> dict[int, int]:
    """Isomorphism (node map) between two equal-code subtrees.

    Children with equal labelled codes root isomorphic annotated
    subtrees, so pairing the two child lists sorted by code yields a
    load- and pre-mode-preserving bijection regardless of how ties are
    ordered.
    """
    mapping: dict[int, int] = {}
    stack = [(rep, dst)]
    get = codes.__getitem__
    while stack:
        a, b = stack.pop()
        mapping[a] = b
        ka = tree.children(a)
        if ka:
            kb = tree.children(b)
            if len(ka) == 1:
                stack.append((ka[0], kb[0]))
            else:
                stack.extend(
                    zip(sorted(ka, key=get), sorted(kb, key=get), strict=True)
                )
    return mapping


def _merge_slow(
    prs: list[tuple], total: int, child: int
) -> tuple[list[tuple], int, int]:
    """Dominance-aware merge of the genuinely combinatorial buckets.

    ``prs`` holds ``(acc_front, option_front, has_modes)`` operand pairs
    whose products all land on one output flow; fronts satisfy the row
    invariants and ``total`` is the cross-product size.  Option fronts
    are 3-tuple rows for pure pass buckets (``has_modes`` false) or
    ``(g, p, row, mode)`` 4-tuples for the flow-0 bucket (mode ``-1`` =
    pass).  Returns ``(merged_front, generated, rejected)``.  The
    identity/alias/shifted fast paths live inline in
    :func:`power_frontier`.
    """
    out: list[tuple] = []
    best = float("inf")

    if total <= _BRUTE_LIMIT:
        cands: list[tuple] = []
        for front_a, front_b, has_modes in prs:
            if has_modes:
                for arow in front_a:
                    g0 = arow[0]
                    p0 = arow[1]
                    cands += [
                        (g0 + g1, p0 + p1, arow, r1, m1)
                        for g1, p1, r1, m1 in front_b
                    ]
            else:
                for arow in front_a:
                    g0 = arow[0]
                    p0 = arow[1]
                    cands += [
                        (g0 + brow[0], p0 + brow[1], arow, brow, -1)
                        for brow in front_b
                    ]
        cands.sort(key=_GP)
        for g, p, r0, r1, m in cands:
            if p < best - _EPS:
                best = p
                out.append(
                    (g, p, ("m", r0, r1) if m < 0 else ("x", r0, r1, child, m))
                )
        return out, total, total - len(out)

    # Stream merge: one sorted candidate stream per accumulator row, a
    # heap across streams, and a bisect skip past candidates the current
    # best already dominates (they are never generated).
    #
    # A stream's candidates ascend strictly in exact g *before* rounding,
    # but the float sum ``g0 + col_g[bv]`` can collapse a sub-ulp g step
    # to equality — a not-yet-generated successor ``(g, p')`` (possibly
    # from *another* stream whose head shares this g) then belongs before
    # the candidate just popped in global ``(g, p)`` order, yet is not in
    # the heap.  Popping out of order breaks the sweep (a dominated label
    # slips past the running best), so pops are batched per exact g value:
    # the cohort loop drains every equal-g entry, generating successors as
    # it goes (equal-g successors join the cohort transitively), then
    # processes the cohort in p-ascending order exactly as the sorted
    # brute sweep would.
    heap: list[tuple] = []
    seq = 0
    for front_a, front_b, has_modes in prs:
        if not front_b:
            continue
        if has_modes:
            col_g = [r[0] for r in front_b]
            col_p = [r[1] for r in front_b]
            col_r = [r[2] for r in front_b]
            col_m = [r[3] for r in front_b]
        else:
            col_g = [r[0] for r in front_b]
            col_p = [r[1] for r in front_b]
            col_r = list(front_b)
            col_m = None
        neg_p = [-x for x in col_p]
        cols = (col_g, col_p, col_r, col_m, neg_p)
        gb0 = col_g[0]
        pb0 = col_p[0]
        for arow in front_a:
            g0 = arow[0]
            p0 = arow[1]
            heap.append((g0 + gb0, p0 + pb0, seq, g0, p0, arow, 0, cols))
            seq += 1
    heapify(heap)
    generated = seq
    cohort: list[tuple] = []
    while heap:
        g = heap[0][0]
        while heap and heap[0][0] == g:  # repro-lint: ignore[float-eq]
            _, p, s, g0, p0, r0, bv, cols = heappop(heap)
            cohort.append((p, s, r0, bv, cols))
            col_g, col_p, neg_p = cols[0], cols[1], cols[4]
            # Next candidate of this stream that could still be accepted:
            # first bv' > bv with p0 + P[bv'] < best - _EPS.
            nxt = bisect_right(neg_p, p0 - best + _EPS, bv + 1)
            if nxt < len(col_g):
                seq += 1
                generated += 1
                heappush(
                    heap,
                    (g0 + col_g[nxt], p0 + col_p[nxt], seq, g0, p0, r0,
                     nxt, cols),
                )
        if len(cohort) > 1:
            cohort.sort()
        for p, s, r0, bv, cols in cohort:
            if p < best - _EPS:
                best = p
                col_r, col_m = cols[2], cols[3]
                m = -1 if col_m is None else col_m[bv]
                out.append(
                    (g, p, ("m", r0, col_r[bv]) if m < 0
                     else ("x", r0, col_r[bv], child, m))
                )
        cohort.clear()
    return out, generated, generated - len(out)


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated ``(cost, power)`` outcome at the root.

    Points carry either DP provenance (``_label``, a kernel row whose
    ``back`` chain encodes the placement, + ``_root_mode``) or an explicit
    ``_placement`` (the record path used when a frontier is rebuilt from a
    cached record via :meth:`PowerFrontier.from_records`).
    """

    cost: float
    power: float
    _label: tuple | None = None
    _root_mode: int | None = None
    _placement: tuple[tuple[int, int], ...] | None = None

    def placement(self) -> dict[int, int]:
        """Reconstruct the ``{node: mode}`` placement for this point.

        The DP path excludes the root (see :meth:`PowerFrontier
        ._materialise`); the record path returns the full placement.
        Memo aliases are resolved by composing the subtree isomorphisms
        accumulated along the walk (innermost applied first).
        """
        if self._placement is not None:
            return {int(v): int(m) for v, m in self._placement}
        assert self._label is not None
        out: dict[int, int] = {}
        stack: list[tuple[tuple, tuple]] = [(self._label, ())]
        while stack:
            row, maps = stack.pop()
            back = row[2]
            if back is None:
                continue
            tag = back[0]
            if tag == "m":
                stack.append((back[1], maps))
                stack.append((back[2], maps))
            elif tag == "x":
                node = back[3]
                for iso in maps:
                    node = iso[node]
                out[node] = back[4]
                stack.append((back[1], maps))
                stack.append((back[2], maps))
            else:  # "s": memo alias — enter the representative's id space
                stack.append((back[1], (back[2],) + maps))
        return out


class PowerFrontier:
    """Full Pareto frontier of (cost, power) for one instance.

    Points are sorted by increasing cost (hence decreasing power).  The
    frontier answers all bi-criteria queries:

    * :meth:`best_under_cost` — MinPower-BoundedCost for any bound;
    * :meth:`min_power` — the unconstrained MinPower optimum;
    * :meth:`pairs` — raw series for plots (Figures 8–11).

    Bound queries are O(log n) bisects over the sorted point columns —
    frontiers from bound sweeps (``repro batch --bound``) and long-lived
    serve processes answer many queries per solve, so the scan matters.
    """

    def __init__(
        self,
        tree: Tree,
        points: Sequence[FrontierPoint],
        power_model: PowerModel,
        cost_model: ModalCostModel,
        preexisting_modes: Mapping[int, int],
        root_node: int,
        *,
        extra: Mapping[str, object] | None = None,
        columns: FrontierColumns | None = None,
    ) -> None:
        self._tree = tree
        self.points = list(points)
        self._power_model = power_model
        self._cost_model = cost_model
        self._pre = dict(preexisting_modes)
        self._root = root_node
        self.extra: dict[str, object] = dict(extra or {})
        # Columnar backing for the bisect queries (costs ascending,
        # powers descending along the frontier): shared float64 buffers
        # when the caller already has them (the array kernel, a columnar
        # record decode), otherwise built from the points once.
        self.columns = (
            columns
            if columns is not None
            else FrontierColumns.from_pairs(
                [(pt.cost, pt.power) for pt in self.points]
            )
        )

    def __len__(self) -> int:
        return len(self.points)

    def to_records(self) -> list[dict[str, object]]:
        """JSON-able ``[{cost, power, modes}, ...]`` frontier records.

        ``modes`` is the *full* sorted ``[[node, mode], ...]`` placement
        (root included).  Records are relabelling-covariant: mapping the
        node ids through a tree isomorphism yields the frontier of the
        relabelled instance — the property the batch cache relies on.
        """
        records: list[dict[str, object]] = []
        for pt in self.points:
            placement = pt.placement()
            if pt._root_mode is not None:
                placement[self._root] = pt._root_mode
            records.append(
                {
                    "cost": pt.cost,
                    "power": pt.power,
                    "modes": [[v, m] for v, m in sorted(placement.items())],
                }
            )
        return records

    @classmethod
    def from_records(
        cls,
        tree: Tree,
        records: Sequence[Mapping[str, object]],
        power_model: PowerModel,
        cost_model: ModalCostModel,
        preexisting_modes: Mapping[int, int] | None = None,
        *,
        extra: Mapping[str, object] | None = None,
        verify: bool = True,
    ) -> PowerFrontier:
        """Rebuild a frontier from :meth:`to_records` output.

        With ``verify=True`` every point is materialised once, which
        re-verifies each placement against the tree (validity, load
        determined modes) and re-prices it against the given models —
        a corrupted or mis-mapped record raises :class:`SolverError`
        instead of being served.  The frontier ordering invariant
        (costs strictly ascending, powers strictly descending) is also
        checked: the bisect-based bound queries rely on it.
        """
        points = [
            FrontierPoint(
                float(rec["cost"]),  # type: ignore[arg-type]
                float(rec["power"]),  # type: ignore[arg-type]
                None,
                None,
                tuple(
                    (int(v), int(m))
                    for v, m in rec["modes"]  # type: ignore[union-attr]
                ),
            )
            for rec in records
        ]
        frontier = cls(
            tree,
            points,
            power_model,
            cost_model,
            dict(preexisting_modes or {}),
            tree.root,
            extra=extra,
        )
        if verify:
            frontier.columns.validate()
            for pt in frontier.points:
                frontier._materialise(pt)
        return frontier

    def pairs(self) -> list[tuple[float, float]]:
        """Non-dominated ``(cost, power)`` pairs, cost-ascending."""
        return [(pt.cost, pt.power) for pt in self.points]

    def min_cost(self) -> float:
        """Cheapest achievable cost (power is then maximal on the frontier)."""
        return self.points[0].cost

    def best_under_cost(self, cost_bound: float) -> ModalPlacementResult | None:
        """Minimal-power solution with ``cost <= cost_bound`` (or ``None``).

        Power is non-increasing in cost along the frontier, so the answer
        is the *last* frontier point within the bound — found by a
        ``searchsorted`` bisect over the columnar cost buffer.
        """
        idx = self.columns.index_under_cost(cost_bound)
        if idx < 0:
            return None
        return self._materialise(self.points[idx])

    def min_power(self) -> ModalPlacementResult:
        """Unconstrained MinPower optimum (the paper's mono-criterion goal)."""
        return self._materialise(self.points[-1])

    def best_under_power(self, power_bound: float) -> ModalPlacementResult | None:
        """Minimal-cost solution with ``power <= power_bound`` (or ``None``).

        The dual of :meth:`best_under_cost` — the paper's bi-criteria
        problem with the roles of the objectives swapped (a power *cap*
        with a cost objective, e.g. a rack power budget).  Cost is
        non-increasing in allowed power along the frontier, so the answer
        is the first frontier point within the bound — a ``searchsorted``
        bisect over the (negated) columnar power buffer.
        """
        idx = self.columns.index_under_power(power_bound)
        if idx >= len(self.points):
            return None
        return self._materialise(self.points[idx])

    def _materialise(self, pt: FrontierPoint) -> ModalPlacementResult:
        placement = pt.placement()
        if pt._root_mode is not None:
            placement[self._root] = pt._root_mode
        result = modal_from_replicas(
            self._tree,
            placement.keys(),
            self._power_model,
            self._cost_model,
            self._pre,
            extra={"frontier_point": (pt.cost, pt.power)},
        )
        # The reconstruction must reproduce the label's bookkeeping exactly;
        # any drift indicates corrupted DP state.
        if abs(result.cost - pt.cost) > 1e-6 or abs(result.power - pt.power) > 1e-6:
            raise SolverError(
                f"reconstructed solution prices (cost={result.cost}, "
                f"power={result.power}) differ from frontier point "
                f"({pt.cost}, {pt.power})"
            )
        if result.server_modes != placement:
            raise SolverError(
                "load-determined modes of the reconstructed placement differ "
                "from the modes recorded during the DP"
            )
        return result


def power_frontier(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
    *,
    stats: ParetoDPStats | None = None,
    memoize: bool = True,
) -> PowerFrontier:
    """Compute the exact cost/power frontier for an instance.

    Parameters
    ----------
    tree:
        The distribution tree.
    power_model:
        Mode set and Equation-3 parameters.
    cost_model:
        Equation-4 modal cost model; must cover the same number of modes.
    preexisting_modes:
        ``{node: old_mode_index}`` for the pre-existing servers ``E``
        (empty for the NoPre variants).
    stats:
        Optional :class:`repro.perf.ParetoDPStats` collector; accumulates
        label-count statistics with negligible overhead.
    memoize:
        Share tables between subtrees with equal labelled AHU codes (see
        the module docstring).  On by default; disable for ablation —
        the frontier is identical either way.

    Raises
    ------
    InfeasibleError
        When no valid placement exists.
    """
    modes = power_model.modes
    n_modes = modes.n_modes
    if cost_model.n_modes != n_modes:
        raise ConfigurationError(
            f"cost model covers {cost_model.n_modes} modes but the mode set "
            f"has {n_modes}"
        )
    pre = dict(preexisting_modes or {})
    for v, old in pre.items():
        if not (0 <= v < tree.n_nodes):
            raise ConfigurationError(f"pre-existing server {v} is not a tree node")
        if not (0 <= old < n_modes):
            raise ConfigurationError(
                f"pre-existing server {v} has invalid mode {old}"
            )
    w_max = modes.max_capacity
    caps = modes.capacities

    # Placement price tables: a replica at mode m adds mode_power[m] power
    # and 1 + create[m] cost on a fresh node, or 1 + changed[o][m] -
    # delete[o] on a pre-existing one (reuse credited against the deletion
    # charge re-added at the root).  mode_of(flow) is bisect_left(caps, f).
    mode_power = [power_model.mode_power(m) for m in range(n_modes)]
    create_dg = [1.0 + cost_model.create[m] for m in range(n_modes)]
    reuse_dg = {
        old: [
            1.0 + cost_model.changed[old][m] - cost_model.delete[old]
            for m in range(n_modes)
        ]
        for old in set(pre.values())
    }

    # The alias fast paths rest on "p == 0.0 implies no placements",
    # which is only sound while every mode's power is strictly positive:
    # extreme alpha/capacity_scale combinations can underflow
    # ``(W/s)^alpha`` to exactly 0.0 with zero static power.  In that
    # (degenerate) regime the sentinel is unmatchable (-1.0: label powers
    # are never negative), which disables aliasing and routes everything
    # through the always-correct shifted/sort paths.
    alias_p = 0.0 if all(mp > 0.0 for mp in mode_power) else -1.0

    codes: Sequence[int] = ()
    table_keys: Sequence[int] = ()
    memo: dict[int, tuple[int, dict]] = {}
    recurring: set[int] = set()
    if memoize:
        from collections import Counter

        from repro.batch.canonical import cached_subtree_codes

        sub = cached_subtree_codes(tree, pre)
        codes, table_keys = sub.codes, sub.table_keys
        # Retain computed tables only for table keys that can actually
        # recur — on trees without repeated structure the memo would
        # otherwise pin every internal node's fronts until the solve
        # ends, instead of freeing them as the DFS unwinds.
        key_counts = Counter(
            table_keys[v] for v in range(tree.n_nodes) if tree.children(v)
        )
        recurring = {key for key, count in key_counts.items() if count > 1}

    merges = 0
    labels_created = 0
    labels_generated = 0
    merge_rejected_n = 0
    memo_hits = 0
    memo_misses = 0
    memo_shared = 0

    children = tree.children
    loads = tree.client_loads.tolist()
    tables: list[dict[int, list] | None] = [None] * tree.n_nodes

    # Explicit DFS (not post_order): a memo hit at a subtree root answers
    # the whole subtree without ever visiting its interior.
    stack: list[int] = [tree.root]
    while stack:
        j = stack.pop()
        if j >= 0:
            kids = children(j)
            if kids and memoize:
                hit = memo.get(table_keys[j])
                if hit is not None:
                    rep, rep_table = hit
                    iso = _subtree_iso(tree, codes, rep, j)
                    table: dict[int, list] = {
                        f: [
                            (row[0], row[1], ("s", row, iso)) for row in front
                        ]
                        for f, front in rep_table.items()
                    }
                    memo_hits += 1
                    if stats is not None:
                        memo_shared += sum(len(b) for b in table.values())
                    tables[j] = table
                    continue
                memo_misses += 1
            load = loads[j]
            if load > w_max:
                raise InfeasibleError(
                    f"direct client load {load} at node {j} exceeds W={w_max}",
                    node=j,
                )
            if not kids:
                tables[j] = {load: _BASE_FRONT}
                continue
            stack.append(~j)
            stack.extend(kids)
            continue

        # Post-visit: all children computed; fold them into this node.
        j = ~j
        load = loads[j]
        acc: dict[int, list] = {load: _BASE_FRONT}
        acc_is_base = True
        for child in children(j):
            child_table = tables[child]
            assert child_table is not None
            tables[child] = None
            dg_by_mode = reuse_dg[pre[child]] if child in pre else create_dg

            # Identity: a child whose only completion is "nothing below,
            # nothing passed up" (single flow-0 front, one placement-free
            # label) at a non-negative placement price can only contribute
            # the empty pass option — no bucket changes.
            if len(child_table) == 1:
                zf = child_table.get(0)
                if (
                    zf is not None
                    and len(zf) == 1
                    # alias_p is a copied sentinel, compared bit-for-bit,
                    # never computed — audited equality.
                    # repro-lint: ignore[float-eq]
                    and zf[0][1] == alias_p
                    and dg_by_mode[0] >= 0.0
                ):
                    merges += 1
                    if stats is not None:
                        labels_created += sum(len(b) for b in acc.values())
                        stats.record_table(acc)
                    continue

            if acc_is_base:
                # First effective merge: the accumulator is still the bare
                # base label (no placements), so merging is the identity on
                # the child's pass fronts — alias the row lists wholesale,
                # shifted to flow + load; only the placed pool (flow
                # ``load``) needs a sweep.
                acc_is_base = False
                merged: dict[int, list] = {}
                pool: list[tuple] = []
                for f, front in child_table.items():
                    m = bisect_left(caps, f)
                    dg = dg_by_mode[m]
                    dp = mode_power[m]
                    pool += [
                        (row[0] + dg, row[1] + dp, row, m) for row in front
                    ]
                    if f:
                        ff = f + load
                        if ff <= w_max:
                            merged[ff] = front
                    else:
                        pool += [(row[0], row[1], row, -1) for row in front]
                if stats is not None:
                    labels_created += len(pool) + sum(
                        len(b) for b in merged.values()
                    )
                if pool:
                    if len(pool) > 1:
                        pool.sort(key=_GP)
                    front = []
                    best = float("inf")
                    for g, p, r, m in pool:
                        if p < best - _EPS:
                            best = p
                            if m < 0:
                                front.append(r)
                            else:
                                front.append((g, p, ("x", _BASE, r, child, m)))
                                labels_generated += 1
                    merged[load] = front
                merges += 1
                if stats is not None:
                    stats.record_table(merged)
                acc = merged
                continue

            # General merge.  Child options per flow: pass the front
            # through unchanged, or place a replica on the child absorbing
            # the flow (all placed options land on flow 0, Pareto-merged
            # with the passed flow-0 front).  Options are virtual — no
            # labels are allocated for them.
            options: dict[int, list] = {}
            zero_pool: list[tuple] = []
            for f, front in child_table.items():
                m = bisect_left(caps, f)
                dg = dg_by_mode[m]
                dp = mode_power[m]
                zero_pool += [
                    (row[0] + dg, row[1] + dp, row, m) for row in front
                ]
                if f:
                    options[f] = front
                else:
                    zero_pool += [(row[0], row[1], row, -1) for row in front]
            if zero_pool:
                if len(zero_pool) > 1:
                    zero_pool.sort(key=_GP)
                    zfront: list[tuple] = []
                    best = float("inf")
                    for cand in zero_pool:
                        p = cand[1]
                        if p < best - _EPS:
                            best = p
                            zfront.append(cand)
                    options[0] = zfront
                else:
                    options[0] = zero_pool

            out_pairs: dict[int, list] = {}
            for f1, front_a in acc.items():
                for f2, front_b in options.items():
                    f = f1 + f2
                    if f <= w_max:
                        prs = out_pairs.get(f)
                        if prs is None:
                            out_pairs[f] = [(front_a, front_b, f2 == 0)]
                        else:
                            prs.append((front_a, front_b, f2 == 0))
            merged = {}
            for f, prs in out_pairs.items():
                if len(prs) == 1:
                    front_a, front_b, has_modes = prs[0]
                    la = len(front_a)
                    lb = len(front_b)
                    labels_created += la * lb
                    if la == 1:
                        # Singleton accumulator: the product inherits the
                        # option front's order — shifted copy, no sweep.
                        arow = front_a[0]
                        g0 = arow[0]
                        p0 = arow[1]
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if p0 == alias_p:
                            # Placement-free accumulator label: merging is
                            # the identity on the options — alias pass rows,
                            # allocate only for placed entries.
                            if has_modes:
                                front = []
                                for g, p, r, m in front_b:
                                    if m < 0:
                                        front.append(r)
                                    else:
                                        front.append(
                                            (g, p, ("x", arow, r, child, m))
                                        )
                                        labels_generated += 1
                                merged[f] = front
                            else:
                                merged[f] = front_b
                        else:
                            labels_generated += lb
                            merged[f] = (
                                [
                                    (
                                        g0 + g,
                                        p0 + p,
                                        ("m", arow, r) if m < 0
                                        else ("x", arow, r, child, m),
                                    )
                                    for g, p, r, m in front_b
                                ]
                                if has_modes
                                else [
                                    (
                                        g0 + brow[0],
                                        p0 + brow[1],
                                        ("m", arow, brow),
                                    )
                                    for brow in front_b
                                ]
                            )
                        continue
                    if lb == 1:
                        # Singleton option: symmetric shifted copy along
                        # the accumulator front.
                        if has_modes:
                            g1, p1, r1, m1 = front_b[0]
                        else:
                            r1 = front_b[0]
                            g1 = r1[0]
                            p1 = r1[1]
                            m1 = -1
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if p1 == alias_p and m1 < 0:
                            # Pure pass of a placement-free child label:
                            # reuse the accumulator front verbatim.
                            merged[f] = front_a
                        else:
                            labels_generated += la
                            merged[f] = [
                                (
                                    arow[0] + g1,
                                    arow[1] + p1,
                                    ("m", arow, r1) if m1 < 0
                                    else ("x", arow, r1, child, m1),
                                )
                                for arow in front_a
                            ]
                        continue
                    total = la * lb
                else:
                    total = 0
                    for front_a, front_b, _ in prs:
                        total += len(front_a) * len(front_b)
                    labels_created += total
                    if total == 0:
                        continue
                front, generated, rejected = _merge_slow(prs, total, child)
                if front:
                    merged[f] = front
                labels_generated += generated
                merge_rejected_n += rejected
            merges += 1
            if stats is not None:
                stats.record_table(merged)
            acc = merged
        tables[j] = acc
        if memoize and table_keys[j] in recurring:
            memo[table_keys[j]] = (j, acc)

    root = tree.root
    root_table = tables[root]
    assert root_table is not None
    delete_constant = sum(cost_model.delete[old] for old in pre.values())
    root_dg = reuse_dg[pre[root]] if root in pre else create_dg

    # Costs/powers are rounded to 9 decimals so that mathematically equal
    # sums accumulated in different orders collapse to one frontier point
    # (keeps frontiers comparable across solvers).  Root mode -1 encodes
    # "no replica on the root".
    candidates: list[tuple] = []
    for f, front in root_table.items():
        if f == 0:
            candidates += [
                (
                    round(row[0] + delete_constant, 9),
                    round(row[1], 9),
                    row,
                    -1,
                )
                for row in front
            ]
            if root in pre:
                # Idle reused root (only ever optimal when deletion is
                # dearer than keeping a lowest-mode server).
                dg = root_dg[0]
                dp = mode_power[0]
                candidates += [
                    (
                        round(row[0] + dg + delete_constant, 9),
                        round(row[1] + dp, 9),
                        row,
                        0,
                    )
                    for row in front
                ]
        else:
            m = bisect_left(caps, f)
            dg = root_dg[m]
            dp = mode_power[m]
            candidates += [
                (
                    round(row[0] + dg + delete_constant, 9),
                    round(row[1] + dp, 9),
                    row,
                    m,
                )
                for row in front
            ]
    if not candidates:
        raise InfeasibleError("no valid replica placement exists")

    candidates.sort(key=_GP)
    points = [
        FrontierPoint(cost, power, row, None if m < 0 else m)
        for cost, power, row, m in pareto_min_sweep(candidates)
    ]

    if stats is not None:
        stats.merges += merges
        stats.labels_created += labels_created
        stats.labels_generated += labels_generated
        stats.merge_rejected += merge_rejected_n
        stats.memo_hits += memo_hits
        stats.memo_misses += memo_misses
        stats.memo_labels_shared += memo_shared
    return PowerFrontier(tree, points, power_model, cost_model, pre, root)


def min_power(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel | None = None,
    preexisting_modes: Mapping[int, int] | None = None,
) -> ModalPlacementResult:
    """Solve MinPower (§2.3): minimal power, cost unconstrained.

    The problem is NP-complete for arbitrary mode counts (Theorem 2); this
    exact solver is practical for the small mode counts of real processors
    and for the reduction instances of §4.2.
    """
    cm = cost_model or ModalCostModel.uniform(power_model.modes.n_modes)
    return power_frontier(tree, power_model, cm, preexisting_modes).min_power()


def min_power_bounded_cost(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    cost_bound: float,
    preexisting_modes: Mapping[int, int] | None = None,
) -> ModalPlacementResult:
    """Solve MinPower-BoundedCost (§2.3) for one bound.

    Raises :class:`InfeasibleError` when no placement meets the bound; use
    :func:`power_frontier` directly when sweeping bounds (Experiment 3).
    """
    frontier = power_frontier(tree, power_model, cost_model, preexisting_modes)
    result = frontier.best_under_cost(cost_bound)
    if result is None:
        raise InfeasibleError(
            f"no placement has cost <= {cost_bound} (cheapest is "
            f"{frontier.min_cost():.3f})"
        )
    return result
