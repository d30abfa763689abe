"""Array-native (structure-of-arrays) Pareto-label DP kernel.

This is the production engine of the paper's §4.3 DP; the plain
reference it is pinned against, and the frontier types, live in
:mod:`repro.power.dp_power_pareto`.  The reference stores a
``(node, flow)`` front as a Python list of ``(g, p, back)`` tuples and
merges children one candidate at a time; per candidate that costs a
tuple allocation, two float boxes and interpreter dispatch.  Here a
front is three parallel sorted **column arrays** —

* ``g`` (cost so far, float64, strictly ascending),
* ``p`` (power so far, float64, strictly descending),
* ``prov`` (int64 indices into an append-only provenance log),

and a child merge builds the candidate cross products of *all* its
output flows (buckets) at once, as gathered ``(accumulator row, option)``
columns, and sweeps them together: :func:`_sweep` orders every bucket by
``(g, p)`` with one sort per step and keeps, per bucket, exactly what a
stable ``lexsort`` plus the scalar sweep would (the strict running
minimum of p, read at each equal-g run's head, drops most rejections
before the exact stable order is ever built).  Buckets above
``_FILTER_LIMIT`` candidates go one at a time through an *exact*
certain-reject prefilter: the sweep's running best is always within
``_EPS`` of the strict prefix-min of p, so a candidate with a
strictly-cheaper, no-more-powerful same-bucket peer can be dropped
before the sort ever sees it (a pilot envelope of block-edge rows plus a
stride sample supplies the peers).  The ``_EPS`` dominance sweep itself
(a running *accepted-only* minimum — not a plain cumulative minimum, see
below) runs over one bulk ``tolist()`` of the surviving power column,
so its cost is linear in the survivors with a small constant and it is
**bit-for-bit** the reference's sweep.

Byte identity with the reference is a hard contract, pinned by
``tests/power/test_kernel_equivalence.py`` (array vs the reference vs
the count-vector oracle).  The three rules that make it hold:

1. **Same summation order.**  Candidate values are built as
   ``acc + option`` with the accumulator operand first, options as
   ``front + scalar`` with the front operand first — float64 addition is
   not associative, so the vectorised adds mirror the reference's
   expression trees exactly (elementwise IEEE-754 float64 equals Python
   float arithmetic).
2. **Same sweep semantics.**  A candidate is accepted iff its ``p``
   improves the best *accepted* ``p`` by more than ``_EPS``; rejected
   candidates never tighten the threshold.  A vectorised
   ``np.minimum.accumulate`` mask is *not* equivalent (it tightens on
   rejected candidates whose ``p`` falls within the ``(_EPS, 1.5·_EPS)``
   window below the running best), so the sweep stays an exact scalar
   loop over the pre-sorted column; cumulative minima only ever *drop*
   rows the sweep would reject.
3. **Same root rounding.**  The root sweep rounds with Python's
   correctly-rounded ``round`` (``np.round`` scales-and-rints, which can
   differ in the last ulp) and flows through the shared
   :func:`~repro.power.dp_power_pareto.pareto_min_sweep` tie-break.
   Before rounding it drops only candidates another one beats by more
   than 2e-9 in cost at no more power (:func:`_certainly_beaten`): the
   sweep rejects those after rounding whatever the tie order.

**Level order.**  The DP is bottom-up, so nodes of equal subtree height
are independent.  A top-down pre-pass walks the tree depth-first without
merging: it makes the store lookups and the ``load > W`` checks in
pre-visit order (so store counters and the failing node of an
:class:`~repro.exceptions.InfeasibleError` are those of a depth-first
solve) and lists the nodes to compute by height, each level in
post-visit order.  Then,
height by height, every node folds its leading leaf run, and each step
merges "the k-th remaining child" of every unfinished node of the level
at once (:class:`_MergeStep`): one stacked row space of the children's
placed and passed fronts, one sweep of all their flow-0 pools, one
gathered candidate build, one sweep over every ``(node, flow)`` bucket
and one provenance append with a per-row node column.  Each node keeps
its own candidate, bucket and flow-key order, so pairs, witnesses and
counters do not depend on which nodes share a step (only the numbering
of provenance ids does).  A level of one node (a delta's root path)
runs the same step.

**Leaf-run fold.**  Paper trees are mostly leaves, and a leaf's table is
one base label at flow = its load, which the general merge would push
through a dozen numpy calls.  So each node folds the *leading run* of
its children — the longest prefix of childless ones — on small Python
lists (:class:`_RunFold`), converts the accumulator to columns once,
and hands it to the general path for the remaining children (internal
ones, and any leaf after one).  The list fold is the general merge
(:class:`_MergeStep`) of one leaf at a time, exactly:

* **Same candidates.**  Leaves go in child order; each offers to pass
  its load up or to host at ``bisect_left(caps, load)``.  Empty leaves
  take the identity skip under the same test (``alias_p`` sentinel and
  a non-negative price), so idle reused leaves under ``delete > 1``
  still may host; ``reuse_dg``/``create_dg`` and the ``W_M`` cap apply
  unchanged.
* **Same arithmetic and order.**  Sums are accumulator-first, and Python
  float adds equal numpy float64 adds.  Each output flow is built in
  the general path's order (accumulator flow × option, row-major;
  single-operand flows before the swept ones) and swept by a stable
  ``(g, p)`` sort plus the same accepted-only ``_EPS`` loop, so equal
  ``(g, p)`` rows resolve to the same survivor.
* **Same counters.**  Every folded leaf counts its merge, created,
  generated and rejected candidates and records its table, so
  :class:`~repro.perf.stats.ParetoDPStats` comes out unchanged.
* **Provenance only for kept placed rows**, appended to the same log in
  one batch; a kept pass row reuses its accumulator row's id, which
  reconstructs the same ``{node: mode}`` placement.

With a front store, nothing inside a run is published: a run that
internal children follow gets one prefix entry, keyed by the usual
``prefix_key`` chain over its leaf codes.  A node's resume point is the
longest prefix retained when its level starts, and prefix entries are
published step by step in post-visit order, so the first node of a
level in that order publishes a shared key.  A node whose table key an
earlier post-visit of the same solve computes is a store hit on that
table, looked up once its level is published.

On top of the merge, the kernel has structural fast paths the
reference deliberately lacks: identity skips for empty subtrees,
verbatim front *aliasing* when one operand is provably placement-free
(the ``alias_p`` sentinel, including its underflow guard), and shifted
singleton copies as pure vector adds.  A cold solve computes every
node's table; repeated subtrees are shared only through a live
session's :class:`~repro.power.frontstore.FrontStore`, whose alias
tables share the representative's ``g``/``p`` buffers zero-copy.
Provenance is columnar too: one growable log of ``(kind, a, b, node,
mode)`` entries plus a side table of store isomorphisms; placements are
reconstructed by walking log indices.  The returned
:class:`FrontierPoint`\\ s hold ``(log, id)`` pairs and reconstruct
lazily on :meth:`FrontierPoint.placement` — the same deferral the
reference gets from its label back-chains, so a frontier consumer that
only reads ``(cost, power)`` columns never pays for placement walks.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

    from repro.perf.stats import ParetoDPStats
    from repro.power.frontstore import FrontStore

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.power.dp_power_pareto import (
    _EPS,
    _GP,
    FrontierPoint,
    PowerFrontier,
    pareto_min_sweep,
)
from repro.power.modes import PowerModel
from repro.power.result import FrontierColumns
from repro.tree.model import Tree

__all__ = ["power_frontier_array"]

_INF = float("inf")

#: Candidate count above which a bucket leaves its merge's batched sweep
#: and runs the certain-reject prefilter on its own before sorting (the
#: filter's pilot pass costs a few linear scans; below this one shared
#: sort is cheaper).
_FILTER_LIMIT = 4096
#: Every k-th candidate joins the pilot envelope alongside the block edge
#: rows — densifies the envelope for near-flat fronts at O(n/k) extra
#: pilot mass.
_PILOT_STRIDE = 64
#: Candidate count above which :func:`_sweep` drops non-records before
#: the exact stable sort (below it, sorting everything is cheaper).
_RECORD_FILTER_MIN = 64

#: A front: parallel (g, p, prov) columns, sorted g-ascending /
#: p-descending, Pareto by construction.  Fronts are immutable by
#: convention — merges build new columns or share existing ones verbatim.
_Front = tuple["NDArray[np.float64]", "NDArray[np.float64]", "NDArray[np.int64]"]

#: Provenance entry kinds (the reference's back tags, plus store aliases).
_K_BASE = 0  #: the shared empty label (no placements)
_K_MERGE = 1  #: "m": combine labels a and b
_K_PLACE = 2  #: "x": combine a and b, placing a replica on node at mode
_K_ALIAS = 3  #: "s": store alias of a through isomorphism isos[b]

_BASE_G = np.zeros(1)
_BASE_P = np.zeros(1)
_BASE_PROV = np.zeros(1, dtype=np.int64)
for _arr in (_BASE_G, _BASE_P, _BASE_PROV):
    _arr.setflags(write=False)
#: The shared base front: prov id 0 is every log's base entry.
_BASE_FRONT: _Front = (_BASE_G, _BASE_P, _BASE_PROV)


class _ProvLog:
    """Append-only columnar provenance log.

    Entry 0 is the base label.  ``a``/``b`` are log indices for merge and
    place entries; for alias entries ``a`` is the representative's log
    index and ``b`` indexes :attr:`isos`.  Columns are typed
    :class:`array.array` buffers, batch-extended from numpy columns: a
    live session's log holds tens of thousands of entries for as long as
    the session does, and boxed list items would cost several times the
    memory.  Reconstruction is a scalar walk either way.
    """

    __slots__ = ("kind", "a", "b", "node", "mode", "isos")

    def __init__(self) -> None:
        self.kind = array("b", [_K_BASE])
        self.a = array("q", [0])
        self.b = array("q", [0])
        self.node = array("q", [0])
        self.mode = array("q", [0])
        # The front store's lazy mapping-like isos: the placement walk
        # only ever subscripts them.
        self.isos: list[Any] = []

    def append_merges(
        self,
        a_ids: NDArray[np.int64],
        b_ids: NDArray[np.int64],
        mode_col: NDArray[np.int64],
        node: int | NDArray[np.int64],
    ) -> NDArray[np.int64]:
        """Batch-append merge entries; mode -1 = pure pass, else place.

        ``node`` is the merged child, one for all rows or one per row.
        """
        start = len(self.kind)
        n = int(mode_col.shape[0])
        self.kind.frombytes(
            np.where(mode_col < 0, _K_MERGE, _K_PLACE).astype(np.int8).tobytes()
        )
        self.a.frombytes(a_ids.astype(np.int64, copy=False).tobytes())
        self.b.frombytes(b_ids.astype(np.int64, copy=False).tobytes())
        if isinstance(node, int):
            self.node.extend(array("q", [node]) * n)
        else:
            self.node.frombytes(node.astype(np.int64, copy=False).tobytes())
        self.mode.frombytes(mode_col.astype(np.int64, copy=False).tobytes())
        return np.arange(start, start + n, dtype=np.int64)

    def add_iso(self, iso: Any) -> int:
        """Register one store isomorphism; returns its index for aliases."""
        self.isos.append(iso)
        return len(self.isos) - 1

    def append_aliases(
        self, rep_prov: NDArray[np.int64], iso_idx: int
    ) -> NDArray[np.int64]:
        """Batch-append store-alias entries sharing one isomorphism."""
        start = len(self.kind)
        n = int(rep_prov.shape[0])
        self.kind.extend(array("b", [_K_ALIAS]) * n)
        self.a.frombytes(rep_prov.astype(np.int64, copy=False).tobytes())
        self.b.extend(array("q", [iso_idx]) * n)
        self.node.extend(array("q", [0]) * n)
        self.mode.extend(array("q", [0]) * n)
        return np.arange(start, start + n, dtype=np.int64)

    def placement(self, prov_id: int) -> dict[int, int]:
        """Reconstruct ``{node: mode}`` by walking the log (root excluded).

        Store aliases are resolved by composing the accumulated subtree
        isomorphisms innermost-first.
        """
        kind, a, b = self.kind, self.a, self.b
        node, mode, isos = self.node, self.mode, self.isos
        out: dict[int, int] = {}
        stack: list[tuple[int, tuple[dict[int, int], ...]]] = [(prov_id, ())]
        while stack:
            i, maps = stack.pop()
            k = kind[i]
            if k == _K_BASE:
                continue
            if k == _K_ALIAS:
                stack.append((a[i], (isos[b[i]], *maps)))
                continue
            if k == _K_PLACE:
                v = node[i]
                for iso in maps:
                    v = iso[v]
                out[v] = mode[i]
            stack.append((a[i], maps))
            stack.append((b[i], maps))
        return out


@dataclass(frozen=True)
class _LazyPoint(FrontierPoint):
    """A frontier point whose placement walk is deferred.

    Holds the solve's provenance log and this point's entry id; the walk
    runs only when :meth:`placement` is called (like the reference's
    lazy back-chain points).
    """

    _prov_log: _ProvLog | None = None
    _prov_id: int = 0

    def placement(self) -> dict[int, int]:
        assert self._prov_log is not None
        return self._prov_log.placement(self._prov_id)


def _sweep_segment(
    p_list: list[float], start: int, end: int, out: list[int]
) -> None:
    """The exact ``_EPS`` dominance sweep over one sorted bucket.

    Appends the *positions* (into the sorted order) of accepted
    candidates.  ``best`` tightens only on acceptance — the accepted-only
    running minimum that a vectorised cumulative min cannot reproduce
    bit-for-bit (see the module docstring) — so this stays a scalar loop.
    """
    best = _INF
    append = out.append
    for i in range(start, end):
        p = p_list[i]
        if p < best - _EPS:
            best = p
            append(i)


def _sweep(
    g: NDArray[np.float64], p: NDArray[np.float64], sizes: Sequence[int]
) -> tuple[NDArray[np.intp], list[int]]:
    """Exact ``_EPS`` dominance sweep over consecutive candidate buckets.

    ``g``/``p`` hold the buckets back to back, ``sizes`` their lengths in
    order.  Returns the kept positions, bucket by bucket in ``(g, p)``
    order, and the running kept count at the end of each bucket.

    The result is exactly a stable bucket-major ``lexsort((p, g))`` plus
    :func:`_sweep_segment` per bucket, for less.  An accepted row's ``p``
    is strictly below that of every row with a smaller ``g`` in its
    bucket.  So one unstable ``argsort`` by ``g``, a stable radix pass by
    bucket and a running minimum of ``p`` per bucket, read at the head
    of each equal-``g`` run, keep an exact superset of the accepted rows.
    Only those few are put in the exact stable order and swept; dropping
    rows the sweep would reject never moves its threshold.
    """
    n = int(g.shape[0])
    n_buckets = len(sizes)
    if not n:
        return np.empty(0, dtype=np.intp), [0] * n_buckets
    if n_buckets > 1:
        bucket = np.repeat(
            np.arange(n_buckets, dtype=np.int16 if n_buckets < 2**15 else np.intp),
            sizes,
        )
    if n <= _RECORD_FILTER_MIN:
        surv = np.arange(n, dtype=np.intp)
    else:
        order = np.argsort(g)
        if n_buckets > 1:
            order = order[np.argsort(bucket[order], kind="stable")]
        g_s = g[order]
        p_s = p[order]
        # before[i]: least p of the bucket's rows ahead of row i.
        head = np.empty(n, dtype=bool)
        np.not_equal(g_s[1:], g_s[:-1], out=head[1:])
        before = np.empty(n)
        lo = 0
        for size in sizes:
            if size:
                head[lo] = True
                before[lo] = _INF
                np.minimum.accumulate(
                    p_s[lo : lo + size - 1], out=before[lo + 1 : lo + size]
                )
                lo += size
        # ... and, read at the head of its equal-g run, of the rows with a
        # strictly smaller g.
        run_head = np.maximum.accumulate(np.where(head, np.arange(n), 0))
        surv = np.sort(order[p_s < before[run_head]])
    if n_buckets > 1:
        surv = surv[np.lexsort((p[surv], g[surv], bucket[surv]))]
        bounds = np.searchsorted(bucket[surv], np.arange(n_buckets), side="right")
    else:
        surv = surv[np.lexsort((p[surv], g[surv]))]
        bounds = np.asarray([surv.shape[0]])
    p_surv = p[surv].tolist()
    keep: list[int] = []
    ends: list[int] = []
    lo = 0
    for hi in bounds.tolist():
        _sweep_segment(p_surv, lo, hi, keep)
        ends.append(len(keep))
        lo = hi
    return surv[np.asarray(keep, dtype=np.intp)], ends


#: Root candidates this much cheaper than another one (and no more
#: powerful) reject it whatever ``round(·, 9)`` does to either.
_ROOT_MARGIN = 2e-9
#: Magnitude below which a float64 resolves ``_ROOT_MARGIN`` with room to
#: spare (its ulp is under 2.5e-10), so the margin argument holds.
_ROOT_PREFILTER_MAX = 1e6


def _certainly_beaten(
    g: NDArray[np.float64], p: NDArray[np.float64]
) -> NDArray[np.bool_]:
    """Root candidates the rounded root sweep is certain to reject.

    A candidate is beaten when another one is cheaper by more than
    ``_ROOT_MARGIN`` at no more power.  Rounding to 9 decimals moves a
    value by at most 0.5e-9, so the cheaper one still sorts strictly
    first, and correctly rounded ``round`` is monotone, so its power
    stays no larger: the ``_EPS`` sweep then rejects the beaten one
    whether the cheaper one is kept or not, and a rejected candidate
    never moves the sweep's threshold.  Dropping it changes nothing.
    """
    n = int(g.shape[0])
    if n < 2 or not float(np.abs(g).max()) < _ROOT_PREFILTER_MAX:
        return np.zeros(n, dtype=bool)
    order = np.argsort(g)
    least_p = np.minimum.accumulate(p[order])
    cheaper = np.searchsorted(g[order], g - _ROOT_MARGIN, side="left")
    beaten = cheaper > 0
    beaten[beaten] = least_p[cheaper[beaten] - 1] <= p[beaten]
    return beaten


def _alias_table(
    prov: _ProvLog, rep_table: Mapping[int, _Front], iso: Any
) -> dict[int, _Front]:
    """Re-provenance a representative's table through one isomorphism.

    The ``g``/``p`` columns are the representative's buffers, zero-copy;
    every row gets one alias entry, appended in a single batch.
    """
    if not rep_table:
        return {}
    iso_idx = prov.add_iso(iso)
    ids = prov.append_aliases(
        np.concatenate([front[2] for front in rep_table.values()]), iso_idx
    )
    out: dict[int, _Front] = {}
    lo = 0
    for f, front in rep_table.items():
        hi = lo + int(front[2].shape[0])
        out[f] = (front[0], front[1], ids[lo:hi])
        lo = hi
    return out


def _front_sizes(table: Mapping[int, _Front]) -> dict[int, Any]:
    """Sized per-flow view for :meth:`ParetoDPStats.record_table`."""
    return {f: front[0] for f, front in table.items()}


def _leading_run(
    children: Callable[[int], Sequence[int]], kids: Sequence[int]
) -> int:
    """Length of the longest prefix of ``kids`` whose nodes are childless."""
    run = 0
    while run < len(kids) and not children(kids[run]):
        run += 1
    return run


#: A list-form front: ``(g, p, prov)`` rows in front order.
_Rows = list[tuple[float, float, int]]


def _list_sweep(cands: list[tuple[float, float, int, int]]) -> list[tuple]:
    """:func:`_sweep` for one small bucket of ``(g, p, prov, mode)`` rows.

    A stable sort by ``(g, p)`` keeps ties in build order, exactly as the
    stable ``lexsort`` does; the ``_EPS`` sweep is the same scalar loop.
    """
    cands.sort(key=_GP)
    kept = []
    best = _INF
    for cand in cands:
        if cand[1] < best - _EPS:
            best = cand[1]
            kept.append(cand)
    return kept


@dataclass
class _RunFold:
    """Per-solve constants and counters of the leaf-run fold."""

    loads: list[int]
    pre: Mapping[int, int]
    reuse_dg: Mapping[int, list[float]]
    create_dg: list[float]
    caps: Sequence[int]
    mode_power: list[float]
    alias_p: float
    w_max: int
    prov: _ProvLog
    stats: ParetoDPStats | None
    merges: int = 0
    labels_created: int = 0
    labels_generated: int = 0
    merge_rejected: int = 0

    def fold(
        self,
        leaves: Sequence[int],
        acc: dict[int, _Front],
        acc_is_base: bool,
        load: int,
    ) -> tuple[dict[int, _Front], bool]:
        """Fold childless children into ``acc``, one leaf at a time.

        Reproduces the general merge (:class:`_MergeStep`) of a child
        whose table is the single base label at flow = its load, one
        child at a time: same candidates in the same build
        order, same float adds, same sweeps, same counters.  Only kept
        placed rows get provenance entries (a kept pass row keeps its
        accumulator row's id, which reconstructs the same placement), and
        they are written to the log in one batch.  Returns the new
        accumulator and whether it is still the bare base label.
        """
        loads, pre, alias_p, w_max = self.loads, self.pre, self.alias_p, self.w_max
        caps, mode_power, stats = self.caps, self.mode_power, self.stats
        first_id = len(self.prov.kind)
        #: (accumulator id, leaf, mode) of every kept placed row, in id order.
        places: list[tuple[int, int, int]] = []

        def placed(g: float, p: float, v: int, mode: int) -> tuple[float, float, int]:
            # A kept row hosting the leaf ``c`` being folded on top of the
            # accumulator row ``v``: one new provenance id.
            places.append((v, c, mode))
            return g, p, first_id + len(places) - 1

        rows: dict[int, _Rows] | None = None
        created = generated = rejected = 0
        for c in leaves:
            child_load = loads[c]
            dg = self.reuse_dg[pre[c]] if c in pre else self.create_dg
            # Identity fast path: an empty, placement-free leaf.
            # repro-lint: ignore[float-eq] — audited sentinel.
            if not child_load and alias_p == 0.0 and dg[0] >= 0.0:
                if stats is not None:
                    table: Mapping[int, Any] = (
                        _front_sizes(acc) if rows is None else rows
                    )
                    created += sum(len(front) for front in table.values())
                    stats.record_table(table)
                self.merges += 1
                continue
            if rows is None:
                rows = {
                    f: list(zip(g.tolist(), p.tolist(), v.tolist(), strict=True))
                    for f, (g, p, v) in acc.items()
                }
            # The child's options, (g, p, 0, mode) with mode -1 to pass:
            # its load passed up, and the flow-0 pool of hosting it (plus
            # passing an empty leaf), swept.
            m = bisect_left(caps, child_load)
            pool = [(0.0 + dg[m], 0.0 + mode_power[m], 0, m)]
            opts: dict[int, list[tuple[float, float, int, int]]] = {}
            if child_load:
                opts[child_load] = [(0.0, 0.0, 0, -1)]
            else:
                pool.append((0.0, 0.0, 0, -1))
            opts[0] = _list_sweep(pool) if len(pool) > 1 else pool
            new: dict[int, _Rows] = {}
            if acc_is_base:
                # First effective merge: the pass option lands at flow +
                # load verbatim, the swept pool on the base flow.
                acc_is_base = False
                created += len(pool)
                if child_load and child_load + load <= w_max:
                    new[child_load + load] = [(0.0, 0.0, 0)]
                    created += 1
                new[load] = [
                    (g, p, 0) if mode < 0 else placed(g, p, 0, mode)
                    for g, p, _, mode in opts[0]
                ]
                generated += sum(mode >= 0 for *_, mode in opts[0])
            else:
                # General merge, in the numpy path's order: output flows
                # by first (accumulator flow, option) pair, single-pair
                # flows before the swept ones.
                out_pairs: dict[int, list[tuple[int, int]]] = {}
                for f1 in rows:
                    for f2 in opts:
                        f = f1 + f2
                        if f <= w_max:
                            prs = out_pairs.get(f)
                            if prs is None:
                                out_pairs[f] = [(f1, f2)]
                            else:
                                prs.append((f1, f2))
                swept: list[tuple[int, list[tuple[int, int]]]] = []
                for f, prs in out_pairs.items():
                    if len(prs) > 1:
                        swept.append((f, prs))
                        continue
                    f1, f2 = prs[0]
                    front = rows[f1]
                    opt = opts[f2]
                    la = len(front)
                    created += la * len(opt)
                    if la == 1:
                        g0, p0, v0 = front[0]
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if p0 == alias_p:
                            # Placement-free accumulator row: the options
                            # as they are.
                            n_places = len(places)
                            new[f] = [
                                (g, p, 0) if mode < 0 else placed(g, p, v0, mode)
                                for g, p, _, mode in opt
                            ]
                            generated += len(places) - n_places
                        else:
                            generated += len(opt)
                            new[f] = [
                                (g0 + g, p0 + p, v0)
                                if mode < 0
                                else placed(g0 + g, p0 + p, v0, mode)
                                for g, p, _, mode in opt
                            ]
                    elif len(opt) == 1:
                        g1, p1, _, mode = opt[0]
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if p1 == alias_p and mode < 0:
                            new[f] = front
                        else:
                            generated += la
                            new[f] = [
                                (g + g1, p + p1, v)
                                if mode < 0
                                else placed(g + g1, p + p1, v, mode)
                                for g, p, v in front
                            ]
                    else:
                        swept.append((f, prs))
                for f, prs in swept:
                    cands = [
                        (g + og, p + op, v, mode)
                        for f1, f2 in prs
                        for g, p, v in rows[f1]
                        for og, op, _, mode in opts[f2]
                    ]
                    if len(prs) > 1:
                        created += len(cands)
                    generated += len(cands)
                    new[f] = [
                        (g, p, v) if mode < 0 else placed(g, p, v, mode)
                        for g, p, v, mode in _list_sweep(cands)
                    ]
                    rejected += len(cands) - len(new[f])
            self.merges += 1
            if stats is not None:
                stats.record_table(new)
            rows = new
        self.labels_created += created
        self.labels_generated += generated
        self.merge_rejected += rejected
        if rows is None:
            return acc, acc_is_base
        if places:
            prov = self.prov
            prov.kind.extend(array("b", [_K_PLACE]) * len(places))
            prov.a.extend(array("q", [a for a, _, _ in places]))
            prov.b.extend(array("q", [0]) * len(places))
            prov.node.extend(array("q", [node for _, node, _ in places]))
            prov.mode.extend(array("q", [mode for _, _, mode in places]))
        # One set of columns for the whole accumulator, sliced per flow.
        flat = [row for front in rows.values() for row in front]
        g_col = np.array([row[0] for row in flat])
        p_col = np.array([row[1] for row in flat])
        v_col = np.array([row[2] for row in flat], dtype=np.int64)
        out: dict[int, _Front] = {}
        lo = 0
        for f, front in rows.items():
            hi = lo + len(front)
            out[f] = (g_col[lo:hi], p_col[lo:hi], v_col[lo:hi])
            lo = hi
        return out, acc_is_base


def _ranges(starts: Sequence[int], lengths: Sequence[int]) -> NDArray[np.intp]:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated."""
    if len(starts) == 1:
        return np.arange(starts[0], starts[0] + lengths[0], dtype=np.intp)
    lens = np.asarray(lengths, dtype=np.intp)
    offsets = np.asarray(starts, dtype=np.intp) - (np.cumsum(lens) - lens)
    return np.arange(int(lens.sum()), dtype=np.intp) + np.repeat(offsets, lens)


def _cat(parts: list[Any], dtype: Any = np.float64) -> NDArray[Any]:
    """``np.concatenate`` that also takes an empty list (a single part
    comes back as it is: columns are never written in place)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


#: An operand block of a merge bucket: (acc start, acc rows, option
#: start, option rows, child), starts into the step's flat columns.
_Block = tuple[int, int, int, int, int]


def _large_bucket(
    blks: Sequence[_Block],
    a_cols: tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.int64]],
    o_cols: tuple[
        NDArray[np.float64], NDArray[np.float64], NDArray[np.int64], NDArray[np.int64]
    ],
    prov: _ProvLog,
) -> _Front:
    """Sweep one bucket above ``_FILTER_LIMIT`` candidates on its own.

    ``blks`` are ``(acc start, acc rows, option start, option rows,
    child)`` operand blocks into the step's accumulator and option
    columns.  Candidate columns are broadcast *outer adds* over
    contiguous operand slices (accumulator operand first), run through
    the certain-reject prefilter, then swept.
    """
    a_g, a_p, a_prov = a_cols
    o_g, o_p, o_src, o_mode = o_cols
    cg = np.concatenate(
        [(a_g[s : s + n, None] + o_g[o : o + m]).ravel() for s, n, o, m, _ in blks]
    )
    cp = np.concatenate(
        [(a_p[s : s + n, None] + o_p[o : o + m]).ravel() for s, n, o, m, _ in blks]
    )
    # Certain-reject prefilter.  The sweep's running best is sandwiched
    # within _EPS of the strict prefix-min of p, so any same-bucket
    # candidate with strictly smaller g and p' <= p *certainly* rejects
    # this one (rejections never move the threshold, so dropping them is
    # exact).  Pilot envelope: each block's edge candidates (its full last
    # accumulator row and last option column — scalar-shifted slices,
    # elementwise identical to the broadcast values) plus a coarse stride
    # sample, g-sorted under a cumulative min — the dominated interior
    # mass dies against it before the expensive lexsort ever sees it.
    pg = np.concatenate(
        [a_g[s : s + n] + o_g[o + m - 1] for s, n, o, m, _ in blks]
        + [a_g[s + n - 1] + o_g[o : o + m] for s, n, o, m, _ in blks]
        + [cg[::_PILOT_STRIDE]]
    )
    pp = np.concatenate(
        [a_p[s : s + n] + o_p[o + m - 1] for s, n, o, m, _ in blks]
        + [a_p[s + n - 1] + o_p[o : o + m] for s, n, o, m, _ in blks]
        + [cp[::_PILOT_STRIDE]]
    )
    porder = np.argsort(pg, kind="stable")
    pgs = pg[porder]
    env = np.minimum.accumulate(pp[porder])
    pos_col = np.searchsorted(pgs, cg, side="left") - 1
    rej = pos_col >= 0
    rej[rej] = env[pos_col[rej]] <= cp[rej]
    surv = np.flatnonzero(~rej)
    sel_s, _ = _sweep(cg[surv], cp[surv], (int(surv.shape[0]),))
    sel = surv[sel_s]

    # Decode the kept flat positions back to operand indices.
    blk = np.asarray(blks, dtype=np.int64)
    bsizes = blk[:, 1] * blk[:, 3]
    bcum = np.concatenate(([0], np.cumsum(bsizes)))
    bidx = np.searchsorted(bcum, sel, side="right") - 1
    intra = sel - bcum[bidx]
    ia_sel = blk[bidx, 0] + intra // blk[bidx, 3]
    io_sel = blk[bidx, 2] + intra % blk[bidx, 3]
    return (
        cg[sel],
        cp[sel],
        prov.append_merges(
            a_prov[ia_sel], o_src[io_sel], o_mode[io_sel], blks[0][4]
        ),
    )


@dataclass(slots=True)
class _Fold:
    """One node's child fold in progress.

    ``acc`` is the accumulator over ``kids[:i]``; ``first`` is where the
    fold started (after a retained prefix), ``prefix_key`` the store key
    of ``kids[:i - 1]`` and ``published`` the last accumulator retained.
    """

    node: int
    load: int
    kids: Sequence[int]
    i: int
    first: int
    acc: dict[int, _Front]
    acc_is_base: bool
    prefix_key: int
    published: dict[int, _Front]


@dataclass
class _MergeStep:
    """Per-solve constants and counters of the batched child merges.

    :meth:`run` merges one child into each of several independent folds
    — one step of one tree level — with one set of numpy calls for all
    of them.  Each fold gets what merging its child alone would give:
    the same candidates in the same bucket order, the same float adds,
    sweeps and counters.
    """

    pre: Mapping[int, int]
    reuse_dg: Mapping[int, list[float]]
    create_dg: list[float]
    caps: Sequence[int]
    mode_power: list[float]
    alias_p: float
    w_max: int
    prov: _ProvLog
    stats: ParetoDPStats | None
    merges: int = 0
    labels_created: int = 0
    labels_generated: int = 0
    merge_rejected: int = 0

    def run(self, items: Sequence[tuple[_Fold, int, Mapping[int, _Front]]]) -> None:
        """Merge ``child``'s table into ``fold.acc`` for every item.

        Each child offers, per flow, to pass its front up unchanged or
        to host a replica at the flow's mode (landing on flow 0); the
        flow-0 *pool* of placed rows plus the passed flow-0 front is
        swept first.  The children's rows live in one stacked row space —
        every pool, then the fronts passed up — and each fold's options
        index into it.  Options are virtual: provenance is allocated only
        for kept merge rows, in one batch.
        """
        pre, alias_p, w_max, stats = self.pre, self.alias_p, self.w_max, self.stats
        caps, mode_power = self.caps, self.mode_power

        # Identity merges (an empty, placement-free child) change nothing;
        # every other child's fronts are flattened once for the step.
        work: list[tuple[_Fold, int, Mapping[int, _Front], list[int], int]] = []
        c_g: list[NDArray[np.float64]] = []
        c_p: list[NDArray[np.float64]] = []
        c_v: list[NDArray[np.int64]] = []
        f_dg: list[float] = []
        f_mp: list[float] = []
        f_mode: list[int] = []
        f_len: list[int] = []
        for fold, child, table in items:
            dg = self.reuse_dg[pre[child]] if child in pre else self.create_dg
            if len(table) == 1:
                zf = table.get(0)
                if (
                    zf is not None
                    and len(zf[0]) == 1
                    # alias_p is a copied sentinel, compared bit-for-bit,
                    # never computed — audited equality.
                    # repro-lint: ignore[float-eq]
                    and zf[1][0] == alias_p
                    and dg[0] >= 0.0
                ):
                    self.merges += 1
                    if stats is not None:
                        self.labels_created += sum(
                            len(front[0]) for front in fold.acc.values()
                        )
                        stats.record_table(_front_sizes(fold.acc))
                    continue
            flows = list(table)
            work.append((fold, child, table, flows, len(f_len)))
            for f in flows:
                g, p, v = table[f]
                m = bisect_left(caps, f)
                c_g.append(g)
                c_p.append(p)
                c_v.append(v)
                f_dg.append(dg[m])
                f_mp.append(mode_power[m])
                f_mode.append(m)
                f_len.append(int(g.shape[0]))
        if not work:
            return
        starts = list(accumulate(f_len, initial=0))
        seg = np.asarray(f_len, dtype=np.intp)
        front_v = _cat(c_v, np.int64)
        # Every front placed at its flow's mode (front operand first).
        placed_g = _cat(c_g) + np.repeat(np.asarray(f_dg), seg)
        placed_p = _cat(c_p) + np.repeat(np.asarray(f_mp), seg)

        # The step's stacked row space.  First each child's flow-0 pool —
        # every front placed, plus the flow-0 front passed — so the pools
        # are consecutive buckets of one sweep; then the fronts the
        # general merges pass up, whose rows are option rows as they are.
        parts_g: list[NDArray[np.float64]] = []
        parts_p: list[NDArray[np.float64]] = []
        parts_v: list[NDArray[np.int64]] = []
        mode_val: list[int] = []
        mode_len: list[int] = []
        pool_n: list[int] = []
        for _, _, table, flows, k in work:
            lo, hi = starts[k], starts[k + len(flows)]
            parts_g.append(placed_g[lo:hi])
            parts_p.append(placed_p[lo:hi])
            parts_v.append(front_v[lo:hi])
            mode_val += f_mode[k : k + len(flows)]
            mode_len += f_len[k : k + len(flows)]
            zf = table.get(0)
            if zf is not None:
                parts_g.append(zf[0])
                parts_p.append(zf[1])
                parts_v.append(zf[2])
                mode_val.append(-1)
                mode_len.append(int(zf[0].shape[0]))
                hi += int(zf[0].shape[0])
            pool_n.append(hi - lo)
        n_pool = sum(pool_n)
        # Option rows: the passed fronts (by their position in this
        # region), then every pool's swept rows.
        o_starts: list[dict[int, int]] = []
        o_pos = 0
        for fold, _, table, _, _ in work:
            o_start: dict[int, int] = {}
            o_starts.append(o_start)
            if fold.acc_is_base:
                continue
            for f, front in table.items():
                if f:
                    o_start[f] = o_pos
                    o_pos += int(front[0].shape[0])
                    parts_g.append(front[0])
                    parts_p.append(front[1])
                    parts_v.append(front[2])
        mode_val.append(-1)
        mode_len.append(o_pos)
        s_g = _cat(parts_g)
        s_p = _cat(parts_p)
        s_v = _cat(parts_v, np.int64)
        s_mode = np.repeat(np.asarray(mode_val, dtype=np.int64), mode_len)
        sel, pool_ends = _sweep(s_g[:n_pool], s_p[:n_pool], pool_n)
        opt_rows = np.concatenate(
            (np.arange(n_pool, n_pool + o_pos, dtype=np.intp), sel)
        )

        # Per fold, its output flows in insertion order: copies and
        # aliases as met, then the swept buckets.  A result is a shared
        # front, or a slot filled below from one of three batches: operand
        # blocks (swept buckets, then shifted copies), option rows kept
        # verbatim, and large buckets.
        results: list[_Front | None] = []
        layouts: list[tuple[_Fold, list[tuple[int, int]]]] = []
        swept: list[tuple[int, list[_Block], int]] = []
        copies: list[tuple[int, _Block]] = []
        verbatim: list[tuple[int, int, int, int, int]] = []
        large: list[tuple[int, list[_Block], int]] = []
        acc_g: list[NDArray[np.float64]] = []
        acc_p: list[NDArray[np.float64]] = []
        acc_v: list[NDArray[np.int64]] = []
        a_pos = 0
        kept = 0
        for w, (fold, child, table, _, _) in enumerate(work):
            z_lo, z_n = o_pos + kept, pool_ends[w] - kept
            kept = pool_ends[w]
            acc, load = fold.acc, fold.load
            entries: list[tuple[int, int]] = []
            layouts.append((fold, entries))
            if fold.acc_is_base:
                # First effective merge: the accumulator is the bare base
                # label, so pass fronts alias wholesale (shifted to
                # flow + load); only the pool needed a sweep.
                fold.acc_is_base = False
                created = pool_n[w]
                for f, front in table.items():
                    if f and f + load <= w_max:
                        entries.append((f + load, len(results)))
                        results.append(front)
                        created += len(front[0])
                if stats is not None:
                    self.labels_created += created
                if pool_n[w]:
                    entries.append((load, len(results)))
                    verbatim.append((len(results), z_lo, z_n, 0, child))
                    results.append(None)
                continue

            # General merge.  Options per child flow: pass the front
            # unchanged (mode -1), or the swept flow-0 pool.
            a_start: dict[int, int] = {}
            for f1, front in acc.items():
                a_start[f1] = a_pos
                a_pos += int(front[0].shape[0])
                acc_g.append(front[0])
                acc_p.append(front[1])
                acc_v.append(front[2])
            o_start = o_starts[w]
            o_start[0] = z_lo

            out_pairs: dict[int, list[tuple[int, int]]] = {}
            for f1 in acc:
                for f2 in o_start:
                    f = f1 + f2
                    if f <= w_max:
                        prs = out_pairs.get(f)
                        if prs is None:
                            out_pairs[f] = [(f1, f2)]
                        else:
                            prs.append((f1, f2))

            late: list[tuple[int, int]] = []
            for f, prs in out_pairs.items():
                r = len(results)
                results.append(None)
                if len(prs) == 1:
                    f1, f2 = prs[0]
                    front_a = acc[f1]
                    la = int(front_a[0].shape[0])
                    lb = len(table[f2][0]) if f2 else z_n
                    self.labels_created += la * lb
                    if la == 1:
                        entries.append((f, r))
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if float(front_a[1][0]) == alias_p:
                            # Placement-free accumulator label: merging is
                            # the identity on the options — alias pass
                            # fronts, allocate only for placed pool rows.
                            if f2:
                                results[r] = table[f2]
                            else:
                                aprov0 = int(front_a[2][0])
                                verbatim.append((r, z_lo, z_n, aprov0, child))
                        else:
                            # Singleton accumulator: shifted copy.
                            self.labels_generated += lb
                            copies.append((r, (a_start[f1], 1, o_start[f2], lb, child)))
                        continue
                    if lb == 1:
                        entries.append((f, r))
                        row = int(opt_rows[o_start[f2]])
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if s_p[row] == alias_p and s_mode[row] < 0:
                            results[r] = front_a
                        else:
                            # Singleton option: shifted copy along the
                            # accumulator front.
                            self.labels_generated += la
                            copies.append((r, (a_start[f1], la, o_start[f2], 1, child)))
                        continue
                    blks = [(a_start[f1], la, o_start[f2], lb, child)]
                    total = la * lb
                else:
                    blks = []
                    total = 0
                    for f1, f2 in prs:
                        la = int(acc[f1][0].shape[0])
                        lb = len(table[f2][0]) if f2 else z_n
                        total += la * lb
                        blks.append((a_start[f1], la, o_start[f2], lb, child))
                    self.labels_created += total
                late.append((f, r))
                (large if total > _FILTER_LIMIT else swept).append((r, blks, total))
            entries += late

        a_g = _cat(acc_g)
        a_p = _cat(acc_p)
        a_v = _cat(acc_v, np.int64)

        # Operand blocks: one gathered (accumulator row, option) build —
        # acc operand first, the summation-order contract — one sweep of
        # the combinatorial buckets (ties keep their within-bucket order;
        # shifted copies keep every row) ...
        blocks = [blk for _, blks, _ in swept for blk in blks]
        blocks += [blk for _, blk in copies]
        # A step of one node appends every row for that child.
        node: int | None = work[0][1] if len(work) == 1 else None
        a_ids: list[NDArray[np.int64]] = []
        b_ids: list[NDArray[np.int64]] = []
        modes: list[NDArray[np.int64]] = []
        nodes: list[NDArray[np.int64]] = []
        n_keep = 0
        if blocks:
            blk = np.asarray(blocks, dtype=np.intp)
            a_lo, a_n, o_lo, o_n = blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3]
            # Row-major blocks: one run of its option rows per accumulator
            # row, in block order.
            run_len = np.repeat(o_n, a_n)
            n_cand = int(run_len.sum())
            ia = np.repeat(_ranges(a_lo, a_n), run_len)
            io = opt_rows[
                np.arange(n_cand)
                + np.repeat(np.repeat(o_lo, a_n) - (np.cumsum(run_len) - run_len), run_len)
            ]
            cg = a_g[ia] + s_g[io]
            cp = a_p[ia] + s_p[io]
            n_sw = sum(total for _, _, total in swept)
            if swept:
                sel, ends = _sweep(
                    cg[:n_sw], cp[:n_sw], [total for _, _, total in swept]
                )
                keep = np.concatenate((sel, np.arange(n_sw, n_cand)))
                self.labels_generated += n_sw
                self.merge_rejected += n_sw - int(sel.shape[0])
            else:
                ends = []
                keep = np.arange(n_cand)
            n_keep = int(keep.shape[0])
            ia = ia[keep]
            io = io[keep]
            a_ids.append(a_v[ia])
            b_ids.append(s_v[io])
            modes.append(s_mode[io])
            if node is None:
                nodes.append(np.repeat(blk[:, 4], a_n * o_n)[keep])
        # ... option rows kept as they are (a placement-free accumulator
        # label), new provenance only for their placed rows ...
        if verbatim:
            v_len = [n for _, _, n, _, _ in verbatim]
            v_rows = opt_rows[_ranges([lo for _, lo, _, _, _ in verbatim], v_len)]
            v_mode = s_mode[v_rows]
            placed = np.flatnonzero(v_mode >= 0)
            a_ids.append(np.repeat(np.asarray([a for *_, a, _ in verbatim]), v_len)[placed])
            b_ids.append(s_v[v_rows[placed]])
            modes.append(v_mode[placed])
            if node is None:
                nodes.append(
                    np.repeat(np.asarray([c for *_, c in verbatim]), v_len)[placed]
                )
            self.labels_generated += int(placed.shape[0])
        # ... and one provenance append for every new row of the step.
        if a_ids:
            ids = self.prov.append_merges(
                _cat(a_ids),
                _cat(b_ids),
                _cat(modes),
                _cat(nodes, np.int64) if node is None else node,
            )
        if blocks:
            kept_g = cg[keep]
            kept_p = cp[keep]
            lo = 0
            for (r, _, _), hi in zip(swept, ends, strict=True):
                results[r] = (kept_g[lo:hi], kept_p[lo:hi], ids[lo:hi])
                lo = hi
            for r, (_, la, _, lb, _) in copies:
                hi = lo + la * lb
                results[r] = (kept_g[lo:hi], kept_p[lo:hi], ids[lo:hi])
                lo = hi
        if verbatim:
            v_v = s_v[v_rows]
            v_v[placed] = ids[n_keep:]
            v_g = s_g[v_rows]
            v_p = s_p[v_rows]
            lo = 0
            for r, _, n, _, _ in verbatim:
                results[r] = (v_g[lo : lo + n], v_p[lo : lo + n], v_v[lo : lo + n])
                lo += n
        # Larger buckets, one at a time, through the prefilter.
        if large:
            o_cols = (s_g[opt_rows], s_p[opt_rows], s_v[opt_rows], s_mode[opt_rows])
            for r, blks, total in large:
                front = _large_bucket(blks, (a_g, a_p, a_v), o_cols, self.prov)
                self.labels_generated += total
                self.merge_rejected += total - int(front[0].shape[0])
                results[r] = front

        for fold, entries in layouts:
            merged = {f: results[r] for f, r in entries}
            self.merges += 1
            if stats is not None:
                stats.record_table(_front_sizes(merged))
            fold.acc = merged  # type: ignore[assignment]


def power_frontier_array(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
    *,
    stats: ParetoDPStats | None = None,
    front_store: FrontStore | None = None,
) -> PowerFrontier:
    """Exact cost/power frontier — array-kernel drop-in for
    :func:`~repro.power.dp_power_pareto.power_frontier`.

    Same exceptions, byte-identical frontier (pinned by the equivalence
    suite); only the merge engine differs.  The returned
    :class:`~repro.power.dp_power_pareto.PowerFrontier` shares the root
    sweep's output columns as its :class:`FrontierColumns` backing.

    Without ``front_store`` the solve is cold: every node's table is
    computed.  A ``front_store`` (a :class:`repro.power.FrontStore`,
    which the reference kernel does not take) answers repeated subtrees
    within this solve and retains every table for later ones.  The
    provenance log lives on the store in that mode, so aliases published
    in one solve stay resolvable in later ones.
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
    # which is only sound while every mode power is strictly positive:
    # extreme alpha/capacity_scale combinations can underflow
    # ``(W/s)^alpha`` to exactly 0.0 with zero static power.  Then the
    # sentinel is unmatchable (-1.0: label powers are never negative).
    alias_p = 0.0 if all(mp > 0.0 for mp in mode_power) else -1.0

    codes: Sequence[int] = ()
    table_keys: Sequence[int] = ()
    if front_store is not None:
        # Store mode (live sessions): the session-owned store both answers
        # repeated subtrees within this solve and retains every computed
        # table for the next one.
        front_store.begin_solve()
        sub = front_store.codes_for(tree, pre)
        codes, table_keys = sub.codes, sub.table_keys

    memo_hits = 0
    memo_misses = 0
    memo_shared = 0

    if front_store is not None:
        # Stored alias columns index the session-wide log, so the log
        # must outlive any one solve: it lives on the store (created here
        # lazily so the store module need not import this one).
        prov = front_store.prov
        if prov is None:
            prov = front_store.prov = _ProvLog()
    else:
        prov = _ProvLog()
    children = tree.children
    loads = tree.client_loads.tolist()
    run_fold = _RunFold(
        loads, pre, reuse_dg, create_dg, caps, mode_power, alias_p, w_max,
        prov, stats,
    )
    step = _MergeStep(
        pre, reuse_dg, create_dg, caps, mode_power, alias_p, w_max, prov, stats
    )
    # A node's computed table, or a (representative table, iso) pair for
    # a store hit whose alias rows are deferred to the consuming fold.
    tables: list[dict[int, _Front] | tuple[Mapping[int, _Front], Any] | None]
    tables = [None] * tree.n_nodes

    # Pre-pass: a depth-first walk without merging.  It makes the store
    # lookups and load checks in pre-visit order and lists the nodes to
    # compute by height (leaves and store hits are 0), each level in
    # post-visit order.  A node whose table key a post-visit earlier in
    # the walk computes is a store hit on that node's table: its lookup
    # waits until that level is published.
    height = [0] * tree.n_nodes
    levels: list[list[int]] = [[]]
    holders: dict[int, int] = {}
    deferred: list[list[int]] = [[]]
    stack: list[int] = [tree.root]
    while stack:
        j = stack.pop()
        if j < 0:
            j = ~j
            h = 1 + max(height[c] for c in children(j))
            height[j] = h
            if h == len(levels):
                levels.append([])
                deferred.append([])
            levels[h].append(j)
            if front_store is not None:
                holders[table_keys[j]] = j
            continue
        kids = children(j)
        if kids and front_store is not None:
            holder = holders.get(table_keys[j])
            if holder is not None:
                height[j] = height[holder]
                deferred[height[holder]].append(j)
                continue
            entry = front_store.lookup(table_keys[j])
            if entry is not None:
                # Aliased only when the parent's fold consumes it: a
                # child that a retained parent prefix covers never
                # pays for its alias rows.  The lazy iso materialises
                # only if a placement is reconstructed through it
                # (keeps store hits O(fronts), not O(subtree)).
                tables[j] = (entry.table, front_store.make_iso(entry, tree, codes, j))
                memo_hits += 1
                if stats is not None:
                    memo_shared += sum(len(front[0]) for front in entry.table.values())
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

    # Level by level: the nodes of one height are independent, so each
    # step merges the next child of every unfinished fold at once.
    for h in range(1, len(levels)):
        folds: list[_Fold] = []
        for j in levels[h]:
            load = loads[j]
            kids = children(j)
            acc: dict[int, _Front] = {load: _BASE_FRONT}
            acc_is_base = True
            first = 0
            prefix_key = 0
            if front_store is not None:
                # Resume after the longest retained child prefix (the full
                # fold is the node's own table, so the last child is never
                # part of a prefix key).
                first, prefix_key, prefix_entry = front_store.longest_prefix(
                    load, [codes[c] for c in kids[:-1]]
                )
                if prefix_entry is not None:
                    acc = _alias_table(
                        prov,
                        prefix_entry.table,
                        front_store.make_iso(prefix_entry, tree, codes, j),
                    )
                    acc_is_base = False
            published = acc
            # The leading run of childless children folds on plain lists;
            # the batched steps take the remaining children.
            run = _leading_run(children, kids)
            if first < run:
                if front_store is not None and run < len(kids):
                    # Chain the prefix key over the run but its last leaf;
                    # the first step adds that one and publishes the run.
                    for c in kids[first : run - 1]:
                        prefix_key = front_store.prefix_key(prefix_key, codes[c])
                acc, acc_is_base = run_fold.fold(kids[first:run], acc, acc_is_base, load)
            folds.append(
                _Fold(j, load, kids, max(first, run), first, acc, acc_is_base,
                      prefix_key, published)
            )
        active = [fold for fold in folds if fold.i < len(fold.kids)]
        while active:
            items = []
            for fold in active:
                i = fold.i
                if front_store is not None and i > fold.first:
                    # Retain the accumulator over kids[:i] (skipped when the
                    # previous child was an identity merge: nothing changed).
                    fold.prefix_key = front_store.prefix_key(
                        fold.prefix_key, codes[fold.kids[i - 1]]
                    )
                    if fold.acc is not fold.published:
                        front_store.publish(
                            fold.prefix_key,
                            tree,
                            codes,
                            fold.node,
                            fold.acc,
                            sum(int(front[0].shape[0]) for front in fold.acc.values()),
                            prefix=i,
                        )
                        fold.published = fold.acc
                child = fold.kids[i]
                child_table = tables[child]
                tables[child] = None
                if isinstance(child_table, tuple):
                    child_table = _alias_table(prov, *child_table)
                assert child_table is not None
                items.append((fold, child, child_table))
                fold.i = i + 1
            step.run(items)
            active = [fold for fold in active if fold.i < len(fold.kids)]
        for fold in folds:
            tables[fold.node] = fold.acc
            if front_store is not None:
                front_store.publish(
                    table_keys[fold.node],
                    tree,
                    codes,
                    fold.node,
                    fold.acc,
                    sum(int(front[0].shape[0]) for front in fold.acc.values()),
                )
        if front_store is not None:
            for j in deferred[h]:
                entry = front_store.lookup(table_keys[j])
                assert entry is not None
                tables[j] = (entry.table, front_store.make_iso(entry, tree, codes, j))
                memo_hits += 1
                if stats is not None:
                    memo_shared += sum(len(front[0]) for front in entry.table.values())

    root = tree.root
    root_table = tables[root]
    if isinstance(root_table, tuple):
        root_table = _alias_table(prov, *root_table)
    assert root_table is not None
    delete_constant = sum(cost_model.delete[old] for old in pre.values())
    root_dg = reuse_dg[pre[root]] if root in pre else create_dg

    # Root sweep: mirror the reference's expression tree — vectorised
    # ``(g + dg) + delete_constant`` sums, then Python's correctly-rounded
    # round per element (np.round can differ in the last ulp), then the
    # shared pareto_min_sweep tie-break.  Candidates that another one
    # certainly beats are dropped before the per-element rounding.
    g_parts: list[NDArray[np.float64]] = []
    p_parts: list[NDArray[np.float64]] = []
    id_parts: list[NDArray[np.int64]] = []
    mode_parts: list[NDArray[np.int64]] = []
    for f, front in root_table.items():
        front_g, front_p, front_prov = front
        if f == 0:
            variants = [(-1, 0.0, 0.0)]
            if root in pre:
                # Idle reused root (only ever optimal when deletion is
                # dearer than keeping a lowest-mode server).
                variants.append((0, root_dg[0], mode_power[0]))
        else:
            m = bisect_left(caps, f)
            variants = [(m, root_dg[m], mode_power[m])]
        for mode, dg, dp in variants:
            if mode < 0:
                g_parts.append(front_g + delete_constant)
                p_parts.append(front_p)
            else:
                g_parts.append((front_g + dg) + delete_constant)
                p_parts.append(front_p + dp)
            id_parts.append(front_prov)
            mode_parts.append(np.full(front_prov.shape[0], mode, dtype=np.int64))
    if not g_parts:
        raise InfeasibleError("no valid replica placement exists")
    all_g = np.concatenate(g_parts)
    all_p = np.concatenate(p_parts)
    live = np.flatnonzero(~_certainly_beaten(all_g, all_p))
    candidates = [
        (round(g, 9), round(p, 9), pid, mode)
        for g, p, pid, mode in zip(
            all_g[live].tolist(),
            all_p[live].tolist(),
            np.concatenate(id_parts)[live].tolist(),
            np.concatenate(mode_parts)[live].tolist(),
            strict=True,
        )
    ]
    candidates.sort(key=_GP)
    swept = pareto_min_sweep(candidates)
    points: list[FrontierPoint] = [
        _LazyPoint(
            cost,
            power,
            None,
            None if mode < 0 else mode,
            None,
            prov,
            prov_id,
        )
        for cost, power, prov_id, mode in swept
    ]

    if front_store is not None:
        front_store.end_solve()
    if stats is not None:
        stats.merges += step.merges + run_fold.merges
        stats.labels_created += step.labels_created + run_fold.labels_created
        stats.labels_generated += step.labels_generated + run_fold.labels_generated
        stats.merge_rejected += step.merge_rejected + run_fold.merge_rejected
        stats.memo_hits += memo_hits
        stats.memo_misses += memo_misses
        stats.memo_labels_shared += memo_shared
    columns = FrontierColumns(
        np.asarray([pt.cost for pt in points]),
        np.asarray([pt.power for pt in points]),
    )
    return PowerFrontier(
        tree, points, power_model, cost_model, pre, root, columns=columns
    )
