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
``(g, p)`` with one sort per merge and keeps, per bucket, exactly what a
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

**Leaf-run fold.**  Paper trees are mostly leaves, and a leaf's table is
one base label at flow = its load, which the general merge would push
through a dozen numpy calls.  So each node folds the *leading run* of
its children — the longest prefix of childless ones — on small Python
lists (:class:`_RunFold`), converts the accumulator to columns once,
and hands it to the general path for the remaining children (internal
ones, and any leaf after one).  The list fold is the per-child fold,
exactly:

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
``prefix_key`` chain over its leaf codes.

On top of the merge, the kernel has structural fast paths the
reference deliberately lacks: identity skips for empty subtrees, verbatim front *aliasing* when
one operand is provably placement-free (the ``alias_p`` sentinel,
including its underflow guard), shifted singleton copies as pure vector
adds, and AHU subtree memoization whose alias tables share the
representative's ``g``/``p`` buffers zero-copy.  Provenance is columnar
too: one growable log of ``(kind, a, b, node, mode)`` entries plus a
side table of memo isomorphisms; placements are reconstructed by walking
log indices.  The returned :class:`FrontierPoint`\\ s hold ``(log, id)``
pairs and reconstruct lazily on :meth:`FrontierPoint.placement` — the
same deferral the reference gets from its label back-chains, so a
frontier consumer that only reads ``(cost, power)`` columns never pays
for placement walks.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
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

#: Provenance entry kinds (the reference's back tags, plus memo aliases).
_K_BASE = 0  #: the shared empty label (no placements)
_K_MERGE = 1  #: "m": combine labels a and b
_K_PLACE = 2  #: "x": combine a and b, placing a replica on node at mode
_K_ALIAS = 3  #: "s": memo alias of a through isomorphism isos[b]

_BASE_G = np.zeros(1)
_BASE_P = np.zeros(1)
_BASE_PROV = np.zeros(1, dtype=np.int64)
for _arr in (_BASE_G, _BASE_P, _BASE_PROV):
    _arr.setflags(write=False)
#: The shared base front: prov id 0 is every log's base entry.
_BASE_FRONT: _Front = (_BASE_G, _BASE_P, _BASE_PROV)


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
        # dicts, or lazy mapping-like isos in front-store mode — the
        # placement walk only ever subscripts them.
        self.isos: list[Any] = []

    def append_merges(
        self,
        a_ids: NDArray[np.int64],
        b_ids: NDArray[np.int64],
        mode_col: NDArray[np.int64],
        node: int,
    ) -> NDArray[np.int64]:
        """Batch-append merge entries; mode -1 = pure pass, else place."""
        start = len(self.kind)
        n = int(mode_col.shape[0])
        self.kind.frombytes(
            np.where(mode_col < 0, _K_MERGE, _K_PLACE).astype(np.int8).tobytes()
        )
        self.a.frombytes(a_ids.astype(np.int64, copy=False).tobytes())
        self.b.frombytes(b_ids.astype(np.int64, copy=False).tobytes())
        self.node.extend(array("q", [node]) * n)
        self.mode.frombytes(mode_col.astype(np.int64, copy=False).tobytes())
        return np.arange(start, start + n, dtype=np.int64)

    def add_iso(self, iso: Any) -> int:
        """Register one memo isomorphism; returns its index for aliases."""
        self.isos.append(iso)
        return len(self.isos) - 1

    def append_aliases(
        self, rep_prov: NDArray[np.int64], iso_idx: int
    ) -> NDArray[np.int64]:
        """Batch-append memo-alias entries sharing one isomorphism."""
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

        Memo aliases are resolved by composing the accumulated subtree
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

        Reproduces the general per-child fold of
        :func:`power_frontier_array` for a child whose table is the single
        base label at flow = its load: same candidates in the same build
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


def power_frontier_array(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
    *,
    stats: ParetoDPStats | None = None,
    memoize: bool = True,
    front_store: FrontStore | None = None,
) -> PowerFrontier:
    """Exact cost/power frontier — array-kernel drop-in for
    :func:`~repro.power.dp_power_pareto.power_frontier`.

    Same exceptions, byte-identical frontier (pinned by the equivalence
    suite); only the merge engine differs.  The returned
    :class:`~repro.power.dp_power_pareto.PowerFrontier` shares the root
    sweep's output columns as its :class:`FrontierColumns` backing.

    ``front_store`` (a :class:`repro.power.FrontStore`, which the
    reference kernel does not take) switches table sharing from the
    solve-local memo to the store, which also retains every table across
    solves (``memoize`` is then ignored).  The provenance log lives on
    the store in that mode, so aliases published in one solve stay
    resolvable in later ones.
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
    memo: dict[int, tuple[int, dict[int, _Front]]] = {}
    recurring: set[int] = set()
    if front_store is not None:
        # Store mode (live sessions): the session-owned store both answers
        # repeated subtrees within this solve and retains every computed
        # table for the next one, so the solve-local memo stays unused.
        front_store.begin_solve()
        sub = front_store.codes_for(tree, pre)
        codes, table_keys = sub.codes, sub.table_keys
    elif memoize:
        from collections import Counter

        from repro.batch.canonical import cached_subtree_codes

        sub = cached_subtree_codes(tree, pre)
        codes, table_keys = sub.codes, sub.table_keys
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
    # A node's computed table, or a (representative table, iso) pair for
    # a store/memo hit whose alias rows are deferred to the consuming fold.
    tables: list[dict[int, _Front] | tuple[Mapping[int, _Front], Any] | None]
    tables = [None] * tree.n_nodes
    int64 = np.int64
    neg_one = np.int64(-1)

    stack: list[int] = [tree.root]
    while stack:
        j = stack.pop()
        if j >= 0:
            kids = children(j)
            if kids and (front_store is not None or memoize):
                rep_table: Mapping[int, _Front] | None = None
                iso_obj: Any = None
                if front_store is not None:
                    entry = front_store.lookup(table_keys[j])
                    if entry is not None:
                        rep_table = entry.table
                        # Lazy iso: materialised only if a placement is
                        # reconstructed through it (keeps store hits
                        # O(fronts), not O(subtree)).
                        iso_obj = front_store.make_iso(entry, tree, codes, j)
                else:
                    hit = memo.get(table_keys[j])
                    if hit is not None:
                        rep, rep_table = hit
                        iso_obj = _subtree_iso(tree, codes, rep, j)
                if rep_table is not None:
                    # Aliased only when the parent's fold consumes it: a
                    # child that a retained parent prefix covers never
                    # pays for its alias rows.
                    tables[j] = (rep_table, iso_obj)
                    memo_hits += 1
                    if stats is not None:
                        memo_shared += sum(
                            len(front[0]) for front in rep_table.values()
                        )
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

        # Post-visit: fold the children into this node.
        j = ~j
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
        published_acc = acc
        # The leading run of childless children folds on plain lists; the
        # general path below takes the remaining children.
        run = _leading_run(children, kids)
        if first < run:
            if front_store is not None and run < len(kids):
                # Chain the prefix key over the run but its last leaf; the
                # loop's first step adds that one and publishes the run.
                for c in kids[first : run - 1]:
                    prefix_key = front_store.prefix_key(prefix_key, codes[c])
            acc, acc_is_base = run_fold.fold(kids[first:run], acc, acc_is_base, load)
        for i in range(max(first, run), len(kids)):
            if front_store is not None and i > first:
                # Retain the accumulator over kids[:i] (skipped when the
                # previous child was an identity merge: nothing changed).
                prefix_key = front_store.prefix_key(prefix_key, codes[kids[i - 1]])
                if acc is not published_acc:
                    front_store.publish(
                        prefix_key,
                        tree,
                        codes,
                        j,
                        acc,
                        sum(int(front[0].shape[0]) for front in acc.values()),
                        prefix=i,
                    )
                    published_acc = acc
            child = kids[i]
            child_table = tables[child]
            tables[child] = None
            if isinstance(child_table, tuple):
                child_table = _alias_table(prov, *child_table)
            assert child_table is not None
            dg_by_mode = reuse_dg[pre[child]] if child in pre else create_dg

            # Identity fast path: an empty subtree contributes nothing.
            if len(child_table) == 1:
                zf = child_table.get(0)
                if (
                    zf is not None
                    and len(zf[0]) == 1
                    # alias_p is a copied sentinel, compared bit-for-bit,
                    # never computed — audited equality.
                    # repro-lint: ignore[float-eq]
                    and zf[1][0] == alias_p
                    and dg_by_mode[0] >= 0.0
                ):
                    merges += 1
                    if stats is not None:
                        labels_created += sum(
                            len(front[0]) for front in acc.values()
                        )
                        stats.record_table(_front_sizes(acc))
                    continue

            # Flatten the child's fronts once: every merge path below
            # consumes the same placed/pass candidate columns.
            flows = list(child_table)
            fronts = [child_table[f] for f in flows]
            seg_len = [int(front[0].shape[0]) for front in fronts]
            if len(fronts) == 1:
                c_g, c_p, c_prov = fronts[0]
            elif fronts:
                c_g = np.concatenate([front[0] for front in fronts])
                c_p = np.concatenate([front[1] for front in fronts])
                c_prov = np.concatenate([front[2] for front in fronts])
            else:
                # Child overflowed W_M everywhere (infeasible below): its
                # table is empty, but the merge still runs for the stats
                # mirror — every downstream column is empty.
                c_g = np.empty(0)
                c_p = np.empty(0)
                c_prov = np.empty(0, dtype=int64)
            mode_by_flow = [bisect_left(caps, f) for f in flows]
            seg_rep = np.repeat(np.arange(len(flows)), seg_len)
            placed_g_col = c_g + np.asarray(
                [dg_by_mode[m] for m in mode_by_flow]
            )[seg_rep]
            placed_p_col = c_p + np.asarray(
                [mode_power[m] for m in mode_by_flow]
            )[seg_rep]
            placed_mode_col = np.asarray(mode_by_flow, dtype=int64)[seg_rep]

            # The pool of flow-0 candidates: every front placed (landing
            # on flow 0), plus the passed flow-0 front if there is one.
            if 0 in child_table:
                zf0 = child_table[0]
                pool_g_col = np.concatenate((placed_g_col, zf0[0]))
                pool_p_col = np.concatenate((placed_p_col, zf0[1]))
                pool_src = np.concatenate((c_prov, zf0[2]))
                pool_mode_col = np.concatenate(
                    (placed_mode_col, np.full(len(zf0[0]), neg_one))
                )
            else:
                pool_g_col = placed_g_col
                pool_p_col = placed_p_col
                pool_src = c_prov
                pool_mode_col = placed_mode_col
            pool_n = int(pool_g_col.shape[0])

            if acc_is_base:
                # First effective merge: the accumulator is the bare base
                # label, so pass fronts alias wholesale (shifted to
                # flow + load); only the pool needs a sweep.
                acc_is_base = False
                merged: dict[int, _Front] = {}
                for f, front in child_table.items():
                    if f:
                        ff = f + load
                        if ff <= w_max:
                            merged[ff] = front
                if stats is not None:
                    labels_created += pool_n + sum(
                        len(front[0]) for front in merged.values()
                    )
                if pool_n:
                    if pool_n > 1:
                        sel, _ = _sweep(pool_g_col, pool_p_col, (pool_n,))
                    else:
                        sel = np.zeros(1, dtype=np.intp)
                    kept_g = pool_g_col[sel]
                    kept_p = pool_p_col[sel]
                    kept_src = pool_src[sel]
                    kept_mode = pool_mode_col[sel]
                    placed_sel = np.flatnonzero(kept_mode >= 0)
                    prov_col = kept_src.copy()
                    if placed_sel.shape[0]:
                        prov_col[placed_sel] = prov.append_merges(
                            np.zeros(placed_sel.shape[0], dtype=int64),
                            kept_src[placed_sel],
                            kept_mode[placed_sel],
                            child,
                        )
                        labels_generated += int(placed_sel.shape[0])
                    merged[load] = (kept_g, kept_p, prov_col)
                merges += 1
                if stats is not None:
                    stats.record_table(_front_sizes(merged))
                acc = merged
                continue

            # General merge.  Options per child flow: pass the front
            # unchanged (mode -1), or the swept flow-0 pool.  Options are
            # virtual — provenance is allocated only for accepted merges.
            if pool_n > 1:
                sel, _ = _sweep(pool_g_col, pool_p_col, (pool_n,))
                opt0 = (
                    pool_g_col[sel],
                    pool_p_col[sel],
                    pool_src[sel],
                    pool_mode_col[sel],
                )
            else:
                opt0 = (pool_g_col, pool_p_col, pool_src, pool_mode_col)
            options: dict[int, tuple] = {
                f: child_table[f] for f in flows if f
            }
            options[0] = opt0

            # Flatten accumulator and options for the batched candidate
            # build (offsets feed the gather-index arithmetic below).
            acc_flows = list(acc)
            a_start: dict[int, int] = {}
            pos = 0
            for f1 in acc_flows:
                a_start[f1] = pos
                pos += int(acc[f1][0].shape[0])
            if len(acc_flows) == 1:
                a_g, a_p, a_prov = acc[acc_flows[0]]
            elif acc_flows:
                a_g = np.concatenate([acc[f1][0] for f1 in acc_flows])
                a_p = np.concatenate([acc[f1][1] for f1 in acc_flows])
                a_prov = np.concatenate([acc[f1][2] for f1 in acc_flows])
            else:
                a_g = np.empty(0)
                a_p = np.empty(0)
                a_prov = np.empty(0, dtype=int64)
            o_start: dict[int, int] = {}
            pos = 0
            opt_flows = list(options)
            for f2 in opt_flows:
                o_start[f2] = pos
                pos += int(options[f2][0].shape[0])
            o_total = pos
            o_g = np.concatenate([options[f2][0] for f2 in opt_flows])
            o_p = np.concatenate([options[f2][1] for f2 in opt_flows])
            o_src = np.concatenate([options[f2][2] for f2 in opt_flows])
            o_mode = np.full(o_total, neg_one)
            z0, zn = o_start[0], int(opt0[0].shape[0])
            o_mode[z0 : z0 + zn] = opt0[3]

            out_pairs: dict[int, list[tuple[int, int]]] = {}
            for f1 in acc_flows:
                for f2 in opt_flows:
                    f = f1 + f2
                    if f <= w_max:
                        prs = out_pairs.get(f)
                        if prs is None:
                            out_pairs[f] = [(f1, f2)]
                        else:
                            prs.append((f1, f2))

            merged = {}
            #: (flow, operand blocks, candidate count) per combinatorial bucket.
            buckets: list[tuple[int, list[tuple[int, int, int, int]], int]] = []
            for f, prs in out_pairs.items():
                if len(prs) == 1:
                    f1, f2 = prs[0]
                    front_a = acc[f1]
                    la = int(front_a[0].shape[0])
                    has_modes = f2 == 0
                    opt = options[f2]
                    lb = int(opt[0].shape[0])
                    labels_created += la * lb
                    if la == 1:
                        # Singleton accumulator: shifted copy (or alias).
                        g0 = float(front_a[0][0])
                        p0 = float(front_a[1][0])
                        aprov0 = int(front_a[2][0])
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if p0 == alias_p:
                            # Placement-free accumulator label: merging is
                            # the identity on the options — alias pass
                            # rows, allocate only for placed entries.
                            if has_modes:
                                og_col, op_col, osrc, omode_col = opt
                                placed_sel = np.flatnonzero(omode_col >= 0)
                                prov_col = osrc.copy()
                                if placed_sel.shape[0]:
                                    prov_col[placed_sel] = prov.append_merges(
                                        np.full(
                                            placed_sel.shape[0],
                                            aprov0,
                                            dtype=int64,
                                        ),
                                        osrc[placed_sel],
                                        omode_col[placed_sel],
                                        child,
                                    )
                                    labels_generated += int(
                                        placed_sel.shape[0]
                                    )
                                merged[f] = (og_col, op_col, prov_col)
                            else:
                                merged[f] = (opt[0], opt[1], opt[2])
                        else:
                            labels_generated += lb
                            mode_col = (
                                opt[3]
                                if has_modes
                                else np.full(lb, neg_one)
                            )
                            merged[f] = (
                                g0 + opt[0],
                                p0 + opt[1],
                                prov.append_merges(
                                    np.full(lb, aprov0, dtype=int64),
                                    opt[2],
                                    mode_col,
                                    child,
                                ),
                            )
                        continue
                    if lb == 1:
                        # Singleton option: shifted copy along the
                        # accumulator front (or verbatim alias).
                        g1 = opt[0][0]
                        p1 = opt[1][0]
                        src1 = int(opt[2][0])
                        m1 = int(opt[3][0]) if has_modes else -1
                        # repro-lint: ignore[float-eq] — audited sentinel.
                        if p1 == alias_p and m1 < 0:
                            merged[f] = front_a
                        else:
                            labels_generated += la
                            merged[f] = (
                                front_a[0] + g1,
                                front_a[1] + p1,
                                prov.append_merges(
                                    front_a[2],
                                    np.full(la, src1, dtype=int64),
                                    np.full(la, np.int64(m1)),
                                    child,
                                ),
                            )
                        continue
                    buckets.append(
                        (f, [(a_start[f1], la, o_start[f2], lb)], la * lb)
                    )
                    continue
                total = 0
                blks: list[tuple[int, int, int, int]] = []
                for f1, f2 in prs:
                    la = int(acc[f1][0].shape[0])
                    lb = int(options[f2][0].shape[0])
                    total += la * lb
                    blks.append((a_start[f1], la, o_start[f2], lb))
                labels_created += total
                buckets.append((f, blks, total))

            # Combinatorial buckets.  Every bucket at or below
            # _FILTER_LIMIT candidates is merged in one batch: one set of
            # gathered (accumulator row, option) columns — acc operand
            # first, the summation-order contract — one bucket-major
            # sweep (ties keep their within-bucket order) and one
            # provenance append for every kept row, in bucket order.
            swept: dict[int, _Front] = {}
            small = [bk for bk in buckets if bk[2] <= _FILTER_LIMIT]
            if small:
                b_as_col, b_na_col, b_os_col, b_nb_col = np.asarray(
                    [blk for _, blks, _ in small for blk in blks], dtype=int64
                ).T
                b_size_col = b_na_col * b_nb_col
                n_cand = int(b_size_col.sum())
                bid = np.repeat(np.arange(b_size_col.shape[0]), b_size_col)
                intra = np.arange(n_cand) - (np.cumsum(b_size_col) - b_size_col)[bid]
                nb_col = b_nb_col[bid]
                ia = b_as_col[bid] + intra // nb_col
                io = b_os_col[bid] + intra % nb_col
                cg = a_g[ia] + o_g[io]
                cp = a_p[ia] + o_p[io]
                sel, bucket_ends = _sweep(cg, cp, [size for _, _, size in small])
                ia_sel = ia[sel]
                io_sel = io[sel]
                kept_g = cg[sel]
                kept_p = cp[sel]
                kept_prov = prov.append_merges(
                    a_prov[ia_sel], o_src[io_sel], o_mode[io_sel], child
                )
                labels_generated += n_cand
                merge_rejected_n += n_cand - int(sel.shape[0])
                lo = 0
                for (f, _, _), hi in zip(small, bucket_ends, strict=True):
                    swept[f] = (kept_g[lo:hi], kept_p[lo:hi], kept_prov[lo:hi])
                    lo = hi

            # Larger buckets, one at a time: candidate columns as broadcast
            # *outer adds* over contiguous operand slices, through the
            # certain-reject prefilter before the sort.
            for f, blks, n_bucket in buckets:
                if n_bucket <= _FILTER_LIMIT:
                    continue
                cg = np.concatenate(
                    [
                        (a_g[s : s + n, None] + o_g[o : o + m]).ravel()
                        for s, n, o, m in blks
                    ]
                )
                cp = np.concatenate(
                    [
                        (a_p[s : s + n, None] + o_p[o : o + m]).ravel()
                        for s, n, o, m in blks
                    ]
                )
                labels_generated += n_bucket

                # Certain-reject prefilter.  The sweep's running best is
                # sandwiched within _EPS of the strict prefix-min of p, so
                # any same-bucket candidate with strictly smaller g and
                # p' <= p *certainly* rejects this one (rejections never
                # move the threshold, so dropping them is exact).  Pilot
                # envelope: each block's edge candidates (its full last
                # accumulator row and last option column — scalar-shifted
                # slices, elementwise identical to the broadcast values)
                # plus a coarse stride sample, g-sorted under a cumulative
                # min — the dominated interior mass dies against it before
                # the expensive lexsort ever sees it.
                pg = np.concatenate(
                    [a_g[s : s + n] + o_g[o + m - 1] for s, n, o, m in blks]
                    + [a_g[s + n - 1] + o_g[o : o + m] for s, n, o, m in blks]
                    + [cg[::_PILOT_STRIDE]]
                )
                pp = np.concatenate(
                    [a_p[s : s + n] + o_p[o + m - 1] for s, n, o, m in blks]
                    + [a_p[s + n - 1] + o_p[o : o + m] for s, n, o, m in blks]
                    + [cp[::_PILOT_STRIDE]]
                )
                porder = np.argsort(pg, kind="stable")
                pgs = pg[porder]
                env = np.minimum.accumulate(pp[porder])
                pos_col = np.searchsorted(pgs, cg, side="left") - 1
                rej = pos_col >= 0
                rej[rej] = env[pos_col[rej]] <= cp[rej]
                surv = np.flatnonzero(~rej)
                cg_s = cg[surv]
                cp_s = cp[surv]

                sel_s, _ = _sweep(cg_s, cp_s, (int(cg_s.shape[0]),))
                sel = surv[sel_s]
                merge_rejected_n += n_bucket - int(sel.shape[0])

                # Decode the kept flat positions back to operand indices.
                bsizes = np.asarray([n * m for _, n, _, m in blks], dtype=int64)
                bcum = np.concatenate(([0], np.cumsum(bsizes)))
                bidx = np.searchsorted(bcum, sel, side="right") - 1
                intra = sel - bcum[bidx]
                b_as_col = np.asarray([s for s, _, _, _ in blks], dtype=int64)
                b_os_col = np.asarray([o for _, _, o, _ in blks], dtype=int64)
                b_nb_col = np.asarray([m for _, _, _, m in blks], dtype=int64)
                ia_sel = b_as_col[bidx] + intra // b_nb_col[bidx]
                io_sel = b_os_col[bidx] + intra % b_nb_col[bidx]
                swept[f] = (
                    cg[sel],
                    cp[sel],
                    prov.append_merges(
                        a_prov[ia_sel], o_src[io_sel], o_mode[io_sel], child
                    ),
                )
            for f, _, _ in buckets:
                merged[f] = swept[f]

            merges += 1
            if stats is not None:
                stats.record_table(_front_sizes(merged))
            acc = merged
        tables[j] = acc
        if front_store is not None:
            front_store.publish(
                table_keys[j],
                tree,
                codes,
                j,
                acc,
                sum(int(front[0].shape[0]) for front in acc.values()),
            )
        elif memoize and table_keys[j] in recurring:
            memo[table_keys[j]] = (j, acc)

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
            mode_parts.append(np.full(front_prov.shape[0], mode, dtype=int64))
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
        stats.merges += merges + run_fold.merges
        stats.labels_created += labels_created + run_fold.labels_created
        stats.labels_generated += labels_generated + run_fold.labels_generated
        stats.merge_rejected += merge_rejected_n + run_fold.merge_rejected
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
