"""MinPower / MinPower-BoundedCost — exact Pareto-label dynamic program.

This is the paper's §4.3 algorithm.  The paper parameterises per-subtree
tables by full count vectors — ``n_j`` new servers per mode and
``e_{j,j'}`` reused servers per mode change — and minimises the requests
traversing the subtree root for every vector (complexity
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

Reference kernel
----------------
:func:`power_frontier` is the plain textbook DP, kept as the reference
the production engine (:data:`repro.power.kernels.KERNELS`, the array
kernel of :mod:`repro.power.dp_power_array`) is pinned against.  It
shares none of that engine's fast paths — no subtree memo, no
placement-free aliasing, no identity skips, no shifted copies, no
stream merge — so a bug in one of them cannot hide in both.  It is
slow on label-heavy instances and no production path calls it.

A label is one row tuple ``(g, p, back)``; ``back`` is its provenance:
``None`` (base, no placements), ``("m", a, b)`` (merge of rows ``a``
and ``b``) or ``("x", a, b, node, mode)`` (merge where a replica on
``node`` absorbs row ``b``'s flow at ``mode``).  Nodes are visited in
post-order.  Each child offers, per flow ``f`` of its table, two
options: *pass* keeps flow ``f``, *place* hosts a replica at mode
``bisect_left(caps, f)`` and lands on flow 0.  Each option bucket is
swept, crossed with the accumulator for every output flow up to
``W_M`` (sums accumulator-first, as in the array kernel), and every
output flow is finished by a stable ``(g, p)`` sort and the ``_EPS``
sweep.  At the root, candidates are rounded to 9 decimals and swept by
:func:`pareto_min_sweep`.

Tie-breaking is explicit and shared with the count-vector oracle
(:func:`pareto_min_sweep`): candidates are processed in ascending exact
``(primary, secondary)`` order and one is kept iff its secondary value
improves the best seen by more than ``_EPS`` — so of two labels whose ``p``
tie within ``_EPS``, the one with strictly smaller ``g`` (or equal ``g``
and smaller ``p``) survives, deterministically, in every kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter

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
]

_EPS = 1e-9

#: Sort key for candidate rows: compare (g, p) only — never the provenance
#: references that follow — so ties resolve by build order (stable sort),
#: deterministically.
_GP = itemgetter(0, 1)


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
        """
        if self._placement is not None:
            return {int(v): int(m) for v, m in self._placement}
        assert self._label is not None
        out: dict[int, int] = {}
        stack = [self._label]
        while stack:
            back = stack.pop()[2]
            if back is not None:
                if back[0] == "x":
                    out[back[3]] = back[4]
                stack += (back[1], back[2])
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


def _swept(cands: list[tuple]) -> list[tuple]:
    """Stable ``(g, p)`` sort plus the ``_EPS`` sweep."""
    cands.sort(key=_GP)
    return pareto_min_sweep(cands)


def power_frontier(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
) -> PowerFrontier:
    """Compute the exact cost/power frontier with the reference DP.

    A test oracle, not a solver: on label-heavy instances it is tens of
    times slower than the engine, and it takes no ``memoize=`` or
    ``stats=``.  Library callers solve with
    ``repro.power.KERNELS["array"]``, which returns the same frontier.

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

    # Placement prices: a replica at mode m adds mode_power[m] power and
    # 1 + create[m] cost on a fresh node, or 1 + changed[o][m] - delete[o]
    # on a pre-existing one (reuse credited against the deletion charge
    # re-added at the root).
    mode_power = [power_model.mode_power(m) for m in range(n_modes)]

    def price(v: int) -> list[float]:
        if v in pre:
            old = pre[v]
            return [
                1.0 + cost_model.changed[old][m] - cost_model.delete[old]
                for m in range(n_modes)
            ]
        return [1.0 + cost_model.create[m] for m in range(n_modes)]

    loads = tree.client_loads.tolist()
    tables: dict[int, dict[int, list[tuple]]] = {}
    for j in tree.post_order().tolist():
        load = loads[j]
        if load > w_max:
            raise InfeasibleError(
                f"direct client load {load} at node {j} exceeds W={w_max}",
                node=j,
            )
        acc: dict[int, list[tuple]] = {load: [(0.0, 0.0, None)]}
        for child in tree.children(j):
            dg = price(child)
            # Option buckets: (g, p, child row, mode), mode -1 = pass.
            options: dict[int, list[tuple]] = {}
            for f, front in tables.pop(child).items():
                m = bisect_left(caps, f)
                options.setdefault(f, []).extend(
                    (row[0], row[1], row, -1) for row in front
                )
                options.setdefault(0, []).extend(
                    (row[0] + dg[m], row[1] + mode_power[m], row, m)
                    for row in front
                )
            cands: dict[int, list[tuple]] = {}
            for f2, bucket in options.items():
                opts = _swept(bucket)
                for f1, front in acc.items():
                    if f1 + f2 <= w_max:
                        cands.setdefault(f1 + f2, []).extend(
                            (a[0] + o[0], a[1] + o[1], a, o)
                            for a in front
                            for o in opts
                        )
            acc = {
                f: [
                    (g, p, ("m", a, o[2]) if o[3] < 0
                     else ("x", a, o[2], child, o[3]))
                    for g, p, a, o in _swept(c)
                ]
                for f, c in cands.items()
            }
        tables[j] = acc

    root = tree.root
    delete_constant = sum(cost_model.delete[old] for old in pre.values())
    root_dg = price(root)

    # Costs/powers are rounded to 9 decimals so that mathematically equal
    # sums accumulated in different orders collapse to one frontier point
    # (keeps frontiers comparable across solvers).  Root mode -1 encodes
    # "no replica on the root".
    candidates: list[tuple] = []
    for f, front in tables[root].items():
        if f == 0:
            candidates += [
                (round(row[0] + delete_constant, 9), round(row[1], 9), row, -1)
                for row in front
            ]
            if root in pre:
                # Idle reused root (only ever optimal when deletion is
                # dearer than keeping a lowest-mode server).
                candidates += [
                    (
                        round(row[0] + root_dg[0] + delete_constant, 9),
                        round(row[1] + mode_power[0], 9),
                        row,
                        0,
                    )
                    for row in front
                ]
        else:
            m = bisect_left(caps, f)
            candidates += [
                (
                    round(row[0] + root_dg[m] + delete_constant, 9),
                    round(row[1] + mode_power[m], 9),
                    row,
                    m,
                )
                for row in front
            ]
    if not candidates:
        raise InfeasibleError("no valid replica placement exists")

    points = [
        FrontierPoint(cost, power, row, None if m < 0 else m)
        for cost, power, row, m in _swept(candidates)
    ]
    return PowerFrontier(tree, points, power_model, cost_model, pre, root)
