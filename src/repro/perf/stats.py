"""State-space collectors for the dynamic programs.

The collectors are plain mutable objects the solvers update when one is
passed in; overhead is a few integer additions per merge, so they are safe
to enable in production runs.

* :class:`CoreDPStats` — MinCost-WithPre's Theorem-1 kernel: ``(e, n)``
  table sizes are the quantity the ``O(N·(N-E+1)²·(E+1)²)`` bound controls.
* :class:`ParetoDPStats` — the power frontier engine: label counts show
  how far Pareto pruning compresses the Theorem-3 count-vector space
  (and how the NP-hardness manifests as label growth on adversarial
  instances such as the §4.2 gadgets).
* :class:`BatchCacheStats` — the batch serving layer
  (:mod:`repro.batch`): cache hits/misses and dedupe fold counts, the
  quantities that determine batch throughput on duplicate-heavy traffic.
* :class:`ServeStats` / :class:`PolicyServeStats` — the async serving
  frontend (:mod:`repro.serve`): per-policy request / coalesced-join /
  cache-hit counts and p50/p99 latency over a sliding window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from collections.abc import Iterable, Mapping, Sized
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dp_withpre import CostLike
    from repro.core.solution import PlacementResult
    from repro.power.dp_power_pareto import PowerFrontier
    from repro.power.modes import PowerModel
    from repro.core.costs import ModalCostModel
    from repro.tree.model import Tree

__all__ = [
    "BatchCacheStats",
    "ClusterStats",
    "Collector",
    "CoreDPStats",
    "ParetoDPStats",
    "PolicyServeStats",
    "ServeStats",
    "SessionServeStats",
    "WorkerRouteStats",
    "instrument_replica_update",
    "instrument_pareto_frontier",
]


class Collector:
    """Base of the dataclass collectors: one ``as_dict`` rule for all.

    ``as_dict`` is the collector's wire / cache-record form: the
    dataclass fields in declaration order (``repr=False`` fields such as
    latency windows are left out, and a dict of sub-collectors becomes a
    name-sorted dict of their ``as_dict``), then the attributes named in
    :attr:`DERIVED`, in order.  A field named in :attr:`DERIVED` moves to
    that tail.
    """

    DERIVED: ClassVar[tuple[str, ...]] = ()

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):  # type: ignore[arg-type]
            if f.repr and f.name not in self.DERIVED:
                value = getattr(self, f.name)
                if isinstance(value, dict):
                    value = {k: v.as_dict() for k, v in sorted(value.items())}
                out[f.name] = value
        for name in self.DERIVED:
            out[name] = getattr(self, name)
        return out


#: Latency window size per collector — enough for stable p99 estimates on
#: bursty traffic without unbounded growth in a long-lived server.
_LATENCY_WINDOW = 4096


def _latency_window() -> Any:
    """Field of a :class:`_LatencyCollector`: the last latencies, seconds."""
    return field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )


def _quantile(q: float) -> Any:
    """Read-only property: the ``q``-quantile of the latency window."""
    return property(lambda self: self.latency_quantile(q))


class _LatencyCollector(Collector):
    """A collector with a sliding ``latencies`` window."""

    latencies: deque[float]

    def latency_quantile(self, q: float) -> float | None:
        """Nearest-rank ``q``-quantile of the latency window.

        Returns ``None`` (wire ``null``) for an idle window — a window
        with no measurements is *unknown*, not a genuine zero-latency
        observation, and consumers must be able to tell the two apart.
        """
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]


@dataclass
class BatchCacheStats(Collector):
    """Cache and dedupe counters of the batch executor.

    ``hits``/``misses`` count cache lookups (one per *unique* digest in a
    batch); ``disk_hits`` is the subset of hits served by the persistent
    tier.  ``duplicates_folded`` counts instances answered by another
    instance's solve in the same batch, and ``unique_solved`` counts
    actual solver invocations.  ``evictions`` / ``disk_evictions`` track
    the LRU and the size-bounded disk tier respectively, and
    ``schema_discards`` counts cached records dropped because their
    schema did not match the requesting policy's record schema (the
    record is re-solved; see :mod:`repro.batch.registry`).

    Fault-isolation counters: ``solve_timeouts`` counts supervised
    solves convicted of overrunning their ``solve_timeout`` deadline,
    ``pool_rebuilds`` counts kill+rebuild incidents of the supervised
    pool, ``quarantined`` / ``quarantine_blocked`` count digests added
    to the poison quarantine and requests it failed fast (see
    :mod:`repro.batch.quarantine`), and ``corrupt_lines`` counts disk
    cache lines that failed parse/CRC and were moved to a
    ``.quarantine`` sidecar (see :mod:`repro.batch.cache`).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    disk_evictions: int = 0
    stores: int = 0
    unique_solved: int = 0
    duplicates_folded: int = 0
    schema_discards: int = 0
    solve_timeouts: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    quarantine_blocked: int = 0
    corrupt_lines: int = 0
    #: Cross-process locking mode of the attached cache's disk tier:
    #: ``"memory"`` (no disk tier), ``"flock"`` (advisory sidecar locks)
    #: or ``"none"`` (``fcntl`` unavailable — shared-directory writers
    #: risk interleaved/lost appends; see :mod:`repro.batch.cache`).
    locking: str = "memory"

    DERIVED = ("hit_rate", "locking")

    def record_hit(self, *, disk: bool = False) -> None:
        self.hits += 1
        if disk:
            self.disk_hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass
class PolicyServeStats(_LatencyCollector):
    """Per-policy counters of the serving frontend (:mod:`repro.serve`).

    ``requests`` counts solve requests routed to the policy;
    ``cache_hits`` the subset answered straight from the shared result
    cache, ``coalesced_joins`` the subset that joined an identical
    in-flight solve instead of scheduling a new one, and
    ``solves_scheduled`` the canonical solves actually dispatched to the
    batch backend — on duplicate-heavy traffic
    ``requests == cache_hits + coalesced_joins + solves_scheduled`` with
    the last term far smaller than the first.  Latencies are recorded per
    request (seconds, arrival to fanned-out result) in a sliding window.
    """

    requests: int = 0
    cache_hits: int = 0
    coalesced_joins: int = 0
    solves_scheduled: int = 0
    #: Requests shed at the ``max_pending`` admission bound (counted
    #: separately from ``errors``: a shed is expected load behaviour and
    #: is retried by the cluster router, not a failed solve).
    overloads: int = 0
    errors: int = 0
    latencies: deque[float] = _latency_window()

    DERIVED = ("p50_latency", "p99_latency")
    p50_latency = _quantile(0.50)
    p99_latency = _quantile(0.99)

    def record_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)


@dataclass
class SessionServeStats(_LatencyCollector):
    """Counters of one live session (the serve tier's ``session.*`` ops).

    ``applies`` counts ``session.delta`` calls, ``deltas_applied`` the
    individual deltas inside them (a call may batch several);
    ``fronts_reused`` / ``fronts_invalidated`` mirror the
    :class:`repro.dynamics.SessionStats` store counters (tables answered
    from the retained store vs recomputed along the dirty root paths).
    Delta latencies (seconds, request decode to re-solved frontier) land
    in the same latency window as :class:`PolicyServeStats`.
    """

    applies: int = 0
    deltas_applied: int = 0
    fronts_reused: int = 0
    fronts_invalidated: int = 0
    errors: int = 0
    latencies: deque[float] = _latency_window()

    DERIVED = ("p50_delta_latency", "p99_delta_latency")
    p50_delta_latency = _quantile(0.50)
    p99_delta_latency = _quantile(0.99)

    def record_apply(
        self,
        *,
        deltas: int,
        reused: int,
        invalidated: int,
        seconds: float,
    ) -> None:
        """Fold one ``session.delta`` round trip into the counters."""
        self.applies += 1
        self.deltas_applied += deltas
        self.fronts_reused += reused
        self.fronts_invalidated += invalidated
        self.latencies.append(seconds)

    def merge(self, other: SessionServeStats) -> SessionServeStats:
        """Fold ``other`` into this collector (closed-session aggregation)."""
        self.applies += other.applies
        self.deltas_applied += other.deltas_applied
        self.fronts_reused += other.fronts_reused
        self.fronts_invalidated += other.fronts_invalidated
        self.errors += other.errors
        self.latencies.extend(other.latencies)
        return self


@dataclass
class ServeStats(Collector):
    """Whole-server counters of the serving frontend (:mod:`repro.serve`).

    Per-policy breakdowns live in :attr:`policies`
    (:class:`PolicyServeStats`, created on first use); ``batches`` /
    ``batch_instances`` describe the micro-batches the drain loop pushed
    through :func:`repro.batch.solve_batch`.
    """

    connections: int = 0
    batches: int = 0
    batch_instances: int = 0
    policies: dict = field(default_factory=dict)

    def policy(self, name: str) -> PolicyServeStats:
        """The (auto-created) per-policy collector for ``name``."""
        try:
            return self.policies[name]
        except KeyError:
            stats = self.policies[name] = PolicyServeStats()
            return stats


@dataclass
class WorkerRouteStats(Collector):
    """Router-side health/overload counters for one cluster worker.

    ``routed`` counts requests the router dispatched to the worker (as
    primary *or* fallback owner), ``sheds`` the ``code: "overloaded"``
    responses it answered with, ``timeouts`` the ``code: "timeout"``
    responses (supervised solve deadline overruns — forwarded to the
    client, which may retry after backoff), ``deaths`` the times the
    router observed the worker dead (connection lost /
    spawner-reported), and ``respawns`` the times the router's spawner
    brought it back.
    """

    routed: int = 0
    sheds: int = 0
    timeouts: int = 0
    errors: int = 0
    deaths: int = 0
    respawns: int = 0


@dataclass
class ClusterStats(Collector):
    """Counters of the digest-routing cluster router
    (:class:`repro.serve.cluster.ClusterRouter`).

    ``requests_routed`` counts routable requests (solve + session.open);
    ``retries`` the fallback hops taken after a shed or a worker death,
    ``rejected`` the requests refused because every owner shed them, and
    ``lost_sessions`` live sessions orphaned by a worker death (session
    state is worker-local by design and cannot fail over).  Per-worker
    breakdowns live in :attr:`workers` (:class:`WorkerRouteStats`,
    created on first use).
    """

    connections: int = 0
    requests_routed: int = 0
    retries: int = 0
    rejected: int = 0
    lost_sessions: int = 0
    workers: dict = field(default_factory=dict)

    def worker(self, name: str) -> WorkerRouteStats:
        """The (auto-created) per-worker collector for ``name``."""
        try:
            return self.workers[name]
        except KeyError:
            stats = self.workers[name] = WorkerRouteStats()
            return stats


@dataclass
class CoreDPStats(Collector):
    """``(e, n)`` table statistics of one Theorem-1 MinCost-WithPre run.

    A merge is recorded once per child that has children of its own and
    once per node whose childless children are folded in as a leaf batch.
    """

    merges: int = 0
    total_cells: int = 0  #: sum of post-merge table sizes (work ∝ this)
    max_cells: int = 0
    max_e_dim: int = 0
    max_n_dim: int = 0

    def record_merge(self, e_dim: int, n_dim: int) -> None:
        cells = e_dim * n_dim
        self.merges += 1
        self.total_cells += cells
        self.max_cells = max(self.max_cells, cells)
        self.max_e_dim = max(self.max_e_dim, e_dim)
        self.max_n_dim = max(self.max_n_dim, n_dim)


@dataclass
class ParetoDPStats(Collector):
    """Label statistics of one (or many aggregated) power-frontier runs.

    ``labels_created`` counts the full ``|acc| × |options|`` candidate
    cross product the dominance argument is pruning (the labels the old
    materialise-then-prune kernel used to allocate); ``labels_generated``
    is the subset the dominance-aware merge actually materialised
    (everything in between was skipped as provably dominated without ever
    being built), and ``merge_rejected`` the generated candidates that a
    better label then beat at pop time.  ``memo_hits`` / ``memo_misses``
    count subtree-table lookups in a live session's
    :class:`~repro.power.frontstore.FrontStore`, and
    ``memo_labels_shared`` the labels answered from a stored table
    instead of being recomputed; a cold solve (no store) makes no
    lookups and reports 0 for all three.
    """

    merges: int = 0
    labels_created: int = 0  #: candidate cross-product size before dominance
    labels_generated: int = 0  #: candidates the dominance-aware merge built
    labels_kept: int = 0  #: labels surviving Pareto pruning
    merge_rejected: int = 0  #: generated candidates dominated at merge time
    memo_hits: int = 0  #: subtree tables answered from the front store
    memo_misses: int = 0  #: front-store lookups that computed the table
    memo_labels_shared: int = 0  #: labels served from a stored table
    max_front_size: int = 0  #: largest (g, p) front for a single flow value
    max_flow_keys: int = 0  #: most distinct flow values at one node

    DERIVED = ("prune_ratio", "generation_ratio", "memo_hit_rate")

    def record_table(self, table: Mapping[int, Sized]) -> None:
        self.max_flow_keys = max(self.max_flow_keys, len(table))
        for labs in table.values():
            self.labels_kept += len(labs)
            self.max_front_size = max(self.max_front_size, len(labs))

    @property
    def prune_ratio(self) -> float:
        """Fraction of candidate labels discarded by dominance pruning."""
        if self.labels_created == 0:
            return 0.0
        return 1.0 - self.labels_kept / self.labels_created

    @property
    def generation_ratio(self) -> float:
        """Fraction of the candidate space the merge actually built.

        Low values mean the dominance-aware skip rejected most of the
        cross product without materialising it.
        """
        if self.labels_created == 0:
            return 0.0
        return self.labels_generated / self.labels_created

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of subtree-table lookups answered from the memo."""
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    def absorb(self, counters: Mapping[str, float]) -> ParetoDPStats:
        """Fold another run's ``as_dict`` counters into this collector.

        Used by the batch CLI and the serving tier to aggregate the
        per-record kernel statistics solver policies attach to cache
        records.  Peak fields (``max_*``) take the max, every other field
        sums; unknown/derived keys (such as the per-engine solve counts
        of records written by 1.9.0) are ignored, missing keys count 0.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), int(counters.get(f.name, 0))
            fold = max(mine, theirs) if f.name.startswith("max_") else mine + theirs
            setattr(self, f.name, fold)
        return self


def instrument_replica_update(
    tree: Tree,
    capacity: int,
    preexisting: Iterable[int] = (),
    cost_model: CostLike | None = None,
) -> tuple["PlacementResult", CoreDPStats]:
    """Run the Theorem-1 kernel (:func:`repro.core.dp_withpre
    .theorem1_update`) with a collector of its ``(e, n)`` table sizes."""
    from repro.core.dp_withpre import theorem1_update

    stats = CoreDPStats()
    result = theorem1_update(tree, capacity, preexisting, cost_model, stats=stats)
    return result, stats


def instrument_pareto_frontier(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
) -> tuple["PowerFrontier", ParetoDPStats]:
    """Run the array kernel (``KERNELS["array"]``) with a collector."""
    from repro.power.kernels import KERNELS

    stats = ParetoDPStats()
    frontier = KERNELS["array"](
        tree, power_model, cost_model, preexisting_modes, stats=stats
    )
    return frontier, stats
