"""State-space collectors for the dynamic programs.

The collectors are plain mutable objects the solvers update when one is
passed in; overhead is a few integer additions per merge, so they are safe
to enable in production runs.

* :class:`CoreDPStats` — MinCost-WithPre (Theorem 1): table sizes are the
  quantity the ``O(N·(N-E+1)²·(E+1)²)`` bound controls.
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
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sized
from typing import TYPE_CHECKING

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
    "CoreDPStats",
    "ParetoDPStats",
    "PolicyServeStats",
    "ServeStats",
    "SessionServeStats",
    "WorkerRouteStats",
    "instrument_replica_update",
    "instrument_pareto_frontier",
]


@dataclass
class BatchCacheStats:
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

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "disk_evictions": self.disk_evictions,
            "stores": self.stores,
            "unique_solved": self.unique_solved,
            "duplicates_folded": self.duplicates_folded,
            "schema_discards": self.schema_discards,
            "solve_timeouts": self.solve_timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": self.quarantined,
            "quarantine_blocked": self.quarantine_blocked,
            "corrupt_lines": self.corrupt_lines,
            "hit_rate": self.hit_rate,
            "locking": self.locking,
        }


#: Latency reservoir size per policy — enough for stable p99 estimates on
#: bursty traffic without unbounded growth in a long-lived server.
_LATENCY_WINDOW = 4096


@dataclass
class PolicyServeStats:
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
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )

    def record_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)

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

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "coalesced_joins": self.coalesced_joins,
            "solves_scheduled": self.solves_scheduled,
            "overloads": self.overloads,
            "errors": self.errors,
            "p50_latency": self.latency_quantile(0.50),
            "p99_latency": self.latency_quantile(0.99),
        }


@dataclass
class SessionServeStats:
    """Counters of one live session (the serve tier's ``session.*`` ops).

    ``applies`` counts ``session.delta`` calls, ``deltas_applied`` the
    individual deltas inside them (a call may batch several);
    ``fronts_reused`` / ``fronts_invalidated`` mirror the
    :class:`repro.dynamics.SessionStats` store counters (tables answered
    from the retained store vs recomputed along the dirty root paths).
    Delta latencies (seconds, request decode to re-solved frontier) land
    in the same sliding-window quantile machinery as
    :class:`PolicyServeStats`.
    """

    applies: int = 0
    deltas_applied: int = 0
    fronts_reused: int = 0
    fronts_invalidated: int = 0
    errors: int = 0
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )

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

    def latency_quantile(self, q: float) -> float | None:
        """Nearest-rank ``q``-quantile of the latency window.

        ``None`` for an idle window (no deltas applied yet) — never
        ``0.0``, which would be indistinguishable from a measured
        zero-latency apply.
        """
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def merge(self, other: SessionServeStats) -> SessionServeStats:
        """Fold ``other`` into this collector (closed-session aggregation)."""
        self.applies += other.applies
        self.deltas_applied += other.deltas_applied
        self.fronts_reused += other.fronts_reused
        self.fronts_invalidated += other.fronts_invalidated
        self.errors += other.errors
        self.latencies.extend(other.latencies)
        return self

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "applies": self.applies,
            "deltas_applied": self.deltas_applied,
            "fronts_reused": self.fronts_reused,
            "fronts_invalidated": self.fronts_invalidated,
            "errors": self.errors,
            "p50_delta_latency": self.latency_quantile(0.50),
            "p99_delta_latency": self.latency_quantile(0.99),
        }


@dataclass
class ServeStats:
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

    def as_dict(self) -> dict[str, object]:
        return {
            "connections": self.connections,
            "batches": self.batches,
            "batch_instances": self.batch_instances,
            "policies": {
                name: stats.as_dict()
                for name, stats in sorted(self.policies.items())
            },
        }


@dataclass
class WorkerRouteStats:
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

    def as_dict(self) -> dict[str, int]:
        return {
            "routed": self.routed,
            "sheds": self.sheds,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "deaths": self.deaths,
            "respawns": self.respawns,
        }


@dataclass
class ClusterStats:
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

    def as_dict(self) -> dict[str, object]:
        return {
            "connections": self.connections,
            "requests_routed": self.requests_routed,
            "retries": self.retries,
            "rejected": self.rejected,
            "lost_sessions": self.lost_sessions,
            "workers": {
                name: stats.as_dict()
                for name, stats in sorted(self.workers.items())
            },
        }


@dataclass
class CoreDPStats:
    """Table statistics of one MinCost-WithPre run.

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

    def as_dict(self) -> dict[str, int]:
        return {
            "merges": self.merges,
            "total_cells": self.total_cells,
            "max_cells": self.max_cells,
            "max_e_dim": self.max_e_dim,
            "max_n_dim": self.max_n_dim,
        }


@dataclass
class ParetoDPStats:
    """Label statistics of one (or many aggregated) power-frontier runs.

    ``labels_created`` counts the full ``|acc| × |options|`` candidate
    cross product the dominance argument is pruning (the labels the old
    materialise-then-prune kernel used to allocate); ``labels_generated``
    is the subset the dominance-aware merge actually materialised
    (everything in between was skipped as provably dominated without ever
    being built), and ``merge_rejected`` the generated candidates that a
    better label then beat at pop time.  ``memo_hits`` / ``memo_misses``
    count subtree-table lookups by labelled AHU code, and
    ``memo_labels_shared`` the labels answered from a shared table
    instead of being recomputed.  ``kernel_solves`` labels the runs by
    merge engine (``{"array": 3, "tuple": 1}``) so aggregated batch/serve
    counters say which kernel produced them.
    """

    merges: int = 0
    labels_created: int = 0  #: candidate cross-product size before dominance
    labels_generated: int = 0  #: candidates the dominance-aware merge built
    labels_kept: int = 0  #: labels surviving Pareto pruning
    merge_rejected: int = 0  #: generated candidates dominated at merge time
    memo_hits: int = 0  #: subtree tables answered from the AHU memo
    memo_misses: int = 0  #: subtree tables computed (then memoized)
    memo_labels_shared: int = 0  #: labels served from a memoized table
    max_front_size: int = 0  #: largest (g, p) front for a single flow value
    max_flow_keys: int = 0  #: most distinct flow values at one node
    #: solves per merge engine, e.g. ``{"array": 3}`` (kernel knob label)
    kernel_solves: dict[str, int] = field(default_factory=dict)

    def record_kernel(self, name: str) -> None:
        """Count one solve under the given kernel label."""
        self.kernel_solves[name] = self.kernel_solves.get(name, 0) + 1

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

    _SUM_FIELDS = (
        "merges",
        "labels_created",
        "labels_generated",
        "labels_kept",
        "merge_rejected",
        "memo_hits",
        "memo_misses",
        "memo_labels_shared",
    )
    _MAX_FIELDS = ("max_front_size", "max_flow_keys")

    def absorb(self, counters: Mapping[str, float]) -> ParetoDPStats:
        """Fold another run's ``as_dict`` counters into this collector.

        Used by the batch CLI and the serving tier to aggregate the
        per-record kernel statistics solver policies attach to cache
        records; unknown/derived keys are ignored, missing keys count 0.
        """
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + int(counters.get(name, 0)))
        for name in self._MAX_FIELDS:
            setattr(
                self, name, max(getattr(self, name), int(counters.get(name, 0)))
            )
        solves = counters.get("kernel_solves")
        if isinstance(solves, Mapping):
            for kernel, count in solves.items():
                self.kernel_solves[str(kernel)] = self.kernel_solves.get(
                    str(kernel), 0
                ) + int(count)
        return self

    def as_dict(self) -> dict[str, object]:
        return {
            "merges": self.merges,
            "labels_created": self.labels_created,
            "labels_generated": self.labels_generated,
            "labels_kept": self.labels_kept,
            "merge_rejected": self.merge_rejected,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_labels_shared": self.memo_labels_shared,
            "max_front_size": self.max_front_size,
            "max_flow_keys": self.max_flow_keys,
            "prune_ratio": self.prune_ratio,
            "generation_ratio": self.generation_ratio,
            "memo_hit_rate": self.memo_hit_rate,
            "kernel_solves": dict(sorted(self.kernel_solves.items())),
        }


def instrument_replica_update(
    tree: Tree,
    capacity: int,
    preexisting: Iterable[int] = (),
    cost_model: CostLike | None = None,
) -> tuple["PlacementResult", CoreDPStats]:
    """Run :func:`repro.core.dp_withpre.replica_update` with a collector."""
    from repro.core.dp_withpre import replica_update

    stats = CoreDPStats()
    result = replica_update(tree, capacity, preexisting, cost_model, stats=stats)
    return result, stats


def instrument_pareto_frontier(
    tree: Tree,
    power_model: PowerModel,
    cost_model: ModalCostModel,
    preexisting_modes: Mapping[int, int] | None = None,
) -> tuple["PowerFrontier", ParetoDPStats]:
    """Run :func:`repro.power.dp_power_pareto.power_frontier` with a collector."""
    from repro.power.dp_power_pareto import power_frontier

    stats = ParetoDPStats()
    frontier = power_frontier(
        tree, power_model, cost_model, preexisting_modes, stats=stats
    )
    return frontier, stats
