"""High-throughput batch solving: canonical dedupe + cache + supervised pool.

:func:`solve_batch` turns the per-instance solvers into a serving-shaped
engine.  For a batch of :class:`~repro.batch.instance.BatchInstance`:

1. every instance is canonicalised (:mod:`repro.batch.canonical`) and
   keyed by its content digest — relabelled isomorphic duplicates collapse
   onto one key;
2. unique keys are looked up in an optional
   :class:`~repro.batch.cache.ResultCache` (LRU + sharded disk tier);
3. the remaining misses are solved — serially, or across a *supervised*
   process pool (:class:`SupervisedPool`) in contiguous chunks (the
   chunk/merge discipline of :mod:`repro.experiments.parallel`);
4. canonical solutions are fanned back out through each instance's inverse
   relabelling and re-verified against the *original* tree, so a cache or
   mapping bug can never return an invalid placement silently.

Supervision (the fault-isolation layer)
---------------------------------------
Chunk futures carry an optional wall-clock deadline (``solve_timeout=``).
A hung or pool-breaking chunk is attributed to specific digests via
per-worker *journals* — each worker appends ``start``/``done`` marks to
its own append-only file before/after every canonical solve — so the
supervisor knows exactly which digests were in flight when the incident
happened.  Those suspects are then re-run one at a time in a throwaway
single-worker sandbox pool: a sandbox crash or deadline overrun convicts
the digest (typed :class:`~repro.exceptions.QuarantinedError` /
:class:`~repro.exceptions.SolveTimeoutError`, registered with the
optional :class:`~repro.batch.quarantine.QuarantineRegistry`), a clean
sandbox solve exonerates it and keeps the record.  The serving pool is
killed and rebuilt **once per incident**, completed results from other
chunks are never lost, and innocent bystander digests are re-queued for
the next wave.  Injected faults (:mod:`repro.faults`) are honoured at
the worker entry point, which is how the chaos suite drives this path
deterministically.

Only relabelling-covariant data crosses process and disk boundaries —
the canonical replica set for the MinCost family, ``(cost, power,
canonical modes)`` triples for the power family; per-instance bookkeeping
is recomputed in O(N) during fan-out, which keeps cache records tiny and
JSON-able.

Everything solver-specific lives in :mod:`repro.batch.registry`: which
instance parameters enter the digest, how a canonical payload is solved,
and how records fan back out.  This module never dispatches on policy
names — adding a solver is a registry entry, not an executor fork.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from pathlib import Path
from typing import Any

from repro.batch.cache import ResultCache
from repro.batch.canonical import Canonical
from repro.batch.instance import BatchInstance
from repro.batch.quarantine import QuarantineRegistry
from repro.batch.registry import get_policy
from repro.exceptions import (
    ConfigurationError,
    QuarantinedError,
    SolveTimeoutError,
)
from repro.faults import registry as _faults
from repro.perf.stats import BatchCacheStats

__all__ = ["SupervisedPool", "instance_key", "solve_batch"]

#: An incident-surviving digest is force-probed after this many re-runs,
#: even if its journal marks look innocent — guarantees wave progress.
_MAX_INCIDENT_RERUNS = 2

#: ``(digest, canonical payload)`` pair routed to workers.
_Item = tuple[str, dict[str, Any]]
#: Per-digest worker outcome: ``("ok", record)`` or ``("error", exc)``.
_Outcome = tuple[str, Any]


def _solve_canonical(payload: dict[str, Any]) -> dict[str, Any]:
    """Solve one canonical payload via its policy's solver."""
    return get_policy(payload["solver"]).solve(payload)


# -- worker side -------------------------------------------------------

# Set by the pool initializer inside SupervisedPool workers; None in the
# parent process and in sandbox probes, where journal marks are a no-op.
_journal_path: str | None = None


def _init_worker(journal_dir: str) -> None:
    global _journal_path
    _journal_path = os.path.join(journal_dir, f"worker-{os.getpid()}.journal")


def _mark(event: str, digest: str) -> None:
    """Append one journal mark, flush-safe against SIGKILL."""
    if _journal_path is None:
        return
    with open(_journal_path, "a", encoding="utf-8") as fh:
        fh.write(f"{event} {digest}\n")


def _solve_entry(items: list[_Item]) -> list[_Outcome]:
    """Worker entry point: solve a chunk, one journalled outcome per digest.

    Per-digest exceptions are *captured* (not raised) so one failing
    payload cannot poison the attribution of its chunk-mates; only a
    process death (segfault, injected SIGKILL) escapes, and that is
    exactly what the journal marks attribute.
    """
    plan = _faults.active_plan()
    outcomes: list[_Outcome] = []
    for digest, payload in items:
        _mark("start", digest)
        try:
            if plan is not None:
                plan.on_solve(digest)
            record = _solve_canonical(payload)
        except Exception as exc:  # noqa: BLE001 — carried as data to the parent
            _mark("done", digest)
            outcomes.append(("error", exc))
            continue
        _mark("done", digest)
        outcomes.append(("ok", record))
    return outcomes


# -- supervisor side ---------------------------------------------------


def _kill_executor(pool: ProcessPoolExecutor) -> None:
    """Tear a process pool down *now*, SIGKILLing live workers.

    ``shutdown(cancel_futures=True)`` alone never interrupts a chunk
    that is already running — a wedged solve would block forever — so
    the worker processes are killed explicitly.
    """
    processes = getattr(pool, "_processes", None)
    procs = list(processes.values()) if processes else []
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.kill()


class SupervisedPool:
    """A rebuildable process pool with per-digest solve journals.

    Wraps a :class:`~concurrent.futures.ProcessPoolExecutor` whose
    workers journal ``start``/``done`` marks per canonical digest into a
    pool-owned directory.  :meth:`rebuild` SIGKILLs the workers and
    recreates the executor — the recovery primitive behind
    ``solve_timeout`` and poison-instance attribution.  The serving tier
    keeps one long-lived instance (warm workers across micro-batches);
    :func:`solve_batch` builds an ephemeral one when handed none.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.rebuilds = 0
        self._dir = Path(tempfile.mkdtemp(prefix="repro-journal-"))
        # One supervised run at a time: journals are per-wave state.
        self._owner_lock = threading.Lock()
        self._pool = self._build()

    def _build(self) -> ProcessPoolExecutor:
        self._clear_journals()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(str(self._dir),),
        )

    def _clear_journals(self) -> None:
        for path in self._dir.glob("worker-*.journal"):
            try:
                path.unlink()
            except OSError:
                pass

    def submit(self, chunk: list[_Item]) -> Future[list[_Outcome]]:
        return self._pool.submit(_solve_entry, chunk)

    def begin_wave(self) -> None:
        """Reset journals; call only between waves (no chunks in flight)."""
        self._clear_journals()

    def journal_marks(self) -> dict[str, str]:
        """Last mark per digest (``"start"`` or ``"done"``) this wave."""
        marks: dict[str, str] = {}
        for path in sorted(self._dir.glob("worker-*.journal")):
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                event, _, digest = line.partition(" ")
                if digest:
                    marks[digest] = event
        return marks

    def rebuild(self) -> None:
        """Kill every worker and recreate the executor (one incident)."""
        self.rebuilds += 1
        _kill_executor(self._pool)
        self._pool = self._build()

    def shutdown(self) -> None:
        """Graceful teardown; any wedged worker was already killed by
        the incident that detected it, so waiting is safe."""
        self._pool.shutdown(wait=True)
        shutil.rmtree(self._dir, ignore_errors=True)


def _chunk(items: list[Any], n_chunks: int) -> list[list[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced runs."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, remainder = divmod(len(items), n_chunks)
    chunks, start = [], 0
    for i in range(n_chunks):
        size = base + (1 if i < remainder else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _probe_digest(
    item: _Item, solve_timeout: float | None
) -> tuple[str, Any]:
    """Re-run one suspect digest alone in a throwaway sandbox pool.

    Exactly one digest is in flight, so whatever happens is *proof*:
    returns ``("ok", record)`` / ``("error", exc)`` on a clean run,
    ``("crash", None)`` when the sandbox pool breaks, ``("timeout",
    None)`` when the probe overruns the deadline.
    """
    sandbox = ProcessPoolExecutor(max_workers=1)
    try:
        future = sandbox.submit(_solve_entry, [item])
        try:
            outcomes = future.result(timeout=solve_timeout)
        except _FuturesTimeout:
            return ("timeout", None)
        except BrokenExecutor:
            return ("crash", None)
        return outcomes[0]
    finally:
        _kill_executor(sandbox)


def _run_supervised(
    sup: SupervisedPool,
    misses: list[_Item],
    *,
    solve_timeout: float | None,
    quarantine: QuarantineRegistry | None,
    stats: BatchCacheStats,
    take: Callable[[str, dict[str, Any]], None],
    errors: dict[str, Exception],
) -> None:
    """Drive ``misses`` through the supervised pool in waves.

    Completed chunk results are absorbed through ``take`` as their
    futures finish, so an incident never discards work that other
    chunks already did.  On a deadline overrun or pool break the
    journals pick the suspect digests, the pool is rebuilt exactly
    once, suspects are convicted or exonerated in a sandbox, and the
    surviving digests re-run in the next wave.
    """
    pending: dict[str, dict[str, Any]] = dict(misses)
    reruns: dict[str, int] = {}
    with sup._owner_lock:
        while pending:
            sup.begin_wave()
            chunks = _chunk(list(pending.items()), sup.workers)
            futures: dict[Future[list[_Outcome]], list[_Item]] = {
                sup.submit(chunk): chunk for chunk in chunks
            }
            deadline = (
                None if solve_timeout is None else time.monotonic() + solve_timeout
            )
            incident: str | None = None
            while futures:
                timeout = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                done, _ = wait(
                    set(futures), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    incident = "timeout"
                    break
                broken = False
                for future in done:
                    chunk = futures.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenExecutor:
                        broken = True
                        continue  # journals will attribute this chunk
                    except Exception as exc:  # pragma: no cover — defensive
                        for digest, _ in chunk:
                            pending.pop(digest, None)
                            errors[digest] = exc
                        continue
                    for (digest, _), (kind, value) in zip(
                        chunk, outcomes, strict=True
                    ):
                        pending.pop(digest, None)
                        if kind == "ok":
                            take(digest, value)
                        else:
                            errors[digest] = value
                if broken:
                    incident = "crash"
                    break
            if incident is None:
                return

            # -- incident: attribute, rebuild once, sandbox the suspects
            marks = sup.journal_marks()
            suspects = [d for d in pending if marks.get(d) == "start"]
            for digest in pending:
                reruns[digest] = reruns.get(digest, 0) + 1
                if (
                    digest not in suspects
                    and reruns[digest] > _MAX_INCIDENT_RERUNS
                ):
                    # Survived several incidents with innocent-looking
                    # marks (e.g. dies after its ``done`` mark): force a
                    # sandbox verdict rather than looping forever.
                    suspects.append(digest)
            sup.rebuild()
            stats.pool_rebuilds += 1
            if not suspects and incident == "timeout":
                # Nothing even started before the deadline — the pool
                # itself is wedged; fail the wave rather than spin.
                for digest in list(pending):
                    del pending[digest]
                    errors[digest] = SolveTimeoutError(
                        f"solve pool made no progress within "
                        f"{solve_timeout}s deadline for digest {digest[:12]}",
                        digests=(digest,),
                    )
                continue
            for digest in suspects:
                payload = pending.pop(digest)
                kind, value = _probe_digest((digest, payload), solve_timeout)
                if kind == "ok":
                    take(digest, value)  # innocent bystander, keep result
                elif kind == "error":
                    errors[digest] = value
                elif kind == "timeout":
                    stats.solve_timeouts += 1
                    if quarantine is not None:
                        quarantine.add(digest, "timeout", stats=stats)
                    errors[digest] = SolveTimeoutError(
                        f"solve of digest {digest[:12]} exceeded the "
                        f"{solve_timeout}s deadline; digest quarantined",
                        digests=(digest,),
                    )
                else:  # crash
                    if quarantine is not None:
                        quarantine.add(digest, "crash", stats=stats)
                    errors[digest] = QuarantinedError(
                        f"digest {digest[:12]} killed its solver process; "
                        f"digest quarantined",
                        digest=digest,
                        reason="crash",
                    )
            # Innocent digests (never started, or finished but their
            # chunk's results were lost with the broken pool) remain in
            # ``pending`` and re-run in the next wave.


def instance_key(
    instance: BatchInstance, *, solver: str = "dp"
) -> tuple[Canonical, str]:
    """Canonical form + per-policy content digest of one instance.

    Public wrapper around :meth:`repro.batch.registry.SolverPolicy
    .instance_key` (the same digest the serving tier keys request
    coalescing on) for callers that hold a solver *name* rather than a
    policy object — e.g. to predict cache keys or pre-group traffic
    before it reaches :func:`solve_batch`.
    """
    return get_policy(solver).instance_key(instance)


def solve_batch(
    instances: Sequence[BatchInstance],
    *,
    solver: str = "dp",
    workers: int = 1,
    cache: ResultCache | None = None,
    stats: BatchCacheStats | None = None,
    pool: SupervisedPool | None = None,
    records_out: dict[str, dict[str, Any]] | None = None,
    errors_out: dict[str, Exception] | None = None,
    solve_timeout: float | None = None,
    quarantine: QuarantineRegistry | None = None,
    keys: Sequence[tuple[Canonical, str]] | None = None,
) -> list[Any]:
    """Solve many instances with canonical dedupe, caching and parallelism.

    Parameters
    ----------
    instances:
        The batch; results are returned in the same order.
    solver:
        A registered policy name (:func:`repro.batch.available_solvers`).
    workers:
        Process-pool size for the unique cache misses; ``1`` solves
        in-process (deterministic and allocation-free, the right default
        for small batches) unless ``solve_timeout`` forces supervision.
    cache:
        Optional shared :class:`ResultCache`; pass one to reuse results
        across calls (and across processes via its disk tier).  Without a
        cache, dedupe still collapses duplicates *within* the batch.
    stats:
        Optional counter collector.  Defaults to ``cache.stats`` so cache
        lookups and dedupe folds land in one place.
    pool:
        Optional long-lived :class:`SupervisedPool` to run miss chunks on
        instead of spawning a fresh one per call — the serving tier
        passes one shared pool so every micro-batch reuses warm workers
        and one quarantine discipline.
    records_out:
        Optional dict the executor fills with ``digest -> cache record``
        for every digest this call resolved (from cache or solved).
        Solved records are published *incrementally* — a caller sees
        every completed chunk's records even when a later digest in the
        same batch fails.  The serving tier uses it to complete
        coalesced waiters, which fan the shared canonical record out
        through their *own* relabelling.
    errors_out:
        Optional dict collecting ``digest -> typed exception`` for
        digests that failed (quarantined, timed out, solver error).
        When given, failures are *captured* — the returned list holds
        ``None`` at the failed instances' positions — instead of
        raising; when omitted, the first failing digest in input order
        raises after the remaining digests have been solved and cached.
    solve_timeout:
        Wall-clock deadline in seconds for each supervised solve wave.
        A chunk that overruns it gets its pool killed + rebuilt and the
        culprit digest raises :class:`~repro.exceptions
        .SolveTimeoutError` (wire ``code: "timeout"``); other chunks'
        completed results are kept.  Requires pool supervision: with
        ``workers=1`` and no ``pool`` a single-worker
        :class:`SupervisedPool` is spun up for the misses.
    quarantine:
        Optional :class:`~repro.batch.quarantine.QuarantineRegistry`.
        Digests already quarantined fail fast with
        :class:`~repro.exceptions.QuarantinedError` *before* reaching a
        pool; digests convicted of crashing/hanging this call are added.
    keys:
        Optional ``policy.instance_key`` of each instance, in input
        order, from a caller that has already looked every digest up in
        ``cache`` and missed (the serving tier keys and looks up each
        request before it reaches a micro-batch).  Such a call does no
        cache lookup of its own and returns each instance's canonical
        cache record (``None`` where its digest failed) instead of a
        fanned-out result: the caller fans records out per waiter.

    Returns
    -------
    list
        Verified per-instance results in original node ids, in input
        order.  The element type is policy-defined: the MinCost family
        returns :class:`~repro.core.solution.PlacementResult`,
        ``min_power`` / ``greedy_power`` return
        :class:`~repro.power.result.ModalPlacementResult` /
        :class:`~repro.power.greedy_power.GreedyPowerCandidates`, and
        ``power_frontier`` returns a full
        :class:`~repro.power.dp_power_pareto.PowerFrontier`.  Every
        result carries the canonical digest in its ``extra`` mapping.
        With ``errors_out``, failed instances yield ``None``.  With
        ``keys``, canonical cache records instead.
    """
    policy = get_policy(solver)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if solve_timeout is not None and solve_timeout <= 0:
        raise ConfigurationError(
            f"solve_timeout must be positive, got {solve_timeout}"
        )
    if stats is None:
        stats = cache.stats if cache is not None else BatchCacheStats()
    for index, instance in enumerate(instances):
        policy.check_instance(instance, index)

    keyed = keys is not None
    if keys is None:
        keys = [policy.instance_key(i) for i in instances]
    elif len(keys) != len(instances):
        raise ConfigurationError(
            f"got {len(keys)} keys for {len(instances)} instances"
        )
    canonicals = [c for c, _ in keys]
    digests = [d for _, d in keys]

    # Dedupe: first instance of each digest is the group representative.
    groups: dict[str, list[int]] = {}
    for idx, digest in enumerate(digests):
        groups.setdefault(digest, []).append(idx)
    stats.duplicates_folded += len(instances) - len(groups)

    errors: dict[str, Exception] = errors_out if errors_out is not None else {}

    # Cache lookups for unique digests (keyed callers already did them);
    # misses go to the solvers.  All counters are routed into the one
    # effective ``stats`` collector.  Quarantined digests fail fast
    # here — before they can reach a pool.
    records: dict[str, dict[str, Any]] = {}
    misses: list[_Item] = []
    for digest, idxs in groups.items():
        record = None
        if cache is not None and not keyed:
            record = cache.get(digest, stats=stats, schema=policy.record_schema)
        elif not keyed:
            stats.record_miss()
        if record is not None:
            records[digest] = record
            continue
        if quarantine is not None:
            try:
                quarantine.check(digest, stats=stats)
            except QuarantinedError as exc:
                if errors_out is None:
                    raise
                errors[digest] = exc
                continue
        rep = idxs[0]
        misses.append((digest, policy.payload(canonicals[rep], instances[rep])))

    if misses:

        def _take(digest: str, record: dict[str, Any]) -> None:
            stats.unique_solved += 1
            records[digest] = record
            if cache is not None:
                cache.put(digest, record, stats=stats)
            if records_out is not None:
                records_out[digest] = record

        if pool is not None:
            _run_supervised(
                pool,
                misses,
                solve_timeout=solve_timeout,
                quarantine=quarantine,
                stats=stats,
                take=_take,
                errors=errors,
            )
        elif solve_timeout is None and (workers == 1 or len(misses) == 1):
            for (digest, _), (kind, value) in zip(
                misses, _solve_entry(misses), strict=True
            ):
                if kind == "ok":
                    _take(digest, value)
                else:
                    errors[digest] = value
        else:
            own = SupervisedPool(min(workers, len(misses)))
            try:
                _run_supervised(
                    own,
                    misses,
                    solve_timeout=solve_timeout,
                    quarantine=quarantine,
                    stats=stats,
                    take=_take,
                    errors=errors,
                )
            finally:
                own.shutdown()

    if errors and errors_out is None:
        for digest in digests:
            if digest in errors:
                raise errors[digest]

    if records_out is not None:
        records_out.update(records)
    if keyed:
        return [records.get(digest) for digest in digests]

    # Fan out: map canonical solutions through each instance's inverse
    # relabelling, re-verify on the original tree and re-price.
    results: list[Any] = []
    for instance, canonical, digest in zip(
        instances, canonicals, digests, strict=True
    ):
        record = records.get(digest)
        if record is None:
            results.append(None)
            continue
        try:
            results.append(policy.fan_out(instance, canonical, record, digest))
        except Exception as exc:
            if errors_out is None:
                raise
            errors[digest] = exc
            results.append(None)
    return results
