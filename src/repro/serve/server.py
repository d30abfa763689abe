"""Async batch-serving frontend: coalescing + micro-batching over TCP.

:class:`BatchServer` turns the batch pipeline (:func:`repro.batch
.solve_batch`) into a long-lived service.  Many concurrent clients —
remote ones over the JSON-lines protocol (:mod:`repro.serve.protocol`)
or in-process callers via :meth:`BatchServer.submit` — share one result
cache and one solve backend:

* every request is keyed by its policy's canonical digest (the same key
  :func:`repro.batch.instance_key` exposes publicly); a request whose
  digest is already **in flight** joins the existing solve's future
  instead of scheduling
  a second one (*coalescing* — the waiters all receive the one canonical
  record and fan it out through their own relabelling, so isomorphic
  duplicates get correctly-labelled answers);
* requests whose digest is **cached** are answered immediately from the
  shared :class:`~repro.batch.cache.ResultCache`;
* the rest land on a priority queue that a drain task empties in
  micro-batches through :func:`~repro.batch.solve_batch` on a dedicated
  worker thread — the dedupe / cache / supervised-solve machinery is
  reused, not reimplemented — optionally backed by one shared
  process pool (``workers > 1``) that stays warm across micro-batches.
  The micro-batch reuses the canonical keys the request path computed
  and only resolves records; each waiter does the one verified fan-out.

Client cancellation never propagates into a shared solve: waiters hold
the in-flight future behind :func:`asyncio.shield`, and the job itself
is owned by the drain task, not by any connection.  Shutdown
(:meth:`BatchServer.stop`) is graceful — new submissions are refused
with :class:`~repro.exceptions.ServerClosedError`, queued and in-flight
work is drained to completion, responses are flushed, then sockets and
pools are closed.

Per-policy serving counters (requests, cache hits, coalesced joins,
scheduled solves, p50/p99 latency) are collected in a
:class:`~repro.perf.stats.ServeStats`.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TypeVar

from repro.batch.cache import ResultCache
from repro.batch.canonical import Canonical
from repro.batch.executor import SupervisedPool, solve_batch
from repro.batch.instance import BatchInstance
from repro.batch.quarantine import QuarantineRegistry, bisect_culprits
from repro.batch.registry import get_policy
from repro.dynamics.incremental import (
    ApplyResult,
    SessionState,
    delta_from_dict,
)
from repro.exceptions import (
    ConfigurationError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    SolverError,
)
from repro.faults import registry as _faults
from repro.perf.stats import ParetoDPStats, ServeStats, SessionServeStats
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    parse_session_close,
    parse_session_delta,
    parse_session_open,
    parse_solve_request,
)

__all__ = ["BatchServer", "ConnectionContext", "JsonLinesEndpoint"]

#: Queue priority of the shutdown sentinel — drains strictly after every
#: pending job, which is what makes :meth:`BatchServer.stop` graceful.
_SENTINEL_PRIORITY = float("inf")

#: Generation size of the kernel-stats dedupe set: when the current
#: generation fills up it becomes the previous one and a fresh set
#: starts, bounding memory on long-lived servers at ~2x this many
#: ``(solver, digest)`` entries.  A digest evicted from both generations
#: may be double-absorbed if it reappears — an acceptable drift for
#: monitoring counters, unlike unbounded growth.
_KERNEL_SEEN_GENERATION = 65536


def _consume_exception(future: asyncio.Future) -> None:
    """Mark a job future's exception as retrieved (waiters may be gone)."""
    if not future.cancelled():
        future.exception()


def _open_session_state(instance: BatchInstance) -> SessionState:
    """Build and cold-solve the engine state behind one serve session.

    Module-level (not a closure) so it hands off to ``run_in_executor``
    cleanly; runs on the default executor because session solves are
    per-session state, never shared with the micro-batch backend.
    """
    if instance.power_model is None:
        raise ConfigurationError(
            "session.open requires a power-model instance (sessions run "
            "the cost/power frontier engine)"
        )
    state = SessionState(
        instance.tree,
        instance.power_model,
        instance.effective_modal_cost(),
        instance.pre_modes(),
    )
    state.solve()
    return state


def _frontier_payload(state: SessionState, records: bool) -> dict[str, Any]:
    """Wire form of a session's current frontier.

    ``records=False`` (default) sends the ``(cost, power)`` pairs only;
    placements stay lazy server-side.  ``records=True`` materialises the
    full placement records (the expensive provenance walks).
    """
    frontier = state.frontier()
    if records:
        return {"records": frontier.to_records()}
    return {"points": [[c, p] for c, p in frontier.pairs()]}


class _ServeSession:
    """One live session: engine state + per-session lock and counters.

    The lock serialises deltas on *this* session (the engine mutates its
    tree and store in place); different sessions run concurrently on the
    default executor, each against its own store, so they cannot
    cross-contaminate fronts.
    """

    __slots__ = ("sid", "state", "records", "lock", "stats")

    def __init__(self, sid: str, state: SessionState, records: bool) -> None:
        self.sid = sid
        self.state = state
        self.records = records
        self.lock = asyncio.Lock()
        self.stats = SessionServeStats()


class ConnectionContext:
    """Per-caller state threaded through :meth:`BatchServer.dispatch`.

    One context per protocol connection (or per in-process cluster
    worker handle): it records the sessions the caller opened so
    :meth:`BatchServer.release_context` can reap them when the caller
    goes away.  Keeping this out of the server lets the same dispatch
    path serve TCP connections and socketless in-process callers alike.
    """

    __slots__ = ("sessions",)

    def __init__(self) -> None:
        #: Session ids owned by this caller (``session.open`` adds,
        #: ``session.close`` removes).
        self.sessions: set[str] = set()


_Endpoint = TypeVar("_Endpoint", bound="JsonLinesEndpoint")


class JsonLinesEndpoint(ABC):
    """The TCP JSON-lines endpoint of :class:`BatchServer` and the cluster
    router (:class:`repro.serve.cluster.ClusterRouter`).

    One request per line in, one response per line out (the framing of
    :mod:`repro.serve.protocol`).  Every decoded line runs as its own
    request task, so a connection may pipeline; responses are written as
    they complete, under a per-connection lock, and echo their request
    ids.  A line that does not decode gets an ``id: null`` error frame
    and the connection keeps serving; a line longer than
    :data:`~repro.serve.protocol.MAX_LINE_BYTES` gets one and the
    connection closes.

    A subclass supplies :meth:`start`, :meth:`stop`, :meth:`dispatch`,
    its per-connection context type (:attr:`_context_type`, handed to
    :meth:`dispatch` and then to :meth:`release_context` when the
    connection ends) and a ``stats`` object counting ``connections``.
    Its :meth:`stop` calls :meth:`_stop_listening` first and
    :meth:`_close_connections` once its own work has drained, and its
    :meth:`dispatch` answers any exception through
    :meth:`_failure_response`.
    """

    _context_type: type[Any]
    stats: Any

    def __init__(self) -> None:
        self._tcp_server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._request_tasks: set[asyncio.Task[None]] = set()
        self._stop_task: asyncio.Task[None] | None = None
        self._closing = False
        self._stopped = asyncio.Event()

    @abstractmethod
    async def start(self: _Endpoint) -> _Endpoint:
        """Bring up what requests need (idempotent); no socket yet."""

    @abstractmethod
    async def stop(self) -> None:
        """Graceful shutdown; sets :attr:`_stopped` when done."""

    @abstractmethod
    async def dispatch(
        self, message: dict[str, Any], ctx: Any = None
    ) -> dict[str, Any]:
        """Answer one decoded message; never raises but on cancellation."""

    @abstractmethod
    async def release_context(self, ctx: Any) -> None:
        """Release what a departed connection owned."""

    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Open the TCP endpoint; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the CLI prints the choice).
        """
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_conn, host, port, limit=MAX_LINE_BYTES
        )
        sock_host, sock_port = self._tcp_server.sockets[0].getsockname()[:2]
        return sock_host, sock_port

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (e.g. via a shutdown op)."""
        await self._stopped.wait()

    async def __aenter__(self: _Endpoint) -> _Endpoint:
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def _stop_listening(self) -> None:
        """First step of :meth:`stop`: refuse new work and connections."""
        self._closing = True
        if self._tcp_server is not None:
            self._tcp_server.close()

    async def _close_connections(self) -> None:
        """Shared tail of :meth:`stop`: flush responses, close sockets."""
        current = asyncio.current_task()
        pending = [t for t in self._request_tasks if t is not current]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()

    def _shutdown_response(self, rid: Any) -> dict[str, Any]:
        """Answer a ``shutdown`` op: stop in the background, once."""
        if self._stop_task is None:
            self._stop_task = asyncio.get_running_loop().create_task(self.stop())
        return {"id": rid, "ok": True, "stopping": True}

    def _drop_response(self, response: dict[str, Any]) -> bool:
        """Whether to tear the connection instead of answering."""
        return False

    @staticmethod
    def _failure_response(rid: Any, exc: Exception) -> dict[str, Any]:
        """The answer to a request whose :meth:`dispatch` raised ``exc``.

        A library error keeps its message and typed ``code``
        (:func:`~repro.serve.protocol.error_response`); anything else is
        an ``internal error``, so one request never kills the endpoint.
        """
        if isinstance(exc, ReproError):
            return error_response(rid, exc)
        return {
            "id": rid,
            "ok": False,
            "error": f"internal error: {type(exc).__name__}: {exc}",
        }

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        conn_tasks: set[asyncio.Task[None]] = set()
        ctx = self._context_type()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError) as exc:
                    # ValueError: line exceeded the stream limit.
                    await self._write(
                        writer,
                        write_lock,
                        {"id": None, "ok": False, "error": str(exc)},
                    )
                    break
                if not line:
                    break
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    await self._write(
                        writer,
                        write_lock,
                        {"id": None, "ok": False, "error": str(exc)},
                    )
                    continue
                task = asyncio.create_task(
                    self._respond(message, writer, write_lock, ctx)
                )
                conn_tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(conn_tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            # Client gone: responses are unwritable, so cancel what this
            # connection still has pending.  Work shared with other
            # callers (a coalesced solve) is shielded and keeps running.
            for task in conn_tasks:
                task.cancel()
            self._writers.discard(writer)
            writer.close()
            await self.release_context(ctx)

    async def _respond(
        self,
        message: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        ctx: Any,
    ) -> None:
        """One request task: dispatch the message, write the response."""
        response = await self.dispatch(message, ctx)
        if self._drop_response(response):
            writer.close()
            return
        await self._write(writer, write_lock, response)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: dict[str, Any],
    ) -> None:
        try:
            data = encode_line(message)
        except (TypeError, ValueError):
            # A third-party policy's result_to_wire may return something
            # json cannot serialise; the client must still get a frame,
            # not a silent hang.
            data = encode_line(
                {
                    "id": message.get("id"),
                    "ok": False,
                    "error": "internal error: response not JSON-serialisable",
                }
            )
        # Peer may disconnect mid-response; nothing to flush to then.
        with contextlib.suppress(ConnectionError, RuntimeError):
            async with write_lock:
                writer.write(data)
                await writer.drain()


class _Job:
    """One scheduled canonical solve; waiters share :attr:`future`.

    The future resolves to the canonical *cache record* (not a fanned-out
    result): every waiter — scheduler and coalesced joiners alike — maps
    the record through its own instance's inverse relabelling.
    """

    __slots__ = ("digest", "canonical", "solver", "instance", "future")

    def __init__(
        self,
        digest: str,
        canonical: Canonical,
        solver: str,
        instance: BatchInstance,
        future: asyncio.Future,
    ) -> None:
        self.digest = digest
        self.canonical = canonical
        self.solver = solver
        self.instance = instance
        self.future = future


class BatchServer(JsonLinesEndpoint):
    """Long-lived coalescing frontend over :func:`repro.batch.solve_batch`.

    Parameters
    ----------
    cache:
        Shared result cache; a private in-memory one is created when
        omitted.  Pass one with a ``cache_dir`` for persistence.
    workers:
        Process-pool size for canonical solves.  ``1`` (default) solves
        on the drain thread (unless ``solve_timeout`` forces pool
        supervision); ``> 1`` keeps one shared
        :class:`~repro.batch.executor.SupervisedPool` warm across
        micro-batches.
    max_batch:
        Upper bound on instances per micro-batch.  The drain task never
        waits for a batch to fill: it takes every job already queued,
        and jobs that arrive while a batch solves form the next one.
    max_pending:
        Admission bound on *pending canonical solves* (scheduled but not
        yet completed — the drain queue plus the micro-batch in flight).
        A request that would schedule solve number ``max_pending + 1``
        is shed with :class:`~repro.exceptions.ServerOverloadedError`
        instead of queueing unboundedly; nothing is enqueued, so the
        caller (or the cluster router) may retry it elsewhere.  Cache
        hits and coalesced joins never consume admission slots.
        ``None`` (default) keeps the historical unbounded behaviour.
    solve_timeout:
        Wall-clock deadline in seconds for each supervised solve wave
        (see :func:`repro.batch.solve_batch`).  A hung solve gets its
        pool killed + rebuilt, the culprit digest quarantined, and its
        waiters a typed :class:`~repro.exceptions.SolveTimeoutError`
        (wire ``code: "timeout"``).  Setting it with ``workers=1``
        still spins up a single-worker supervised pool — a deadline is
        meaningless without one.  ``None`` (default) keeps solves
        unbounded.  A digest convicted of crashing or hanging the pool
        fails fast with :class:`~repro.exceptions.QuarantinedError`
        (wire ``code: "quarantined"``) for
        :data:`repro.batch.quarantine.DEFAULT_TTL` seconds.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with BatchServer(workers=2) as server:
            host, port = await server.listen("127.0.0.1", 0)
            ...
    """

    _context_type = ConnectionContext
    stats: ServeStats

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        workers: int = 1,
        max_batch: int = 32,
        max_pending: int | None = None,
        solve_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if solve_timeout is not None and solve_timeout <= 0:
            raise ConfigurationError(
                f"solve_timeout must be positive, got {solve_timeout}"
            )
        super().__init__()
        self.cache = cache if cache is not None else ResultCache()
        self.stats = ServeStats()
        self._workers = workers
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._solve_timeout = solve_timeout
        self._quarantine = QuarantineRegistry()
        self._jobs: dict[str, _Job] = {}
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = 0
        self._drain_task: asyncio.Task | None = None
        self._thread: ThreadPoolExecutor | None = None
        self._pool: SupervisedPool | None = None
        # Kernel counters aggregated from solve records (the power
        # policies attach ``dp_stats``); keyed by solver, each canonical
        # digest absorbed once *per solver* — policies sharing a digest
        # name (min_power / power_frontier) each get their own
        # attribution no matter which one warmed the cache.  The dedupe
        # set is two-generation bounded (see _KERNEL_SEEN_GENERATION).
        self._kernel_stats: dict[str, ParetoDPStats] = {}
        self._kernel_seen: set[tuple[str, str]] = set()
        self._kernel_seen_prev: set[tuple[str, str]] = set()
        # Live incremental sessions (the session.* op family).  Stateful
        # by design: each holds its own FrontStore, so sessions never
        # share retained tables and never enter the coalescing path.
        self._sessions: dict[str, _ServeSession] = {}
        self._session_seq = 0
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._closed_session_stats = SessionServeStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> BatchServer:
        """Start the solve backend (idempotent); no sockets yet."""
        if self._closing:
            raise ServerClosedError("server has been stopped")
        if self._drain_task is None:
            self._thread = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            if self._workers > 1 or self._solve_timeout is not None:
                # A deadline needs a killable pool: with workers=1 a
                # single-worker supervised pool replaces in-thread solves.
                self._pool = SupervisedPool(self._workers)
            self._drain_task = asyncio.create_task(self._drain_loop())
        return self

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain, flush, close."""
        if not self._closing:
            self._stop_listening()
            if self._drain_task is not None:
                self._seq += 1
                self._queue.put_nowait((_SENTINEL_PRIORITY, self._seq, None))
        if self._drain_task is not None:
            await self._drain_task
        # Let outstanding request handlers fan out and write responses.
        await self._close_connections()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._thread is not None:
            self._thread.shutdown(wait=True)
            self._thread = None
        # Release every remaining live session's retained tables.
        for sid in sorted(self._sessions):
            sess = self._sessions.pop(sid, None)
            if sess is not None:
                self._retire_session(sess)
        self._stopped.set()

    # ------------------------------------------------------------------
    # in-process entry point
    # ------------------------------------------------------------------
    async def submit(
        self,
        instance: BatchInstance,
        *,
        solver: str = "dp",
        priority: int = 0,
    ) -> Any:
        """Awaitable single-instance solve through the serving pipeline.

        Returns the same policy-defined result object a direct
        :func:`repro.batch.solve_batch` call would (verified fan-out in
        the instance's original labelling).  Identical concurrent
        submissions share one canonical solve.
        """
        result, _, _ = await self._submit_full(
            instance, solver=solver, priority=priority
        )
        return result

    async def _submit_full(
        self, instance: BatchInstance, *, solver: str, priority: int
    ) -> tuple[Any, str, str]:
        """Serve one request; returns ``(result, digest, served-by)``."""
        if self._closing:
            raise ServerClosedError(
                "server is shutting down; request refused"
            )
        if self._drain_task is None:
            raise ServerClosedError("server is not started")
        policy = get_policy(solver)
        pstats = self.stats.policy(solver)
        pstats.requests += 1
        started = time.perf_counter()
        try:
            policy.check_instance(instance, 0)
            # Canonicalisation is CPU-bound (AHU codes over the whole
            # tree) — run it off the loop like fan-out below, so large
            # non-duplicate storms don't serialise all connections.
            canonical, digest = await asyncio.get_running_loop().run_in_executor(
                None, policy.instance_key, instance
            )
            if self._closing:
                # stop() may have begun while we canonicalised; enqueueing
                # after the drain sentinel would strand the job forever.
                raise ServerClosedError(
                    "server is shutting down; request refused"
                )
            # A digest in flight is joined without a cache lookup (its
            # record is not cached yet), so every cache miss schedules,
            # sheds or is quarantine-blocked: one lookup per solve.
            job = self._jobs.get(digest)
            if job is not None:
                served = "coalesced"
                pstats.coalesced_joins += 1
                record = await asyncio.shield(job.future)
            elif (
                record := self.cache.get(digest, schema=policy.record_schema)
            ) is not None:
                served = "cache"
                pstats.cache_hits += 1
                self._absorb_kernel_stats(solver, {digest: record})
            else:
                # Poison digests fail fast *before* they can schedule —
                # one quarantined solve must never reach the pool again
                # for the TTL.  Cache hits above still serve.
                self._quarantine.check(digest, stats=self.cache.stats)
                if (
                    self._max_pending is not None
                    and len(self._jobs) >= self._max_pending
                ):
                    # Shed *before* creating the job or its future:
                    # nothing is enqueued and no coalesced waiter can
                    # ever attach to a solve that will not run, so a
                    # rejection racing stop() strands nobody.
                    pstats.overloads += 1
                    raise ServerOverloadedError(
                        f"server at capacity: {len(self._jobs)} "
                        f"pending canonical solves "
                        f"(max_pending={self._max_pending}); "
                        "request shed"
                    )
                future: asyncio.Future = asyncio.get_running_loop().create_future()
                future.add_done_callback(_consume_exception)
                job = _Job(digest, canonical, solver, instance, future)
                self._jobs[digest] = job
                served = "solve"
                pstats.solves_scheduled += 1
                self._seq += 1
                self._queue.put_nowait((priority, self._seq, job))
                record = await asyncio.shield(future)
            # Fan-out re-verifies on the original tree (CPU-bound, one
            # call per waiter) — run it off the loop so a storm of
            # coalesced waiters doesn't serially block all connections.
            result = await asyncio.get_running_loop().run_in_executor(
                None, policy.fan_out, instance, canonical, record, digest
            )
        except asyncio.CancelledError:
            raise
        except ServerOverloadedError:
            # A shed is expected load behaviour, counted in
            # ``pstats.overloads`` at the shed site — not an error.
            raise
        except Exception:
            pstats.errors += 1
            raise
        pstats.record_latency(time.perf_counter() - started)
        return result, digest, served

    # ------------------------------------------------------------------
    # drain loop (micro-batching through solve_batch)
    # ------------------------------------------------------------------
    def _scoop(self, jobs: list[_Job]) -> None:
        """Move immediately-available jobs into ``jobs``."""
        while len(jobs) < self._max_batch:
            try:
                priority, seq, job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if job is None:
                # Keep the shutdown sentinel last: re-queue it and finish
                # the batch in hand first.
                self._queue.put_nowait((priority, seq, None))
                return
            jobs.append(job)

    async def _drain_loop(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            if job is None:
                break
            jobs = [job]
            self._scoop(jobs)
            await self._run_jobs(jobs)

    def _absorb_kernel_stats(
        self, solver: str, records: dict[str, dict[str, Any]]
    ) -> None:
        """Fold per-record kernel counters into the per-solver aggregate.

        Records are keyed by canonical digest and each (solver, digest)
        pair is counted once (within the bounded dedupe window), so
        repeated cache hits and coalesced fan-outs never inflate the
        counters.
        """
        for digest, record in records.items():
            counters = record.get("dp_stats")
            if not counters:
                continue
            key = (solver, digest)
            if key in self._kernel_seen or key in self._kernel_seen_prev:
                continue
            if len(self._kernel_seen) >= _KERNEL_SEEN_GENERATION:
                self._kernel_seen_prev = self._kernel_seen
                self._kernel_seen = set()
            self._kernel_seen.add(key)
            try:
                collector = self._kernel_stats[solver]
            except KeyError:
                collector = self._kernel_stats[solver] = ParetoDPStats()
            collector.absorb(counters)

    def perf_snapshot(self) -> dict[str, Any]:
        """Serving counters plus aggregated solver-kernel counters.

        The payload behind the protocol's ``perf`` op: everything
        ``stats`` returns, plus per-solver Pareto-DP kernel statistics
        (labels created / generated / rejected at merge, memo hits)
        accumulated from the canonical solves this server performed.
        """
        return {
            "serve": self.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "quarantine": self._quarantine.snapshot(),
            "kernel": {
                solver: collector.as_dict()
                for solver, collector in sorted(self._kernel_stats.items())
            },
            "sessions": {
                "open": len(self._sessions),
                "opened": self._sessions_opened,
                "closed": self._sessions_closed,
                "per_session": {
                    sid: self._session_stats_payload(sess)
                    for sid, sess in sorted(self._sessions.items())
                },
                "closed_aggregate": self._closed_session_stats.as_dict(),
            },
        }

    async def _run_jobs(self, jobs: list[_Job]) -> None:
        by_solver: dict[str, list[_Job]] = {}
        for job in jobs:
            by_solver.setdefault(job.solver, []).append(job)
        for solver, group in by_solver.items():
            self.stats.batches += 1
            self.stats.batch_instances += len(group)
            records, errors = await self._solve_group(solver, group)
            self._absorb_kernel_stats(solver, records)
            for job in group:
                exc = errors.get(job.digest)
                if exc is not None:
                    self._complete_job(job, exc=exc)
                else:
                    self._complete_job(job, records=records)

    async def _solve_group(
        self, solver: str, group: list[_Job]
    ) -> tuple[dict[str, dict[str, Any]], dict[str, Exception]]:
        """Run one solver group through ``solve_batch`` on the backend.

        Returns ``(records, errors)`` keyed by digest.  Per-digest
        failures (infeasible instance, quarantined poison, deadline
        overrun) arrive through ``errors_out`` without failing the
        batch; crash/hang supervision — kill + rebuild the pool,
        attribute and quarantine culprits — happens inside
        :func:`~repro.batch.solve_batch` itself.  A *group-level*
        failure (an exception before per-digest isolation kicks in,
        e.g. instance validation) falls back to bisection over the
        unresolved jobs: partial results published through
        ``records_out`` are reused — a probe re-running an
        already-solved digest is answered by the cache — so isolating
        ``k`` culprits costs ``O(k log n)`` probes, not ``n`` re-solves.
        """
        loop = asyncio.get_running_loop()
        records: dict[str, dict[str, Any]] = {}
        errors: dict[str, Exception] = {}
        run = functools.partial(
            self._run_solver_group, solver, records=records, errors=errors
        )
        assert self._thread is not None
        try:
            await loop.run_in_executor(
                self._thread, functools.partial(run, group)
            )
        except Exception:
            remaining = [
                job
                for job in group
                if job.digest not in records and job.digest not in errors
            ]
            culprits = await loop.run_in_executor(
                self._thread, functools.partial(bisect_culprits, remaining, run)
            )
            for job, exc in culprits:
                errors.setdefault(job.digest, exc)
        return records, errors

    def _run_solver_group(
        self,
        solver: str,
        jobs: list[_Job],
        *,
        records: dict[str, dict[str, Any]],
        errors: dict[str, Exception],
    ) -> None:
        """One blocking ``solve_batch`` call (runs on the drain thread).

        Resolves records only: the request path keyed the jobs and
        missed the cache, and every waiter fans the record out itself.
        """
        solve_batch(
            [job.instance for job in jobs],
            solver=solver,
            keys=[(job.canonical, job.digest) for job in jobs],
            workers=self._workers,
            cache=self.cache,
            pool=self._pool,
            records_out=records,
            errors_out=errors,
            solve_timeout=self._solve_timeout,
            quarantine=self._quarantine,
        )

    def _complete_job(
        self,
        job: _Job,
        *,
        records: dict[str, dict[str, Any]] | None = None,
        exc: Exception | None = None,
    ) -> None:
        """Release a job from the in-flight map and resolve its future."""
        self._jobs.pop(job.digest, None)
        if job.future.done():
            return
        if exc is not None:
            job.future.set_exception(exc)
            return
        record = (records or {}).get(job.digest)
        if record is None:
            job.future.set_exception(
                SolverError(
                    f"solve_batch returned no record for digest "
                    f"{job.digest[:12]}"
                )
            )
        else:
            job.future.set_result(record)

    # ------------------------------------------------------------------
    # protocol dispatch (transport-independent)
    # ------------------------------------------------------------------
    async def dispatch(
        self,
        message: dict[str, Any],
        ctx: ConnectionContext | None = None,
    ) -> dict[str, Any]:
        """Handle one already-decoded protocol message; returns the response.

        The single op-dispatch path behind every transport: the TCP
        connection handler routes each decoded line through here, and the
        in-process cluster workers (:class:`repro.serve.spawner
        .InProcessSpawner`) call it directly — socketless, but exercising
        exactly the code real connections do.  ``ctx`` carries the
        caller's session ownership; pass the same context for the
        caller's lifetime and reap it with :meth:`release_context`.
        Exceptions (other than cancellation) never escape: they are
        encoded as ``ok: false`` responses, with a machine-readable
        ``code`` for retriable conditions (see
        :func:`repro.serve.protocol.error_response`).
        """
        if ctx is None:
            ctx = ConnectionContext()
        op = message.get("op", "solve")
        rid = message.get("id")
        try:
            if op == "stats":
                return {"id": rid, "ok": True, "stats": self.stats.as_dict()}
            if op == "perf":
                return {"id": rid, "ok": True, "perf": self.perf_snapshot()}
            if op == "shutdown":
                return self._shutdown_response(rid)
            if op == "session.open":
                response = await self._session_open(message, ctx.sessions)
            elif op == "session.delta":
                response = await self._session_delta(message)
            elif op == "session.close":
                response = await self._session_close(message, ctx.sessions)
            else:
                instance, solver, priority = parse_solve_request(message)
                result, digest, served = await self._submit_full(
                    instance, solver=solver, priority=priority
                )
                response = {
                    "ok": True,
                    "digest": digest,
                    "served": served,
                    "result": get_policy(solver).result_to_wire(result),
                }
            response["id"] = rid
            return response
        except Exception as exc:  # never let one request kill the server
            return self._failure_response(rid, exc)

    async def release_context(self, ctx: ConnectionContext) -> None:
        """Reap the sessions owned by a departed caller.

        Sessions are owned by their connection (or in-process handle): a
        disconnect mid-session must not leak retained tables.  Each close
        waits on the session lock, and delta handlers keep the lock until
        their backend call actually finishes even when cancelled, so the
        engine is never torn down mid-solve.
        """
        for sid in sorted(ctx.sessions):
            sess = self._sessions.pop(sid, None)
            if sess is not None:
                async with sess.lock:
                    self._retire_session(sess)
        ctx.sessions.clear()

    def _drop_response(self, response: dict[str, Any]) -> bool:
        # Chaos hook (``REPRO_FAULTS``): tear the connection instead of
        # answering — the work is done (and cached); the client's retry
        # policy reconnects and re-asks.
        plan = _faults.active_plan()
        return plan is not None and plan.should_drop(response.get("digest"))

    # ------------------------------------------------------------------
    # session ops (incremental delta re-solve engine)
    # ------------------------------------------------------------------

    async def _session_open(
        self, message: dict[str, Any], conn_sessions: set[str]
    ) -> dict[str, Any]:
        if self._closing:
            raise ServerClosedError("server is shutting down; request refused")
        instance, records = parse_session_open(message)
        loop = asyncio.get_running_loop()
        # Cold solve off the loop (sessions never touch the micro-batch
        # backend; the default executor is fine for per-session state).
        state = await loop.run_in_executor(
            None, _open_session_state, instance
        )
        self._session_seq += 1
        sid = f"s{self._session_seq}"
        sess = _ServeSession(sid, state, records)
        self._sessions[sid] = sess
        conn_sessions.add(sid)
        self._sessions_opened += 1
        payload = await loop.run_in_executor(
            None, _frontier_payload, state, records
        )
        return {"ok": True, "session": sid, "result": payload}

    async def _session_delta(self, message: dict[str, Any]) -> dict[str, Any]:
        sid, raw = parse_session_delta(message)
        sess = self._sessions.get(sid)
        if sess is None:
            raise ConfigurationError(f"unknown session {sid!r}")
        deltas = [delta_from_dict(d) for d in raw]
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        async with sess.lock:
            fut = loop.run_in_executor(None, sess.state.apply, deltas)
            try:
                applied: ApplyResult = await asyncio.shield(fut)
            except asyncio.CancelledError:
                # Disconnect mid-apply: hold the session lock until the
                # backend thread actually finishes, so the cleanup path
                # can never tear the engine down under a running solve.
                with contextlib.suppress(Exception):
                    await fut
                raise
            except Exception:
                sess.stats.errors += 1
                raise
            payload = await loop.run_in_executor(
                None, _frontier_payload, sess.state, sess.records
            )
        sess.stats.record_apply(
            deltas=applied.deltas_applied,
            reused=applied.fronts_reused,
            invalidated=applied.fronts_invalidated,
            seconds=time.perf_counter() - started,
        )
        return {
            "ok": True,
            "session": sid,
            "result": payload,
            "apply": {
                "deltas": applied.deltas_applied,
                "fronts_reused": applied.fronts_reused,
                "fronts_invalidated": applied.fronts_invalidated,
            },
        }

    async def _session_close(
        self, message: dict[str, Any], conn_sessions: set[str]
    ) -> dict[str, Any]:
        sid = parse_session_close(message)
        sess = self._sessions.pop(sid, None)
        if sess is None:
            raise ConfigurationError(f"unknown session {sid!r}")
        conn_sessions.discard(sid)
        async with sess.lock:
            stats = self._retire_session(sess)
        return {"ok": True, "session": sid, "closed": True, "stats": stats}

    @staticmethod
    def _session_stats_payload(sess: _ServeSession) -> dict[str, Any]:
        """Per-session stats block of the ``perf`` op (and close response)."""
        payload: dict[str, Any] = dict(sess.stats.as_dict())
        payload["engine"] = sess.state.stats.as_dict()
        payload["store"] = sess.state.store.snapshot()
        return payload

    def _retire_session(self, sess: _ServeSession) -> dict[str, Any]:
        """Release a session's retained tables; fold stats into the aggregate."""
        payload = self._session_stats_payload(sess)
        sess.state.close()
        self._sessions_closed += 1
        self._closed_session_stats.merge(sess.stats)
        return payload
