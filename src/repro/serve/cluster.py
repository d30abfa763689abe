"""Digest-routed multi-worker serving cluster.

:class:`ClusterRouter` scales the single :class:`~repro.serve.server
.BatchServer` out to N workers without giving up the properties that make
the single server correct:

* **Partitioned digest ownership.**  Every solve request is placed by
  its *routing key* (:func:`repro.batch.canonical.routing_key`): a cheap
  relabelling-invariant hash read straight from the request dict, equal
  whenever the policy's canonical digest (the key the coalescing path
  uses) is equal.  A consistent-hash ring (:class:`HashRing`) maps each
  routing key to one *owner* worker, so a digest still has exactly one
  owner: all isomorphic duplicates of an instance land on the same
  worker and coalesce there, and each worker's result cache holds a
  disjoint digest shard — no shared ``--cache-dir``, no advisory-flock
  contention, and adding workers multiplies aggregate cache capacity
  instead of duplicating it.  The router builds no tree and computes no
  canonical form: the owner's canonicalisation is the only one a request
  costs.  A request the key cannot be computed for (malformed, unknown
  solver) goes to one fixed fallback key; that worker's parser answers
  with the real error, which the router forwards verbatim.
* **First-class backpressure.**  Workers run with a ``max_pending``
  admission bound and shed excess load with ``code: "overloaded"``
  responses (nothing enqueued server-side).  The router retries a shed
  request against the digest's next owners on the ring (``fallbacks``
  hops); only when *every* owner sheds does the client see the overload
  — bounded queues everywhere, no unbounded pile-up anywhere.
* **Worker death is survivable.**  A request that hits a dead worker
  (:class:`~repro.serve.spawner.WorkerDiedError`) fails over to the next
  owner while the router re-spawns the dead worker in the background
  (single-flight per name).  Stateless solve traffic loses nothing.
  Live sessions are the documented exception: session state is
  worker-local by design, so a worker death orphans its sessions and
  subsequent ``session.*`` calls answer with a ``session lost`` error
  (counted in ``lost_sessions``).
* **Session stickiness.**  ``session.open`` is routed by the instance's
  ``power_frontier`` routing key and the session stays pinned to that
  worker; the router namespaces session ids as ``<worker>:<sid>`` so
  deltas and closes route back without a lookup table on the wire.

The router speaks the exact protocol of :mod:`repro.serve.protocol` on
its front socket — :class:`~repro.serve.client.ServeClient` works
unchanged against a cluster — and reaches workers through the
:class:`~repro.serve.spawner.Spawner` abstraction, so the whole topology
(router + workers + death + re-spawn) runs socketlessly inside one
pytest process with :class:`~repro.serve.spawner.InProcessSpawner`, and
as real parallel processes with
:class:`~repro.serve.spawner.SubprocessSpawner`.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
from typing import Any

from repro.batch.canonical import routing_key
from repro.batch.registry import available_solvers, get_policy
from repro.exceptions import ConfigurationError
from repro.perf.stats import ClusterStats
from repro.serve.protocol import CODE_CLOSED, CODE_OVERLOADED, CODE_TIMEOUT
from repro.serve.server import JsonLinesEndpoint
from repro.serve.spawner import (
    Spawner,
    WorkerConfig,
    WorkerDiedError,
    WorkerHandle,
)

__all__ = ["ClusterRouter", "HashRing"]

#: Virtual nodes per worker on the ring.  Enough that the digest space
#: splits close to evenly across a handful of workers; cheap enough that
#: ring construction stays trivial.
_RING_REPLICAS = 64

#: Re-spawn attempts (with doubling backoff) before a worker is left dead.
_RESPAWN_ATTEMPTS = 3
_RESPAWN_BACKOFF = 0.1

#: Routing key of every request whose own key cannot be computed.
_UNROUTABLE = "unroutable"


def _ring_hash(value: str) -> int:
    return int.from_bytes(hashlib.sha256(value.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping routing keys to an ordered owner list.

    Each worker name contributes :data:`_RING_REPLICAS` virtual points
    (``sha256(f"{name}#{i}")``).  :meth:`owners` walks the ring clockwise
    from the key's point and returns the first ``n`` *distinct*
    workers — the primary owner followed by its fallbacks.  Membership is
    static after construction: dead workers keep their arc (so their
    keys come straight back to them after a re-spawn, cache intact)
    and the router skips them at dispatch time instead.
    """

    def __init__(self, names: list[str], replicas: int = _RING_REPLICAS) -> None:
        if not names:
            raise ConfigurationError("hash ring needs at least one worker")
        points: list[tuple[int, str]] = []
        for name in names:
            for i in range(replicas):
                points.append((_ring_hash(f"{name}#{i}"), name))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._names = [n for _, n in points]
        self._distinct = sorted(set(names))

    def owners(self, digest: str, n: int = 1) -> list[str]:
        """The first ``n`` distinct workers clockwise from ``digest``."""
        n = min(n, len(self._distinct))
        start = bisect.bisect_left(self._hashes, _ring_hash(digest))
        owners: list[str] = []
        for step in range(len(self._names)):
            name = self._names[(start + step) % len(self._names)]
            if name not in owners:
                owners.append(name)
                if len(owners) == n:
                    break
        return owners


class _RouterContext:
    """Per-front-connection state: the sessions this client opened.

    Maps the public session id (``"<worker>:<sid>"``) to its owning
    worker name and the worker-local sid, so disconnects reap exactly
    this client's sessions on exactly the right workers.
    """

    __slots__ = ("sessions",)

    def __init__(self) -> None:
        self.sessions: dict[str, tuple[str, str]] = {}


class ClusterRouter(JsonLinesEndpoint):
    """Front-end router over a fleet of spawned serve workers.

    Its front socket is the :class:`~repro.serve.server.JsonLinesEndpoint`
    that :class:`~repro.serve.server.BatchServer` also serves on.

    Parameters
    ----------
    spawner:
        Backend that creates the workers (in-process for tests,
        subprocess for deployment).
    n_workers:
        Fleet size; workers are named ``w0`` .. ``w{n-1}``.
    config:
        Per-worker shape (``max_pending``, micro-batch knobs, cache
        layout); one config for the whole homogeneous fleet.
    fallbacks:
        Extra ring owners tried after the primary sheds or dies.  The
        default ``1`` gives every digest a secondary; ``0`` disables
        failover entirely (a shed is final).
    """

    _context_type = _RouterContext
    stats: ClusterStats

    def __init__(
        self,
        spawner: Spawner,
        n_workers: int,
        config: WorkerConfig | None = None,
        *,
        fallbacks: int = 1,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if fallbacks < 0:
            raise ConfigurationError(
                f"fallbacks must be >= 0, got {fallbacks}"
            )
        super().__init__()
        self._spawner = spawner
        self._config = config if config is not None else WorkerConfig()
        self._names = [f"w{i}" for i in range(n_workers)]
        self._attempts = 1 + fallbacks
        self.stats = ClusterStats()
        self._ring = HashRing(self._names)
        self._handles: dict[str, WorkerHandle] = {}
        self._down: set[str] = set()
        self._respawns: dict[str, asyncio.Task] = {}
        self._started = False

    @property
    def worker_names(self) -> list[str]:
        return list(self._names)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> ClusterRouter:
        """Spawn the whole fleet (idempotent); no front socket yet.

        Workers boot concurrently.  If any spawn fails, the ones that
        started are stopped before the first error is re-raised, so a
        failed start leaves no worker behind.
        """
        if self._closing:
            raise ConfigurationError("cluster has been stopped")
        if not self._started:
            self._started = True
            spawned = await asyncio.gather(
                *(self._spawner.spawn(name, self._config) for name in self._names),
                return_exceptions=True,
            )
            handles = [h for h in spawned if isinstance(h, WorkerHandle)]
            if len(handles) < len(spawned):
                self._started = False
                await asyncio.gather(
                    *(h.stop() for h in handles), return_exceptions=True
                )
                raise next(h for h in spawned if isinstance(h, BaseException))
            self._handles = dict(zip(self._names, handles, strict=True))
        return self

    async def stop(self) -> None:
        """Graceful shutdown: close the front, stop workers, re-spawns."""
        if self._closing:
            await self._stopped.wait()
            return
        self._stop_listening()
        for task in self._respawns.values():
            task.cancel()
        if self._respawns:
            await asyncio.gather(
                *self._respawns.values(), return_exceptions=True
            )
        self._respawns.clear()
        await self._close_connections()
        await self._spawner.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # worker health
    # ------------------------------------------------------------------
    def _note_death(self, name: str) -> None:
        """Record a death observation once and schedule the re-spawn."""
        if name in self._down:
            return
        self._down.add(name)
        self.stats.worker(name).deaths += 1
        if not self._closing:
            task = self._respawns.get(name)
            if task is None or task.done():
                self._respawns[name] = asyncio.get_running_loop().create_task(
                    self._respawn(name)
                )

    async def _respawn(self, name: str) -> None:
        """Single-flight re-spawn of one dead worker, with backoff."""
        old = self._handles.get(name)
        if old is not None and old.alive:
            # Transport loss with the process still up (subprocess
            # backend): finish the kill so the replacement owns the name.
            with contextlib.suppress(Exception):
                await old.kill()
        backoff = _RESPAWN_BACKOFF
        for attempt in range(_RESPAWN_ATTEMPTS):
            if self._closing:
                return
            try:
                handle = await self._spawner.spawn(name, self._config)
            except asyncio.CancelledError:
                raise
            except Exception:
                if attempt == _RESPAWN_ATTEMPTS - 1:
                    return  # left dead; the ring skips it
                await asyncio.sleep(backoff)
                backoff *= 2
            else:
                self._handles[name] = handle
                self._down.discard(name)
                self.stats.worker(name).respawns += 1
                return

    def _live_handle(self, name: str) -> WorkerHandle | None:
        handle = self._handles.get(name)
        if handle is None or not handle.alive or name in self._down:
            self._note_death(name)
            return None
        return handle

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, message: dict[str, Any], key: str, rid: Any
    ) -> tuple[str | None, dict[str, Any]]:
        """Try the routing key's owners in ring order; returns ``(worker, resp)``.

        Sheds (``code: "overloaded"``) and deaths fall through to the
        next owner; a graceful-shutdown refusal (``code: "closed"``) is
        treated like a shed (the worker is draining, not dead).  A
        supervised-solve deadline overrun (``code: "timeout"``) is
        counted but forwarded verbatim, *never* failed over: the hang is
        keyed by the digest, so replaying it on a fallback owner would
        hang (and rebuild) that worker's pool too — the client may retry
        after backoff instead.  Any other error response (including
        ``code: "quarantined"``) is request-specific and forwarded
        verbatim — retrying an infeasible or poison instance elsewhere
        cannot help.
        """
        self.stats.requests_routed += 1
        last_shed: dict[str, Any] | None = None
        attempted = 0
        for name in self._ring.owners(key, self._attempts):
            handle = self._live_handle(name)
            if handle is None:
                continue
            if attempted:
                self.stats.retries += 1
            attempted += 1
            wstats = self.stats.worker(name)
            wstats.routed += 1
            try:
                response = await handle.request(message)
            except WorkerDiedError:
                self._note_death(name)
                continue
            if response.get("ok"):
                return name, response
            code = response.get("code")
            if code in (CODE_OVERLOADED, CODE_CLOSED):
                wstats.sheds += 1
                last_shed = response
                continue
            if code == CODE_TIMEOUT:
                wstats.timeouts += 1
                return name, response
            wstats.errors += 1
            return name, response
        self.stats.rejected += 1
        if last_shed is not None:
            return None, last_shed
        return None, {
            "id": rid,
            "ok": False,
            "error": "no live worker available for this request",
            "code": CODE_OVERLOADED,
        }

    def _solve_digest(self, message: dict[str, Any]) -> str:
        """Routing key of a solve request; never raises.

        Cheap enough to run on the event loop: no tree, no canonical
        form.  Equal policy digests give equal keys, so every digest has
        one owner; a request that cannot be keyed gets
        :data:`_UNROUTABLE` and its owner reports the parse error.
        """
        raw = message.get("instance")
        solver = message.get("solver", "dp")
        if not isinstance(raw, dict) or solver not in available_solvers():
            return _UNROUTABLE
        policy = get_policy(solver)
        covers_pre = "preexisting" in policy.digest_fields
        try:
            return routing_key(
                raw,
                policy.digest_name or policy.name,
                preexisting=covers_pre,
                pre_modes=covers_pre and policy.needs_power,
            )
        except ValueError:
            return _UNROUTABLE

    @staticmethod
    def _split_public_sid(public: str) -> tuple[str, str] | None:
        worker, sep, sid = public.partition(":")
        if not sep or not worker or not sid:
            return None
        return worker, sid

    async def _dispatch_session_open(
        self, message: dict[str, Any], ctx: _RouterContext, rid: Any
    ) -> dict[str, Any]:
        key = self._solve_digest(
            {"instance": message.get("instance"), "solver": "power_frontier"}
        )
        name, response = await self._route(message, key, rid)
        if name is not None and response.get("ok"):
            public = f"{name}:{response['session']}"
            ctx.sessions[public] = (name, response["session"])
            response = dict(response)
            response["session"] = public
        return response

    async def _dispatch_session_sticky(
        self, message: dict[str, Any], ctx: _RouterContext, rid: Any
    ) -> dict[str, Any]:
        """Forward session.delta / session.close to the pinned worker."""
        public = message.get("session")
        if not isinstance(public, str) or self._split_public_sid(public) is None:
            return {
                "id": rid,
                "ok": False,
                "error": f"unknown session {public!r} (cluster session ids "
                "look like 'w0:s1')",
            }
        owned = ctx.sessions.get(public)
        split = self._split_public_sid(public)
        assert split is not None
        name, sid = owned if owned is not None else split
        handle = self._live_handle(name)
        if handle is None:
            if ctx.sessions.pop(public, None) is not None:
                self.stats.lost_sessions += 1
            return {
                "id": rid,
                "ok": False,
                "error": f"session {public!r} lost: worker {name!r} died "
                "(session state is worker-local and cannot fail over)",
            }
        wstats = self.stats.worker(name)
        wstats.routed += 1
        forwarded = dict(message)
        forwarded["session"] = sid
        try:
            response = await handle.request(forwarded)
        except WorkerDiedError:
            self._note_death(name)
            if ctx.sessions.pop(public, None) is not None:
                self.stats.lost_sessions += 1
            return {
                "id": rid,
                "ok": False,
                "error": f"session {public!r} lost: worker {name!r} died "
                "mid-request",
            }
        response = dict(response)
        if response.get("session") == sid:
            response["session"] = public
        if not response.get("ok"):
            wstats.errors += 1
        elif message.get("op") == "session.close":
            ctx.sessions.pop(public, None)
        return response

    async def _fan_out(self, op: str) -> dict[str, Any]:
        """Collect one op from every worker; dead ones report as such."""
        names = list(self._names)

        async def one(name: str) -> dict[str, Any]:
            handle = self._live_handle(name)
            if handle is None:
                return {"alive": False}
            try:
                response = await handle.request({"op": op})
            except WorkerDiedError:
                self._note_death(name)
                return {"alive": False}
            if not response.get("ok"):
                return {"alive": True, "error": response.get("error")}
            payload = response.get("stats" if op == "stats" else "perf")
            return {"alive": True, op: payload}

        results = await asyncio.gather(*(one(n) for n in names))
        return dict(zip(names, results))

    async def dispatch(
        self,
        message: dict[str, Any],
        ctx: _RouterContext | None = None,
    ) -> dict[str, Any]:
        """Route one decoded protocol message; returns the response dict.

        The cluster twin of :meth:`BatchServer.dispatch`: same wire
        contract on both sides, so :class:`ServeClient` cannot tell a
        router from a single server (cluster-specific payloads appear
        only under the ``stats``/``perf`` ops' ``cluster`` key).
        """
        if ctx is None:
            ctx = _RouterContext()
        op = message.get("op", "solve")
        rid = message.get("id")
        try:
            if op == "stats":
                return {
                    "id": rid,
                    "ok": True,
                    "stats": {
                        "cluster": self.stats.as_dict(),
                        "workers": await self._fan_out("stats"),
                    },
                }
            if op == "perf":
                return {
                    "id": rid,
                    "ok": True,
                    "perf": {
                        "cluster": self.stats.as_dict(),
                        "workers": await self._fan_out("perf"),
                    },
                }
            if op == "shutdown":
                return self._shutdown_response(rid)
            if op == "session.open":
                response = await self._dispatch_session_open(message, ctx, rid)
            elif op in ("session.delta", "session.close"):
                response = await self._dispatch_session_sticky(
                    message, ctx, rid
                )
            else:
                key = self._solve_digest(message)
                _, response = await self._route(message, key, rid)
            response = dict(response)
            response["id"] = rid
            return response
        except Exception as exc:  # never let one request kill the router
            return self._failure_response(rid, exc)

    async def release_context(self, ctx: _RouterContext) -> None:
        """Reap a departed client's sessions on their owning workers."""
        for _public, (name, sid) in sorted(ctx.sessions.items()):
            handle = self._handles.get(name)
            if handle is None or not handle.alive:
                continue
            with contextlib.suppress(Exception):
                await handle.request({"op": "session.close", "session": sid})
        ctx.sessions.clear()
