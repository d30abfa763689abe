"""Async client for the serving frontend (and the `repro client` CLI).

:class:`ServeClient` speaks the JSON-lines protocol of
:mod:`repro.serve.protocol` over one TCP connection.  Requests are
pipelined: ``solve`` calls may be issued concurrently and responses are
matched back by request id, so one client saturates the server's
coalescing window without connection-per-request overhead.

Retry policy: with ``retries=`` set, the typed-*retriable* failures —
``code: "overloaded"``, ``code: "timeout"`` and torn connections
(:class:`ServeConnectionError`, reconnecting transparently) — are
retried with exponential backoff plus jitter, bounded by an overall
``deadline=``.  Request-specific errors (no ``code``, or
``code: "quarantined"``) are never retried: re-sending an infeasible or
poison instance cannot succeed and only adds load.

>>> client = await ServeClient.connect(host, port)   # doctest: +SKIP
>>> response = await client.solve(instance, solver="dp")  # doctest: +SKIP
>>> response["result"]["cost"]                       # doctest: +SKIP
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from collections.abc import Sequence
from typing import Any

from repro.batch.instance import BatchInstance, instance_to_dict
from repro.dynamics.incremental import Delta, delta_to_dict
from repro.exceptions import ConfigurationError, ReproError
from repro.serve.protocol import (
    CODE_OVERLOADED,
    CODE_QUARANTINED,
    CODE_TIMEOUT,
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
)

__all__ = [
    "ServeClient",
    "ServeConnectionError",
    "ServeError",
    "ServeOverloadedError",
    "ServeQuarantinedError",
    "ServeSession",
    "ServeTimeoutError",
]

#: Response codes that are safe to retry (see
#: :mod:`repro.serve.protocol`): the request was shed or timed out
#: server-side without poisoning anything.  ``"quarantined"`` is
#: deliberately absent — re-sending a poison instance must be a human
#: decision.
RETRIABLE_CODES = frozenset({CODE_OVERLOADED, CODE_TIMEOUT})


class ServeError(ReproError):
    """The server answered a request with ``ok: false``.

    :attr:`code` carries the response's machine-readable ``code`` field
    when the server sent one (``"overloaded"`` / ``"closed"``; see
    :mod:`repro.serve.protocol`), else ``None``.
    """

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class ServeOverloadedError(ServeError):
    """The server shed the request at its admission bound.

    Nothing was enqueued server-side: retrying (against another worker,
    or after a backoff) is always safe.
    """

    def __init__(self, message: str, *, code: str | None = CODE_OVERLOADED) -> None:
        super().__init__(message, code=code)


class ServeTimeoutError(ServeError):
    """The supervised solve overran the server's ``solve_timeout``.

    Retriable after backoff: the worker pool was rebuilt and the digest
    quarantined, so a later attempt may succeed once the quarantine
    expires (the overrun may have been load-induced).
    """

    def __init__(self, message: str, *, code: str | None = CODE_TIMEOUT) -> None:
        super().__init__(message, code=code)


class ServeQuarantinedError(ServeError):
    """The digest is failing fast in poison quarantine.

    NOT retriable: the same instance previously crashed or hung a solver
    pool, so re-sending it automatically would only re-poison the pool.
    """

    def __init__(
        self, message: str, *, code: str | None = CODE_QUARANTINED
    ) -> None:
        super().__init__(message, code=code)


class ServeConnectionError(ServeError):
    """The connection died before (or while) the response arrived.

    Distinct from a request-level error: the peer may have crashed, so
    the request's fate is unknown — the cluster router treats this as a
    worker death and fails over.
    """


def _error_for(error: str, code: str | None) -> ServeError:
    """Typed exception for an ``ok: false`` response's ``code``."""
    if code == CODE_OVERLOADED:
        return ServeOverloadedError(error)
    if code == CODE_TIMEOUT:
        return ServeTimeoutError(error)
    if code == CODE_QUARANTINED:
        return ServeQuarantinedError(error)
    return ServeError(error, code=code)


class ServeSession:
    """Handle on one live server-side session; create via
    :meth:`ServeClient.session`.

    Holds the session id plus the frontier returned by the last
    open/delta round-trip (``points`` pairs, or full ``records`` when the
    session was opened with ``records=True``).
    """

    def __init__(
        self, client: ServeClient, response: dict[str, Any]
    ) -> None:
        self._client = client
        self.session_id: str = response["session"]
        self.result: dict[str, Any] = response["result"]
        self.closed = False

    async def delta(
        self, deltas: Sequence[Delta | dict[str, Any]]
    ) -> dict[str, Any]:
        """Apply a batch of deltas; returns the full ``ok: true`` response.

        Accepts :data:`repro.dynamics.incremental.Delta` objects or
        already-encoded wire dicts.  The response carries the re-solved
        frontier under ``result`` and reuse counters under ``apply``;
        ``self.result`` is updated to the new frontier.
        """
        if self.closed:
            raise ServeError(f"session {self.session_id!r} is closed")
        wire = [
            d if isinstance(d, dict) else delta_to_dict(d) for d in deltas
        ]
        response = await self._client._request(
            {
                "op": "session.delta",
                "session": self.session_id,
                "deltas": wire,
            }
        )
        self.result = response["result"]
        return response

    async def close(self) -> dict[str, Any]:
        """Release the server-side tables; returns the session stats dict.

        Idempotent: closing twice returns the stats from the first close.
        """
        if self.closed:
            return self._stats
        response = await self._client._request(
            {"op": "session.close", "session": self.session_id}
        )
        self.closed = True
        self._stats: dict[str, Any] = response["stats"]
        return self._stats

    async def __aenter__(self) -> ServeSession:
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        with contextlib.suppress(ServeError):
            await self.close()


class ServeClient:
    """One pipelined protocol connection; create via :meth:`connect`.

    ``retries``/``backoff``/``deadline`` configure the typed retry
    policy of :meth:`_request` (and hence :meth:`solve` and friends):
    up to ``retries`` re-attempts of *retriable* failures only —
    ``code`` in :data:`RETRIABLE_CODES`, or a torn connection when the
    client was built via :meth:`connect` (it then transparently
    reconnects) — with exponential backoff plus jitter starting at
    ``backoff`` seconds.  ``deadline`` bounds the whole retry schedule:
    no new attempt starts after it.  The defaults (``retries=0``) keep
    the historical single-shot behaviour.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        deadline: float | None = None,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if backoff <= 0:
            raise ConfigurationError(f"backoff must be > 0, got {backoff}")
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(
                f"deadline must be > 0, got {deadline}"
            )
        self._reader = reader
        self._writer = writer
        self._retries = retries
        self._backoff = backoff
        self._deadline = deadline
        # Set by connect(); without them a torn connection cannot be
        # re-established, so connection loss is then non-retriable.
        self._host: str | None = None
        self._port: int | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._user_closed = False
        self._conn_lock = asyncio.Lock()
        # Serialises write+drain: concurrent drain() waiters on one
        # transport are unsupported on Python 3.10 (single-waiter assert
        # in FlowControlMixin), and solve_many pipelines heavily.
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        deadline: float | None = None,
    ) -> ServeClient:
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        client = cls(
            reader, writer, retries=retries, backoff=backoff, deadline=deadline
        )
        client._host = host
        client._port = port
        return client

    async def __aenter__(self) -> ServeClient:
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    async def solve(
        self,
        instance: BatchInstance,
        *,
        solver: str = "dp",
        priority: int = 0,
    ) -> dict[str, Any]:
        """Solve one instance; returns the full ``ok: true`` response.

        The response carries ``digest``, ``served`` (``"cache"`` /
        ``"coalesced"`` / ``"solve"``) and the policy's wire ``result``.
        Raises :class:`ServeError` on an error response.
        """
        return await self._request(
            {
                "op": "solve",
                "solver": solver,
                "priority": priority,
                "instance": instance_to_dict(instance),
            }
        )

    async def solve_many(
        self,
        instances: Sequence[BatchInstance],
        *,
        solver: str = "dp",
        priority: int = 0,
    ) -> list[dict[str, Any]]:
        """Pipeline a whole batch concurrently; responses in input order."""
        return list(
            await asyncio.gather(
                *(
                    self.solve(i, solver=solver, priority=priority)
                    for i in instances
                )
            )
        )

    async def session(
        self,
        instance: BatchInstance,
        *,
        records: bool = False,
    ) -> ServeSession:
        """Open a live incremental session on a power instance.

        The server cold-solves the instance, retains its per-subtree
        fronts, and answers subsequent :meth:`ServeSession.delta` calls
        by re-solving incrementally.  With ``records=True`` responses carry
        full placement records instead of ``(cost, power)`` pairs.
        """
        message: dict[str, Any] = {
            "op": "session.open",
            "instance": instance_to_dict(instance),
            "records": records,
        }
        return ServeSession(self, await self._request(message))

    async def stats(self) -> dict[str, Any]:
        """Fetch the server's :class:`~repro.perf.stats.ServeStats` dict."""
        response = await self._request({"op": "stats"})
        return response["stats"]

    async def perf(self) -> dict[str, Any]:
        """Fetch serving counters plus aggregated kernel statistics.

        The ``kernel`` section carries per-solver Pareto-DP counters
        (:class:`~repro.perf.stats.ParetoDPStats`) absorbed from the
        canonical solve records — labels created / generated / rejected
        at merge and AHU-memo hits — each canonical digest counted once.
        """
        response = await self._request({"op": "perf"})
        return response["perf"]

    async def shutdown_server(self) -> None:
        """Ask the server to drain and stop (graceful, server-wide)."""
        await self._request({"op": "shutdown"})

    async def close(self) -> None:
        self._user_closed = True
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        except Exception:
            pass
        # Nothing will ever resolve in-flight requests now; fail them so
        # concurrent waiters (e.g. an aborted solve_many's stragglers)
        # don't hang forever.
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    ServeConnectionError("client connection closed")
                )
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def request_raw(self, message: dict[str, Any]) -> dict[str, Any]:
        """One protocol round-trip; returns the raw response dict.

        Unlike :meth:`solve`/:meth:`stats`, an ``ok: false`` response is
        *returned*, not raised — the cluster router forwards worker
        error responses to its own clients verbatim.  Transport loss
        still raises :class:`ServeConnectionError`.
        """
        if self._closed:
            raise ServeConnectionError("client connection is closed")
        self._next_id += 1
        rid = self._next_id
        message["id"] = rid
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            async with self._write_lock:
                self._writer.write(encode_line(message))
                await self._writer.drain()
            return await future
        finally:
            self._pending.pop(rid, None)

    async def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        give_up_at = (
            None if self._deadline is None else loop.time() + self._deadline
        )
        attempt = 0
        while True:
            failure: ServeError
            try:
                response = await self.request_raw(message)
            except ServeConnectionError as exc:
                if self._user_closed or self._host is None:
                    raise
                failure = exc
            else:
                if response.get("ok"):
                    return response
                error = response.get("error", "request failed")
                code = response.get("code")
                failure = _error_for(error, code)
                if code not in RETRIABLE_CODES:
                    raise failure
            attempt += 1
            if attempt > self._retries:
                raise failure
            delay = self._backoff * (2 ** (attempt - 1))
            # Jitter desynchronises clients retrying the same incident.
            delay *= 0.5 + random.random()
            if give_up_at is not None and loop.time() + delay > give_up_at:
                raise failure
            await asyncio.sleep(delay)
            if self._closed and not self._user_closed:
                try:
                    await self._reconnect()
                except OSError as exc:
                    failure = ServeConnectionError(f"reconnect failed: {exc}")
                    if attempt >= self._retries:
                        raise failure from exc

    async def _reconnect(self) -> None:
        """Re-establish a torn connection (only possible via :meth:`connect`)."""
        if self._host is None or self._port is None:
            raise ServeConnectionError(
                "cannot reconnect: client was not built via connect()"
            )
        async with self._conn_lock:
            if not self._closed or self._user_closed:
                return
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._reader_task
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
            reader, writer = await asyncio.open_connection(
                self._host, self._port, limit=MAX_LINE_BYTES
            )
            self._reader = reader
            self._writer = writer
            self._closed = False
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop()
            )

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                response = decode_line(line)
                future = self._pending.get(response.get("id"))
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ServeConnectionError(f"connection lost: {exc}")
                    )
