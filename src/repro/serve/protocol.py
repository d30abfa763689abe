"""Wire protocol of the serving frontend: JSON lines over a stream.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — the
same framing the disk cache shards use, so every layer of the system is
greppable.  Requests:

.. code-block:: json

    {"op": "solve", "id": 7, "solver": "dp", "instance": {...},
     "priority": 0}
    {"op": "stats", "id": 8}
    {"op": "perf", "id": 9}
    {"op": "shutdown", "id": 10}
    {"op": "session.open", "id": 11, "instance": {...},
     "records": false}
    {"op": "session.delta", "id": 12, "session": "s1",
     "deltas": [{"kind": "add_client", "node": 3, "requests": 2}]}
    {"op": "session.close", "id": 13, "session": "s1"}

``instance`` is one :func:`repro.batch.instance.instance_to_dict` dict
(the schema-2 element of a batch file).  ``priority`` is optional; lower
drains first.  The ``session.*`` family drives the incremental delta
re-solve engine (:mod:`repro.dynamics.incremental`): ``session.open``
cold-solves a power instance and retains its per-subtree fronts,
``session.delta`` applies a batch of churn deltas (the delta grammar of
:func:`repro.dynamics.incremental.delta_from_dict` — ``add_client`` /
``remove_client`` / ``set_requests`` / ``migrate``) and re-solves
incrementally, ``session.close`` releases the retained tables.  Session
requests are stateful and therefore bypass the digest-coalescing path
entirely.  Responses echo ``id``:

.. code-block:: json

    {"id": 7, "ok": true, "digest": "...", "served": "solve",
     "result": {...}}
    {"id": 8, "ok": true, "stats": {...}}
    {"id": 9, "ok": true, "perf": {"serve": {...}, "kernel": {...},
     "sessions": {...}}}
    {"id": 11, "ok": true, "session": "s1",
     "result": {"points": [[1.1, 250.0]]}}
    {"id": 12, "ok": true, "session": "s1",
     "result": {"points": [[2.1, 245.0]]},
     "apply": {"deltas": 1, "fronts_reused": 17,
     "fronts_invalidated": 3}}
    {"id": 13, "ok": true, "session": "s1", "closed": true,
     "stats": {...}}
    {"id": 7, "ok": false, "error": "..."}
    {"id": 7, "ok": false, "error": "...", "code": "overloaded"}

Error responses may carry a machine-readable ``code`` alongside the
human-readable ``error`` string.  Every code is *typed* retriable or
not:

``"overloaded"`` (retriable)
    The server shed the request at its ``max_pending`` admission bound —
    nothing was enqueued, retrying elsewhere is safe; the cluster router
    does exactly that.
``"closed"`` (retriable elsewhere)
    The server is shutting down; the router treats it like a shed.
``"timeout"`` (retriable, after backoff)
    The supervised solve overran its ``solve_timeout`` deadline; the
    worker pool was killed and rebuilt and the digest quarantined for a
    TTL.  Safe to retry — a later attempt may succeed once the
    quarantine expires (the overrun may have been load-induced).
``"quarantined"`` (non-retriable)
    The digest previously crashed or hung a solver pool and fails fast
    for the quarantine TTL; retrying re-sends the same poison instance
    and must not be done automatically.

Errors without a ``code`` are request-specific (infeasible instance,
unknown session, ...) and must not be retried verbatim.

``served`` records how the request was answered — ``"cache"`` (shared
result cache), ``"coalesced"`` (joined an identical in-flight solve) or
``"solve"`` (scheduled the canonical solve itself).  ``result`` is the
policy's :meth:`~repro.batch.registry.SolverPolicy.result_to_wire` dict;
it is deterministic, so any two requests answered by the same canonical
record serialise byte-identically (the property test suite pins this).
"""

from __future__ import annotations

import json
from typing import Any

from repro.batch.instance import BatchInstance, instance_from_dict
from repro.exceptions import (
    ConfigurationError,
    QuarantinedError,
    ServerClosedError,
    ServerOverloadedError,
    SolveTimeoutError,
)

__all__ = [
    "CODE_CLOSED",
    "CODE_OVERLOADED",
    "CODE_QUARANTINED",
    "CODE_TIMEOUT",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "decode_line",
    "encode_line",
    "error_code",
    "error_response",
    "parse_session_close",
    "parse_session_delta",
    "parse_session_open",
    "parse_solve_request",
]

#: Upper bound on one framed message; a line this long is a protocol
#: violation (or a hostile peer), not a big tree — batch instances of the
#: paper's sizes serialise to a few hundred KiB at most.
MAX_LINE_BYTES = 32 * 1024 * 1024

_OPS = (
    "solve",
    "stats",
    "perf",
    "shutdown",
    "session.open",
    "session.delta",
    "session.close",
)


class ProtocolError(ConfigurationError):
    """A malformed or oversized protocol message."""


#: ``code`` of an error response shed at the admission bound; safe to
#: retry against another worker (nothing was enqueued server-side).
CODE_OVERLOADED = "overloaded"
#: ``code`` of an error response refused because shutdown began.
CODE_CLOSED = "closed"
#: ``code`` of a supervised solve that overran its deadline; retriable
#: after backoff (the pool was rebuilt, the digest quarantined).
CODE_TIMEOUT = "timeout"
#: ``code`` of a digest failing fast in poison quarantine; NOT retriable.
CODE_QUARANTINED = "quarantined"


def error_code(exc: BaseException) -> str | None:
    """Machine-readable ``code`` for an exception, if it has one."""
    if isinstance(exc, ServerOverloadedError):
        return CODE_OVERLOADED
    if isinstance(exc, ServerClosedError):
        return CODE_CLOSED
    if isinstance(exc, SolveTimeoutError):
        return CODE_TIMEOUT
    if isinstance(exc, QuarantinedError):
        return CODE_QUARANTINED
    return None


def error_response(rid: Any, exc: BaseException) -> dict[str, Any]:
    """The wire form of a failed request: ``error`` plus optional ``code``."""
    response: dict[str, Any] = {"id": rid, "ok": False, "error": str(exc)}
    code = error_code(exc)
    if code is not None:
        response["code"] = code
    return response


def encode_line(message: dict[str, Any]) -> bytes:
    """Frame one message as a compact JSON line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one framed message; validates shape and the ``op`` field."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte "
            "frame limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    op = message.get("op")
    if op is not None and op not in _OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {_OPS}")
    return message


def parse_solve_request(
    message: dict[str, Any]
) -> tuple[BatchInstance, str, int]:
    """Extract ``(instance, solver, priority)`` from a solve request."""
    raw = message.get("instance")
    if not isinstance(raw, dict):
        raise ProtocolError("solve request has no 'instance' object")
    solver = message.get("solver", "dp")
    if not isinstance(solver, str):
        raise ProtocolError("solve request 'solver' must be a string")
    priority = message.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError("solve request 'priority' must be an integer")
    return instance_from_dict(raw), solver, priority


def parse_session_open(message: dict[str, Any]) -> tuple[BatchInstance, bool]:
    """Extract ``(instance, records)`` from a session.open request."""
    raw = message.get("instance")
    if not isinstance(raw, dict):
        raise ProtocolError("session.open request has no 'instance' object")
    records = message.get("records", False)
    if not isinstance(records, bool):
        raise ProtocolError("session.open 'records' must be a boolean")
    return instance_from_dict(raw), records


def _session_id(message: dict[str, Any], op: str) -> str:
    sid = message.get("session")
    if not isinstance(sid, str) or not sid:
        raise ProtocolError(f"{op} request needs a 'session' id string")
    return sid


def parse_session_delta(
    message: dict[str, Any]
) -> tuple[str, list[dict[str, Any]]]:
    """Extract ``(session_id, raw_deltas)`` from a session.delta request.

    Delta dicts stay raw here — the server parses them through
    :func:`repro.dynamics.incremental.delta_from_dict`, keeping the wire
    layer free of engine imports.
    """
    sid = _session_id(message, "session.delta")
    raw = message.get("deltas")
    if not isinstance(raw, list) or not all(
        isinstance(d, dict) for d in raw
    ):
        raise ProtocolError(
            "session.delta 'deltas' must be a list of delta objects"
        )
    return sid, raw


def parse_session_close(message: dict[str, Any]) -> str:
    """Extract the session id from a session.close request."""
    return _session_id(message, "session.close")
