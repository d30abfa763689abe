"""In-process span recorder: wraps the public functions of each layer.

Each span is ``(name, id, parent, link, start, end, note)``: ``start`` and
``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by
every process on the host), ``parent`` is the enclosing span in the same
process, ``link`` says which path the span ran on (``"request"`` inside a
server's request dispatch, ``"group"`` inside a micro-batch solve,
``"router"`` inside the cluster router's dispatch) and ``note`` carries
what joins spans across processes (canonical digests, protocol fields).
The parent/link context rides a :class:`contextvars.ContextVar`, which
``run_in_executor`` is made to copy into executor threads.  Spans stay in
memory and are written to ``<dir>/spans-<pid>.jsonl`` at exit.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import os
import time
from collections.abc import Callable
from typing import Any

_CURRENT: contextvars.ContextVar[tuple[int, str | None]] = contextvars.ContextVar(
    "perfbench_span", default=(0, None)
)
_IDS = itertools.count(1)
_SPANS: list[tuple[Any, ...]] = []
_EVENTS: list[tuple[Any, ...]] = []
_NO_RESULT = object()

#: ``note(args, kwargs, result)`` → what the span records besides its times.
Note = Callable[[tuple[Any, ...], dict[str, Any], Any], Any]


def _finish(
    name: str, sid: int, parent: int, link: Any, start: float, args: Any, kwargs: Any, result: Any, note: Note | None
) -> None:
    end = time.perf_counter()
    extra = note(args, kwargs, result) if note is not None and result is not _NO_RESULT else None
    _SPANS.append((name, sid, parent, link, start, end, extra))


def wrap_sync(name: str, fn: Callable[..., Any], *, note: Note | None = None, link: str | None = None) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent, outer = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set((sid, link or outer))
        start = time.perf_counter()
        result = _NO_RESULT
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _CURRENT.reset(token)
            _finish(name, sid, parent, link or outer, start, args, kwargs, result, note)

    return wrapper


def wrap_async(name: str, fn: Callable[..., Any], *, note: Note | None = None, link: str | None = None) -> Callable[..., Any]:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent, outer = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set((sid, link or outer))
        start = time.perf_counter()
        result = _NO_RESULT
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            _CURRENT.reset(token)
            _finish(name, sid, parent, link or outer, start, args, kwargs, result, note)

    return wrapper


def _dump(out_dir: str) -> None:
    path = os.path.join(out_dir, f"spans-{os.getpid()}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in _SPANS:
            fh.write(json.dumps(["span", *span]) + "\n")
        for event in _EVENTS:
            fh.write(json.dumps(["event", *event]) + "\n")


def _dispatch_note(args: tuple[Any, ...], kwargs: dict[str, Any], response: Any) -> dict[str, Any]:
    return {"op": args[1].get("op", "solve"), "digest": response.get("digest"), "served": response.get("served")}


def install(out_dir: str) -> None:
    """Wrap every traced function in this process; dump spans at exit."""
    import asyncio.base_events

    from repro.batch import cache, executor
    from repro.batch.registry import available_solvers, get_policy
    from repro.dynamics import incremental
    from repro.perf.stats import ParetoDPStats
    from repro.power import kernels
    from repro.serve import client, cluster, server, spawner

    run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def run_in_executor_with_context(self: Any, pool: Any, func: Any, *args: Any) -> Any:
        return run_in_executor(self, pool, contextvars.copy_context().run, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = run_in_executor_with_context  # type: ignore[method-assign]

    for module in (server, cluster, client):
        for fname in ("decode_line", "parse_solve_request", "parse_session_open", "parse_session_delta"):
            if hasattr(module, fname):
                setattr(module, fname, wrap_sync(f"protocol.{fname}", getattr(module, fname)))
        if hasattr(module, "encode_line"):
            setattr(module, "encode_line", wrap_sync("protocol.encode_line", module.encode_line, note=lambda a, kw, r: len(r)))

    BatchServer = server.BatchServer
    BatchServer.dispatch = wrap_async("server.dispatch", BatchServer.dispatch, note=_dispatch_note, link="request")  # type: ignore[method-assign]
    BatchServer._run_solver_group = wrap_sync(  # type: ignore[method-assign]
        "server.solve_group", BatchServer._run_solver_group, note=lambda a, kw, r: [job.digest for job in a[2]], link="group"
    )
    server.solve_batch = wrap_sync("executor.solve_batch", server.solve_batch)
    server._open_session_state = wrap_sync("incremental.open", server._open_session_state)
    server._frontier_payload = wrap_sync("protocol.session_payload", server._frontier_payload)
    incremental.SessionState.apply = wrap_sync("incremental.apply", incremental.SessionState.apply)  # type: ignore[method-assign]
    incremental.SessionState.solve = wrap_sync("incremental.solve", incremental.SessionState.solve)  # type: ignore[method-assign]
    cache.ResultCache.get = wrap_sync("cache.get", cache.ResultCache.get, note=lambda a, kw, r: r is not None)  # type: ignore[method-assign]
    cache.ResultCache.put = wrap_sync("cache.put", cache.ResultCache.put)  # type: ignore[method-assign]

    mark = executor._mark

    def traced_mark(event: str, digest: str) -> None:
        _EVENTS.append((event, digest, time.perf_counter()))
        mark(event, digest)

    executor._mark = traced_mark

    # The array Pareto kernel, wherever it runs (frontier policies, session
    # opens and incremental re-solves): a counter is passed in when the
    # caller brings none, so every call records the labels it built.
    array = wrap_sync(
        "power.array_kernel",
        kernels.KERNELS["array"],
        note=lambda a, kw, r: [kw["stats"].labels_created, kw["stats"].labels_kept],
    )

    def array_with_stats(*args: Any, stats: Any = None, **kwargs: Any) -> Any:
        return array(*args, stats=ParetoDPStats() if stats is None else stats, **kwargs)

    kernels.KERNELS["array"] = array_with_stats

    for solver in available_solvers():
        policy = get_policy(solver)
        policy.instance_key = wrap_sync("registry.instance_key", policy.instance_key, note=lambda a, kw, r: r[1])  # type: ignore[method-assign]
        policy.fan_out = wrap_sync("registry.fan_out", policy.fan_out, note=lambda a, kw, r, s=solver: s)  # type: ignore[method-assign]
        policy.result_to_wire = wrap_sync("registry.result_to_wire", policy.result_to_wire)  # type: ignore[method-assign]
        policy.solve = wrap_sync(  # type: ignore[method-assign]
            "registry.solve", policy.solve, note=lambda a, kw, r: {"solver": a[0]["solver"], "n": len(a[0]["parents"])}
        )

    router = cluster.ClusterRouter
    router.dispatch = wrap_async("cluster.dispatch", router.dispatch, note=_dispatch_note, link="router")  # type: ignore[method-assign]
    router._solve_digest = wrap_sync("cluster.solve_digest", router._solve_digest)  # type: ignore[method-assign]
    worker = spawner._SubprocessWorker
    worker.request = wrap_async("cluster.worker_request", worker.request)  # type: ignore[method-assign]

    atexit.register(_dump, out_dir)
