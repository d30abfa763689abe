"""JSON-lines framing on both TCP endpoints.

:class:`~repro.serve.BatchServer` and :class:`~repro.serve.ClusterRouter`
(over an in-process fleet) must frame the wire the same way: a bad line
gets an ``id: null`` error frame and the connection keeps serving, an
oversized line gets an error frame and the connection closes, and
pipelined requests are each answered under their own id.

Tests drive the event loop with plain ``asyncio.run`` so they pass with
or without the pytest-asyncio plugin installed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections.abc import AsyncIterator, Awaitable, Callable

import pytest

from repro.serve import BatchServer, ClusterRouter, InProcessSpawner, WorkerConfig
from repro.serve.protocol import MAX_LINE_BYTES

Endpoint = Callable[[], contextlib.AbstractAsyncContextManager[tuple[str, int]]]


@contextlib.asynccontextmanager
async def _batch_server() -> AsyncIterator[tuple[str, int]]:
    async with BatchServer() as server:
        yield await server.listen()


@contextlib.asynccontextmanager
async def _cluster_router() -> AsyncIterator[tuple[str, int]]:
    router = ClusterRouter(InProcessSpawner(), 2, WorkerConfig())
    async with router:
        yield await router.listen()


ENDPOINTS = pytest.mark.parametrize(
    "endpoint", [_batch_server, _cluster_router], ids=["server", "router"]
)


def _run(
    endpoint: Endpoint,
    body: Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable],
):
    async def run():
        async with endpoint() as (host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                return await asyncio.wait_for(body(reader, writer), timeout=30)
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()

    return asyncio.run(run())


async def _read_frame(reader: asyncio.StreamReader) -> dict:
    line = await reader.readline()
    assert line.endswith(b"\n"), line
    return json.loads(line)


@ENDPOINTS
def test_bad_line_answered_and_connection_kept(endpoint):
    async def body(reader, writer):
        writer.write(b"{this is not json}\n")
        await writer.drain()
        bad = await _read_frame(reader)
        writer.write(b'{"op": "stats", "id": 7}\n')
        await writer.drain()
        return bad, await _read_frame(reader)

    bad, stats = _run(endpoint, body)
    assert bad["id"] is None
    assert bad["ok"] is False
    assert "invalid JSON" in bad["error"]
    assert stats["id"] == 7
    assert stats["ok"] is True
    assert "stats" in stats


@ENDPOINTS
def test_oversized_line_gets_error_frame_then_close(endpoint):
    async def body(reader, writer):
        # Read while writing: the endpoint closes with the tail of the
        # line unread, which resets the connection, and a reset seen
        # before the frame is read would hide the frame.
        frame = asyncio.ensure_future(_read_frame(reader))
        chunk = b"x" * (1 << 20)
        sent = 0
        with contextlib.suppress(ConnectionError):
            while sent <= MAX_LINE_BYTES:
                writer.write(chunk)
                await writer.drain()
                sent += len(chunk)
            writer.write(b"\n")
            await writer.drain()
        first = await frame
        try:
            rest = await reader.read()
        except ConnectionResetError:
            rest = b""
        return first, rest

    frame, rest = _run(endpoint, body)
    assert frame["id"] is None
    assert frame["ok"] is False
    assert frame["error"]
    assert rest == b""


@ENDPOINTS
def test_pipelined_requests_answered_under_their_own_ids(endpoint):
    async def body(reader, writer):
        writer.write(
            b'{"op": "stats", "id": "first"}\n{"op": "perf", "id": "second"}\n'
        )
        await writer.drain()
        return [await _read_frame(reader), await _read_frame(reader)]

    frames = _run(endpoint, body)
    by_id = {frame["id"]: frame for frame in frames}
    assert set(by_id) == {"first", "second"}
    assert by_id["first"]["ok"] and "stats" in by_id["first"]
    assert by_id["second"]["ok"] and "perf" in by_id["second"]
