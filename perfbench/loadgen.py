"""Load generator: server processes, pipelined connections, open and closed loops.

One process drives every workload over at most two connections.  Each
connection is pipelined: requests are written as they fall due and
responses are matched back by their protocol ``id`` on a reader task,
which timestamps every response line the moment it arrives.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from workloads import Inputs, Request, Segment, Spec, frame

#: Any single request slower than this counts as failed (and the run as wrong).
REQUEST_TIMEOUT_S = 60.0
_BANNER = re.compile(rb"serving on ([0-9.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Conn:
    """One pipelined JSON-lines connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[Any, asyncio.Future[tuple[float, bytes]]] = {}
        self._task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> Conn:
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=64 * 1024 * 1024)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                now = time.perf_counter()
                if not line:
                    break
                future = self._pending.pop(json.loads(line).get("id"), None)
                if future is not None and not future.done():
                    future.set_result((now, line))
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed the connection"))
            self._pending.clear()

    def send(self, rid: Any, line: bytes) -> asyncio.Future[tuple[float, bytes]]:
        future: asyncio.Future[tuple[float, bytes]] = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        self._writer.write(line)
        return future

    async def call(self, message: dict[str, Any]) -> dict[str, Any]:
        """One untimed round trip (warm-up, perf, shutdown)."""
        _, line = await asyncio.wait_for(self.send(message["id"], frame(message)), REQUEST_TIMEOUT_S)
        return json.loads(line)

    async def close(self) -> None:
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._task


# -- server processes --------------------------------------------------------


def _children(pid: int) -> list[int]:
    out: list[int] = []
    with contextlib.suppress(OSError):
        for task in os.listdir(f"/proc/{pid}/task"):
            with contextlib.suppress(OSError), open(f"/proc/{pid}/task/{task}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
    return out


def _descendants(pid: int) -> list[int]:
    out = []
    stack = _children(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(_children(child))
    return out


def become_subreaper() -> None:
    """Adopt orphaned descendants (a server's children whose parent died) so they can be reaped."""
    with contextlib.suppress(OSError, AttributeError):
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def reap_children(grace_s: float = 10.0) -> None:
    """Wait for every child process of this one; SIGKILL those still running after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while (kids := _children(os.getpid())) and time.monotonic() < deadline + grace_s:
        for pid in kids:
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        time.sleep(0.02)


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of ``pids`` from ``/proc/<pid>/stat``."""
    total = 0
    for pid in pids:
        with contextlib.suppress(OSError), open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with contextlib.suppress(OSError), open(f"/proc/{pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    total_kb += int(row.split()[1])
    return total_kb / 1024.0


class Server:
    """A launched ``repro serve`` or ``repro cluster`` process tree."""

    def __init__(self, root: Path, spec: Spec, env: dict[str, str]) -> None:
        cmd = [sys.executable, "-m", "repro"]
        if spec.server == "cluster":
            cmd += ["cluster", "--port", "0", "--backend", "subprocess", "--cluster-workers", "2"]
        else:
            cmd += ["serve", "--port", "0"]
        self._cmd = cmd
        self._root = root
        self._env = env
        self._proc: asyncio.subprocess.Process | None = None
        self._drain: asyncio.Task[None] | None = None
        self.output: list[bytes] = []
        self.pids: list[int] = []

    async def start(self) -> int:
        """Launch and return the announced port."""
        self._proc = await asyncio.create_subprocess_exec(
            *self._cmd,
            cwd=self._root,
            env=self._env,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        assert self._proc.stdout is not None
        while True:
            line = await asyncio.wait_for(self._proc.stdout.readline(), REQUEST_TIMEOUT_S)
            if not line:
                raise RuntimeError("server exited before serving: " + b"".join(self.output).decode(errors="replace"))
            self.output.append(line)
            match = _BANNER.search(line)
            if match:
                break
        self._drain = asyncio.create_task(self._keep_draining())
        self.pids = [self._proc.pid, *_children(self._proc.pid)]
        return int(match.group(2))

    async def _keep_draining(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        while line := await self._proc.stdout.readline():
            self.output.append(line)

    async def stop(self, conn: Conn | None) -> None:
        """Graceful shutdown op; SIGKILL the process tree if it lingers (at once without ``conn``)."""
        proc = self._proc
        if proc is None:
            return
        self.pids = list(dict.fromkeys(self.pids + _descendants(proc.pid)))
        if conn is not None:
            with contextlib.suppress(Exception):
                await conn.call({"op": "shutdown", "id": "shutdown"})
            await conn.close()
        try:
            await asyncio.wait_for(proc.wait(), 30 if conn is not None else 0.5)
        except asyncio.TimeoutError:
            for pid in [proc.pid, *_descendants(proc.pid)]:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            await proc.wait()
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in self.pids[1:]):
            if time.monotonic() > deadline:
                for pid in self.pids[1:]:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            await asyncio.sleep(0.02)
        if self._drain is not None:
            await self._drain
        self._proc = None


def _alive(pid: int) -> bool:
    """True unless ``pid`` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# -- traffic -----------------------------------------------------------------


@dataclass
class Sample:
    """One timed request: due/sent/received times and the raw response."""

    due: float
    sent: float
    recv: float
    line: bytes | None
    #: open-loop and saturation only: the request that went out.
    request: Request | None = None

    @property
    def latency_ms(self) -> float:
        return (self.recv - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    @property
    def ok(self) -> bool:
        return self.line is not None and b'"ok":true' in self.line


async def _timed(conn: Conn, rid: Any, line: bytes, due: float) -> Sample:
    sent = time.perf_counter()
    try:
        recv, response = await asyncio.wait_for(conn.send(rid, line), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ConnectionError):
        return Sample(due, sent, time.perf_counter(), None)
    return Sample(due, sent, recv, response)


async def warm_up(conn: Conn, inputs: Inputs) -> None:
    """Answer the warm-up traffic (counted in ``setup_s``); raises on failure."""
    replies = await asyncio.gather(
        *(asyncio.wait_for(conn.send(json.loads(line)["id"], line), REQUEST_TIMEOUT_S) for line in inputs.warmup)
    )
    for _, line in replies:
        if b'"ok":true' not in line:
            raise RuntimeError(f"warm-up request failed: {line[:300]!r}")
    seg = inputs.warm_segment
    if seg is not None:
        opened = await conn.call({"op": "session.open", "id": -1, "instance": seg.instance})
        sid = opened["session"]
        for k, delta in enumerate(seg.deltas[:2]):
            reply = await conn.call({"op": "session.delta", "id": -2 - k, "session": sid, "deltas": [delta]})
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up delta failed: {reply}")
        await conn.call({"op": "session.close", "id": -9, "session": sid})


async def open_loop(conn: Conn, requests: list[Request], offsets: list[float]) -> list[Sample]:
    """Send each request at its due time regardless of responses (Poisson)."""
    start = time.perf_counter() + 0.01
    tasks = []
    for req, offset in zip(requests, offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_timed(conn, req.rid, req.line, due)))
    samples = await asyncio.gather(*tasks)
    for sample, req in zip(samples, requests):
        sample.request = req
    return list(samples)


async def closed_loop(conn: Conn, requests: list[Request], window: int, seconds: float) -> tuple[list[Sample], float]:
    """Keep ``window`` requests in flight for ``seconds``; returns samples and elapsed s."""
    start = time.perf_counter()
    stop_at = start + seconds
    queue = iter(requests)
    samples: list[Sample] = []

    async def lane() -> None:
        for req in queue:
            if time.perf_counter() >= stop_at:
                return
            sample = await _timed(conn, req.rid, req.line, time.perf_counter())
            sample.request = req
            samples.append(sample)

    await asyncio.gather(*(lane() for _ in range(window)))
    end = max((s.recv for s in samples), default=time.perf_counter())
    return samples, end - start


@dataclass
class SessionRecord:
    """What one closed-loop session lane observed."""

    opens: list[Sample] = field(default_factory=list)
    deltas: list[Sample] = field(default_factory=list)
    closes: int = 0
    failed: int = 0
    #: ``(expected, got)`` frontier texts at every checked point.
    checks: list[tuple[str, str]] = field(default_factory=list)
    fronts_reused: int = 0
    fronts_invalidated: int = 0
    #: ``FrontStore`` snapshot of each session at its close.
    stores: list[dict[str, int]] = field(default_factory=list)


def _points_text(message: dict[str, Any]) -> str:
    return json.dumps(message["result"]["points"], separators=(",", ":"))


async def session_lane(conn: Conn, segments: list[Segment], stop_at: float, lane: int) -> SessionRecord:
    """Open, churn and close sessions back to back until ``stop_at``."""
    rec = SessionRecord()
    rid = lane * 10_000_000
    index = 0
    while time.perf_counter() < stop_at:
        seg = segments[index % len(segments)]
        index += 1
        rid += 1
        line = frame({"op": "session.open", "id": rid, "instance": seg.instance})
        sample = await _timed(conn, rid, line, time.perf_counter())
        rec.opens.append(sample)
        if not sample.ok:
            rec.failed += 1
            continue
        opened = json.loads(sample.line or b"{}")
        rec.checks.append((seg.expected[0], _points_text(opened)))
        sid = opened["session"]
        for k, delta in enumerate(seg.deltas, 1):
            if time.perf_counter() >= stop_at:
                break
            rid += 1
            line = frame({"op": "session.delta", "id": rid, "session": sid, "deltas": [delta]})
            sample = await _timed(conn, rid, line, time.perf_counter())
            rec.deltas.append(sample)
            if not sample.ok:
                rec.failed += 1
                break
            reply = json.loads(sample.line or b"{}")
            rec.fronts_reused += reply["apply"]["fronts_reused"]
            rec.fronts_invalidated += reply["apply"]["fronts_invalidated"]
            if k in seg.expected:
                rec.checks.append((seg.expected[k], _points_text(reply)))
        rid += 1
        closed = await conn.call({"op": "session.close", "id": rid, "session": sid})
        rec.closes += 1
        if closed.get("ok"):
            rec.stores.append(closed["stats"]["store"])
        else:
            rec.failed += 1
    return rec
