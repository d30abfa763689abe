"""Worker-spawning backends for the serving cluster.

The cluster router (:mod:`repro.serve.cluster`) never creates workers
itself — it asks a :class:`Spawner`, and talks to whatever comes back
through the uniform :class:`WorkerHandle` surface (one protocol
round-trip per :meth:`~WorkerHandle.request`).  Two backends ship:

* :class:`InProcessSpawner` — each worker is a full
  :class:`~repro.serve.server.BatchServer` living on the current event
  loop, driven through :meth:`~repro.serve.server.BatchServer.dispatch`
  with **no socket anywhere**.  This is the deterministic test backend:
  an entire cluster — routing, shedding, worker death and re-spawn,
  session stickiness — runs inside one pytest process with hundreds of
  simulated clients.  :meth:`~WorkerHandle.kill` simulates abrupt death
  (requests in flight on the dead worker fail with
  :class:`WorkerDiedError`, exactly what a torn TCP connection looks
  like to the router).
* :class:`SubprocessSpawner` — each worker is a real ``repro serve``
  process bound to an ephemeral loopback port, reached through a
  pipelined :class:`~repro.serve.client.ServeClient`.  This is the
  deployment backend (`repro cluster` uses it): workers solve in
  genuinely parallel processes, and :meth:`~WorkerHandle.kill` is a real
  ``SIGKILL``.

Both backends give every worker its **own** result cache; with a
``cache_dir`` configured, each worker persists under
``<cache_dir>/<worker-name>`` — disjoint directories, so the partitioned
digest ownership the router enforces is mirrored on disk and the
advisory-flock contention of a shared ``--cache-dir`` disappears.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import re
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.batch.cache import ResultCache
from repro.exceptions import ConfigurationError, ReproError
from repro.serve.client import ServeClient, ServeConnectionError
from repro.serve.server import BatchServer, ConnectionContext

__all__ = [
    "InProcessSpawner",
    "Spawner",
    "SubprocessSpawner",
    "WorkerConfig",
    "WorkerDiedError",
    "WorkerHandle",
]


class WorkerDiedError(ReproError):
    """A request hit a dead (or dying) worker; its fate is unknown.

    The router treats this as a health event: the worker is marked dead,
    a re-spawn is scheduled, and the request fails over to the digest's
    next owner on the ring.
    """


@dataclass(frozen=True)
class WorkerConfig:
    """The settings of one serve worker, defined once.

    ``repro serve`` and ``repro cluster`` declare and read these flags
    here (:meth:`add_arguments`, :meth:`from_args`), the subprocess
    backend renders them for a child ``repro serve`` (:meth:`argv`), and
    ``repro serve`` and the in-process backend build the worker's server
    here (:meth:`server`).
    """

    #: Admission bound handed to :class:`BatchServer` ``max_pending``
    #: (``None`` = unbounded).
    max_pending: int | None = None
    #: Micro-batch size bound.
    max_batch: int = 32
    #: Micro-batch linger seconds.
    max_delay: float = 0.002
    #: Per-worker process-pool size (``1`` solves on the drain thread).
    pool_workers: int = 1
    #: In-memory cache capacity per worker.
    lru_size: int = 4096
    #: Disk-store budget per worker (``None`` = unbounded).
    max_disk_entries: int | None = None
    #: Base directory for persistent caches; each worker owns the
    #: disjoint subdirectory ``<cache_dir>/<name>``.  ``None`` keeps
    #: worker caches purely in-memory.
    cache_dir: str | None = None
    #: Wall-clock deadline (seconds) for one supervised solve wave;
    #: ``None`` disables supervision deadlines (crashes still recover).
    solve_timeout: float | None = None

    def worker_cache_dir(self, name: str) -> Path | None:
        """The worker-private persistent store directory (or ``None``)."""
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / name

    @staticmethod
    def add_arguments(
        parser: argparse.ArgumentParser, *, max_pending: int | None
    ) -> None:
        """Declare the worker flags; ``max_pending`` is their one default
        that differs between ``repro serve`` and ``repro cluster``."""
        parser.add_argument(
            "--workers", type=int, default=1,
            help="solver process-pool size per worker",
        )
        parser.add_argument(
            "--max-batch", type=int, default=32,
            help="instances per micro-batch drained through solve_batch",
        )
        parser.add_argument(
            "--max-delay-ms", type=float, default=2.0,
            help="linger (ms) letting a burst accumulate into one micro-batch",
        )
        parser.add_argument(
            "--cache-dir", type=str, default=None,
            help="directory for the persistent result store (sharded JSONL); "
            "a cluster worker owns the subdirectory <cache-dir>/<worker-name>",
        )
        parser.add_argument("--lru-size", type=int, default=4096)
        parser.add_argument("--disk-size", type=int, default=None, metavar="N")
        parser.add_argument(
            "--max-pending", type=int, default=max_pending, metavar="N",
            help="admission bound on pending canonical solves per worker; "
            "excess load is shed with a retriable 'overloaded' error; "
            f"0 = unbounded (default: {max_pending or 'unbounded'})",
        )
        parser.add_argument(
            "--solve-timeout", type=float, default=None, metavar="SECS",
            help="wall-clock deadline per supervised solve wave; hung solves "
            "answer with a retriable 'timeout' error, the pool is rebuilt "
            "and the digest quarantined (default: no deadline)",
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> WorkerConfig:
        """The config the :meth:`add_arguments` flags describe."""
        return cls(
            max_pending=args.max_pending or None,
            max_batch=args.max_batch,
            max_delay=args.max_delay_ms / 1000.0,
            pool_workers=args.workers,
            lru_size=args.lru_size,
            max_disk_entries=args.disk_size,
            cache_dir=args.cache_dir,
            solve_timeout=args.solve_timeout,
        )

    def argv(self, name: str) -> list[str]:
        """The flags of a child ``repro serve`` running worker ``name``."""
        flags = {
            "--workers": self.pool_workers,
            "--max-batch": self.max_batch,
            "--max-delay-ms": self.max_delay * 1000.0,
            "--cache-dir": self.worker_cache_dir(name),
            "--lru-size": self.lru_size,
            "--disk-size": self.max_disk_entries,
            "--max-pending": self.max_pending,
            "--solve-timeout": self.solve_timeout,
        }
        return [
            arg
            for flag, value in flags.items()
            if value is not None
            for arg in (flag, str(value))
        ]

    def server(self, cache_dir: str | Path | None) -> BatchServer:
        """An unstarted :class:`BatchServer` of this shape, over a fresh
        :class:`ResultCache` persisted under ``cache_dir`` (if given)."""
        cache = ResultCache(
            self.lru_size,
            cache_dir=cache_dir,
            max_disk_entries=self.max_disk_entries,
        )
        return BatchServer(
            cache=cache,
            workers=self.pool_workers,
            max_batch=self.max_batch,
            max_delay=self.max_delay,
            max_pending=self.max_pending,
            solve_timeout=self.solve_timeout,
        )


class WorkerHandle(ABC):
    """One live worker, whatever its backend.

    The router holds exactly one handle per ring position and funnels
    every protocol message through :meth:`request`.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    @abstractmethod
    def alive(self) -> bool:
        """Whether the worker is believed able to serve requests."""

    @abstractmethod
    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One protocol round-trip; returns the *raw* response dict.

        Error responses (``ok: false``) are returned, not raised, so the
        router can inspect ``code`` and forward them verbatim.  Raises
        :class:`WorkerDiedError` when the worker cannot answer at all.
        """

    @abstractmethod
    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight work, then release."""

    @abstractmethod
    async def kill(self) -> None:
        """Abrupt death: in-flight requests on this worker are lost."""


class Spawner(ABC):
    """Factory for :class:`WorkerHandle`\\ s behind one backend."""

    @abstractmethod
    async def spawn(self, name: str, config: WorkerConfig) -> WorkerHandle:
        """Start (or restart) the worker ``name``; returns its handle."""

    async def close(self) -> None:
        """Backend-wide cleanup hook (default: nothing)."""


# ---------------------------------------------------------------------------
# in-process backend (deterministic tests)
# ---------------------------------------------------------------------------
class _InProcessWorker(WorkerHandle):
    """A :class:`BatchServer` on the current loop, spoken to socketlessly."""

    def __init__(self, name: str, server: BatchServer) -> None:
        super().__init__(name)
        self._server = server
        self._ctx = ConnectionContext()
        self._alive = True
        self._inflight: set[asyncio.Task] = set()

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def server(self) -> BatchServer:
        """The underlying server (tests reach in for stats/cache)."""
        return self._server

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        if not self._alive:
            raise WorkerDiedError(f"worker {self.name!r} is dead")
        # Run dispatch as a task so kill() can sever in-flight requests
        # the way a torn connection would: the caller sees the worker
        # die, while the server object itself is torn down separately.
        task = asyncio.create_task(self._server.dispatch(dict(message), self._ctx))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        try:
            return await asyncio.shield(task)
        except asyncio.CancelledError:
            if not self._alive:
                raise WorkerDiedError(
                    f"worker {self.name!r} died mid-request"
                ) from None
            task.cancel()
            raise

    async def stop(self) -> None:
        self._alive = False
        await self._server.stop()

    async def kill(self) -> None:
        """Simulated crash: fail in-flight requests, abandon the server."""
        if not self._alive:
            return
        self._alive = False
        for task in list(self._inflight):
            task.cancel()
        # Tear the server down in the background the way an exiting
        # process would — the router never waits for a dead worker.
        stop_task = asyncio.get_running_loop().create_task(self._server.stop())
        stop_task.add_done_callback(lambda t: t.exception())


class InProcessSpawner(Spawner):
    """Spawner whose workers live on the calling event loop.

    Deterministic and socket-free: the integration suite drives a whole
    cluster through this backend inside one process.  Respawning a name
    builds a brand-new :class:`BatchServer`; with a ``cache_dir``
    configured the newcomer warm-loads the shard files its predecessor
    owned (same ``<cache_dir>/<name>`` directory).
    """

    def __init__(self) -> None:
        self._workers: dict[str, _InProcessWorker] = {}

    async def spawn(self, name: str, config: WorkerConfig) -> WorkerHandle:
        old = self._workers.get(name)
        if old is not None and old.alive:
            raise ConfigurationError(
                f"worker {name!r} is still alive; kill or stop it first"
            )
        server = config.server(config.worker_cache_dir(name))
        await server.start()
        worker = _InProcessWorker(name, server)
        self._workers[name] = worker
        return worker

    async def close(self) -> None:
        for worker in self._workers.values():
            if worker.alive:
                await worker.stop()
        self._workers.clear()


# ---------------------------------------------------------------------------
# subprocess backend (real deployment)
# ---------------------------------------------------------------------------
_SERVING_RE = re.compile(r"serving on ([0-9a-fA-F.:\[\]]+):(\d+)")

#: Seconds a child ``repro serve`` gets to announce its port.
_START_TIMEOUT = 30.0


class _SubprocessWorker(WorkerHandle):
    """A ``repro serve`` child process behind a pipelined client."""

    def __init__(
        self,
        name: str,
        process: asyncio.subprocess.Process,
        client: ServeClient,
        port: int,
    ) -> None:
        super().__init__(name)
        self._process = process
        self._client = client
        self.port = port

    @property
    def alive(self) -> bool:
        return self._process.returncode is None

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        if not self.alive:
            raise WorkerDiedError(f"worker {self.name!r} has exited")
        try:
            return await self._client.request_raw(dict(message))
        except (ServeConnectionError, ConnectionError, OSError) as exc:
            raise WorkerDiedError(
                f"worker {self.name!r} unreachable: {exc}"
            ) from exc

    async def stop(self) -> None:
        if self.alive:
            with contextlib.suppress(ReproError, ConnectionError, OSError):
                await self._client.request_raw({"op": "shutdown"})
            try:
                await asyncio.wait_for(self._process.wait(), timeout=30)
            except asyncio.TimeoutError:
                self._process.kill()
                await self._process.wait()
        await self._client.close()

    async def kill(self) -> None:
        if self.alive:
            self._process.kill()
            await self._process.wait()
        await self._client.close()


class SubprocessSpawner(Spawner):
    """Spawner launching real ``repro serve`` worker processes.

    Workers bind ephemeral loopback ports (``--port 0``); the spawner
    parses the announced address from the child's stdout, then connects
    a :class:`ServeClient`.  The child inherits the parent environment,
    so ``PYTHONPATH`` propagates.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._workers: dict[str, _SubprocessWorker] = {}

    def _command(self, name: str, config: WorkerConfig) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            *config.argv(name),
        ]

    async def spawn(self, name: str, config: WorkerConfig) -> WorkerHandle:
        old = self._workers.get(name)
        if old is not None and old.alive:
            raise ConfigurationError(
                f"worker {name!r} is still alive; kill or stop it first"
            )
        process = await asyncio.create_subprocess_exec(
            *self._command(name, config),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        try:
            port = await asyncio.wait_for(
                self._read_port(process), timeout=_START_TIMEOUT
            )
            client = await ServeClient.connect(self.host, port)
        except Exception:
            with contextlib.suppress(ProcessLookupError):
                process.kill()
            await process.wait()
            raise
        worker = _SubprocessWorker(name, process, client, port)
        self._workers[name] = worker
        return worker

    @staticmethod
    async def _read_port(process: asyncio.subprocess.Process) -> int:
        assert process.stdout is not None
        while True:
            line = await process.stdout.readline()
            if not line:
                raise ConfigurationError(
                    "worker process exited before announcing its port"
                )
            match = _SERVING_RE.search(line.decode("utf-8", "replace"))
            if match:
                return int(match.group(2))

    async def close(self) -> None:
        await asyncio.gather(
            *(w.stop() for w in self._workers.values()),
            return_exceptions=True,
        )
        self._workers.clear()
