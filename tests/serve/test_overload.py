"""Backpressure contract of :class:`repro.serve.BatchServer`.

The ``max_pending`` admission bound, each property pinned by a test:

* a server at capacity sheds new canonical solves with
  :class:`~repro.exceptions.ServerOverloadedError` (wire
  ``code: "overloaded"`` → :class:`~repro.serve.ServeOverloadedError`
  client-side) instead of queueing unboundedly;
* sheds are counted in ``overloads``, never in ``errors``;
* cache hits and coalesced joins never consume admission slots;
* capacity recovers as soon as the pending solves complete;
* a rejection racing :meth:`~repro.serve.BatchServer.stop` strands no
  caller (nothing is enqueued on the shed path).

Tests drive the event loop with plain ``asyncio.run`` so they pass with
or without the pytest-asyncio plugin installed.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro.batch import BatchInstance, register_policy
from repro.exceptions import (
    ConfigurationError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve import (
    BatchServer,
    ServeClient,
    ServeOverloadedError,
)
from repro.tree.generators import paper_tree, random_preexisting

# Reuse the registered slow policy from the concurrency suite (import
# has the registration side effect; re-registration is suppressed there).
from tests.serve.test_server_concurrency import SlowDpPolicy  # noqa: F401


def _instance(seed: int, n_nodes: int = 30) -> BatchInstance:
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    return BatchInstance(tree, 10, random_preexisting(tree, 4, rng=rng))


async def _fill(server: BatchServer, n: int) -> list[asyncio.Task]:
    """Start ``n`` distinct slow solves and wait until all are admitted."""
    tasks = [
        asyncio.create_task(server.submit(_instance(seed=100 + i), solver="slow_dp"))
        for i in range(n)
    ]
    while len(server._jobs) < n:
        await asyncio.sleep(0.005)
    return tasks


class TestAdmissionBound:
    def test_max_pending_validated(self):
        with pytest.raises(ConfigurationError):
            BatchServer(max_pending=0)

    def test_shed_at_capacity_counts_overloads_not_errors(self):
        async def run():
            async with BatchServer(max_pending=2) as server:
                tasks = await _fill(server, 2)
                with pytest.raises(ServerOverloadedError, match="max_pending=2"):
                    await server.submit(_instance(seed=7), solver="slow_dp")
                await asyncio.gather(*tasks)
                return server

        server = asyncio.run(run())
        pstats = server.stats.policy("slow_dp")
        assert pstats.overloads == 1
        assert pstats.errors == 0
        # The shed request never became a scheduled solve.
        assert pstats.solves_scheduled == 2

    def test_capacity_recovers_after_drain(self):
        async def run():
            async with BatchServer(max_pending=1) as server:
                tasks = await _fill(server, 1)
                with pytest.raises(ServerOverloadedError):
                    await server.submit(_instance(seed=8), solver="slow_dp")
                await asyncio.gather(*tasks)
                # Pending drained: the same instance is admitted now.
                result = await server.submit(_instance(seed=8), solver="slow_dp")
                return server, result

        server, result = asyncio.run(run())
        assert result.n_replicas >= 0
        assert server.stats.policy("slow_dp").overloads == 1

    def test_cache_hits_and_coalesced_joins_never_shed(self):
        """Only *new* canonical solves consume admission slots."""
        hot = _instance(seed=9)

        async def run():
            async with BatchServer(max_pending=1) as server:
                # Warm the cache below the bound.
                await server.submit(hot, solver="dp")
                tasks = await _fill(server, 1)
                # At capacity: a cache hit still flows ...
                await server.submit(hot, solver="dp")
                # ... and so does a coalesced join on the pending digest.
                joined = await asyncio.gather(
                    server.submit(_instance(seed=100), solver="slow_dp"),
                    *tasks,
                )
                return server, joined

        server, _ = asyncio.run(run())
        assert server.stats.policy("dp").cache_hits == 1
        assert server.stats.policy("slow_dp").coalesced_joins == 1
        assert server.stats.policy("dp").overloads == 0
        assert server.stats.policy("slow_dp").overloads == 0

    def test_wire_code_overloaded_and_typed_client_error(self):
        """A shed crosses the wire as ``code: "overloaded"`` and surfaces
        client-side as the retriable :class:`ServeOverloadedError`."""

        async def run():
            async with BatchServer(max_pending=1) as server:
                host, port = await server.listen()
                tasks = await _fill(server, 1)
                client = await ServeClient.connect(host, port)
                try:
                    with pytest.raises(ServeOverloadedError) as info:
                        await client.solve(_instance(seed=21), solver="slow_dp")
                finally:
                    await client.close()
                await asyncio.gather(*tasks)
                return server, info.value

        server, exc = asyncio.run(run())
        assert exc.code == "overloaded"
        assert server.stats.policy("slow_dp").overloads == 1

    def test_rejection_racing_stop_strands_nobody(self):
        """The shed path enqueues nothing, so a rejection concurrent with
        stop() resolves promptly — with either the overload or the
        closed error — instead of waiting on a solve that will never run."""

        async def run():
            server = BatchServer(max_pending=1)
            await server.start()
            tasks = await _fill(server, 1)

            async def late_submit():
                with contextlib.suppress(
                    ServerOverloadedError, ServerClosedError
                ):
                    await server.submit(_instance(seed=33), solver="slow_dp")
                return "resolved"

            outcome, _ = await asyncio.wait_for(
                asyncio.gather(late_submit(), server.stop()), timeout=10
            )
            await asyncio.gather(*tasks, return_exceptions=True)
            return outcome

        assert asyncio.run(run()) == "resolved"


class TestOverloadStatsPayload:
    def test_overloads_in_stats_dict(self):
        async def run():
            async with BatchServer(max_pending=1) as server:
                tasks = await _fill(server, 1)
                with pytest.raises(ServerOverloadedError):
                    await server.submit(_instance(seed=41), solver="slow_dp")
                await asyncio.gather(*tasks)
                return server.stats.as_dict()

        payload = asyncio.run(run())
        assert payload["policies"]["slow_dp"]["overloads"] == 1
