"""Concurrency contract of :class:`repro.serve.BatchServer`.

The serving tier's correctness-under-concurrency guarantees, each pinned
by a test:

* N concurrent identical requests (across multiple TCP clients) trigger
  exactly one underlying canonical solve;
* mixed-policy storms stay isolated per policy;
* client disconnect / task cancellation never poisons the shared
  in-flight future;
* graceful shutdown drains queued and in-flight work before refusing.

Tests drive the event loop with plain ``asyncio.run`` so they pass with
or without the pytest-asyncio plugin installed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

import numpy as np
import pytest

from repro.batch import (
    BatchInstance,
    get_policy,
    register_policy,
    relabel_tree,
    solve_batch,
)
from repro.batch.registry import DpPolicy
from repro.exceptions import ConfigurationError, ServerClosedError
from repro.power.modes import ModeSet, PowerModel
from repro.serve import BatchServer, ServeClient, ServeError, encode_line
from repro.batch.instance import instance_to_dict
from repro.tree.generators import paper_tree, random_preexisting


def _instance(seed: int = 1, n_nodes: int = 40, power: bool = False) -> BatchInstance:
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    pre = random_preexisting(tree, min(6, n_nodes), rng=rng)
    pm = (
        PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
        if power
        else None
    )
    return BatchInstance(tree, 10, pre, power_model=pm)


def _wire(solver: str, result) -> str:
    """Canonical response bytes used for byte-match assertions."""
    return json.dumps(get_policy(solver).result_to_wire(result), sort_keys=True)


class SlowDpPolicy(DpPolicy):
    """The dp policy with an artificial solve delay, for in-flight tests."""

    name = "slow_dp"

    def solve(self, payload):
        time.sleep(0.25)
        return super().solve(payload)


class CrashingPolicy(DpPolicy):
    """Kills its worker process outright — a stand-in for OOM/segfault."""

    name = "crash_dp"

    def solve(self, payload):
        import os

        os._exit(13)


with contextlib.suppress(ConfigurationError):  # pragma: no cover - reimport
    register_policy(SlowDpPolicy())
    register_policy(CrashingPolicy())


class TestCoalescing:
    def test_fifty_identical_requests_two_clients_one_solve(self):
        """The acceptance criterion: 50 concurrent identical requests over
        two TCP connections produce exactly one canonical solve, and all
        50 responses byte-match the direct ``solve_batch`` answer."""
        instance = _instance(seed=7)
        expected = _wire("dp", solve_batch([instance], solver="dp")[0])

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                c1 = await ServeClient.connect(host, port)
                c2 = await ServeClient.connect(host, port)
                try:
                    halves = await asyncio.gather(
                        c1.solve_many([instance] * 25, solver="dp"),
                        c2.solve_many([instance] * 25, solver="dp"),
                    )
                finally:
                    await c1.close()
                    await c2.close()
                return halves[0] + halves[1], server

        responses, server = asyncio.run(run())
        assert len(responses) == 50
        policy_stats = server.stats.policy("dp")
        assert policy_stats.requests == 50
        assert policy_stats.solves_scheduled == 1
        assert policy_stats.coalesced_joins + policy_stats.cache_hits == 49
        assert policy_stats.errors == 0
        # The batch backend agrees: one canonical solve ran end to end.
        assert server.cache.stats.unique_solved == 1
        assert server.stats.connections == 2
        for response in responses:
            assert response["served"] in ("solve", "coalesced", "cache")
            assert json.dumps(response["result"], sort_keys=True) == expected

    def test_relabelled_duplicates_fan_out_per_waiter(self):
        """Coalesced isomorphic duplicates get answers in their *own*
        labelling, not the scheduling instance's."""
        base = _instance(seed=11, n_nodes=30)
        rng = np.random.default_rng(3)
        duplicates = []
        for _ in range(4):
            perm = rng.permutation(base.tree.n_nodes)
            tree, pre = relabel_tree(base.tree, perm, base.preexisting)
            duplicates.append(BatchInstance(tree, base.capacity, pre, base.cost_model))
        batch = [base, *duplicates]
        direct = solve_batch(batch, solver="dp")

        async def run():
            async with BatchServer() as server:
                results = await asyncio.gather(
                    *(server.submit(i, solver="dp") for i in batch)
                )
                return results, server

        results, server = asyncio.run(run())
        assert server.stats.policy("dp").solves_scheduled == 1
        for got, want in zip(results, direct, strict=True):
            assert _wire("dp", got) == _wire("dp", want)

    def test_one_canonicalisation_and_one_fan_out_per_request(self, monkeypatch):
        """The micro-batch reuses the request path's keys and leaves the
        fan-out to the waiters: each request canonicalises once and fans
        out once, coalesced relabelled duplicates included."""
        base = _instance(seed=13, n_nodes=30)
        rng = np.random.default_rng(5)
        batch = [base, _instance(seed=14, n_nodes=30)]
        for _ in range(3):
            perm = rng.permutation(base.tree.n_nodes)
            tree, pre = relabel_tree(base.tree, perm, base.preexisting)
            batch.append(BatchInstance(tree, base.capacity, pre, base.cost_model))
        direct = solve_batch(batch, solver="dp")
        policy = get_policy("dp")
        calls = {"instance_key": 0, "fan_out": 0}
        for name in calls:

            def counted(*args, _fn=getattr(policy, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(policy, name, counted)

        async def run():
            async with BatchServer() as server:
                results = await asyncio.gather(
                    *(server.submit(i, solver="dp") for i in batch)
                )
                return results, server

        results, server = asyncio.run(run())
        assert server.stats.policy("dp").solves_scheduled == 2
        assert calls == {"instance_key": len(batch), "fan_out": len(batch)}
        for got, want in zip(results, direct, strict=True):
            assert _wire("dp", got) == _wire("dp", want)

    def test_served_solve_counts_one_cache_lookup(self):
        """The micro-batch trusts the request path's cache miss: a solved
        request is one lookup, not a second one in the drain."""
        distinct = [_instance(seed=s, n_nodes=30) for s in (21, 22, 23)]

        async def run():
            async with BatchServer() as server:
                for instance in [*distinct, distinct[1]]:
                    await server.submit(instance, solver="dp")
                return server

        stats = asyncio.run(run()).cache.stats
        assert (stats.hits, stats.misses) == (1, 3)
        assert stats.hit_rate == pytest.approx(0.25)
        assert stats.unique_solved == 3

    def test_priorities_accepted(self):
        instance = _instance(seed=5, n_nodes=20)

        async def run():
            async with BatchServer() as server:
                low = server.submit(instance, solver="dp", priority=5)
                high = server.submit(instance, solver="dp", priority=-5)
                return await asyncio.gather(low, high)

        low, high = asyncio.run(run())
        assert low.cost == pytest.approx(high.cost)


class TestMixedPolicies:
    def test_policy_storm_stays_isolated(self):
        instance = _instance(seed=13, n_nodes=30, power=True)
        solvers = ("dp", "greedy", "min_power", "power_frontier")
        direct = {s: solve_batch([instance], solver=s)[0] for s in solvers}

        async def run():
            async with BatchServer() as server:
                results = await asyncio.gather(
                    *(
                        server.submit(instance, solver=s)
                        for s in solvers
                        for _ in range(5)
                    )
                )
                return results, server

        results, server = asyncio.run(run())
        for idx, solver in enumerate(solvers):
            for k in range(5):
                got = results[idx * 5 + k]
                assert _wire(solver, got) == _wire(solver, direct[solver])
        stats = server.stats
        assert stats.policy("dp").solves_scheduled == 1
        assert stats.policy("greedy").solves_scheduled == 1
        # min_power / power_frontier share one digest (and hence one
        # canonical frontier solve) by design.
        frontier_solves = (
            stats.policy("min_power").solves_scheduled
            + stats.policy("power_frontier").solves_scheduled
        )
        assert frontier_solves == 1
        assert server.cache.stats.unique_solved == 3

    def test_solver_failure_isolated_within_micro_batch(self):
        """A solver-time failure (infeasible instance) sharing a
        micro-batch with a feasible one must fail alone — the feasible
        waiter still gets its answer."""
        from repro.exceptions import InfeasibleError
        from repro.tree.model import Tree

        good = _instance(seed=29, n_nodes=20)
        bad = BatchInstance(Tree([None, 0], [(1, 50)]), 10)  # load 50 > W=10
        expected = _wire("dp", solve_batch([good], solver="dp")[0])

        async def run():
            # Jobs that arrive while a batch solves form the next batch:
            # with a slow solve in flight, both jobs land in one batch.
            async with BatchServer() as server:
                slow = asyncio.create_task(
                    server.submit(_instance(seed=31, n_nodes=20), solver="slow_dp")
                )
                await asyncio.sleep(0.05)
                outcomes = await asyncio.gather(
                    server.submit(good, solver="dp"),
                    server.submit(bad, solver="dp"),
                    return_exceptions=True,
                )
                await slow
                return outcomes, server

        outcomes, server = asyncio.run(run())
        assert _wire("dp", outcomes[0]) == expected
        assert isinstance(outcomes[1], InfeasibleError)
        stats = server.stats.policy("dp")
        assert stats.errors == 1
        # One batch for the slow job, one for both dp jobs.
        assert (server.stats.batches, server.stats.batch_instances) == (2, 3)

    def test_crashed_worker_pool_is_rebuilt(self):
        """A dead pool worker fails its own request but must not poison
        the long-lived server: the crash is attributed to its digest
        (typed ``QuarantinedError``), the pool is rebuilt, and later
        cache-miss requests succeed."""
        from repro.exceptions import QuarantinedError

        instance = _instance(seed=43, n_nodes=20)

        async def run():
            async with BatchServer(workers=2) as server:
                with pytest.raises(QuarantinedError):
                    await server.submit(instance, solver="crash_dp")
                # The poison digest now fails fast for its TTL, without
                # touching (or re-breaking) the rebuilt pool.
                with pytest.raises(QuarantinedError):
                    await server.submit(instance, solver="crash_dp")
                result = await server.submit(instance, solver="dp")
                return result, server

        result, server = asyncio.run(run())
        assert result.n_replicas > 0
        assert server.stats.policy("dp").errors == 0
        assert server.cache.stats.pool_rebuilds == 1
        assert server.cache.stats.quarantined == 1
        assert server.cache.stats.quarantine_blocked == 1

    def test_error_does_not_kill_other_requests(self):
        bad = _instance(seed=17, n_nodes=20, power=False)  # no power model
        good = _instance(seed=17, n_nodes=20, power=False)

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                async with await ServeClient.connect(host, port) as client:
                    outcomes = await asyncio.gather(
                        client.solve(bad, solver="min_power"),
                        client.solve(good, solver="dp"),
                        return_exceptions=True,
                    )
                return outcomes, server

        outcomes, server = asyncio.run(run())
        assert isinstance(outcomes[0], ServeError)
        assert "power model" in str(outcomes[0])
        assert outcomes[1]["ok"] is True
        assert server.stats.policy("min_power").errors == 1
        assert server.stats.policy("dp").errors == 0


class TestCancellationAndDisconnect:
    def test_cancelled_waiter_does_not_poison_shared_future(self):
        instance = _instance(seed=19, n_nodes=25)
        expected = _wire("dp", solve_batch([instance], solver="dp")[0])

        async def run():
            async with BatchServer() as server:
                first = asyncio.create_task(
                    server.submit(instance, solver="slow_dp")
                )
                await asyncio.sleep(0.05)  # job is in flight on the backend
                second = asyncio.create_task(
                    server.submit(instance, solver="slow_dp")
                )
                await asyncio.sleep(0.05)
                first.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await first
                result = await second
                return result, server

        result, server = asyncio.run(run())
        # slow_dp shares the dp record shape, so the survivor's answer
        # must match a plain dp solve.
        assert _wire("dp", result) == expected
        stats = server.stats.policy("slow_dp")
        assert stats.solves_scheduled == 1
        assert stats.errors == 0

    def test_client_close_fails_inflight_requests_promptly(self):
        """close() must fail waiters still awaiting responses instead of
        leaving them hanging on never-resolved futures."""
        instance = _instance(seed=41, n_nodes=20)

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                client = await ServeClient.connect(host, port)
                pending = asyncio.create_task(
                    client.solve(instance, solver="slow_dp")
                )
                await asyncio.sleep(0.05)  # request is in flight
                await client.close()
                with pytest.raises(ServeError, match="closed"):
                    await asyncio.wait_for(pending, timeout=2)

        asyncio.run(run())

    def test_client_disconnect_leaves_solve_running(self):
        instance = _instance(seed=23, n_nodes=25)
        expected = _wire("dp", solve_batch([instance], solver="dp")[0])

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                # A raw connection that fires one slow request and vanishes.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    encode_line(
                        {
                            "op": "solve",
                            "id": 1,
                            "solver": "slow_dp",
                            "instance": instance_to_dict(instance),
                        }
                    )
                )
                await writer.drain()
                await asyncio.sleep(0.05)  # request scheduled server-side
                writer.close()
                # A well-behaved client asking for the same digest joins
                # the orphaned in-flight solve and still gets the answer.
                async with await ServeClient.connect(host, port) as client:
                    response = await client.solve(instance, solver="slow_dp")
                return response, server

        response, server = asyncio.run(run())
        assert json.dumps(response["result"], sort_keys=True) == expected
        assert server.stats.policy("slow_dp").solves_scheduled == 1


class TestShutdown:
    def test_stop_drains_queued_work(self):
        instances = [_instance(seed=s, n_nodes=20) for s in range(31, 36)]
        direct = [solve_batch([i], solver="dp")[0] for i in instances]

        async def run():
            server = await BatchServer().start()
            tasks = [
                asyncio.create_task(server.submit(i, solver="dp"))
                for i in instances
            ]
            # Wait until every submission is actually enqueued (the
            # canonicalisation step is async) before starting shutdown.
            while server.stats.policy("dp").solves_scheduled < len(instances):
                await asyncio.sleep(0.005)
            await server.stop()
            results = await asyncio.gather(*tasks)
            with pytest.raises(ServerClosedError):
                await server.submit(instances[0], solver="dp")
            return results

        results = asyncio.run(run())
        for got, want in zip(results, direct, strict=True):
            assert _wire("dp", got) == _wire("dp", want)

    def test_shutdown_op_stops_tcp_server(self):
        instance = _instance(seed=37, n_nodes=20)

        async def run():
            server = await BatchServer().start()
            host, port = await server.listen()
            async with await ServeClient.connect(host, port) as client:
                response = await client.solve(instance, solver="dp")
                assert response["ok"]
                await client.shutdown_server()
            await asyncio.wait_for(server.serve_forever(), timeout=5)
            return server

        server = asyncio.run(run())
        assert server.stats.policy("dp").requests == 1


class TestPerfOp:
    def test_perf_reports_kernel_counters_once_per_digest(self):
        """The ``perf`` op exposes Pareto-DP kernel counters aggregated
        from the canonical solve records, with cache hits and coalesced
        duplicates never inflating them."""
        instance = _instance(seed=23, n_nodes=25, power=True)

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                client = await ServeClient.connect(host, port)
                try:
                    await client.solve_many([instance] * 6, solver="min_power")
                    first = await client.perf()
                    # Re-requesting the same digest is a cache hit; the
                    # kernel aggregate must not double-count it.
                    await client.solve(instance, solver="min_power")
                    second = await client.perf()
                finally:
                    await client.close()
                return first, second

        first, second = asyncio.run(run())
        kernel = first["kernel"]["min_power"]
        assert kernel["merges"] > 0
        assert kernel["labels_created"] >= kernel["labels_generated"] > 0
        # Served solves run cold: no front-store lookups.
        assert kernel["memo_hits"] == kernel["memo_misses"] == 0
        assert second["kernel"]["min_power"] == kernel
        assert second["serve"]["policies"]["min_power"]["requests"] == 7

    def test_perf_empty_without_power_traffic(self):
        instance = _instance(seed=29, n_nodes=20)

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                client = await ServeClient.connect(host, port)
                try:
                    await client.solve(instance, solver="dp")
                    return await client.perf()
                finally:
                    await client.close()

        perf = asyncio.run(run())
        # MinCost records carry no kernel counters; serving stats do.
        assert perf["kernel"] == {}
        assert perf["serve"]["policies"]["dp"]["requests"] == 1
