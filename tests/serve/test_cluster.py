"""Integration tests of the digest-routed serving cluster.

The whole topology — :class:`~repro.serve.ClusterRouter` front, hash
ring, N :class:`~repro.serve.BatchServer` workers, shedding, death and
re-spawn — runs socketlessly inside this one process through
:class:`~repro.serve.InProcessSpawner` (the front TCP endpoint is the
only real socket, exercised by :class:`~repro.serve.ServeClient`).

The acceptance storm: 200 mixed-policy requests with duplicates against
a 3-worker cluster, one worker killed mid-storm — every response arrives
and byte-matches the direct ``solve_batch`` answer, no request lost.

Tests drive the event loop with plain ``asyncio.run`` so they pass with
or without the pytest-asyncio plugin installed.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.batch import (
    BatchInstance,
    get_policy,
    random_batch,
    solve_batch,
)
from repro.batch.instance import instance_to_dict
from repro.power.modes import ModeSet, PowerModel
from repro.serve import (
    ClusterRouter,
    HashRing,
    InProcessSpawner,
    ServeClient,
    ServeError,
    ServeOverloadedError,
    WorkerConfig,
)
from repro.serve.spawner import WorkerHandle
from repro.tree.generators import paper_tree, random_preexisting

# Import for the slow_dp registration side effect (see that module).
from tests.serve.test_server_concurrency import SlowDpPolicy  # noqa: F401


def _wire(solver: str, result) -> str:
    return json.dumps(get_policy(solver).result_to_wire(result), sort_keys=True)


def _power_instance(seed: int, n_nodes: int = 30) -> BatchInstance:
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    pre = random_preexisting(tree, 4, rng=rng)
    pm = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
    return BatchInstance(tree, 10, pre, power_model=pm)


def _solve_message(solver: str, instance: BatchInstance, rid: int = 0) -> dict:
    return {
        "op": "solve",
        "id": rid,
        "solver": solver,
        "instance": instance_to_dict(instance),
    }


def _instance_for_owner(router: ClusterRouter, owner: str, solver: str = "dp"):
    """A fresh instance whose *primary* ring owner is ``owner``; returns
    it with its canonical digest."""
    policy = get_policy(solver)
    for seed in range(1000, 2000):
        rng = np.random.default_rng(seed)
        tree = paper_tree(25, rng=rng)
        instance = BatchInstance(tree, 10, random_preexisting(tree, 3, rng=rng))
        key = router._solve_digest(_solve_message(solver, instance))
        if router._ring.owners(key, 1)[0] == owner:
            _, digest = policy.instance_key(instance)
            return instance, digest
    raise AssertionError(f"no instance found owned by {owner}")  # pragma: no cover


class TestHashRing:
    def test_owners_distinct_and_deterministic(self):
        ring = HashRing(["w0", "w1", "w2"])
        owners = ring.owners("d" * 64, 3)
        assert sorted(owners) == ["w0", "w1", "w2"]
        assert ring.owners("d" * 64, 3) == owners
        assert ring.owners("d" * 64, 1) == owners[:1]

    def test_n_clamped_to_fleet_size(self):
        ring = HashRing(["w0", "w1"])
        assert len(ring.owners("x", 5)) == 2

    def test_distribution_not_degenerate(self):
        """Virtual nodes spread digests across every worker."""
        ring = HashRing(["w0", "w1", "w2"])
        counts: dict[str, int] = {}
        for i in range(300):
            owner = ring.owners(f"digest-{i}", 1)[0]
            counts[owner] = counts.get(owner, 0) + 1
        assert set(counts) == {"w0", "w1", "w2"}
        assert min(counts.values()) > 30

    def test_membership_is_static(self):
        """The same names always build the same ring (cache affinity
        across router restarts and worker re-spawns)."""
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])
        for i in range(50):
            assert a.owners(f"d{i}", 2) == b.owners(f"d{i}", 2)


class TestClusterStorm:
    def test_200_request_storm_byte_identical_with_worker_death(self):
        """The acceptance criterion: a 200-request mixed-policy storm
        with duplicates against 3 workers, one induced worker death
        mid-storm — every response byte-matches the direct solve."""
        rng = np.random.default_rng(5)
        instances = random_batch(
            200, duplicate_rate=0.5, n_nodes=30, rng=rng
        )
        solvers = ["dp" if i % 2 == 0 else "greedy" for i in range(200)]
        expected = {}
        for solver in ("dp", "greedy"):
            group = [i for i, s in zip(instances, solvers) if s == solver]
            for inst, result in zip(group, solve_batch(group, solver=solver)):
                expected[id(inst)] = _wire(solver, result)

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(
                spawner, 3, WorkerConfig(), fallbacks=1
            )
            async with router:
                host, port = await router.listen()
                client = await ServeClient.connect(host, port)
                try:
                    first = await asyncio.gather(
                        *(
                            client.solve(inst, solver=s)
                            for inst, s in zip(instances[:100], solvers[:100])
                        )
                    )
                    # Induced mid-storm death: w1 goes down abruptly.
                    await router._handles["w1"].kill()
                    second = await asyncio.gather(
                        *(
                            client.solve(inst, solver=s)
                            for inst, s in zip(instances[100:], solvers[100:])
                        )
                    )
                finally:
                    await client.close()
                return first + second, router

        responses, router = asyncio.run(run())
        assert len(responses) == 200  # no request lost
        for inst, response in zip(instances, responses):
            assert response["ok"]
            got = json.dumps(response["result"], sort_keys=True)
            assert got == expected[id(inst)]
        stats = router.stats.as_dict()
        assert stats["requests_routed"] == 200
        assert stats["rejected"] == 0
        assert stats["workers"]["w1"]["deaths"] == 1

    def test_partitioned_digest_ownership(self):
        """Each digest is cached by exactly one worker, the primary ring
        owner of the request's routing key: the partitioned-cache
        invariant behind the scale-out design."""
        instances = random_batch(
            40, duplicate_rate=0.0, n_nodes=25, rng=np.random.default_rng(9)
        )

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 3, WorkerConfig())
            async with router:
                messages = [
                    _solve_message("dp", inst, i)
                    for i, inst in enumerate(instances)
                ]
                responses = [await router.dispatch(m) for m in messages]
                placement = {}
                for message, response in zip(messages, responses):
                    assert response["ok"]
                    digest = response["digest"]
                    holders = [
                        name
                        for name, worker in spawner._workers.items()
                        if worker.server.cache.get(digest) is not None
                    ]
                    placement[digest] = (holders, router._solve_digest(message))
                return router, placement

        router, placement = asyncio.run(run())
        assert len(placement) == len(instances)
        for holders, key in placement.values():
            assert holders == router._ring.owners(key, 1)

    def test_inflight_death_fails_over_to_ring_fallback(self):
        """A request in flight on a worker that dies is retried against
        the digest's next owner and still answered correctly."""

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(
                spawner, 3, WorkerConfig(), fallbacks=1
            )
            async with router:
                instance, digest = _instance_for_owner(router, "w2", "slow_dp")
                task = asyncio.create_task(
                    router.dispatch(
                        {
                            "op": "solve",
                            "id": 1,
                            "solver": "slow_dp",
                            "instance": instance_to_dict(instance),
                        }
                    )
                )
                # Let the request land on w2, then kill it mid-solve.
                while not router.stats.worker("w2").routed:
                    await asyncio.sleep(0.005)
                await router._handles["w2"].kill()
                response = await task
                return router, response

        router, response = asyncio.run(run())
        assert response["ok"]
        assert router.stats.worker("w2").deaths == 1
        assert router.stats.retries >= 1

    def test_dead_worker_respawns_and_serves_again(self):
        """The router re-spawns a dead worker (single-flight) and routes
        its digests straight back to it."""

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 2, WorkerConfig())
            async with router:
                await router.start()
                await router._handles["w0"].kill()
                router._note_death("w0")
                for _ in range(200):
                    if "w0" not in router._down:
                        break
                    await asyncio.sleep(0.01)
                instance, digest = _instance_for_owner(router, "w0")
                response = await router.dispatch(
                    {
                        "op": "solve",
                        "id": 1,
                        "solver": "dp",
                        "instance": instance_to_dict(instance),
                    }
                )
                served_by_w0 = (
                    spawner._workers["w0"].server.cache.get(digest) is not None
                )
                return router, response, served_by_w0

        router, response, served_by_w0 = asyncio.run(run())
        assert response["ok"]
        assert router.stats.worker("w0").deaths == 1
        assert router.stats.worker("w0").respawns == 1
        assert served_by_w0


class TestClusterBackpressure:
    def test_shed_primary_retries_fallback(self):
        """A worker at max_pending sheds; the router retries the digest's
        fallback owner and the client never sees the overload."""

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(
                spawner,
                3,
                WorkerConfig(max_pending=1),
                fallbacks=1,
            )
            async with router:
                # Fill w0's single admission slot with a slow solve.
                filler, _ = _instance_for_owner(router, "w0", "slow_dp")
                filler_task = asyncio.create_task(
                    router.dispatch(
                        {
                            "op": "solve",
                            "id": 1,
                            "solver": "slow_dp",
                            "instance": instance_to_dict(filler),
                        }
                    )
                )
                while not spawner._workers["w0"].server._jobs:
                    await asyncio.sleep(0.005)
                # A second digest owned by w0 must fail over, not fail.
                instance, _ = _instance_for_owner(router, "w0")
                response = await router.dispatch(
                    {
                        "op": "solve",
                        "id": 2,
                        "solver": "dp",
                        "instance": instance_to_dict(instance),
                    }
                )
                filler_response = await filler_task
                return router, response, filler_response

        router, response, filler_response = asyncio.run(run())
        assert response["ok"] and filler_response["ok"]
        assert router.stats.worker("w0").sheds == 1
        assert router.stats.retries == 1
        assert router.stats.rejected == 0

    def test_every_owner_shedding_rejects_with_overloaded_code(self):
        """With no fallbacks, a shed is final: the client sees the typed
        retriable overload, and nothing was enqueued anywhere."""

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(
                spawner,
                2,
                WorkerConfig(max_pending=1),
                fallbacks=0,
            )
            async with router:
                host, port = await router.listen()
                filler, _ = _instance_for_owner(router, "w1", "slow_dp")
                filler_task = asyncio.create_task(
                    router.dispatch(
                        {
                            "op": "solve",
                            "id": 1,
                            "solver": "slow_dp",
                            "instance": instance_to_dict(filler),
                        }
                    )
                )
                while not spawner._workers["w1"].server._jobs:
                    await asyncio.sleep(0.005)
                instance, _ = _instance_for_owner(router, "w1")
                client = await ServeClient.connect(host, port)
                try:
                    with pytest.raises(ServeOverloadedError):
                        await client.solve(instance, solver="dp")
                finally:
                    await client.close()
                await filler_task
                return router

        router = asyncio.run(run())
        assert router.stats.rejected == 1
        assert router.stats.worker("w1").sheds >= 1


class TestClusterSessions:
    def test_session_sticky_namespaced_and_closable(self):
        instance = _power_instance(seed=61)

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 3, WorkerConfig())
            async with router:
                host, port = await router.listen()
                client = await ServeClient.connect(host, port)
                try:
                    sess = await client.session(instance)
                    sid = sess.session_id
                    response = await sess.delta(
                        [{"kind": "add_client", "node": 1, "requests": 2}]
                    )
                    stats = await sess.close()
                finally:
                    await client.close()
                return sid, response, stats

        sid, response, stats = asyncio.run(run())
        worker, _, remote = sid.partition(":")
        assert worker in ("w0", "w1", "w2") and remote.startswith("s")
        assert response["session"] == sid
        assert response["apply"]["deltas"] == 1
        assert stats["applies"] == 1

    def test_worker_death_orphans_session_with_lost_error(self):
        instance = _power_instance(seed=62)

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 3, WorkerConfig())
            async with router:
                host, port = await router.listen()
                client = await ServeClient.connect(host, port)
                try:
                    sess = await client.session(instance)
                    owner = sess.session_id.partition(":")[0]
                    await router._handles[owner].kill()
                    with pytest.raises(ServeError, match="lost"):
                        await sess.delta(
                            [{"kind": "add_client", "node": 1, "requests": 1}]
                        )
                finally:
                    await client.close()
                return router

        router = asyncio.run(run())
        assert router.stats.lost_sessions == 1

    def test_disconnect_reaps_cluster_sessions(self):
        """Closing the front connection releases the worker-side session."""
        instance = _power_instance(seed=63)

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 2, WorkerConfig())
            async with router:
                host, port = await router.listen()
                client = await ServeClient.connect(host, port)
                sess = await client.session(instance)
                owner = sess.session_id.partition(":")[0]
                server = spawner._workers[owner].server
                assert len(server._sessions) == 1
                await client.close()
                for _ in range(200):
                    if not server._sessions:
                        break
                    await asyncio.sleep(0.01)
                return len(server._sessions)

        assert asyncio.run(run()) == 0


class TestClusterOps:
    def test_perf_and_stats_fan_out(self):
        instance = _power_instance(seed=71)

        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 2, WorkerConfig())
            async with router:
                host, port = await router.listen()
                client = await ServeClient.connect(host, port)
                try:
                    await client.solve(instance, solver="dp")
                    perf = await client.perf()
                    stats = await client.stats()
                finally:
                    await client.close()
                return perf, stats

        perf, stats = asyncio.run(run())
        assert set(perf) == {"cluster", "workers"}
        assert perf["cluster"]["requests_routed"] == 1
        assert set(perf["workers"]) == {"w0", "w1"}
        for entry in perf["workers"].values():
            assert entry["alive"]
            assert "serve" in entry["perf"]
        total = sum(
            p.get("requests", 0)
            for entry in stats["workers"].values()
            for p in entry["stats"]["policies"].values()
        )
        assert total == 1

    def test_shutdown_op_stops_cluster(self):
        async def run():
            spawner = InProcessSpawner()
            router = ClusterRouter(spawner, 2, WorkerConfig())
            async with router:
                host, port = await router.listen()
                client = await ServeClient.connect(host, port)
                try:
                    await client.shutdown_server()
                finally:
                    await client.close()
                await asyncio.wait_for(router.serve_forever(), timeout=10)
                return all(
                    not w.alive for w in spawner._workers.values()
                )

        assert asyncio.run(run())


class _SecondSpawnFails(InProcessSpawner):
    """Boots ``w0``; the second spawn call fails like a bad exec."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.started: list[WorkerHandle] = []

    async def spawn(self, name, config):
        self.calls += 1
        if self.calls == 2:
            raise OSError("exec failed")
        handle = await super().spawn(name, config)
        self.started.append(handle)
        return handle


class TestClusterStart:
    def test_failed_start_stops_the_workers_it_spawned(self):
        spawner = _SecondSpawnFails()

        async def run():
            router = ClusterRouter(spawner, 3, WorkerConfig())
            with pytest.raises(OSError, match="exec failed"):
                async with router:
                    pass  # pragma: no cover - start raises first

        asyncio.run(run())
        assert spawner.calls == 3  # every worker was spawned concurrently
        assert sorted(h.name for h in spawner.started) == ["w0", "w2"]
        assert not any(h.alive for h in spawner.started)
