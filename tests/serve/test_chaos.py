"""Chaos suite: the serving stack under injected faults.

Drives a 3-worker in-process cluster through a mixed storm with an
injected hang, an injected worker crash and healthy traffic, all
deterministically via :mod:`repro.faults` (``REPRO_FAULTS``):

* healthy requests are answered byte-identically to a direct
  ``solve_batch`` run — supervision must be invisible to them;
* the hung solve answers with a typed retriable ``code: "timeout"``
  within the ``2 x solve_timeout`` latency budget (wave deadline +
  sandbox probe), not the injected 30 s hang;
* resubmitting a poison digest fails fast with ``code: "quarantined"``
  without breaking (or rebuilding) any pool a second time — at most one
  rebuild per distinct poison digest across the fleet;
* a torn connection (``drop_connection``) is survived by the client's
  retry policy, while request-specific errors are never retried.

Tests drive the event loop with plain ``asyncio.run`` so they pass with
or without the pytest-asyncio plugin installed.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.batch import BatchInstance, get_policy, solve_batch
from repro.batch.executor import instance_key
from repro.batch.instance import instance_to_dict
from repro.serve import (
    BatchServer,
    ClusterRouter,
    InProcessSpawner,
    ServeClient,
    ServeError,
    WorkerConfig,
)
from repro.serve.client import ServeQuarantinedError, ServeTimeoutError
from repro.faults import reset as faults_reset
from repro.tree.generators import paper_tree, random_preexisting

#: Per-wave supervision deadline used throughout the storm.
SOLVE_TIMEOUT = 1.0


@pytest.fixture(autouse=True)
def _clean_faults():
    faults_reset()
    yield
    faults_reset()


def _instance(seed: int, n_nodes: int = 25) -> BatchInstance:
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    return BatchInstance(tree, 10, random_preexisting(tree, 3, rng=rng))


def _wire(solver: str, result) -> str:
    return json.dumps(get_policy(solver).result_to_wire(result), sort_keys=True)


def _wire_response(response: dict) -> str:
    return json.dumps(response["result"], sort_keys=True)


class TestClusterChaosStorm:
    def test_mixed_storm_hang_crash_and_healthy_traffic(self, monkeypatch):
        healthy = [_instance(seed) for seed in range(10, 18)]
        hang_i = _instance(900)
        crash_i = _instance(901)
        digests = {
            "hang": instance_key(hang_i, solver="dp")[1],
            "crash": instance_key(crash_i, solver="dp")[1],
        }
        assert digests["hang"] != digests["crash"]
        # Reference answers computed *before* the faults go live.
        reference = [
            _wire("dp", r) for r in solve_batch(healthy, solver="dp")
        ]
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"crash_on_digest={digests['crash']};"
            f"hang_seconds={digests['hang']}:30",
        )

        async def run():
            router = ClusterRouter(
                InProcessSpawner(),
                3,
                WorkerConfig(
                    pool_workers=2,
                    solve_timeout=SOLVE_TIMEOUT,
                ),
                fallbacks=1,
            )
            async with router:

                def solve_msg(instance):
                    return {
                        "op": "solve",
                        "solver": "dp",
                        "instance": instance_to_dict(instance),
                    }

                t0 = time.monotonic()
                responses = await asyncio.gather(
                    *(router.dispatch(solve_msg(i)) for i in healthy),
                    router.dispatch(solve_msg(hang_i)),
                    router.dispatch(solve_msg(crash_i)),
                )
                storm_elapsed = time.monotonic() - t0
                healthy_responses = responses[: len(healthy)]
                hang_response, crash_response = responses[-2:]

                # Poison digests fail fast on resubmission: quarantined,
                # answered immediately, no second pool break anywhere.
                t0 = time.monotonic()
                hang_again = await router.dispatch(solve_msg(hang_i))
                crash_again = await router.dispatch(solve_msg(crash_i))
                resubmit_elapsed = time.monotonic() - t0

                perf = await router.dispatch({"op": "perf"})
                return (
                    healthy_responses,
                    hang_response,
                    crash_response,
                    storm_elapsed,
                    hang_again,
                    crash_again,
                    resubmit_elapsed,
                    perf,
                )

        (
            healthy_responses,
            hang_response,
            crash_response,
            storm_elapsed,
            hang_again,
            crash_again,
            resubmit_elapsed,
            perf,
        ) = asyncio.run(run())

        # Healthy traffic: every answer byte-identical to solve_batch.
        for response, expected in zip(
            healthy_responses, reference, strict=True
        ):
            assert response["ok"] is True, response
            assert _wire_response(response) == expected

        # The hang answers with the typed retriable timeout code inside
        # the 2 x solve_timeout budget (plus scheduling/process slack),
        # nowhere near the injected 30 s.
        assert hang_response["ok"] is False
        assert hang_response["code"] == "timeout"
        assert storm_elapsed < 2 * SOLVE_TIMEOUT + 4.0

        # The crash is attributed and typed non-retriable.
        assert crash_response["ok"] is False
        assert crash_response["code"] == "quarantined"

        # Resubmissions fail fast from quarantine, near-instantly.
        assert hang_again["code"] == "quarantined"
        assert crash_again["code"] == "quarantined"
        assert resubmit_elapsed < 1.0

        # At most one pool rebuild per distinct poison digest, fleet-wide.
        workers = perf["perf"]["workers"]
        rebuilds = sum(
            (w.get("perf") or {}).get("cache", {}).get("pool_rebuilds", 0)
            for w in workers.values()
        )
        assert 1 <= rebuilds <= 2
        quarantined = sum(
            (w.get("perf") or {}).get("quarantine", {}).get("active", 0)
            for w in workers.values()
        )
        assert quarantined == 2
        # The router forwarded the timeout verbatim (no failover) and
        # counted it.
        timeouts = sum(
            w.get("timeouts", 0)
            for w in perf["perf"]["cluster"]["workers"].values()
        )
        assert timeouts == 1


class TestClientRetryPolicy:
    def test_dropped_connection_is_survived_by_retry(self, monkeypatch):
        instance = _instance(950)
        digest = instance_key(instance, solver="dp")[1]
        expected = _wire("dp", solve_batch([instance], solver="dp")[0])
        monkeypatch.setenv("REPRO_FAULTS", f"drop_connection={digest}:1")

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                client = await ServeClient.connect(
                    host, port, retries=2, backoff=0.01
                )
                try:
                    response = await client.solve(instance, solver="dp")
                finally:
                    await client.close()
                return response, server

        response, server = asyncio.run(run())
        assert response["ok"] is True
        assert _wire_response(response) == expected
        # The drop happened *after* the solve: the retry was answered
        # from cache, so exactly one canonical solve ran.
        assert server.stats.policy("dp").solves_scheduled == 1

    def test_timeout_code_is_retried_and_succeeds_after_quarantine_lift(
        self, monkeypatch
    ):
        # First attempt hangs -> typed timeout; the server quarantines
        # the digest, so the client's automatic retry surfaces the
        # quarantine (non-retriable) — proving retry fires on "timeout"
        # but stops on "quarantined".
        instance = _instance(951)
        digest = instance_key(instance, solver="dp")[1]
        monkeypatch.setenv("REPRO_FAULTS", f"hang_seconds={digest}:30")

        async def run():
            async with BatchServer(solve_timeout=SOLVE_TIMEOUT) as server:
                host, port = await server.listen()
                client = await ServeClient.connect(
                    host, port, retries=2, backoff=0.01
                )
                try:
                    with pytest.raises(ServeQuarantinedError):
                        await client.solve(instance, solver="dp")
                finally:
                    await client.close()
                return server

        server = asyncio.run(run())
        assert server.cache.stats.solve_timeouts == 1
        assert server.cache.stats.quarantine_blocked >= 1

    def test_request_specific_errors_are_never_retried(self):
        from repro.tree.model import Tree

        infeasible = BatchInstance(Tree([None, 0], [(1, 50)]), 10)

        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                client = await ServeClient.connect(
                    host, port, retries=5, backoff=0.01
                )
                try:
                    with pytest.raises(ServeError) as info:
                        await client.solve(infeasible, solver="dp")
                finally:
                    await client.close()
                return info.value, server

        error, server = asyncio.run(run())
        assert not isinstance(error, (ServeTimeoutError, ServeQuarantinedError))
        # Exactly one request reached the policy: no retry storm.
        assert server.stats.policy("dp").requests == 1

    def test_retry_configuration_is_validated(self):
        async def run():
            async with BatchServer() as server:
                host, port = await server.listen()
                from repro.exceptions import ConfigurationError

                with pytest.raises(ConfigurationError):
                    await ServeClient.connect(host, port, retries=-1)
                with pytest.raises(ConfigurationError):
                    await ServeClient.connect(host, port, deadline=0)

        asyncio.run(run())


class TestServerSoloChaos:
    def test_single_server_hang_then_quarantine_fail_fast(self, monkeypatch):
        """The acceptance loop on one server: hang -> typed timeout
        within budget -> resubmission quarantined without a second
        rebuild."""
        instance = _instance(960)
        digest = instance_key(instance, solver="dp")[1]
        monkeypatch.setenv("REPRO_FAULTS", f"hang_seconds={digest}:30")

        async def run():
            async with BatchServer(solve_timeout=SOLVE_TIMEOUT) as server:
                host, port = await server.listen()
                client = await ServeClient.connect(host, port)
                try:
                    t0 = time.monotonic()
                    with pytest.raises(ServeTimeoutError):
                        await client.solve(instance, solver="dp")
                    elapsed = time.monotonic() - t0
                    with pytest.raises(ServeQuarantinedError):
                        await client.solve(instance, solver="dp")
                finally:
                    await client.close()
                return elapsed, server

        elapsed, server = asyncio.run(run())
        assert elapsed < 2 * SOLVE_TIMEOUT + 4.0
        assert server.cache.stats.pool_rebuilds == 1
        assert server.cache.stats.solve_timeouts == 1
        snap = server._quarantine.snapshot()
        assert snap["active"] == 1
        assert snap["entries"][0]["reason"] == "timeout"
