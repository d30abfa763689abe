"""Cluster scale-out: digest-routed multi-worker vs a single worker.

Solve-bound, cache-miss traffic (every instance unique — no coalescing,
no cache wins) is exactly the load a single :class:`BatchServer` cannot
speed up: the GIL serialises the DP solves.  The cluster router shards
that storm across N ``repro serve`` *processes* (the
:class:`~repro.serve.SubprocessSpawner` backend), so the solves run
genuinely in parallel; this bench fires the same storm at a 1-worker and
an N-worker cluster and asserts the throughput multiple.

The floor is a hard local gate (≥2x with three workers), relaxed for
shared/low-core CI runners via ``REPRO_BENCH_MIN_CLUSTER_SPEEDUP``; the
byte-equivalence check (every routed response identical to the direct
``solve_batch`` answer) is never relaxed.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.analysis import format_table
from repro.batch import get_policy, random_batch, solve_batch
from repro.serve import (
    ClusterRouter,
    ServeClient,
    SubprocessSpawner,
    WorkerConfig,
)

N_REQUESTS = 60
N_NODES = 150
FLEET = 3
SEED = 2011
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_CLUSTER_SPEEDUP", "2.0"))


def _storm():
    return random_batch(
        N_REQUESTS,
        duplicate_rate=0.0,  # all-unique: solve-bound, zero cache help
        n_nodes=N_NODES,
        n_preexisting=40,
        rng=np.random.default_rng(SEED),
    )


def _run_cluster(storm, n_workers: int):
    """One storm through a fresh n-worker cluster; returns (responses, s)."""

    async def run():
        router = ClusterRouter(
            SubprocessSpawner(),
            n_workers,
            WorkerConfig(),
            fallbacks=1,
        )
        async with router:
            host, port = await router.listen()
            client = await ServeClient.connect(host, port)
            try:
                t0 = time.perf_counter()
                responses = await client.solve_many(storm, solver="dp")
                elapsed = time.perf_counter() - t0
            finally:
                await client.close()
            return responses, elapsed, router.stats.as_dict()

    return asyncio.run(run())


def test_cluster_throughput_vs_single_worker(emit, emit_json):
    storm = _storm()
    policy = get_policy("dp")
    expected = [
        json.dumps(policy.result_to_wire(r), sort_keys=True)
        for r in solve_batch(storm, solver="dp")
    ]

    timings: dict[int, float] = {}
    for n_workers in (1, FLEET):
        responses, elapsed, stats = _run_cluster(storm, n_workers)
        timings[n_workers] = elapsed
        # Exactness is not relaxed: every routed response byte-matches
        # the direct batch pipeline, whatever the fleet size.
        assert len(responses) == N_REQUESTS
        for response, want in zip(responses, expected, strict=True):
            assert json.dumps(response["result"], sort_keys=True) == want
        assert stats["requests_routed"] == N_REQUESTS
        assert stats["rejected"] == 0

    speedup = timings[1] / timings[FLEET]
    rows = [
        (
            n,
            f"{timings[n]:.2f}s",
            f"{N_REQUESTS / timings[n]:.1f}",
            f"{timings[1] / timings[n]:.2f}x",
        )
        for n in (1, FLEET)
    ]
    table = format_table(("workers", "seconds", "rps", "speedup"), rows)
    emit(
        "cluster_throughput",
        f"{table}\n"
        f"storm: {N_REQUESTS} unique {N_NODES}-node dp instances "
        f"(cache-miss, solve-bound)\n"
        f"speedup {FLEET}w vs 1w: {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}, host cpus={os.cpu_count()})",
    )
    emit_json(
        "cluster",
        {
            "requests": N_REQUESTS,
            "nodes": N_NODES,
            "fleet": FLEET,
            "cpus": os.cpu_count(),
            "seconds_1_worker": timings[1],
            f"seconds_{FLEET}_workers": timings[FLEET],
            "rps_1_worker": N_REQUESTS / timings[1],
            f"rps_{FLEET}_workers": N_REQUESTS / timings[FLEET],
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"cluster speedup {speedup:.2f}x under the {MIN_SPEEDUP}x floor "
        f"({FLEET} workers, {os.cpu_count()} cpus)"
    )
