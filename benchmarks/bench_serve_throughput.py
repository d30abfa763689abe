"""Serving throughput: coalescing vs a per-request solve loop.

The serving win on duplicate-heavy concurrent load has two parts: a
request joining an identical in-flight solve costs one fan-out instead
of one DP run, and a request arriving after the solve lands costs one
cache hit.  This bench fires a concurrent storm of relabelled-duplicate
requests at an in-process :class:`~repro.serve.BatchServer` and compares
against the naive per-request loop, asserting both the throughput floor
and the coalescing accounting (unique solves == unique instances).

Like the batch bench, the floor is a hard local gate relaxed for noisy
shared CI runners via ``REPRO_BENCH_MIN_SPEEDUP_SERVE``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.analysis import format_table
from repro.batch import get_policy, random_batch, solve_batch
from repro.core.dp_withpre import replica_update
from repro.serve import BatchServer

N_REQUESTS = 60
N_NODES = 120
RATES = (0.5, 0.9)
SEED = 2011
MIN_SPEEDUP_90 = float(
    os.environ.get("REPRO_BENCH_MIN_SPEEDUP_SERVE", "3.0")
)


def _make_storm(rate: float):
    return random_batch(
        N_REQUESTS,
        duplicate_rate=rate,
        n_nodes=N_NODES,
        n_preexisting=30,
        rng=np.random.default_rng(SEED),
    )


def _serve_storm(storm):
    """All requests concurrently against a fresh server; returns stats."""

    async def run():
        async with BatchServer() as server:
            results = await asyncio.gather(
                *(server.submit(i, solver="dp") for i in storm)
            )
            return results, server

    return asyncio.run(run())


def test_serve_throughput_vs_naive_loop(emit, emit_json):
    rows = []
    speedups: dict[float, float] = {}
    series: dict[str, dict] = {}
    policy = get_policy("dp")
    for rate in RATES:
        storm = _make_storm(rate)

        t0 = time.perf_counter()
        naive = [
            replica_update(i.tree, i.capacity, i.preexisting, i.cost_model)
            for i in storm
        ]
        t_naive = time.perf_counter() - t0

        t0 = time.perf_counter()
        served, server = _serve_storm(storm)
        t_serve = time.perf_counter() - t0

        # Exactness first: serving is transparent — responses byte-match
        # the direct batch pipeline, and match the naive DP on cost (the
        # canonical solve may pick a different equal-cost optimum).
        direct = solve_batch(storm, solver="dp")
        for a, b, c in zip(served, direct, naive, strict=True):
            assert json.dumps(policy.result_to_wire(a), sort_keys=True) == (
                json.dumps(policy.result_to_wire(b), sort_keys=True)
            )
            assert abs(a.cost - c.cost) < 1e-9
        stats = server.stats.policy("dp")
        assert stats.requests == N_REQUESTS
        # Coalescing is complete: one scheduled solve per unique instance.
        assert stats.solves_scheduled == server.cache.stats.unique_solved
        assert (
            stats.solves_scheduled + stats.coalesced_joins + stats.cache_hits
            == N_REQUESTS
        )

        speedups[rate] = t_naive / t_serve
        series[f"{rate:.2f}"] = {
            "solves_scheduled": stats.solves_scheduled,
            "coalesced_joins": stats.coalesced_joins,
            "cache_hits": stats.cache_hits,
            "naive_seconds": t_naive,
            "serve_seconds": t_serve,
            "speedup": speedups[rate],
            "p50_seconds": stats.latency_quantile(0.5),
            "p99_seconds": stats.latency_quantile(0.99),
        }
        rows.append(
            (
                f"{rate:.0%}",
                stats.solves_scheduled,
                stats.coalesced_joins,
                stats.cache_hits,
                f"{N_REQUESTS / t_naive:.0f}",
                f"{N_REQUESTS / t_serve:.0f}",
                f"{speedups[rate]:.1f}x",
                f"{(stats.latency_quantile(0.5) or 0.0) * 1e3:.1f}ms",
                f"{(stats.latency_quantile(0.99) or 0.0) * 1e3:.1f}ms",
            )
        )

    table = format_table(
        (
            "dup_rate",
            "solves",
            "joined",
            "cache",
            "naive_rps",
            "serve_rps",
            "speedup",
            "p50",
            "p99",
        ),
        rows,
    )
    emit(
        "serve_throughput",
        f"{table}\n\nstorm={N_REQUESTS} concurrent requests, N={N_NODES}, "
        f"solver=dp, in-process submit path\n"
        f"acceptance: speedup at 90% duplicates >= {MIN_SPEEDUP_90:.1f}x "
        f"(measured {speedups[0.9]:.1f}x)",
    )
    emit_json(
        "serve",
        {
            "n_requests": N_REQUESTS,
            "n_nodes": N_NODES,
            "solver": "dp",
            "min_speedup_90": MIN_SPEEDUP_90,
            "rates": series,
        },
    )
    assert speedups[0.9] >= MIN_SPEEDUP_90
