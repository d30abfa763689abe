"""Property-based equivalence: the server is transparent to results.

Two invariants over randomized trees, policies and relabellings:

1. whatever the routing (cache hit, coalesced join, scheduled solve),
   a server response byte-matches the direct :func:`repro.batch
   .solve_batch` answer for the same instance;
2. coalescing never changes a verified placement/frontier — all waiters
   on one canonical solve receive results that agree with their own
   per-instance direct solves.

Runs on the in-process :meth:`BatchServer.submit` entry so each example
costs one event loop, no sockets.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.batch import BatchInstance, get_policy, relabel_tree, solve_batch
from repro.power.modes import ModeSet, PowerModel
from repro.serve import BatchServer
from repro.tree.generators import paper_tree, random_preexisting

_SOLVERS = ("dp", "greedy", "dp_nopre", "min_power", "power_frontier", "greedy_power")

_settings = settings(max_examples=20, deadline=None)


def _wire(solver: str, result) -> str:
    return json.dumps(get_policy(solver).result_to_wire(result), sort_keys=True)


def _random_instances(seed: int, n_nodes: int, n_duplicates: int):
    """One random instance plus relabelled isomorphic duplicates.

    Every instance carries a power model so a drawn policy can always
    serve it (MinCost policies simply ignore the power fields).
    """
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    pre = random_preexisting(tree, min(4, n_nodes - 1), rng=rng)
    pm = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
    base = BatchInstance(tree, 10, pre, power_model=pm)
    instances = [base]
    for _ in range(n_duplicates):
        perm = rng.permutation(n_nodes)
        relabelled, relabelled_pre = relabel_tree(tree, perm, pre)
        instances.append(
            BatchInstance(
                relabelled, 10, relabelled_pre, base.cost_model, power_model=pm
            )
        )
    return instances


@_settings
@given(
    seed=st.integers(0, 2**32 - 1),
    solver=st.sampled_from(_SOLVERS),
    n_nodes=st.integers(10, 32),
    n_duplicates=st.integers(1, 4),
)
def test_server_responses_byte_match_direct_solve(
    seed, solver, n_nodes, n_duplicates
):
    instances = _random_instances(seed, n_nodes, n_duplicates)
    direct = solve_batch(instances, solver=solver)

    async def run():
        async with BatchServer() as server:
            results = await asyncio.gather(
                *(server.submit(i, solver=solver) for i in instances)
            )
            return results, server

    results, server = asyncio.run(run())
    for got, want in zip(results, direct, strict=True):
        assert _wire(solver, got) == _wire(solver, want)
    # All instances are isomorphic: one canonical solve, the rest joined
    # in flight or hit the cache — coalescing is complete and lossless.
    stats = server.stats.policy(solver)
    assert stats.solves_scheduled == 1
    assert stats.requests == len(instances)
    assert (
        stats.cache_hits + stats.coalesced_joins + stats.solves_scheduled
        == stats.requests
    )
    assert server.cache.stats.unique_solved == 1


@_settings
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(10, 28),
)
def test_coalescing_preserves_verified_placements(seed, n_nodes):
    """Waiters joined to one solve agree with their own direct DP runs,
    placement by placement (not just on cost)."""
    instances = _random_instances(seed, n_nodes, 3)

    async def run():
        async with BatchServer() as server:
            return await asyncio.gather(
                *(server.submit(i, solver="dp") for i in instances)
            )

    results = asyncio.run(run())
    for instance, result in zip(instances, results, strict=True):
        want = solve_batch([instance], solver="dp")[0]
        # fan_out re-verifies validity on the original tree; equality of
        # the replica sets pins that coalescing changed nothing.
        assert sorted(result.replicas) == sorted(want.replicas)
        assert result.cost == want.cost


@_settings
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(10, 24),
)
def test_coalescing_preserves_frontiers(seed, n_nodes):
    """Isomorphic waiters see isomorphic frontiers: identical (cost,
    power) pairs, placements valid in each waiter's own labelling."""
    instances = _random_instances(seed, n_nodes, 2)

    async def run():
        async with BatchServer() as server:
            return await asyncio.gather(
                *(server.submit(i, solver="power_frontier") for i in instances)
            )

    frontiers = asyncio.run(run())
    reference = solve_batch([instances[0]], solver="power_frontier")[0]
    for frontier in frontiers:
        # from_records(verify=True) already re-verified every placement
        # against the instance's own tree during fan-out.
        assert frontier.pairs() == reference.pairs()
