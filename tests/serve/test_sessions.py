"""Serve-layer contract of the live incremental sessions (PR 8).

Pinned guarantees:

* concurrent deltas on two different sessions never cross-contaminate —
  each session's frontier tracks its own ground-truth
  :class:`repro.dynamics.SessionState` exactly;
* ``session.close`` releases the retained tables and the server's
  registry does not grow across repeated open/close cycles;
* an abrupt client disconnect mid-session tears the session down
  without poisoning the shared solve pool;
* session requests are stateful: identical ``session.open`` payloads
  get *distinct* sessions (no digest coalescing), and unknown session
  ids are answered with protocol errors, not crashes.

Tests drive the event loop with plain ``asyncio.run`` so they pass with
or without the pytest-asyncio plugin installed.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.batch import BatchInstance
from repro.core.costs import ModalCostModel
from repro.dynamics import AddClient, SessionState, SetRequests, delta_to_dict
from repro.power.modes import ModeSet, PowerModel
from repro.serve import BatchServer, ServeClient, ServeError
from repro.tree.generators import paper_tree, random_preexisting

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)


def _instance(seed: int, n_nodes: int = 40) -> BatchInstance:
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    pre = random_preexisting(tree, min(5, n_nodes), rng=rng)
    return BatchInstance(tree, 10, pre, power_model=PM)


def _points(frontier) -> list[list[float]]:
    return [[c, p] for c, p in frontier.pairs()]


def _ground_truth(instance: BatchInstance, delta_batches):
    """Frontier sequence an in-process SessionState produces."""
    state = SessionState(
        instance.tree,
        instance.power_model,
        instance.effective_modal_cost(),
        instance.pre_modes(),
    )
    out = [_points(state.frontier())]
    for batch in delta_batches:
        out.append(_points(state.apply(batch).frontier))
    state.close()
    return out


class TestSessionIsolation:
    def test_concurrent_deltas_two_sessions_no_cross_contamination(self):
        inst_a, inst_b = _instance(1), _instance(2, n_nodes=30)
        batches_a = [[AddClient(3, 2)], [SetRequests(0, 1)], [AddClient(7, 1)]]
        batches_b = [[AddClient(5, 3)], [AddClient(5, 1)], [SetRequests(1, 4)]]
        truth_a = _ground_truth(inst_a, batches_a)
        truth_b = _ground_truth(inst_b, batches_b)

        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                c1 = await ServeClient.connect(host, port)
                c2 = await ServeClient.connect(host, port)
                try:
                    sess_a, sess_b = await asyncio.gather(
                        c1.session(inst_a), c2.session(inst_b)
                    )
                    seen_a = [sess_a.result["points"]]
                    seen_b = [sess_b.result["points"]]
                    # Fire each step's two deltas concurrently.
                    for batch_a, batch_b in zip(batches_a, batches_b):
                        ra, rb = await asyncio.gather(
                            sess_a.delta(batch_a), sess_b.delta(batch_b)
                        )
                        seen_a.append(ra["result"]["points"])
                        seen_b.append(rb["result"]["points"])
                    stats_a = await sess_a.close()
                    stats_b = await sess_b.close()
                finally:
                    await c1.close()
                    await c2.close()
                return seen_a, seen_b, stats_a, stats_b

        seen_a, seen_b, stats_a, stats_b = asyncio.run(run())
        assert seen_a == truth_a
        assert seen_b == truth_b
        assert stats_a["deltas_applied"] == len(batches_a)
        assert stats_b["deltas_applied"] == len(batches_b)
        assert stats_a["errors"] == 0 and stats_b["errors"] == 0

    def test_identical_opens_are_not_coalesced(self):
        instance = _instance(3)

        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                async with await ServeClient.connect(host, port) as client:
                    s1, s2 = await asyncio.gather(
                        client.session(instance), client.session(instance)
                    )
                    sids = (s1.session_id, s2.session_id)
                    await s1.close()
                    await s2.close()
                    return sids

        sid1, sid2 = asyncio.run(run())
        assert sid1 != sid2


class TestSessionLifecycle:
    def test_open_close_cycles_release_tables(self):
        instance = _instance(4, n_nodes=25)
        cycles = 5

        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                async with await ServeClient.connect(host, port) as client:
                    per_close = []
                    for _ in range(cycles):
                        sess = await client.session(instance)
                        await sess.delta([AddClient(2, 1)])
                        per_close.append(await sess.close())
                        # The registry must not accumulate closed sessions.
                        assert len(server._sessions) == 0
                    perf = await client.perf()
                return per_close, perf

        per_close, perf = asyncio.run(run())
        sessions = perf["sessions"]
        assert sessions["open"] == 0
        assert sessions["opened"] == cycles
        assert sessions["closed"] == cycles
        assert sessions["per_session"] == {}
        assert sessions["closed_aggregate"]["applies"] == cycles
        assert sessions["closed_aggregate"]["deltas_applied"] == cycles
        for stats in per_close:
            # Tables were retained while live ... and the close response
            # is the last observable snapshot before release.
            assert stats["store"]["entries"] > 0
            assert stats["applies"] == 1

    def test_unknown_session_is_an_error_response(self):
        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                async with await ServeClient.connect(host, port) as client:
                    with pytest.raises(ServeError, match="unknown session"):
                        await client._request(
                            {
                                "op": "session.delta",
                                "session": "s999",
                                "deltas": [delta_to_dict(AddClient(0, 1))],
                            }
                        )
                    with pytest.raises(ServeError, match="unknown session"):
                        await client._request(
                            {"op": "session.close", "session": "s999"}
                        )

        asyncio.run(run())

    def test_invalid_delta_counts_error_session_survives(self):
        instance = _instance(5, n_nodes=20)

        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                async with await ServeClient.connect(host, port) as client:
                    sess = await client.session(instance)
                    with pytest.raises(ServeError, match="out of range"):
                        await sess.delta([SetRequests(10_000, 1)])
                    # The session is still usable after the bad delta.
                    good = await sess.delta([AddClient(1, 2)])
                    assert good["ok"]
                    stats = await sess.close()
                return stats

        stats = asyncio.run(run())
        assert stats["errors"] == 1
        assert stats["applies"] == 1
        assert stats["deltas_applied"] == 1

    def test_infeasible_delta_is_not_kept(self):
        # Direct load 6 + 11 at node 0 exceeds W=10: the delta parses and
        # applies but its re-solve is infeasible.  The client gets an
        # error and the server must not keep the delta either.
        instance = BatchInstance(paper_tree(60, rng=3), 10, power_model=PM)
        truth = _ground_truth(instance, [[AddClient(0, 1)]])

        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                async with await ServeClient.connect(host, port) as client:
                    sess = await client.session(instance)
                    with pytest.raises(ServeError, match="exceeds"):
                        await sess.delta([AddClient(0, 11)])
                    good = await sess.delta([AddClient(0, 1)])
                    stats = await sess.close()
                return [sess.result["points"], good["result"]["points"]], stats

        seen, stats = asyncio.run(run())
        assert seen == truth
        assert stats["errors"] == 1
        assert stats["deltas_applied"] == 1


class TestDisconnectCleanup:
    def test_disconnect_mid_session_does_not_poison_the_pool(self):
        instance = _instance(6, n_nodes=25)

        async def run():
            async with BatchServer(max_delay=0.01) as server:
                host, port = await server.listen()
                # Connection 1 opens a session, then vanishes abruptly
                # without session.close.
                c1 = await ServeClient.connect(host, port)
                sess = await c1.session(instance)
                await sess.delta([AddClient(2, 1)])
                await c1.close()
                # The connection's finally-block reaps the orphan.
                for _ in range(100):
                    if len(server._sessions) == 0:
                        break
                    await asyncio.sleep(0.01)
                assert len(server._sessions) == 0

                # The pool still serves both solves and fresh sessions.
                c2 = await ServeClient.connect(host, port)
                try:
                    response = await c2.solve(instance, solver="power_frontier")
                    assert response["ok"]
                    sess2 = await c2.session(instance)
                    good = await sess2.delta([AddClient(2, 1)])
                    assert good["ok"]
                    await sess2.close()
                    perf = await c2.perf()
                finally:
                    await c2.close()
                return perf

        perf = asyncio.run(run())
        sessions = perf["sessions"]
        assert sessions["opened"] == 2
        assert sessions["closed"] == 2
        assert sessions["open"] == 0
        # The orphaned session's work still lands in the aggregate.
        assert sessions["closed_aggregate"]["applies"] == 2

    def test_server_stop_reaps_open_sessions(self):
        instance = _instance(7, n_nodes=20)

        async def run():
            server = await BatchServer(max_delay=0.01).start()
            host, port = await server.listen()
            client = await ServeClient.connect(host, port)
            sess = await client.session(instance)
            assert len(server._sessions) == 1
            await server.stop()
            await client.close()
            return server, sess.session_id

        server, _sid = asyncio.run(run())
        assert len(server._sessions) == 0
        assert server._sessions_closed == 1
