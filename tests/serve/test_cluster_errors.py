"""Error parity between a cluster router and a single server.

A malformed solve request must get the same ``error``, ``code`` and
``id`` from an in-process :class:`~repro.serve.ClusterRouter` as from a
lone :class:`~repro.serve.BatchServer`: a client cannot tell from an
error whether a router stood in front of the worker that rejected it.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.batch import BatchInstance
from repro.batch.instance import instance_to_dict
from repro.serve import BatchServer, ClusterRouter, InProcessSpawner, WorkerConfig
from repro.tree.generators import paper_tree


def _instance_dict() -> dict:
    rng = np.random.default_rng(3)
    tree = paper_tree(10, rng=rng)
    return instance_to_dict(BatchInstance(tree, 10, frozenset({0})))


def _with_tree(**fields) -> dict:
    raw = _instance_dict()
    raw["tree"] = dict(raw["tree"], **fields)
    return raw


def _malformed() -> dict[str, dict]:
    n = len(_instance_dict()["tree"]["parents"])
    return {
        "no-instance": {"op": "solve", "solver": "dp"},
        "unknown-solver": {"solver": "no_such_solver", "instance": _instance_dict()},
        "frontier-without-power": {
            "solver": "power_frontier",
            "instance": _instance_dict(),
        },
        "non-integer-priority": {
            "solver": "dp",
            "priority": "high",
            "instance": _instance_dict(),
        },
        "client-out-of-range": {
            "solver": "dp",
            "instance": _with_tree(clients=[[99, 3]]),
        },
        "huge-parent": {
            "solver": "dp",
            "instance": _with_tree(parents=[None, 1_000_000_000_000]),
        },
        "preexisting-out-of-range": {
            "solver": "dp",
            "instance": dict(_instance_dict(), preexisting=[n + 5]),
        },
    }


def _answers(messages: dict[str, dict]) -> tuple[dict, dict]:
    async def run():
        async with BatchServer(max_delay=0.001) as server:
            single = {
                name: await server.dispatch(dict(msg, id=i))
                for i, (name, msg) in enumerate(sorted(messages.items()))
            }
        router = ClusterRouter(InProcessSpawner(), 3, WorkerConfig(max_delay=0.001))
        async with router:
            routed = {
                name: await router.dispatch(dict(msg, id=i))
                for i, (name, msg) in enumerate(sorted(messages.items()))
            }
        return single, routed

    return asyncio.run(run())


@pytest.fixture(scope="module")
def answers() -> tuple[dict, dict]:
    return _answers(_malformed())


@pytest.mark.parametrize("case", sorted(_malformed()))
def test_router_error_matches_single_server(answers, case):
    single, routed = answers
    assert single[case]["ok"] is False
    fields = ("error", "code", "id")
    assert {f: routed[case].get(f) for f in fields} == {
        f: single[case].get(f) for f in fields
    }
