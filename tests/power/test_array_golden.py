"""Golden frontiers of the array Pareto kernel.

``data/array_frontier_golden.json`` pins, on instances shaped like the
benchmark's live sessions (500-node paper trees, modes 5/10) and its
frontier requests (200-node paper trees, modes 5/10/15), each with
``n/8`` pre-existing servers and under three price sets (the default,
``delete > 1`` so reused servers carry a negative price, ``create = 0``):

* the full ``(cost, power)`` frontier, floats as ``repr``;
* the witness placements of the cheapest, middle and lowest-power
  points (root mode included);
* the cold solve's :class:`~repro.perf.stats.ParetoDPStats`;
* for two instances, the frontier of a live session after each of ten
  recorded deltas.

Trees, pre-existing modes and deltas are stored in the file, so the
fixtures do not depend on the generators.  Every comparison is exact.
Regenerate (only for a change that is meant to move them) with::

    PYTHONPATH=src:. python tests/power/test_array_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.core.costs import ModalCostModel
from repro.dynamics import SessionState, delta_from_dict, delta_to_dict
from repro.dynamics.incremental import (
    AddClient,
    MigrateSubtree,
    RemoveClient,
    SetRequests,
    apply_deltas,
)
from repro.perf.stats import ParetoDPStats
from repro.power.dp_power_array import power_frontier_array
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting_modes
from repro.tree.model import Client, Tree

GOLDEN_PATH = Path(__file__).parent / "data" / "array_frontier_golden.json"

POWER = {
    2: PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0),
    3: PowerModel(ModeSet((5, 10, 15)), static_power=12.5, alpha=3.0),
}

#: name -> (create, delete, changed)
PRICES = {
    "default": (0.1, 0.01, 0.001),
    "dear-delete": (0.1, 1.5, 0.001),
    "free-create": (0.0, 0.01, 0.001),
}

#: (tree name, tree size, mode count, generator seed)
TREES = [
    ("session-a", 500, 2, 1000),
    ("session-b", 500, 2, 1001),
    ("frontier-a", 200, 3, 2000),
    ("frontier-b", 200, 3, 2001),
]

#: (tree name, price set) of the instances replayed as live sessions.
SESSIONS = [("session-a", "default"), ("frontier-b", "dear-delete")]
SESSION_DELTAS = 10


def _cost_model(n_modes: int, prices: str) -> ModalCostModel:
    create, delete, changed = PRICES[prices]
    return ModalCostModel.uniform(
        n_modes, create=create, delete=delete, changed=changed
    )


def _pairs(frontier) -> list[list[str]]:
    return [[repr(c), repr(p)] for c, p in frontier.pairs()]


def _witness(point, root: int) -> list[list[int]]:
    modes = point.placement()
    if point._root_mode is not None:
        modes[root] = point._root_mode
    return sorted([int(v), int(m)] for v, m in modes.items())


def _witnesses(frontier, root: int) -> dict[str, list[list[int]]]:
    pts = frontier.points
    return {
        "cheapest": _witness(pts[0], root),
        "middle": _witness(pts[len(pts) // 2], root),
        "lowest_power": _witness(pts[-1], root),
    }


def _tree_from(record: dict[str, Any]) -> tuple[Tree, dict[int, int]]:
    tree = Tree(record["parents"], [Client(v, r) for v, r in record["clients"]])
    return tree, {v: m for v, m in record["pre"]}


def _instance_record(tree: Tree, pre: dict[int, int], n_modes: int, prices: str):
    stats = ParetoDPStats()
    frontier = power_frontier_array(
        tree, POWER[n_modes], _cost_model(n_modes, prices), pre, stats=stats
    )
    return {
        "pairs": _pairs(frontier),
        "witnesses": _witnesses(frontier, tree.root),
        "stats": stats.as_dict(),
    }


def _session_record(
    tree: Tree, pre: dict[int, int], n_modes: int, prices: str, deltas
) -> list[dict[str, Any]]:
    state = SessionState(
        tree, POWER[n_modes], _cost_model(n_modes, prices), pre, kernel="array"
    )
    state.frontier()
    steps = []
    for raw in deltas:
        frontier = state.apply([delta_from_dict(raw)]).frontier
        steps.append(
            {
                "pairs": _pairs(frontier),
                "witnesses": _witnesses(frontier, state.tree.root),
            }
        )
    state.close()
    return steps


def _leading_run_leaves(tree: Tree) -> list[int]:
    """Childless children in the leading run of a node with 3+ of them."""
    out = []
    for v in range(tree.n_nodes):
        kids = tree.children(v)
        run = 0
        while run < len(kids) and not tree.children(kids[run]):
            run += 1
        if run >= 3:
            out.extend(kids[1 : run - 1])
    return out


def _draw_deltas(tree: Tree, rng: np.random.Generator) -> list[dict[str, Any]]:
    """Ten valid deltas, mostly on middle leaves of leading runs."""
    cap = 10
    out = []
    for k in range(SESSION_DELTAS):
        loads = tree.client_loads
        if k % 5 == 4:
            while True:
                v = int(rng.integers(tree.n_nodes))
                q = int(rng.integers(tree.n_nodes))
                parent = tree.parent(v)
                if parent is not None and q != parent and not tree.is_ancestor(v, q):
                    break
            delta: Any = MigrateSubtree(v, q)
        else:
            leaves = _leading_run_leaves(tree)
            leaf = leaves[int(rng.integers(len(leaves)))]
            at = [i for i, c in enumerate(tree.clients) if c.node == leaf]
            room = cap - int(loads[leaf])
            if at and k % 3 == 0:
                delta = RemoveClient(at[0])
            elif at and k % 3 == 1:
                i = at[-1]
                delta = SetRequests(
                    i, 1 + int(rng.integers(min(6, room + tree.clients[i].requests)))
                )
            elif room > 0:
                delta = AddClient(leaf, 1 + int(rng.integers(min(6, room))))
            else:
                delta = RemoveClient(at[0])
        tree, _ = apply_deltas(tree, [delta])
        out.append(delta_to_dict(delta))
    return out


def build_golden() -> dict[str, Any]:
    """Compute every fixture with the current kernel (the ``--write`` path)."""
    trees: dict[str, Any] = {}
    for name, n, n_modes, seed in TREES:
        rng = np.random.default_rng(seed)
        tree = paper_tree(n, rng=rng)
        pre = random_preexisting_modes(tree, n // 8, n_modes, rng=rng)
        trees[name] = {
            "n_modes": n_modes,
            "parents": list(tree.parents),
            "clients": [[c.node, c.requests] for c in tree.clients],
            "pre": sorted([v, m] for v, m in pre.items()),
        }
    instances = {}
    for name, record in trees.items():
        tree, pre = _tree_from(record)
        for prices in PRICES:
            instances[f"{name}/{prices}"] = _instance_record(
                tree, pre, record["n_modes"], prices
            )
    sessions = {}
    for k, (name, prices) in enumerate(SESSIONS):
        record = trees[name]
        tree, pre = _tree_from(record)
        deltas = _draw_deltas(tree, np.random.default_rng(3000 + k))
        sessions[f"{name}/{prices}"] = {
            "deltas": deltas,
            "steps": _session_record(
                tree, pre, record["n_modes"], prices, deltas
            ),
        }
    return {"trees": trees, "instances": instances, "sessions": sessions}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def _golden() -> dict[str, Any]:
    if GOLDEN is None:
        pytest.fail(f"missing fixture file {GOLDEN_PATH.name}")
    return GOLDEN


@pytest.mark.parametrize(
    "key", [f"{name}/{prices}" for name, _, _, _ in TREES for prices in PRICES]
)
def test_cold_frontier_matches_golden(key):
    golden = _golden()
    name, prices = key.split("/")
    record = golden["trees"][name]
    tree, pre = _tree_from(record)
    got = _instance_record(tree, pre, record["n_modes"], prices)
    want = golden["instances"][key]
    assert got["pairs"] == want["pairs"]
    assert got["witnesses"] == want["witnesses"]
    assert got["stats"] == want["stats"]


@pytest.mark.parametrize("key", [f"{name}/{prices}" for name, prices in SESSIONS])
def test_session_frontiers_match_golden(key):
    golden = _golden()
    name, prices = key.split("/")
    record = golden["trees"][name]
    tree, pre = _tree_from(record)
    session = golden["sessions"][key]
    steps = _session_record(
        tree, pre, record["n_modes"], prices, session["deltas"]
    )
    assert len(steps) == len(session["steps"]) == SESSION_DELTAS
    for k, (got, want) in enumerate(zip(steps, session["steps"], strict=True)):
        assert got["pairs"] == want["pairs"], f"delta {k}"
        assert got["witnesses"] == want["witnesses"], f"delta {k}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_golden(), separators=(",", ":"), sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")
