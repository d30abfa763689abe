"""Golden digests of the canonicaliser.

Digests are cache keys and routing identities, yet the schema-drift lint
fingerprints only the ``_DIGEST_SCHEMA`` value, not the code behind it:
a change to :func:`~repro.batch.canonical.canonicalize` or
:func:`~repro.batch.canonical.instance_digest` that moves a digest
without a schema bump would otherwise go unnoticed.

``data/canonical_golden.json`` pins, for about forty seeded instances
(perfbench-shaped MinCost trees at n = 100/200/400 with ``n/8``
pre-existing servers, power trees with old modes, relabelled copies,
stars, caterpillars, a balanced tree full of isomorphic siblings, a
depth-1000 path, one-node trees, and nodes whose client multisets are
equal or prefixes of each other):

* the ``dp`` and ``power_frontier`` policy digests;
* a SHA-256 of ``to_canonical`` with the instance's pre-existing map and
  of ``to_canonical`` for the bare tree (the node numbering that fan-out
  witnesses are mapped back through).

Trees and pre-existing maps are stored in the file, so the fixtures do
not depend on the generators.  Regenerate (only for a change that is
meant to move them, together with a ``_DIGEST_SCHEMA`` bump) with::

    PYTHONPATH=src:. python tests/batch/test_canonical_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.batch.canonical import _DIGEST_SCHEMA, canonicalize, relabel_tree
from repro.batch.instance import BatchInstance
from repro.batch.registry import get_policy
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import (
    balanced_tree,
    caterpillar_tree,
    paper_tree,
    path_tree,
    random_preexisting,
    random_preexisting_modes,
    random_recursive_tree,
    star_tree,
)
from repro.tree.model import Client, Tree

GOLDEN_PATH = Path(__file__).parent / "data" / "canonical_golden.json"

CAPACITY = 10
POWER = PowerModel(ModeSet((5, 10, 15)), static_power=12.5, alpha=3.0)


def _sha(values: tuple[int, ...]) -> str:
    return hashlib.sha256(json.dumps(list(values)).encode()).hexdigest()


def _record(
    tree: Tree,
    pre: frozenset[int] | None = None,
    pre_modes: dict[int, int] | None = None,
) -> dict[str, Any]:
    """The stored form of one instance: tree and pre-existing map only."""
    record: dict[str, Any] = {
        "parents": list(tree.parents),
        "clients": [[c.node, c.requests] for c in tree.clients],
    }
    if pre_modes is not None:
        record["pre_modes"] = sorted([v, m] for v, m in pre_modes.items())
    else:
        record["pre"] = sorted(pre or ())
    return record


def _instance(record: dict[str, Any]) -> BatchInstance:
    tree = Tree(record["parents"], [Client(v, r) for v, r in record["clients"]])
    if "pre_modes" in record:
        modes = tuple((v, m) for v, m in record["pre_modes"])
        return BatchInstance(
            tree, CAPACITY, power_model=POWER, preexisting_modes=modes
        )
    return BatchInstance(
        tree, CAPACITY, frozenset(record["pre"]), power_model=POWER
    )


def _digests(record: dict[str, Any]) -> dict[str, str]:
    instance = _instance(record)
    return {
        "dp": get_policy("dp").instance_key(instance)[1],
        "power_frontier": get_policy("power_frontier").instance_key(instance)[1],
        "to_canonical": _sha(
            canonicalize(instance.tree, instance.pre_modes()).to_canonical
        ),
        "to_canonical_bare": _sha(canonicalize(instance.tree).to_canonical),
    }


def _multi_client_tree(n: int, rng: np.random.Generator) -> Tree:
    """Random recursive tree whose nodes carry 0-3 clients of 1-3 requests,
    so equal and prefix-related request multisets are common."""
    parents = list(random_recursive_tree(n, rng=rng).parents)
    clients = [
        Client(v, int(rng.integers(1, 4)))
        for v in range(n)
        for _ in range(int(rng.integers(0, 4)))
    ]
    return Tree(parents, clients)


def _prefix_tree() -> Tree:
    """Siblings whose client multisets are equal, permuted or prefixes of
    one another, each over an identical leaf, plus leaf-only twins."""
    multisets = [(1, 2), (2, 1), (1, 2, 3), (1, 2), (1,), (2,), (1, 3), (), (3, 2, 1)]
    parents: list[int | None] = [None]
    clients: list[Client] = [Client(0, 2), Client(0, 2)]
    for reqs in multisets:
        v = len(parents)
        parents.append(0)
        clients += [Client(v, r) for r in reqs]
        leaf = len(parents)
        parents.append(v)
        clients.append(Client(leaf, 1))
    for reqs in multisets:
        v = len(parents)
        parents.append(0)
        clients += [Client(v, r) for r in reqs]
    return Tree(parents, clients)


def build_instances() -> dict[str, dict[str, Any]]:
    """Every stored instance, drawn from fixed seeds (the ``--write`` path)."""
    out: dict[str, dict[str, Any]] = {}
    perfbench_seeds = ((100, (1, 2, 3, 4)), (200, (5, 6, 7, 8)), (400, (9, 10, 11, 12, 13)))
    for n, seeds in perfbench_seeds:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            tree = paper_tree(n, rng=rng)
            out[f"mincost-n{n}-s{seed}"] = _record(
                tree, random_preexisting(tree, n // 8, rng=rng)
            )
    for n, n_modes, seed in (
        (50, 2, 20), (100, 3, 21), (200, 2, 22), (200, 3, 23), (400, 2, 24)
    ):
        rng = np.random.default_rng(seed)
        tree = paper_tree(n, rng=rng)
        pre = random_preexisting_modes(tree, n // 8, n_modes, rng=rng)
        out[f"power-n{n}-m{n_modes}-s{seed}"] = _record(tree, pre_modes=pre)
    for seed in (30, 31):
        rng = np.random.default_rng(seed)
        tree = paper_tree(120, children_range=(2, 4), rng=rng)
        out[f"high-n120-s{seed}"] = _record(
            tree, pre_modes=random_preexisting_modes(tree, 15, 3, rng=rng)
        )
    # Relabelled copies: same digests as their sources, other numbering.
    for name, seed in (("mincost-n100-s1", 40), ("power-n100-m3-s21", 41)):
        src = _instance(out[name])
        perm = np.random.default_rng(seed).permutation(src.tree.n_nodes).tolist()
        tree, pre = relabel_tree(src.tree, perm, src.pre_modes())
        out[f"{name}-relabelled"] = (
            _record(tree, pre_modes=pre)
            if "pre_modes" in out[name]
            else _record(tree, frozenset(pre))
        )
    for leaves, prob, seed in ((12, 0.0, 50), (12, 1.0, 51), (40, 0.6, 52)):
        tree = star_tree(leaves, client_prob=prob, request_range=(1, 3), rng=seed)
        out[f"star-{leaves}-p{prob}"] = _record(
            tree, random_preexisting(tree, 3, rng=seed)
        )
    for spine, legs, seed in ((10, 1, 60), (15, 3, 61), (30, 2, 62)):
        tree = caterpillar_tree(spine, legs, client_prob=0.5, rng=seed)
        out[f"caterpillar-{spine}x{legs}"] = _record(
            tree, pre_modes=random_preexisting_modes(tree, 4, 3, rng=seed)
        )
    tree = balanced_tree(3, 4, client_prob=0.3, request_range=(1, 2), rng=63)
    out["balanced-3x4"] = _record(tree, random_preexisting(tree, 10, rng=63))
    path = Tree(
        [None] + list(range(999)), [Client(999, 3), Client(500, 2), Client(333, 5)]
    )
    out["path-1000"] = _record(path, frozenset({0, 500, 999}))
    out["path-200-random"] = _record(
        path_tree(200, client_prob=0.5, rng=70), frozenset({10, 20, 199})
    )
    out["one-node"] = _record(Tree([None]))
    out["one-node-client"] = _record(Tree([None], [Client(0, 4)]), frozenset({0}))
    out["one-node-multi"] = _record(
        Tree([None], [Client(0, 3), Client(0, 1), Client(0, 3)]), pre_modes={0: 2}
    )
    out["prefix-multisets"] = _record(_prefix_tree(), frozenset({3, 7}))
    out["prefix-multisets-modes"] = _record(
        _prefix_tree(), pre_modes={1: 0, 3: 0, 7: 1, 19: 2}
    )
    for n, seed in ((30, 80), (60, 81), (150, 82), (300, 83)):
        rng = np.random.default_rng(seed)
        tree = _multi_client_tree(n, rng)
        out[f"multi-client-n{n}"] = _record(
            tree, pre_modes=random_preexisting_modes(tree, n // 6, 3, rng=rng)
        )
    return out


def build_golden() -> dict[str, Any]:
    instances = build_instances()
    for record in instances.values():
        record["expected"] = _digests(record)
    return {"schema": _DIGEST_SCHEMA, "instances": instances}


GOLDEN: dict[str, Any] | None = (
    json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None
)


def _golden() -> dict[str, Any]:
    if GOLDEN is None:
        pytest.fail(f"missing fixture file {GOLDEN_PATH.name}")
    return GOLDEN


def test_golden_covers_the_current_schema():
    assert _golden()["schema"] == _DIGEST_SCHEMA == 2


@pytest.mark.parametrize(
    "name", sorted(GOLDEN["instances"]) if GOLDEN is not None else ["missing"]
)
def test_digests_match_golden(name):
    record = _golden()["instances"][name]
    assert _digests(record) == record["expected"]


def test_relabelled_copies_share_their_sources_digests():
    instances = _golden()["instances"]
    for name in ("mincost-n100-s1", "power-n100-m3-s21"):
        want = instances[name]["expected"]
        got = instances[f"{name}-relabelled"]["expected"]
        assert got["dp"] == want["dp"]
        assert got["power_frontier"] == want["power_frontier"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_canonical_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_golden(), separators=(",", ":"), sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
