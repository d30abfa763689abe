"""Properties of the cluster routing key.

The router places a solve request by
:func:`repro.batch.canonical.routing_key` (through
:meth:`ClusterRouter._solve_digest`) instead of the policy's canonical
digest.  Partitioned digest ownership holds only if equal digests give
equal keys; these tests pin that contract, the key's relabelling
invariance, what each policy's key ignores, and the ring balance the key
gives distinct instances.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchInstance, get_policy, random_batch
from repro.batch.canonical import relabel_tree, routing_key
from repro.batch.instance import instance_to_dict
from repro.core.costs import UniformCostModel
from repro.power.modes import ModeSet, PowerModel
from repro.serve import ClusterRouter, InProcessSpawner
from repro.serve.cluster import _UNROUTABLE

from tests.conftest import small_trees

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
KEYED_SOLVERS = ("dp", "greedy", "dp_nopre", "min_power", "power_frontier")


@pytest.fixture(scope="module")
def router() -> ClusterRouter:
    return ClusterRouter(InProcessSpawner(), 3)


def _key(router: ClusterRouter, solver: str, instance: BatchInstance) -> str:
    return router._solve_digest(
        {"op": "solve", "solver": solver, "instance": instance_to_dict(instance)}
    )


@st.composite
def _instances(draw):
    """A power-capable instance, with or without explicit old modes,
    and a random relabelling of it."""
    tree = draw(small_trees(max_nodes=12))
    pre = draw(st.frozensets(st.integers(0, tree.n_nodes - 1)))
    modes = {v: draw(st.integers(0, 1)) for v in sorted(pre)}
    perm = draw(st.permutations(range(tree.n_nodes)))
    tree2, modes2 = relabel_tree(tree, perm, modes)
    if draw(st.booleans()):
        return (
            BatchInstance(tree, 10, power_model=PM, preexisting_modes=modes),
            BatchInstance(tree2, 10, power_model=PM, preexisting_modes=modes2),
        )
    return (
        BatchInstance(tree, 10, pre, power_model=PM),
        BatchInstance(tree2, 10, frozenset(modes2), power_model=PM),
    )


class TestInvariance:
    @pytest.mark.parametrize("solver", KEYED_SOLVERS)
    @settings(max_examples=40, deadline=None)
    @given(pair=_instances())
    def test_key_invariant_under_relabelling(self, router, solver, pair):
        original, relabelled = pair
        key = _key(router, solver, original)
        assert key != _UNROUTABLE
        assert _key(router, solver, relabelled) == key

    def test_equal_digests_give_equal_keys(self, router):
        """Over a mixed batch with relabelled duplicates, every set of
        requests sharing a policy digest shares one routing key."""
        batch = random_batch(
            60,
            duplicate_rate=0.5,
            n_nodes=20,
            n_preexisting=4,
            power_model=PM,
            rng=np.random.default_rng(17),
        )
        for solver in KEYED_SOLVERS:
            policy = get_policy(solver)
            keys: dict[str, set[str]] = defaultdict(set)
            for instance in batch:
                keys[policy.instance_key(instance)[1]].add(
                    _key(router, solver, instance)
                )
            assert len(keys) < len(batch)  # the batch has duplicates
            assert all(len(group) == 1 for group in keys.values())

    def test_frontier_policies_share_keys(self, router):
        """``min_power`` and ``power_frontier`` share a digest name, hence
        cache records and owners."""
        instance = random_batch(1, n_nodes=20, power_model=PM, rng=3)[0]
        assert _key(router, "min_power", instance) == _key(
            router, "power_frontier", instance
        )

    def test_pre_modes_matter_only_to_power_policies(self, router):
        (instance,) = random_batch(1, n_nodes=20, power_model=PM, rng=5)
        modes = {v: 1 for v in instance.preexisting}
        moded = BatchInstance(
            instance.tree, 10, power_model=PM, preexisting_modes=modes
        )
        assert _key(router, "dp", moded) == _key(router, "dp", instance)
        assert _key(router, "power_frontier", moded) != _key(
            router, "power_frontier", instance
        )


class TestIgnoredFields:
    @pytest.mark.parametrize("solver", ("greedy", "dp_nopre"))
    def test_greedy_keys_ignore_pre_set_and_costs(self, router, solver):
        """The digest of these policies ignores the pre-existing set and
        the cost model, and so does the key."""
        (base,) = random_batch(1, n_nodes=25, n_preexisting=5, rng=11)
        other = BatchInstance(
            base.tree,
            base.capacity,
            frozenset(range(3)),
            UniformCostModel(0.5, 0.2),
        )
        policy = get_policy(solver)
        assert policy.instance_key(other)[1] == policy.instance_key(base)[1]
        assert _key(router, solver, other) == _key(router, solver, base)
        assert _key(router, "dp", other) != _key(router, "dp", base)


class TestBalanceAndFallback:
    def test_distinct_instances_spread_over_the_ring(self, router):
        batch = random_batch(300, n_nodes=20, rng=np.random.default_rng(23))
        keys = [_key(router, "dp", instance) for instance in batch]
        assert len(set(keys)) == len(batch)
        shares = Counter(router._ring.owners(key, 1)[0] for key in keys)
        assert set(shares) == set(router.worker_names)
        for count in shares.values():
            assert 0.2 * len(batch) <= count <= 0.5 * len(batch)

    @pytest.mark.parametrize(
        "message",
        [
            {"solver": "dp"},
            {"solver": "no_such_solver", "instance": {}},
            {"solver": ["dp"], "instance": {}},
            {"solver": "dp", "instance": {"tree": {"parents": [None, 10**12]}}},
            {
                "solver": "dp",
                "instance": {
                    "tree": {"parents": [None, 1e12], "clients": []},
                },
            },
            {
                "solver": "dp",
                "instance": {"tree": {"parents": [None, 0], "clients": [[9, 1]]}},
            },
            {
                "solver": "dp",
                "instance": {
                    "tree": {"parents": [None, 0], "clients": []},
                    "preexisting": [-1],
                },
            },
            {
                "solver": "power_frontier",
                "instance": {
                    "tree": {"parents": [None, 0], "clients": []},
                    "preexisting_modes": [[7, 0]],
                },
            },
            {
                "solver": "dp",
                "instance": {"tree": {"parents": [None, "x"], "clients": []}},
            },
            {
                "solver": "dp",
                "instance": {"tree": {"parents": [None, 0], "clients": [[1, 1e300]]}},
            },
            # Ids equal to the node count: the exact edges of the range
            # checks.
            {
                "solver": "dp",
                "instance": {"tree": {"parents": [None, 2], "clients": []}},
            },
            {
                "solver": "dp",
                "instance": {"tree": {"parents": [None, 0], "clients": [[2, 1]]}},
            },
            {
                "solver": "dp",
                "instance": {
                    "tree": {"parents": [None, 0], "clients": []},
                    "preexisting": [2],
                },
            },
        ],
    )
    def test_unkeyable_requests_take_the_fallback_key(self, router, message):
        assert router._solve_digest(message) == _UNROUTABLE

    @pytest.mark.parametrize(
        "tree, pre",
        [
            ({"parents": [None, 2], "clients": []}, []),
            ({"parents": [None, 0], "clients": [[2, 1]]}, []),
            ({"parents": [None, 0], "clients": []}, [2]),
        ],
    )
    def test_ids_equal_to_the_node_count_are_out_of_range(self, tree, pre):
        """The range checks reject an id equal to ``n`` themselves; no
        array sized by the ids gets to fail on it first."""
        raw = {"tree": tree, "preexisting": pre}
        with pytest.raises(ValueError, match="out of range"):
            routing_key(raw, "dp", preexisting=True)

    def test_values_are_coerced_like_the_parser(self):
        """``int()`` coercion: a float- or string-typed id keys like the
        integer the worker's parser reads."""
        ints = {"tree": {"parents": [None, 0, 0], "clients": [[1, 2]]}}
        mixed = {"tree": {"parents": [None, 0.0, "0"], "clients": [["1", 2.0]]}}
        assert routing_key(mixed, "dp") == routing_key(ints, "dp")
