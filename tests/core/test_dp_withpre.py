"""Tests for :mod:`repro.core.dp_withpre` (Theorem 1's algorithm)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import UniformCostModel
from repro.core.dp_nopre import dp_nopre_placement
from repro.core.dp_withpre import replica_update
from repro.core.exhaustive import exhaustive_min_cost
from repro.core.solution import evaluate_placement, verify_placement
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.tree.generators import (
    caterpillar_tree,
    paper_tree,
    path_tree,
    random_preexisting,
    random_recursive_tree,
    star_tree,
)
from repro.tree.model import Client, Tree

from tests.conftest import trees_with_preexisting

MINCOUNT = UniformCostModel(1e-4, 1e-5)  # server count strictly dominant

#: ``(seed, n, children, E, W, create, delete) -> cost`` computed with the
#: 1.7.0 kernel (one argmin-recording merge per child, scalar root scan).
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "dp_withpre_golden.json").read_text()
)


class TestBasics:
    def test_no_clients_deletes_everything(self):
        t = Tree([None, 0, 0])
        res = replica_update(t, 10, preexisting=[1, 2])
        assert res.replicas == frozenset()
        assert res.deleted == {1, 2}
        assert res.cost == pytest.approx(2 * 0.01)

    def test_reuses_preexisting_root(self, chain_tree):
        res = replica_update(chain_tree, 10, preexisting=[0])
        assert res.replicas == {0}
        assert res.n_reused == 1
        assert res.cost == pytest.approx(1.0)

    def test_prefers_reuse_over_equivalent_new(self):
        # Total 12 > W=11 forces two servers: root plus either child.  The
        # pre-existing child (2) must win the tie on cost.
        t = Tree([None, 0, 0], [Client(1, 5), Client(2, 5), Client(0, 2)])
        res = replica_update(
            t, 11, preexisting=[2], cost_model=UniformCostModel(0.1, 0.01)
        )
        assert res.replicas == {0, 2}
        assert res.n_reused == 1
        assert res.cost == pytest.approx(2 + 0.1)

    def test_extra_payload(self, chain_tree):
        res = replica_update(chain_tree, 10, preexisting=[0])
        choice = res.extra["root_choice"]
        assert choice.root_replica in (True, False)

    def test_cost_matches_cost_model(self, rng):
        tree = paper_tree(40, rng=rng)
        pre = random_preexisting(tree, 10, rng=rng)
        cm = UniformCostModel(0.3, 0.07)
        res = replica_update(tree, 10, pre, cm)
        assert res.cost == pytest.approx(
            cm.total(res.n_replicas, res.n_reused, len(pre))
        )

    def test_validity_at_paper_scale(self, rng):
        tree = paper_tree(100, rng=rng)
        pre = random_preexisting(tree, 50, rng=rng)
        res = replica_update(tree, 10, pre, MINCOUNT)
        assert evaluate_placement(tree, res.replicas, 10).ok


class TestFigure1TradeOff:
    """The paper's §3.1 running example, both branches."""

    def _tree(self, root_requests: int) -> Tree:
        return Tree(
            [None, 0, 1, 1],
            [Client(0, root_requests), Client(2, 4), Client(3, 7)],
        )

    def test_two_root_requests_keep_b(self):
        res = replica_update(
            self._tree(2), 10, preexisting=[2], cost_model=UniformCostModel(0.1, 0.01)
        )
        assert res.replicas == {0, 2}  # keep B, root serves 7+2
        assert res.n_reused == 1

    def test_four_root_requests_drop_b(self):
        res = replica_update(
            self._tree(4), 10, preexisting=[2], cost_model=UniformCostModel(0.1, 0.01)
        )
        assert res.replicas == {0, 3}  # new server on C, delete B
        assert res.n_reused == 0


class TestIdleServerCorner:
    def test_expensive_deletion_keeps_idle_root(self):
        # delete > 1: keeping the pre-existing root as an idle server beats
        # paying the deletion charge (module docstring's exactness note).
        t = Tree([None, 0], [Client(1, 4)])
        cm = UniformCostModel(create=0.0, delete=5.0)
        res = replica_update(t, 10, preexisting=[0, 1], cost_model=cm)
        assert res.replicas == {0, 1}
        assert res.cost == pytest.approx(2.0)

    def test_cheap_deletion_uses_single_server(self):
        # {0} and {1} tie at cost 1.01; either way one reused server wins
        # over keeping both (cost 2.0).
        t = Tree([None, 0], [Client(1, 4)])
        cm = UniformCostModel(create=0.0, delete=0.01)
        res = replica_update(t, 10, preexisting=[0, 1], cost_model=cm)
        assert res.n_replicas == 1
        assert res.n_reused == 1
        assert res.cost == pytest.approx(1.01)


class TestErrors:
    def test_infeasible(self):
        t = Tree([None, 0], [Client(1, 11)])
        with pytest.raises(InfeasibleError):
            replica_update(t, 10)

    def test_bad_capacity(self, chain_tree):
        with pytest.raises(ConfigurationError):
            replica_update(chain_tree, 0)

    def test_bad_preexisting(self, chain_tree):
        with pytest.raises(ConfigurationError):
            replica_update(chain_tree, 10, preexisting=[99])


class TestOptimalityAgainstOracle:
    @settings(max_examples=70, deadline=None)
    @given(trees_with_preexisting(max_nodes=9, max_requests=6))
    def test_min_cost_matches_exhaustive(self, tree_pre):
        tree, pre = tree_pre
        cm = UniformCostModel(0.1, 0.01)
        try:
            expected = exhaustive_min_cost(tree, 8, pre, cm)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                replica_update(tree, 8, pre, cm)
            return
        got = replica_update(tree, 8, pre, cm)
        assert got.cost == pytest.approx(expected.cost)
        assert evaluate_placement(tree, got.replicas, 8).ok

    @settings(max_examples=40, deadline=None)
    @given(
        trees_with_preexisting(max_nodes=9, max_requests=6),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
    )
    def test_min_cost_matches_exhaustive_arbitrary_prices(
        self, tree_pre, create, delete
    ):
        tree, pre = tree_pre
        cm = UniformCostModel(create, delete)
        try:
            expected = exhaustive_min_cost(tree, 8, pre, cm)
        except InfeasibleError:
            return
        got = replica_update(tree, 8, pre, cm)
        assert got.cost == pytest.approx(expected.cost)


class TestGoldenCosts:
    """The oracle rung between exhaustive search and served responses."""

    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[f"n{c['n']}-seed{c['seed']}" for c in GOLDEN]
    )
    def test_cost_bit_identical(self, case):
        tree = paper_tree(
            case["n"], children_range=tuple(case["children"]), rng=case["seed"]
        )
        pre = random_preexisting(tree, case["E"], rng=case["seed"] + 1)
        model = UniformCostModel(case["create"], case["delete"])
        assert replica_update(tree, case["W"], pre, model).cost == case["cost"]


@st.composite
def many_leaf_trees(draw):
    """Up to three hubs, each under an earlier one, fanning out to childless
    nodes.  Loads come from a small alphabet with zeros, so tied and
    zero-load leaves are common; ``E`` is empty, every leaf, every node or
    random."""
    n_hubs = draw(st.integers(1, 3))
    parents: list[int | None] = [None]
    parents += [draw(st.integers(0, h - 1)) for h in range(1, n_hubs)]
    parents += draw(
        st.lists(st.integers(0, n_hubs - 1), min_size=1, max_size=10 - n_hubs)
    )
    loads = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 3, 3, 5]),
            min_size=len(parents),
            max_size=len(parents),
        )
    )
    tree = Tree(parents, [Client(v, r) for v, r in enumerate(loads) if r])
    nodes = list(range(tree.n_nodes))
    leaves = frozenset(v for v in nodes if not tree.children(v))
    pre = draw(
        st.one_of(
            st.just(frozenset()),
            st.just(leaves),
            st.just(frozenset(nodes)),
            st.frozensets(st.sampled_from(nodes)),
        )
    )
    return tree, pre


NOPRE_TREES = {
    "fat": lambda: paper_tree(300, rng=1),
    "high": lambda: paper_tree(300, children_range=(2, 4), rng=2),
    "recursive": lambda: random_recursive_tree(250, client_prob=0.6, rng=3),
    "caterpillar": lambda: caterpillar_tree(75, 3, client_prob=0.7, rng=4),
    "path": lambda: path_tree(300, client_prob=0.5, rng=5),
    "star": lambda: star_tree(299, client_prob=0.8, rng=6),
}


class TestStress:
    @settings(max_examples=60, deadline=None)
    @given(
        many_leaf_trees(),
        st.sampled_from([(0.1, 0.01), (1e-4, 1e-5), (0.5, 1.5), (0.0, 5.0)]),
    )
    def test_many_leaves_match_exhaustive(self, tree_pre, prices):
        tree, pre = tree_pre
        model = UniformCostModel(*prices)
        got = replica_update(tree, 8, pre, model)
        expected = exhaustive_min_cost(tree, 8, pre, model)
        assert got.cost == pytest.approx(expected.cost)
        assert model.of_placement(got.replicas, pre) == pytest.approx(got.cost)

    @pytest.mark.parametrize("shape", sorted(NOPRE_TREES))
    def test_empty_preexisting_matches_nopre(self, shape):
        tree = NOPRE_TREES[shape]()
        model = UniformCostModel(0.1, 0.01)
        expected = model.total(dp_nopre_placement(tree, 10).n_replicas, 0, 0)
        assert replica_update(tree, 10, (), model).cost == expected

    def test_star_wider_than_int16(self):
        # 33,000 leaves under one node: more than an int16 index can count.
        tree = star_tree(33_000, client_prob=1.0, rng=7)
        res = replica_update(tree, 10, frozenset(range(1, 6)), MINCOUNT)
        verify_placement(tree, res.replicas, 10)
        # Closed form: host the k heaviest leaves, the root serves the rest.
        leaves = np.sort(tree.client_loads[1:])[::-1]
        rest = tree.total_requests - np.concatenate(([0], np.cumsum(leaves)))
        servers = np.arange(rest.size) + (rest > 0)
        assert res.n_replicas == servers[rest <= 10].min()


class _Opaque:
    """Equation-2 prices behind a plain ``CostLike``, which the kernel
    prices cell by cell: the reference for the vectorised root pricing."""

    def __init__(self, model: UniformCostModel) -> None:
        self.model = model

    def total(self, n_servers: int, n_reused: int, n_preexisting: int) -> float:
        return self.model.total(n_servers, n_reused, n_preexisting)


class TestRootPricing:
    @pytest.mark.parametrize("seed", range(8))
    def test_vectorised_matches_cell_by_cell(self, seed):
        rng = np.random.default_rng(seed)
        tree = paper_tree(60, children_range=((6, 9), (2, 4))[seed % 2], rng=rng)
        pre = random_preexisting(tree, 15, rng=rng)
        if seed % 4 >= 2:
            pre |= {tree.root}  # prices the idle reused root too
        prices = [(0.1, 0.01), (0.0, 5.0), (0.3, 1.5), (2.0, 0.5)][seed % 4]
        model = UniformCostModel(*prices)
        fast = replica_update(tree, 10, pre, model)
        slow = replica_update(tree, 10, pre, _Opaque(model))
        assert fast.cost == slow.cost
        assert fast.extra["root_choice"] == slow.extra["root_choice"]
        assert fast.replicas == slow.replicas
