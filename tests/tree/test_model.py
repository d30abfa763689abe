"""Tests for :mod:`repro.tree.model`."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TreeStructureError, WorkloadError
from repro.tree.model import Client, Tree

from tests.conftest import small_trees


class TestClient:
    def test_requires_positive_requests(self):
        with pytest.raises(WorkloadError):
            Client(0, 0)
        with pytest.raises(WorkloadError):
            Client(0, -3)

    def test_with_requests_returns_new_client(self):
        c = Client(2, 5)
        d = c.with_requests(7)
        assert (c.node, c.requests) == (2, 5)
        assert (d.node, d.requests) == (2, 7)

    def test_is_hashable_value_object(self):
        assert Client(1, 2) == Client(1, 2)
        assert len({Client(1, 2), Client(1, 2), Client(1, 3)}) == 2


class TestConstruction:
    def test_single_node(self):
        t = Tree([None])
        assert t.n_nodes == 1
        assert t.root == 0
        assert t.children(0) == ()
        assert t.total_requests == 0

    def test_root_can_be_any_index(self):
        t = Tree([2, 2, None])
        assert t.root == 2
        assert set(t.children(2)) == {0, 1}

    def test_accepts_mapping_parents(self):
        t = Tree({0: None, 1: 0, 2: 0})
        assert t.parent(1) == 0 and t.parent(2) == 0

    def test_mapping_with_gap_rejected(self):
        with pytest.raises(TreeStructureError, match="contiguous"):
            Tree({0: None, 2: 0})

    def test_empty_rejected(self):
        with pytest.raises(TreeStructureError):
            Tree([])

    def test_two_roots_rejected(self):
        with pytest.raises(TreeStructureError, match="exactly one root"):
            Tree([None, None])

    def test_no_root_rejected(self):
        with pytest.raises(TreeStructureError):
            Tree([1, 0])

    def test_self_parent_rejected(self):
        with pytest.raises(TreeStructureError, match="own parent"):
            Tree([None, 1])

    def test_cycle_rejected(self):
        # 1 <-> 2 cycle unreachable from root 0.
        with pytest.raises(TreeStructureError, match="cycle|disconnected"):
            Tree([None, 2, 1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TreeStructureError, match="out-of-range"):
            Tree([None, 7])
        with pytest.raises(TreeStructureError, match="out-of-range"):
            Tree([None, 2])

    def test_client_on_unknown_node_rejected(self):
        with pytest.raises(WorkloadError, match="unknown internal node"):
            Tree([None], [Client(3, 1)])

    def test_client_tuples_accepted(self):
        t = Tree([None, 0], [(1, 4), (0, 2)])
        assert t.client_load(1) == 4 and t.client_load(0) == 2


class TestAccessors:
    def test_chain_structure(self, chain_tree):
        assert chain_tree.parent(0) is None
        assert chain_tree.parent(2) == 1
        assert chain_tree.children(0) == (1,)
        assert chain_tree.depth(2) == 2
        assert chain_tree.height == 2

    def test_client_aggregation(self):
        t = Tree([None, 0], [Client(1, 2), Client(1, 3), Client(0, 1)])
        assert t.client_load(1) == 5
        assert t.clients_at(1) == (Client(1, 2), Client(1, 3))
        assert t.n_clients == 3
        assert t.total_requests == 6

    def test_client_loads_view_is_readonly(self, chain_tree):
        with pytest.raises(ValueError):
            chain_tree.client_loads[0] = 99

    def test_post_order_view_is_readonly(self, chain_tree):
        with pytest.raises(ValueError):
            chain_tree.post_order()[0] = 99


class TestTraversals:
    def test_post_order_children_first(self, star5_tree):
        order = list(star5_tree.post_order())
        assert order[-1] == 0
        assert set(order[:-1]) == {1, 2, 3, 4, 5}

    def test_pre_order_parents_first(self, chain_tree):
        assert list(chain_tree.pre_order()) == [0, 1, 2]

    def test_ancestors(self, chain_tree):
        assert list(chain_tree.ancestors(2)) == [1, 0]
        assert list(chain_tree.ancestors(2, include_self=True)) == [2, 1, 0]
        assert list(chain_tree.ancestors(0)) == []

    def test_subtree_nodes(self, chain_tree):
        assert list(chain_tree.subtree_nodes(1)) == [1, 2]
        assert list(chain_tree.subtree_nodes(1, include_root=False)) == [2]

    def test_is_ancestor(self, chain_tree):
        assert chain_tree.is_ancestor(0, 2)
        assert chain_tree.is_ancestor(2, 2)
        assert not chain_tree.is_ancestor(2, 0)


class TestDerived:
    def test_with_clients_keeps_structure(self, chain_tree):
        t2 = chain_tree.with_clients([Client(0, 9)])
        assert t2.parents == chain_tree.parents
        assert t2.total_requests == 9
        assert chain_tree.total_requests == 9 - 9 + 9  # original untouched

    def test_equality_and_hash(self, chain_tree):
        same = Tree([None, 0, 1], [Client(0, 2), Client(1, 3), Client(2, 4)])
        assert chain_tree == same
        assert hash(chain_tree) == hash(same)
        assert chain_tree != Tree([None, 0, 1])
        assert chain_tree != "not a tree"


class TestPropertyInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=14))
    def test_post_order_visits_children_before_parents(self, tree):
        pos = {int(v): i for i, v in enumerate(tree.post_order())}
        assert len(pos) == tree.n_nodes
        for v in range(tree.n_nodes):
            p = tree.parent(v)
            if p is not None:
                assert pos[v] < pos[p]

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=14))
    def test_depths_follow_parents(self, tree):
        for v in range(tree.n_nodes):
            p = tree.parent(v)
            if p is None:
                assert tree.depth(v) == 0
            else:
                assert tree.depth(v) == tree.depth(p) + 1

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=12), st.integers(0, 11))
    def test_ancestor_chain_reaches_root(self, tree, v):
        v = v % tree.n_nodes
        chain = list(tree.ancestors(v, include_self=True))
        assert chain[0] == v and chain[-1] == tree.root
        assert len(chain) == tree.depth(v) + 1

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=14))
    def test_pre_order_visits_parents_before_children(self, tree):
        order = list(tree.pre_order())
        pos = {v: i for i, v in enumerate(order)}
        assert order[0] == tree.root and len(pos) == tree.n_nodes == len(order)
        for v in range(tree.n_nodes):
            p = tree.parent(v)
            if p is not None:
                assert pos[p] < pos[v]

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=12))
    def test_subtree_nodes_are_the_descendants(self, tree):
        for v in range(tree.n_nodes):
            below = set(tree.subtree_nodes(v))
            assert below == {w for w in range(tree.n_nodes) if tree.is_ancestor(v, w)}

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=14))
    def test_children_invert_parents(self, tree):
        for v in range(tree.n_nodes):
            assert all(tree.parent(c) == v for c in tree.children(v))
        assert sum(len(tree.children(v)) for v in range(tree.n_nodes)) == tree.n_nodes - 1

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=14))
    def test_height_is_deepest_node(self, tree):
        assert tree.height == max(tree.depth(v) for v in range(tree.n_nodes))


@st.composite
def crowded_workloads(draw):
    """``(base tree, new client pairs)`` with several clients on some node.

    ``small_trees`` puts at most one client on a node, so two more land
    on one drawn node and up to six on random nodes, in a drawn order.
    """
    base = draw(small_trees(max_nodes=10))
    n = base.n_nodes
    node = st.integers(0, n - 1)
    requests = st.integers(1, 6)
    v = draw(node)
    pairs = [(c.node, c.requests) for c in base.clients]
    pairs += [(v, draw(requests)), (v, draw(requests))]
    pairs += draw(st.lists(st.tuples(node, requests), max_size=6))
    return base, draw(st.permutations(pairs))


class TestLazyClients:
    """Trees built from pairs, from ``Client`` objects and by a patch agree."""

    @settings(max_examples=80, deadline=None)
    @given(crowded_workloads(), st.booleans())
    def test_every_build_agrees(self, workload, patch_with_objects):
        base, pairs = workload
        n = base.n_nodes
        objects = [Client(v, r) for v, r in pairs]

        def at(v, clients):
            return [(c.node, c.requests) for c in clients if c.node == v]

        touched = [v for v in range(n) if at(v, base.clients) != at(v, objects)]
        trees = [
            Tree(base.parents, pairs),
            Tree(base.parents, objects),
            base.with_clients(
                objects if patch_with_objects else pairs, touched=touched
            ),
        ]
        want_at = [tuple(c for c in objects if c.node == v) for v in range(n)]
        load = [sum(r for u, r in pairs if u == v) for v in range(n)]
        for i, tree in enumerate(trees):
            # clients_at before clients on the first tree, after on the rest
            if i == 0:
                assert [tree.clients_at(v) for v in range(n)] == want_at
            assert tree.clients == tuple(objects)
            assert [tree.clients_at(v) for v in range(n)] == want_at
            assert tree.n_clients == len(pairs)
            assert tree.client_loads.tolist() == load
            assert tree.total_requests == sum(load)
            assert tree == trees[0] and hash(tree) == hash(trees[0])

    def test_concurrent_first_reads_agree(self):
        pairs = [(v % 40, 1 + v % 5) for v in range(400)]
        want = tuple(Client(v, r) for v, r in pairs)
        want_at = [tuple(c for c in want if c.node == v) for v in range(40)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                tree = Tree([None] + [0] * 39, pairs)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [
                        pool.submit(
                            lambda k: (
                                [tree.clients_at(v) for v in range(40)]
                                if k % 2
                                else tree.clients
                            ),
                            k,
                        )
                        for k in range(8)
                    ]
                    results = [f.result(timeout=30) for f in futures]
                for k, got in enumerate(results):
                    assert got == (want_at if k % 2 else want)
        finally:
            sys.setswitchinterval(switch)

    def test_client_objects_passed_in_are_kept(self):
        objects = [Client(1, 2), Client(0, 3), Client(1, 4)]
        tree = Tree([None, 0], objects)
        assert all(a is b for a, b in zip(tree.clients, objects, strict=True))
        assert tree.clients_at(1)[1] is objects[2]

    @pytest.mark.parametrize(
        "clients, match",
        [
            ([(1, 0)], "non-positive requests"),
            ([(0, 2), (5, -1)], "client at node 5 has non-positive"),
            ([(2, 1)], "unknown internal node 2"),
            ([(-1, 1)], "unknown internal node -1"),
        ],
    )
    def test_pairs_are_validated_eagerly(self, clients, match):
        with pytest.raises(WorkloadError, match=match):
            Tree([None, 0], clients)
        with pytest.raises(WorkloadError, match=match):
            Tree([None, 0]).with_clients(clients, touched=[0, 1])
