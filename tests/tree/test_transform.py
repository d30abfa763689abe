"""Metamorphic tests: solver optima across derived instances.

Each transformation has a provable effect on the optimum (none here):
node ids are arbitrary, so relabelling (which also reorders child merges)
keeps every optimum; multiplying every request and the capacity by ``k``
keeps every feasibility comparison; and splitting one client in two at
the same node is invisible to the closest policy, which sees only the
aggregated per-node load.  So every solver gets checked against itself
across derived instances — a bug in merge-order handling, id assumptions
or load aggregation shows up as a metamorphic violation even when direct
oracles pass.  The transformations themselves are checked first, so a
broken one cannot make the invariance checks vacuous.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.canonical import relabel_tree
from repro.core.costs import UniformCostModel
from repro.core.dp_nopre import dp_min_replicas
from repro.core.dp_withpre import replica_update
from repro.core.greedy import greedy_placement
from repro.exceptions import InfeasibleError, WorkloadError
from repro.tree.model import Client, Tree

from tests.conftest import small_trees

MINCOUNT = UniformCostModel(1e-4, 1e-5)


def scale_workload(tree: Tree, factor: int) -> Tree:
    """Multiply every client's requests by ``factor``."""
    return tree.with_clients(
        Client(c.node, c.requests * factor) for c in tree.clients
    )


def split_client(tree: Tree, index: int, seed: int) -> Tree:
    """Split one client in two at the same node with the same total."""
    target = tree.clients[index]
    if target.requests < 2:
        return tree
    left = int(np.random.default_rng(seed).integers(1, target.requests))
    clients = list(tree.clients)
    clients[index : index + 1] = [
        Client(target.node, left),
        Client(target.node, target.requests - left),
    ]
    return tree.with_clients(clients)


class TestRelabel:
    def test_identity(self, chain_tree):
        t, pre = relabel_tree(chain_tree, [0, 1, 2], [1])
        assert t == chain_tree and pre == frozenset({1})

    def test_structure_mapped(self, chain_tree):
        t, _ = relabel_tree(chain_tree, [2, 0, 1])
        # old chain 0->1->2 becomes 2->0->1
        assert t.root == 2
        assert t.parent(0) == 2 and t.parent(1) == 0
        assert t.client_load(2) == chain_tree.client_load(0)

    def test_mode_mapping_relabelled(self, chain_tree):
        _, modes = relabel_tree(chain_tree, [2, 0, 1], {0: 1, 2: 0})
        assert modes == {2: 1, 1: 0}

    def test_bad_permutation(self, chain_tree):
        with pytest.raises(ValueError, match="permutation"):
            relabel_tree(chain_tree, [0, 0, 1])
        with pytest.raises(ValueError, match="permutation"):
            relabel_tree(chain_tree, [0, 1])


class TestScaleWorkload:
    def test_scales_requests(self, chain_tree):
        t = scale_workload(chain_tree, 3)
        assert t.total_requests == chain_tree.total_requests * 3

    def test_factor_one_identity(self, chain_tree):
        assert scale_workload(chain_tree, 1) == chain_tree

    def test_zero_factor_rejected(self, chain_tree):
        with pytest.raises(WorkloadError):
            scale_workload(chain_tree, 0)


class TestSplitClient:
    def test_totals_preserved(self, chain_tree):
        t = split_client(chain_tree, 2, 0)
        assert t.total_requests == chain_tree.total_requests
        assert t.n_clients == chain_tree.n_clients + 1
        assert t.client_load(2) == chain_tree.client_load(2)

    def test_single_request_untouched(self):
        t = Tree([None], [Client(0, 1)])
        assert split_client(t, 0, 0) == t

    def test_structure_unchanged(self, chain_tree):
        t = split_client(chain_tree, 1, 3)
        assert t.parents == chain_tree.parents
        assert list(t.client_loads) == list(chain_tree.client_loads)


class TestMetamorphicInvariance:
    """Optima must survive relabeling, scaling and client splitting."""

    @settings(max_examples=50, deadline=None)
    @given(small_trees(max_nodes=12, max_requests=6), st.randoms())
    def test_relabel_invariance_all_solvers(self, tree, pyrandom):
        perm = list(range(tree.n_nodes))
        pyrandom.shuffle(perm)
        try:
            base = dp_min_replicas(tree, 10)
        except InfeasibleError:
            return
        mapped, _ = relabel_tree(tree, perm)
        assert dp_min_replicas(mapped, 10) == base
        assert greedy_placement(mapped, 10).n_replicas == base
        assert (
            replica_update(mapped, 10, (), MINCOUNT).n_replicas == base
        )

    @settings(max_examples=50, deadline=None)
    @given(small_trees(max_nodes=12, max_requests=6), st.integers(2, 5))
    def test_scale_invariance(self, tree, factor):
        try:
            base = dp_min_replicas(tree, 10)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                dp_min_replicas(scale_workload(tree, factor), 10 * factor)
            return
        scaled = scale_workload(tree, factor)
        assert dp_min_replicas(scaled, 10 * factor) == base
        assert greedy_placement(scaled, 10 * factor).n_replicas == base

    @settings(max_examples=50, deadline=None)
    @given(small_trees(max_nodes=12, max_requests=6), st.integers(0, 100))
    def test_split_client_invariance(self, tree, idx):
        if tree.n_clients == 0:
            return
        try:
            base = dp_min_replicas(tree, 10)
        except InfeasibleError:
            return
        split = split_client(tree, idx % tree.n_clients, idx)
        assert dp_min_replicas(split, 10) == base
        assert greedy_placement(split, 10).n_replicas == base

    @settings(max_examples=30, deadline=None)
    @given(small_trees(max_nodes=10, max_requests=6), st.randoms())
    def test_relabel_maps_withpre_costs(self, tree, pyrandom):
        perm = list(range(tree.n_nodes))
        pyrandom.shuffle(perm)
        pre = frozenset(v for v in range(0, tree.n_nodes, 2))
        cm = UniformCostModel(0.1, 0.01)
        try:
            base = replica_update(tree, 10, pre, cm)
        except InfeasibleError:
            return
        mapped, mapped_pre = relabel_tree(tree, perm, pre)
        got = replica_update(mapped, 10, mapped_pre, cm)
        # Optimal cost is invariant; the witness may differ between ties,
        # so only the objective is pinned.
        assert got.cost == pytest.approx(base.cost)
