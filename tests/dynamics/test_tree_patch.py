"""Client-only delta batches patch the tree instead of rebuilding it.

``apply_deltas`` shares the parent tree's structure for batches without
a migration and updates only the client-dependent fields.  Every
accessor of the patched tree must equal a fresh ``Tree(parents,
clients)`` over the same inputs, batch after batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import AddClient, RemoveClient
from repro.dynamics.incremental import apply_deltas
from repro.tree.generators import paper_tree
from repro.tree.model import Tree

from tests.dynamics.test_incremental import _build_delta


def _assert_same_tree(got: Tree, want: Tree) -> None:
    n = want.n_nodes
    assert got.n_nodes == n
    assert got.root == want.root
    assert got.parents == want.parents
    assert got.clients == want.clients
    assert got.n_clients == want.n_clients
    assert got.total_requests == want.total_requests
    assert got.height == want.height
    assert got == want and hash(got) == hash(want)
    assert got.client_loads.tolist() == want.client_loads.tolist()
    assert got.post_order().tolist() == want.post_order().tolist()
    assert list(got.pre_order()) == list(want.pre_order())
    for v in range(n):
        assert got.children(v) == want.children(v)
        assert got.clients_at(v) == want.clients_at(v)
        assert got.client_load(v) == want.client_load(v)
        assert got.depth(v) == want.depth(v)
        assert got.parent(v) == want.parent(v)


@given(
    tree_seed=st.integers(0, 10_000),
    batches=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 1_000_000),
                st.integers(0, 1_000_000),
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_patched_tree_equals_fresh_build(tree_seed, batches):
    tree = paper_tree(40, rng=np.random.default_rng(tree_seed))
    for seeds in batches:
        deltas = []
        probe = tree
        for seed in seeds:
            delta = _build_delta(probe, seed)
            deltas.append(delta)
            probe, _ = apply_deltas(probe, [delta])
        tree, _ = apply_deltas(tree, deltas)
        _assert_same_tree(tree, Tree(tree.parents, tree.clients))


def test_client_only_batch_shares_the_structure():
    tree = paper_tree(60, rng=np.random.default_rng(3))
    leaf = next(v for v in range(tree.n_nodes) if not tree.children(v))
    patched, dirty = apply_deltas(tree, [AddClient(leaf, 2), RemoveClient(0)])
    assert leaf in dirty
    assert patched._children is tree._children
    assert patched._post_order is tree._post_order
    assert patched._client_load is not tree._client_load
    _assert_same_tree(patched, Tree(patched.parents, patched.clients))
    # The source tree is untouched.
    _assert_same_tree(tree, Tree(tree.parents, tree.clients))
