"""``canonicalize`` against the scalar reference canonicaliser.

Every :class:`~repro.batch.canonical.Canonical` field must equal the
reference's (not merely describe an isomorphic instance): the digest is
built from ``parents``, ``clients`` and the pre-existing fields, and
fan-out maps witnesses back through ``to_canonical`` and
``from_canonical``, so any difference would move a cache key or a
returned placement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.canonical import canonicalize, relabel_tree
from repro.exceptions import ConfigurationError
from repro.tree.generators import paper_tree, random_preexisting_modes
from repro.tree.model import Client, Tree

from tests.batch._canonical_oracle import canonicalize_reference
from tests.conftest import small_trees


@st.composite
def instances(draw, max_nodes: int = 14):
    """A tree with extra clients (multi-client nodes, repeated and
    prefix-related request multisets), relabelled so that any node can be
    the root, and a plain or moded pre-existing map.  Modes include -1
    and -2, whose markers (``1 + mode``) equal or undercut a plain
    node's 0."""
    tree = draw(small_trees(max_nodes=max_nodes, max_requests=3))
    n = tree.n_nodes
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=2 * n)
    )
    if extra:
        tree = Tree(tree.parents, [*tree.clients, *(Client(v, r) for v, r in extra)])
    tree, _ = relabel_tree(tree, draw(st.permutations(range(n))))
    nodes = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    kind = draw(st.sampled_from(["none", "plain", "moded"]))
    if kind == "none":
        return tree, ()
    if kind == "plain":
        return tree, nodes
    return tree, {v: draw(st.integers(-2, 3)) for v in sorted(nodes)}


def _assert_same(tree, pre):
    got = canonicalize(tree, pre)
    want = canonicalize_reference(tree, pre)
    assert got.parents == want.parents
    assert got.clients == want.clients
    assert got.preexisting == want.preexisting
    assert got.preexisting_modes == want.preexisting_modes
    assert got.to_canonical == want.to_canonical
    assert got.from_canonical == want.from_canonical
    for field in (got.to_canonical, got.from_canonical, got.parents[1:]):
        assert all(type(v) is int for v in field)


@given(instances())
@settings(max_examples=300, deadline=None)
def test_matches_reference_on_small_instances(instance):
    _assert_same(*instance)


@given(instances(max_nodes=60))
@settings(max_examples=60, deadline=None)
def test_matches_reference_on_larger_instances(instance):
    _assert_same(*instance)


@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_on_paper_trees(seed):
    rng = np.random.default_rng(seed)
    tree = paper_tree(200, rng=rng)
    _assert_same(tree, random_preexisting_modes(tree, 25, 3, rng=rng))
    _assert_same(tree, frozenset(range(0, 200, 9)))


@pytest.mark.parametrize(
    "parents",
    [
        [None],
        [None, 0],
        [None, 0, 1, 2, 3],
        [None, 0, 0, 0, 0],
        [2, 2, None, 1, 1, 0],
    ],
)
def test_matches_reference_on_fixed_shapes(parents):
    bare = Tree(parents)
    _assert_same(bare, ())
    loaded = Tree(parents, [Client(v, 1 + v % 2) for v in range(len(parents))])
    _assert_same(loaded, {len(parents) - 1: 1})


@pytest.mark.parametrize("multi", [False, True])
def test_matches_reference_on_request_counts_too_large_to_pack(multi):
    # (big + 1) * 3 markers overflows int64, so the request ranks are
    # replaced by their dense ranks before packing (two such clients
    # still fit the tree's int64 request totals).
    big = 3 * 2**60
    clients = [Client(1, big), Client(2, 3), Client(3, big), Client(4, 5)]
    if multi:
        clients.append(Client(2, 3))
    tree = Tree([None, 0, 0, 1, 1], clients)
    _assert_same(tree, {1: 0, 3: 1})
    _assert_same(tree, {2: 1, 4: 0})


def test_rejects_out_of_range_preexisting_like_reference():
    tree = Tree([None, 0])
    for pre in ({2}, {-1}, {2: 0}):
        with pytest.raises(ConfigurationError):
            canonicalize(tree, pre)
        with pytest.raises(ConfigurationError):
            canonicalize_reference(tree, pre)
