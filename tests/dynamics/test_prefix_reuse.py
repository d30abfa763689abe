"""Child-prefix accumulator reuse in live sessions (array kernel).

A node's table is a left fold over its children; the front store keeps
each intermediate accumulator under a key built from the node's load and
the ordered full codes of the children folded so far, and a re-solve
resumes from the longest retained prefix.  Pinned here:

* sessions with prefix reuse stay byte-identical to cold solves, and
  every witness placement reprices exactly;
* a prefix hit is re-mapped through an isomorphism, not node identity —
  swapping loads between two leaves keeps their parent's code but moves
  the nodes;
* prefix entries live under the store's label accounting and idle
  eviction, and are counted apart from table hits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import AddClient, SessionState, SetRequests
from repro.power.frontstore import FrontStore
from repro.power.kernels import KERNELS
from repro.tree.generators import paper_tree, random_preexisting_modes
from repro.tree.model import Client, Tree

from tests.dynamics.test_incremental import CM, PM, _build_delta


def _reprices(state: SessionState, frontier, pre) -> bool:
    rebuilt = type(frontier).from_records(
        state.tree, frontier.to_records(), PM, CM, pre, verify=True
    )
    return rebuilt.pairs() == frontier.pairs()


@given(
    tree_seed=st.integers(0, 10_000),
    with_pre=st.booleans(),
    seeds=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 1_000_000),
            st.integers(0, 1_000_000),
        ),
        min_size=30,
        max_size=30,
    ),
)
@settings(max_examples=4, deadline=None)
def test_prefix_reuse_matches_cold_and_reprices(tree_seed, with_pre, seeds):
    rng = np.random.default_rng(tree_seed)
    tree = paper_tree(120, rng=rng)
    pre = random_preexisting_modes(tree, 15, 2, rng=rng) if with_pre else {}
    state = SessionState(tree, PM, CM, pre, kernel="array")
    state.frontier()
    for seed in seeds:
        frontier = state.apply([_build_delta(state.tree, seed)]).frontier
        cold = KERNELS["array"](state.tree, PM, CM, pre)
        assert frontier.pairs() == cold.pairs()
        assert _reprices(state, frontier, pre)
    assert state.store.prefix_hits > 0
    state.close()


def test_swapped_leaf_loads_under_unchanged_child_remap_placements():
    # Root 0 folds children [1, 2, 3]; node 1 holds leaves 4 (load 3) and
    # 5 (load 5).  Swapping those loads keeps node 1's code, and editing
    # node 3 makes the root resume from its retained [1, 2] prefix.  The
    # prefix was built on the old tree, where the load-3 leaf is node 4.
    tree = Tree(
        [None, 0, 0, 0, 1, 1],
        [Client(0, 1), Client(1, 1), Client(2, 2), Client(3, 1),
         Client(4, 3), Client(5, 5)],
    )
    state = SessionState(tree, PM, CM, kernel="array")
    state.frontier()
    hits = state.store.prefix_hits
    frontier = state.apply(
        [SetRequests(4, 5), SetRequests(5, 3), AddClient(3, 2)]
    ).frontier
    assert state.store.prefix_hits > hits
    assert frontier.pairs() == KERNELS["array"](state.tree, PM, CM).pairs()
    assert _reprices(state, frontier, {})
    # Some witness serves a leaf: the remapped placements are exercised.
    assert any({4, 5} & set(pt.placement()) for pt in frontier.points)


def test_prefix_entries_are_budgeted_and_evicted():
    store = FrontStore("array", max_idle=2)
    tree = paper_tree(120, rng=7)
    state = SessionState(tree, PM, CM, kernel="array", store=store)
    state.frontier()
    entries = store._entries
    opened = {key for key, entry in entries.items() if entry.prefix}
    assert opened
    assert store.labels_retained == sum(e.n_labels for e in entries.values())
    for step in range(4):
        state.apply([SetRequests(0, 1 + step % 2)])
    assert store.evictions > 0
    assert any(key not in entries for key in opened)
    assert store.labels_retained == sum(e.n_labels for e in entries.values())
    state.close()


def test_leaf_delta_reports_prefix_hits_apart_from_table_hits():
    tree = paper_tree(120, rng=7)
    # A leaf that is not its parent's first child, so its parent resumes
    # the fold from a retained prefix.
    leaf = next(
        v
        for v in range(tree.n_nodes)
        if not tree.children(v)
        and tree.parent(v) is not None
        and tree.children(tree.parent(v)).index(v) > 0
    )
    state = SessionState(tree, PM, CM, kernel="array")
    state.frontier()
    before = state.store.snapshot()
    result = state.apply([AddClient(leaf, 1)])
    after = state.store.snapshot()
    assert after["prefix_hits"] > before["prefix_hits"]
    # Table counters keep their meaning: only table lookups count.
    assert after["hits"] - before["hits"] == result.fronts_reused
    assert after["misses"] - before["misses"] == result.fronts_invalidated
    state.close()
