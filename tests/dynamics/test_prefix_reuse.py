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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import AddClient, MigrateSubtree, SessionState, SetRequests
from repro.power.frontstore import FrontStore
from repro.power.kernels import KERNELS
from repro.tree.generators import paper_tree, random_preexisting_modes
from repro.tree.model import Client, Tree

from tests.dynamics.test_incremental import CM, MAX_LOAD, PM, _build_delta


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
    state = SessionState(tree, PM, CM, pre)
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
    state = SessionState(tree, PM, CM)
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
    store = FrontStore(max_idle=2)
    tree = paper_tree(120, rng=7)
    state = SessionState(tree, PM, CM, store=store)
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
    state = SessionState(tree, PM, CM)
    state.frontier()
    before = state.store.snapshot()
    result = state.apply([AddClient(leaf, 1)])
    after = state.store.snapshot()
    assert after["prefix_hits"] > before["prefix_hits"]
    # Table counters keep their meaning: only table lookups count.
    assert after["hits"] - before["hits"] == result.fronts_reused
    assert after["misses"] - before["misses"] == result.fronts_invalidated
    state.close()


def test_a_tree_without_resumable_prefixes_interns_no_prefix_key():
    # Hub 1 folds only leaves, and the root's single child is never part
    # of a prefix (a node's full fold is its table): no accumulator of
    # this tree can be resumed, so the solve interns no prefix key.
    tree = Tree([None, 0, 1, 1, 1], [Client(2, 3), Client(3, 1), Client(4, 2)])
    state = SessionState(tree, PM, CM)
    state.frontier()
    assert not [key for key in state.store._intern if key[0] == "prefix"]
    state.close()


def _run_length(tree: Tree, node: int) -> int:
    kids = tree.children(node)
    run = 0
    while run < len(kids) and not tree.children(kids[run]):
        run += 1
    return run


def test_delta_on_a_middle_leaf_of_a_leading_run_refolds_the_run():
    # Root 0 folds the leading run of leaves [1, 2, 3], then hubs 4 and 5,
    # whose children are all leaves.  Only the root keeps prefix entries:
    # one for the run and one for the run plus hub 4.
    tree = Tree(
        [None, 0, 0, 0, 0, 0, 4, 4, 4, 5, 5],
        [Client(0, 1), Client(1, 3), Client(2, 2), Client(3, 5),
         Client(4, 1), Client(6, 4), Client(7, 2), Client(8, 3),
         Client(9, 5), Client(10, 1)],
    )
    state = SessionState(tree, PM, CM)
    state.frontier()
    store = state.store

    def prefix_entries():
        out = [e for e in store._entries.values() if e.prefix]
        for e in out:
            # Nothing inside a run is retained, nor a node's full fold.
            assert _run_length(e.tree, e.node) <= e.prefix
            assert e.prefix < len(e.tree.children(e.node))
        assert store.labels_retained == sum(
            e.n_labels for e in store._entries.values()
        )
        return sorted(e.prefix for e in out)

    assert prefix_entries() == [3, 4]
    retained = store.labels_retained

    # Leaf 2 sits in the middle of the run: no retained prefix covers it,
    # so the root re-folds the run and re-merges both hubs (table hits).
    before = store.snapshot()
    result = state.apply([SetRequests(2, 6)])
    after = store.snapshot()
    assert result.frontier.pairs() == KERNELS["array"](state.tree, PM, CM).pairs()
    assert _reprices(state, result.frontier, {})
    assert after["prefix_hits"] == before["prefix_hits"]
    assert result.fronts_reused == 2
    assert prefix_entries() == [3, 3, 4, 4]
    assert store.labels_retained > retained

    # A leaf under hub 5 (the last child): the root resumes from its
    # retained run-plus-hub-4 prefix, the one prefix hit of this solve.
    before = store.snapshot()
    result = state.apply([SetRequests(8, 2)])
    after = store.snapshot()
    assert result.frontier.pairs() == KERNELS["array"](state.tree, PM, CM).pairs()
    assert _reprices(state, result.frontier, {})
    assert after["prefix_hits"] == before["prefix_hits"] + 1
    state.close()


def test_prefix_ending_inside_a_run_resumes_the_run_on_lists():
    # Root 0 folds leaves [1, 2], hub 3 (leaves 5, 6) and leaf 4, so it
    # keeps a prefix over [1, 2].  Moving hub 3 under node 7 makes
    # [1, 2, 4] the root's leading run: the root resumes from the [1, 2]
    # prefix and folds leaf 4 onto the aliased accumulator.
    tree = Tree(
        [None, 0, 0, 0, 0, 3, 3, 0],
        [Client(1, 3), Client(2, 4), Client(4, 2), Client(5, 1),
         Client(6, 5), Client(0, 1)],
    )
    state = SessionState(tree, PM, CM)
    state.frontier()
    before = state.store.prefix_hits
    result = state.apply([MigrateSubtree(3, 7)])
    assert state.tree.children(0) == (1, 2, 4, 7)
    assert state.store.prefix_hits == before + 1
    assert result.frontier.pairs() == KERNELS["array"](state.tree, PM, CM).pairs()
    assert _reprices(state, result.frontier, {})
    state.close()


@given(
    tree_seed=st.integers(0, 10_000),
    with_pre=st.booleans(),
    batches=st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.integers(0, 1_000), st.integers(0, 1_000)),
                min_size=2,
                max_size=4,
            ),
            st.integers(0, 1_000_000),
            st.integers(0, 1_000_000),
        ),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=6, deadline=None)
def test_batches_dirtying_one_level_in_several_subtrees_match_cold(
    tree_seed, with_pre, batches
):
    """A batch of client edits in 2-4 different depth-1 subtrees, each
    at its own child position, plus a migration: the re-solve refolds
    several nodes of one height from different retained prefixes in one
    level step.  Every step equals the cold solve and reprices."""
    rng = np.random.default_rng(tree_seed)
    tree = paper_tree(120, rng=rng)
    pre = random_preexisting_modes(tree, 15, 2, rng=rng) if with_pre else {}
    state = SessionState(tree, PM, CM, pre)
    state.frontier()
    for picks, a, b in batches:
        current = state.tree
        hubs = [u for u in current.children(current.root) if current.children(u)]
        loads = current.client_loads.copy()
        deltas = []
        for hub_pick, child_pick in picks:
            hub = hubs[hub_pick % len(hubs)]
            kids = current.children(hub)
            node = kids[child_pick % len(kids)]
            room = MAX_LOAD - int(loads[node])
            if room >= 1:
                deltas.append(AddClient(node, 1 + child_pick % room))
                loads[node] += 1 + child_pick % room
        deltas.append(_build_delta(current, (1, a, b)))
        frontier = state.apply(deltas).frontier
        cold = KERNELS["array"](state.tree, PM, CM, pre)
        assert frontier.pairs() == cold.pairs()
        assert _reprices(state, frontier, pre)
    state.close()


def _hub(parent: int, first: int, loads: list[int]) -> tuple[list, list]:
    """Parents and clients of a hub ``first`` under ``parent`` with one
    leaf per load (ids ``first + 1, ...``)."""
    parents = [parent] + [first] * len(loads)
    clients = [Client(first + 1 + i, r) for i, r in enumerate(loads)]
    return parents, clients


@pytest.mark.parametrize(
    "layout, hits, misses",
    [
        # Sibling hubs 1 and 4 share a table key: the walk visits hub 4
        # first (it is pushed last), computes and publishes it, and hub
        # 1's lookup is a hit on that table.
        ([(0, [2, 3, 1]), (0, [2, 3, 1])], 1, 2),
        # Three equal siblings: one miss, two hits.
        ([(0, [2, 3, 1])] * 3, 2, 2),
    ],
)
def test_equal_keys_within_one_level_count_one_miss_then_hits(layout, hits, misses):
    parents: list[int | None] = [None]
    clients = [Client(0, 1)]
    for parent, loads in layout:
        more, cl = _hub(parent, len(parents), loads)
        parents += more
        clients += cl
    tree = Tree(parents, clients)
    state = SessionState(tree, PM, CM)
    frontier = state.frontier()
    snap = state.store.snapshot()
    assert (snap["hits"], snap["misses"]) == (hits, misses)
    assert frontier.pairs() == KERNELS["array"](tree, PM, CM).pairs()
    assert _reprices(state, frontier, {})
    state.close()


def test_equal_cousin_hubs_share_one_table():
    # Root 0 -> depth-1 nodes 1 and 2; node 1 holds hub 3 (leaves 4, 5)
    # and leaf 6, node 2 holds hub 7 (leaves 8, 9).  Hubs 3 and 7 are
    # equal and of one height, so one is computed and the other hits.
    tree = Tree(
        [None, 0, 0, 1, 3, 3, 1, 2, 7, 7],
        [Client(4, 2), Client(5, 3), Client(6, 1), Client(8, 2), Client(9, 3)],
    )
    state = SessionState(tree, PM, CM)
    frontier = state.frontier()
    snap = state.store.snapshot()
    # Misses: root, node 2, hub 7, node 1; hub 3 hits hub 7's table.
    assert (snap["hits"], snap["misses"]) == (1, 4)
    assert frontier.pairs() == KERNELS["array"](tree, PM, CM).pairs()
    assert _reprices(state, frontier, {})
    state.close()
