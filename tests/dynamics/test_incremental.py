"""Incremental delta re-solve engine (PR 8).

The tentpole contract, each piece pinned here:

* **byte-identity** — after arbitrary delta sequences, the incremental
  frontier's ``(cost, power)`` pairs equal a cold solve of the evolved
  tree, for both kernels, and every witness placement survives the
  ``from_records(verify=True)`` re-pricing path;
* **delta semantics** — ``apply_deltas`` applies batches in order
  against the evolving state, computes the dirty-node seed set, and
  rejects invalid deltas before touching anything;
* **store reuse** — untouched subtrees are answered from the retained
  front store (hits grow, reuse counters surface in ``ApplyResult``),
  and ``close()`` releases every retained table;
* **satellites** — the bounded ``cached_subtree_codes`` memo and the
  explicit ``seed=`` plumbing of ``run_session``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.canonical import cached_subtree_codes, labelled_subtree_codes
from repro.core.costs import ModalCostModel
from repro.dynamics import (
    AddClient,
    DPUpdateStrategy,
    MigrateSubtree,
    RandomWalkRequests,
    RemoveClient,
    SessionState,
    SetRequests,
    apply_deltas,
    delta_from_dict,
    delta_to_dict,
    run_session,
)
from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    TreeStructureError,
    WorkloadError,
)
from repro.power.frontstore import FrontStore
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree
from repro.tree.model import Client, Tree

from tests.conftest import small_trees

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
MAX_LOAD = max(PM.modes.capacities)


def _build_delta(tree: Tree, seed: tuple[int, int, int]):
    """Map a drawn integer seed to one delta that is valid for ``tree``.

    Keeps per-node direct client load within ``MAX_LOAD`` so the evolved
    instance stays solvable by construction.
    """
    kind_pick, a, b = seed
    kinds = ["add", "migrate"]
    if tree.clients:
        kinds += ["remove", "set"]
    kind = kinds[kind_pick % len(kinds)]
    loads = tree.client_loads
    if kind == "remove":
        return RemoveClient(a % len(tree.clients))
    if kind == "set":
        idx = a % len(tree.clients)
        cl = tree.clients[idx]
        cap = MAX_LOAD - int(loads[cl.node]) + cl.requests
        if cap < 1:
            return RemoveClient(idx)
        return SetRequests(idx, 1 + (b % min(6, cap)))
    if kind == "migrate" and tree.n_nodes > 1:
        for off in range(tree.n_nodes):
            v = 1 + (a + off) % (tree.n_nodes - 1)
            q = (b + off) % tree.n_nodes
            if q != tree.parents[v] and not tree.is_ancestor(v, q):
                return MigrateSubtree(v, q)
    candidates = [v for v in range(tree.n_nodes) if int(loads[v]) < MAX_LOAD]
    if not candidates:
        return RemoveClient(a % len(tree.clients))
    node = candidates[a % len(candidates)]
    return AddClient(node, 1 + (b % min(6, MAX_LOAD - int(loads[node]))))


@st.composite
def incremental_cases(draw, max_nodes: int = 8, max_deltas: int = 5):
    """(tree, pre_modes, delta seeds) triples for the identity suite."""
    tree = draw(small_trees(max_nodes=max_nodes, max_requests=4))
    pre = draw(
        st.dictionaries(
            st.integers(0, tree.n_nodes - 1), st.integers(0, 1), max_size=3
        )
    )
    seeds = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 1_000_000),
                st.integers(0, 1_000_000),
            ),
            min_size=1,
            max_size=max_deltas,
        )
    )
    return tree, pre, seeds


class TestDeltaWire:
    def test_round_trip_all_kinds(self):
        for delta in (
            AddClient(3, 2),
            RemoveClient(1),
            SetRequests(0, 5),
            MigrateSubtree(4, 2),
        ):
            assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown delta kind"):
            delta_from_dict({"kind": "teleport", "node": 1})

    def test_malformed_delta_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            delta_from_dict({"kind": "add_client", "node": 1})
        with pytest.raises(ConfigurationError, match="malformed"):
            delta_from_dict({"kind": "migrate", "node": "x", "new_parent": 0})


class TestApplyDeltas:
    def test_add_remove_set_semantics(self, chain_tree):
        new, dirty = apply_deltas(chain_tree, [AddClient(1, 5)])
        assert dirty == {1}
        assert new.clients[-1] == Client(1, 5)

        new, dirty = apply_deltas(chain_tree, [RemoveClient(0)])
        assert dirty == {0}
        assert len(new.clients) == len(chain_tree.clients) - 1

        new, dirty = apply_deltas(chain_tree, [SetRequests(2, 1)])
        assert dirty == {chain_tree.clients[2].node}
        assert new.clients[2].requests == 1

    def test_batch_applies_in_order(self, chain_tree):
        # The second index addresses the client tuple *after* the pop.
        new, dirty = apply_deltas(
            chain_tree, [RemoveClient(0), SetRequests(0, 6)]
        )
        assert new.clients[0].requests == 6
        assert dirty == {0, chain_tree.clients[1].node}

    def test_migrate_dirties_both_parents(self, star5_tree):
        new, dirty = apply_deltas(star5_tree, [MigrateSubtree(2, 1)])
        assert new.parents[2] == 1
        assert dirty == {0, 1}

    def test_migrate_root_rejected(self, chain_tree):
        with pytest.raises(TreeStructureError, match="root cannot"):
            apply_deltas(chain_tree, [MigrateSubtree(0, 1)])

    def test_migrate_under_own_descendant_rejected(self, chain_tree):
        with pytest.raises(TreeStructureError, match="own descendant"):
            apply_deltas(chain_tree, [MigrateSubtree(1, 2)])

    def test_bad_indices_rejected(self, chain_tree):
        with pytest.raises(WorkloadError, match="unknown internal node"):
            apply_deltas(chain_tree, [AddClient(99, 1)])
        with pytest.raises(WorkloadError, match="out of range"):
            apply_deltas(chain_tree, [RemoveClient(99)])
        with pytest.raises(WorkloadError, match="out of range"):
            apply_deltas(chain_tree, [SetRequests(99, 1)])

    def test_original_tree_untouched(self, chain_tree):
        before = (chain_tree.parents, chain_tree.clients)
        apply_deltas(chain_tree, [AddClient(0, 1), MigrateSubtree(2, 0)])
        assert (chain_tree.parents, chain_tree.clients) == before


class TestByteIdentity:
    """The acceptance criterion: incremental == cold, both kernels."""

    @given(case=incremental_cases())
    @settings(max_examples=40, deadline=None)
    def test_delta_resolve_matches_cold(self, case):
        tree, pre, seeds = case
        for kernel in ("tuple", "array"):
            state = SessionState(tree, PM, CM, pre, kernel=kernel)
            cold0 = KERNELS[kernel](tree, PM, CM, pre)
            assert state.frontier().pairs() == cold0.pairs()
            for seed in seeds:
                delta = _build_delta(state.tree, seed)
                result = state.apply([delta])
                cold = KERNELS[kernel](state.tree, PM, CM, pre)
                assert result.frontier.pairs() == cold.pairs()
            state.close()

    @given(case=incremental_cases(max_deltas=3))
    @settings(max_examples=15, deadline=None)
    def test_incremental_placements_reprice_exactly(self, case):
        tree, pre, seeds = case
        state = SessionState(tree, PM, CM, pre, kernel="array")
        for seed in seeds:
            delta = _build_delta(state.tree, seed)
            frontier = state.apply([delta]).frontier
            rebuilt = type(frontier).from_records(
                state.tree, frontier.to_records(), PM, CM, pre, verify=True
            )
            assert rebuilt.pairs() == frontier.pairs()
        state.close()

    @given(case=incremental_cases(max_deltas=4))
    @settings(max_examples=20, deadline=None)
    def test_batched_deltas_equal_single_steps(self, case):
        tree, pre, seeds = case
        batched = SessionState(tree, PM, CM, pre, kernel="array")
        stepped = SessionState(tree, PM, CM, pre, kernel="array")
        deltas = []
        preview = tree
        for seed in seeds:
            delta = _build_delta(preview, seed)
            preview, _ = apply_deltas(preview, [delta])
            deltas.append(delta)
        batched.apply(deltas)
        for delta in deltas:
            stepped.apply([delta])
        assert batched.frontier().pairs() == stepped.frontier().pairs()
        assert batched.tree.parents == stepped.tree.parents
        batched.close()
        stepped.close()


class TestSessionState:
    def test_localized_delta_reuses_untouched_fronts(self):
        tree = paper_tree(120, rng=7)
        state = SessionState(tree, PM, CM, kernel="array")
        state.frontier()
        result = state.apply([AddClient(tree.n_nodes - 1, 1)])
        # A one-node edit must answer most subtrees from the store.
        assert result.fronts_reused > 0
        assert result.fronts_reused >= result.fronts_invalidated
        assert state.stats.solves == 2
        state.close()

    def test_invalid_delta_leaves_session_untouched(self, chain_tree):
        cases = [
            (chain_tree, [AddClient(0, 1), RemoveClient(99)], WorkloadError),
            # A valid delta whose re-solve is infeasible (direct load 17 > W).
            (paper_tree(60, rng=3), [AddClient(0, 11)], InfeasibleError),
        ]
        for tree, batch, error in cases:
            state = SessionState(tree, PM, CM, kernel="array")
            before = state.frontier().pairs()
            tree_before = state.tree
            with pytest.raises(error):
                state.apply(batch)
            assert state.tree is tree_before
            assert state.frontier().pairs() == before
            assert state.stats.deltas_applied == 0
            # The next delta applies to the original tree.
            result = state.apply([AddClient(0, 1)])
            expected, _ = apply_deltas(tree_before, [AddClient(0, 1)])
            assert state.tree.clients == expected.clients
            assert result.frontier.pairs() == KERNELS["array"](expected, PM, CM).pairs()
            state.close()

    def test_close_releases_tables_and_disables_session(self, chain_tree):
        state = SessionState(chain_tree, PM, CM, kernel="tuple")
        state.frontier()
        store = state.store
        assert len(store) > 0
        state.close()
        assert len(store) == 0
        assert store.labels_retained == 0
        with pytest.raises(ConfigurationError, match="closed"):
            state.apply([AddClient(0, 1)])
        with pytest.raises(ConfigurationError, match="closed"):
            state.solve()
        state.close()  # idempotent

    def test_store_kernel_binding_enforced(self, chain_tree):
        store = FrontStore("tuple")
        with pytest.raises(ConfigurationError, match="bound to"):
            SessionState(chain_tree, PM, CM, kernel="array", store=store)

    def test_unknown_kernel_rejected(self, chain_tree):
        with pytest.raises(ConfigurationError):
            SessionState(chain_tree, PM, CM, kernel="quantum")


class TestCachedSubtreeCodes:
    """Satellite: bounded per-process relabelling memo."""

    def test_identity_hit_same_tree(self, chain_tree):
        first = cached_subtree_codes(chain_tree)
        second = cached_subtree_codes(chain_tree)
        assert first is second

    def test_distinct_pre_sets_are_distinct_entries(self, chain_tree):
        plain = cached_subtree_codes(chain_tree)
        marked = cached_subtree_codes(chain_tree, frozenset({1}))
        assert plain is not marked
        assert plain.codes != marked.codes

    def test_matches_uncached_relabelling(self, star5_tree):
        cached = cached_subtree_codes(star5_tree, {2: 1})
        fresh = labelled_subtree_codes(star5_tree, {2: 1})
        assert cached.codes == fresh.codes
        assert cached.table_keys == fresh.table_keys

    def test_equal_shape_different_identity_not_conflated(self):
        a = Tree([None, 0], [Client(1, 2)])
        b = Tree([None, 0], [Client(1, 2)])
        codes_a = cached_subtree_codes(a)
        codes_b = cached_subtree_codes(b)
        assert codes_a.codes == codes_b.codes  # same canonical content


class TestRunSessionSeed:
    """Satellite: explicit ``seed=`` plumbing for ``run_session``."""

    def test_seed_equals_rng_seed(self):
        tree = paper_tree(30, rng=5)
        evo = RandomWalkRequests()
        strategies = {"DP": DPUpdateStrategy()}
        by_seed = run_session(tree, 10, 4, evo, strategies, seed=99)
        by_rng = run_session(tree, 10, 4, evo, strategies, rng=99)
        assert by_seed.tracks == by_rng.tracks

    def test_seed_and_rng_mutually_exclusive(self):
        tree = paper_tree(10, rng=5)
        with pytest.raises(ConfigurationError, match="not both"):
            run_session(
                tree,
                10,
                2,
                RandomWalkRequests(),
                {"DP": DPUpdateStrategy()},
                rng=1,
                seed=2,
            )
