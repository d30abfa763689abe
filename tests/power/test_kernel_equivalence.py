"""Equivalence suite pinning the Pareto kernels.

The production engine (``power_frontier_array``) and the plain reference
DP (``power_frontier``) solve the same DP and must be *observationally
identical*: same (cost, power) frontier as the paper-faithful
count-vector DP on arbitrary instances, byte-identical across kernels
and with/without the array kernel's AHU subtree memo, reconstructable
placements that survive the ``from_records(verify=True)`` re-pricing
path (the PR-4 cache contract), and bisect-based bound queries that
agree with the linear scans they replaced.  Witness placements may differ between
kernels at equal-optimum ties; every witness must still re-price
exactly.
"""

from __future__ import annotations

import contextlib
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import ModalCostModel
from repro.exceptions import InfeasibleError
from repro.perf.stats import ParetoDPStats
from repro.power.dp_power_array import power_frontier_array
from repro.power.dp_power_counts import power_frontier_counts
from repro.power.dp_power_pareto import power_frontier
from repro.power.modes import ModeSet, PowerModel
from repro.tree.model import Client, Tree

from tests.conftest import small_trees

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
PM3 = PowerModel(ModeSet((3, 6, 12)), static_power=2.0, alpha=2.0)
CM3 = ModalCostModel.uniform(3, create=0.2, delete=0.05, changed=0.01)


def both_kernels(tree, pm, cm, pre):
    """Frontier of the reference and of the array kernel, its memo on
    and off.

    All three solves must agree byte-for-byte on the (cost, power)
    frontier; returns the reference frontier.
    """
    reference = power_frontier(tree, pm, cm, pre)
    arr_memo = power_frontier_array(tree, pm, cm, pre, memoize=True)
    arr_plain = power_frontier_array(tree, pm, cm, pre, memoize=False)
    assert arr_memo.pairs() == reference.pairs()
    assert arr_plain.pairs() == reference.pairs()
    return reference


def assert_roundtrip(frontier, tree, pm, cm, pre):
    """to_records -> from_records(verify=True) re-verifies every point."""
    rebuilt = type(frontier).from_records(
        tree, frontier.to_records(), pm, cm, pre, verify=True
    )
    assert rebuilt.pairs() == frontier.pairs()


class TestKernelEqualsCountsOracle:
    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=9, max_requests=6), st.data())
    def test_random_trees_with_pre_modes(self, tree, data):
        pre_nodes = data.draw(
            st.lists(
                st.integers(0, tree.n_nodes - 1), max_size=4, unique=True
            )
        )
        pre = {v: data.draw(st.integers(0, 1)) for v in pre_nodes}
        try:
            frontier = both_kernels(tree, PM, CM, pre)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                power_frontier_counts(tree, PM, CM, pre)
            return
        assert frontier.pairs() == power_frontier_counts(tree, PM, CM, pre)
        assert_roundtrip(frontier, tree, PM, CM, pre)

    @settings(max_examples=30, deadline=None)
    @given(small_trees(max_nodes=8, max_requests=6))
    def test_three_modes(self, tree):
        try:
            frontier = both_kernels(tree, PM3, CM3, {})
        except InfeasibleError:
            return
        assert frontier.pairs() == power_frontier_counts(tree, PM3, CM3)
        assert_roundtrip(frontier, tree, PM3, CM3, {})

    @settings(max_examples=25, deadline=None)
    @given(small_trees(max_nodes=8, max_requests=5))
    def test_negative_reuse_credit(self, tree):
        # delete > 1 + changed makes reuse prices negative, defeating the
        # identity fast path's non-negative-price condition — the branch
        # the count oracle must still agree with.
        dear = ModalCostModel.uniform(2, create=0.0, delete=5.0, changed=0.0)
        pre = {v: 0 for v in range(0, tree.n_nodes, 2)}
        frontier = both_kernels(tree, PM, dear, pre)
        assert frontier.pairs() == power_frontier_counts(tree, PM, dear, pre)
        assert_roundtrip(frontier, tree, PM, dear, pre)


class TestDegenerateInstances:
    def test_single_node(self):
        t = Tree([None], [Client(0, 4)])
        frontier = both_kernels(t, PM, CM, {})
        assert frontier.pairs() == power_frontier_counts(t, PM, CM)
        assert_roundtrip(frontier, t, PM, CM, {})

    def test_single_node_no_clients(self):
        t = Tree([None])
        frontier = both_kernels(t, PM, CM, {})
        assert frontier.pairs() == power_frontier_counts(t, PM, CM)

    def test_all_nodes_preexisting(self):
        t = Tree(
            [None, 0, 0, 1, 1],
            [Client(1, 3), Client(3, 2), Client(4, 5)],
        )
        pre = {v: v % 2 for v in range(t.n_nodes)}
        frontier = both_kernels(t, PM, CM, pre)
        assert frontier.pairs() == power_frontier_counts(t, PM, CM, pre)
        assert_roundtrip(frontier, t, PM, CM, pre)

    def test_load_exactly_w_max(self):
        # One client saturating the top mode: feasible, but only just —
        # every subtree flow sits at the w_max boundary the merge prunes
        # against.
        t = Tree([None, 0], [Client(1, 10)])
        frontier = both_kernels(t, PM, CM, {})
        assert frontier.pairs() == power_frontier_counts(t, PM, CM)

    def test_load_above_w_max_infeasible_same_error(self):
        t = Tree([None, 0], [Client(1, 11)])
        with pytest.raises(InfeasibleError):
            power_frontier(t, PM, CM)
        for memoize in (True, False):
            with pytest.raises(InfeasibleError):
                power_frontier_array(t, PM, CM, memoize=memoize)

    def test_every_node_saturated(self):
        # Every node carries exactly w_max of direct load: feasible only
        # by placing a replica on every node.
        t = Tree([None, 0, 0], [Client(1, 10), Client(2, 10), Client(0, 10)])
        frontier = both_kernels(t, PM, CM, {})
        assert frontier.pairs() == power_frontier_counts(t, PM, CM)
        best = frontier.min_power()
        assert set(best.server_modes) == {0, 1, 2}

    def test_deep_chain(self):
        n = 60
        t = Tree(
            [None] + list(range(n - 1)),
            [Client(v, 1) for v in range(0, n, 7)],
        )
        frontier = both_kernels(t, PM, CM, {n - 1: 1})
        assert_roundtrip(frontier, t, PM, CM, {n - 1: 1})


class TestMemoization:
    """The array kernel's AHU subtree memo."""

    def _star_of_stars(self):
        # Root with 4 identical 4-leaf stars: maximal repeated structure.
        parents: list[int | None] = [None]
        clients = []
        for _ in range(4):
            hub = len(parents)
            parents.append(0)
            for _ in range(4):
                leaf = len(parents)
                parents.append(hub)
                clients.append(Client(leaf, 2))
        return Tree(parents, clients)

    def test_identical_subtrees_share_tables(self):
        t = self._star_of_stars()
        stats = ParetoDPStats()
        frontier = power_frontier_array(t, PM, CM, stats=stats)
        assert stats.memo_hits >= 3  # hubs 2..4 answered from hub 1's table
        assert stats.memo_labels_shared > 0
        assert frontier.pairs() == power_frontier_counts(t, PM, CM)
        # Placements reconstructed through memo aliases must re-verify.
        assert_roundtrip(frontier, t, PM, CM, {})

    def test_memo_respects_pre_modes(self):
        # Same shape, but one hub's subtree contains a pre-existing server:
        # its table must NOT be shared with the plain hubs.
        t = self._star_of_stars()
        pre = {2: 1}  # a leaf of the first hub
        stats = ParetoDPStats()
        frontier = power_frontier_array(t, PM, CM, pre, stats=stats)
        plain = power_frontier_array(t, PM, CM, pre, memoize=False)
        assert frontier.pairs() == plain.pairs()
        assert frontier.pairs() == power_frontier_counts(t, PM, CM, pre)
        assert_roundtrip(frontier, t, PM, CM, pre)

    def test_load_split_across_clients_still_shares(self):
        # The memo keys on per-node load *sums*: one 4-request client and
        # two 2-request clients are the same subtree to the DP.  Hubs 1
        # and 2 root one-leaf subtrees whose leaf loads split differently.
        parents = [None, 0, 0, 1, 2]
        t1 = Tree(parents, [Client(3, 4), Client(4, 4)])
        t2 = Tree(parents, [Client(3, 4), Client(4, 2), Client(4, 2)])
        s2 = ParetoDPStats()
        f2 = power_frontier_array(t2, PM, CM, stats=s2)
        f1 = power_frontier_array(t1, PM, CM)
        assert f1.pairs() == f2.pairs()
        assert s2.memo_hits >= 1  # hub 2 shares hub 1's table

    def test_memo_only_retains_recurring_tables(self):
        # On a structure-free caterpillar no table key recurs; the memo
        # must not pin every node's fronts for the whole solve (the
        # tables should be freeable as the DFS unwinds).
        parents: list[int | None] = [None]
        clients = []
        for k in range(10):
            spine = len(parents)
            parents.append(spine - 1 if k else 0)
            leaf = len(parents)
            parents.append(spine)
            clients.append(Client(leaf, (k % 5) + 1))
        t = Tree(parents, clients)
        stats = ParetoDPStats()
        frontier = power_frontier_array(t, PM, CM, stats=stats)
        assert stats.memo_hits == 0
        assert frontier.pairs() == power_frontier_array(
            t, PM, CM, memoize=False
        ).pairs()

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=12, max_requests=3, client_prob=0.5))
    def test_memo_never_changes_the_frontier(self, tree):
        # Low request diversity makes collisions (hence memo hits) likely;
        # the frontier must not care.
        with contextlib.suppress(InfeasibleError):
            both_kernels(tree, PM, CM, {})


class TestZeroModePowerUnderflow:
    """The alias-soundness guard: ``p == 0.0`` does not imply "no
    placements" when every mode power underflows to exactly 0.0."""

    PM0 = PowerModel(
        ModeSet((5, 10)), static_power=0.0, alpha=2500.0, capacity_scale=100.0
    )

    def test_underflowed_powers_are_exactly_zero(self):
        assert [self.PM0.mode_power(m) for m in (0, 1)] == [0.0, 0.0]

    def test_frontier_matches_counts_oracle(self):
        t = Tree(
            [None, 0, 0, 1, 2],
            [Client(3, 6), Client(4, 6), Client(0, 6)],
        )
        frontier = both_kernels(t, self.PM0, CM, {})
        assert frontier.pairs() == power_frontier_counts(t, self.PM0, CM)
        # Every point must re-verify (a dropped placement cost would
        # fail the from_records re-pricing).
        assert_roundtrip(frontier, t, self.PM0, CM, {})

    @settings(max_examples=30, deadline=None)
    @given(small_trees(max_nodes=8, max_requests=6))
    def test_underflow_hypothesis(self, tree):
        try:
            frontier = both_kernels(tree, self.PM0, CM, {})
        except InfeasibleError:
            return
        assert frontier.pairs() == power_frontier_counts(tree, self.PM0, CM)


class TestBisectQueries:
    def _long_frontier(self):
        # A caterpillar with increasing loads yields many frontier points.
        parents: list[int | None] = [None]
        clients = []
        for k in range(12):
            spine = len(parents)
            parents.append(spine - 1 if k else 0)
            leaf = len(parents)
            parents.append(spine)
            clients.append(Client(leaf, (k % 5) + 1))
        return Tree(parents, clients)

    def test_queries_match_linear_reference(self):
        t = self._long_frontier()
        frontier = power_frontier(t, PM, CM)
        pairs = frontier.pairs()
        assert len(pairs) >= 4
        eps = 1e-9
        bounds = [pairs[0][0] - 1.0]
        for cost, _power in pairs:
            bounds += [cost - 1e-3, cost, cost + 1e-3]
        for bound in bounds:
            got = frontier.best_under_cost(bound)
            want = None
            for cost, power in pairs:
                if cost <= bound + eps:
                    want = (cost, power)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.cost, got.power) == pytest.approx(want)
        power_bounds = [pairs[-1][1] - 1.0]
        for _cost, power in pairs:
            power_bounds += [power - 1e-3, power, power + 1e-3]
        for bound in power_bounds:
            got = frontier.best_under_power(bound)
            want = None
            for cost, power in pairs:
                if power <= bound + eps:
                    want = (cost, power)
                    break
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.cost, got.power) == pytest.approx(want)

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=9, max_requests=6), st.floats(0.0, 40.0))
    def test_bound_queries_hypothesis(self, tree, bound):
        try:
            frontier = power_frontier(tree, PM, CM)
        except InfeasibleError:
            return
        pairs = frontier.pairs()
        got = frontier.best_under_cost(bound)
        want = [c for c, _ in pairs if c <= bound + 1e-9]
        if not want:
            assert got is None
        else:
            assert got is not None and got.cost == pytest.approx(want[-1])

    def test_shuffled_record_rejected(self):
        from repro.exceptions import SolverError
        from repro.power.dp_power_pareto import PowerFrontier

        t = self._long_frontier()
        frontier = power_frontier(t, PM, CM)
        records = frontier.to_records()
        assert len(records) >= 3
        records[0], records[-1] = records[-1], records[0]
        with pytest.raises(SolverError, match="cost-ascending"):
            PowerFrontier.from_records(t, records, PM, CM, {}, verify=True)


class TestStatsCoherence:
    def test_counter_relations(self):
        t = Tree(
            [None, 0, 0, 1, 1, 2, 2],
            [Client(v, (v % 4) + 1) for v in range(7)],
        )
        stats = ParetoDPStats()
        power_frontier_array(t, PM, CM, {3: 1}, stats=stats)
        assert stats.labels_created >= stats.labels_generated
        assert stats.merge_rejected >= 0
        assert stats.labels_generated >= stats.merge_rejected
        assert stats.memo_hits + stats.memo_misses >= 1
        assert 0.0 <= stats.prune_ratio <= 1.0
        assert 0.0 <= stats.generation_ratio <= 1.0

    def test_absorb_aggregates(self):
        t = Tree([None, 0], [Client(1, 3)])
        a = ParetoDPStats()
        power_frontier_array(t, PM, CM, stats=a)
        total = ParetoDPStats()
        total.absorb(a.as_dict()).absorb(a.as_dict())
        assert total.labels_created == 2 * a.labels_created
        assert total.merges == 2 * a.merges
        assert total.max_flow_keys == a.max_flow_keys


class TestArrayKernelContract:
    """Array-kernel specifics: lazy placements, columnar wire format,
    and the ``kernel=`` selection knob."""

    def _instance(self):
        parents = [None, 0, 0, 1, 1, 2, 2, 3, 4]
        clients = [Client(v, (v % 5) + 1) for v in range(3, 9)]
        return Tree(parents, clients), {2: 1, 5: 0}

    def test_lazy_placements_reverify(self):
        # Array-kernel points decode placements on demand from the
        # provenance log; every decoded witness must re-price exactly
        # through the from_records(verify=True) path.
        t, pre = self._instance()
        frontier = power_frontier_array(t, PM, CM, pre)
        assert_roundtrip(frontier, t, PM, CM, pre)

    def test_placements_price_correctly(self):
        t, pre = self._instance()
        fa = power_frontier_array(t, PM, CM, pre)
        for pt in fa.points:
            modes = pt.placement()
            if pt._root_mode is not None:
                modes[t.root] = pt._root_mode
            assert pt.power == pytest.approx(
                sum(PM.mode_power(m) for m in modes.values()), abs=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=9, max_requests=6), st.data())
    def test_roundtrip_hypothesis(self, tree, data):
        pre_nodes = data.draw(
            st.lists(
                st.integers(0, tree.n_nodes - 1), max_size=4, unique=True
            )
        )
        pre = {v: data.draw(st.integers(0, 1)) for v in pre_nodes}
        try:
            frontier = power_frontier_array(tree, PM, CM, pre)
        except InfeasibleError:
            return
        assert_roundtrip(frontier, tree, PM, CM, pre)

    def test_columnar_roundtrip(self):
        from repro.power.serialize import (
            frontier_from_columnar,
            frontier_to_columnar,
        )

        t, pre = self._instance()
        frontier = power_frontier_array(t, PM, CM, pre)
        data = frontier_to_columnar(frontier)
        rebuilt = frontier_from_columnar(t, data, PM, CM, pre, verify=True)
        assert rebuilt.pairs() == frontier.pairs()
        for a, b in zip(rebuilt.points, frontier.points, strict=True):
            full = b.placement()
            if b._root_mode is not None:
                full[t.root] = b._root_mode
            assert a.placement() == full
        # Encoding is deterministic: same frontier, same bytes.
        assert frontier_to_columnar(rebuilt) == data

    def test_columnar_rejects_foreign_dtype(self):
        from repro.exceptions import ConfigurationError
        from repro.power.serialize import (
            frontier_from_columnar,
            frontier_to_columnar,
        )

        t, pre = self._instance()
        data = frontier_to_columnar(power_frontier_array(t, PM, CM, pre))
        assert data["dtype"] == "<f8"
        bad = dict(data, dtype=">f8")
        with pytest.raises(ConfigurationError, match="dtype"):
            frontier_from_columnar(t, bad, PM, CM, pre)
        unknown = dict(data, columnar_schema=99)
        with pytest.raises(ConfigurationError, match="schema"):
            frontier_from_columnar(t, unknown, PM, CM, pre)


#: Leaf loads for the fan trees: empty leaves and loads equal to a mode
#: capacity (5 and 10 for PM, 3 and 6 for PM3).
_FAN_LOADS = st.sampled_from([0, 0, 1, 2, 3, 5, 6, 10])


@st.composite
def fan_trees(draw):
    """Trees whose internal nodes carry wide fans of childless children.

    Each hub folds a leading run of leaves, optionally an internal child
    (a smaller fan of its own) and then trailing leaves, which take the
    general merge path; some hubs have leaves only.
    """
    parents: list[int | None] = [None]
    loads = [draw(st.integers(0, 4))]

    def add(parent: int, load: int) -> int:
        parents.append(parent)
        loads.append(load)
        return len(parents) - 1

    def fan(hub: int, depth: int) -> None:
        for _ in range(draw(st.integers(0, 8))):
            add(hub, draw(_FAN_LOADS))
        for _ in range(draw(st.integers(0, 2)) if depth < 2 else 0):
            sub = add(hub, draw(st.integers(0, 4)))
            fan(sub, depth + 1)
            for _ in range(draw(st.integers(0, 2))):
                add(hub, draw(_FAN_LOADS))

    fan(0, 0)
    clients = [Client(v, load) for v, load in enumerate(loads) if load]
    return Tree(parents, clients)


def _assert_fold_equals_per_child_fold(tree, pm, cm, pre):
    """Solve with and without leaf-run folds; everything must agree.

    With no leading runs every child takes the general numpy merge: the
    list fold must give the same pairs, the same witness for every point
    (ties kept in the same build order) and the same counters, generated
    and rejected candidates included.  Returns the folded frontier.
    """
    from unittest import mock

    from repro.power import dp_power_array

    def solve():
        stats = ParetoDPStats()
        try:
            frontier = power_frontier_array(tree, pm, cm, pre, stats=stats)
        except InfeasibleError:
            return None, None
        witnesses = [(pt.placement(), pt._root_mode) for pt in frontier.points]
        return (frontier.pairs(), witnesses, stats.as_dict()), frontier

    folded, frontier = solve()
    with mock.patch.object(dp_power_array, "_leading_run", lambda *_: 0):
        per_child, _ = solve()
    assert folded == per_child
    return frontier


class TestLeafRunFold:
    """The array kernel folds each node's leading childless children on
    lists: pairs must equal the reference's, and pairs, witnesses and
    every counter the per-child fold's."""

    PRICES = {
        "default": CM,
        # delete > 1: reused leaves carry a negative price and may host
        # idle, so empty reused leaves leave the identity skip.
        "dear-delete": ModalCostModel.uniform(2, create=0.1, delete=1.5),
        "free-create": ModalCostModel.uniform(2, create=0.0, delete=0.01),
    }

    def _check(self, tree, pm, cm, pre):
        try:
            ft = power_frontier(tree, pm, cm, pre)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                power_frontier_array(tree, pm, cm, pre)
            return
        fa = power_frontier_array(tree, pm, cm, pre)
        fp = power_frontier_array(tree, pm, cm, pre, memoize=False)
        assert fa.pairs() == ft.pairs() == fp.pairs()
        assert_roundtrip(fa, tree, pm, cm, pre)

    @settings(max_examples=60, deadline=None)
    @given(fan_trees(), st.sampled_from(sorted(PRICES)), st.data())
    def test_fan_trees(self, tree, prices, data):
        pre_nodes = data.draw(
            st.lists(st.integers(0, tree.n_nodes - 1), max_size=6, unique=True)
        )
        pre = {v: data.draw(st.integers(0, 1)) for v in pre_nodes}
        self._check(tree, PM, self.PRICES[prices], pre)

    @settings(max_examples=25, deadline=None)
    @given(fan_trees())
    def test_fan_trees_three_modes(self, tree):
        self._check(tree, PM3, CM3, {v: v % 3 for v in range(1, tree.n_nodes, 3)})

    @settings(max_examples=25, deadline=None)
    @given(fan_trees())
    def test_fan_trees_underflowed_powers(self, tree):
        # Zero mode powers switch the alias sentinel off: empty leaves
        # then merge like any other child.
        self._check(tree, TestZeroModePowerUnderflow.PM0, CM, {})

    @settings(max_examples=150, deadline=None)
    @given(fan_trees(), st.sampled_from(sorted(PRICES) + ["free-reuse"]), st.data())
    def test_fold_equals_the_per_child_fold(self, tree, prices, data):
        pre_nodes = data.draw(
            st.lists(st.integers(0, tree.n_nodes - 1), max_size=6, unique=True)
        )
        pre = {v: data.draw(st.integers(0, 1)) for v in pre_nodes}
        if prices == "free-reuse":
            # Zero mode powers and a zero reuse price: an idle reused
            # leaf ties exactly with passing it by.
            pm = TestZeroModePowerUnderflow.PM0
            cm = ModalCostModel.uniform(2, create=0.1, delete=1.0, changed=0.0)
        else:
            pm, cm = PM, self.PRICES[prices]
        _assert_fold_equals_per_child_fold(tree, pm, cm, pre)

    def test_tied_idle_reused_leaves_keep_the_per_child_witness(self):
        # Two empty leaves reused at mode 0 under delete > 1: hosting
        # either one alone gives the same (g, p), and the middle point's
        # witness depends on the candidate build order of that bucket.
        tree = Tree([None, 0, 0, 0], [Client(0, 2), Client(3, 4)])
        frontier = _assert_fold_equals_per_child_fold(
            tree, PM, self.PRICES["dear-delete"], {1: 0, 2: 0}
        )
        assert len(frontier.points) >= 3

    def test_all_leaf_star_with_every_leaf_kind(self):
        # Root whose children are all leaves: empty, empty reused, loads
        # equal to both capacities, and ordinary loads.
        loads = [2, 0, 0, 5, 10, 3, 0, 5, 1]
        tree = Tree(
            [None] + [0] * (len(loads) - 1),
            [Client(v, x) for v, x in enumerate(loads) if x],
        )
        for cm in self.PRICES.values():
            self._check(tree, PM, cm, {2: 0, 6: 1, 7: 1})

    def test_leaves_after_an_internal_child(self):
        # Root children: leaves 1-3 (the run), hub 4, then leaves 5-6,
        # which fold on the general path.
        tree = Tree(
            [None, 0, 0, 0, 0, 0, 0, 4, 4],
            [Client(1, 5), Client(2, 3), Client(4, 1), Client(5, 10),
             Client(6, 2), Client(7, 4), Client(8, 5)],
        )
        for cm in self.PRICES.values():
            self._check(tree, PM, cm, {3: 0, 5: 1, 8: 0})
