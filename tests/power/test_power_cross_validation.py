"""Cross-validation of the power solvers.

The Pareto-label engine, the paper-faithful count-vector DP and the
exhaustive oracle must produce identical (cost, power) frontiers; GR must
never beat the frontier.  This is the machine-checked proof of the Pareto
solver's dominance argument (the module docstring of
:mod:`repro.power.dp_power_pareto`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import ModalCostModel
from repro.exceptions import InfeasibleError
from repro.power.dp_power_counts import power_frontier_counts
from repro.power.dp_power_pareto import power_frontier
from repro.power.exhaustive_power import exhaustive_min_power, exhaustive_power_frontier
from repro.power.greedy_power import greedy_power_candidates
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting_modes

from tests.conftest import small_trees

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)


def _preexisting(draw_ints, tree):
    return {v: m for v, m in draw_ints if v < tree.n_nodes}


def assert_frontiers_equal(a, b):
    assert len(a) == len(b), (a, b)
    for (c1, p1), (c2, p2) in zip(a, b, strict=True):
        assert c1 == pytest.approx(c2, abs=1e-6)
        assert p1 == pytest.approx(p2, abs=1e-6)


class TestFrontierAgreement:
    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=8, max_requests=5), st.data())
    def test_pareto_equals_counts_equals_exhaustive(self, tree, data):
        pre_nodes = data.draw(
            st.lists(st.integers(0, tree.n_nodes - 1), max_size=3, unique=True)
        )
        pre = {v: data.draw(st.integers(0, 1)) for v in pre_nodes}
        try:
            par = power_frontier(tree, PM, CM, pre).pairs()
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                exhaustive_power_frontier(tree, PM, CM, pre)
            return
        cnt = power_frontier_counts(tree, PM, CM, pre)
        exh = exhaustive_power_frontier(tree, PM, CM, pre)
        assert_frontiers_equal(par, cnt)
        assert_frontiers_equal(par, exh)

    @settings(max_examples=30, deadline=None)
    @given(small_trees(max_nodes=7, max_requests=5))
    def test_three_mode_agreement(self, tree):
        pm = PowerModel(ModeSet((3, 6, 10)), static_power=2.0, alpha=2.0)
        cm = ModalCostModel.uniform(3, create=0.2, delete=0.05, changed=0.01)
        try:
            par = power_frontier(tree, pm, cm).pairs()
        except InfeasibleError:
            return
        assert_frontiers_equal(par, power_frontier_counts(tree, pm, cm))
        assert_frontiers_equal(par, exhaustive_power_frontier(tree, pm, cm))

    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=8, max_requests=5), st.floats(1.0, 30.0))
    def test_bounded_query_matches_exhaustive(self, tree, bound):
        try:
            expected = exhaustive_min_power(tree, PM, CM, cost_bound=bound)
        except InfeasibleError:
            frontier = power_frontier(tree, PM, CM)
            assert frontier.best_under_cost(bound) is None
            return
        got = power_frontier(tree, PM, CM).best_under_cost(bound)
        assert got is not None
        assert got.power == pytest.approx(expected.power)
        assert got.cost <= bound + 1e-9


class TestGreedyNeverBeatsOptimal:
    @settings(max_examples=50, deadline=None)
    @given(small_trees(max_nodes=9, max_requests=5))
    def test_gr_dominated_by_frontier(self, tree):
        try:
            frontier = power_frontier(tree, PM, CM).pairs()
        except InfeasibleError:
            return
        for cost, power in greedy_power_candidates(tree, PM, CM).pairs():
            assert any(
                fc <= cost + 1e-6 and fp <= power + 1e-6 for fc, fp in frontier
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_paper_scale_dp_at_least_as_good(self, seed):
        rng = np.random.default_rng(seed)
        tree = paper_tree(50, request_range=(1, 5), rng=rng)
        pre = random_preexisting_modes(tree, 5, 2, rng=rng, mode=1)
        frontier = power_frontier(tree, PM, CM, pre)
        gr = greedy_power_candidates(tree, PM, CM, pre)
        for bound in range(10, 50, 5):
            dp_best = frontier.best_under_cost(bound)
            gr_best = gr.best_under_cost(bound)
            if gr_best is not None:
                assert dp_best is not None
                assert dp_best.power <= gr_best.power + 1e-6
