"""Pin the paper's Figures 1 and 2 claims (§3.1, §4.1)."""

from __future__ import annotations

import pytest

from repro.core.costs import UniformCostModel
from repro.core.dp_withpre import replica_update
from repro.core.solution import server_loads
from repro.experiments.worked_examples import figure1_example, figure2_example
from repro.power.kernels import min_power

COST = UniformCostModel(0.1, 0.01)


class TestFigure1:
    def test_local_flows_match_prose(self):
        ex = figure1_example(2)
        # keep B -> 7 requests traverse A
        _, unserved = server_loads(ex.tree, [ex.node_b])
        assert unserved == 7 + 2
        loads, _ = server_loads(ex.tree, [ex.node_b, ex.root])
        assert loads[ex.root] == 7 + 2
        # new server on C -> only 4 requests traverse A
        loads, _ = server_loads(ex.tree, [ex.node_c, ex.root])
        assert loads[ex.node_c] == 7 and loads[ex.root] == 4 + 2

    def test_two_requests_keeps_b(self):
        ex = figure1_example(2)
        res = replica_update(ex.tree, ex.capacity, ex.preexisting, COST)
        assert res.replicas == {ex.root, ex.node_b}
        assert res.n_reused == 1
        assert res.cost == pytest.approx(2.1)

    def test_four_requests_deletes_b(self):
        ex = figure1_example(4)
        res = replica_update(ex.tree, ex.capacity, ex.preexisting, COST)
        assert res.replicas == {ex.root, ex.node_c}
        assert res.n_reused == 0
        assert res.cost == pytest.approx(2 + 2 * 0.1 + 0.01)

    def test_keeping_b_with_four_requests_is_infeasible_pairwise(self):
        # {B, r} would force the root to serve 7 + 4 = 11 > 10.
        ex = figure1_example(4)
        loads, _ = server_loads(ex.tree, [ex.node_b, ex.root])
        assert loads[ex.root] == 11


class TestFigure2:
    def test_power_constants_match_prose(self):
        ex = figure2_example(4)
        # §4.1: 20 + 2·7² = 118 > 10 + 10² = 110
        two_w1 = 2 * ex.power_model.mode_power(0)
        one_w2 = ex.power_model.mode_power(1)
        assert two_w1 == pytest.approx(118.0)
        assert one_w2 == pytest.approx(110.0)
        assert two_w1 > one_w2

    def test_four_requests_lets_three_through(self):
        ex = figure2_example(4)
        res = min_power(ex.tree, ex.power_model, ex.cost_model)
        assert set(res.server_modes) == {ex.node_c, ex.root}
        assert res.server_modes[ex.node_c] == 0
        assert res.server_modes[ex.root] == 0  # serves 3 + 4 = 7 <= W1
        assert res.power == pytest.approx(118.0)

    def test_ten_requests_blocks_subtree(self):
        ex = figure2_example(10)
        res = min_power(ex.tree, ex.power_model, ex.cost_model)
        assert set(res.server_modes) == {ex.node_a, ex.root}
        assert res.server_modes[ex.node_a] == 1  # absorbs all 10
        assert res.power == pytest.approx(220.0)
