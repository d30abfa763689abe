"""Tests for the MinPower DP: the plain reference kernel
(:func:`repro.power.dp_power_pareto.power_frontier`) and the
MinPower(-BoundedCost) entry points of :mod:`repro.power.kernels`, which
run the production engine."""

from __future__ import annotations

import pytest

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.power.dp_power_pareto import power_frontier
from repro.power.kernels import min_power, min_power_bounded_cost
from repro.power.modes import ModeSet, PowerModel
from repro.tree.model import Client, Tree

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)


class TestFrontierShape:
    def test_frontier_monotone(self, chain_tree):
        pairs = power_frontier(chain_tree, PM, CM).pairs()
        costs = [c for c, _ in pairs]
        powers = [p for _, p in pairs]
        assert costs == sorted(costs)
        assert powers == sorted(powers, reverse=True)
        assert len(set(costs)) == len(costs)

    def test_single_node(self):
        t = Tree([None], [Client(0, 4)])
        frontier = power_frontier(t, PM, CM)
        assert frontier.pairs() == [(pytest.approx(1.1), pytest.approx(137.5))]

    def test_no_clients_empty_solution(self):
        t = Tree([None, 0])
        frontier = power_frontier(t, PM, CM, {1: 1})
        # Cheapest: delete the unused pre-existing server.
        assert frontier.min_cost() == pytest.approx(0.01)
        best = frontier.best_under_cost(10)
        assert best is not None and best.server_modes == {}

    def test_min_power_balances_modes(self):
        # 8 requests total: one W2 server costs 1012.5, two W1 servers only
        # 275 — the optimum load-balances across slow modes (§4.1's moral).
        t = Tree([None, 0, 0], [Client(1, 4), Client(2, 4)])
        res = min_power(t, PM, CM)
        assert res.power == pytest.approx(2 * 137.5)
        assert set(res.server_modes.values()) == {0}

    def test_reconstruction_matches_frontier_points(self, chain_tree):
        frontier = power_frontier(chain_tree, PM, CM, {0: 1})
        for cost, power in frontier.pairs():
            sol = frontier.best_under_cost(cost)
            assert sol is not None
            assert sol.cost == pytest.approx(cost)
            assert sol.power == pytest.approx(power)


class TestBoundQueries:
    def test_best_under_cost_none_below_min(self, chain_tree):
        frontier = power_frontier(chain_tree, PM, CM)
        assert frontier.best_under_cost(frontier.min_cost() - 0.5) is None

    def test_best_under_cost_at_exact_cost(self, chain_tree):
        frontier = power_frontier(chain_tree, PM, CM)
        best = frontier.best_under_cost(frontier.min_cost())
        assert best is not None

    def test_min_power_bounded_cost_raises(self, chain_tree):
        with pytest.raises(InfeasibleError, match="cheapest"):
            min_power_bounded_cost(chain_tree, PM, CM, 0.1)

    def test_min_power_bounded_cost_solves(self, chain_tree):
        res = min_power_bounded_cost(chain_tree, PM, CM, 100.0)
        assert res.power == power_frontier(chain_tree, PM, CM).pairs()[-1][1]

    def test_best_under_power_dual_query(self, chain_tree):
        frontier = power_frontier(chain_tree, PM, CM)
        pairs = frontier.pairs()
        # Loose power cap -> cheapest point; tight cap -> dearest point.
        loose = frontier.best_under_power(pairs[0][1])
        assert loose is not None and loose.cost == pytest.approx(pairs[0][0])
        tight = frontier.best_under_power(pairs[-1][1])
        assert tight is not None and tight.cost == pytest.approx(pairs[-1][0])
        assert frontier.best_under_power(pairs[-1][1] - 1.0) is None

    def test_dual_query_consistent_with_exhaustive(self):
        from repro.core.exhaustive import iter_valid_placements
        from repro.power.result import modal_from_replicas

        t = Tree([None, 0, 0], [Client(1, 4), Client(2, 7), Client(0, 2)])
        frontier = power_frontier(t, PM, CM)
        for _, power_cap in frontier.pairs():
            got = frontier.best_under_power(power_cap)
            assert got is not None
            best_cost = min(
                modal_from_replicas(t, r, PM, CM).cost
                for r, _ in iter_valid_placements(t, 10)
                if modal_from_replicas(t, r, PM, CM).power <= power_cap + 1e-9
            )
            assert got.cost == pytest.approx(best_cost)


class TestPreexistingHandling:
    def test_reuse_lowers_cost(self, chain_tree):
        without = power_frontier(chain_tree, PM, CM).min_cost()
        with_pre = power_frontier(chain_tree, PM, CM, {0: 1}).min_cost()
        assert with_pre < without

    def test_idle_preexisting_kept_when_deletion_expensive(self):
        t = Tree([None, 0], [Client(1, 4)])
        dear = ModalCostModel.uniform(2, create=0.0, delete=5.0, changed=0.0)
        frontier = power_frontier(t, PM, dear, {0: 0, 1: 0})
        best = frontier.best_under_cost(3.0)
        assert best is not None
        # Keeping both (cost 2) beats one server + one deletion (cost 6).
        assert best.replicas == {0, 1}

    def test_mode_change_priced(self):
        t = Tree([None], [Client(0, 9)])  # forces mode 1
        cm = ModalCostModel(
            create=(0.1, 0.1),
            delete=(0.0, 0.0),
            changed=((0.0, 7.0), (0.0, 0.0)),
        )
        frontier = power_frontier(t, PM, cm, {0: 0})
        # Upgrading the pre-existing mode-0 server to mode 1 costs 1 + 7.
        assert frontier.min_cost() == pytest.approx(8.0)

    def test_invalid_preexisting_rejected(self, chain_tree):
        with pytest.raises(ConfigurationError):
            power_frontier(chain_tree, PM, CM, {99: 0})
        with pytest.raises(ConfigurationError):
            power_frontier(chain_tree, PM, CM, {0: 9})


class TestErrors:
    def test_infeasible_load(self):
        t = Tree([None], [Client(0, 11)])
        with pytest.raises(InfeasibleError):
            power_frontier(t, PM, CM)

    def test_mode_count_mismatch(self, chain_tree):
        with pytest.raises(ConfigurationError, match="modes"):
            power_frontier(chain_tree, PM, ModalCostModel.uniform(3))


class TestThreeModes:
    def test_three_mode_instance(self):
        pm3 = PowerModel(ModeSet((3, 6, 12)), static_power=5.0, alpha=2.0)
        cm3 = ModalCostModel.uniform(3, create=0.1, delete=0.01, changed=0.001)
        t = Tree(
            [None, 0, 0, 1],
            [Client(1, 3), Client(2, 6), Client(3, 3), Client(0, 2)],
        )
        frontier = power_frontier(t, pm3, cm3, {1: 2})
        pairs = frontier.pairs()
        assert pairs  # non-empty and monotone
        best = frontier.min_power()
        assert all(0 <= m <= 2 for m in best.server_modes.values())
