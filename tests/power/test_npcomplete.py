"""Tests for :mod:`repro.power.npcomplete` (Theorem 2's reduction)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError
from repro.power.kernels import min_power
from repro.power.npcomplete import (
    build_reduction,
    partition_from_placement,
    solve_two_partition_via_minpower,
    two_partition_reference,
)


class TestReference:
    def test_satisfiable(self):
        subset = two_partition_reference([3, 5, 4, 6, 2, 4])
        assert subset is not None
        vals = [3, 5, 4, 6, 2, 4]
        assert sum(vals[i] for i in subset) == 12

    def test_unsatisfiable_odd_sum(self):
        assert two_partition_reference([1, 2]) is None

    def test_unsatisfiable_even_sum(self):
        assert two_partition_reference([2, 2, 2, 2, 4, 10]) is None

    def test_single_item(self):
        assert two_partition_reference([4]) is None

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    def test_certificates_always_balanced(self, vals):
        subset = two_partition_reference(vals)
        if subset is not None:
            assert sum(vals[i] for i in subset) == sum(vals) // 2


class TestConstruction:
    def test_gadget_shape(self):
        red = build_reduction([3, 5, 4, 6, 2, 4])
        n = 6
        assert red.tree.n_nodes == 2 * n + 1
        assert red.tree.root == 0
        for i in range(n):
            assert red.tree.parent(red.a_nodes[i]) == 0
            assert red.tree.parent(red.b_nodes[i]) == red.a_nodes[i]
        # modes: W1, one per distinct item, plus W_{n+2}
        distinct = len(set([3, 5, 4, 6, 2, 4]))
        assert red.power_model.modes.n_modes == distinct + 2

    def test_scaled_loads(self):
        vals = [2, 4, 4, 6]
        red = build_reduction(vals)
        k = 4 * 16 * 16  # n·S²
        sigma = 2 * k
        assert red.scale == sigma
        assert red.tree.client_load(0) == sigma * k + sum(vals) // 2
        for i, a in enumerate(vals):
            assert red.tree.client_load(red.a_nodes[i]) == a
            assert red.tree.client_load(red.b_nodes[i]) == sigma * k

    def test_rejects_bad_instances(self):
        with pytest.raises(ConfigurationError):
            build_reduction([])
        with pytest.raises(ConfigurationError):
            build_reduction([0, 2])
        with pytest.raises(ConfigurationError, match="odd"):
            build_reduction([1, 2])
        # Paper erratum guard: an item >= S/2 breaks the gadget.
        with pytest.raises(ConfigurationError, match="max"):
            build_reduction([1, 1, 2, 4])


class TestTheorem2BothDirections:
    def test_yes_instance_lands_under_pmax(self):
        vals = [3, 5, 4, 6, 2, 4]
        red = build_reduction(vals)
        free = ModalCostModel.uniform(
            red.power_model.modes.n_modes, create=0.0, delete=0.0, changed=0.0
        )
        opt = min_power(red.tree, red.power_model, free)
        assert opt.power <= red.p_max + 1e-6
        subset = partition_from_placement(red, opt.server_modes)
        assert sum(vals[i] for i in subset) == sum(vals) // 2
        # Structure from the proof: exactly one server per branch + root.
        assert opt.n_replicas == len(vals) + 1
        assert 0 in opt.server_modes

    def test_no_instance_stays_above_pmax(self):
        vals = [2, 2, 2, 2, 4, 10]  # even sum 22, all even, target 11 odd
        red = build_reduction(vals)
        free = ModalCostModel.uniform(
            red.power_model.modes.n_modes, create=0.0, delete=0.0, changed=0.0
        )
        opt = min_power(red.tree, red.power_model, free)
        assert opt.power > red.p_max + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 10), min_size=2, max_size=5))
    def test_decision_matches_reference(self, vals):
        via_power = solve_two_partition_via_minpower(vals)
        ref = two_partition_reference(vals)
        assert (via_power is None) == (ref is None)
        if via_power is not None:
            assert sum(vals[i] for i in via_power) == sum(vals) // 2

    def test_degenerate_items_handled_directly(self):
        # max == S/2: trivially satisfiable by the singleton.
        assert solve_two_partition_via_minpower([1, 1, 2, 4]) == {3}
        # max > S/2: trivially unsatisfiable.
        assert solve_two_partition_via_minpower([1, 1, 8]) is None
        # odd sum: unsatisfiable.
        assert solve_two_partition_via_minpower([1, 2]) is None
