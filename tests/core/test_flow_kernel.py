"""Oracle rungs of MinCost-WithPre's flow kernel.

:func:`~repro.core.dp_withpre.replica_update` answers Equation-2 models
with the flow-indexed kernel.  It is pinned here against the Theorem-1
``(e, n)`` kernel (:func:`~repro.core.dp_withpre.theorem1_update`), the
classical MinCost-NoPre DP at ``E = ∅``, exact enumeration on small
trees, and the one-mode power frontier (the paper's two problems agree
when a single mode prices servers like Equation 2).

The checks are plain functions so that ``benchmarks/bench_mincost_flow.py``
can run them at production sizes (n up to 800) as the deep profile.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import ModalCostModel, UniformCostModel
from repro.core.dp_nopre import dp_nopre_placement
from repro.core.dp_withpre import replica_update, theorem1_update
from repro.core.exhaustive import iter_valid_placements
from repro.core.solution import PlacementResult
from repro.power.dp_power_pareto import power_frontier
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting
from repro.tree.model import Client, Tree

from tests.conftest import trees_with_preexisting

#: ``create × delete`` grid plus the golden price sets: prices whose exact
#: ties are exact in floats too, so costs must match bit for bit.
GRID = sorted(
    {(c, d) for c in (0.0, 0.1, 0.5, 2.0) for d in (0.0, 0.01, 0.3, 1.5, 5.0)}
    | {(0.0, 5.0), (1e-4, 1e-5), (0.1, 0.01), (0.2, 0.05), (0.3, 1.5), (0.5, 2.0)}
)

Instance = tuple[Tree, int, frozenset[int]]


@st.composite
def mincost_instances(draw, max_nodes: int = 60, max_capacity: int = 200) -> Instance:
    """Paper trees of any fan-out with ``W`` up to ``max_capacity``.

    Loads go up to 6 or up to ``W``, so a large ``W`` gives both sparse
    staircases (few reachable flows) and dense ones.  ``E`` is any size,
    sometimes with the root in it (the idle-reuse option).
    """
    n = draw(st.integers(1, max_nodes))
    capacity = draw(st.integers(1, max_capacity))
    max_load = draw(st.sampled_from([min(6, capacity), capacity]))
    seed = draw(st.integers(0, 2**32 - 1))
    tree = paper_tree(
        n,
        children_range=draw(st.sampled_from([(6, 9), (2, 4), (1, 2)])),
        client_prob=draw(st.sampled_from([0.5, 1.0])),
        request_range=(1, max_load),
        rng=seed,
    )
    pre = random_preexisting(tree, draw(st.integers(0, n)), rng=seed + 1)
    if draw(st.booleans()):
        pre |= {tree.root}
    return tree, capacity, pre


def exact_weight(result: PlacementResult, model: UniformCostModel) -> Fraction:
    """Equation 2 without the constant ``|E|·delete``, in exact arithmetic."""
    reused = result.n_reused
    new = result.n_replicas - reused
    return reused * (1 - Fraction(model.delete)) + new * (1 + Fraction(model.create))


def check_against_theorem1(instance: Instance, model: UniformCostModel) -> None:
    """Same optimum as the Theorem-1 kernel; bit-identical cost on ``GRID``."""
    tree, capacity, pre = instance
    flow = replica_update(tree, capacity, pre, model)
    oracle = theorem1_update(tree, capacity, pre, model)
    assert exact_weight(flow, model) <= exact_weight(oracle, model)
    assert flow.cost == model.total(flow.n_replicas, flow.n_reused, len(pre))
    if (model.create, model.delete) in GRID:
        assert flow.cost == oracle.cost
    choice = flow.extra["root_choice"]
    assert choice.e + choice.n + choice.root_replica == flow.n_replicas
    assert choice.residual == flow.loads.get(tree.root, 0)


def check_against_nopre(tree: Tree, capacity: int, model: UniformCostModel) -> None:
    """At ``E = ∅`` Equation 2 counts servers: MinCost-NoPre's optimum."""
    flow = replica_update(tree, capacity, (), model)
    servers = dp_nopre_placement(tree, capacity).n_replicas
    assert flow.n_replicas == servers
    assert flow.cost == model.total(servers, 0, 0)


def check_against_power_frontier(instance: Instance, model: UniformCostModel) -> None:
    """One mode of capacity ``W`` with ``changed = 0``: Equation 4 is
    Equation 2, so the frontier's cheapest point is the MinCost optimum."""
    tree, capacity, pre = instance
    frontier = power_frontier(
        tree,
        PowerModel(ModeSet((capacity,))),
        ModalCostModel.uniform(1, create=model.create, delete=model.delete, changed=0.0),
        {v: 0 for v in pre},
    )
    cost = replica_update(tree, capacity, pre, model).cost
    assert abs(frontier.points[0].cost - cost) <= 1e-9


prices = st.sampled_from(GRID)
any_prices = st.builds(
    UniformCostModel,
    st.floats(0.0, 10.0, allow_subnormal=False),
    st.floats(0.0, 10.0, allow_subnormal=False),
)


class TestAgainstTheorem1:
    @settings(max_examples=200, deadline=None)
    @given(mincost_instances(), prices)
    def test_grid_prices_bit_identical(self, instance, price):
        check_against_theorem1(instance, UniformCostModel(*price))

    @settings(max_examples=80, deadline=None)
    @given(mincost_instances(), any_prices)
    def test_arbitrary_prices_never_above_theorem1(self, instance, model):
        check_against_theorem1(instance, model)


class TestAgainstNoPre:
    @settings(max_examples=60, deadline=None)
    @given(mincost_instances(max_nodes=200), prices)
    def test_empty_preexisting_counts_servers(self, instance, price):
        tree, capacity, _ = instance
        check_against_nopre(tree, capacity, UniformCostModel(*price))


class TestAgainstEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(
        trees_with_preexisting(max_nodes=10, max_requests=6),
        st.integers(6, 14),
        st.one_of(prices.map(lambda p: UniformCostModel(*p)), any_prices),
    )
    def test_exact_optimum(self, tree_pre, capacity, model):
        tree, pre = tree_pre
        flow = replica_update(tree, capacity, pre, model)
        best = min(
            len(r & pre) * (1 - Fraction(model.delete))
            + len(r - pre) * (1 + Fraction(model.create))
            for r, _ in iter_valid_placements(tree, capacity)
        )
        assert exact_weight(flow, model) == best


class TestAgainstPowerFrontier:
    @settings(max_examples=40, deadline=None)
    @given(mincost_instances(max_capacity=40), prices)
    def test_one_mode_frontier_cheapest_point(self, instance, price):
        check_against_power_frontier(instance, UniformCostModel(*price))


class TestDispatch:
    def test_other_cost_models_run_theorem1(self):
        class Doubled:
            def total(self, n_servers, n_reused, n_preexisting):
                return 2 * UniformCostModel().total(n_servers, n_reused, n_preexisting)

        tree = paper_tree(40, rng=3)
        pre = random_preexisting(tree, 6, rng=4)
        got = replica_update(tree, 10, pre, Doubled())
        assert got.cost == 2 * replica_update(tree, 10, pre).cost

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("price", [(float("inf"), 0.01), (0.1, float("inf"))])
    def test_infinite_prices_run_theorem1(self, price):
        tree = paper_tree(30, rng=5)
        pre = random_preexisting(tree, 4, rng=6)
        model = UniformCostModel(*price)
        got = replica_update(tree, 10, pre, model)
        assert got.replicas == theorem1_update(tree, 10, pre, model).replicas

    def test_capacity_above_every_subtree_total(self):
        # W far above every subtree total: staircases span only the flows
        # a subtree can produce, so a huge W costs nothing extra.
        tree = paper_tree(400, rng=7)
        pre = random_preexisting(tree, 50, rng=8)
        model = UniformCostModel(0.1, 0.01)
        wide = replica_update(tree, 10**9, pre, model)
        assert wide.cost == theorem1_update(tree, 10**9, pre, model).cost


class TestFreeReuse:
    """At ``delete == 1.0`` Equation 2 refunds a reused server's unit
    charge in full, so the server weighs nothing and hosting it ties."""

    #: Root with a client, a childless node 2 without clients, and node 3
    #: (a client of 2 requests) under node 1.
    TREE = Tree([None, 0, 0, 1], [Client(0, 3), Client(3, 2)])
    MODEL = UniformCostModel(0.1, 1.0)

    @pytest.mark.parametrize("pre", [{2}, {1, 2}])
    def test_idle_preexisting_leaf_is_not_hosted(self, pre):
        # Childless servers are hosted only as far as the fewest of them
        # bring their flow to 0, so the idle one is left out, as the
        # Theorem-1 kernel leaves it out.
        got = replica_update(self.TREE, 10, pre, self.MODEL)
        oracle = theorem1_update(self.TREE, 10, pre, self.MODEL)
        assert 2 not in got.replicas and 2 not in oracle.replicas
        assert got.cost == oracle.cost
