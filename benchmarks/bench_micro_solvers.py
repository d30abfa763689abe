"""Micro-benchmarks: per-solver latency distributions on fixed instances.

Unlike the figure benches (single-shot experiment campaigns), these run
each solver many times under pytest-benchmark so regressions in the hot
paths (min-plus merges, label pruning, greedy flows) show up as
statistically meaningful timing shifts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import ModalCostModel, UniformCostModel
from repro.core.dp_nopre import dp_nopre_placement
from repro.core.dp_withpre import replica_update
from repro.core.greedy import greedy_placement
from repro.power.greedy_power import greedy_power_candidates
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting, random_preexisting_modes

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
PM3 = PowerModel(ModeSet((3, 6, 12)), static_power=5.0, alpha=2.0)
CM3 = ModalCostModel.uniform(3, create=0.1, delete=0.01, changed=0.001)
MINCOUNT = UniformCostModel(1e-4, 1e-5)


@pytest.fixture(scope="module")
def fat100():
    return paper_tree(100, rng=np.random.default_rng(42))


@pytest.fixture(scope="module")
def fat100_pre(fat100):
    return random_preexisting(fat100, 25, rng=np.random.default_rng(43))


@pytest.fixture(scope="module")
def power50():
    return paper_tree(50, request_range=(1, 5), rng=np.random.default_rng(44))


@pytest.fixture(scope="module")
def power50_pre(power50):
    return random_preexisting_modes(
        power50, 5, 2, rng=np.random.default_rng(45), mode=1
    )


def test_micro_greedy_n100(benchmark, fat100):
    result = benchmark(greedy_placement, fat100, 10)
    assert result.n_replicas > 0


def test_micro_dp_nopre_n100(benchmark, fat100):
    result = benchmark(dp_nopre_placement, fat100, 10)
    assert result.n_replicas > 0


def test_micro_dp_withpre_n100_e25(benchmark, fat100, fat100_pre):
    result = benchmark(replica_update, fat100, 10, fat100_pre, MINCOUNT)
    assert result.n_replicas > 0


@pytest.fixture(scope="module")
def fat400():
    return paper_tree(400, rng=np.random.default_rng(48))


@pytest.fixture(scope="module")
def fat800():
    return paper_tree(800, rng=np.random.default_rng(49))


def test_micro_dp_withpre_n400_e50(benchmark, fat400):
    pre = random_preexisting(fat400, 50, rng=np.random.default_rng(50))
    result = benchmark(replica_update, fat400, 10, pre, MINCOUNT)
    assert result.n_replicas > 0


def test_micro_dp_withpre_n800_e100(benchmark, fat800):
    pre = random_preexisting(fat800, 100, rng=np.random.default_rng(51))
    result = benchmark(replica_update, fat800, 10, pre, MINCOUNT)
    assert result.n_replicas > 0


def test_micro_power_frontier_n50_e5(benchmark, power50, power50_pre):
    frontier = benchmark(KERNELS["array"], power50, PM, CM, power50_pre)
    assert len(frontier) > 0


@pytest.fixture(scope="module")
def power100_three_mode():
    return paper_tree(100, request_range=(1, 6), rng=np.random.default_rng(46))


@pytest.fixture(scope="module")
def power100_pre(power100_three_mode):
    return random_preexisting_modes(
        power100_three_mode, 10, 3, rng=np.random.default_rng(47), mode=1
    )


def test_micro_power_frontier_three_mode_n100(
    benchmark, power100_three_mode, power100_pre
):
    # Wider mode set -> wider fronts: exercises the dominance-aware merge
    # where label work (not traversal skeleton) dominates the runtime.
    frontier = benchmark(
        KERNELS["array"], power100_three_mode, PM3, CM3, power100_pre
    )
    assert len(frontier) > 0


def test_micro_greedy_power_sweep_n50(benchmark, power50, power50_pre):
    cands = benchmark(greedy_power_candidates, power50, PM, CM, power50_pre)
    assert len(cands.candidates) > 0
