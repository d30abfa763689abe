"""MinCost-WithPre: flow kernel vs the Theorem-1 ``(e, n)`` kernel.

Times both kernels on paper trees (6–9 children, E = n/8, W = 10) at
n = 100/200/400/800, after checking that every instance gets the same
cost from both.  The median per size lands in
``benchmarks/results/BENCH_mincost.json`` together with ``nproc`` and the
costs-equal flag.  ``test_flow_speedup[smoke]`` asserts a floor loose
enough for shared runners, ``test_flow_speedup[gate]`` the full floor;
both read one measurement.

``test_deep_oracle_ladder`` is the deep profile of
``tests/core/test_flow_kernel.py``: the same oracle rungs on trees of up
to 800 nodes.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import format_table
from repro.core.costs import UniformCostModel
from repro.core.dp_withpre import replica_update, theorem1_update
from repro.tree.generators import paper_tree, random_preexisting

from tests.core.test_flow_kernel import (
    GRID,
    check_against_nopre,
    check_against_power_frontier,
    check_against_theorem1,
    mincost_instances,
)

SIZES = (100, 200, 400, 800)
TREES = 8  #: instances per size
MODEL = UniformCostModel(0.1, 0.01)
#: Least Theorem-1/flow ratio of median solve times at n = 400.
FLOORS = {"smoke": 2.0, "gate": 5.0}
GATED_SIZE = 400


def _best_ms(fn, repeats: int = 3) -> float:
    """Best of ``repeats`` wall-clock runs, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


@functools.cache
def _measure() -> dict:
    sizes = {}
    costs_equal = True
    for n in SIZES:
        flow_ms, theorem1_ms = [], []
        for seed in range(TREES):
            tree = paper_tree(n, rng=1000 + seed)
            pre = random_preexisting(tree, n // 8, rng=2000 + seed)
            costs_equal &= (
                replica_update(tree, 10, pre, MODEL).cost
                == theorem1_update(tree, 10, pre, MODEL).cost
            )
            flow_ms.append(_best_ms(lambda: replica_update(tree, 10, pre, MODEL)))
            theorem1_ms.append(
                _best_ms(lambda: theorem1_update(tree, 10, pre, MODEL))
            )
        flow, theorem1 = statistics.median(flow_ms), statistics.median(theorem1_ms)
        sizes[str(n)] = {
            "flow_p50_ms": flow,
            "theorem1_p50_ms": theorem1,
            "speedup": theorem1 / flow,
        }
    return {
        "sizes": sizes,
        "costs_equal": costs_equal,
        "nproc": os.cpu_count(),
        "trees_per_size": TREES,
        "capacity": 10,
        "gated_size": GATED_SIZE,
    }


@pytest.mark.parametrize("floor", sorted(FLOORS))
def test_flow_speedup(floor, emit, emit_json):
    report = _measure()
    emit_json("mincost", report)
    rows = [
        (n, r["flow_p50_ms"], r["theorem1_p50_ms"], r["speedup"])
        for n, r in report["sizes"].items()
    ]
    emit(
        "mincost_flow",
        format_table(("N", "flow_ms", "theorem1_ms", "speedup"), rows)
        + f"\n(p50 over {TREES} paper trees, W = 10, E = n/8; "
        f"{report['nproc']} cpus; costs equal: {report['costs_equal']})",
    )
    assert report["costs_equal"]
    assert report["sizes"][str(GATED_SIZE)]["speedup"] >= FLOORS[floor]


@settings(max_examples=300, deadline=None)
@given(mincost_instances(max_nodes=800), st.sampled_from(GRID))
def test_deep_oracle_ladder(instance, price):
    model = UniformCostModel(*price)
    tree, capacity, _ = instance
    check_against_theorem1(instance, model)
    check_against_nopre(tree, capacity, model)
    if capacity <= 40:
        check_against_power_frontier(instance, model)
