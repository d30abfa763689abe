"""Ablation 2 — §6 future-work heuristics vs the optimal bi-criteria DP.

The conclusion proposes cheap heuristics that "perform some local
optimizations to better load-balance the number of requests per replica".
This bench measures, on the Figure-8 workload, how much of the DP's power
advantage the heuristics recover and at what runtime:

* GR           — the paper's baseline (capacity sweep);
* GR+reuse     — reuse-preferring tie-break;
* local search — hill climbing seeded by GR;
* DP           — the optimal frontier (reference).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.core.costs import ModalCostModel
from repro.power.greedy_power import greedy_power_candidates
from repro.power.heuristics import local_search_power, reuse_aware_greedy_power
from repro.power.kernels import KERNELS
from repro.power.modes import PowerModel, ModeSet
from repro.tree.generators import paper_tree, random_preexisting_modes

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
N_TREES = 15
BOUNDS = (18.0, 22.0, 26.0, 30.0)


def _run():
    rng = np.random.default_rng(2015)
    sums = {name: 0.0 for name in ("DP", "GR", "GR+reuse", "local")}
    times = {name: 0.0 for name in sums}
    solved = {name: 0 for name in sums}
    for _ in range(N_TREES):
        tree = paper_tree(50, request_range=(1, 5), rng=rng)
        pre = random_preexisting_modes(tree, 5, 2, rng=rng, mode=1)
        t0 = time.perf_counter()
        frontier = KERNELS["array"](tree, PM, CM, pre)
        times["DP"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        gr = greedy_power_candidates(tree, PM, CM, pre)
        times["GR"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        gr_reuse = reuse_aware_greedy_power(tree, PM, CM, pre)
        times["GR+reuse"] += time.perf_counter() - t0
        for bound in BOUNDS:
            dp_best = frontier.best_under_cost(bound)
            if dp_best is None:
                continue
            sums["DP"] += dp_best.power
            solved["DP"] += 1
            for name, cands in (("GR", gr), ("GR+reuse", gr_reuse)):
                best = cands.best_under_cost(bound)
                if best is not None:
                    sums[name] += best.power
                    solved[name] += 1
            t0 = time.perf_counter()
            ls = local_search_power(tree, PM, CM, bound, pre, max_rounds=30)
            times["local"] += time.perf_counter() - t0
            if ls is not None:
                sums["local"] += ls.power
                solved["local"] += 1
    rows = []
    dp_mean = sums["DP"] / max(solved["DP"], 1)
    for name in ("DP", "GR", "GR+reuse", "local"):
        mean_p = sums[name] / max(solved[name], 1)
        rows.append((name, solved[name], mean_p, mean_p / dp_mean, times[name]))
    return rows


def test_ablation_heuristics_vs_optimal(benchmark, emit):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    by_name = {r[0]: r for r in rows}

    # The optimal DP lower-bounds every heuristic's mean power.
    for name in ("GR", "GR+reuse", "local"):
        assert by_name[name][3] >= 1.0 - 1e-9
    # Local search must close part of GR's gap to the optimum.
    assert by_name["local"][3] <= by_name["GR"][3] + 1e-9

    table = format_table(
        ("solver", "solved", "mean_power", "vs_DP", "total_seconds"),
        rows,
        float_fmt="{:.3f}",
    )
    emit(
        "ablation_heuristics",
        f"{table}\n\nFigure-8 workload, {N_TREES} trees x bounds {BOUNDS}; "
        "'vs_DP' is the mean-power ratio against the optimal frontier.",
    )
