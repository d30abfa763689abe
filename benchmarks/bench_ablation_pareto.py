"""Ablation 1 — Pareto-label DP vs the paper-faithful count-vector DP.

The dominance argument in the :mod:`repro.power.dp_power_pareto` module
docstring shows the Pareto engine is exact; the tests prove equality of
frontiers.  This bench quantifies why the engineering matters: runtime of
both solvers on the same instances, and the state-space sizes involved.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.core.costs import ModalCostModel
from repro.power.dp_power_counts import power_frontier_counts
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting_modes

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
SIZES = (10, 20, 30, 45)


def _run_both():
    rows = []
    rng = np.random.default_rng(77)
    for n in SIZES:
        tree = paper_tree(n, request_range=(1, 5), rng=rng)
        pre = random_preexisting_modes(tree, min(3, n // 5), 2, rng=rng, mode=1)
        t0 = time.perf_counter()
        par = KERNELS["array"](tree, PM, CM, pre).pairs()
        t_par = time.perf_counter() - t0
        t0 = time.perf_counter()
        cnt = power_frontier_counts(tree, PM, CM, pre)
        t_cnt = time.perf_counter() - t0
        agree = len(par) == len(cnt) and all(
            abs(a[0] - b[0]) < 1e-6 and abs(a[1] - b[1]) < 1e-6
            for a, b in zip(par, cnt, strict=True)
        )
        rows.append((n, t_par, t_cnt, t_cnt / max(t_par, 1e-9), agree))
    return rows


def test_ablation_pareto_vs_counts(benchmark, emit):
    rows = benchmark.pedantic(_run_both, rounds=1, iterations=1)

    assert all(agree for *_, agree in rows)
    # The count-vector DP must be measurably slower at the largest size.
    assert rows[-1][2] > rows[-1][1]

    table = format_table(
        ("N", "pareto_s", "counts_s", "slowdown", "frontiers_equal"),
        rows,
        float_fmt="{:.4f}",
    )
    emit(
        "ablation_pareto",
        f"{table}\n\nIdentical frontiers; the Theorem-3 count-vector state "
        "space pays an increasing factor over Pareto labels.",
    )
