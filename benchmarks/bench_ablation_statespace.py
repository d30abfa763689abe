"""Ablation 4 — measured state-space growth vs the paper's bounds.

Theorem 1 bounds the MinCost-WithPre work by ``O(N·(N-E+1)²·(E+1)²)``
table-cell operations; with subtree-bounded tables the *measured* totals
of the Theorem-1 kernel (``theorem1_update``, which
``instrument_replica_update`` runs) sit far below the bound.  For the
power engine, the Pareto prune ratio shows how much of the Theorem-3
count-vector space dominance eliminates.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.core.costs import ModalCostModel
from repro.perf import instrument_pareto_frontier, instrument_replica_update
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting, random_preexisting_modes

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
CORE_SIZES = ((50, 12), (100, 25), (200, 50), (400, 100))
POWER_SIZES = (25, 50, 100, 200)


def _measure():
    rng = np.random.default_rng(2017)
    core_rows = []
    for n, e in CORE_SIZES:
        tree = paper_tree(n, rng=rng)
        pre = random_preexisting(tree, e, rng=rng)
        _, stats = instrument_replica_update(tree, 10, pre)
        bound = n * (n - e + 1) ** 2 * (e + 1) ** 2
        core_rows.append(
            (n, e, stats.total_cells, bound, stats.total_cells / bound,
             stats.max_cells)
        )
    power_rows = []
    for n in POWER_SIZES:
        tree = paper_tree(n, request_range=(1, 5), rng=rng)
        pre = random_preexisting_modes(tree, max(2, n // 10), 2, rng=rng, mode=1)
        _, stats = instrument_pareto_frontier(tree, PM, CM, pre)
        power_rows.append(
            (n, stats.labels_created, stats.labels_kept, stats.prune_ratio,
             stats.max_front_size)
        )
    return core_rows, power_rows


def test_ablation_state_space(benchmark, emit):
    core_rows, power_rows = benchmark.pedantic(_measure, rounds=1, iterations=1)

    # Subtree bounding keeps measured work far under the Theorem-1 bound,
    # increasingly so at scale.
    fractions = [r[4] for r in core_rows]
    assert all(f < 0.01 for f in fractions)
    assert fractions[-1] < fractions[0]
    # Dominance pruning discards a substantial share of candidate labels.
    assert all(r[3] > 0.1 for r in power_rows)

    core_table = format_table(
        ("N", "E", "measured_cells", "theorem1_bound", "fraction", "max_table"),
        core_rows,
        float_fmt="{:.2e}",
    )
    power_table = format_table(
        ("N", "labels_created", "labels_kept", "prune_ratio", "max_front"),
        power_rows,
    )
    emit(
        "ablation_statespace",
        "MinCost-WithPre table cells vs the O(N·(N-E+1)²·(E+1)²) bound:\n"
        f"{core_table}\n\nPower engine Pareto pruning:\n{power_table}",
    )
