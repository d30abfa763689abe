"""Incremental delta re-solve vs cold solve (PR 8 gate).

A live session holding solved per-subtree fronts answers a localized
delta by relabelling only the dirty root path and serving every
untouched subtree from the front store, so the per-delta latency must be
a small fraction of a cold solve.  The runner replays single-client
deltas (and a subtree-flip family) on paper-generator trees, asserting
byte-identical frontiers against a cold solve *before* timing, then
gates the 500-node single-client-delta family on
``REPRO_BENCH_MIN_INCREMENTAL_SPEEDUP`` (default 5.0) — cold median
over per-delta median.  Next to the speedup each family records the
kernel's mean ``merges`` per delta and per cold solve
(:class:`~repro.perf.stats.ParetoDPStats`), counted on an untimed replay
of the same deltas: a delta pays only for the merges it changes.

Results land in ``benchmarks/results/BENCH_incremental.json`` for the
nightly digest.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.analysis import format_table
from repro.core.costs import ModalCostModel
from repro.dynamics import MigrateSubtree, SessionState, SetRequests, apply_deltas
from repro.perf.stats import ParetoDPStats
from repro.power.kernels import KERNELS, FrontStore
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)

#: family -> (n_nodes, rng seed, deltas replayed, delta family, gated?)
FAMILIES = {
    "client_200": dict(n_nodes=200, seed=11, deltas=12, kind="client", hard=False),
    "client_500": dict(n_nodes=500, seed=7, deltas=20, kind="client", hard=True),
    "migrate_500": dict(n_nodes=500, seed=7, deltas=12, kind="migrate", hard=False),
}


def _deepest_client(tree) -> int:
    """Index of a client hanging as deep as possible (most localized)."""
    return max(
        range(len(tree.clients)),
        key=lambda i: (tree.depth(tree.clients[i].node), -i),
    )


def _flip_node(tree) -> tuple[int, int, int]:
    """A depth>=2 node plus its parent and grandparent, for migrate flips."""
    v = max(range(tree.n_nodes), key=lambda u: (tree.depth(u), -u))
    p = tree.parents[v]
    return v, p, tree.parents[p]


def _deltas_for(kind: str, tree, step: int):
    if kind == "client":
        idx = _deepest_client(tree)
        return [SetRequests(idx, 1 + (step % 4))]
    v, p, g = _flip_node(tree)
    # Flip the subtree between its parent and grandparent; after the
    # apply, tree.parents[v] alternates, so the next step flips back.
    return [MigrateSubtree(v, g if tree.parents[v] == p else p)]


def _merges(tree, front_store=None) -> int:
    stats = ParetoDPStats()
    KERNELS["array"](tree, PM, CM, {}, front_store=front_store, stats=stats)
    return stats.merges


def _replay_merges(tree, batches) -> tuple[float, float]:
    """Mean kernel merges per delta (store-backed, as a session solves
    it) and per cold solve, over the replayed delta batches."""
    store = FrontStore()
    _merges(tree, store)
    per_delta: list[int] = []
    per_cold: list[int] = []
    for deltas in batches:
        tree, dirty = apply_deltas(tree, deltas)
        store.advance_codes(tree, {}, dirty)
        per_delta.append(_merges(tree, store))
        per_cold.append(_merges(tree))
    return statistics.mean(per_delta), statistics.mean(per_cold)


def _run_families() -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name, cfg in FAMILIES.items():
        tree = paper_tree(cfg["n_nodes"], rng=cfg["seed"])
        state = SessionState(tree, PM, CM)
        t0 = time.perf_counter()
        state.frontier()
        first_cold = time.perf_counter() - t0
        delta_times: list[float] = []
        cold_times: list[float] = []
        batches = []
        reused = invalidated = 0
        for step in range(cfg["deltas"]):
            deltas = _deltas_for(cfg["kind"], state.tree, step)
            batches.append(deltas)
            t0 = time.perf_counter()
            result = state.apply(deltas)
            delta_times.append(time.perf_counter() - t0)
            reused += result.fronts_reused
            invalidated += result.fronts_invalidated
            t0 = time.perf_counter()
            cold = KERNELS["array"](state.tree, PM, CM, {})
            cold_times.append(time.perf_counter() - t0)
            # Byte-identity before any timing claim.
            assert result.frontier.pairs() == cold.pairs()
        state.close()
        delta_med = statistics.median(delta_times)
        cold_med = statistics.median(cold_times)
        delta_merges, cold_merges = _replay_merges(tree, batches)
        out[name] = {
            "n_nodes": cfg["n_nodes"],
            "kind": cfg["kind"],
            "deltas": cfg["deltas"],
            "first_cold_seconds": first_cold,
            "cold_median_seconds": cold_med,
            "delta_median_seconds": delta_med,
            "speedup": cold_med / delta_med,
            "delta_merges_mean": delta_merges,
            "cold_merges_mean": cold_merges,
            "fronts_reused": reused,
            "fronts_invalidated": invalidated,
            "reuse_rate": reused / (reused + invalidated),
            "hard": cfg["hard"],
        }
    return out


def test_incremental_vs_cold(benchmark, emit, emit_json):
    """PR 8 gate: per-delta re-solve vs cold solve on localized churn.

    Byte-identical frontiers are asserted inside the runner for every
    replayed delta; the 500-node single-client family must then beat a
    cold solve by ``REPRO_BENCH_MIN_INCREMENTAL_SPEEDUP`` (default 5.0).
    """
    families = benchmark.pedantic(_run_families, rounds=1, iterations=1)

    emit_json("incremental", {"families": families})
    rows = [
        (
            name,
            fam["n_nodes"],
            fam["kind"],
            fam["deltas"],
            f"{fam['cold_median_seconds'] * 1e3:.2f}",
            f"{fam['delta_median_seconds'] * 1e3:.2f}",
            f"{fam['speedup']:.1f}x",
            f"{fam['delta_merges_mean']:.1f}/{fam['cold_merges_mean']:.0f}",
            f"{fam['reuse_rate']:.2f}",
            "hard" if fam["hard"] else "",
        )
        for name, fam in families.items()
    ]
    table = format_table(
        (
            "family", "N", "delta", "steps", "cold_ms", "delta_ms",
            "speedup", "merges", "reuse", "gate",
        ),
        rows,
    )
    emit(
        "incremental",
        f"{table}\n\nByte-identical frontiers on every replayed delta "
        "(asserted before timing).  'merges' is the kernel's mean merge "
        "count per delta / per cold solve.  'hard' carries the per-delta speedup "
        "gate: single-client churn on a 500-node tree touches one root "
        "path, so almost every subtree front is served from the store.",
    )

    floor = float(
        os.environ.get("REPRO_BENCH_MIN_INCREMENTAL_SPEEDUP", "5.0")
    )
    for name, fam in families.items():
        if fam["hard"]:
            assert fam["speedup"] >= floor, (
                f"{name}: delta re-solve speedup {fam['speedup']:.2f}x fell "
                f"below the {floor:.1f}x floor (cold "
                f"{fam['cold_median_seconds']:.4f}s, delta "
                f"{fam['delta_median_seconds']:.4f}s)"
            )
        # Localized churn must mostly hit the store, gated or not.
        assert fam["reuse_rate"] >= 0.5, (
            f"{name}: reuse rate {fam['reuse_rate']:.2f} — the store is "
            "not answering untouched subtrees"
        )
