"""Tests for :mod:`repro.perf` (solver instrumentation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import ModalCostModel, UniformCostModel
from repro.core.dp_withpre import theorem1_update
from repro.perf import (
    CoreDPStats,
    ParetoDPStats,
    instrument_pareto_frontier,
    instrument_replica_update,
)
from repro.power import PowerModel
from repro.power.dp_power_pareto import power_frontier
from repro.power.modes import ModeSet
from repro.tree.generators import paper_tree, random_preexisting, random_preexisting_modes

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)


class TestCoreDPStats:
    def test_counts_populated(self, rng):
        tree = paper_tree(40, rng=rng)
        pre = random_preexisting(tree, 10, rng=rng)
        result, stats = instrument_replica_update(tree, 10, pre)
        # One merge per child with children of its own, plus one leaf batch
        # per node whose childless children are folded in together.
        kids = [tree.children(v) for v in range(tree.n_nodes)]
        internal = sum(1 for cs in kids for c in cs if kids[c])
        batches = sum(1 for cs in kids if any(not kids[c] for c in cs))
        assert stats.merges == internal + batches
        assert stats.merges < tree.n_nodes - 1
        assert stats.total_cells > 0
        assert stats.max_cells <= (11) * (31)  # bounded by (E+1)(N-E+1)
        assert stats.max_e_dim <= 11
        assert result.n_replicas > 0

    def test_stats_do_not_change_result(self, rng):
        tree = paper_tree(30, rng=rng)
        pre = random_preexisting(tree, 8, rng=rng)
        plain = theorem1_update(tree, 10, pre)
        instrumented, _ = instrument_replica_update(tree, 10, pre)
        assert plain.replicas == instrumented.replicas
        assert plain.cost == instrumented.cost

    def test_grows_with_preexisting(self):
        tree = paper_tree(60, rng=np.random.default_rng(4))
        _, small = instrument_replica_update(
            tree, 10, random_preexisting(tree, 5, rng=1)
        )
        _, large = instrument_replica_update(
            tree, 10, random_preexisting(tree, 40, rng=1)
        )
        assert large.total_cells > small.total_cells

    def test_as_dict_keys(self):
        d = CoreDPStats().as_dict()
        assert set(d) == {"merges", "total_cells", "max_cells", "max_e_dim", "max_n_dim"}


class TestParetoDPStats:
    def test_counts_populated(self, rng):
        tree = paper_tree(40, request_range=(1, 5), rng=rng)
        pre = random_preexisting_modes(tree, 5, 2, rng=rng, mode=1)
        frontier, stats = instrument_pareto_frontier(tree, PM, CM, pre)
        # One merge per (parent, child) edge of every *visited* subtree;
        # AHU-memoized subtrees are answered without merging.
        assert 0 < stats.merges <= 39
        assert stats.merges + stats.memo_hits >= 1
        assert stats.labels_created >= stats.labels_kept > 0
        assert stats.labels_created >= stats.labels_generated
        assert stats.merge_rejected >= 0
        assert 0.0 <= stats.prune_ratio < 1.0
        assert 0.0 <= stats.generation_ratio <= 1.0
        assert stats.max_flow_keys <= PM.modes.max_capacity + 1
        assert len(frontier) > 0

    def test_stats_do_not_change_frontier(self, rng):
        tree = paper_tree(30, request_range=(1, 5), rng=rng)
        plain = power_frontier(tree, PM, CM).pairs()
        frontier, _ = instrument_pareto_frontier(tree, PM, CM)
        assert frontier.pairs() == plain

    def test_pruning_actually_prunes(self, rng):
        tree = paper_tree(60, request_range=(1, 5), rng=rng)
        _, stats = instrument_pareto_frontier(tree, PM, CM)
        assert stats.prune_ratio > 0.1  # dominance removes a real fraction

    def test_empty_prune_ratio(self):
        stats = ParetoDPStats()
        assert stats.prune_ratio == 0.0
        assert stats.generation_ratio == 0.0
        assert stats.memo_hit_rate == 0.0

    def test_memo_counters_on_repetitive_tree(self):
        from repro.tree.model import Client, Tree

        parents: list[int | None] = [None]
        clients = []
        for _ in range(3):
            hub = len(parents)
            parents.append(0)
            for _ in range(3):
                leaf = len(parents)
                parents.append(hub)
                clients.append(Client(leaf, 2))
        tree = Tree(parents, clients)
        _, stats = instrument_pareto_frontier(tree, PM, CM)
        assert stats.memo_hits >= 2
        assert stats.memo_labels_shared > 0
        assert stats.memo_hit_rate > 0.0

    def test_as_dict_roundtrips_through_absorb(self, rng):
        tree = paper_tree(25, request_range=(1, 5), rng=rng)
        _, stats = instrument_pareto_frontier(tree, PM, CM)
        agg = ParetoDPStats().absorb(stats.as_dict())
        for key, value in stats.as_dict().items():
            assert agg.as_dict()[key] == value

    def test_absorb_ignores_legacy_engine_counts(self, rng):
        # Cache records written by 1.9.0 also carry per-engine solve
        # counts, which are no longer a counter.
        tree = paper_tree(25, request_range=(1, 5), rng=rng)
        _, stats = instrument_pareto_frontier(tree, PM, CM)
        legacy = dict(stats.as_dict(), kernel_solves={"array": 1})
        agg = ParetoDPStats().absorb(legacy)
        assert agg.as_dict() == stats.as_dict()


class TestIdleQuantilesAreNull:
    """Idle serving windows report ``null`` quantiles, never a fake 0.0
    (a 0.0 p99 reads as 'instant', not 'no traffic')."""

    def test_policy_serve_stats_idle(self):
        from repro.perf.stats import PolicyServeStats

        stats = PolicyServeStats()
        assert stats.latency_quantile(0.5) is None
        assert stats.latency_quantile(0.99) is None
        payload = stats.as_dict()
        assert payload["p50_latency"] is None
        assert payload["p99_latency"] is None

    def test_policy_serve_stats_with_traffic(self):
        from repro.perf.stats import PolicyServeStats

        stats = PolicyServeStats()
        stats.record_latency(0.010)
        stats.record_latency(0.020)
        p50 = stats.latency_quantile(0.5)
        assert p50 is not None and 0.009 < p50 < 0.021
        assert isinstance(stats.as_dict()["p99_latency"], float)

    def test_session_serve_stats_idle(self):
        from repro.perf.stats import SessionServeStats

        stats = SessionServeStats()
        assert stats.latency_quantile(0.5) is None
        assert stats.as_dict()["p50_delta_latency"] is None

    def test_session_serve_stats_with_traffic(self):
        from repro.perf.stats import SessionServeStats

        stats = SessionServeStats()
        stats.record_apply(deltas=1, reused=2, invalidated=1, seconds=0.01)
        assert stats.latency_quantile(0.5) == pytest.approx(0.01)


class TestClusterStats:
    def test_worker_collectors_auto_created_and_sorted(self):
        from repro.perf.stats import ClusterStats

        stats = ClusterStats()
        stats.worker("w1").routed += 2
        stats.worker("w0").sheds += 1
        stats.worker("w1").deaths += 1
        payload = stats.as_dict()
        assert list(payload["workers"]) == ["w0", "w1"]
        assert payload["workers"]["w1"] == {
            "routed": 2, "sheds": 0, "timeouts": 0, "errors": 0,
            "deaths": 1, "respawns": 0,
        }
        assert payload["rejected"] == 0 and payload["lost_sessions"] == 0
