"""Tests for :mod:`repro.batch.executor` (dedupe, fan-out, parallel path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import (
    BatchInstance,
    ResultCache,
    batch_from_json,
    batch_to_json,
    random_batch,
    solve_batch,
)
from repro.batch.canonical import relabel_tree
from repro.core.costs import UniformCostModel
from repro.core.dp_nopre import dp_nopre_placement
from repro.core.dp_withpre import replica_update
from repro.core.greedy import greedy_placement
from repro.core.solution import evaluate_placement
from repro.exceptions import ConfigurationError
from repro.tree.generators import paper_tree, random_preexisting


def _mixed_batch(n_unique=4, n_total=12, n_nodes=30, rng_seed=7):
    """Unique instances plus relabelled isomorphic duplicates."""
    gen = np.random.default_rng(rng_seed)
    base = []
    for _ in range(n_unique):
        tree = paper_tree(n_nodes, rng=gen)
        pre = random_preexisting(tree, 4, rng=gen)
        base.append(BatchInstance(tree, 10, pre))
    batch = list(base)
    while len(batch) < n_total:
        src = base[int(gen.integers(n_unique))]
        perm = gen.permutation(n_nodes)
        tree, pre = relabel_tree(src.tree, perm, src.preexisting)
        batch.append(BatchInstance(tree, src.capacity, pre, src.cost_model))
    return batch


class TestCorrectness:
    def test_matches_naive_dp_loop(self):
        batch = _mixed_batch()
        results = solve_batch(batch, solver="dp")
        for instance, result in zip(batch, results, strict=True):
            naive = replica_update(
                instance.tree,
                instance.capacity,
                instance.preexisting,
                instance.cost_model,
            )
            assert result.cost == pytest.approx(naive.cost)
            assert result.n_replicas == naive.n_replicas
            check = evaluate_placement(
                instance.tree, result.replicas, instance.capacity
            )
            assert check.ok

    def test_greedy_and_dp_nopre_policies(self):
        batch = _mixed_batch(n_unique=2, n_total=5)
        greedy = solve_batch(batch, solver="greedy")
        nopre = solve_batch(batch, solver="dp_nopre")
        for instance, g, n in zip(batch, greedy, nopre, strict=True):
            ref_g = greedy_placement(
                instance.tree, instance.capacity,
                preexisting=instance.preexisting,
            )
            ref_n = dp_nopre_placement(instance.tree, instance.capacity)
            assert g.n_replicas == ref_g.n_replicas
            assert n.n_replicas == ref_n.n_replicas
            assert evaluate_placement(
                instance.tree, g.replicas, instance.capacity
            ).ok

    def test_results_keep_input_order(self):
        batch = _mixed_batch()
        results = solve_batch(batch, solver="dp")
        for instance, result in zip(batch, results, strict=True):
            # replicas must be nodes of *this* instance's tree
            assert all(0 <= v < instance.tree.n_nodes for v in result.replicas)
            assert result.reused <= instance.preexisting


class TestDedupeAndCache:
    def test_duplicates_folded(self):
        batch = _mixed_batch(n_unique=3, n_total=12)
        cache = ResultCache(64)
        solve_batch(batch, solver="dp", cache=cache)
        assert cache.stats.unique_solved == 3
        assert cache.stats.duplicates_folded == 9
        assert cache.stats.misses == 3

    def test_second_call_all_hits(self):
        batch = _mixed_batch(n_unique=3, n_total=6)
        cache = ResultCache(64)
        first = solve_batch(batch, solver="dp", cache=cache)
        solved = cache.stats.unique_solved
        second = solve_batch(batch, solver="dp", cache=cache)
        assert cache.stats.unique_solved == solved
        assert cache.stats.hits == 3
        assert [r.cost for r in first] == [r.cost for r in second]

    def test_precomputed_keys_resolve_records_without_fan_out(self, monkeypatch):
        from repro.batch import get_policy

        batch = _mixed_batch(n_unique=2, n_total=5)
        policy = get_policy("dp")
        keys = [policy.instance_key(i) for i in batch]
        calls = {"instance_key": 0, "fan_out": 0}
        for name in calls:

            def counted(*args, _fn=getattr(policy, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(policy, name, counted)
        records: dict = {}
        got = solve_batch(batch, solver="dp", keys=keys, records_out=records)
        assert calls == {"instance_key": 0, "fan_out": 0}
        assert got == [records[digest] for _, digest in keys]
        assert len(records) == 2
        # The records fan out to the answers of a plain call.
        monkeypatch.undo()
        direct = solve_batch(batch, solver="dp")
        for instance, (canonical, digest), record, want in zip(
            batch, keys, got, direct, strict=True
        ):
            fanned = policy.fan_out(instance, canonical, record, digest)
            assert fanned.replicas == want.replicas
            assert fanned.cost == want.cost

    def test_keys_must_match_instances(self):
        batch = _mixed_batch(n_unique=1, n_total=2)
        with pytest.raises(ConfigurationError):
            solve_batch(batch, solver="dp", keys=[])

    def test_no_cache_still_dedupes(self):
        from repro.perf.stats import BatchCacheStats

        batch = _mixed_batch(n_unique=2, n_total=8)
        stats = BatchCacheStats()
        solve_batch(batch, solver="dp", stats=stats)
        assert stats.unique_solved == 2
        assert stats.duplicates_folded == 6

    def test_pre_oblivious_policies_share_solves(self):
        # greedy/dp_nopre replica sets don't depend on pre-existing or the
        # cost model, so instances differing only there share one solve.
        tree = paper_tree(25, rng=np.random.default_rng(8))
        batch = [
            BatchInstance(tree, 10, frozenset({1, 2})),
            BatchInstance(tree, 10, frozenset({3})),
            BatchInstance(tree, 10, frozenset(), UniformCostModel(0.5, 0.2)),
        ]
        for solver in ("greedy", "dp_nopre"):
            cache = ResultCache(16)
            results = solve_batch(batch, solver=solver, cache=cache)
            assert cache.stats.unique_solved == 1
            # ...but bookkeeping is still priced per instance.
            assert results[0].reused <= frozenset({1, 2})
            assert results[1].reused <= frozenset({3})
        # dp consumes pre and cost: all three stay distinct.
        cache = ResultCache(16)
        solve_batch(batch, solver="dp", cache=cache)
        assert cache.stats.unique_solved == 3

    def test_explicit_stats_with_cache_is_consistent(self):
        from repro.perf.stats import BatchCacheStats

        batch = _mixed_batch(n_unique=2, n_total=6)
        cache = ResultCache(64)
        stats = BatchCacheStats()
        solve_batch(batch, solver="dp", cache=cache, stats=stats)
        solve_batch(batch, solver="dp", cache=cache, stats=stats)
        # Every counter of both calls lands in the one explicit collector.
        assert stats.misses == 2 and stats.unique_solved == 2
        assert stats.hits == 2 and stats.duplicates_folded == 8
        assert stats.hit_rate == pytest.approx(0.5)

    def test_disk_cache_across_executors(self, tmp_path):
        batch = _mixed_batch(n_unique=2, n_total=4)
        solve_batch(
            batch, solver="dp", cache=ResultCache(64, cache_dir=tmp_path)
        )
        warm = ResultCache(64, cache_dir=tmp_path)
        solve_batch(batch, solver="dp", cache=warm)
        assert warm.stats.unique_solved == 0
        assert warm.stats.disk_hits == 2


class TestParallelPath:
    def test_workers_equal_serial(self):
        batch = _mixed_batch(n_unique=4, n_total=8, n_nodes=25)
        serial = solve_batch(batch, solver="dp", workers=1)
        parallel = solve_batch(batch, solver="dp", workers=2)
        assert [r.cost for r in serial] == [r.cost for r in parallel]
        assert [r.n_replicas for r in serial] == [
            r.n_replicas for r in parallel
        ]

    def test_validation(self):
        batch = _mixed_batch(n_unique=1, n_total=1)
        with pytest.raises(ConfigurationError):
            solve_batch(batch, solver="simulated-annealing")
        with pytest.raises(ConfigurationError):
            solve_batch(batch, workers=0)


class TestInstanceSerialization:
    def test_batch_json_round_trip(self):
        batch = random_batch(
            5, duplicate_rate=0.4, n_nodes=20, rng=np.random.default_rng(3)
        )
        text = batch_to_json(batch)
        restored = batch_from_json(text)
        assert len(restored) == len(batch)
        for a, b in zip(batch, restored, strict=True):
            assert a.tree == b.tree
            assert a.preexisting == b.preexisting
            assert a.capacity == b.capacity
            assert a.cost_model == b.cost_model

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError):
            batch_from_json("{nope")
        with pytest.raises(ConfigurationError):
            batch_from_json('{"schema": 99, "instances": []}')

    def test_instance_validation(self):
        tree = paper_tree(5, rng=1)
        with pytest.raises(ConfigurationError):
            BatchInstance(tree, capacity=0)

    def test_random_batch_validation(self):
        with pytest.raises(ConfigurationError):
            random_batch(0)
        with pytest.raises(ConfigurationError):
            random_batch(3, duplicate_rate=1.5)

    def test_random_batch_duplicate_rate(self):
        cost = UniformCostModel()
        batch = random_batch(
            10,
            duplicate_rate=0.8,
            n_nodes=15,
            cost_model=cost,
            rng=np.random.default_rng(5),
        )
        assert len(batch) == 10
        digests = {
            r.extra["digest"] for r in solve_batch(batch, solver="greedy")
        }
        assert len(digests) == 2  # 10 * (1 - 0.8) unique

    @pytest.mark.parametrize(
        "n_instances,rate",
        [
            (2, 0.1),
            (3, 0.1),  # round(2.7) == 3 used to emit zero duplicates
            (4, 0.2),
            (5, 0.1),
            (7, 0.05),
            (9, 0.3),
        ],
    )
    def test_nonzero_rate_always_emits_a_duplicate(self, n_instances, rate):
        from repro.batch import get_policy

        batch = random_batch(
            n_instances,
            duplicate_rate=rate,
            n_nodes=12,
            rng=np.random.default_rng(n_instances),
        )
        assert len(batch) == n_instances
        policy = get_policy("dp")
        digests = {policy.instance_key(i)[1] for i in batch}
        expected = min(
            max(1, round(n_instances * (1.0 - rate))), n_instances - 1
        )
        assert len(digests) == expected
        assert len(digests) < n_instances  # at least one duplicate

    def test_single_instance_batch_cannot_duplicate(self):
        batch = random_batch(
            1, duplicate_rate=0.5, rng=np.random.default_rng(0), n_nodes=10
        )
        assert len(batch) == 1


class TestSingleInstanceSurface:
    """The public single-instance wrapper `instance_key`."""

    def test_instance_key_matches_policy_and_batch_digest(self):
        from repro.batch import instance_key, solve_batch

        batch = _mixed_batch(n_unique=1, n_total=2)
        canonical, digest = instance_key(batch[0], solver="dp")
        assert canonical.parents  # canonical form is populated
        results = solve_batch(batch, solver="dp")
        assert results[0].extra["digest"] == digest
        # The isomorphic duplicate shares the digest (coalescing key).
        assert instance_key(batch[1], solver="dp")[1] == digest
        # A different policy digests differently.
        assert instance_key(batch[0], solver="greedy")[1] != digest
