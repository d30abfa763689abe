"""Supervised solve pool, poison quarantine and fault injection.

Batch-layer contract of the robustness stack:

* :class:`~repro.batch.quarantine.QuarantineRegistry` — TTL semantics,
  counters, snapshots — under an injected fake clock;
* :func:`~repro.batch.quarantine.bisect_culprits` isolates multiple
  culprits in ``O(k log n)`` probes;
* the supervised executor attributes injected crashes and hangs
  (:mod:`repro.faults`) to their digest, quarantines it, rebuilds the
  pool exactly once per incident, and never loses other digests'
  completed results;
* cache-line corruption is caught by the CRC envelope, moved to a
  ``.quarantine`` sidecar, counted, and the digest re-solves to a
  byte-identical record.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.batch import BatchInstance, ResultCache, get_policy, solve_batch
from repro.batch.executor import instance_key
from repro.batch.quarantine import (
    QuarantineRegistry,
    bisect_culprits,
)
from repro.exceptions import (
    ConfigurationError,
    QuarantinedError,
    SolveTimeoutError,
)
from repro.faults import InjectedFaultError, parse_plan, reset as faults_reset
from repro.perf.stats import BatchCacheStats
from repro.tree.generators import paper_tree, random_preexisting


@pytest.fixture(autouse=True)
def _clean_faults():
    faults_reset()
    yield
    faults_reset()


def _instance(seed: int, n_nodes: int = 25) -> BatchInstance:
    rng = np.random.default_rng(seed)
    tree = paper_tree(n_nodes, rng=rng)
    return BatchInstance(tree, 10, random_preexisting(tree, 3, rng=rng))


def _batch_with_digests(n: int, start_seed: int = 100):
    instances = [_instance(start_seed + i) for i in range(n)]
    digests = [instance_key(i, solver="dp")[1] for i in instances]
    assert len(set(digests)) == n
    return instances, digests


class TestQuarantineRegistry:
    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        reg = QuarantineRegistry(ttl=10.0, clock=lambda: now[0])
        reg.add("d1" * 32, "crash")
        assert reg.active("d1" * 32)
        with pytest.raises(QuarantinedError) as info:
            reg.check("d1" * 32)
        assert info.value.digest == "d1" * 32
        assert info.value.reason == "crash"
        now[0] = 10.5  # past the TTL: entry lazily purged, no error
        reg.check("d1" * 32)
        assert not reg.active("d1" * 32)
        assert reg.added == 1 and reg.blocked == 1 and reg.expired == 1

    def test_blocked_counter_feeds_stats(self):
        stats = BatchCacheStats()
        reg = QuarantineRegistry(ttl=60.0)
        reg.add("ab" * 32, "timeout", stats=stats)
        with pytest.raises(QuarantinedError):
            reg.check("ab" * 32, stats=stats)
        assert stats.quarantined == 1
        assert stats.quarantine_blocked == 1
        # Unrelated digests are unaffected.
        reg.check("cd" * 32, stats=stats)
        assert stats.quarantine_blocked == 1

    def test_release_and_len(self):
        reg = QuarantineRegistry(ttl=60.0)
        reg.add("aa", "crash")
        reg.add("bb", "timeout")
        assert len(reg) == 2
        assert reg.release("aa")
        assert not reg.release("aa")
        assert len(reg) == 1

    def test_snapshot_shape(self):
        now = [100.0]
        reg = QuarantineRegistry(ttl=30.0, clock=lambda: now[0])
        reg.add("ff" * 32, "crash")
        reg.add("aa" * 32, "timeout")
        snap = reg.snapshot()
        assert snap["active"] == 2 and snap["added"] == 2
        digests = [e["digest"] for e in snap["entries"]]
        assert digests == sorted(digests)
        assert all(0 < e["ttl_left"] <= 30.0 for e in snap["entries"])
        json.dumps(snap)  # must be wire-able for the perf op

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            QuarantineRegistry(ttl=0)


class TestBisectCulprits:
    def test_isolates_multiple_culprits_in_log_probes(self):
        items = list(range(32))
        bad = {5, 21}
        probes = []

        def probe(group):
            probes.append(list(group))
            if bad & set(group):
                raise ValueError(f"bad in {group}")

        culprits = bisect_culprits(items, probe)
        assert [item for item, _ in culprits] == [5, 21]
        assert all(isinstance(exc, ValueError) for _, exc in culprits)
        # O(k log n), nowhere near the n probes of one-at-a-time.
        assert len(probes) <= 2 * 2 * 6 + 2

    def test_no_culprits_costs_one_probe(self):
        probes = []
        assert bisect_culprits([1, 2, 3], probes.append) == []
        assert len(probes) == 1

    def test_all_items_bad(self):
        culprits = bisect_culprits(
            [1, 2, 3], lambda g: (_ for _ in ()).throw(RuntimeError("x"))
        )
        assert [item for item, _ in culprits] == [1, 2, 3]


class TestFaultPlanParsing:
    def test_round_trip_of_all_keys(self):
        plan = parse_plan(
            "crash_on_digest=ab,cd;hang_seconds=ef:2.5;fail_rate=0.25:7;"
            "corrupt_line=12;corrupt_rate=0.5:3;drop_connection=34:2"
        )
        assert plan.crash_digests == ("ab", "cd")
        assert plan.hangs == (("ef", 2.5),)
        assert plan.fail_rate == 0.25 and plan.fail_seed == 7
        assert plan.corrupt_digests == ("12",)
        assert plan.corrupt_rate == 0.5 and plan.corrupt_seed == 3
        assert plan.drops == (("34", 2),)

    def test_blank_spec_is_inactive(self):
        assert parse_plan("") is None
        assert parse_plan("   ") is None

    @pytest.mark.parametrize(
        "spec",
        ["nonsense", "fail_rate=2.0", "hang_seconds=ab", "unknown=1"],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            parse_plan(spec)

    def test_fail_rate_draw_is_deterministic(self):
        def draws(spec):
            plan = parse_plan(spec)
            out = []
            for digest in ("aa" * 32, "bb" * 32, "cc" * 32, "dd" * 32):
                try:
                    plan.on_solve(digest)
                    out.append("ok")
                except InjectedFaultError:
                    out.append("fail")
            return out

        # Same digests + same seed -> same outcomes on every parse; a
        # different seed reshuffles them.
        assert draws("fail_rate=0.5:42") == draws("fail_rate=0.5:42")
        assert draws("fail_rate=1.0") == ["fail"] * 4
        assert draws("fail_rate=0.0") == ["ok"] * 4


class TestSupervisedExecutor:
    def test_injected_crash_quarantines_digest_and_keeps_others(
        self, monkeypatch
    ):
        instances, digests = _batch_with_digests(6)
        poison = digests[2]
        reference = solve_batch(instances, solver="dp")  # before faults
        monkeypatch.setenv("REPRO_FAULTS", f"crash_on_digest={poison}")

        stats = BatchCacheStats()
        quarantine = QuarantineRegistry(ttl=300.0)
        errors: dict[str, Exception] = {}
        results = solve_batch(
            instances,
            solver="dp",
            workers=2,
            stats=stats,
            quarantine=quarantine,
            errors_out=errors,
            solve_timeout=5.0,
        )
        assert isinstance(errors[poison], QuarantinedError)
        assert results[2] is None
        for i, result in enumerate(results):
            if i != 2:
                assert result.cost == reference[i].cost
        assert stats.pool_rebuilds == 1
        assert stats.quarantined == 1
        assert quarantine.active(poison)

        # Resubmission fails fast at admission: no second pool break.
        errors2: dict[str, Exception] = {}
        results2 = solve_batch(
            [instances[2]],
            solver="dp",
            workers=2,
            stats=stats,
            quarantine=quarantine,
            errors_out=errors2,
            solve_timeout=5.0,
        )
        assert results2 == [None]
        assert isinstance(errors2[poison], QuarantinedError)
        assert stats.pool_rebuilds == 1  # unchanged
        assert stats.quarantine_blocked == 1

    def test_injected_hang_times_out_within_deadline_budget(
        self, monkeypatch
    ):
        import time as _time

        instances, digests = _batch_with_digests(4, start_seed=300)
        hung = digests[1]
        monkeypatch.setenv("REPRO_FAULTS", f"hang_seconds={hung}:30")

        stats = BatchCacheStats()
        quarantine = QuarantineRegistry(ttl=300.0)
        errors: dict[str, Exception] = {}
        t0 = _time.monotonic()
        results = solve_batch(
            instances,
            solver="dp",
            workers=2,
            stats=stats,
            quarantine=quarantine,
            errors_out=errors,
            solve_timeout=1.0,
        )
        elapsed = _time.monotonic() - t0
        exc = errors[hung]
        assert isinstance(exc, SolveTimeoutError)
        assert exc.digests == (hung,)
        assert results[1] is None
        # Wave deadline + sandbox probe deadline, plus process startup
        # slack: nowhere near the 30 s injected hang.
        assert elapsed < 2 * 1.0 + 4.0
        assert stats.solve_timeouts == 1
        assert stats.pool_rebuilds == 1
        assert quarantine.active(hung)
        # Healthy batch-mates still solved.
        assert all(results[i] is not None for i in (0, 2, 3))

    def test_fail_rate_error_is_captured_not_fatal(self, monkeypatch):
        instances, digests = _batch_with_digests(3, start_seed=400)
        monkeypatch.setenv("REPRO_FAULTS", "fail_rate=1.0")
        errors: dict[str, Exception] = {}
        results = solve_batch(
            instances, solver="dp", errors_out=errors
        )
        assert results == [None, None, None]
        assert set(errors) == set(digests)
        assert all(isinstance(e, InjectedFaultError) for e in errors.values())

    def test_without_errors_out_failures_raise(self, monkeypatch):
        instances, _ = _batch_with_digests(2, start_seed=500)
        monkeypatch.setenv("REPRO_FAULTS", "fail_rate=1.0")
        with pytest.raises(InjectedFaultError):
            solve_batch(instances, solver="dp")

    def test_solve_timeout_must_be_positive(self):
        instances, _ = _batch_with_digests(1, start_seed=700)
        with pytest.raises(ConfigurationError):
            solve_batch(instances, solver="dp", solve_timeout=0)


class TestCacheCorruption:
    def test_corrupt_line_quarantined_and_resolved_byte_identical(
        self, tmp_path, monkeypatch
    ):
        instance = _instance(800)
        digest = instance_key(instance, solver="dp")[1]
        policy = get_policy("dp")

        clean = ResultCache(max_entries=16, cache_dir=tmp_path / "clean")
        reference = json.dumps(
            policy.result_to_wire(
                solve_batch([instance], solver="dp", cache=clean)[0]
            ),
            sort_keys=True,
        )

        cache_dir = tmp_path / "store"
        monkeypatch.setenv("REPRO_FAULTS", f"corrupt_line={digest}")
        writer = ResultCache(max_entries=16, cache_dir=cache_dir)
        solve_batch([instance], solver="dp", cache=writer)
        monkeypatch.delenv("REPRO_FAULTS")

        # A fresh cache on the same directory must refuse the mangled
        # line: miss, sidecar, counter — never a silently-wrong record.
        reader = ResultCache(max_entries=16, cache_dir=cache_dir)
        assert reader.get(digest) is None
        assert reader.stats.corrupt_lines >= 1
        sidecars = list(cache_dir.glob("*.quarantine"))
        assert sidecars and any(
            "#CORRUPT" in p.read_text(encoding="utf-8") for p in sidecars
        )

        resolved = json.dumps(
            policy.result_to_wire(
                solve_batch([instance], solver="dp", cache=reader)[0]
            ),
            sort_keys=True,
        )
        assert resolved == reference

        # And the re-written line round-trips cleanly now.
        reopened = ResultCache(max_entries=16, cache_dir=cache_dir)
        assert reopened.get(digest) is not None
        assert reopened.stats.corrupt_lines == 0
