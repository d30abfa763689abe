"""Tests of ``benchmarks/record_perfbench.py`` (the trajectory recorder)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "record_perfbench.py"
_spec = importlib.util.spec_from_file_location("record_perfbench", _PATH)
assert _spec is not None and _spec.loader is not None
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _run_text(seed: int, cpu: float, *, commit: str = "abc123", correct: bool = True) -> str:
    context = {
        "workload": "mincost-cluster",
        "seed": seed,
        "seconds": 45.0,
        "trace": 0,
        "nproc": 2,
        "git_commit": commit,
    }
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": 0,
        "metrics": {"cpu_ms_per_req": {"value": cpu, "unit": "ms"}},
    }
    return "perfbench noise\n" + json.dumps({"context": context}) + "\n" + json.dumps(result) + "\n"


def _runs(values: list[float], **kwargs) -> list:
    return [record.read_run(_run_text(2001 + i, v, **kwargs)) for i, v in enumerate(values)]


class TestArithmetic:
    def test_median_and_iqr_interpolate(self):
        entry = record.summarise(_runs([4.0, 1.0, 3.0, 2.0, 5.0]))
        cpu = entry["metrics"]["cpu_ms_per_req"]
        assert cpu == {"unit": "ms", "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}

    def test_even_count_interpolates_between_order_statistics(self):
        cpu = record.summarise(_runs([1.0, 2.0, 3.0, 4.0]))["metrics"]["cpu_ms_per_req"]
        assert cpu["median"] == pytest.approx(2.5)
        assert cpu["q1"] == pytest.approx(1.75)
        assert cpu["q3"] == pytest.approx(3.25)
        assert cpu["iqr"] == pytest.approx(1.5)

    def test_entry_carries_the_run_context(self):
        entry = record.summarise(_runs([1.0, 2.0]), label="x")
        assert entry["commit"] == "abc123"
        assert entry["seeds"] == [2001, 2002]
        assert (entry["workload"], entry["nproc"], entry["runs"]) == ("mincost-cluster", 2, 2)
        assert (entry["attempted"], entry["failed"], entry["label"]) == (200, 0, "x")


class TestValidation:
    def test_unknown_commit_needs_override(self):
        runs = _runs([1.0], commit="unknown")
        with pytest.raises(ValueError, match="--commit"):
            record.summarise(runs)
        assert record.summarise(runs, commit="def456")["commit"] == "def456"

    def test_incorrect_run_is_refused(self):
        with pytest.raises(ValueError, match="wrong or failed"):
            record.summarise(_runs([1.0], correct=False))

    def test_mixed_workloads_are_refused(self):
        runs = _runs([1.0, 2.0])
        runs[1][0]["workload"] = "session-churn"
        with pytest.raises(ValueError, match="workload"):
            record.summarise(runs)


class TestAppend:
    def test_appends_to_existing_trajectory(self, tmp_path):
        out = tmp_path / "results" / "BENCH_perfbench.json"
        for i in range(2):
            files = []
            for j, value in enumerate((1.0, 2.0, 3.0)):
                path = tmp_path / f"run-{i}-{j}.out"
                path.write_text(_run_text(10 * i + j, value + i, commit=f"c{i}"))
                files.append(str(path))
            assert record.main([*files, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert [e["commit"] for e in data["entries"]] == ["c0", "c1"]
        assert [e["metrics"]["cpu_ms_per_req"]["median"] for e in data["entries"]] == [2.0, 3.0]

    def test_bad_input_exits_2_without_writing(self, tmp_path):
        bad = tmp_path / "bad.out"
        bad.write_text("not json\n")
        out = tmp_path / "BENCH_perfbench.json"
        assert record.main([str(bad), "--out", str(out)]) == 2
        assert not out.exists()
