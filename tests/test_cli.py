"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.tree.serialize import tree_to_json
from repro.tree.generators import paper_tree


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(tree_to_json(paper_tree(25, rng=3)))
    return str(path)


class TestGenerate:
    def test_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["generate", "--nodes", "12", "--seed", "1", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["parents"]) == 12

    def test_stdout_output(self, capsys):
        assert main(["generate", "--nodes", "5", "--seed", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1


class TestSolve:
    def test_dp_solve(self, tree_file, capsys):
        assert main(["solve", tree_file, "--capacity", "10"]) == 0
        out = capsys.readouterr().out
        assert "replicas" in out and "cost=" in out

    def test_greedy_solve_with_preexisting(self, tree_file, capsys):
        assert (
            main(
                [
                    "solve", tree_file, "--algorithm", "greedy",
                    "--preexisting", "1,2,3",
                ]
            )
            == 0
        )
        assert "reused=" in capsys.readouterr().out

    def test_random_preexisting(self, tree_file, capsys):
        assert (
            main(["solve", tree_file, "--random-preexisting", "5", "--seed", "1"]) == 0
        )

    def test_show_renders_tree(self, tree_file, capsys):
        assert main(["solve", tree_file, "--show"]) == 0
        out = capsys.readouterr().out
        assert "n0" in out and "[R]" in out

    def test_plan_prints_migration(self, tree_file, capsys):
        assert main(["solve", tree_file, "--preexisting", "0,1", "--plan"]) == 0
        out = capsys.readouterr().out
        assert "server on node" in out

    def test_infeasible_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": 1, "parents": [None], "clients": [[0, 99]]})
        )
        assert main(["solve", str(path), "--capacity", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPower:
    def test_frontier_table(self, tree_file, capsys):
        assert main(["power", tree_file]) == 0
        out = capsys.readouterr().out
        assert "cost" in out and "power" in out

    def test_bound_query(self, tree_file, capsys):
        assert main(["power", tree_file, "--bound", "50"]) == 0
        assert "bound 50.0" in capsys.readouterr().out

    def test_preexisting_modes_parsed(self, tree_file, capsys):
        assert main(["power", tree_file, "--preexisting", "1:1,2:0"]) == 0


class TestExperiments:
    def test_exp1_small(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli_mod
        from repro.experiments import Exp1Config

        # Shrink the workload for test speed.
        monkeypatch.setattr(
            cli_mod,
            "Exp1Config",
            lambda n_trees, **kw: Exp1Config(
                n_trees=n_trees, n_nodes=25, e_values=(0, 10), **kw
            ),
        )
        csv_path = tmp_path / "out.csv"
        assert main(["exp1", "--trees", "2", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "mean gap" in out
        assert csv_path.read_text().startswith("E,")

    def test_exp3_small(self, capsys, monkeypatch):
        import repro.cli as cli_mod
        from repro.experiments import Exp3Config

        monkeypatch.setattr(
            cli_mod,
            "Exp3Config",
            lambda n_trees, **kw: Exp3Config(
                n_trees=n_trees, n_nodes=20,
                cost_bounds=(10.0, 20.0, 40.0), **kw
            ),
        )
        assert main(["exp3", "--trees", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "peak GR-over-DP" in out


class TestBatch:
    def test_demo_batch(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "6", "--duplicate-rate", "0.5",
                    "--nodes", "20", "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "digest" in out
        assert "unique_solved=3" in out
        assert "duplicates_folded=3" in out

    def test_batch_file_with_cache_dir(self, tmp_path, capsys):
        import numpy as np

        from repro.batch import batch_to_json, random_batch

        path = tmp_path / "batch.json"
        path.write_text(
            batch_to_json(
                random_batch(
                    4, duplicate_rate=0.5, n_nodes=15,
                    rng=np.random.default_rng(2),
                )
            )
        )
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", str(path), "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "unique_solved=2" in first
        # Second run is served entirely from the persistent store.
        assert main(["batch", str(path), "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "unique_solved=0" in second and "hit_rate=1.00" in second

    def test_batch_greedy_solver(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "3", "--nodes", "15", "--seed", "4",
                    "--solver", "greedy", "--duplicate-rate", "0.0",
                ]
            )
            == 0
        )
        assert "unique_solved=3" in capsys.readouterr().out

    def test_batch_power_solvers(self, capsys):
        for solver, column in (
            ("min_power", "power"),
            ("power_frontier", "points"),
            ("greedy_power", "cands"),
        ):
            assert (
                main(
                    [
                        "batch", "--demo", "6", "--duplicate-rate", "0.5",
                        "--nodes", "20", "--seed", "1", "--solver", solver,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert column in out
            assert "unique_solved=3" in out
            assert "duplicates_folded=3" in out

    def test_batch_stats_reports_per_kernel_counters(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "4", "--duplicate-rate", "0.5",
                    "--nodes", "20", "--seed", "7",
                    "--solver", "min_power", "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        stats = json.loads(out[out.index("{"):])
        assert stats["kernel_records"] > 0
        assert stats["records_without_stats"] == 0
        assert stats["labels_created"] >= stats["labels_kept"] > 0

    def test_batch_disk_size_flag(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                [
                    "batch", "--demo", "4", "--duplicate-rate", "0.0",
                    "--nodes", "15", "--seed", "2",
                    "--cache-dir", cache_dir, "--disk-size", "2",
                ]
            )
            == 0
        )
        shards = list((tmp_path / "cache").glob("batch-cache.*.jsonl"))
        stored_lines = sum(
            1
            for p in shards
            for line in p.read_text().splitlines()
            if line.strip()
        )
        assert stored_lines == 2  # budget enforced on disk

    def test_batch_malformed_modes_is_clean_error(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "3", "--solver", "min_power",
                    "--modes", "5,", "--seed", "1",
                ]
            )
            == 2
        )
        assert "invalid --modes" in capsys.readouterr().err

    def test_batch_requires_input(self, capsys):
        assert main(["batch"]) == 2
        assert "batch file or --demo" in capsys.readouterr().err

    def test_batch_file_and_demo_conflict(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text("{}")
        assert main(["batch", str(path), "--demo", "3"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestBatchBoundSweep:
    def test_bound_sweep_from_cached_frontier(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "4", "--duplicate-rate", "0.5",
                    "--nodes", "16", "--seed", "5",
                    "--solver", "power_frontier", "--bound", "5,40,1e9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bound" in out
        # One sweep row per (instance, bound) pair.
        assert out.count("1000000000.000") == 4
        # The sweep reads cached frontier records; no extra solves.
        assert "unique_solved=2" in out

    def test_bound_requires_frontier_solver(self, capsys):
        assert (
            main(["batch", "--demo", "2", "--seed", "1", "--bound", "40"]) == 2
        )
        assert "power_frontier" in capsys.readouterr().err

    def test_malformed_bound_is_clean_error(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "2", "--seed", "1",
                    "--solver", "power_frontier", "--bound", "40,x",
                ]
            )
            == 2
        )
        assert "invalid --bound" in capsys.readouterr().err


class TestServeClientErrors:
    def test_client_connection_refused_is_clean_error(self, capsys):
        # An unused port: bind-and-release to find one nothing listens on.
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        assert main(["client", "--port", str(port), "--stats"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_port_in_use_is_clean_error(self, capsys):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            s.listen(1)
            port = s.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeClientCLI:
    """End-to-end over real processes: boots `repro serve`, drives it
    with `repro client`, asserts coalescing stats and clean shutdown
    (the same loop the serve-smoke CI job runs)."""

    def test_serve_client_roundtrip(self):
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env = {
            **os.environ,
            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("serving on ")
            port = banner.rsplit(":", 1)[1]
            client = subprocess.run(
                [
                    sys.executable, "-m", "repro", "client", "--port", port,
                    "--demo", "12", "--duplicate-rate", "0.75",
                    "--nodes", "20", "--seed", "3",
                    "--stats", "--shutdown",
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert client.returncode == 0, client.stderr
            out = client.stdout
            assert "instances=12" in out
            stats = json.loads(out[out.index("{") : out.rindex("}") + 1])
            dp = stats["policies"]["dp"]
            assert dp["requests"] == 12
            assert dp["solves_scheduled"] < 12
            assert (
                dp["solves_scheduled"]
                + dp["coalesced_joins"]
                + dp["cache_hits"]
                == 12
            )
            server.wait(timeout=30)
            assert "server stopped" in server.stdout.read()
        finally:
            if server.poll() is None:  # pragma: no cover - cleanup path
                server.kill()
