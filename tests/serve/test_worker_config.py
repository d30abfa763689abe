"""One definition of a serve worker's settings.

A :class:`~repro.serve.spawner.WorkerConfig` must survive the trip
through a child ``repro serve`` command line, and ``repro serve`` and
``repro cluster`` must expose the same worker flags with the same
defaults.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.cli import build_parser
from repro.serve import SubprocessSpawner, WorkerConfig

#: Worker flags and their defaults, shared by ``serve`` and ``cluster``
#: except ``--max-pending`` (unbounded for one server, 64 per worker).
WORKER_FLAGS = {
    "--workers": ("workers", 1),
    "--max-batch": ("max_batch", 32),
    "--cache-dir": ("cache_dir", None),
    "--lru-size": ("lru_size", 4096),
    "--disk-size": ("disk_size", None),
    "--solve-timeout": ("solve_timeout", None),
}


def _full_config(tmp_path) -> WorkerConfig:
    return WorkerConfig(
        max_pending=7,
        max_batch=9,
        pool_workers=3,
        lru_size=111,
        max_disk_entries=222,
        cache_dir=str(tmp_path),
        solve_timeout=12.5,
    )


def test_subprocess_command_round_trips_through_the_parser(tmp_path):
    spawner = SubprocessSpawner()
    cmd = spawner._command("w1", _full_config(tmp_path))
    assert cmd[:3] == [sys.executable, "-m", "repro"]
    args = build_parser().parse_args(cmd[3:])
    assert args.command == "serve"
    assert (args.host, args.port) == (spawner.host, 0)
    assert args.workers == 3
    assert args.max_batch == 9
    assert args.lru_size == 111
    assert args.disk_size == 222
    assert args.cache_dir == str(tmp_path / "w1")
    assert args.max_pending == 7
    assert args.solve_timeout == 12.5


@pytest.mark.parametrize("command", ["serve", "cluster"])
def test_help_lists_the_worker_flags_with_their_defaults(command, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    help_text = capsys.readouterr().out
    defaults = vars(parser.parse_args([command]))
    max_pending = None if command == "serve" else 64
    flags = {**WORKER_FLAGS, "--max-pending": ("max_pending", max_pending)}
    for flag, (dest, default) in flags.items():
        assert flag in help_text
        assert defaults[dest] == default, flag
    # The drain never lingers, so there is no linger flag.
    assert "--max-delay-ms" not in help_text


def test_from_args_reads_the_child_command_back(tmp_path):
    config = _full_config(tmp_path)
    cmd = SubprocessSpawner()._command("w1", config)
    parsed = WorkerConfig.from_args(build_parser().parse_args(cmd[3:]))
    assert parsed == dataclasses.replace(config, cache_dir=str(tmp_path / "w1"))


def test_default_config_round_trips():
    cmd = SubprocessSpawner()._command("w0", WorkerConfig())
    assert WorkerConfig.from_args(build_parser().parse_args(cmd[3:])) == WorkerConfig()


@pytest.mark.parametrize("command", ["serve", "cluster"])
def test_max_pending_zero_means_unbounded(command):
    args = build_parser().parse_args([command, "--max-pending", "0"])
    assert WorkerConfig.from_args(args).max_pending is None


def test_server_has_the_config_shape(tmp_path):
    server = _full_config(tmp_path).server(tmp_path / "solo")
    assert (server.cache.max_entries, server.cache.max_disk_entries) == (111, 222)
    assert (tmp_path / "solo").is_dir()
    assert (server._workers, server._max_batch, server._max_pending) == (3, 9, 7)
    assert server._solve_timeout == 12.5
