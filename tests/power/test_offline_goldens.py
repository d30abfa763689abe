"""Golden outputs of the offline power paths.

``data/offline_power_golden.json`` pins what the offline callers of the
Pareto DP print or return:

* the Experiment 3 result of ``tests/experiments/test_exp3.py``'s small
  configuration (every series statistic, as ``repr``);
* the frontier lengths in the detail strings of a small
  :func:`~repro.experiments.scaling.run_scaling` sweep (never the
  seconds);
* ``repro power`` stdout on the CLI test tree, and the ``power=`` and
  ``cost=`` of its ``--bound`` line;
* the 2-Partition decisions of
  :func:`~repro.power.npcomplete.solve_two_partition_via_minpower` on
  fixed item lists.

Witnesses are checked for validity, not bytes: two placements with
equal ``(cost, power)`` are equally optimal, and the solvers may pick
either.  So the ``--bound`` line's ``servers=`` dict must re-price to
the printed cost and power with load-determined modes, and a
2-Partition certificate must be a balanced split.

Regenerate (only for a change that is meant to move them) with::

    PYTHONPATH=src:. python tests/power/test_offline_goldens.py --write
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from typing import Any

import pytest

from repro.cli import main
from repro.core.costs import ModalCostModel
from repro.experiments.exp3_power import Exp3Config, run_experiment3
from repro.experiments.scaling import run_scaling
from repro.power.modes import ModeSet, PowerModel
from repro.power.npcomplete import solve_two_partition_via_minpower
from repro.power.result import modal_from_replicas
from repro.tree.generators import paper_tree
from repro.tree.serialize import tree_from_json, tree_to_json

GOLDEN_PATH = Path(__file__).parent / "data" / "offline_power_golden.json"

#: ``tests/experiments/test_exp3.py``'s configuration.
EXP3 = Exp3Config(
    n_trees=4,
    n_nodes=30,
    cost_bounds=tuple(float(b) for b in range(8, 40, 4)),
    seed=17,
)

#: ``repro power`` argument tails run on the CLI test tree.
POWER_RUNS = {
    "default": [],
    "bound": ["--bound", "50"],
    "pre-bound": ["--preexisting", "1:1,2:0", "--bound", "9.0"],
    "three-modes": ["--modes", "3,6,12", "--alpha", "2", "--static", "2"],
    "three-modes-bound": [
        "--modes", "3,6,12", "--alpha", "2", "--static", "2",
        "--preexisting", "4:2,6:0", "--delete", "1.5", "--bound", "12",
    ],
}

#: Item lists for the Theorem-2 reduction (satisfiable and not).
PARTITIONS = [
    [3, 5, 4, 6, 2, 4],
    [2, 2, 2, 2, 4, 10],
    [1, 2, 3, 4],
    [5, 5, 4, 3, 3],
    [7, 3, 2, 2, 2],
    [1, 1, 1, 1, 1, 3],
    [6, 4, 4, 3, 3],
    [2, 4, 6, 8, 9],
]

_BOUND_LINE = re.compile(
    r"^bound (?P<bound>\S+): power=(?P<power>\S+) cost=(?P<cost>\S+) "
    r"servers=(?P<servers>\{.*\})$"
)


def _cli_tree() -> str:
    """``tests/test_cli.py``'s tree file contents."""
    return tree_to_json(paper_tree(25, rng=3))


def _repro_power(tree_file: str, tail: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["power", tree_file, *tail]) == 0
    return out.getvalue()


def _split_bound_line(stdout: str) -> tuple[str, dict[int, int] | None]:
    """Stdout with the ``servers=`` dict cut out, and that dict."""
    lines = stdout.splitlines()
    match = _BOUND_LINE.match(lines[-1]) if lines else None
    if match is None:
        return stdout, None
    lines[-1] = lines[-1][: match.start("servers") - len(" servers=")]
    return "\n".join(lines) + "\n", ast.literal_eval(match["servers"])


def _power_stdouts(tmp: Path) -> dict[str, str]:
    tree_file = tmp / "tree.json"
    tree_file.write_text(_cli_tree())
    return {
        name: _split_bound_line(_repro_power(str(tree_file), tail))[0]
        for name, tail in POWER_RUNS.items()
    }


def _exp3() -> dict[str, str]:
    exp3 = run_experiment3(EXP3)
    return {
        name: repr(getattr(exp3, name))
        for name in (
            "bounds", "dp_inverse", "gr_inverse", "dp_success", "gr_success",
            "gr_over_dp",
        )
    }


def _scaling() -> list[list[Any]]:
    points = run_scaling(
        cost_sizes=(),
        power_nopre_sizes=(30, 60),
        power_withpre_sizes=((30, 3), (60, 8)),
        seed=5,
    )
    return [[p.regime, p.n_nodes, p.n_preexisting, p.detail] for p in points]


def compute(tmp: Path) -> dict[str, Any]:
    """Everything the golden file pins, witnesses excluded."""
    return {
        "exp3": _exp3(),
        "scaling": _scaling(),
        "power": _power_stdouts(tmp),
        "partition": [
            solve_two_partition_via_minpower(values) is not None
            for values in PARTITIONS
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "tree.json"
    path.write_text(_cli_tree())
    return str(path)


def test_experiment3_result(golden):
    assert _exp3() == golden["exp3"]


def test_scaling_frontier_lengths(golden):
    assert _scaling() == golden["scaling"]


@pytest.mark.parametrize("name", sorted(POWER_RUNS))
def test_repro_power_stdout(golden, tree_file, name):
    tail = POWER_RUNS[name]
    full = _repro_power(tree_file, tail)
    stdout, servers = _split_bound_line(full)
    assert stdout == golden["power"][name]
    if "--bound" not in tail:
        assert servers is None
        return
    # The witness must be a valid placement at the printed prices.
    assert servers is not None
    args = dict(zip(tail[::2], tail[1::2], strict=True))
    capacities = tuple(int(c) for c in args.get("--modes", "5,10").split(","))
    pm = PowerModel(
        ModeSet(capacities),
        static_power=float(args.get("--static", 12.5)),
        alpha=float(args.get("--alpha", 3.0)),
    )
    cm = ModalCostModel.uniform(
        len(capacities), create=0.1, delete=float(args.get("--delete", 0.01)),
        changed=0.001,
    )
    pre = {
        int(v): int(m)
        for v, m in (
            item.split(":") for item in args.get("--preexisting", "").split(",")
            if item
        )
    }
    tree = tree_from_json(Path(tree_file).read_text())
    result = modal_from_replicas(tree, servers, pm, cm, pre)
    assert result.server_modes == servers
    match = _BOUND_LINE.match(full.splitlines()[-1])
    assert match is not None
    assert f"{result.power:.3f}" == match["power"]
    assert f"{result.cost:.3f}" == match["cost"]
    assert result.cost <= float(args["--bound"]) + 1e-9


def test_two_partition_decisions(golden):
    decisions = []
    for values in PARTITIONS:
        subset = solve_two_partition_via_minpower(values)
        decisions.append(subset is not None)
        if subset is not None:
            assert sum(values[i] for i in subset) * 2 == sum(values)
    assert decisions == golden["partition"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_offline_goldens.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = compute(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
