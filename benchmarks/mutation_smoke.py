"""Mutation smoke for the solver kernels (stdlib only).

Copies ``src/`` and ``tests/`` to a temporary directory, flips one
comparison operator at a time in the target functions (``<`` <-> ``<=``,
``>`` <-> ``>=``, ``==`` <-> ``!=``) and runs the oracle ladder's fast
subset against each mutant.  A mutant is *killed* when a test fails or
the run exceeds its timeout, and *survives* when the subset still
passes.  Survivors are either equivalent mutants or holes in the
ladder; each is printed as ``file:line:op`` so it can be triaged.

Targets: every comparison of the array Pareto kernel, the flow-kernel
functions of the MinCost-WithPre DP, and the canonicaliser plus the
cluster routing key.

Run from the repository root::

    python benchmarks/mutation_smoke.py

Exits non-zero if the unmutated copy fails the subset.  Survivors do not
fail the run: the script reports, it does not gate.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: The comparison each operator is flipped to.
FLIPS: dict[type[ast.cmpop], type[ast.cmpop]] = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}

#: Module (relative to ``src/``) -> names of the functions to mutate
#: (``None``: the whole module).  A name ending in ``*`` is a prefix.
TARGETS: dict[str, tuple[str, ...] | None] = {
    "repro/power/dp_power_array.py": None,
    "repro/core/dp_withpre.py": ("_leaf_group", "_at", "_minplus", "_flow_*"),
    "repro/batch/canonical.py": ("routing_key", "canonicalize"),
}

#: Seconds per mutant run; a run that exceeds it counts as killed.
_TIMEOUT = 120.0

#: The oracle ladder's fast subset (about 10 s on 2 cores).
FAST_SUBSET = (
    "tests/power/test_kernel_equivalence.py",
    "tests/power/test_array_golden.py",
    "tests/power/test_array_sweep.py",
    "tests/core/test_flow_kernel.py",
    "tests/serve/test_routing_key.py",
    "tests/batch/test_canonical.py",
    "tests/power/test_power_cross_validation.py",
)


class Site(NamedTuple):
    """One flippable comparison operator: ``index`` counts sites in walk
    order, so the same source always yields the same numbering."""

    index: int
    line: int
    op: str

    def label(self, module: str) -> str:
        return f"{module}:{self.line}:{self.op}"


def _wanted(name: str, functions: tuple[str, ...] | None) -> bool:
    if functions is None:
        return True
    return any(
        name.startswith(f[:-1]) if f.endswith("*") else name == f
        for f in functions
    )


def _compares(tree: ast.AST, functions: tuple[str, ...] | None) -> Iterator[ast.Compare]:
    """Compare nodes inside the wanted top-level functions, in walk order."""
    if functions is None:
        roots: list[ast.AST] = [tree]
    else:
        roots = [
            node
            for node in ast.iter_child_nodes(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _wanted(node.name, functions)
        ]
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                yield node


def find_sites(source: str, functions: tuple[str, ...] | None = None) -> list[Site]:
    """Every flippable comparison operator of ``source``."""
    sites: list[Site] = []
    for node in _compares(ast.parse(source), functions):
        for op in node.ops:
            if type(op) in FLIPS:
                sites.append(Site(len(sites), node.lineno, _SYMBOL[type(op)]))
    return sites


def mutate(source: str, site: Site, functions: tuple[str, ...] | None = None) -> str:
    """``source`` with the operator at ``site`` flipped (re-rendered by
    :func:`ast.unparse`, so comments and layout are not kept)."""
    tree = ast.parse(source)
    k = 0
    for node in _compares(tree, functions):
        for i, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue
            if k == site.index:
                node.ops[i] = FLIPS[type(op)]()
                return ast.unparse(tree) + "\n"
            k += 1
    raise ValueError(f"no comparison site {site.index}")


def _run_subset(work: Path) -> bool:
    """True iff the fast subset passes on the copy under ``work``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *FAST_SUBSET,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=env, timeout=_TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    modules = sorted(TARGETS)

    with tempfile.TemporaryDirectory(prefix="mutation-smoke-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        if not _run_subset(work):
            print("error: the unmutated copy fails the fast subset", file=sys.stderr)
            return 1
        total_killed = total_survived = 0
        for module in modules:
            path = work / "src" / module
            original = path.read_text()
            sites = find_sites(original, TARGETS[module])
            survivors: list[Site] = []
            started = time.perf_counter()
            for site in sites:
                path.write_text(mutate(original, site, TARGETS[module]))
                if _run_subset(work):
                    survivors.append(site)
                path.write_text(original)
            killed = len(sites) - len(survivors)
            total_killed += killed
            total_survived += len(survivors)
            print(
                f"{module}: {killed} killed, {len(survivors)} survived "
                f"of {len(sites)} ({time.perf_counter() - started:.0f} s)"
            )
            for site in sorted(survivors, key=lambda site: site.line):
                print(f"  survived {site.label(module)}")
            sys.stdout.flush()
        print(f"total: {total_killed} killed, {total_survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
