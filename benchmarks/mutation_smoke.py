"""Mutation smoke for the solver kernels (stdlib only).

Copies ``src/`` and ``tests/`` to a temporary directory, flips one
comparison operator at a time in the target functions (``<`` <-> ``<=``,
``>`` <-> ``>=``, ``==`` <-> ``!=``) and runs the oracle ladder's fast
subset against each mutant.  A mutant is *killed* when a test fails or
the run exceeds its timeout, and *survives* when the subset still
passes.  Survivors are either equivalent mutants or holes in the
ladder; each is printed as ``file:line:op`` so it can be triaged.
Survivors listed in :data:`EQUIVALENT` (matched by enclosing function,
the expression around the comparison and operator, never by line
number) are printed apart with their reason, so the ``survived`` lines
are the holes.

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
    "repro/batch/canonical.py": ("routing_key", "canonicalize", "_annotate"),
}

_ARRAY = "repro/power/dp_power_array.py"
_WITHPRE = "repro/core/dp_withpre.py"
_CANONICAL = "repro/batch/canonical.py"

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
    "tests/batch/test_canonical_golden.py",
    "tests/batch/test_canonical_oracle.py",
    "tests/power/test_power_cross_validation.py",
    "tests/power/test_merge_paths.py",
    "tests/dynamics/test_prefix_reuse.py",
)


#: Known equivalent mutants: ``(module, function, expression, operator)``
#: -> why flipping that operator cannot change any output.  ``expression``
#: is the outermost expression around the comparison (an ``if`` test, a
#: call, an assignment's value), so an entry names its site by content,
#: never by line number, and covers every site with that content.
EQUIVALENT: dict[tuple[str, str, str, str], str] = {
    (_ARRAY, "_sweep", "n_buckets > 1", ">"): (
        "the multi-bucket path sweeps a single bucket exactly as well"
    ),
    (
        _ARRAY,
        "_sweep",
        "np.repeat(np.arange(n_buckets, dtype=np.int16 if n_buckets < 2 ** 15 "
        "else np.intp), sizes)",
        "<",
    ): "only picks the width of the bucket-id column",
    (_ARRAY, "_sweep", "n <= _RECORD_FILTER_MIN", "<="): (
        "the record filter keeps a superset of the accepted rows, so "
        "running it or not at exactly the threshold keeps the same rows"
    ),
    (_ARRAY, "_sweep", "np.sort(order[p_s < before[run_head]])", "<"): (
        "a weaker record filter still keeps every accepted row"
    ),
    (
        _ARRAY,
        "_certainly_beaten",
        "n < 2 or not float(np.abs(g).max()) < _ROOT_PREFILTER_MAX",
        "<",
    ): "the root prefilter only drops candidates the rounded sweep rejects; "
    "skipping it at a threshold changes nothing",
    (_ARRAY, "_large_bucket", "pos_col >= 0", ">="): (
        "a weaker certain-reject prefilter still keeps every accepted row"
    ),
    (_ARRAY, "_large_bucket", "env[pos_col[rej]] <= cp[rej]", "<="): (
        "a weaker certain-reject prefilter still keeps every accepted row"
    ),
    (_ARRAY, "_RunFold.fold", "_list_sweep(pool) if len(pool) > 1 else pool", ">"): (
        "sweeping a one-row pool keeps that row"
    ),
    (_ARRAY, "_RunFold.fold", "p1 == alias_p and mode < 0", "<"): (
        "an option at the alias sentinel power is always a pass (mode -1)"
    ),
    (_ARRAY, "_MergeStep.run", "s_p[row] == alias_p and s_mode[row] < 0", "<"): (
        "an option at the alias sentinel power is always a pass (mode -1)"
    ),
    (
        _ARRAY,
        "_MergeStep.run",
        "(large if total > _FILTER_LIMIT else swept).append((r, blks, total))",
        ">",
    ): "a bucket of exactly _FILTER_LIMIT candidates sweeps exactly on "
    "either path",
    (_WITHPRE, "_minplus", "not out or w < out[-1][1]", "<"): (
        "keeps a step whose weight equals the previous one's at a larger "
        "flow; _at reads the same weight and _flow_split finds the earlier "
        "step first, so every weight and witness is unchanged"
    ),
    (
        _WITHPRE,
        "_flow_update",
        "[(f + load, w) for f, w in acc if f + load <= capacity and w < host]",
        "<",
    ): "keeps a step of weight equal to the hosting option (0, host) at a "
    "larger flow; _at reads the same weight and _flow_split finds the "
    "earlier step first, so every weight and witness is unchanged",
    (_CANONICAL, "_annotate", "(int(req_rank.max()) + 1) * width > _INT64_MAX", ">"): (
        "dense ranks keep the order of the request ranks they replace, so "
        "packing them at exactly the bound gives the same annotation order"
    ),
    (_CANONICAL, "canonicalize", "np.bincount(par[is_child], minlength=n) > 0", ">"): (
        "counting every node as internal sends the leaves through the "
        "Python level pass, which codes and places them in the same order"
    ),
}


class Site(NamedTuple):
    """One flippable comparison operator: ``index`` counts sites in walk
    order, so the same source always yields the same numbering.
    ``function`` is the enclosing ``def`` (``Class.method`` inside a
    class, empty at module level) and ``source`` the outermost expression
    around the comparison."""

    index: int
    line: int
    op: str
    function: str = ""
    source: str = ""

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


def _contexts(tree: ast.AST) -> dict[int, tuple[str, ast.expr]]:
    """``id(node)`` -> (qualified name of the enclosing ``def``, the
    outermost expression of the statement part holding the node)."""
    out: dict[int, tuple[str, ast.expr]] = {}

    def visit(node: ast.AST, scope: str, root: ast.expr | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, f"{scope}.{child.name}" if scope else child.name, None)
            elif isinstance(child, ast.stmt):
                visit(child, scope, None)
            elif isinstance(child, ast.expr):
                top = child if root is None else root
                out[id(child)] = (scope, top)
                visit(child, scope, top)
            else:
                visit(child, scope, root)

    visit(tree, "", None)
    return out


def find_sites(source: str, functions: tuple[str, ...] | None = None) -> list[Site]:
    """Every flippable comparison operator of ``source``."""
    tree = ast.parse(source)
    contexts = _contexts(tree)
    sites: list[Site] = []
    for node in _compares(tree, functions):
        scope, top = contexts[id(node)]
        text = ast.unparse(top)
        for op in node.ops:
            if type(op) in FLIPS:
                sites.append(
                    Site(len(sites), node.lineno, _SYMBOL[type(op)], scope, text)
                )
    return sites


def equivalence_reason(module: str, site: Site) -> str | None:
    """Why the mutant at ``site`` is a known equivalent, or ``None``."""
    return EQUIVALENT.get((module, site.function, site.source, site.op))


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
        total_killed = total_survived = total_equivalent = 0
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
            holes = [s for s in survivors if equivalence_reason(module, s) is None]
            equivalent = [s for s in survivors if s not in holes]
            killed = len(sites) - len(survivors)
            total_killed += killed
            total_survived += len(holes)
            total_equivalent += len(equivalent)
            print(
                f"{module}: {killed} killed, {len(holes)} survived, "
                f"{len(equivalent)} equivalent of {len(sites)} "
                f"({time.perf_counter() - started:.0f} s)"
            )
            for site in sorted(holes, key=lambda site: site.line):
                print(f"  survived {site.label(module)}")
            for site in sorted(equivalent, key=lambda site: site.line):
                print(
                    f"  equivalent {site.label(module)} "
                    f"({equivalence_reason(module, site)})"
                )
            sys.stdout.flush()
        print(
            f"total: {total_killed} killed, {total_survived} survived, "
            f"{total_equivalent} equivalent"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
