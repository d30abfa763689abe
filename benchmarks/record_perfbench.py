"""Append a perfbench summary to the committed benchmark trajectory.

``perfbench/run.py`` prints two JSON lines at the end of each run: the
run context (workload, seed, ``nproc``, git commit, ...) and the result
(``correct``, ``attempted``, ``failed`` and ``metrics``).  This script
reads the captured stdout of several runs of one workload, takes the
median and the quartiles of every metric across them, and appends one
entry to ``benchmarks/results/BENCH_perfbench.json``, so the numbers of
successive performance changes form one trajectory::

    python3 perfbench/run.py --workload mincost-cluster --seed 2001 > r1.out
    python3 perfbench/run.py --workload mincost-cluster --seed 2002 > r2.out
    python benchmarks/record_perfbench.py --label "routing key" r1.out r2.out

Every run must be correct and share workload, trace mode, duration and
core count.  The commit comes from the runs' context, or from
``--commit`` when the runs were made outside a git checkout.  Quartiles
interpolate linearly between order statistics, as perfbench's own repeat
mode does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

DEFAULT_OUT = Path(__file__).resolve().parent / "results" / "BENCH_perfbench.json"
SCHEMA = 1

#: Context fields every summarised run must agree on.
_SHARED = ("workload", "trace", "seconds", "nproc")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in 0..100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def read_run(text: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """``(context, result)`` from the captured stdout of one run."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("expected a context line and a result line")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError("last line is not a perfbench result")
    return context, result


def summarise(
    runs: list[tuple[dict[str, Any], dict[str, Any]]],
    *,
    commit: str | None = None,
    label: str = "",
) -> dict[str, Any]:
    """One trajectory entry: per-metric median and IQR over ``runs``."""
    if not runs:
        raise ValueError("no runs to summarise")
    first = runs[0][0]
    for context, result in runs:
        for name in _SHARED:
            if context.get(name) != first.get(name):
                raise ValueError(
                    f"runs disagree on {name}: {context.get(name)!r} vs "
                    f"{first.get(name)!r}"
                )
        if not result["correct"]:
            raise ValueError(f"seed {context.get('seed')}: wrong or failed answers")
    commits = {context.get("git_commit") for context, _ in runs}
    if commit is None:
        if len(commits) != 1 or "unknown" in commits or None in commits:
            raise ValueError(
                f"runs name commits {sorted(map(str, commits))}; pass --commit"
            )
        (commit,) = commits
    metrics: dict[str, Any] = {}
    for name in runs[0][1]["metrics"]:
        values = [result["metrics"][name]["value"] for _, result in runs]
        q1, q3 = percentile(values, 25), percentile(values, 75)
        metrics[name] = {
            "unit": runs[0][1]["metrics"][name]["unit"],
            "median": percentile(values, 50),
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
        }
    return {
        "commit": commit,
        "label": label,
        **{name: first.get(name) for name in _SHARED},
        "seeds": [context.get("seed") for context, _ in runs],
        "runs": len(runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": metrics,
    }


def append_entry(path: Path, entry: dict[str, Any]) -> dict[str, Any]:
    """Append ``entry`` to the trajectory file at ``path`` (created if absent)."""
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("schema") != SCHEMA:
            raise ValueError(f"{path}: unsupported schema {data.get('schema')!r}")
    else:
        data = {"schema": SCHEMA, "entries": []}
    data["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=Path, help="captured stdout of perfbench runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--commit", help="commit the runs measured (default: from their context)")
    parser.add_argument("--label", default="", help="what the entry measures")
    args = parser.parse_args(argv)
    try:
        runs = [read_run(path.read_text()) for path in args.runs]
        entry = summarise(runs, commit=args.commit, label=args.label)
        append_entry(args.out, entry)
    except (OSError, ValueError, KeyError) as exc:
        print(f"record_perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"{args.out}: {entry['workload']} at {entry['commit'][:12]}, {entry['runs']} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
