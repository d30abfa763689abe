"""Pareto-DP kernel benchmark + thresholded perf smoke.

Measures the production engine (``KERNELS["array"]``, the
structure-of-arrays kernel of :mod:`repro.power.dp_power_array`) against
the plain reference DP (:func:`repro.power.dp_power_pareto
.power_frontier`) on one instance per family, and asserts that every
timed run of both returns the same ``(cost, power)`` frontier.  The two
timers are interleaved so CPU-frequency drift cannot bias the ratio.  The run
writes ``benchmarks/results/BENCH_pareto.json`` — per family: wall
times for both kernels, the speedup, and the engine's counters (labels
created / generated / rejected at merge).  CI uploads the file as an
artifact, so the speedup history is inspectable per commit.

Two gates fail the build:

* **speedup floor** — the families marked ``hard`` (larger mode sets,
  wider fronts: where merge label work dominates) must beat the
  reference by ``REPRO_BENCH_MIN_PARETO_SPEEDUP`` (default 3.0; CI
  relaxes it on shared runners).  The small two-mode families are
  *recorded* but not gated: at ~50 nodes both kernels are bounded by
  the per-node skeleton, not by label work, and the engine's numpy
  call overhead makes it slower than the reference there.
* **regression smoke** — the engine's wall time per family must stay
  within ``REPRO_PARETO_REGRESSION_FACTOR`` (default 1.5) of the
  committed baseline (``benchmarks/baselines/BENCH_pareto_baseline.json``),
  after rescaling by a pure-Python calibration loop measured on both
  machines — so a slower runner shifts the threshold instead of failing
  the build.  The loop is timed beside every family's runs and the best
  of all those loops is kept, so one disturbed stretch of the run cannot
  set every limit.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

import numpy as np

from repro.analysis import format_table
from repro.core.costs import ModalCostModel
from repro.perf.stats import ParetoDPStats
from repro.power.dp_power_pareto import power_frontier
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting_modes
from repro.tree.model import Client, Tree

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_pareto_baseline.json"
)

PM2 = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM2 = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)
PM3 = PowerModel(ModeSet((3, 6, 12)), static_power=5.0, alpha=2.0)
CM3 = ModalCostModel.uniform(3, create=0.1, delete=0.01, changed=0.001)
PM4 = PowerModel(ModeSet((4, 8, 16, 32)), static_power=3.0, alpha=2.0)
CM4 = ModalCostModel.uniform(4, create=0.1, delete=0.01, changed=0.001)


def _balanced(branch: int, depth: int, load: int) -> Tree:
    parents: list[int | None] = [None]
    level = [0]
    for _ in range(depth):
        nxt = []
        for p in level:
            for _ in range(branch):
                nxt.append(len(parents))
                parents.append(p)
        level = nxt
    return Tree(parents, [Client(v, load) for v in level])


def _families() -> dict[str, dict]:
    """One representative instance per family.

    ``hard=True`` marks the families the speedup gate applies to.
    ``reps`` bounds the interleaved timing repetitions (larger instances
    need fewer for a stable best-of).
    """
    f: dict[str, dict] = {}

    # The bench_micro_solvers power case, verbatim (fig-8 shape).
    t = paper_tree(50, request_range=(1, 5), rng=np.random.default_rng(44))
    pre = random_preexisting_modes(t, 5, 2, rng=np.random.default_rng(45), mode=1)
    f["micro_power50"] = dict(tree=t, pm=PM2, cm=CM2, pre=pre, reps=30, hard=False)

    # Fig-10 shape: high trees, pass-chains dominate.
    rng = np.random.default_rng(2013)
    t = paper_tree(50, children_range=(2, 4), request_range=(1, 5), rng=rng)
    pre = random_preexisting_modes(t, 5, 2, rng=rng, mode=1)
    f["high50"] = dict(tree=t, pm=PM2, cm=CM2, pre=pre, reps=30, hard=False)

    # Larger two-mode fat tree (batch/serve scale).
    t = paper_tree(400, request_range=(1, 5), rng=np.random.default_rng(7))
    pre = random_preexisting_modes(t, 40, 2, rng=np.random.default_rng(8), mode=1)
    f["fat400"] = dict(tree=t, pm=PM2, cm=CM2, pre=pre, reps=8, hard=False)

    # Self-similar structure: every hub roots an identical subtree.  A
    # cold solve computes each one (only a live session's FrontStore
    # shares repeated tables), so this records the cost of that.
    f["memo_balanced3x5"] = dict(
        tree=_balanced(3, 5, 3), pm=PM2, cm=CM2, pre={}, reps=8, hard=False
    )

    # Three modes: fronts widen, the cross products the reference
    # materialises grow — the dominance-aware merge's home turf.
    t = paper_tree(500, request_range=(1, 6), rng=np.random.default_rng(31))
    pre = random_preexisting_modes(t, 50, 3, rng=np.random.default_rng(32), mode=1)
    f["threemode500"] = dict(tree=t, pm=PM3, cm=CM3, pre=pre, reps=4, hard=True)

    # Four modes: the hardest family, output-sensitivity dominates.
    t = paper_tree(200, request_range=(1, 8), rng=np.random.default_rng(41))
    pre = random_preexisting_modes(t, 20, 4, rng=np.random.default_rng(42), mode=2)
    f["fourmode200"] = dict(tree=t, pm=PM4, cm=CM4, pre=pre, reps=4, hard=True)

    return f


def _diverse_instance(
    n_nodes: int, seed: int, caps: tuple[int, ...], requests: tuple[int, int]
):
    """A label-heavy instance: *mode-dependent* create/delete/changed
    prices keep sibling fronts distinct (uniform costs collapse them), so
    merge label work — the array kernel's target — dominates the solve."""
    rng = random.Random(seed)
    tree = paper_tree(n_nodes, rng=seed, request_range=requests)
    pm = PowerModel(ModeSet(caps), static_power=2.0, alpha=2.0)
    k = len(caps)
    cm = ModalCostModel(
        create=tuple(0.2 + 0.07 * m for m in range(k)),
        delete=tuple(0.05 + 0.013 * m for m in range(k)),
        changed=tuple(
            tuple(0.0 if a == b else 0.01 + 0.003 * abs(a - b) for b in range(k))
            for a in range(k)
        ),
    )
    pre = {
        v: rng.randrange(k)
        for v in tree.post_order()
        if v != tree.root and rng.random() < 0.25
    }
    return tree, pm, cm, pre


def _diverse_families() -> dict[str, dict]:
    """Label-heavy six-mode instances with diverse per-mode prices.

    Small instances are deliberately absent: below ~10^6 labels both
    kernels are bounded by the per-node skeleton, so the ratio says
    little about merge work.
    """
    six = (1, 2, 4, 7, 11, 16)
    f: dict[str, dict] = {}
    tree, pm, cm, pre = _diverse_instance(400, 7, six, (1, 10))
    f["sixmode400_div"] = dict(
        tree=tree, pm=pm, cm=cm, pre=pre, reps=3, hard=False
    )
    tree, pm, cm, pre = _diverse_instance(800, 8, six, (1, 10))
    f["sixmode800_div"] = dict(
        tree=tree, pm=pm, cm=cm, pre=pre, reps=2, hard=True
    )
    return f


def _calibration_loop() -> float:
    """One pure-Python loop for cross-machine threshold rescaling."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _paired(fn_new, fn_old, reps: int) -> tuple[float, float, float, list, list]:
    """Interleaved best-of wall times of the engine, the reference and the
    calibration loop (defeats CPU-frequency drift), and every timed run's
    result, new and old."""
    best_new = best_old = best_cal = float("inf")
    out_new: list = []
    out_old: list = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out_new.append(fn_new())
        best_new = min(best_new, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out_old.append(fn_old())
        best_old = min(best_old, time.perf_counter() - t0)
        best_cal = min(best_cal, _calibration_loop())
    return best_new, best_old, best_cal, out_new, out_old


def _run_families() -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name, spec in {**_families(), **_diverse_families()}.items():
        tree, pm, cm, pre = spec["tree"], spec["pm"], spec["cm"], spec["pre"]
        stats = ParetoDPStats()
        frontier = KERNELS["array"](tree, pm, cm, pre, stats=stats)
        new_s, ref_s, cal_s, engine_runs, reference_runs = _paired(
            lambda: KERNELS["array"](tree, pm, cm, pre),
            lambda: power_frontier(tree, pm, cm, pre),
            spec["reps"],
        )
        # Byte identity of every timed run — a fast wrong frontier is not
        # a speedup.  The reference is only ever solved inside the timer
        # (on sixmode800_div one reference solve takes about a minute).
        expected = reference_runs[0].pairs()
        for run in (frontier, *engine_runs, *reference_runs[1:]):
            assert run.pairs() == expected, (
                f"{name}: kernel frontier diverged from the reference"
            )
        out[name] = {
            "n_nodes": tree.n_nodes,
            "n_modes": pm.modes.n_modes,
            "hard": spec["hard"],
            "points": len(frontier),
            "kernel_seconds": new_s,
            "reference_seconds": ref_s,
            "calibration_seconds": cal_s,
            "speedup": ref_s / new_s,
            "stats": stats.as_dict(),
        }
    return out


def test_pareto_kernel_speedup_and_smoke(benchmark, emit):
    families = benchmark.pedantic(_run_families, rounds=1, iterations=1)
    calibration = min(fam["calibration_seconds"] for fam in families.values())

    report = {
        "calibration_seconds": calibration,
        "families": families,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_pareto.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    rows = [
        (
            name,
            fam["n_nodes"],
            fam["n_modes"],
            fam["points"],
            f"{fam['reference_seconds'] * 1e3:.2f}",
            f"{fam['kernel_seconds'] * 1e3:.2f}",
            f"{fam['speedup']:.2f}x",
            fam["stats"]["labels_created"],
            fam["stats"]["labels_generated"],
            "hard" if fam["hard"] else "",
        )
        for name, fam in families.items()
    ]
    table = format_table(
        (
            "family", "N", "M", "pts", "reference_ms", "kernel_ms",
            "speedup", "created", "generated", "gate",
        ),
        rows,
    )
    emit(
        "pareto_kernel",
        f"{table}\n\nByte-identical frontiers on every family (asserted "
        "on every timed run); 'hard' families carry the speedup gate (label work "
        "dominates there — the small two-mode families are skeleton-bound "
        "and are recorded ungated).",
    )

    # Gate 1: the label-bound families must beat the reference.
    floor = float(os.environ.get("REPRO_BENCH_MIN_PARETO_SPEEDUP", "3.0"))
    for name, fam in families.items():
        if fam["hard"]:
            assert fam["speedup"] >= floor, (
                f"{name}: speedup {fam['speedup']:.2f}x fell below the "
                f"{floor:.1f}x floor (reference "
                f"{fam['reference_seconds']:.4f}s, "
                f"kernel {fam['kernel_seconds']:.4f}s)"
            )

    # Gate 2: wall-time regression vs the committed baseline, rescaled by
    # the calibration workload so runner speed shifts the threshold.
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        factor = float(os.environ.get("REPRO_PARETO_REGRESSION_FACTOR", "1.5"))
        scale = calibration / baseline["calibration_seconds"]
        for name, fam in families.items():
            ref = baseline["families"].get(name)
            if ref is None:
                continue
            limit = ref["kernel_seconds"] * scale * factor
            assert fam["kernel_seconds"] <= limit, (
                f"{name}: kernel took {fam['kernel_seconds']:.4f}s, over the "
                f"baseline-derived limit {limit:.4f}s "
                f"(baseline {ref['kernel_seconds']:.4f}s x scale "
                f"{scale:.2f} x factor {factor})"
            )
