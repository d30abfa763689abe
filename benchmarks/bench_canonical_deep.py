"""Canonicalisation on path-heavy trees: the AHU-interning regression.

The original AHU encoding concatenated child code *strings*, which is
O(N²) characters on a depth-N path; interned integer codes keep the
encoding near-linear (see :mod:`repro.batch.canonical`).  This bench
times a depth-1000 path (the ROADMAP regression case), checks digest
invariance under the worst-case reversal relabelling, and asserts a
generous near-linearity bound on the depth-1000 → depth-4000 scaling so
an accidental return to quadratic growth fails loudly.  It also prints,
without a gate, the median time on paper trees of the request sizes
(n = 100/200/400 with n/8 pre-existing servers, keyed as a ``dp``
request is), the shape the serving path pays for on every request.
"""

from __future__ import annotations

import statistics
import time
from functools import partial

import numpy as np

from repro.batch.canonical import canonicalize, instance_digest, relabel_tree
from repro.tree.generators import paper_tree, random_preexisting
from repro.tree.model import Tree

DEPTH = 1000
SCALE_DEPTH = 4000
# Quadratic growth would be 16x work at 4x depth; allow generous noise
# headroom over the linear 4x on shared runners.
MAX_SCALE_RATIO = 10.0
PAPER_SIZES = (100, 200, 400)
PAPER_TREES = 20


def _path_tree(depth: int) -> Tree:
    parents = [None] + list(range(depth - 1))
    clients = [(depth - 1, 3), (depth // 2, 2), (depth // 3, 5)]
    return Tree(parents, clients, validate=False)


def _timed(fn, repeats: int = 3):
    best = None
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return out, best


def test_deep_path_canonicalisation(emit):
    tree = _path_tree(DEPTH)
    canon, t_deep = _timed(lambda: canonicalize(tree))

    # Correctness on the regression shape: the reversal permutation makes
    # the old string encoding touch its longest codes first.
    reversed_tree, _ = relabel_tree(tree, list(range(DEPTH - 1, -1, -1)))
    assert instance_digest(canonicalize(reversed_tree), 10, None, "dp") == (
        instance_digest(canon, 10, None, "dp")
    )

    big = _path_tree(SCALE_DEPTH)
    _, t_big = _timed(lambda: canonicalize(big))
    ratio = t_big / t_deep
    emit(
        "canonical_deep",
        f"depth {DEPTH}: {t_deep * 1e3:.2f} ms   "
        f"depth {SCALE_DEPTH}: {t_big * 1e3:.2f} ms   "
        f"ratio {ratio:.1f}x (linear would be "
        f"{SCALE_DEPTH / DEPTH:.0f}x, quadratic "
        f"{(SCALE_DEPTH / DEPTH) ** 2:.0f}x)\n"
        f"acceptance: ratio <= {MAX_SCALE_RATIO:.0f}x",
    )
    assert ratio <= MAX_SCALE_RATIO


def test_paper_tree_canonicalisation(emit):
    lines = []
    for n in PAPER_SIZES:
        times = []
        for seed in range(PAPER_TREES):
            rng = np.random.default_rng(seed)
            tree = paper_tree(n, rng=rng)
            pre = {v: 0 for v in random_preexisting(tree, n // 8, rng=rng)}
            times.append(_timed(partial(canonicalize, tree, pre))[1])
        lines.append(
            f"paper tree n={n}: {statistics.median(times) * 1e3:.3f} ms "
            f"(median of {PAPER_TREES} trees, best of 3 each)"
        )
    emit("canonical_paper", "\n".join(lines))


def test_micro_canonicalize_deep_path(benchmark):
    tree = _path_tree(DEPTH)
    canon = benchmark.pedantic(
        lambda: canonicalize(tree), rounds=3, iterations=1
    )
    assert len(canon.parents) == DEPTH
