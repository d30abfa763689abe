"""The array kernel's dominance sweeps equal their references.

``_sweep`` replaces one stable ``lexsort((p, g))`` plus the scalar
``_EPS`` sweep per output bucket with one pass over all buckets of a
merge.  It must keep exactly the same rows — including which of several
exact ``(g, p)`` duplicates survives, since that row carries the
witness placement.  Values are drawn from small grids so that ties in
``g``, in ``p`` and in both are common, plus steps just around ``_EPS``.
The leaf-run fold's list sweep must keep the same rows in the same
order, and the root prefilter may only drop candidates the rounded root
sweep rejects anyway.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.dp_power_array import (
    _certainly_beaten,
    _list_sweep,
    _sweep,
    _sweep_segment,
)
from repro.power.dp_power_pareto import _EPS, _GP, pareto_min_sweep

_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, 1.5, 2.0, 2.0 + _EPS / 2, 2.0 + 2 * _EPS, 3.25, 12.5, 40.0]
)


def _reference(g, p, sizes):
    keep: list[int] = []
    ends: list[int] = []
    lo = 0
    for size in sizes:
        seg = np.arange(lo, lo + size)
        order = seg[np.lexsort((p[seg], g[seg]))]
        kept: list[int] = []
        _sweep_segment(p[order].tolist(), 0, size, kept)
        keep += order[kept].tolist()
        ends.append(len(keep))
        lo += size
    return keep, ends


@given(
    buckets=st.lists(
        st.lists(st.tuples(_VALUES, _VALUES), max_size=40), min_size=1, max_size=6
    )
)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_per_bucket_lexsort(buckets):
    rows = [row for bucket in buckets for row in bucket]
    g = np.asarray([r[0] for r in rows], dtype=np.float64)
    p = np.asarray([r[1] for r in rows], dtype=np.float64)
    sizes = [len(bucket) for bucket in buckets]
    sel, ends = _sweep(g, p, sizes)
    assert (sel.tolist(), ends) == _reference(g, p, sizes)


def test_long_buckets_with_near_eps_steps():
    rng = np.random.default_rng(5)
    g = np.round(rng.random(500) * 20, 1)
    p = np.round(rng.random(500) * 20, 1) + rng.integers(0, 2, 500) * _EPS
    sel, ends = _sweep(g, p, [200, 300])
    assert (sel.tolist(), ends) == _reference(g, p, [200, 300])


@given(rows=st.lists(st.tuples(_VALUES, _VALUES), max_size=60))
@settings(max_examples=150, deadline=None)
def test_list_sweep_keeps_the_same_rows_in_order(rows):
    g = np.asarray([r[0] for r in rows], dtype=np.float64)
    p = np.asarray([r[1] for r in rows], dtype=np.float64)
    sel, _ = _sweep(g, p, [len(rows)])
    kept = _list_sweep([(gv, pv, i, -1) for i, (gv, pv) in enumerate(rows)])
    assert [row[2] for row in kept] == sel.tolist()


def test_list_sweep_rejects_a_step_of_exactly_eps():
    # 12.500000001 - _EPS == 12.5 exactly: the second row does not improve
    # the running best by *more* than _EPS, so both sweeps reject it.
    rows = [(0.0, 12.5 + _EPS), (1.0, 12.5), (2.0, 12.5 - _EPS)]
    g = np.asarray([r[0] for r in rows])
    p = np.asarray([r[1] for r in rows])
    sel, _ = _sweep(g, p, [len(rows)])
    kept = _list_sweep([(gv, pv, i, -1) for i, (gv, pv) in enumerate(rows)])
    assert [row[2] for row in kept] == sel.tolist() == [0, 2]


def _rounded_sweep(g, p, ids):
    cands = [
        (round(gv, 9), round(pv, 9), i)
        for gv, pv, i in zip(g.tolist(), p.tolist(), ids, strict=True)
    ]
    cands.sort(key=_GP)
    return pareto_min_sweep(cands)


#: Offsets around the 9-decimal rounding grid and the 2e-9 margin.
_NEAR = st.sampled_from(
    [0.0, 4e-10, 5e-10, 6e-10, 1e-9, 1.5e-9, 2e-9, 2.1e-9, 2.5e-9, 3e-9, 1e-8]
)


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 2.000000001, 7.25, 311.5]),
            _NEAR,
            st.sampled_from([0.0, 12.5, 20.0, 20.000000001]),
            _NEAR,
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=150, deadline=None)
def test_root_prefilter_never_changes_the_rounded_sweep(rows):
    g = np.asarray([a + b for a, b, _, _ in rows], dtype=np.float64)
    p = np.asarray([c + d for _, _, c, d in rows], dtype=np.float64)
    ids = list(range(len(rows)))
    live = np.flatnonzero(~_certainly_beaten(g, p))
    assert _rounded_sweep(g[live], p[live], live.tolist()) == _rounded_sweep(
        g, p, ids
    )


def test_root_prefilter_drops_clearly_beaten_candidates():
    g = np.asarray([1.0, 2.0, 1.0 + 1e-9, 0.5])
    p = np.asarray([5.0, 5.0, 5.0, 9.0])
    # 2.0 is beaten by 1.0; 1.0 + 1e-9 is within the margin, so it stays.
    assert _certainly_beaten(g, p).tolist() == [False, True, False, False]
    # Beyond the magnitude where the margin argument holds, nothing drops.
    assert not _certainly_beaten(g + 1e7, p).any()
