"""The array kernel's batched dominance sweep equals the per-bucket reference.

``_sweep`` replaces one stable ``lexsort((p, g))`` plus the scalar
``_EPS`` sweep per output bucket with one pass over all buckets of a
merge.  It must keep exactly the same rows — including which of several
exact ``(g, p)`` duplicates survives, since that row carries the
witness placement.  Values are drawn from small grids so that ties in
``g``, in ``p`` and in both are common, plus steps just around ``_EPS``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.dp_power_array import _sweep, _sweep_segment
from repro.power.dp_power_pareto import _EPS

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
