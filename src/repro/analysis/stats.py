"""Aggregation statistics for experiment series.

Everything the figure runners need to turn per-tree samples into the mean
curves the paper plots, with standard errors so EXPERIMENTS.md can report
uncertainty at reduced replication counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["SeriesStats", "summarize", "merge_series"]


@dataclass(frozen=True)
class SeriesStats:
    """Mean/err summary of one sample set."""

    n: int
    mean: float
    std: float
    stderr: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.stderr:.3f} (n={self.n})"


def summarize(samples: Iterable[float]) -> SeriesStats:
    """Summarise a sample set; empty input yields NaN statistics."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        nan = float("nan")
        return SeriesStats(0, nan, nan, nan, nan, nan)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SeriesStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        stderr=std / math.sqrt(arr.size) if arr.size else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def merge_series(parts: Sequence[SeriesStats]) -> SeriesStats:
    """Pool summaries computed on disjoint sample sets.

    Exact for mean/min/max; the pooled standard deviation is recovered from
    per-part sums of squares (parallel-axis theorem), so merging chunked
    results — e.g. from :mod:`repro.experiments.parallel` — matches a
    single-pass :func:`summarize` up to floating-point rounding.
    """
    parts = [p for p in parts if p.n > 0]
    if not parts:
        return summarize([])
    n = sum(p.n for p in parts)
    mean = sum(p.n * p.mean for p in parts) / n
    # Σx² of each part: (n-1)·s² + n·m².
    sum_sq = sum((p.n - 1) * p.std**2 + p.n * p.mean**2 for p in parts)
    var = (sum_sq - n * mean**2) / (n - 1) if n > 1 else 0.0
    std = math.sqrt(max(var, 0.0))
    return SeriesStats(
        n=n,
        mean=mean,
        std=std,
        stderr=std / math.sqrt(n),
        minimum=min(p.minimum for p in parts),
        maximum=max(p.maximum for p in parts),
    )
