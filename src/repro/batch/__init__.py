"""Batch serving layer: canonical instance caching + high-throughput solves.

Replica-placement traffic is dominated by repeated and isomorphic
instances (the same tree families re-solved across request vectors), so
the batch layer dedupes by a relabelling-invariant canonical digest,
caches canonical solutions in an LRU + optional sharded disk store, and
fans results back out through each instance's inverse relabelling:

>>> import numpy as np
>>> from repro.batch import ResultCache, random_batch, solve_batch
>>> batch = random_batch(8, duplicate_rate=0.5, n_nodes=30, rng=np.random.default_rng(0))
>>> cache = ResultCache(max_entries=128)
>>> results = solve_batch(batch, solver="dp", cache=cache)
>>> len(results) == 8 and cache.stats.duplicates_folded > 0
True

Solver families are pluggable policies (:mod:`repro.batch.registry`):
the MinCost trio (``dp`` / ``greedy`` / ``dp_nopre``) and the power
family (``min_power`` / ``power_frontier`` / ``greedy_power``) ship
built in, and a new solver is a ~50-line registration — digest fields,
canonical solve, fan-out — not an executor fork.

See ``README.md`` ("Batch solving and caching") for cache semantics and
the CLI front-end (``repro batch``).
"""

from repro.batch.cache import ResultCache
from repro.batch.canonical import (
    Canonical,
    canonicalize,
    instance_digest,
    relabel_tree,
)
from repro.batch.executor import instance_key, solve_batch
from repro.batch.instance import (
    BatchInstance,
    batch_from_json,
    batch_to_json,
    instance_from_dict,
    instance_to_dict,
    random_batch,
)
from repro.batch.registry import (
    SolverPolicy,
    available_solvers,
    get_policy,
    register_policy,
)

__all__ = [
    "BatchInstance",
    "Canonical",
    "ResultCache",
    "SolverPolicy",
    "available_solvers",
    "batch_from_json",
    "batch_to_json",
    "canonicalize",
    "get_policy",
    "instance_digest",
    "instance_from_dict",
    "instance_key",
    "instance_to_dict",
    "random_batch",
    "register_policy",
    "relabel_tree",
    "solve_batch",
]
