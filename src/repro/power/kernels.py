"""The production Pareto-DP engine.

:data:`KERNELS` maps the one engine every server, session, CLI command
and worker runs, ``"array"`` —
:func:`~repro.power.dp_power_array.power_frontier_array`, the
structure-of-arrays numpy kernel.  Production callers look it up here at
call time rather than importing the function, so a wrapper installed
into the dict (the tracing harness under ``perfbench/`` does this, and
its workloads import the dict) sees every solve.

The row-tuple kernel :func:`~repro.power.dp_power_pareto.power_frontier`
is not an engine choice: it is the cold-solve reference the array
kernel is pinned against (``tests/power/test_kernel_equivalence.py``)
and the solver of the offline experiments.

:class:`~repro.power.frontstore.FrontStore` (re-exported here) retains
per-subtree tables *across* array-kernel solves; it is the engine
interface the incremental re-solve sessions of
:mod:`repro.dynamics.incremental` are built on.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.power.dp_power_array import power_frontier_array
from repro.power.frontstore import FrontStore

__all__ = ["KERNELS", "FrontStore"]

#: Engine name -> solver callable (``power_frontier``'s signature plus
#: ``front_store=``).
KERNELS: dict[str, Callable] = {"array": power_frontier_array}
