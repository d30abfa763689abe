"""Structural and workload validation.

``Tree`` construction already rejects malformed parent vectors; the helpers
here perform the *semantic* checks that solvers rely on:

* :func:`check_preexisting` — pre-existing server sets must reference
  internal nodes of the tree.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.exceptions import ConfigurationError
from repro.tree.model import Tree

__all__ = [
    "check_preexisting",
]


def check_preexisting(
    tree: Tree, preexisting: Iterable[int] | Mapping[int, int]
) -> frozenset[int]:
    """Validate a pre-existing server set and return it as a frozenset."""
    nodes = frozenset(int(v) for v in preexisting)
    for v in nodes:
        if not (0 <= v < tree.n_nodes):
            raise ConfigurationError(
                f"pre-existing server {v} is not an internal node of the tree"
            )
    return nodes
