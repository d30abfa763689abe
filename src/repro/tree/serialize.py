"""Tree (de)serialization: dict/JSON round-trips.

The dict schema is versioned so saved workloads stay loadable:

.. code-block:: python

    {
        "schema": 1,
        "parents": [None, 0, 0, 1],
        "clients": [[1, 4], [3, 2]],          # (node, requests) pairs
    }
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from repro.exceptions import ConfigurationError
from repro.tree.model import Tree

__all__ = [
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_json",
    "tree_from_json",
]

_SCHEMA = 1


def tree_to_dict(tree: Tree) -> dict[str, Any]:
    """Serialize a tree (structure + workload) to a JSON-friendly dict."""
    return {
        "schema": _SCHEMA,
        "parents": list(tree.parents),
        "clients": [[c.node, c.requests] for c in tree.clients],
    }


def tree_from_dict(data: Mapping[str, Any]) -> Tree:
    """Inverse of :func:`tree_to_dict`."""
    schema = data.get("schema", _SCHEMA)
    if schema != _SCHEMA:
        raise ConfigurationError(f"unsupported tree schema version {schema}")
    try:
        parents = [None if p is None else int(p) for p in data["parents"]]
        clients = [(int(n), int(r)) for n, r in data["clients"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed tree dict: {exc}") from exc
    return Tree(parents, clients)


def tree_to_json(tree: Tree, *, indent: int | None = None) -> str:
    """Serialize a tree to a JSON string.

    Keys are sorted so equal trees serialise to equal bytes regardless
    of how the payload dict was assembled (the determinism contract the
    ``repro lint`` determinism rule enforces for this module).
    """
    return json.dumps(tree_to_dict(tree), indent=indent, sort_keys=True)


def tree_from_json(text: str) -> Tree:
    """Parse a tree from a JSON string produced by :func:`tree_to_json`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from exc
    return tree_from_dict(data)
