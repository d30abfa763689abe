"""Distribution-tree substrate.

The paper's platform model (§2.1) is a fixed tree whose internal nodes may
host replicas and whose leaves are clients issuing requests.  This package
provides:

* :class:`~repro.tree.model.Tree` / :class:`~repro.tree.model.Client` — the
  immutable tree data structure used by every solver;
* :class:`~repro.tree.builders.TreeBuilder` — incremental construction;
* :mod:`~repro.tree.generators` — random workloads, including the exact
  parameterisations of the paper's experiments (fat and high trees);
* :mod:`~repro.tree.serialize` — JSON round-trips;
* :mod:`~repro.tree.metrics` — structural statistics;
* :mod:`~repro.tree.validate` — structural validation helpers.
"""

from repro.tree.builders import TreeBuilder
from repro.tree.generators import (
    attach_random_clients,
    attach_zipf_clients,
    balanced_tree,
    caterpillar_tree,
    paper_tree,
    path_tree,
    random_preexisting,
    random_preexisting_modes,
    random_recursive_tree,
    star_tree,
)
from repro.tree.model import Client, Tree
from repro.tree.serialize import tree_from_dict, tree_from_json, tree_to_dict, tree_to_json

__all__ = [
    "Client",
    "Tree",
    "TreeBuilder",
    "attach_random_clients",
    "attach_zipf_clients",
    "balanced_tree",
    "caterpillar_tree",
    "paper_tree",
    "path_tree",
    "random_preexisting",
    "random_preexisting_modes",
    "random_recursive_tree",
    "star_tree",
    "tree_from_dict",
    "tree_from_json",
    "tree_to_dict",
    "tree_to_json",
]
