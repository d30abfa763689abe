"""repro — Power-aware replica placement and update strategies in tree networks.

A complete, from-scratch reproduction of Benoit, Renaud-Goud & Robert
(RR-LIP-2010-29 / IPDPS 2011 workshops): optimal replica *update* strategies
with pre-existing servers (MinCost-WithPre, Theorem 1), the NP-completeness
construction for MinPower (Theorem 2) and the bounded-cost power-minimisation
dynamic programs (Theorem 3), together with the greedy baseline of Wu, Lin &
Liu used in the paper's experiments and the full simulation harness behind
Figures 4–11.

Quickstart
----------
>>> import numpy as np
>>> from repro import paper_tree, greedy_placement, replica_update
>>> tree = paper_tree(n_nodes=30, rng=np.random.default_rng(0))
>>> gr = greedy_placement(tree, capacity=10)
>>> dp = replica_update(tree, capacity=10, preexisting=set(gr.replicas))
>>> dp.n_replicas == gr.n_replicas
True

See ``README.md`` for the architecture overview; its "Layout" section
maps the paper's parts to the subpackages.
"""

from repro._version import __version__
from repro.batch import BatchInstance, ResultCache, solve_batch
from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    SolverError,
    TreeStructureError,
    WorkloadError,
)
from repro.core import (
    ModalCostModel,
    PlacementResult,
    UniformCostModel,
    dp_nopre_placement,
    greedy_placement,
    replica_update,
)
from repro.tree import (
    Client,
    Tree,
    TreeBuilder,
    paper_tree,
    random_preexisting,
    random_preexisting_modes,
)

__all__ = [
    "__version__",
    "BatchInstance",
    "Client",
    "ConfigurationError",
    "InfeasibleError",
    "ModalCostModel",
    "PlacementResult",
    "ReproError",
    "ResultCache",
    "SolverError",
    "Tree",
    "TreeBuilder",
    "TreeStructureError",
    "UniformCostModel",
    "WorkloadError",
    "dp_nopre_placement",
    "greedy_placement",
    "paper_tree",
    "random_preexisting",
    "random_preexisting_modes",
    "replica_update",
    "solve_batch",
]
