"""The array kernel's two merge paths agree at their edges.

A node's leading childless children fold on Python lists
(``_RunFold``); every other child merges in a batched level step
(``_MergeStep``).  Both must take the identity skip for an empty,
placement-free child under exactly the same test.
"""

from __future__ import annotations

from repro.core.costs import ModalCostModel
from repro.perf.stats import ParetoDPStats
from repro.power.dp_power_array import power_frontier_array
from repro.tree.model import Client, Tree

from tests.power.test_kernel_equivalence import PM, _assert_fold_equals_per_child_fold


def test_free_reuse_of_an_empty_leaf_is_still_an_identity_merge():
    # delete = 1 and changed = 0 make reusing an idle server free (a
    # price of exactly 0.0).  Empty leaf 1 (in the root's leading run)
    # and empty leaf 5 (after hub 3) still take the identity skip on
    # both paths: the counters are those of the tree without servers.
    tree = Tree([None, 0, 0, 0, 3, 0], [Client(2, 4), Client(4, 3)])
    cm = ModalCostModel.uniform(2, create=0.1, delete=1.0, changed=0.0)
    pre = {1: 0, 5: 0}
    _assert_fold_equals_per_child_fold(tree, PM, cm, pre)

    def counters(pre):
        stats = ParetoDPStats()
        power_frontier_array(tree, PM, cm, pre, stats=stats)
        return stats.as_dict()

    assert counters(pre) == counters({})
