"""The NP-completeness construction of Theorem 2 (§4.2, Figure 3).

The paper reduces 2-Partition to MinPower: given positive integers
``a_1..a_n`` with even sum ``S``, it builds a tree whose power-optimal
placements with consumption at most ``P_max`` correspond exactly to subsets
``I`` with ``Σ_{i∈I} a_i = S/2``.

Construction (with ``α = 2``; the proof allows any rational ``α ∈ [2,3]``):

* ``K = n·S²`` and ``X = 1/(α·K^{α-1}) = 1/(2K)``;
* modes ``W_1 = K``, ``W_{1+i} = K + a_i·X`` (one per item), and
  ``W_{n+2} = K + S·X``;
* the root has a client with ``K + (S/2)·X`` requests and children
  ``A_1..A_n``; each ``A_i`` has a client with ``a_i·X`` requests and one
  child ``B_i`` carrying a client with ``K`` requests;
* no static power, and the power cap is
  ``P_max = (K+S·X)^α + n·K^α + S/2 + (n-1)/n``.

Requests and capacities are rationals with denominator ``2K``, so we scale
*loads and capacities* by ``σ = 2K`` (making them integers, as
:class:`~repro.tree.model.Tree` requires) while the
:class:`~repro.power.modes.PowerModel` divides capacities by
``capacity_scale = σ`` before exponentiation — power values are computed on
the paper's original magnitudes and ``P_max`` needs no adjustment.

This module is executable evidence for Theorem 2 in both directions:
:func:`solve_two_partition_via_minpower` decides 2-Partition with the
MinPower solver, and the tests check it against a classical subset-sum
reference on randomised instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError
from repro.power.kernels import min_power
from repro.power.modes import ModeSet, PowerModel
from repro.tree.model import Client, Tree

__all__ = [
    "TwoPartitionReduction",
    "build_reduction",
    "partition_from_placement",
    "solve_two_partition_via_minpower",
    "two_partition_reference",
]

_ALPHA = 2.0


@dataclass(frozen=True)
class TwoPartitionReduction:
    """The MinPower instance produced from a 2-Partition instance."""

    values: tuple[int, ...]
    tree: Tree
    power_model: PowerModel
    p_max: float
    scale: int
    a_nodes: tuple[int, ...]  #: node id of ``A_i`` for each item ``i``
    b_nodes: tuple[int, ...]  #: node id of ``B_i`` for each item ``i``

    @property
    def half_sum(self) -> int:
        return sum(self.values) // 2


def build_reduction(values: Sequence[int]) -> TwoPartitionReduction:
    """Build the Theorem-2 instance ``I2`` from 2-Partition instance ``I1``.

    Raises
    ------
    ConfigurationError
        For empty input, non-positive items, or an odd sum (the paper
        assumes ``S`` even; odd instances are trivially unsatisfiable and
        the gadget's root client would not scale to an integer).
    """
    vals = tuple(int(a) for a in values)
    if not vals:
        raise ConfigurationError("2-Partition needs at least one item")
    if any(a <= 0 for a in vals):
        raise ConfigurationError(f"items must be strictly positive, got {vals}")
    s = sum(vals)
    if s % 2:
        raise ConfigurationError(
            f"item sum {s} is odd; the reduction assumes an even sum "
            "(odd instances have no solution)"
        )
    if max(vals) >= s // 2:
        # Paper erratum: the proof of Theorem 2 asserts that the root's
        # K + (S/2)·X requests "can only be handled by W_{n+2}", which is
        # false when some a_j >= S/2 (mode W_{1+j} = K + a_j·X suffices and
        # the cheaper root mode lets unbalanced placements fit under P_max;
        # e.g. values (1,1,2,4) admit I = {all} at power 5K²+12 < P_max =
        # 5K²+12.75).  Such instances are trivially decidable — a_j > S/2
        # means "no", a_j = S/2 means "{j}" — so the reduction rightfully
        # assumes max(a) < S/2.  See DESIGN.md.
        raise ConfigurationError(
            f"reduction requires max(a) < S/2 (got max={max(vals)}, "
            f"S/2={s // 2}); decide such instances directly"
        )
    n = len(vals)
    k = n * s * s  # K = n·S², which satisfies K^α >= 5·a_i²·n/α² (§4.2)
    sigma = 2 * k  # scale = 1/X with X = 1/(2K) for α = 2

    # Scaled capacities; duplicate item values collapse to one mode, which
    # preserves semantics (mode_of maps loads to the same capacity).
    caps = {sigma * k}  # W_1 = K  ->  2K²
    for a in vals:
        caps.add(sigma * k + a)  # W_{1+i} = K + a_i X  ->  2K² + a_i
    caps.add(sigma * k + s)  # W_{n+2} = K + S X  ->  2K² + S
    modes = ModeSet(tuple(sorted(caps)))
    power_model = PowerModel(
        modes=modes, static_power=0.0, alpha=_ALPHA, capacity_scale=float(sigma)
    )

    # Tree: root 0; A_i = 1..n; B_i = n+1..2n (child of A_i).
    parents: list[int | None] = [None]
    a_nodes = []
    b_nodes = []
    for _ in range(n):
        a_nodes.append(len(parents))
        parents.append(0)
    for i in range(n):
        b_nodes.append(len(parents))
        parents.append(a_nodes[i])
    clients = [Client(0, sigma * k + s // 2)]  # K + (S/2)·X
    for i, a in enumerate(vals):
        clients.append(Client(a_nodes[i], a))  # a_i·X
        clients.append(Client(b_nodes[i], sigma * k))  # K
    tree = Tree(parents, clients)

    kf = float(k)
    xf = 1.0 / sigma
    p_max = (kf + s * xf) ** _ALPHA + n * kf**_ALPHA + s / 2 + (n - 1) / n
    return TwoPartitionReduction(
        values=vals,
        tree=tree,
        power_model=power_model,
        p_max=p_max,
        scale=sigma,
        a_nodes=tuple(a_nodes),
        b_nodes=tuple(b_nodes),
    )


def partition_from_placement(
    reduction: TwoPartitionReduction, server_modes: Mapping[int, int]
) -> set[int]:
    """Extract ``I = {i : replica on A_i}`` from a MinPower solution."""
    return {
        i for i, a_node in enumerate(reduction.a_nodes) if a_node in server_modes
    }


def solve_two_partition_via_minpower(values: Sequence[int]) -> set[int] | None:
    """Decide 2-Partition through the MinPower reduction (both directions).

    Returns a subset ``I`` with ``Σ_{i∈I} a_i = S/2``, or ``None`` when the
    instance (equivalently, the power bound) is unsatisfiable.  This is the
    constructive form of Theorem 2's "I1 has a solution iff I2 does".
    """
    vals = tuple(int(a) for a in values)
    s = sum(vals)
    if s % 2:
        return None
    # Degenerate family excluded by the reduction (see build_reduction):
    # an item above S/2 blocks any balanced split; an item equal to S/2 is
    # itself a certificate.
    biggest = max(range(len(vals)), key=lambda i: vals[i]) if vals else 0
    if vals and vals[biggest] > s // 2:
        return None
    if vals and vals[biggest] == s // 2:
        return {biggest}
    reduction = build_reduction(vals)
    # Power optimisation only; costs are irrelevant to Theorem 2 (the proof
    # holds "independently of the incurred cost").
    free = ModalCostModel.uniform(
        reduction.power_model.modes.n_modes, create=0.0, delete=0.0, changed=0.0
    )
    solution = min_power(reduction.tree, reduction.power_model, free)
    if solution.power > reduction.p_max + 1e-6:
        return None
    subset = partition_from_placement(reduction, solution.server_modes)
    if sum(vals[i] for i in subset) != reduction.half_sum:
        # Defensive: Theorem 2 guarantees this never happens for a solution
        # within P_max.
        raise ConfigurationError(
            "placement within P_max did not induce a balanced partition; "
            "reduction invariant violated"
        )
    return subset


def two_partition_reference(values: Sequence[int]) -> set[int] | None:
    """Classical subset-sum DP reference solver (certificate included)."""
    vals = tuple(int(a) for a in values)
    s = sum(vals)
    if s % 2:
        return None
    target = s // 2
    # reachable[t] = index of the last item used to first reach sum t.
    reachable: list[int | None] = [None] * (target + 1)
    reachable[0] = -1
    for idx, a in enumerate(vals):
        # Descending t: reachable[t - a] still holds its pre-pass value, so
        # each item is used at most once and predecessor items have smaller
        # indices (which makes the walk-back below terminate).
        for t in range(target, a - 1, -1):
            if reachable[t] is None and reachable[t - a] is not None:
                reachable[t] = idx
    if reachable[target] is None:
        return None
    subset: set[int] = set()
    t = target
    while t > 0:
        idx = reachable[t]
        assert idx is not None and idx >= 0
        subset.add(idx)
        t -= vals[idx]
    return subset
