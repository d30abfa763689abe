"""Computational demonstration of the Theorem-2 erratum.

The erratum is spelled out where the guard lives, in
:func:`repro.power.npcomplete.build_reduction`.

`build_reduction` refuses instances with ``max(a) >= S/2``; this test
builds the gadget for one anyway — bypassing the guard — and shows the
paper's argument genuinely breaks there: the power-optimal placement fits
under ``P_max`` while inducing an *unbalanced* partition.  That is exactly
why the guard (and the implicit restriction in the paper's proof) is
needed, and why NP-completeness survives: the excluded family is trivially
decidable.
"""

from __future__ import annotations

import pytest

from repro.core.costs import ModalCostModel
from repro.power.kernels import min_power
from repro.power.modes import ModeSet, PowerModel
from repro.tree.model import Client, Tree

VALUES = (1, 1, 2, 4)  # S = 8, S/2 = 4 = max(a): the degenerate family


def _build_unguarded():
    """Replicate build_reduction's construction for the excluded instance."""
    vals = VALUES
    n = len(vals)
    s = sum(vals)
    k = n * s * s
    sigma = 2 * k  # alpha = 2 scaling
    caps = {sigma * k}
    for a in vals:
        caps.add(sigma * k + a)
    caps.add(sigma * k + s)
    modes = ModeSet(tuple(sorted(caps)))
    power_model = PowerModel(
        modes=modes, static_power=0.0, alpha=2.0, capacity_scale=float(sigma)
    )
    parents: list[int | None] = [None]
    a_nodes, b_nodes = [], []
    for _ in range(n):
        a_nodes.append(len(parents))
        parents.append(0)
    for i in range(n):
        b_nodes.append(len(parents))
        parents.append(a_nodes[i])
    clients = [Client(0, sigma * k + s // 2)]
    for i, a in enumerate(vals):
        clients.append(Client(a_nodes[i], a))
        clients.append(Client(b_nodes[i], sigma * k))
    tree = Tree(parents, clients)
    kf = float(k)
    xf = 1.0 / sigma
    p_max = (kf + s * xf) ** 2 + n * kf**2 + s / 2 + (n - 1) / n
    return tree, power_model, p_max, a_nodes


class TestErratumCounterexample:
    def test_unbalanced_placement_slips_under_pmax(self):
        tree, power_model, p_max, a_nodes = _build_unguarded()
        free = ModalCostModel.uniform(
            power_model.modes.n_modes, create=0.0, delete=0.0, changed=0.0
        )
        opt = min_power(tree, power_model, free)
        # The optimum fits under the paper's P_max …
        assert opt.power <= p_max + 1e-6
        # … but the induced subset I = {i : replica on A_i} is NOT
        # balanced: the root runs at the cheap mode W_{1+j} (a_j = S/2
        # covers its own client), so *all* branches put replicas on A_i.
        subset = {i for i, a in enumerate(a_nodes) if a in opt.server_modes}
        assert sum(VALUES[i] for i in subset) != sum(VALUES) // 2

    def test_analytic_margin_matches(self):
        # The erratum's numbers (build_reduction's guard comment):
        # I = {all} costs 5K² + 12 + epsilon against
        # P_max = 5K² + 12.75 + epsilon'.
        tree, power_model, p_max, _ = _build_unguarded()
        free = ModalCostModel.uniform(
            power_model.modes.n_modes, create=0.0, delete=0.0, changed=0.0
        )
        opt = min_power(tree, power_model, free)
        k = float(len(VALUES) * sum(VALUES) ** 2)
        slack = p_max - opt.power
        assert slack == pytest.approx(0.75, abs=0.01)
        assert opt.power == pytest.approx(5 * k * k + 12, rel=1e-9)
