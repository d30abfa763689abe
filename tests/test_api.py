"""Public API surface tests."""

from __future__ import annotations

import importlib

import pytest


class TestTopLevelExports:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.8.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.tree",
            "repro.core",
            "repro.power",
            "repro.dynamics",
            "repro.experiments",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name, None) is not None, f"{module}.{name}"

    def test_exception_hierarchy(self):
        from repro import (
            ConfigurationError,
            InfeasibleError,
            ReproError,
            SolverError,
            TreeStructureError,
            WorkloadError,
        )

        for exc in (
            ConfigurationError,
            InfeasibleError,
            SolverError,
            TreeStructureError,
            WorkloadError,
        ):
            assert issubclass(exc, ReproError)

    def test_module_docstring_quickstart_runs(self):
        # The doctest-style snippet in the package docstring must stay true.
        import numpy as np

        from repro import greedy_placement, paper_tree, replica_update

        tree = paper_tree(n_nodes=30, rng=np.random.default_rng(0))
        gr = greedy_placement(tree, capacity=10)
        dp = replica_update(tree, capacity=10, preexisting=set(gr.replicas))
        assert dp.n_replicas == gr.n_replicas
