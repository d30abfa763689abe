"""Tests for :mod:`repro.tree.serialize`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exceptions import ConfigurationError, TreeStructureError, WorkloadError
from repro.tree.serialize import (
    tree_from_dict,
    tree_from_json,
    tree_to_dict,
    tree_to_json,
)

from tests.conftest import small_trees


class TestDictRoundTrip:
    def test_simple(self, chain_tree):
        assert tree_from_dict(tree_to_dict(chain_tree)) == chain_tree

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=14))
    def test_round_trip_any_tree(self, tree):
        assert tree_from_dict(tree_to_dict(tree)) == tree

    def test_schema_field_present(self, chain_tree):
        assert tree_to_dict(chain_tree)["schema"] == 1

    def test_unknown_schema_rejected(self, chain_tree):
        data = tree_to_dict(chain_tree)
        data["schema"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            tree_from_dict(data)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            tree_from_dict({"schema": 1, "parents": [None]})

    def test_bad_client_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            tree_from_dict({"schema": 1, "parents": [None], "clients": [[0]]})


class TestJsonRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(small_trees(max_nodes=12))
    def test_round_trip(self, tree):
        assert tree_from_json(tree_to_json(tree)) == tree

    def test_indent_pretty_prints(self, chain_tree):
        assert "\n" in tree_to_json(chain_tree, indent=2)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            tree_from_json("{nope")


class TestStructuralValidation:
    """A decoded payload goes through the tree's own validation: a
    well-formed dict describing no valid tree is rejected, not loaded."""

    @pytest.mark.parametrize(
        ("parents", "clients", "error", "match"),
        [
            ([], [], TreeStructureError, "at least one internal node"),
            ([1, 0], [], TreeStructureError, "exactly one root"),
            ([None, None], [], TreeStructureError, "exactly one root"),
            ([None, 5], [], TreeStructureError, "out-of-range parent"),
            ([None, 0], [[3, 1]], WorkloadError, "unknown internal node"),
            ([None], [[0, 0]], WorkloadError, "non-positive requests"),
        ],
        ids=["empty", "cycle", "two-roots", "dangling-parent", "orphan-client", "zero-requests"],
    )
    def test_rejected(self, parents, clients, error, match):
        data = {"schema": 1, "parents": parents, "clients": clients}
        with pytest.raises(error, match=match):
            tree_from_dict(data)
