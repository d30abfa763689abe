"""Tests for :mod:`repro.tree.validate`."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.tree.validate import check_preexisting


class TestCheckPreexisting:
    def test_valid_set_normalised(self, chain_tree):
        assert check_preexisting(chain_tree, [1, 2]) == frozenset({1, 2})
        assert check_preexisting(chain_tree, {}) == frozenset()

    def test_mapping_keys_used(self, chain_tree):
        assert check_preexisting(chain_tree, {1: 0, 2: 1}) == frozenset({1, 2})

    def test_out_of_range_rejected(self, chain_tree):
        with pytest.raises(ConfigurationError):
            check_preexisting(chain_tree, [5])
        with pytest.raises(ConfigurationError):
            check_preexisting(chain_tree, [-1])
