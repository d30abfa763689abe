"""Tests for :mod:`repro.power.serialize` and the frontier records.

These dicts are the power layer's wire format: batch instance files,
the registry's cached entries and the serve protocol all carry the
models as :func:`power_model_to_dict` / :func:`modal_cost_model_to_dict`
output, and frontiers as :meth:`PowerFrontier.to_records` lists.
"""

from __future__ import annotations

import json

import pytest

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError, SolverError
from repro.power.dp_power_pareto import PowerFrontier, power_frontier
from repro.power.modes import ModeSet, PowerModel
from repro.power.serialize import (
    modal_cost_model_from_dict,
    modal_cost_model_to_dict,
    power_model_from_dict,
    power_model_to_dict,
)
from repro.tree.model import Client, Tree

PM = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
CM = ModalCostModel.uniform(2, create=0.1, delete=0.01, changed=0.001)


def _frontier_tree() -> Tree:
    # A caterpillar with varied loads: several frontier points.
    parents: list[int | None] = [None]
    clients = []
    for k in range(6):
        spine = len(parents)
        parents.append(spine - 1 if k else 0)
        leaf = len(parents)
        parents.append(spine)
        clients.append(Client(leaf, (k % 5) + 1))
    return Tree(parents, clients)


class TestPowerModelDict:
    @pytest.mark.parametrize(
        "model",
        [
            PowerModel(ModeSet((10,))),
            PM,
            PowerModel(ModeSet((3, 6, 12)), static_power=2.0, alpha=2.0),
            PowerModel(ModeSet((4, 8)), capacity_scale=0.5),
        ],
        ids=["one-mode", "two-mode", "three-mode", "scaled"],
    )
    def test_round_trip(self, model):
        assert power_model_from_dict(power_model_to_dict(model)) == model

    def test_survives_json(self):
        data = json.loads(json.dumps(power_model_to_dict(PM)))
        assert power_model_from_dict(data) == PM

    def test_optional_fields_default(self):
        model = power_model_from_dict({"capacities": [5, 10]})
        assert model == PowerModel(ModeSet((5, 10)))

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"capacities": ["five"]},
            {"capacities": 5},
            {"capacities": [5, 10], "alpha": "steep"},
        ],
        ids=["no-capacities", "non-numeric", "not-a-list", "bad-alpha"],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ConfigurationError, match="malformed power model"):
            power_model_from_dict(data)

    def test_invalid_values_rejected(self):
        # Well-formed but outside the model's domain: the model's own
        # validation still runs on the decoded values.
        with pytest.raises(ConfigurationError):
            power_model_from_dict({"capacities": [10, 5]})
        with pytest.raises(ConfigurationError):
            power_model_from_dict({"capacities": [5, 10], "alpha": 0})


class TestModalCostModelDict:
    @pytest.mark.parametrize(
        "model",
        [
            CM,
            ModalCostModel(
                create=(0.2, 0.3, 0.4),
                delete=(0.05, 0.05, 0.06),
                changed=((0.0, 0.01, 0.02), (0.01, 0.0, 0.01), (0.02, 0.01, 0.0)),
            ),
        ],
        ids=["uniform", "asymmetric"],
    )
    def test_round_trip(self, model):
        data = json.loads(json.dumps(modal_cost_model_to_dict(model)))
        assert modal_cost_model_from_dict(data) == model

    @pytest.mark.parametrize(
        "data",
        [
            {"delete": [0.1], "changed": [[0.0]]},
            {"create": ["x"], "delete": [0.1], "changed": [[0.0]]},
            {"create": [0.1], "delete": [0.1], "changed": 3},
        ],
        ids=["no-create", "non-numeric", "changed-not-rows"],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ConfigurationError, match="malformed modal cost"):
            modal_cost_model_from_dict(data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            modal_cost_model_from_dict(
                {"create": [0.1, 0.2], "delete": [0.1], "changed": [[0.0]]}
            )


class TestFrontierRecords:
    def test_round_trip_rebuilds_every_point(self):
        t = _frontier_tree()
        frontier = power_frontier(t, PM, CM)
        records = json.loads(json.dumps(frontier.to_records()))
        rebuilt = PowerFrontier.from_records(t, records, PM, CM, {}, verify=True)
        assert rebuilt.pairs() == frontier.pairs()
        # Encoding is deterministic: same frontier, same records.
        assert rebuilt.to_records() == frontier.to_records()

    def test_tampered_price_rejected(self):
        t = _frontier_tree()
        records = power_frontier(t, PM, CM).to_records()
        records[0] = dict(records[0], power=records[0]["power"] + 1.0)
        with pytest.raises(SolverError, match="differ from frontier point"):
            PowerFrontier.from_records(t, records, PM, CM, {}, verify=True)

    def test_tampered_mode_rejected(self):
        t = _frontier_tree()
        records = power_frontier(t, PM, CM).to_records()
        rec = next(r for r in records if r["modes"])
        v, m = rec["modes"][0]
        rec["modes"][0] = [v, 1 - m]
        with pytest.raises(SolverError):
            PowerFrontier.from_records(t, records, PM, CM, {}, verify=True)
