"""NaN prices and power parameters are rejected with an error response.

Every comparison with NaN is false, so a ``< 0`` check lets NaN through
to the solvers, which then answer ``"cost": NaN`` (not RFC 8259 JSON) or
an empty frontier.  Each field is sent as the string ``"nan"``, which the
request parser reads through ``float()``, and as a float NaN, which a
JSON ``NaN`` literal decodes to.  Infinite prices stay accepted.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.batch import BatchInstance
from repro.batch.instance import instance_to_dict
from repro.core.costs import ModalCostModel
from repro.power.modes import ModeSet, PowerModel
from repro.serve import BatchServer
from repro.tree.generators import paper_tree


def _instance(power: bool) -> dict:
    tree = paper_tree(12, rng=np.random.default_rng(5))
    if not power:
        return instance_to_dict(BatchInstance(tree, 10, frozenset({0, 3})))
    return instance_to_dict(
        BatchInstance(
            tree,
            10,
            frozenset({0, 3}),
            power_model=PowerModel(ModeSet((5, 10)), static_power=12.5),
            modal_cost_model=ModalCostModel.uniform(2),
        )
    )


def _set(raw: dict, path: tuple, value: object) -> dict:
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


#: field -> (solver, path inside the instance dict, error text).
FIELDS = {
    "create": ("dp", ("create",), "create/delete costs"),
    "delete": ("dp", ("delete",), "create/delete costs"),
    "static_power": ("power_frontier", ("power", "static_power"), "static power"),
    "alpha": ("power_frontier", ("power", "alpha"), "alpha"),
    "capacity_scale": (
        "power_frontier",
        ("power", "capacity_scale"),
        "capacity_scale",
    ),
    "modal_create": ("power_frontier", ("modal_cost", "create", 1), "mode costs"),
    "modal_delete": ("power_frontier", ("modal_cost", "delete", 0), "mode costs"),
    "modal_changed": (
        "power_frontier",
        ("modal_cost", "changed", 0, 1),
        "mode-change costs",
    ),
}


def _dispatch(messages: list[dict]) -> list[dict]:
    async def run() -> list[dict]:
        async with BatchServer() as server:
            return [
                await server.dispatch(dict(msg, id=i))
                for i, msg in enumerate(messages)
            ]

    return asyncio.run(run())


@pytest.mark.parametrize("nan", ["nan", math.nan], ids=["string", "float"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_nan_parameter_gets_an_error_response(field, nan):
    solver, path, text = FIELDS[field]
    raw = _set(_instance(solver != "dp"), path, nan)
    good = {"op": "solve", "solver": solver, "instance": _instance(solver != "dp")}
    bad = {"op": "solve", "solver": solver, "instance": raw}
    # The good twin after the bad one: nothing of the rejected request
    # was cached under a digest the valid instance could hit.
    rejected, answered = _dispatch([bad, good])
    assert rejected["ok"] is False
    assert text in rejected["error"]
    assert "code" not in rejected
    assert answered["ok"] is True


def test_infinite_price_still_solves():
    raw = _set(_instance(False), ("delete",), "inf")
    (answer,) = _dispatch([{"op": "solve", "solver": "dp", "instance": raw}])
    assert answer["ok"] is True
