"""JSON-able records for the power layer.

The batch pipeline (:mod:`repro.batch`) moves only plain JSON data across
process and disk boundaries.  This module provides the dict round-trips
for the power-side parameters and results:

* :func:`power_model_to_dict` / :func:`power_model_from_dict` — the
  Equation-3 :class:`~repro.power.modes.PowerModel` (mode capacities,
  static power, alpha, capacity scale);
* :func:`modal_cost_model_to_dict` / :func:`modal_cost_model_from_dict`
  — the Equation-4 :class:`~repro.core.costs.ModalCostModel`.

Frontier records (lists of ``(cost, power, server modes)`` triples) are
produced and consumed by
:meth:`~repro.power.dp_power_pareto.PowerFrontier.to_records` /
:meth:`~repro.power.dp_power_pareto.PowerFrontier.from_records`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.core.costs import ModalCostModel
from repro.exceptions import ConfigurationError
from repro.power.modes import ModeSet, PowerModel

__all__ = [
    "modal_cost_model_from_dict",
    "modal_cost_model_to_dict",
    "power_model_from_dict",
    "power_model_to_dict",
]


def power_model_to_dict(model: PowerModel) -> dict[str, Any]:
    """Serialize a :class:`PowerModel` to a JSON-friendly dict."""
    return {
        "capacities": list(model.modes.capacities),
        "static_power": model.static_power,
        "alpha": model.alpha,
        "capacity_scale": model.capacity_scale,
    }


def power_model_from_dict(data: Mapping[str, Any]) -> PowerModel:
    """Inverse of :func:`power_model_to_dict`."""
    try:
        return PowerModel(
            modes=ModeSet(tuple(int(c) for c in data["capacities"])),
            static_power=float(data.get("static_power", 0.0)),
            alpha=float(data.get("alpha", 3.0)),
            capacity_scale=float(data.get("capacity_scale", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed power model: {exc}") from exc


def modal_cost_model_to_dict(model: ModalCostModel) -> dict[str, Any]:
    """Serialize a :class:`ModalCostModel` to a JSON-friendly dict."""
    return {
        "create": list(model.create),
        "delete": list(model.delete),
        "changed": [list(row) for row in model.changed],
    }


def modal_cost_model_from_dict(data: Mapping[str, Any]) -> ModalCostModel:
    """Inverse of :func:`modal_cost_model_to_dict`."""
    try:
        return ModalCostModel(
            create=tuple(float(c) for c in data["create"]),
            delete=tuple(float(d) for d in data["delete"]),
            changed=tuple(
                tuple(float(c) for c in row) for row in data["changed"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed modal cost model: {exc}") from exc
