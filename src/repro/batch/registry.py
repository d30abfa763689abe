"""Pluggable solver-policy registry for the batch pipeline.

A *solver policy* teaches :func:`repro.batch.solve_batch` how to serve one
solver family through the canonical dedupe → cache → process pool →
fan-out pipeline.  Each policy declares three things:

1. **digest fields** — which instance parameters its *solution set*
   actually consumes (:attr:`SolverPolicy.digest_fields`).  Parameters
   that only enter per-instance bookkeeping (recomputed during fan-out)
   stay out of the digest, so equivalent requests share one cached
   solve: greedy and dp_nopre ignore the pre-existing set and the cost
   model; the power policies ignore ``capacity`` (their capacity comes
   from the mode set).
2. **solve** — how to turn a picklable canonical payload into a small
   JSON-able cache record (:meth:`SolverPolicy.payload` builds the
   payload, :meth:`SolverPolicy.solve` runs in a worker process).
3. **fan-out** — how to map a record back through an instance's inverse
   relabelling into a verified, per-instance-priced result object
   (:meth:`SolverPolicy.fan_out`).

Registering a new solver is a registry entry, not a fork of the
executor:

.. code-block:: python

    from repro.batch.registry import SolverPolicy, register_policy

    class MyPolicy(SolverPolicy):
        name = "my_solver"
        digest_fields = frozenset({"capacity"})
        ...

    register_policy(MyPolicy())

Built-in policies: ``dp`` (MinCost-WithPre, Theorem 1), ``greedy`` (GR
baseline), ``dp_nopre``, and the §4 power family — ``min_power``,
``power_frontier`` (both backed by the exact Pareto frontier engine;
they share cache records via :attr:`SolverPolicy.digest_name`) and
``greedy_power`` (the §5.2 GR capacity sweep).

Worker-process note: the built-in policies are registered at import
time, so process-pool workers resolve them by name.  Custom policies
registered from ``__main__`` are visible to workers under the default
``fork`` start method on POSIX; under ``spawn`` register them in an
importable module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.batch.canonical import Canonical, canonicalize, instance_digest
from repro.batch.instance import BatchInstance
from repro.core.costs import UniformCostModel
from repro.core.dp_nopre import dp_nopre_placement
from repro.core.dp_withpre import replica_update
from repro.core.greedy import greedy_placement
from repro.core.solution import PlacementResult
from repro.exceptions import ConfigurationError, SolverError
from repro.perf.stats import ParetoDPStats
from repro.power.dp_power_pareto import PowerFrontier
from repro.power.greedy_power import (
    GreedyPowerCandidates,
    greedy_power_candidates,
)
from repro.power.kernels import KERNELS
from repro.power.result import ModalPlacementResult, modal_from_replicas
from repro.power.serialize import (
    modal_cost_model_from_dict,
    modal_cost_model_to_dict,
    power_model_from_dict,
    power_model_to_dict,
)
from repro.tree.model import Tree

__all__ = [
    "SolverPolicy",
    "available_solvers",
    "get_policy",
    "register_policy",
]

#: Digest-field names a policy may declare.
_DIGEST_FIELD_NAMES = frozenset(
    {"capacity", "preexisting", "cost_model", "power"}
)

_PRICE_EPS = 1e-6


class SolverPolicy:
    """Contract between one solver family and the batch pipeline.

    Subclasses set the class attributes and implement
    :meth:`payload` / :meth:`solve` / :meth:`fan_out` / :meth:`row`.
    """

    #: Registry key; also the ``--solver`` CLI value.
    name: str = ""
    #: Instance parameters the solution set consumes (digest coverage).
    digest_fields: frozenset[str] = frozenset()
    #: Expected ``record["schema"]``; mismatching cache records are
    #: discarded and re-solved (see :func:`repro.batch.solve_batch`).
    record_schema: int = 1
    #: Column headers for the CLI result table (matched by :meth:`row`).
    columns: tuple[str, ...] = ()
    #: Digest solver-name override: policies whose records are identical
    #: (e.g. min_power / power_frontier both cache the full frontier)
    #: share cache entries by declaring the same digest name.
    digest_name: str | None = None

    @property
    def needs_power(self) -> bool:
        """Whether instances must carry a :class:`PowerModel`."""
        return "power" in self.digest_fields

    # -- digest ---------------------------------------------------------
    def check_instance(self, instance: BatchInstance, index: int) -> None:
        """Reject instances this policy cannot serve (executor hook)."""
        if self.needs_power and instance.power_model is None:
            raise ConfigurationError(
                f"solver policy {self.name!r} needs a power model but batch "
                f"instance #{index} has none"
            )

    def instance_key(self, instance: BatchInstance) -> tuple[Canonical, str]:
        """Canonical form + digest covering only what this policy consumes."""
        canonical = (
            canonicalize(instance.tree, instance.pre_modes())
            if "preexisting" in self.digest_fields
            else canonicalize(instance.tree)
        )
        return canonical, self.digest(canonical, instance)

    def digest(self, canonical: Canonical, instance: BatchInstance) -> str:
        """Content digest derived from :attr:`digest_fields`."""
        return instance_digest(
            canonical,
            instance.capacity if "capacity" in self.digest_fields else None,
            instance.cost_model if "cost_model" in self.digest_fields else None,
            self.digest_name or self.name,
            power_model=instance.power_model if self.needs_power else None,
            modal_cost_model=(
                instance.effective_modal_cost() if self.needs_power else None
            ),
            include_pre_modes=(
                self.needs_power and "preexisting" in self.digest_fields
            ),
        )

    # -- solve ----------------------------------------------------------
    def payload(
        self, canonical: Canonical, instance: BatchInstance
    ) -> dict[str, Any]:
        """Picklable/pure-data description of one canonical solve."""
        raise NotImplementedError

    def solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Solve one canonical payload into a JSON-able cache record.

        Runs inside worker processes; must not touch shared state.
        """
        raise NotImplementedError

    # -- fan-out --------------------------------------------------------
    def fan_out(
        self,
        instance: BatchInstance,
        canonical: Canonical,
        record: dict[str, Any],
        digest: str,
    ) -> Any:
        """Map a record through the inverse relabelling, re-verified."""
        raise NotImplementedError

    def row(self, result: Any) -> tuple[Any, ...]:
        """CLI table row for one fanned-out result (see :attr:`columns`)."""
        raise NotImplementedError

    def result_to_wire(self, result: Any) -> dict[str, Any]:
        """JSON-able wire form of one fanned-out result.

        The serving tier (:mod:`repro.serve`) ships this dict to remote
        clients.  It must be deterministic for a given result — sorted
        collections, no volatile fields — so responses for coalesced
        duplicates byte-match a direct :func:`~repro.batch.solve_batch`
        answer serialised the same way.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SolverPolicy] = {}


def register_policy(
    policy: SolverPolicy, *, replace_existing: bool = False
) -> SolverPolicy:
    """Add a policy to the registry (returns it, decorator-friendly)."""
    if not policy.name:
        raise ConfigurationError("solver policy needs a non-empty name")
    unknown = policy.digest_fields - _DIGEST_FIELD_NAMES
    if unknown:
        raise ConfigurationError(
            f"solver policy {policy.name!r} declares unknown digest fields "
            f"{sorted(unknown)}; expected a subset of "
            f"{sorted(_DIGEST_FIELD_NAMES)}"
        )
    if policy.name in _REGISTRY and not replace_existing:
        raise ConfigurationError(
            f"solver policy {policy.name!r} is already registered "
            "(pass replace_existing=True to override)"
        )
    _REGISTRY[policy.name] = policy
    return policy


def get_policy(name: str) -> SolverPolicy:
    """Look up a policy by name; raises with the available names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown solver policy {name!r}; expected one of "
            f"{available_solvers()}"
        ) from None


def available_solvers() -> tuple[str, ...]:
    """Registered policy names in registration order."""
    return tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# MinCost policies (Equation 2)
# ---------------------------------------------------------------------------


class _MinCostPolicy(SolverPolicy):
    """Shared payload/record/fan-out shape of the MinCost family.

    Records hold only the canonical replica set; loads, the reuse
    partition and the Equation-2 cost are recomputed per instance during
    fan-out, which also re-verifies validity on the *original* tree.
    """

    record_schema = 1
    columns = ("R", "reused", "created", "deleted", "cost")

    def payload(
        self, canonical: Canonical, instance: BatchInstance
    ) -> dict[str, Any]:
        return {
            "solver": self.name,
            "parents": list(canonical.parents),
            "clients": [list(c) for c in canonical.clients],
            "pre": list(canonical.preexisting),
            "capacity": instance.capacity,
            "create": instance.cost_model.create,
            "delete": instance.cost_model.delete,
        }

    def solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        tree = Tree(payload["parents"], payload["clients"], validate=False)
        result = self._solve_tree(tree, payload)
        return {"schema": self.record_schema, "replicas": sorted(result.replicas)}

    def _solve_tree(self, tree: Tree, payload: dict[str, Any]) -> PlacementResult:
        raise NotImplementedError

    def fan_out(
        self,
        instance: BatchInstance,
        canonical: Canonical,
        record: dict[str, Any],
        digest: str,
    ) -> PlacementResult:
        replicas = canonical.map_back(record["replicas"])
        cost = instance.cost_model.of_placement(replicas, instance.preexisting)
        return PlacementResult.from_replicas(
            instance.tree,
            replicas,
            instance.capacity,
            instance.preexisting,
            cost=cost,
            extra={"digest": digest},
        )

    def row(self, result: PlacementResult) -> tuple[Any, ...]:
        return (
            result.n_replicas,
            result.n_reused,
            result.n_created,
            result.n_deleted,
            f"{result.cost:.3f}",
        )

    def result_to_wire(self, result: PlacementResult) -> dict[str, Any]:
        return {
            "replicas": sorted(int(v) for v in result.replicas),
            "cost": result.cost,
            "reused": result.n_reused,
            "created": result.n_created,
            "deleted": result.n_deleted,
        }


class DpPolicy(_MinCostPolicy):
    """MinCost-WithPre (the paper's Theorem 1 dynamic program)."""

    name = "dp"
    digest_fields = frozenset({"capacity", "preexisting", "cost_model"})

    def _solve_tree(self, tree: Tree, payload: dict[str, Any]) -> PlacementResult:
        return replica_update(
            tree,
            int(payload["capacity"]),
            frozenset(int(v) for v in payload["pre"]),
            UniformCostModel(payload["create"], payload["delete"]),
        )


class GreedyPolicy(_MinCostPolicy):
    """The GR baseline.  Index tie-break: the replica set ignores the
    pre-existing set and the cost model, so they stay out of the digest
    (fan-out still prices per instance)."""

    name = "greedy"
    digest_fields = frozenset({"capacity"})

    def _solve_tree(self, tree: Tree, payload: dict[str, Any]) -> PlacementResult:
        return greedy_placement(tree, int(payload["capacity"]))


class DpNoPrePolicy(_MinCostPolicy):
    """Pre-existing-oblivious MinCost (same digest sharing as greedy)."""

    name = "dp_nopre"
    digest_fields = frozenset({"capacity"})

    def _solve_tree(self, tree: Tree, payload: dict[str, Any]) -> PlacementResult:
        return dp_nopre_placement(tree, int(payload["capacity"]))


# ---------------------------------------------------------------------------
# Power policies (Equations 3 + 4, §4/§5.2)
# ---------------------------------------------------------------------------


def _map_modes(
    modes: Any, canonical: Canonical
) -> dict[int, int]:
    """Record ``[[canonical node, mode], ...]`` → original-id placement."""
    return {int(canonical.from_canonical[int(v)]): int(m) for v, m in modes}


def _wire_modes(server_modes: Any) -> list[list[int]]:
    """Deterministic ``[[node, mode], ...]`` wire form of a placement."""
    return [[int(v), int(m)] for v, m in sorted(server_modes.items())]


class _PowerPolicy(SolverPolicy):
    """Shared payload shape of the power family.

    Frontier/candidate records store relabelling-covariant ``(cost,
    power, canonical placement modes)`` triples; cost and power are
    relabelling-*invariant*, so the fanned-out values equal a direct
    per-instance solve and fan-out re-verifies them to 1e-6.
    """

    record_schema = 1
    digest_fields = frozenset({"preexisting", "power"})

    def payload(
        self, canonical: Canonical, instance: BatchInstance
    ) -> dict[str, Any]:
        assert instance.power_model is not None
        return {
            "solver": self.name,
            "parents": list(canonical.parents),
            "clients": [list(c) for c in canonical.clients],
            "pre_modes": [list(p) for p in canonical.preexisting_modes],
            "power": power_model_to_dict(instance.power_model),
            "modal_cost": modal_cost_model_to_dict(
                instance.effective_modal_cost()
            ),
        }

    @staticmethod
    def _payload_instance(payload: dict[str, Any]) -> BatchInstance:
        tree = Tree(payload["parents"], payload["clients"], validate=False)
        pre_modes = {int(v): int(m) for v, m in payload["pre_modes"]}
        pm = power_model_from_dict(payload["power"])
        mcm = modal_cost_model_from_dict(payload["modal_cost"])
        return tree, pre_modes, pm, mcm


class _FrontierPolicy(_PowerPolicy):
    """Base for policies backed by the exact cost/power frontier.

    Both subclasses cache the *full* frontier under one shared digest
    name, so a ``power_frontier`` batch warms the cache for later
    ``min_power`` traffic and vice versa.  Solves run the array kernel,
    looked up in :data:`repro.power.kernels.KERNELS` at call time.
    """

    digest_name = "power_frontier"

    def solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        tree, pre_modes, pm, mcm = self._payload_instance(payload)
        stats = ParetoDPStats()
        frontier = KERNELS["array"](tree, pm, mcm, pre_modes, stats=stats)
        # Kernel counters ride along in the record (deterministic for a
        # canonical instance, so records stay byte-stable): the batch CLI
        # (--stats) and the serving tier's ``perf`` op aggregate them
        # without re-running solves.
        return {
            "schema": self.record_schema,
            "points": frontier.to_records(),
            "dp_stats": stats.as_dict(),
        }

    def _rebuild_frontier(
        self,
        instance: BatchInstance,
        canonical: Canonical,
        record: dict[str, Any],
        digest: str,
        *,
        verify: bool,
    ) -> PowerFrontier:
        assert instance.power_model is not None
        mapped = [
            {
                "cost": pt["cost"],
                "power": pt["power"],
                "modes": [
                    [v, m]
                    for v, m in sorted(_map_modes(pt["modes"], canonical).items())
                ],
            }
            for pt in record["points"]
        ]
        return PowerFrontier.from_records(
            instance.tree,
            mapped,
            instance.power_model,
            instance.effective_modal_cost(),
            instance.pre_modes(),
            extra={"digest": digest},
            verify=verify,
        )


class MinPowerPolicy(_FrontierPolicy):
    """MinPower (§2.3): the minimal-power end of the frontier."""

    name = "min_power"
    columns = ("R", "power", "cost", "modes")

    def fan_out(
        self,
        instance: BatchInstance,
        canonical: Canonical,
        record: dict[str, Any],
        digest: str,
    ) -> ModalPlacementResult:
        frontier = self._rebuild_frontier(
            instance, canonical, record, digest, verify=False
        )
        # min_power() materialises the last point, which re-verifies the
        # placement against the original tree and its pricing.
        result = frontier.min_power()
        return replace(result, extra={**result.extra, "digest": digest})

    def row(self, result: ModalPlacementResult) -> tuple[Any, ...]:
        by_mode: dict[int, int] = {}
        for m in result.server_modes.values():
            by_mode[m] = by_mode.get(m, 0) + 1
        modes = "+".join(f"{by_mode[m]}xW{m + 1}" for m in sorted(by_mode))
        return (
            result.n_replicas,
            f"{result.power:.3f}",
            f"{result.cost:.3f}",
            modes,
        )

    def result_to_wire(self, result: ModalPlacementResult) -> dict[str, Any]:
        return {
            "power": result.power,
            "cost": result.cost,
            "modes": _wire_modes(result.server_modes),
        }


class PowerFrontierPolicy(_FrontierPolicy):
    """The full cost/power Pareto frontier (Experiment 3's engine)."""

    name = "power_frontier"
    columns = ("points", "min_cost", "min_power")

    def fan_out(
        self,
        instance: BatchInstance,
        canonical: Canonical,
        record: dict[str, Any],
        digest: str,
    ) -> PowerFrontier:
        # verify=True materialises every point: each placement is
        # re-verified and re-priced on the original tree.
        return self._rebuild_frontier(
            instance, canonical, record, digest, verify=True
        )

    def row(self, frontier: PowerFrontier) -> tuple[Any, ...]:
        return (
            len(frontier),
            f"{frontier.min_cost():.3f}",
            f"{frontier.points[-1].power:.3f}",
        )

    def result_to_wire(self, frontier: PowerFrontier) -> dict[str, Any]:
        return {"points": frontier.to_records()}


class GreedyPowerPolicy(_PowerPolicy):
    """The §5.2 GR capacity sweep, power-priced.

    The sweep runs on the canonical tree (the greedy's index tie-break
    makes the exact replica sets labelling-dependent, as with the
    ``greedy`` MinCost policy), so all relabelled duplicates receive one
    consistent candidate set.
    """

    name = "greedy_power"
    columns = ("cands", "best_power", "best_cost")

    def solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        tree, pre_modes, pm, mcm = self._payload_instance(payload)
        candidates = greedy_power_candidates(tree, pm, mcm, pre_modes)
        points = []
        for cand in candidates.candidates:
            points.append(
                {
                    "cost": cand.cost,
                    "power": cand.power,
                    "modes": [
                        [int(v), int(m)]
                        for v, m in sorted(cand.server_modes.items())
                    ],
                    "sweep_w": cand.extra.get("sweep_capacity"),
                }
            )
        return {"schema": self.record_schema, "points": points}

    def fan_out(
        self,
        instance: BatchInstance,
        canonical: Canonical,
        record: dict[str, Any],
        digest: str,
    ) -> GreedyPowerCandidates:
        assert instance.power_model is not None
        mcm = instance.effective_modal_cost()
        pre = instance.pre_modes()
        results = []
        for pt in record["points"]:
            modes = _map_modes(pt["modes"], canonical)
            result = modal_from_replicas(
                instance.tree,
                modes.keys(),
                instance.power_model,
                mcm,
                pre,
                extra={"sweep_capacity": pt.get("sweep_w"), "digest": digest},
            )
            if (
                abs(result.cost - pt["cost"]) > _PRICE_EPS
                or abs(result.power - pt["power"]) > _PRICE_EPS
            ):
                raise SolverError(
                    f"fanned-out candidate prices (cost={result.cost}, "
                    f"power={result.power}) differ from the cached record "
                    f"({pt['cost']}, {pt['power']})"
                )
            if result.server_modes != modes:
                raise SolverError(
                    "load-determined modes of the fanned-out candidate "
                    "differ from the modes recorded during the sweep"
                )
            results.append(result)
        return GreedyPowerCandidates(
            candidates=tuple(results), extra={"digest": digest}
        )

    def row(self, result: GreedyPowerCandidates) -> tuple[Any, ...]:
        best = result.min_power()
        if best is None:
            return (0, "-", "-")
        return (
            len(result.candidates),
            f"{best.power:.3f}",
            f"{best.cost:.3f}",
        )

    def result_to_wire(self, result: GreedyPowerCandidates) -> dict[str, Any]:
        return {
            "candidates": [
                {
                    "cost": cand.cost,
                    "power": cand.power,
                    "modes": _wire_modes(cand.server_modes),
                    "sweep_w": cand.extra.get("sweep_capacity"),
                }
                for cand in result.candidates
            ]
        }


for _policy in (
    DpPolicy(),
    GreedyPolicy(),
    DpNoPrePolicy(),
    MinPowerPolicy(),
    PowerFrontierPolicy(),
    GreedyPowerPolicy(),
):
    register_policy(_policy)
