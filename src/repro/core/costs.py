"""Cost models.

Two families, mirroring §2.1 and §2.2 of the paper:

* :class:`UniformCostModel` — Equation 2::

      cost(R) = R + (R - e) * create + (E - e) * delete

  where ``R`` is the number of servers, ``e`` the number of reused
  pre-existing servers and ``E`` the number of pre-existing servers.

* :class:`ModalCostModel` — Equation 4, with per-mode creation/deletion
  costs and a mode-change matrix ``changed[i][i']`` (``changed[i][i] = 0``).

Both expose count-based evaluation (what the dynamic programs optimise) and
placement-based evaluation (used by validators and baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["UniformCostModel", "ModalCostModel"]


@dataclass(frozen=True)
class UniformCostModel:
    """Equation 2 cost model: identical servers, reuse/create/delete prices.

    The paper's running configuration keeps ``create + 2*delete < 1`` so
    that minimising the *number* of servers always dominates (replacing two
    pre-existing servers by one new server is then always advantageous);
    :meth:`prioritizes_server_count` exposes that condition.
    """

    create: float = 0.1
    delete: float = 0.01

    def __post_init__(self) -> None:
        # ``not x >= 0`` also rejects NaN, which every comparison fails.
        if not (self.create >= 0 and self.delete >= 0):
            raise ConfigurationError(
                f"create/delete costs must be non-negative, got "
                f"create={self.create}, delete={self.delete}"
            )

    def total(self, n_servers: int, n_reused: int, n_preexisting: int) -> float:
        """Cost of a solution with ``n_servers`` servers, ``n_reused`` of
        which are reused out of ``n_preexisting`` pre-existing ones."""
        if n_reused > min(n_servers, n_preexisting):
            raise ConfigurationError(
                f"n_reused={n_reused} exceeds servers={n_servers} or "
                f"pre-existing={n_preexisting}"
            )
        n_new = n_servers - n_reused
        n_deleted = n_preexisting - n_reused
        return n_servers + n_new * self.create + n_deleted * self.delete

    def of_placement(
        self, replicas: Iterable[int], preexisting: Iterable[int]
    ) -> float:
        """Cost of an explicit replica set against a pre-existing set."""
        rset = frozenset(replicas)
        eset = frozenset(preexisting)
        return self.total(len(rset), len(rset & eset), len(eset))

    def prioritizes_server_count(self) -> bool:
        """True when ``create + 2*delete < 1`` (paper §2.1)."""
        return self.create + 2.0 * self.delete < 1.0


@dataclass(frozen=True)
class ModalCostModel:
    """Equation 4 cost model for multi-mode servers.

    Parameters
    ----------
    create:
        ``create[i]`` — cost of creating a new server operated at mode ``i``.
    delete:
        ``delete[i]`` — cost of deleting a pre-existing server whose old
        mode was ``i``.
    changed:
        ``changed[i][i']`` — cost of moving a reused pre-existing server
        from old mode ``i`` to new mode ``i'``; the diagonal must be 0.

    Mode indices are 0-based positions in a
    :class:`~repro.power.modes.ModeSet`.
    """

    create: tuple[float, ...]
    delete: tuple[float, ...]
    changed: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.create)
        if m == 0:
            raise ConfigurationError("at least one mode is required")
        if len(self.delete) != m or len(self.changed) != m:
            raise ConfigurationError(
                "create, delete and changed must all cover the same mode count"
            )
        for row in self.changed:
            if len(row) != m:
                raise ConfigurationError("changed must be an MxM matrix")
        for i in range(m):
            if self.changed[i][i] != 0:
                raise ConfigurationError(
                    f"changed[{i}][{i}] must be 0 (keeping a mode is free)"
                )
        if not all(c >= 0 for c in (*self.create, *self.delete)):
            raise ConfigurationError("mode costs must be non-negative")
        if not all(c >= 0 for row in self.changed for c in row):
            raise ConfigurationError("mode-change costs must be non-negative")

    @property
    def n_modes(self) -> int:
        return len(self.create)

    @classmethod
    def uniform(
        cls,
        n_modes: int,
        *,
        create: float = 0.1,
        delete: float = 0.01,
        changed: float = 0.001,
    ) -> ModalCostModel:
        """All-identical per-mode costs (the simplification noted in §2.2).

        Experiment 3 uses ``create=0.1, delete=0.01, changed=0.001``;
        Figure 11 uses ``create=delete=1, changed=0.1``.
        """
        if n_modes < 1:
            raise ConfigurationError(f"n_modes must be >= 1, got {n_modes}")
        chg = tuple(
            tuple(0.0 if i == j else changed for j in range(n_modes))
            for i in range(n_modes)
        )
        return cls(
            create=(create,) * n_modes,
            delete=(delete,) * n_modes,
            changed=chg,
        )

    def total(
        self,
        new_by_mode: Sequence[int],
        reused_by_change: Mapping[tuple[int, int], int] | Sequence[Sequence[int]],
        deleted_by_mode: Sequence[int],
    ) -> float:
        """Equation 4: ``R + Σ create_i n_i + Σ delete_i k_i + Σ changed e``."""
        m = self.n_modes
        if len(new_by_mode) != m or len(deleted_by_mode) != m:
            raise ConfigurationError("count vectors must have one entry per mode")
        e_items = (
            list(reused_by_change.items())
            if isinstance(reused_by_change, Mapping)
            else [
                ((i, j), int(reused_by_change[i][j]))
                for i in range(m)
                for j in range(m)
            ]
        )
        r_total = sum(int(x) for x in new_by_mode) + sum(c for _, c in e_items)
        cost = float(r_total)
        for i in range(m):
            cost += self.create[i] * int(new_by_mode[i])
            cost += self.delete[i] * int(deleted_by_mode[i])
        for (i, j), count in e_items:
            if not (0 <= i < m and 0 <= j < m):
                raise ConfigurationError(f"mode-change pair {(i, j)} out of range")
            cost += self.changed[i][j] * count
        return cost

    def of_modal_placement(
        self,
        server_modes: Mapping[int, int],
        preexisting_modes: Mapping[int, int],
    ) -> float:
        """Cost of an explicit ``{node: new_mode}`` placement.

        ``preexisting_modes`` maps pre-existing servers to their *old* mode.
        """
        m = self.n_modes
        new_by_mode = [0] * m
        deleted_by_mode = [0] * m
        reused: dict[tuple[int, int], int] = {}
        for v, mode in server_modes.items():
            if not (0 <= mode < m):
                raise ConfigurationError(f"server {v} has invalid mode {mode}")
            if v in preexisting_modes:
                key = (preexisting_modes[v], mode)
                reused[key] = reused.get(key, 0) + 1
            else:
                new_by_mode[mode] += 1
        for v, old in preexisting_modes.items():
            if v not in server_modes:
                if not (0 <= old < m):
                    raise ConfigurationError(
                        f"pre-existing server {v} has invalid mode {old}"
                    )
                deleted_by_mode[old] += 1
        return self.total(new_by_mode, reused, deleted_by_mode)
