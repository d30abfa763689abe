"""Server modes and the power-consumption model (§2.2).

Servers operate under a set ``M = {W_1, …, W_M}`` of increasing capacities
(*modes*); a server processing ``req_j`` requests with
``W_{i-1} < req_j <= W_i`` runs at mode ``W_i`` — the mode is determined by
the load.  Power follows Equation 3::

    P(j) = P_static + (W_mode(j))^alpha ,        alpha in [2, 3]

:class:`ModeSet` handles mode arithmetic, :class:`PowerModel` prices modes.
``PowerModel.capacity_scale`` divides capacities before exponentiation; it
exists for the NP-completeness reduction (§4.2), whose instance is scaled to
integer requests while power must be computed on the original rationals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping

from repro.exceptions import ConfigurationError

__all__ = ["ModeSet", "PowerModel"]


@dataclass(frozen=True)
class ModeSet:
    """Strictly increasing server capacities ``W_1 < … < W_M``.

    Mode *indices* are 0-based throughout the library (index ``M-1`` is the
    paper's ``W_M``, the maximal capacity ``W``).
    """

    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        caps = tuple(int(c) for c in self.capacities)
        object.__setattr__(self, "capacities", caps)
        if not caps:
            raise ConfigurationError("a ModeSet needs at least one mode")
        if caps[0] < 1:
            raise ConfigurationError(f"capacities must be >= 1, got {caps[0]}")
        if any(b <= a for a, b in zip(caps, caps[1:], strict=False)):
            raise ConfigurationError(
                f"capacities must be strictly increasing, got {caps}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.capacities)

    @property
    def max_capacity(self) -> int:
        """The paper's ``W`` (capacity of the highest mode)."""
        return self.capacities[-1]

    def capacity(self, mode: int) -> int:
        if not (0 <= mode < self.n_modes):
            raise ConfigurationError(
                f"mode index {mode} out of range [0, {self.n_modes - 1}]"
            )
        return self.capacities[mode]

    def mode_of(self, load: int) -> int:
        """Smallest mode whose capacity covers ``load`` (§2.2 semantics).

        A zero load maps to the lowest mode (an idle server still runs).
        """
        if load < 0:
            raise ConfigurationError(f"load must be >= 0, got {load}")
        if load > self.max_capacity:
            raise ConfigurationError(
                f"load {load} exceeds the maximal capacity {self.max_capacity}"
            )
        return bisect.bisect_left(self.capacities, load)

    def __iter__(self) -> Iterator[int]:
        return iter(self.capacities)


@dataclass(frozen=True)
class PowerModel:
    """Equation 3: ``P(j) = P_static + (W_mode / capacity_scale)^alpha``."""

    modes: ModeSet
    static_power: float = 0.0
    alpha: float = 3.0
    capacity_scale: float = 1.0

    def __post_init__(self) -> None:
        # Negated comparisons so NaN, which fails every comparison, is
        # rejected too.
        if not self.static_power >= 0:
            raise ConfigurationError(
                f"static power must be >= 0, got {self.static_power}"
            )
        if not self.alpha > 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        if not self.capacity_scale > 0:
            raise ConfigurationError(
                f"capacity_scale must be > 0, got {self.capacity_scale}"
            )

    @classmethod
    def paper_experiment3(cls) -> PowerModel:
        """Experiment 3 configuration: modes ``{5, 10}``, ``α = 3`` and
        ``P_i = W_1³/10 + W_i³`` (§5.2)."""
        modes = ModeSet((5, 10))
        return cls(modes=modes, static_power=5.0**3 / 10.0, alpha=3.0)

    def mode_power(self, mode: int) -> float:
        """Power dissipated by one server operated at ``mode``."""
        cap = self.modes.capacity(mode) / self.capacity_scale
        return self.static_power + cap**self.alpha

    def load_power(self, load: int) -> float:
        """Power of a server serving ``load`` requests (load-determined mode)."""
        return self.mode_power(self.modes.mode_of(load))

    def placement_power(self, server_modes: Mapping[int, int] | Iterable[int]) -> float:
        """Total power of a solution (Equation 3 summed over servers).

        Accepts either ``{node: mode}`` or a bare iterable of mode indices.
        """
        modes = (
            server_modes.values()
            if isinstance(server_modes, Mapping)
            else server_modes
        )
        return sum(self.mode_power(m) for m in modes)
