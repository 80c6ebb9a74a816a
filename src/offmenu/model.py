"""Discretized base game: event model, state dynamics, and rewards.

A game instance couples per-agent/per-period state and action grids with a
finite idiosyncratic shock model, a state-dynamic closure and a reward
closure.  Continuous state spaces are realized as uniform grids; dynamics
outputs are clamped into the declared bounds and snapped to the nearest
grid node, ties going to the larger node, so that exhaustive tree
enumeration stays finite.

All evaluations are pure functions of immutable instance data.  Nothing in
this module mutates after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Grid",
    "ShockModel",
    "DynamicsModel",
    "RewardModel",
    "BaseGame",
    "SupportReport",
    "GameError",
    "check_samples",
]


class GameError(ValueError):
    """Raised for malformed game instances or out-of-contract queries."""


def check_samples(samples: int) -> int:
    """A sample count must be at least 1: every sampler divides by it."""
    if samples < 1:
        raise GameError(f"samples must be at least 1, got {samples}")
    return samples


# Joint actions are passed to closures as {agent_id: action_value} over the
# agents participating that period; closures must accept every subset.
Actions = Mapping[int, float]
History = Sequence[Actions]

DynamicsFn = Callable[[int, int, float, History, float], float]
DynamicsDeriv = Callable[[int, int, float, History, float], float]
RewardFn = Callable[[int, int, float, Actions], float]
RewardDeriv = Callable[[int, int, float, Actions], float]


@dataclass(frozen=True)
class Grid:
    """Uniform ordered grid on a compact interval."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if self.points < 2:
            raise GameError(f"grid needs at least 2 points, got {self.points}")
        if not self.hi > self.lo:
            raise GameError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def value(self, idx: int) -> float:
        if not 0 <= idx < self.points:
            raise GameError(f"grid index {idx} out of range 0..{self.points - 1}")
        return self.lo + idx * self.step

    def clamp(self, v: float) -> float:
        return min(max(v, self.lo), self.hi)

    def snap(self, v: float) -> int:
        """Nearest grid index for a clamped value; midpoint ties to the larger node."""
        pos = (self.clamp(v) - self.lo) / self.step
        return int(min(self.points - 1, math.floor(pos + 0.5)))

    def index_of(self, v: float, tol: float = 1e-9) -> int:
        idx = self.snap(v)
        if abs(self.value(idx) - v) > tol:
            raise GameError(f"value {v} is not a grid node (nearest {self.value(idx)})")
        return idx


@dataclass(frozen=True)
class ShockModel:
    """Finite idiosyncratic shock support with probability weights."""

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights) or not self.values:
            raise GameError("shock support and weights must be nonempty and aligned")
        if any(w <= 0 for w in self.weights):
            raise GameError("shock weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise GameError(f"shock weights sum to {sum(self.weights)}, expected 1 within 1e-12")

    def index_of(self, omega: float) -> int:
        for k, v in enumerate(self.values):
            if v == omega:
                return k
        raise GameError(f"unknown shock value {omega}")

    @classmethod
    def uniform(cls, values: Sequence[float]) -> "ShockModel":
        n = len(values)
        return cls(tuple(float(v) for v in values), tuple(1.0 / n for _ in values))


@dataclass(frozen=True)
class DynamicsModel:
    """State-dynamic closure with an optional analytic state derivative.

    ``kappa(i, t, s, history, omega)`` maps the period-(t-1) state to the raw
    period-t state; ``history`` contains the joint actions of periods
    1..t-1.  When ``deriv`` is absent the derivative falls back to a central
    finite difference of the clamped closure with step = grid_step / 10.
    ``history_window`` is how many trailing records of ``history`` the
    closures read; None (the default) means the whole history.
    """

    kappa: DynamicsFn
    deriv: DynamicsDeriv | None = None
    history_window: int | None = None


@dataclass(frozen=True)
class RewardModel:
    """Single-period reward closure u(i, t, s, actions) with optional ∂u/∂s.

    ``slope_bounds``/``dyn_slope_bounds`` hold declared equi-Lipschitz
    constants for the reward and dynamics (per agent, per period); they feed
    the impulse-response bound and the envelope-check tolerance when present.
    """

    u: RewardFn
    deriv: RewardDeriv | None = None
    slope_bounds: Mapping[tuple[int, int], float] | None = None
    dyn_slope_bounds: Mapping[tuple[int, int], float] | None = None


@dataclass(frozen=True)
class SupportCell:
    agent: int
    period: int
    state_index: int
    successor_index: int
    mass: float


@dataclass(frozen=True)
class SupportReport:
    """Verdict of the positive-mass full-support surrogate."""

    mode: str
    passed: bool
    violations: tuple[SupportCell, ...]
    epsilon: float

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class BaseGame:
    """Immutable problem instance: grids, shocks, dynamics and rewards.

    ``state_grids``/``action_grids`` are keyed by (agent, period) with
    periods 1..T.  ``initial`` gives each agent's period-1 state
    distribution as probability weights over the period-1 grid.
    """

    n_agents: int
    horizon: int
    state_grids: Mapping[tuple[int, int], Grid]
    action_grids: Mapping[tuple[int, int], Grid]
    shocks: Mapping[int, ShockModel]
    dynamics: DynamicsModel
    rewards: RewardModel
    initial: Mapping[int, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise GameError("need at least one agent")
        if self.horizon < 1 or not math.isfinite(self.horizon):
            raise GameError("horizon must be a finite positive integer")
        for i in range(self.n_agents):
            for t in range(1, self.horizon + 1):
                if (i, t) not in self.state_grids:
                    raise GameError(f"missing state grid for agent {i}, period {t}")
                if (i, t) not in self.action_grids:
                    raise GameError(f"missing action grid for agent {i}, period {t}")
            if i not in self.shocks:
                raise GameError(f"missing shock model for agent {i}")
        for i, dist in self.initial.items():
            m = self.state_grids[(i, 1)].points
            if len(dist) != m:
                raise GameError(f"initial distribution for agent {i} has {len(dist)} weights, grid has {m}")
            if any(w < 0 for w in dist) or abs(sum(dist) - 1.0) > 1e-12:
                raise GameError(f"initial distribution for agent {i} must be a probability vector")

    # -- basic accessors ---------------------------------------------------

    def grid(self, i: int, t: int) -> Grid:
        return self.state_grids[(i, t)]

    def agents(self) -> range:
        return range(self.n_agents)

    def periods(self) -> range:
        return range(1, self.horizon + 1)

    def initial_dist(self, i: int) -> tuple[float, ...]:
        if i in self.initial:
            return tuple(self.initial[i])
        m = self.state_grids[(i, 1)].points
        return tuple(1.0 / m for _ in range(m))

    # -- dynamics ----------------------------------------------------------

    def transition(self, i: int, t: int, s: float, history: History, omega: float) -> float:
        """Period-t state reached from the period-(t-1) state ``s`` under shock ``omega``.

        The raw closure value is clamped into the period-t bounds and snapped
        to the nearest grid node.
        """
        self.shocks[i].index_of(omega)
        if len(history) != t - 1:
            raise GameError(f"history has {len(history)} entries, period {t} expects {t - 1}")
        grid = self.state_grids[(i, t)]
        return grid.value(grid.snap(grid.clamp(self.dynamics.kappa(i, t, s, history, omega))))

    def kernel(self, i: int, t: int, s: float, history: History) -> tuple[np.ndarray, list[tuple[float, float, int]]]:
        """One-step transition kernel onto the period-t grid.

        Returns (probs over grid nodes, branches) where branches lists
        (weight, omega, successor_index) per shock in declared order.
        """
        grid = self.state_grids[(i, t)]
        probs = np.zeros(grid.points)
        branches = []
        sh = self.shocks[i]
        for omega, w in zip(sh.values, sh.weights):
            j = grid.snap(grid.clamp(self.dynamics.kappa(i, t, s, history, omega)))
            probs[j] += w
            branches.append((w, omega, j))
        return probs, branches

    def dkappa_ds(self, i: int, t: int, s: float, history: History, omega: float) -> float:
        """∂κ/∂s from the declared closure, else a central finite difference."""
        if self.dynamics.deriv is not None:
            return self.dynamics.deriv(i, t, s, history, omega)
        grid = self.state_grids[(i, t)]
        h = grid.step / 10.0
        up = grid.clamp(self.dynamics.kappa(i, t, s + h, history, omega))
        dn = grid.clamp(self.dynamics.kappa(i, t, s - h, history, omega))
        return (up - dn) / (2.0 * h)

    # -- rewards -----------------------------------------------------------

    def reward(self, i: int, t: int, s: float, actions: Actions) -> float:
        v = self.rewards.u(i, t, s, actions)
        if not math.isfinite(v):
            raise GameError(f"reward not finite at agent {i}, period {t}, state {s}")
        return v

    def du_ds(self, i: int, t: int, s: float, actions: Actions) -> float:
        if self.rewards.deriv is not None:
            return self.rewards.deriv(i, t, s, actions)
        h = self.state_grids[(i, t)].step / 10.0
        return (self.rewards.u(i, t, s + h, actions) - self.rewards.u(i, t, s - h, actions)) / (2.0 * h)

    def lipschitz_reward(self, i: int, t: int) -> float | None:
        b = self.rewards.slope_bounds
        return None if b is None else b.get((i, t))

    def lipschitz_dynamics(self, i: int, t: int) -> float | None:
        b = self.rewards.dyn_slope_bounds
        return None if b is None else b.get((i, t))

    # -- full-support surrogate ---------------------------------------------

    def validate_full_support(self, mode: str = "strict") -> SupportReport:
        """Positive-mass surrogate of the strict-CDF-increase assumption.

        strict: every period-(t+1) grid node must carry mass >= 1e-9 from
        every current state.  reachable: every period-(t+1) node must carry
        mass from at least one current state (clamped kernels pass).  Period t
        is checked at one history, t empty action records, which is enough
        for dynamics whose kernel ignores past actions.
        """
        if mode not in ("strict", "reachable"):
            raise GameError(f"unknown support mode {mode!r}")
        epsilon = 1e-9
        violations: list[SupportCell] = []
        for i in self.agents():
            for t in range(1, self.horizon):
                grid_now = self.state_grids[(i, t)]
                grid_next = self.state_grids[(i, t + 1)]
                hist = tuple({} for _ in range(t))
                covered = np.zeros(grid_next.points, dtype=bool)
                for j in range(grid_now.points):
                    probs, _ = self.kernel(i, t + 1, grid_now.value(j), hist)
                    covered |= probs >= epsilon
                    if mode == "strict":
                        for j2 in range(grid_next.points):
                            if probs[j2] < epsilon:
                                violations.append(SupportCell(i, t, j, j2, float(probs[j2])))
                if mode == "reachable":
                    for j2 in range(grid_next.points):
                        if not covered[j2]:
                            violations.append(SupportCell(i, t, -1, j2, 0.0))
        return SupportReport(mode=mode, passed=not violations,
                             violations=tuple(violations), epsilon=epsilon)
