"""Scenario files: the JSON-compatible instance description the CLI consumes.

A scenario declares the event model (agents, horizon, grids), the shock
table, dynamics/reward/policy selectors with parameters, the desired
off-region boundaries with the cutoff variant, and run options (mode,
seed, samples, tolerance, requested checks).  ``build`` materializes the
immutable game objects; loading is strict and schema errors name the
offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from importlib import resources

from .closures import build_dynamics, build_policy, build_rewards
from .mechanism import BoundaryProfile, TaskPolicy
from .model import BaseGame, GameError, Grid, ShockModel
from .regions import RegionPartition, partition_from_boundary

__all__ = ["Scenario", "load_scenario", "check_samples", "bundled_scenarios"]

DEFAULT_CHECKS = ("support", "doic", "payoff_flow")
KNOWN_CHECKS = ("support", "doic", "payoff_flow", "cm", "envelope", "mso",
                "phi_uniqueness", "dcm_zero", "fixed_point", "barrier", "transform")


@dataclass
class Scenario:
    name: str
    agents: int
    horizon: int
    state_grid: Grid
    action_grid: Grid
    shocks: dict[int, ShockModel]
    dynamics_kind: str
    dynamics_params: dict
    rewards_kind: str
    rewards_params: dict
    policy_kind: str
    policy_params: dict
    variant: str = "ir"
    boundaries: dict[int, list[list[float]]] = field(default_factory=dict)
    initial: dict[int, tuple[float, ...]] = field(default_factory=dict)
    mode: str = "exact"
    seed: int = 0
    samples: int = 10_000
    tolerance: float = 1e-9
    checks: tuple[str, ...] = DEFAULT_CHECKS
    raw: dict = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    def build_game(self) -> BaseGame:
        grids = {(i, t): self.state_grid
                 for i in range(self.agents) for t in range(1, self.horizon + 1)}
        agrids = {(i, t): self.action_grid
                  for i in range(self.agents) for t in range(1, self.horizon + 1)}
        return BaseGame(
            n_agents=self.agents,
            horizon=self.horizon,
            state_grids=grids,
            action_grids=agrids,
            shocks=self.shocks,
            dynamics=build_dynamics(self.dynamics_kind, self.dynamics_params),
            rewards=build_rewards(self.rewards_kind, self.rewards_params),
            initial=self.initial,
        )

    def build_policy(self) -> TaskPolicy:
        return build_policy(self.policy_kind, self.policy_params)

    def build_partitions(self, game: BaseGame) -> dict[tuple[int, int], RegionPartition]:
        if self.variant == "ir":
            from .synthesis import ir_partitions

            return ir_partitions(game)
        parts: dict[tuple[int, int], RegionPartition] = {}
        for i in range(self.agents):
            pairs = self.boundaries.get(i)
            if pairs is None:
                raise GameError(f"variant {self.variant!r} needs boundaries for agent {i}")
            prof = BoundaryProfile(tuple((float(a), float(b)) for a, b in pairs))
            for t in range(1, self.horizon + 1):
                parts[(i, t)] = partition_from_boundary(game.grid(i, t), prof)
        return parts


def _grid(obj: Mapping, where: str) -> Grid:
    try:
        return Grid(float(obj["lo"]), float(obj["hi"]), int(obj["points"]))
    except (KeyError, TypeError) as exc:
        raise GameError(f"bad grid spec at {where}: {exc}") from exc


def _shocks(obj: Any, agents: int) -> dict[int, ShockModel]:
    def one(spec, where):
        try:
            values = tuple(float(v) for v in spec["values"])
            weights = spec.get("weights")
            if weights is None:
                return ShockModel.uniform(values)
            return ShockModel(values, tuple(float(w) for w in weights))
        except (KeyError, TypeError) as exc:
            raise GameError(f"bad shock spec at {where}: {exc}") from exc

    if isinstance(obj, list):
        if len(obj) != agents:
            raise GameError(f"need {agents} shock specs, got {len(obj)}")
        return {i: one(spec, f"shocks[{i}]") for i, spec in enumerate(obj)}
    sm = one(obj, "shocks")
    return {i: sm for i in range(agents)}


def load_scenario(source: str | Path | Mapping) -> Scenario:
    """Parse and validate a scenario from a path, bundled name, or mapping."""
    if isinstance(source, Mapping):
        raw = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            bundled = bundled_scenarios()
            if str(source) in bundled:
                raw = json.loads(bundled[str(source)].read_text())
            else:
                raise GameError(f"scenario {source!r} is neither a file nor one of {sorted(bundled)}")
        else:
            raw = json.loads(path.read_text())

    def need(key):
        if key not in raw:
            raise GameError(f"scenario missing required field {key!r}")
        return raw[key]

    agents = int(need("agents"))
    horizon = int(need("horizon"))
    state_grid = _grid(need("state_grid"), "state_grid")
    action_grid = _grid(raw["action_grid"], "action_grid") if raw.get("action_grid") else state_grid
    dynamics = need("dynamics")
    rewards = need("rewards")
    policy = raw.get("policy", {"kind": "identity", "params": {}})
    variant = raw.get("mechanism", {}).get("variant", "ir")
    if variant not in ("ir", "horizontal", "knowledgeable", "tables"):
        raise GameError(f"unknown mechanism variant {variant!r}")
    boundaries = {int(k): v for k, v in raw.get("mechanism", {}).get("boundaries", {}).items()}
    initial: dict[int, tuple[float, ...]] = {}
    init_raw = raw.get("initial_states")
    if init_raw is not None:
        for i in range(agents):
            entry = init_raw[i] if isinstance(init_raw, list) else init_raw
            if isinstance(entry, list):
                initial[i] = tuple(float(w) for w in entry)
            else:
                weights = [0.0] * state_grid.points
                weights[state_grid.index_of(float(entry))] = 1.0
                initial[i] = tuple(weights)
    checks = tuple(raw.get("verify", DEFAULT_CHECKS))
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise GameError(f"unknown check {c!r}; known: {KNOWN_CHECKS}")
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "mc"):
        raise GameError(f"unknown mode {mode!r}")
    samples = check_samples(int(raw.get("samples", 10_000)))
    return Scenario(
        name=raw.get("name", "scenario"),
        agents=agents,
        horizon=horizon,
        state_grid=state_grid,
        action_grid=action_grid,
        shocks=_shocks(need("shocks"), agents),
        dynamics_kind=dynamics["kind"],
        dynamics_params=dynamics.get("params", {}),
        rewards_kind=rewards["kind"],
        rewards_params=rewards.get("params", {}),
        policy_kind=policy["kind"],
        policy_params=policy.get("params", {}),
        variant=variant,
        boundaries=boundaries,
        initial=initial,
        mode=mode,
        seed=int(raw.get("seed", 0)),
        samples=samples,
        tolerance=float(raw.get("tolerance", 1e-9)),
        checks=checks,
        raw=raw,
    )


def check_samples(samples: int) -> int:
    """A sample count must be at least 1: every sampler divides by it."""
    if samples < 1:
        raise GameError(f"samples must be at least 1, got {samples}")
    return samples


def bundled_scenarios() -> dict[str, Any]:
    out = {}
    for entry in resources.files("offmenu.data").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out
