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
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from importlib import resources

from .closures import build_dynamics, build_policy, build_rewards
from .mechanism import BoundaryProfile, TaskPolicy
from .model import BaseGame, GameError, Grid, ShockModel, check_samples
from .regions import RegionPartition, partition_from_boundary

__all__ = ["Scenario", "load_scenario", "check_checks", "check_samples", "check_seed",
           "check_tolerance", "read_json", "bundled_scenarios"]

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
        game = BaseGame(
            n_agents=self.agents,
            horizon=self.horizon,
            state_grids=grids,
            action_grids=agrids,
            shocks=self.shocks,
            dynamics=_closure("dynamics", build_dynamics, self.dynamics_kind, self.dynamics_params),
            rewards=_closure("rewards", build_rewards, self.rewards_kind, self.rewards_params),
            initial=self.initial,
        )
        _check_game_closures(game)
        return game

    def build_policy(self) -> TaskPolicy:
        policy = _closure("policy", build_policy, self.policy_kind, self.policy_params)
        for i in range(self.agents):
            for t in range(1, self.horizon + 1):
                hist = ({},) * (t - 1)
                for k in range(self.state_grid.points):
                    _value("policy", policy.value, i, t, self.state_grid.value(k), hist)
        return policy

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


# what a registered closure family raises when its JSON parameters have the
# wrong shape (a string for a number, a short per-agent list, ...)
_PARAM_ERRORS = (TypeError, ValueError, IndexError, KeyError, AttributeError,
                 ZeroDivisionError, OverflowError)


def _closure(section: str, fn, *args):
    """Build or evaluate a closure; parameters it cannot use are schema errors."""
    try:
        return fn(*args)
    except GameError as exc:
        raise GameError(f"{section}: {exc}") from exc
    except _PARAM_ERRORS as exc:
        raise GameError(f"{section} params do not evaluate: {exc!r}") from exc


def _value(section: str, fn, *args) -> None:
    out = _closure(section, fn, *args)
    if isinstance(out, bool) or not isinstance(out, numbers.Real) or not math.isfinite(out):
        raise GameError(f"{section} gives {out!r} at agent {args[0]}, period {args[1]}, "
                        f"state {args[2]}; need a finite number")


def _check_game_closures(game: BaseGame) -> None:
    """Evaluate reward and dynamics closures once on every grid node.

    Closure parameters are free-form JSON, so a bad one would otherwise
    surface as a crash in whichever check first evaluates the closure.
    """
    for i in game.agents():
        for t in game.periods():
            agrid = game.action_grids[(i, t)]
            hist = tuple({j: agrid.lo for j in game.agents()} for _ in range(t - 1))
            for bound in (game.lipschitz_reward(i, t), game.lipschitz_dynamics(i, t)):
                if bound is not None:
                    _number(bound, f"rewards slope bound for agent {i}, period {t}")
            for k in range(game.grid(i, t).points):
                s = game.grid(i, t).value(k)
                for a in range(agrid.points):
                    actions = {j: agrid.value(a) for j in game.agents()}
                    _value("rewards", game.reward, i, t, s, actions)
                    _value("rewards", game.du_ds, i, t, s, actions)
            if t == 1:
                continue
            for k in range(game.grid(i, t - 1).points):
                s = game.grid(i, t - 1).value(k)
                for omega in game.shocks[i].values:
                    _value("dynamics", game.dynamics.kappa, i, t, s, hist, omega)
                    _value("dynamics", game.dkappa_ds, i, t, s, hist, omega)


def _integer(value: Any, where: str) -> int:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise GameError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise GameError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise GameError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{k}]") for k, v in enumerate(value))


def _mapping(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise GameError(f"{where} must be an object, got {value!r}")
    return value


def _grid(obj: Any, where: str) -> Grid:
    obj = _mapping(obj, where)
    for key in ("lo", "hi", "points"):
        if key not in obj:
            raise GameError(f"bad grid spec at {where}: missing {key!r}")
    return Grid(_number(obj["lo"], f"{where}.lo"), _number(obj["hi"], f"{where}.hi"),
                _integer(obj["points"], f"{where}.points"))


def _shocks(obj: Any, agents: int) -> dict[int, ShockModel]:
    def one(spec, where):
        spec = _mapping(spec, where)
        if "values" not in spec:
            raise GameError(f"bad shock spec at {where}: missing 'values'")
        values = _numbers(spec["values"], f"{where}.values")
        weights = spec.get("weights")
        if weights is None:
            return ShockModel.uniform(values)
        return ShockModel(values, _numbers(weights, f"{where}.weights"))

    if isinstance(obj, list):
        if len(obj) != agents:
            raise GameError(f"need {agents} shock specs, got {len(obj)}")
        return {i: one(spec, f"shocks[{i}]") for i, spec in enumerate(obj)}
    sm = one(obj, "shocks")
    return {i: sm for i in range(agents)}


def _closure_spec(obj: Any, where: str) -> tuple[str, dict]:
    """(kind, params) of a dynamics, rewards or policy entry."""
    obj = _mapping(obj, where)
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise GameError(f"{where} needs a string 'kind', got {kind!r}")
    return kind, dict(_mapping(obj.get("params", {}), f"{where}.params"))


def _initial(init_raw: Any, agents: int, grid: Grid) -> dict[int, tuple[float, ...]]:
    if isinstance(init_raw, list) and len(init_raw) != agents:
        raise GameError(f"need {agents} initial_states entries, got {len(init_raw)}")
    initial: dict[int, tuple[float, ...]] = {}
    for i in range(agents):
        entry = init_raw[i] if isinstance(init_raw, list) else init_raw
        where = f"initial_states[{i}]"
        if isinstance(entry, (list, tuple)):
            initial[i] = _numbers(entry, where)
        else:
            weights = [0.0] * grid.points
            weights[grid.index_of(_number(entry, where))] = 1.0
            initial[i] = tuple(weights)
    return initial


def _boundaries(obj: Any) -> dict[int, list[list[float]]]:
    out = {}
    for k, pairs in _mapping(obj, "mechanism.boundaries").items():
        where = f"mechanism.boundaries[{k!r}]"
        try:
            agent = int(k)
        except ValueError as exc:
            raise GameError(f"{where}: agent keys must be integers") from exc
        if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
            raise GameError(f"{where} must be a list of [lo, hi] pairs, got {pairs!r}")
        out[agent] = [list(_numbers(p, f"{where}[{n}]")) for n, p in enumerate(pairs)]
    return out


def read_json(path: str | Path, what: str) -> Any:
    """Parse a JSON file; unreadable or malformed files are schema errors."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GameError(f"cannot read {what} {str(path)!r}: {exc}") from exc


def load_scenario(source: str | Path | Mapping) -> Scenario:
    """Parse and validate a scenario from a path, bundled name, or mapping."""
    if isinstance(source, Mapping):
        raw = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            bundled = bundled_scenarios()
            if str(source) not in bundled:
                raise GameError(f"scenario {source!r} is neither a file nor one of {sorted(bundled)}")
            path = bundled[str(source)]
        raw = dict(_mapping(read_json(path, "scenario"), "scenario"))

    def need(key):
        if key not in raw:
            raise GameError(f"scenario missing required field {key!r}")
        return raw[key]

    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        raise GameError(f"name must be a string, got {name!r}")
    agents = _integer(need("agents"), "agents")
    if agents < 1:
        raise GameError(f"agents must be at least 1, got {agents}")
    horizon = _integer(need("horizon"), "horizon")
    state_grid = _grid(need("state_grid"), "state_grid")
    action_grid = _grid(raw["action_grid"], "action_grid") if raw.get("action_grid") else state_grid
    dynamics_kind, dynamics_params = _closure_spec(need("dynamics"), "dynamics")
    rewards_kind, rewards_params = _closure_spec(need("rewards"), "rewards")
    policy_kind, policy_params = _closure_spec(raw.get("policy", {"kind": "identity"}), "policy")
    mechanism = _mapping(raw.get("mechanism", {}), "mechanism")
    variant = mechanism.get("variant", "ir")
    if variant not in ("ir", "horizontal", "knowledgeable", "tables"):
        raise GameError(f"unknown mechanism variant {variant!r}")
    boundaries = _boundaries(mechanism.get("boundaries", {}))
    init_raw = raw.get("initial_states")
    initial = {} if init_raw is None else _initial(init_raw, agents, state_grid)
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "mc"):
        raise GameError(f"unknown mode {mode!r}")
    return Scenario(
        name=name,
        agents=agents,
        horizon=horizon,
        state_grid=state_grid,
        action_grid=action_grid,
        shocks=_shocks(need("shocks"), agents),
        dynamics_kind=dynamics_kind,
        dynamics_params=dynamics_params,
        rewards_kind=rewards_kind,
        rewards_params=rewards_params,
        policy_kind=policy_kind,
        policy_params=policy_params,
        variant=variant,
        boundaries=boundaries,
        initial=initial,
        mode=mode,
        seed=check_seed(_integer(raw.get("seed", 0), "seed")),
        samples=check_samples(_integer(raw.get("samples", 10_000), "samples")),
        tolerance=check_tolerance(_number(raw.get("tolerance", 1e-9), "tolerance")),
        checks=check_checks(raw.get("verify", DEFAULT_CHECKS)),
        raw=raw,
    )


def check_checks(checks) -> tuple[str, ...]:
    """A check list must be a list of registered names; an unknown one would be skipped."""
    if not isinstance(checks, (list, tuple)):
        raise GameError(f"verify must be a list of check names, got {checks!r}")
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise GameError(f"unknown check {c!r}; known: {KNOWN_CHECKS}")
    return tuple(checks)


def check_seed(seed: int) -> int:
    """Seeds feed ``numpy.random.default_rng``, which rejects negative ones."""
    if seed < 0:
        raise GameError(f"seed must be at least 0, got {seed}")
    return seed


def check_tolerance(tol: float) -> float:
    """A tolerance must be a finite number >= 0; NaN would fail every verdict."""
    if not math.isfinite(tol) or tol < 0:
        raise GameError(f"tolerance must be a finite number >= 0, got {tol}")
    return tol


def bundled_scenarios() -> dict[str, Any]:
    out = {}
    for entry in resources.files("offmenu.data").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out
