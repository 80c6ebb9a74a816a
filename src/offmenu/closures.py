"""Registered dynamics, reward and task-policy families for scenario files.

Scenario files select these by name with a parameter dict, so instances
stay serializable.  Every family ships an analytic state derivative; the
piecewise-linear-slope reward family is the workhorse for exact-mode
fixtures because grid-trapezoid integration of its derivative is exact.

Per-agent parameters: any scalar parameter may instead be a list indexed
by agent.

Every dynamics and policy family declares the history window it reads:
none reads the action history except ``action_feedback``, which reads the
last record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .model import DynamicsModel, GameError, Grid, RewardModel
from .mechanism import TaskPolicy

__all__ = [
    "build_dynamics",
    "build_rewards",
    "build_policy",
    "DYNAMICS_KINDS",
    "REWARD_KINDS",
    "POLICY_KINDS",
    "piecewise_quadratic",
]


def _per_agent(params: Mapping, key: str, i: int, default=None):
    v = params.get(key, default)
    if isinstance(v, (list, tuple)):
        return v[i]
    return v


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------


def _dyn_additive(params):
    """next = s + scale * omega; unit state slope."""
    def kappa(i, t, s, hist, om):
        return s + _per_agent(params, "scale", i, 1.0) * om

    return DynamicsModel(kappa, lambda i, t, s, hist, om: 1.0, history_window=0)


def _dyn_ar1(params):
    """next = alpha * s + scale * omega."""
    def kappa(i, t, s, hist, om):
        return _per_agent(params, "alpha", i, 0.5) * s + _per_agent(params, "scale", i, 1.0) * om

    def deriv(i, t, s, hist, om):
        return _per_agent(params, "alpha", i, 0.5)

    return DynamicsModel(kappa, deriv, history_window=0)


def _dyn_exogenous(params):
    """next = offset + scale * omega; no state dependence."""
    def kappa(i, t, s, hist, om):
        return _per_agent(params, "offset", i, 0.0) + _per_agent(params, "scale", i, 1.0) * om

    return DynamicsModel(kappa, lambda i, t, s, hist, om: 0.0, history_window=0)


def _dyn_identity(params):
    return DynamicsModel(lambda i, t, s, hist, om: s + 0.0 * om,
                         lambda i, t, s, hist, om: 1.0, history_window=0)


def _dyn_periodic(params):
    """Per-period schedule mixing identity and exogenous steps.

    ``schedule`` lists, per arrival period t (2..T as strings or ints),
    either "identity" or "exogenous"; exogenous arrivals land at omega.
    """
    schedule = {int(k): v for k, v in params.get("schedule", {}).items()}

    def kind(t):
        return schedule.get(t, "identity")

    def kappa(i, t, s, hist, om):
        return s + 0.0 * om if kind(t) == "identity" else om

    def deriv(i, t, s, hist, om):
        return 1.0 if kind(t) == "identity" else 0.0

    return DynamicsModel(kappa, deriv, history_window=0)


def _dyn_action_feedback(params):
    """next = s + beta * own last action + scale * omega."""
    beta = params.get("beta", 0.25)

    def kappa(i, t, s, hist, om):
        last = hist[-1].get(i, 0.0) if hist else 0.0
        return s + beta * last + _per_agent(params, "scale", i, 1.0) * om

    # reads the agent's own action in the last record only
    return DynamicsModel(kappa, lambda i, t, s, hist, om: 1.0, history_window=1)


DYNAMICS_KINDS: dict[str, Callable] = {
    "additive": _dyn_additive,
    "ar1": _dyn_ar1,
    "exogenous": _dyn_exogenous,
    "identity": _dyn_identity,
    "periodic": _dyn_periodic,
    "action_feedback": _dyn_action_feedback,
}


def build_dynamics(kind: str, params: Mapping) -> DynamicsModel:
    if kind not in DYNAMICS_KINDS:
        raise GameError(f"unknown dynamics kind {kind!r}; have {sorted(DYNAMICS_KINDS)}")
    return DYNAMICS_KINDS[kind](params)


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class piecewise_quadratic:
    """C1 function with piecewise-linear derivative through declared node slopes.

    Values are the exact antiderivative of the interpolated slope, so grid
    trapezoids of the derivative reproduce value differences exactly.
    """

    grid: Grid
    slopes: tuple[float, ...]
    # _bases[j]: the trapezoids below node j, summed from the bottom node up
    _bases: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.slopes) != self.grid.points:
            raise GameError("need one slope per grid node")
        bases = [0.0]
        for k in range(self.grid.points - 2):
            bases.append(bases[k] + 0.5 * (self.slopes[k] + self.slopes[k + 1]) * self.grid.step)
        object.__setattr__(self, "_bases", tuple(bases))

    def _cell(self, s: float) -> int:
        return min(max(int((s - self.grid.lo) / self.grid.step), 0), self.grid.points - 2)

    def deriv(self, s: float) -> float:
        j = self._cell(s)
        w = (s - self.grid.value(j)) / self.grid.step
        return (1.0 - w) * self.slopes[j] + w * self.slopes[j + 1]

    def value(self, s: float) -> float:
        j = self._cell(s)
        ds = s - self.grid.value(j)
        return self._bases[j] + self.slopes[j] * ds + 0.5 * (self.deriv(s) - self.slopes[j]) * ds


def _rw_linear_state(params):
    """u = c * s; action independent."""
    def u(i, t, s, actions):
        return _per_agent(params, "c", i, 1.0) * s

    def du(i, t, s, actions):
        return _per_agent(params, "c", i, 1.0)

    return RewardModel(u, du)


def _rw_bilinear(params):
    """u = s * own action + c * s + spill * sum of others' actions."""
    c = params.get("c", 0.0)
    spill = params.get("spill", 0.0)

    def u(i, t, s, actions):
        other = sum(v for k, v in actions.items() if k != i)
        return s * actions[i] + c * s + spill * other

    def du(i, t, s, actions):
        return actions[i] + c

    return RewardModel(u, du)


def _rw_additive_sep(params):
    """u = m * s + r * own action (+ spill * others); linear state part.

    The canonical separable family: the state slope is m per period
    (optionally a per-period list), the action part never touches the state.
    """
    r = params.get("r", 0.0)
    spill = params.get("spill", 0.0)

    def m_of(i, t):
        m = _per_agent(params, "m", i, 1.0)
        if isinstance(m, (list, tuple)):
            return m[t - 1]
        return m

    def u(i, t, s, actions):
        other = sum(v for k, v in actions.items() if k != i)
        return m_of(i, t) * s + r * actions.get(i, 0.0) + spill * other

    def du(i, t, s, actions):
        return m_of(i, t)

    return RewardModel(u, du)


def _rw_pw_slopes(params):
    """State part from declared node slopes (exact trapezoids) plus action terms.

    params: grid {lo, hi, points}; slopes per node (or per agent lists);
    optional offset, act (times own action), spill (times others' sum).
    """
    g = params["grid"]
    grid = Grid(float(g["lo"]), float(g["hi"]), int(g["points"]))
    act = params.get("act", 0.0)
    spill = params.get("spill", 0.0)
    offset = params.get("offset", 0.0)
    raw = params["slopes"]
    per_agent = bool(raw and isinstance(raw[0], (list, tuple)))

    def shape(i):
        slopes = raw[i] if per_agent else raw
        return piecewise_quadratic(grid, tuple(float(x) for x in slopes))

    shapes: dict[int, piecewise_quadratic] = {}

    def get(i):
        if i not in shapes:
            shapes[i] = shape(i)
        return shapes[i]

    def u(i, t, s, actions):
        other = sum(v for k, v in actions.items() if k != i)
        return offset + get(i).value(s) + act * actions.get(i, 0.0) + spill * other

    def du(i, t, s, actions):
        return get(i).deriv(s)

    return RewardModel(u, du)


REWARD_KINDS: dict[str, Callable] = {
    "linear_state": _rw_linear_state,
    "bilinear": _rw_bilinear,
    "additive_sep": _rw_additive_sep,
    "pw_slopes": _rw_pw_slopes,
}


def build_rewards(kind: str, params: Mapping) -> RewardModel:
    if kind not in REWARD_KINDS:
        raise GameError(f"unknown reward kind {kind!r}; have {sorted(REWARD_KINDS)}")
    model = REWARD_KINDS[kind](params)
    bounds = params.get("slope_bounds")
    dyn_bounds = params.get("dyn_slope_bounds")
    if bounds or dyn_bounds:
        model = RewardModel(model.u, model.deriv,
                            {tuple(map(int, k.split(","))): v for k, v in (bounds or {}).items()},
                            {tuple(map(int, k.split(","))): v for k, v in (dyn_bounds or {}).items()})
    return model


# ---------------------------------------------------------------------------
# Task policies
# ---------------------------------------------------------------------------


def _pol_identity(params):
    return TaskPolicy(lambda i, t, s, hist: s, "identity", history_window=0)


def _pol_affine(params):
    a = params.get("gain", 1.0)
    b = params.get("shift", 0.0)
    return TaskPolicy(lambda i, t, s, hist: a * s + b, "affine", history_window=0)


def _pol_constant(params):
    v = params.get("value", 0.0)
    return TaskPolicy(lambda i, t, s, hist: v, "constant", history_window=0)


def _pol_table(params):
    """Explicit action per (period, state index); per-agent outer list optional."""
    table = params["actions"]
    grid = params["grid"]
    g = Grid(float(grid["lo"]), float(grid["hi"]), int(grid["points"]))

    def fn(i, t, s, hist):
        rows = table[i] if isinstance(table[0][0], (list, tuple)) else table
        return float(rows[t - 1][g.index_of(s)])

    return TaskPolicy(fn, "table", history_window=0)


POLICY_KINDS: dict[str, Callable] = {
    "identity": _pol_identity,
    "affine": _pol_affine,
    "constant": _pol_constant,
    "table": _pol_table,
}


def build_policy(kind: str, params: Mapping) -> TaskPolicy:
    if kind not in POLICY_KINDS:
        raise GameError(f"unknown policy kind {kind!r}; have {sorted(POLICY_KINDS)}")
    return POLICY_KINDS[kind](params)
