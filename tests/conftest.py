"""Shared fixtures: the small named instances the suite verifies against.

g1        -- 5-point grid on [0,1], shocks {-0.25, 0, +0.25}, clamped
             additive dynamics, bilinear reward; the generic workhorse.
g2        -- additive separation with unit constants (state slope 1,
             identity dynamics), the closed-form reference instance.
monotone  -- periodic identity/exogenous dynamics with a linear reward:
             verified monotone environment, exact grid identities.
doublewell-- exogenous dynamics, piecewise-quadratic double-well reward,
             two singleton sub-off intervals; the horizontal fixture.
shelf     -- exogenous dynamics with a bottom-interval off region, the
             fixture with genuinely nontrivial projections and premiums.
"""

from __future__ import annotations

import numpy as np
import pytest

from offmenu.carrier import CarrierTables
from offmenu.closures import piecewise_quadratic
from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture
from offmenu.mechanism import BoundaryProfile, TaskPolicy
from offmenu.model import BaseGame, DynamicsModel, Grid, RewardModel, ShockModel
from offmenu.regions import partition_from_boundary
from offmenu.synthesis import synthesize_mechanism

GRID5 = Grid(0.0, 1.0, 5)
IDENTITY = TaskPolicy(lambda i, t, s, h: s, "identity")


def make_game(n=1, T=3, grid=GRID5, shocks=None, dynamics=None, rewards=None,
              initial=None, action_grid=None):
    shocks = shocks or {i: ShockModel.uniform([-0.25, 0.0, 0.25]) for i in range(n)}
    if isinstance(shocks, ShockModel):
        shocks = {i: shocks for i in range(n)}
    dynamics = dynamics or DynamicsModel(lambda i, t, s, h, om: s + om,
                                         lambda i, t, s, h, om: 1.0)
    rewards = rewards or RewardModel(lambda i, t, s, a: s * a.get(i, 0.0),
                                     lambda i, t, s, a: a.get(i, 0.0))
    agrid = action_grid or grid
    return BaseGame(
        n_agents=n, horizon=T,
        state_grids={(i, t): grid for i in range(n) for t in range(1, T + 1)},
        action_grids={(i, t): agrid for i in range(n) for t in range(1, T + 1)},
        shocks=shocks, dynamics=dynamics, rewards=rewards,
        initial=initial or {i: tuple(1.0 / grid.points for _ in range(grid.points))
                            for i in range(n)},
    )


@pytest.fixture(scope="session")
def g1():
    return make_game()


@pytest.fixture(scope="session")
def g2():
    """Additive separation, unit constants: state slope 1, persistence slope 1."""
    dyn = DynamicsModel(lambda i, t, s, h, om: s + 0.0 * om, lambda i, t, s, h, om: 1.0)
    rew = RewardModel(lambda i, t, s, a: s + 0.05 * a.get(i, 0.0),
                      lambda i, t, s, a: 1.0,
                      slope_bounds={(0, t): 1.0 for t in (1, 2, 3)},
                      dyn_slope_bounds={(0, t): 1.0 for t in (1, 2, 3)})
    return make_game(shocks={0: ShockModel.uniform([0.0])}, dynamics=dyn, rewards=rew)


@pytest.fixture(scope="session")
def monotone_game():
    """Identity persistence in period 3, exogenous reshuffle into period 2."""
    shock = ShockModel.uniform([0.0, 0.25, 0.5, 0.75, 1.0])
    dyn = DynamicsModel(lambda i, t, s, h, om: (om if t == 2 else s + 0.0 * om),
                        lambda i, t, s, h, om: (0.0 if t == 2 else 1.0))
    rew = RewardModel(lambda i, t, s, a: s, lambda i, t, s, a: 1.0)
    return make_game(shocks={0: shock}, dynamics=dyn, rewards=rew)


DOUBLEWELL_SLOPES = (-4.0, -4.0, 8.0, -12.0, 20.0)   # node values [0, -1, -.5, -1, 0]
SHELF_SLOPES = (2.0, 2.0, 6.0, 2.0, 6.0)             # increasing, node values [0,.5,1.5,2.5,3.5]
WELL_RIDGE_SLOPES = (-4.0, -4.0, 20.0, -24.0, 36.0)  # node values [0, -1, 1, .5, 2]


def pw_reward(slopes, grid=GRID5, act=0.0):
    shape = piecewise_quadratic(grid, slopes)

    def u(i, t, s, a):
        return shape.value(s) + act * a.get(i, 0.0)

    def du(i, t, s, a):
        return shape.deriv(s)

    return RewardModel(u, du)


def exo_game(slopes, n=1, T=3, act=0.0):
    shock = ShockModel.uniform([0.0, 0.25, 0.5, 0.75, 1.0])
    dyn = DynamicsModel(lambda i, t, s, h, om: om, lambda i, t, s, h, om: 0.0)
    return make_game(n=n, T=T, shocks={i: shock for i in range(n)}, dynamics=dyn,
                     rewards=pw_reward(slopes, act=act))


def synth(game, variant, boundaries=None, directive=None):
    """Synthesize and wrap: returns (mech, carriers, transforms, conj, engine, nodes)."""
    parts = None
    if boundaries is not None:
        prof = BoundaryProfile.from_flat(boundaries)
        parts = {(i, t): partition_from_boundary(game.grid(i, t), prof)
                 for i in game.agents() for t in game.periods()}
    mech, carriers, transforms, conj, diags = synthesize_mechanism(
        game, IDENTITY, variant, partitions=parts)
    if directive is None and parts is not None and variant != "ir":
        off = {k: p.off_indices for k, p in parts.items()}
        directive = lambda i, t, s: s in off[(i, t)]
    engine = Engine(game, mech, walker=carriers.walker,
                    directive_quit=directive or (lambda i, t, s: False))
    nodes = engine.walker.reachable_nodes(conj.plan())
    return mech, carriers, transforms, conj, engine, nodes, parts, diags


@pytest.fixture(scope="session")
def monotone_ir(monotone_game):
    return synth(monotone_game, "ir")


@pytest.fixture(scope="session")
def g2_ir(g2):
    return synth(g2, "ir")


@pytest.fixture(scope="session")
def doublewell():
    game = exo_game(DOUBLEWELL_SLOPES)
    return synth(game, "horizontal", [0.25, 0.25, 0.75, 0.75])


@pytest.fixture(scope="session")
def shelf():
    game = exo_game(SHELF_SLOPES)
    return synth(game, "horizontal", [0.0, 0.25])


@pytest.fixture(scope="session")
def shelf_knowledgeable():
    """Knowledgeable variant on an indifference instance: one interior well as
    the off region, a wide on-interval minimized strictly inside."""
    game = exo_game(WELL_RIDGE_SLOPES)
    return synth(game, "knowledgeable", [0.25, 0.25])


@pytest.fixture(scope="session")
def pair_doublewell():
    game = exo_game(DOUBLEWELL_SLOPES, n=2)
    return synth(game, "horizontal", [0.25, 0.25, 0.75, 0.75])


# ---------------------------------------------------------------------------
# Random instance generators (seeded)
# ---------------------------------------------------------------------------


def random_instance(rng: np.random.Generator):
    """Small random game + arbitrary (non-synthesized) mechanism tables."""
    n = int(rng.integers(1, 3))
    T = int(rng.integers(2, 4)) if n == 1 else 2
    points = int(rng.integers(2, 5)) if n == 1 else int(rng.integers(2, 4))
    grid = Grid(0.0, 1.0, points)
    k = int(rng.integers(1, 4))
    vals = sorted(rng.uniform(-0.6, 0.6, size=k))
    w = rng.uniform(0.2, 1.0, size=k)
    shocks = ShockModel(tuple(float(v) for v in vals), tuple(float(x) for x in w / w.sum()))
    alpha = float(rng.uniform(0.0, 1.0))

    def kappa(i, t, s, h, om):
        return alpha * s + om

    c = float(rng.uniform(-1.0, 1.0))
    spill = float(rng.uniform(-0.5, 0.5)) if n > 1 else 0.0

    def u(i, t, s, a):
        other = sum(v for kk, v in a.items() if kk != i)
        return s * a.get(i, 0.0) + c * s + spill * other

    def du(i, t, s, a):
        return a.get(i, 0.0) + c

    game = make_game(n=n, T=T, grid=grid,
                     shocks={i: shocks for i in range(n)},
                     dynamics=DynamicsModel(kappa, lambda *a: alpha),
                     rewards=RewardModel(u, du))

    from offmenu.mechanism import CallableCoupling, CallableOffSwitch, Mechanism

    rho_scale = float(rng.uniform(-0.5, 0.5))
    phi_scale = float(rng.uniform(-0.5, 0.5))

    def rho_fn(i, node, actions):
        return rho_scale * actions.get(i, 0.0) + 0.05 * node.t

    def phi_fn(i, node):
        return phi_scale + 0.1 * node.t + 0.01 * (node.key % 7)

    mech = Mechanism(IDENTITY, CallableCoupling(rho_fn), CallableOffSwitch(T, phi_fn))
    regions = {}
    if rng.uniform() < 0.5:
        for i in range(n):
            for t in range(1, T + 1):
                if rng.uniform() < 0.4:
                    regions[(i, t)] = frozenset({0})
    return game, mech, RegionConjecture(regions)


def random_g2_instance(rng: np.random.Generator):
    """Random additive-separation instance: per-period slopes, mixed dynamics."""
    T = int(rng.integers(2, 4))
    points = int(rng.integers(3, 6))
    grid = Grid(0.0, 1.0, points)
    m = [float(rng.uniform(0.1, 2.0)) for _ in range(T)]
    r = float(rng.uniform(-0.2, 0.2))
    exo = {t: bool(rng.uniform() < 0.5) for t in range(2, T + 1)}
    shock_vals = tuple(float(v) for v in grid.values)

    def kappa(i, t, s, h, om):
        return om if exo.get(t, False) else s + 0.0 * om

    def dk(i, t, s, h, om):
        return 0.0 if exo.get(t, False) else 1.0

    def u(i, t, s, a):
        return m[t - 1] * s + r * a.get(i, 0.0)

    def du(i, t, s, a):
        return m[t - 1]

    game = make_game(n=1, T=T, grid=grid,
                     shocks={0: ShockModel.uniform(shock_vals)},
                     dynamics=DynamicsModel(kappa, dk),
                     rewards=RewardModel(u, du))
    return game


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


class TrapezoidCarriers(CarrierTables):
    """Carrier tables whose carrier is a fresh trapezoid loop on every call.

    The reference the running-sum columns of ``CarrierTables.carrier`` are
    compared against with ``==``: same impulse responses, same add order.
    """

    def carrier(self, i, node, s_idx, L, a_pos=None):
        if a_pos is not None and self.walker.menu(i, node).action_index_of_state[s_idx] == a_pos:
            a_pos = None
        j0 = self.theta_index(i, node.t)
        if j0 == s_idx:
            return 0.0
        lo, hi, sign = (j0, s_idx, 1.0) if s_idx > j0 else (s_idx, j0, -1.0)
        step = self.game.grid(i, node.t).step
        qs = [self.impulse_response(i, node, j, L, a_pos) for j in range(lo, hi + 1)]
        total = 0.0
        for a, b in zip(qs, qs[1:]):
            total += 0.5 * (a + b) * step
        return sign * total
