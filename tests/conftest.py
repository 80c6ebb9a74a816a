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

import itertools
import math

import numpy as np
import pytest

from offmenu.carrier import CarrierTables
from offmenu.closures import piecewise_quadratic
from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture, StepBranch, TreeWalker, live_cells
from offmenu.mechanism import BoundaryProfile, Mechanism, OffSwitch, TaskPolicy
from offmenu.model import BaseGame, DynamicsModel, GameError, Grid, RewardModel, ShockModel
from offmenu.regions import partition_from_boundary
from offmenu.synthesis import synthesize_mechanism
from offmenu.verify import Verdict

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


def boundary_profile(flat):
    """The profile of a flat boundary sequence (l_1, r_1, ..., l_B, r_B)."""
    assert len(flat) % 2 == 0, "a boundary profile needs an even number of entries"
    return BoundaryProfile(tuple(zip(map(float, flat[::2]), map(float, flat[1::2]))))


def synth(game, variant, boundaries=None, directive=None):
    """Synthesize and wrap: returns (mech, carriers, transforms, conj, engine, nodes)."""
    parts = None
    if boundaries is not None:
        prof = boundary_profile(boundaries)
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

    def carrier(self, i, node, s_idx, L):
        if s_idx == 0:
            return 0.0
        step = self.game.grid(i, node.t).step
        qs = [self.impulse_response(i, node, j, L) for j in range(s_idx + 1)]
        total = 0.0
        for a, b in zip(qs, qs[1:]):
            total += 0.5 * (a + b) * step
        return total


class LoopWalker(TreeWalker):
    """Tree walker whose enumerations are the hand-rolled joint-resolution loops.

    The reference ``TreeWalker.joint_steps`` and its closure walk are compared
    against with ``==``: same branches, same node sets, same interning order.
    Period T is terminal: no walk expands its nodes.
    """

    def other_branches(self, i, node, plan):
        others = [j for j in node.active if j != i]
        if not others:
            yield StepBranch(1.0, (), (), {}, {})
            return
        pools = [self.belief(j, node) for j in others]
        for combo in itertools.product(*pools):
            prob = 1.0
            states = []
            quitters = []
            actions = {}
            actions_idx = {}
            for j, (p, s_idx) in zip(others, combo):
                prob *= p
                states.append((j, s_idx))
                if plan.quits(j, node.t, s_idx, node):
                    quitters.append(j)
                else:
                    a, a_idx = self.own_action(j, node, s_idx)
                    actions[j] = a
                    actions_idx[j] = a_idx
            yield StepBranch(prob, tuple(states), tuple(quitters), actions, actions_idx)

    def reachable_nodes(self, plan, max_nodes=250_000):
        root = self.store.root()
        seen = {root.key: root}
        self._expand([root], seen, plan, max_nodes)
        return sorted(seen.values(), key=lambda n: (n.t, n.key))

    def _expand(self, frontier, seen, plan, max_nodes):
        frontier = list(frontier)
        while frontier:
            node = frontier.pop()
            if node.t >= self.game.horizon:   # period T is terminal
                continue
            pools = [self.belief(j, node) for j in node.active]
            for combo in itertools.product(*pools):
                states = {}
                quitters = []
                actions_idx = {}
                for j, (_, s_idx) in zip(node.active, combo):
                    states[j] = s_idx
                    if plan.quits(j, node.t, s_idx, node):
                        quitters.append(j)
                    else:
                        _, a_idx = self.own_action(j, node, s_idx)
                        actions_idx[j] = a_idx
                child = self.store.child(node, states, quitters, actions_idx)
                if child.key not in seen:
                    seen[child.key] = child
                    if len(seen) > max_nodes:
                        raise GameError("reachable node set exceeds the exact-mode budget; "
                                        "rerun with mode=mc")
                    frontier.append(child)

    def full_state_closure(self, plan, max_nodes=250_000):
        root = self.store.root()
        seen = {root.key: root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            if node.t >= self.game.horizon:   # period T is terminal
                continue
            pools = [range(self.game.grid(j, node.t).points) for j in node.active]
            for combo in itertools.product(*pools):
                states = dict(zip(node.active, combo))
                plan_quits = [j for j in node.active
                              if plan.quits(j, node.t, states[j], node)]
                for keep in [None] + plan_quits:
                    quitters = [j for j in plan_quits if j != keep]
                    actions_idx = {}
                    for j in node.active:
                        if j in quitters:
                            continue
                        _, a_idx = self.own_action(j, node, states[j])
                        actions_idx[j] = a_idx
                    child = self.store.child(node, states, quitters, actions_idx)
                    if child.key not in seen:
                        seen[child.key] = child
                        if len(seen) > max_nodes:
                            raise GameError("full-state closure exceeds the exact-mode budget; "
                                            "rerun with mode=mc")
                        frontier.append(child)
        return sorted(seen.values(), key=lambda n: (n.t, n.key))

    def one_shot_closure(self, plan, max_nodes=250_000):
        base = self.reachable_nodes(plan, max_nodes)
        seen = {n.key: n for n in base}
        for evaluator in self.game.agents():
            frontier = [(self.store.root(), False)]
            visited = {(self.store.root().key, False)}
            while frontier:
                node, deviated = frontier.pop()
                if node.t >= self.game.horizon or evaluator not in node.active:
                    continue
                pools = [self.belief(j, node) for j in node.active]
                for combo in itertools.product(*pools):
                    states = {}
                    quitters = []
                    actions_idx = {}
                    for j, (_, s_idx) in zip(node.active, combo):
                        states[j] = s_idx
                        if j != evaluator and plan.quits(j, node.t, s_idx, node):
                            quitters.append(j)
                        else:
                            _, a_idx = self.own_action(j, node, s_idx)
                            actions_idx[j] = a_idx
                    own_menu = self.menu(evaluator, node)
                    choices = [(actions_idx[evaluator], deviated)]
                    if not deviated:
                        for a in own_menu.actions:
                            idx = self.game.action_grids[(evaluator, node.t)].index_of(a, tol=1e-6)
                            if idx != actions_idx[evaluator]:
                                choices.append((idx, True))
                    for own_idx, next_dev in choices:
                        alt = dict(actions_idx)
                        alt[evaluator] = own_idx
                        child = self.store.child(node, states, quitters, alt)
                        if child.key not in seen:
                            seen[child.key] = child
                            if len(seen) > max_nodes:
                                raise GameError("deviation closure exceeds the exact-mode budget; "
                                                "rerun with mode=mc")
                        if (child.key, next_dev) not in visited:
                            visited.add((child.key, next_dev))
                            frontier.append((child, next_dev))
        return sorted(seen.values(), key=lambda n: (n.t, n.key))


class LoopEngine(Engine):
    """Engine whose first-hit quit distribution is the hand-rolled joint loop."""

    def _chi(self, i, node, plan, memo):
        T1 = self.game.horizon + 1
        if i not in node.active:
            return {T1: 1.0}
        key = (i, node.key)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = {}
        pools = [self.walker.belief(j, node) for j in node.active]
        for combo in itertools.product(*pools):
            prob = 1.0
            states = {}
            quitters = []
            actions_idx = {}
            for j, (p, sj) in zip(node.active, combo):
                prob *= p
                states[j] = sj
                if plan.quits(j, node.t, sj, node):
                    quitters.append(j)
                else:
                    _, a_idx = self.walker.own_action(j, node, sj)
                    actions_idx[j] = a_idx
            if i in quitters:
                out[node.t] = out.get(node.t, 0.0) + prob
                continue
            if node.t == self.game.horizon:
                out[T1] = out.get(T1, 0.0) + prob
                continue
            child = self.store.child(node, states, quitters, actions_idx)
            for k, w in self._chi(i, child, plan, memo).items():
                out[k] = out.get(k, 0.0) + prob * w
        memo[key] = out
        return out


class PerPlanIndexEngine(Engine):
    """Engine whose prospects run one recursion per plan index L.

    The memo of ``Engine._g_plan`` holds every plan index of a cell in one
    entry; this is the recursion it replaced, one entry per (cell, L), kept
    as the reference the vector is compared against with ``==``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._per_L: dict[tuple, float] = {}

    def prospect(self, i, node, s_idx, L, x, a_pos=None):
        total = 0.0
        for p, plan in x.plans(i, node):
            total += p * self._g_at(i, node, s_idx, L, a_pos, plan)
        return total

    def prospects(self, i, node, s_idx, x, a_pos=None):
        return [self.prospect(i, node, s_idx, L, x, a_pos)
                for L in range(node.t, self.game.horizon + 1)]

    def _g_at(self, i, node, s_idx, L, a_pos, plan):
        key = (i, self.memo_key(node), s_idx, L, a_pos, self.walker.plan_id(plan))
        hit = self._per_L.get(key)
        if hit is not None:
            return hit
        pos = self.walker.own_slot(i, node, s_idx, a_pos)
        a_own, a_own_idx = self.walker.own_action(i, node, s_idx, pos)
        phi = self.mechanism.phi
        interval_keyed = phi.state_dependent()
        total = 0.0
        for w, actions, br in self.walker.own_branches(i, node, ((1.0, plan),), a_own):
            z = self.flow(i, node, s_idx, actions, pos)
            cont = 0.0   # quitting after the horizon pays 0
            if node.t < self.game.horizon:
                child = self.walker.child_after(i, node, s_idx, a_own_idx, br)
                if L > node.t:
                    for pp, s2 in self.walker.own_kernel(i, child, s_idx):
                        cont += pp * self._g_at(i, child, s2, L, None, plan)
                elif interval_keyed:
                    for pp, s2 in self.walker.own_kernel(i, child, s_idx):
                        cont += pp * phi.value(i, child, s2)
                else:
                    cont = phi.value(i, child)
            total += w * (z + cont)
        self._per_L[key] = total
        return total


def audit_full_deviations(engine, x, nodes, directive_regions=None, tol=1e-9) -> Verdict:
    """Unrestricted deviations instead of one-shot ones: the reference for the
    claim that one-shot checks suffice.

    Computes, per cell, the value of the best fully state-contingent strategy
    (re-deciding the quit and any menu action every period) by dynamic
    programming and compares it with the value of the directed behavior
    (quit per the directive regions, obedient actions otherwise).  A positive
    gap is a profitable multi-period deviation that one-shot checks can miss.
    Exponential in the tree; for desk-scale instances only.
    """
    regions = directive_regions or {}
    game = engine.game
    walker = engine.walker
    memo_best: dict[tuple, float] = {}
    memo_directed: dict[tuple, float] = {}

    def stay(i, node, s, plan, a_pos, then):
        """Stay this period playing menu slot ``a_pos`` (obedient when None), then ``then``."""
        pos = walker.own_slot(i, node, s, a_pos)
        a_own, a_idx = walker.own_action(i, node, s, pos)
        total = 0.0
        for w, actions, br in walker.own_branches(i, node, ((1.0, plan),), a_own):
            z = engine.flow(i, node, s, actions, pos)
            cont = 0.0
            if node.t < game.horizon:
                child = walker.child_after(i, node, s, a_idx, br)
                for pp, s2 in walker.own_kernel(i, child, s):
                    cont += pp * then(i, child, s2, plan)
            total += w * (z + cont)
        return total

    def best(i, node, s, plan):
        key = (i, node.key, s, walker.plan_id(plan))
        hit = memo_best.get(key)
        if hit is not None:
            return hit
        stay_best = -math.inf
        for pos in range(len(walker.menu(i, node).actions)):
            stay_best = max(stay_best, stay(i, node, s, plan, pos, best))
        out = memo_best[key] = max(engine.phi_value(i, node, s), stay_best)
        return out

    def directed(i, node, s, plan):
        key = (i, node.key, s, walker.plan_id(plan))
        hit = memo_directed.get(key)
        if hit is not None:
            return hit
        if s in regions.get((i, node.t), frozenset()):
            out = engine.phi_value(i, node, s)
        else:
            out = stay(i, node, s, plan, None, directed)
        memo_directed[key] = out
        return out

    worst = 0.0
    witness = None
    for i, node in live_cells(nodes):
        for s in range(game.grid(i, node.t).points):
            for p, plan in x.plans(i, node):
                gap = best(i, node, s, plan) - directed(i, node, s, plan)
                if gap > worst:
                    worst = gap
                    if gap > tol:
                        witness = {"agent": i, "period": node.t, "node": node.key, "state": s}
    return Verdict("full-deviation-audit", worst <= tol, worst, tol, witness=witness)


class NodeKeyedOffSwitch(OffSwitch):
    """Posted values keyed by interned node id: a history function, not a class one."""

    def __init__(self, horizon, table, interval_of=None):
        self.horizon = horizon
        self.table = table
        self.interval_of = interval_of

    def state_dependent(self):
        return self.interval_of is not None

    def value(self, i, node, state_index=None):
        if self._terminal(node):
            return 0.0
        if self.interval_of is not None:
            return self.table[(i, node.key, self.interval_of(i, node.t, state_index))]
        return self.table[(i, node.key)]


def history_keyed_solve(rho, transforms, nodes, variant):
    """The indifference solve keyed by full history and filled last period first,
    the reference for ``solve_phi_by_indifference``.

    Fills a node-keyed table over every history of ``LoopWalker.full_state_closure``
    (whole-grid states, obedient actions, plan quits and the evaluator's
    stay); its engine memoizes by ``node.key``.
    """
    walker, game = transforms.walker, transforms.game
    conj = transforms.carriers.conjecture
    knowledgeable = variant == "knowledgeable"

    def interval_of(i, t, s_idx):
        return transforms.partition(i, t).global_interval_index(s_idx)

    table = {}
    phi = NodeKeyedOffSwitch(game.horizon, table, interval_of if knowledgeable else None)
    engine = Engine(game, Mechanism(walker.sigma, rho, phi), walker=walker)
    loop = LoopWalker(game, walker.sigma, store=walker.store)
    fill_nodes = loop.full_state_closure(conj.plan())
    out = {}
    emit_keys = {n.key for n in nodes}
    for i, node in live_cells(sorted(fill_nodes, key=lambda n: -n.t)):
        if knowledgeable:
            part = transforms.partition(i, node.t)
            for w, (_, _, kind, k) in enumerate(part.intervals()):
                pt = (transforms.d_up(i, node, k) if kind == "off"
                      else transforms.d_down(i, node, k))
                table[(i, node.key, w)] = engine.stay_value(i, node, pt, conj)[0]
                if node.key in emit_keys:
                    out[(i, node.key, w)] = table[(i, node.key, w)]
        else:
            pt = 0 if variant == "ir" else transforms.d_up(i, node, 0)
            table[(i, node.key)] = engine.stay_value(i, node, pt, conj)[0]
            if node.key in emit_keys:
                out[(i, node.key)] = table[(i, node.key)]
    return out
