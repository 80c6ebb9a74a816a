"""Edge shapes: single-period horizons, time-varying grids, distinct action grids."""

from __future__ import annotations

import pytest

from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture
from offmenu.mechanism import TaskPolicy
from offmenu.model import BaseGame, DynamicsModel, Grid, RewardModel, ShockModel
from offmenu.oracle import TreeOracle
from offmenu.synthesis import synthesize_mechanism
from offmenu.verify import check_doic

from conftest import IDENTITY

NOQUIT = RegionConjecture({})


def test_single_period_horizon_pipeline():
    grid = Grid(0.0, 1.0, 4)
    game = BaseGame(1, 1, {(0, 1): grid}, {(0, 1): grid},
                    {0: ShockModel.uniform([0.0])},
                    DynamicsModel(lambda i, t, s, h, om: s, lambda *a: 1.0),
                    RewardModel(lambda i, t, s, a: s * a[0], lambda i, t, s, a: a[0]),
                    {0: (0.25, 0.25, 0.25, 0.25)})
    mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
    engine = Engine(game, mech, walker=carriers.walker)
    nodes = engine.walker.reachable_nodes(conj.plan())
    assert all(v.passed for v in check_doic(engine, conj, nodes, mode="ir"))
    root = engine.root()
    for s in range(4):
        # one-period plans only; the premium is an empty sum
        assert transforms.delta_bar(0, root, s) == 0.0
        assert engine.on_rent(0, root, 0, conj) == pytest.approx(0.0, abs=1e-12)


def test_time_varying_state_grids():
    """Per-period grids of different sizes flow through menus and kernels."""
    g1, g2 = Grid(0.0, 1.0, 3), Grid(0.0, 1.0, 5)
    game = BaseGame(1, 2, {(0, 1): g1, (0, 2): g2}, {(0, 1): g1, (0, 2): g2},
                    {0: ShockModel.uniform([0.0, 0.5, 1.0])},
                    DynamicsModel(lambda i, t, s, h, om: om, lambda *a: 0.0),
                    RewardModel(lambda i, t, s, a: s, lambda *a: 1.0),
                    {0: (1.0, 0.0, 0.0)})
    mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
    engine = Engine(game, mech, walker=carriers.walker)
    oracle = TreeOracle(game, mech, store=engine.store)
    root = engine.root()
    menu1 = engine.walker.menu(0, root)
    assert len(menu1.actions) == 3
    for s in range(3):
        for L in (1, 2):
            assert engine.prospects(0, root, s, conj)[L - root.t] == pytest.approx(
                oracle.prospect(0, root, s, L, conj.plans(0, root)), abs=1e-12)
    nodes = engine.walker.reachable_nodes(conj.plan())
    second = [n for n in nodes if n.t == 2][0]
    assert len(engine.walker.menu(0, second).actions) == 5


def test_action_grid_distinct_from_state_grid():
    sgrid = Grid(0.0, 1.0, 3)
    agrid = Grid(0.0, 2.0, 5)   # affine policy doubles the state
    game = BaseGame(1, 2, {(0, t): sgrid for t in (1, 2)}, {(0, t): agrid for t in (1, 2)},
                    {0: ShockModel.uniform([0.0])},
                    DynamicsModel(lambda i, t, s, h, om: s, lambda *a: 1.0),
                    RewardModel(lambda i, t, s, a: s * a[0], lambda i, t, s, a: a[0]),
                    {0: (1.0, 0.0, 0.0)})
    sigma = TaskPolicy(lambda i, t, s, h: 2.0 * s, "double")
    mech, carriers, transforms, conj, diags = synthesize_mechanism(game, sigma, "ir")
    walker = carriers.walker
    menu = walker.menu(0, walker.store.root())
    assert menu.actions == (0.0, 1.0, 2.0)
    engine = Engine(game, mech, walker=walker)
    nodes = engine.walker.reachable_nodes(conj.plan())
    assert all(v.passed for v in check_doic(engine, conj, nodes, mode="ir"))


def test_two_point_grids_minimum_size():
    grid = Grid(0.0, 1.0, 2)
    game = BaseGame(1, 2, {(0, t): grid for t in (1, 2)}, {(0, t): grid for t in (1, 2)},
                    {0: ShockModel.uniform([0.0, 1.0])},
                    DynamicsModel(lambda i, t, s, h, om: om, lambda *a: 0.0),
                    RewardModel(lambda i, t, s, a: s, lambda *a: 1.0),
                    {0: (0.5, 0.5)})
    mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
    engine = Engine(game, mech, walker=carriers.walker)
    nodes = engine.walker.reachable_nodes(conj.plan())
    assert all(v.passed for v in check_doic(engine, conj, nodes, mode="ir"))
