"""Mechanism surface: menus, coupling values, off-switch semantics."""

from __future__ import annotations

import numpy as np
import pytest

from offmenu.histories import RegionConjecture, TreeWalker
from offmenu.mechanism import (
    BoundaryProfile,
    CallableCoupling,
    Menu,
    TaskPolicy,
    ZeroCoupling,
    action_menu,
)
from offmenu.model import GameError, Grid
from offmenu.run import run_scenario
from offmenu.scenario import bundled_scenarios, load_scenario

from conftest import GRID5, IDENTITY, LoopWalker, random_instance


def test_identity_menu_equals_state_grid(g1):
    menu = action_menu(g1, IDENTITY, 0, 1, ())
    assert menu.actions == tuple(GRID5.values)
    assert all(len(gens) == 1 for gens in menu.generating_states)


def test_constant_policy_singleton_menu(g1):
    menu = action_menu(g1, TaskPolicy(lambda i, t, s, h: 0.5, "constant"), 0, 1, ())
    assert menu.actions == (0.5,)
    assert menu.generating_states == (tuple(range(5)),)
    assert menu.action_index_of_state == (0,) * 5


def test_reflection_policy_menu(g1):
    menu = action_menu(g1, TaskPolicy(lambda i, t, s, h: 1.0 - s, "reflect"), 0, 1, ())
    assert menu.actions == tuple(GRID5.values)
    # back-map: action 1 - s is generated by state s
    for pos, gens in enumerate(menu.generating_states):
        assert GRID5.value(gens[0]) == pytest.approx(1.0 - menu.actions[pos])


def test_menu_rejects_off_grid_image(g1):
    bad = TaskPolicy(lambda i, t, s, h: s + 2.0, "escape")
    with pytest.raises(GameError):
        action_menu(g1, bad, 0, 1, ())


def test_menu_position_lookup(g1):
    menu = action_menu(g1, IDENTITY, 0, 1, ())
    assert menu.position(0.5) == 2
    with pytest.raises(GameError):
        menu.position(0.3)


def test_zero_coupling_and_additivity(g1):
    walker = TreeWalker(g1, IDENTITY)
    root = walker.store.root()
    assert ZeroCoupling().value(0, root, {0: 0.5}) == 0.0
    one = CallableCoupling(lambda i, node, a: a[i])
    two = CallableCoupling(lambda i, node, a: 2.0 * a[i])
    both = CallableCoupling(lambda i, node, a: one.fn(i, node, a) + two.fn(i, node, a))
    assert both.value(0, root, {0: 0.5}) == pytest.approx(1.5)


def test_off_switch_constant_over_states_and_actions(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    for node in nodes[:6]:
        vals = {mech.phi.value(0, node, s) for s in range(5)}
        assert len({round(v, 15) for v in vals}) == 1


def test_off_switch_terminal_convention(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    # no walk goes past T; the tree oracle builds such a history and reads 0
    # there.  Build one in a store of this test's own, not the fixture's.
    walker = TreeWalker(engine.game, engine.walker.sigma)
    last = walker.reachable_nodes(conj.plan())[-1]
    assert last.t == engine.game.horizon
    _, a_idx = walker.own_action(0, last, 0)
    beyond = walker.store.child(last, {0: 0}, (), {0: a_idx})
    assert beyond.t == engine.game.horizon + 1
    assert mech.phi.value(0, beyond) == 0.0


def test_boundary_profile_ordering():
    with pytest.raises(GameError):
        BoundaryProfile(((0.5, 0.25),))
    prof = BoundaryProfile(((0.0, 0.25), (0.5, 0.75)))
    assert prof.pairs == ((0.0, 0.25), (0.5, 0.75))


def test_menu_state_equivalence_backmap(g1):
    # acting as another state is exactly selecting that state's menu action
    walker = TreeWalker(g1, IDENTITY)
    root = walker.store.root()
    menu = walker.menu(0, root)
    for s in range(5):
        pos = menu.action_index_of_state[s]
        assert s in menu.generating_states[pos]


def test_coverage_every_reachable_node_has_menu_and_values(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    for node in nodes:
        menu = engine.walker.menu(0, node)
        assert menu.actions
        mech.phi.value(0, node, 0)
        mech.rho.value(0, node, {0: menu.actions[0]})


def test_synthesized_terminal_coupling_identity(monotone_ir):
    """At the last period the expected coupling is the max carrier net of the reward."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    game = engine.game
    T = game.horizon
    for node in nodes:
        if node.t != T:
            continue
        menu = engine.walker.menu(0, node)
        for pos, a in enumerate(menu.actions):
            s = menu.generating_states[pos][-1]
            want = carriers.mg(0, node, s) - game.reward(0, T, game.grid(0, T).value(s), {0: a})
            assert mech.rho.value(0, node, {0: a}) == pytest.approx(want, abs=1e-12)
        break


def _menu_grid_mismatches(walker, nodes):
    """Menu slots whose stored grid index differs from a lookup of the slot's action."""
    game = walker.game
    bad = []
    for node in nodes:
        for i in node.active:
            menu = walker.menu(i, node)
            agrid = game.action_grids[(i, node.t)]
            assert len(menu.grid_indices) == len(menu.actions)
            bad += [(i, node.signature(), pos) for pos, a in enumerate(menu.actions)
                    if agrid.index_of(a, tol=1e-6) != menu.grid_indices[pos]]
    return bad


@pytest.mark.parametrize("seed", range(10))
def test_menu_grid_indices_equal_grid_lookup_on_random_instances(seed):
    game, _, conj = random_instance(np.random.default_rng(seed))
    walker = LoopWalker(game, IDENTITY)
    assert _menu_grid_mismatches(walker, walker.full_state_closure(conj.plan())) == []


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_menu_grid_indices_equal_grid_lookup_on_bundled_scenarios(name):
    scenario = load_scenario(name)
    game = scenario.build_game()
    walker = TreeWalker(game, scenario.build_policy())
    nodes = walker.reachable_nodes(RegionConjecture({}).plan())
    assert _menu_grid_mismatches(walker, nodes) == []


@pytest.mark.parametrize("points", [2, 3, 5, 9, 17, 33, 65, 129])
def test_grid_lookup_of_a_node_value_is_its_index(points):
    for lo, hi in ((0.0, 1.0), (-0.3, 0.7), (0.1, 2.9)):
        grid = Grid(lo, hi, points)
        found = [grid.index_of(grid.value(k), tol=1e-6) for k in range(points)]
        assert found == list(range(points))


def test_the_flow_reads_the_coupling_by_menu_slot(monkeypatch):
    """Every flow and export passes the slot it played, so a full run never
    locates an action on its menu (``CouplingPolicy.value_at_slot``)."""
    def position(self, action):
        raise AssertionError(f"menu lookup of action {action}")

    monkeypatch.setattr(Menu, "position", position)
    result = run_scenario("subscription", None, {})
    assert all(v["passed"] for v in result.report["verdicts"])


def test_a_custom_coupling_is_read_by_slot_through_its_value(g1):
    rho = CallableCoupling(lambda i, node, actions: 10.0 * actions[i])
    walker = TreeWalker(g1, IDENTITY)
    assert rho.value_at_slot(0, walker.store.root(), 3, {0: 0.75}) == 7.5

