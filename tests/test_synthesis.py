"""Synthesis: expected coupling, cutoff variants, posted factor, vanishing test."""

from __future__ import annotations

import json

import pytest

from offmenu.carrier import CarrierTables
from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture, TreeWalker, live_cells
from offmenu.mechanism import CallableCoupling
from offmenu.model import RewardModel
from offmenu.scenario import bundled_scenarios, load_scenario
from offmenu.synthesis import (
    SynthesizedCoupling,
    check_dcm_zero,
    posted_factor_eta,
    solve_phi_by_indifference,
    synthesize_mechanism,
)

from conftest import GRID5, IDENTITY, exo_game, history_keyed_solve, make_game, synth

NOQUIT = RegionConjecture({})


def test_zero_reward_coupling_equals_marginal_carrier():
    game = make_game(rewards=RewardModel(lambda i, t, s, a: 0.0, lambda i, t, s, a: 0.0))
    walker = TreeWalker(game, IDENTITY)
    carriers = CarrierTables(walker, NOQUIT)
    rho = SynthesizedCoupling(carriers)
    root = walker.store.root()
    menu = walker.menu(0, root)
    for pos, a in enumerate(menu.actions):
        s = menu.generating_states[pos][-1]
        assert rho.value(0, root, {0: a}) == pytest.approx(
            carriers.marginal_carrier(0, root, s), abs=1e-12)


def test_coupling_terminal_identity(g1):
    walker = TreeWalker(g1, IDENTITY)
    carriers = CarrierTables(walker, NOQUIT)
    rho = SynthesizedCoupling(carriers)
    last = [n for n in walker.reachable_nodes(NOQUIT.plan()) if n.t == 3][0]
    menu = walker.menu(0, last)
    for pos, a in enumerate(menu.actions):
        s = menu.generating_states[pos][-1]
        want = carriers.mg(0, last, s) - g1.reward(0, 3, GRID5.value(s), {0: a})
        assert rho.value(0, last, {0: a}) == pytest.approx(want, abs=1e-12)


def test_coupling_table_term_by_term(g1):
    """Every entry decomposes into its three defining terms, recomputed here."""
    walker = TreeWalker(g1, IDENTITY)
    carriers = CarrierTables(walker, NOQUIT)
    rho = SynthesizedCoupling(carriers)
    for node in walker.reachable_nodes(NOQUIT.plan())[:10]:
        if node.t > 3:
            continue
        menu = walker.menu(0, node)
        for pos, a in enumerate(menu.actions):
            s = menu.generating_states[pos][-1]
            term1 = carriers.mg(0, node, s)
            term2 = carriers.expected_next_mg(0, node, s)
            term3 = g1.reward(0, node.t, GRID5.value(s), {0: a})
            assert rho.value(0, node, {0: a}) == pytest.approx(
                term1 - term2 - term3, abs=1e-12)


def test_terminal_cutoff_is_max_carrier_at_bottom(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    for node in nodes:
        if node.t != 3:
            continue
        want = carriers.mg(0, node, 0)  # premium vanishes at the final period
        assert mech.phi.value(0, node) == pytest.approx(want, abs=1e-12)


def test_horizontal_values_agree_across_intervals(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    for node in nodes:
        if node.t > 3 or 0 not in node.active:
            continue
        mech.phi.value(0, node)  # populate the builder's horizontal flag
        vals = mech.phi.per_suboff_values(0, node)
        assert max(vals) - min(vals) <= 1e-9
    assert diags.horizontal_ok is True


def test_non_horizontal_profile_flagged_but_emits():
    # unequal wells: per-interval values differ, the builder flags and posts b=1
    slopes = (-4.0, -4.0, 8.0, -20.0, 28.0)  # wells at depth -1 and -1.5
    game = exo_game(slopes)
    mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(
        game, "horizontal", [0.25, 0.25, 0.75, 0.75])
    v = mech.phi.value(0, engine.root())
    assert v == pytest.approx(mech.phi.per_suboff_values(0, engine.root())[0], abs=1e-12)
    assert diags.horizontal_ok is False
    assert diags.horizontal_spread > 0.1


def test_indifference_solver_agrees_with_closed_form(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    solved = solve_phi_by_indifference(mech.rho, transforms, nodes, "horizontal")
    for node in nodes:
        if node.t > 3 or 0 not in node.active:
            continue
        assert solved[(0, node.key)] == pytest.approx(mech.phi.value(0, node), abs=1e-6)


def test_indifference_solver_knowledgeable(shelf_knowledgeable):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = shelf_knowledgeable
    solved = solve_phi_by_indifference(mech.rho, transforms, nodes, "knowledgeable")
    part = parts[(0, 1)]
    root = engine.root()
    for w in range(len(part.intervals())):
        for s in range(5):
            if part.global_interval_index(s) == w:
                assert solved[(0, root.key, w)] == pytest.approx(
                    mech.phi.value(0, root, s), abs=1e-6)
                break


# -- the class-keyed solve against the history-keyed reference --------------------


@pytest.mark.parametrize("fixture, variant", [
    ("monotone_ir", "ir"), ("doublewell", "horizontal"),
    ("shelf_knowledgeable", "knowledgeable"), ("pair_doublewell", "horizontal")])
def test_class_keyed_solve_equals_history_keyed_solve(fixture, variant, request):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = request.getfixturevalue(fixture)
    solved = solve_phi_by_indifference(mech.rho, transforms, nodes, variant)
    # one value per reachable cell, or per interval of it for the knowledgeable cutoff
    assert len(solved) == sum(len(parts[(i, node.t)].intervals()) if variant == "knowledgeable"
                              else 1 for i, node in live_cells(nodes))
    assert solved == history_keyed_solve(mech.rho, transforms, nodes, variant)


def _scenario(base, **changes):
    return {**json.loads(bundled_scenarios()[base].read_text()), **changes}


FEEDBACK = {"kind": "action_feedback", "params": {"beta": 0.25, "scale": 0.5}}
WELL_RIDGE = {"kind": "pw_slopes", "params": {"grid": {"lo": 0.0, "hi": 1.0, "points": 5},
                                              "slopes": [-4.0, -4.0, 20.0, -24.0, 36.0]}}
KNOWLEDGEABLE = {"variant": "knowledgeable", "boundaries": {"0": [[0.25, 0.25]]}}
SOLVE_SCENARIOS = {
    "subscription": _scenario("subscription"),
    "double-well": _scenario("double-well"),
    "pair-churn-t2": _scenario("pair-churn", horizon=2),
    "well-ridge": _scenario("double-well", rewards=WELL_RIDGE, mechanism=KNOWLEDGEABLE),
    "subscription-feedback": _scenario("subscription", dynamics=FEEDBACK),
    "pair-churn-t2-feedback": _scenario("pair-churn", horizon=2, dynamics=FEEDBACK),
    "well-ridge-feedback": _scenario("double-well", rewards=WELL_RIDGE,
                                     mechanism=KNOWLEDGEABLE, dynamics=FEEDBACK),
}


def _solve_by_signature(raw, solve):
    """(history window, solved values keyed by (agent, Node.signature()[, interval])).

    Every call synthesizes afresh, so each solve interns into a store of its own.
    """
    scenario = load_scenario(raw)
    game = scenario.build_game()
    partitions = None if scenario.variant == "ir" else scenario.build_partitions(game)
    mech, carriers, transforms, conj, _ = synthesize_mechanism(
        game, scenario.build_policy(), scenario.variant, partitions=partitions)
    store = carriers.walker.store
    nodes = carriers.walker.reachable_nodes(conj.plan())
    solved = solve(mech.rho, transforms, nodes, scenario.variant)
    return store.window, {(i, store.node(k).signature(), *w): v
                          for (i, k, *w), v in solved.items()}


@pytest.mark.parametrize("name", sorted(SOLVE_SCENARIOS))
def test_class_keyed_solve_equals_history_keyed_solve_on_registered_closures(name):
    raw = SOLVE_SCENARIOS[name]
    window, solved = _solve_by_signature(raw, solve_phi_by_indifference)
    assert window == (1 if name.endswith("feedback") else 0)
    assert solved and solved == _solve_by_signature(raw, history_keyed_solve)[1]


def test_solve_under_a_history_keyed_coupling_equals_history_keyed_solve(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    by_history = CallableCoupling(lambda i, node, actions: 0.01 * node.key)
    solved = solve_phi_by_indifference(by_history, transforms, nodes, "ir")
    assert solved == history_keyed_solve(by_history, transforms, nodes, "ir")
    assert len(solved) == sum(1 for _ in live_cells(nodes))


def test_eta_consistent_on_synthesized_instance(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    eta = posted_factor_eta(carriers, mech, nodes)
    assert eta.consistent
    assert eta.worst_spread <= 1e-9


def test_eta_root_convention(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    eta = posted_factor_eta(carriers, mech, nodes)
    root = engine.root()
    assert eta.values[(0, root.key)] == mech.phi.value(0, root)


def test_eta_inconsistency_flagged_across_generating_states(g1):
    """The posted factor cannot fit when generating states disagree.

    A coarse (non-injective) policy on the snapped persistent instance makes
    two states share one recorded action while their marginal-carrier and
    single-period-carrier gaps differ, so no single posted factor fits both.
    """
    from offmenu.mechanism import TaskPolicy

    coarse = TaskPolicy(lambda i, t, s, h: 0.0 if s < 0.5 else 1.0, "coarse")
    mech2, carriers2, transforms2, conj2, diags2 = synthesize_mechanism(g1, coarse, "ir")
    eng2 = Engine(g1, mech2, walker=carriers2.walker)
    nodes2 = eng2.walker.reachable_nodes(conj2.plan())
    eta2 = posted_factor_eta(carriers2, mech2, nodes2)
    assert not eta2.consistent
    assert eta2.witness is not None


def test_dcm_zero_passes_when_premium_and_peak_vanish(g2_ir):
    """Bottom-anchored carriers vanish at the bottom singleton: posted value 0."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    rep = check_dcm_zero(mech, transforms, nodes)
    assert rep.passed
    assert rep.worst == 0.0


def test_dcm_zero_fails_with_interior_off_region(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    rep = check_dcm_zero(mech, transforms, nodes)
    assert not rep.passed
    assert rep.worst == pytest.approx(1.0, abs=1e-9)  # well depth
    assert any(abs(v) > 0.5 for v in rep.residuals.values())


def test_dcm_zero_knowledgeable_mode(shelf_knowledgeable):
    """A per-interval cutoff is audited at every interval's target, not only sub-off ones."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = shelf_knowledgeable
    rep = check_dcm_zero(mech, transforms, nodes)
    # on-interval targets have strictly positive totals here
    assert not rep.passed
    ks = {k[2] for k in rep.residuals}
    assert len(ks) >= 2  # both interval families audited
