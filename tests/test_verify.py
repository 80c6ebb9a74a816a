"""Verdict suite: obedience, conservation, monotonicity, envelope, uniqueness."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from offmenu.carrier import CarrierTables
from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture, TreeWalker, live_cells
from offmenu.mechanism import CallableCoupling, CallableOffSwitch, Mechanism, TaskPolicy
from offmenu.model import DynamicsModel, GameError, RewardModel, ShockModel
from offmenu.run import run_scenario
from offmenu.synthesis import ir_partitions, posted_factor_eta, solve_phi_by_indifference
from offmenu.verify import (
    ENVELOPE_BOUND_FACTOR,
    check_constrained_monotone,
    check_doic,
    check_doic_mc,
    check_envelope,
    check_mso,
    check_payoff_flow,
    check_phi_uniqueness,
)

from conftest import (IDENTITY, TrapezoidCarriers, audit_full_deviations, make_game,
                      random_instance, synth)

NOQUIT = RegionConjecture({})


def test_doic_passes_on_synthesized_monotone(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    verdicts = check_doic(engine, conj, nodes, mode="ir")
    assert all(v.passed for v in verdicts)
    names = {v.name for v in verdicts}
    assert names == {"oaic", "raic"}


def _perturbed_coupling(engine):
    """Bumping the coupling at the middle action invites pretending to be it."""
    base = engine.mechanism.rho

    def bumped(i, node, actions):
        extra = 0.1 if abs(actions[i] - 0.5) < 1e-9 else 0.0
        return base.value(i, node, actions) + extra

    pert = Mechanism(IDENTITY, CallableCoupling(bumped), engine.mechanism.phi)
    return Engine(engine.game, pert, walker=engine.walker)


def _raised_off_switch(engine):
    phi = engine.mechanism.phi
    raised = Mechanism(IDENTITY, engine.mechanism.rho,
                       CallableOffSwitch(3, lambda i, node: phi.value(i, node) + 1.0))
    return Engine(engine.game, raised, walker=engine.walker)


def test_doic_raic_fails_with_perturbed_coupling(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    e2 = _perturbed_coupling(engine)
    verdicts = {v.name: v for v in check_doic(e2, conj, nodes, mode="ir")}
    assert not verdicts["raic"].passed
    assert verdicts["raic"].witness["deviation_slot"] == 2


def test_doic_oaic_fails_with_raised_off_switch(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    e2 = _raised_off_switch(engine)
    verdicts = {v.name: v for v in check_doic(e2, conj, nodes, mode="ir")}
    assert not verdicts["oaic"].passed
    assert verdicts["oaic"].witness is not None


def test_doic_mc_gates_at_the_tolerance_and_still_flags_planted_violations(monotone_ir):
    """Sampled margins pass at ``-tol``, like exact ones; the scenario tolerance
    forgives a rounding tie, not the perturbed fixtures."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    clean = {v.name: v for v in check_doic_mc(engine, conj, nodes, 200, 3, tol=1e-9)}
    assert all(v.passed and v.tolerance == 1e-9 for v in clean.values())
    assert clean["raic"].worst < 0.0   # a tie that a zero gate would fail
    raic = {v.name: v for v in check_doic_mc(_perturbed_coupling(engine), conj, nodes,
                                             200, 3, tol=1e-9)}["raic"]
    assert not raic.passed and raic.witness["deviation_slot"] == 2
    oaic = {v.name: v for v in check_doic_mc(_raised_off_switch(engine), conj, nodes,
                                             200, 3, tol=1e-9)}["oaic"]
    assert not oaic.passed and oaic.witness is not None


def test_doic_mc_samples_each_menu_slot_once_per_cell(monotone_ir, monkeypatch):
    """The obedient slot's draws are the cell's own (same seed, same paths),
    so a cell makes one sampler call per menu slot, not one more."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    calls = Counter()
    sample = engine.prospect_mc

    def counted(i, node, s, *args):
        calls[(i, node.key, s)] += 1
        return sample(i, node, s, *args)

    monkeypatch.setattr(engine, "prospect_mc", counted)
    check_doic_mc(engine, conj, nodes, 20, 3)
    want = {(i, node.key, s): len(engine.walker.menu(i, node).actions)
            for i, node in live_cells(nodes)
            for _, s in engine.walker.belief(i, node)}
    assert calls == want


@pytest.mark.parametrize("check", [
    lambda engine, conj, nodes, **kw: check_doic(engine, conj, nodes, **kw),
    lambda engine, conj, nodes, **kw: check_doic_mc(engine, conj, nodes, 20, 3, **kw)],
    ids=["exact", "mc"])
def test_doic_rejects_an_unknown_mode_and_off_mode_without_partitions(monotone_ir, check):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    with pytest.raises(GameError, match="unknown doic mode 'on'"):
        check(engine, conj, nodes, mode="on", partitions=ir_partitions(engine.game))
    with pytest.raises(GameError, match="unknown doic mode 'on'"):
        check(engine, conj, nodes, mode="on")
    with pytest.raises(GameError, match="off-region mode needs the partitions"):
        check(engine, conj, nodes, mode="off")


def test_doic_off_mode_sign_pattern(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    verdicts = check_doic(engine, conj, nodes, mode="off", partitions=parts)
    assert all(v.passed for v in verdicts)


def test_payoff_flow_passes_on_synthesized(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    eta = posted_factor_eta(carriers, mech, nodes)
    verdicts = {v.name: v for v in check_payoff_flow(engine, carriers, nodes, eta.values)}
    assert verdicts["flow-c1"].passed and verdicts["flow-c1"].worst == 0.0
    assert verdicts["flow-c2"].passed
    assert verdicts["flow-c3"].passed


def test_payoff_flow_c1_fails_with_halved_coupling(monotone_ir):
    """Scaling the coupling by one half breaks the conservation identity."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    base = mech.rho
    halved = Mechanism(IDENTITY,
                       CallableCoupling(lambda i, n, a: 0.5 * base.value(i, n, a)),
                       mech.phi)
    e2 = Engine(engine.game, halved, walker=engine.walker)
    eta = posted_factor_eta(carriers, mech, nodes).values
    verdicts = {v.name: v for v in check_payoff_flow(e2, carriers, nodes, eta)}
    assert not verdicts["flow-c1"].passed
    assert verdicts["flow-c1"].witness is not None


def test_cm_constant_policy_trivial(g1):
    walker = TreeWalker(g1, TaskPolicy(lambda i, t, s, h: 0.5, "constant"))
    carriers = CarrierTables(walker, NOQUIT)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    v = check_constrained_monotone(carriers, nodes)
    assert v.passed
    assert abs(v.worst) <= 1e-12  # both sides share the frozen integrand


def test_cm_equality_under_additive_separation(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    v = check_constrained_monotone(carriers, nodes)
    assert v.passed
    assert abs(v.worst) <= 1e-12


def test_cm_fails_for_reflecting_policy_against_increasing_response():
    """Assigning high actions to low states inverts every carrier gain."""
    rew = RewardModel(lambda i, t, s, a: s * a.get(i, 0.0),
                      lambda i, t, s, a: a.get(i, 0.0))
    dyn = DynamicsModel(lambda i, t, s, h, om: s + 0.0 * om, lambda *a: 1.0)
    game = make_game(shocks=ShockModel.uniform([0.0]), dynamics=dyn, rewards=rew)
    reflect = TaskPolicy(lambda i, t, s, h: 1.0 - s, "reflect")
    walker = TreeWalker(game, reflect)
    carriers = CarrierTables(walker, NOQUIT)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    v = check_constrained_monotone(carriers, nodes)
    assert not v.passed
    assert v.witness is not None


def test_envelope_within_bound_on_separable_instance(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    v = check_envelope(engine, carriers, conj, nodes)
    assert v.passed
    assert v.worst <= 1e-9  # linear value function: grid differences are exact


def test_envelope_holds_each_node_to_its_own_bound(monkeypatch):
    """A finite-difference shift of 2.0 at a node whose bound is 1.25 fails,
    although another node's bound (3.75) is larger."""
    r = run_scenario("g2-appendix", None, {"checks": ()})
    engine, carriers, conj, nodes = r.engine, r.carriers, r.conjecture, r.nodes
    clean = check_envelope(engine, carriers, conj, nodes)
    assert clean.passed and clean.worst == 0.0 and clean.tolerance == 3.75
    last = next(n for n in nodes if n.t == engine.game.horizon)
    grid = engine.game.grid(0, last.t)
    largest = max(abs(carriers.impulse_response(0, last, j, last.t)) for j in range(grid.points))
    assert ENVELOPE_BOUND_FACTOR * grid.step * largest == 1.25   # the node's own bound
    value_fn = engine.value_fn

    def tilted(i, node, j, x):
        return value_fn(i, node, j, x) + (2.0 * j * grid.step if node.key == last.key else 0.0)

    monkeypatch.setattr(engine, "value_fn", tilted)
    v = check_envelope(engine, carriers, conj, nodes)
    assert not v.passed
    assert v.worst == pytest.approx(2.0)
    assert v.tolerance == 3.75
    assert v.witness["node"] == last.key
    assert v.details == {"kink_cells": []}


def test_envelope_zero_for_state_independent_reward():
    rew = RewardModel(lambda i, t, s, a: a.get(i, 0.0), lambda i, t, s, a: 0.0)
    game = make_game(rewards=rew, shocks=ShockModel.uniform([0.0]),
                     dynamics=DynamicsModel(lambda i, t, s, h, om: s + 0.0 * om,
                                            lambda *a: 1.0))
    mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(game, "ir")
    v = check_envelope(engine, carriers, conj, nodes)
    assert v.passed
    assert v.worst == 0.0


def test_envelope_reports_kink_cells(monkeypatch):
    """A response that flips sign across periods moves the best cutoff."""
    ms = [1.0, -2.0, 1.0]
    rew = RewardModel(lambda i, t, s, a: ms[t - 1] * s, lambda i, t, s, a: ms[t - 1])
    dyn = DynamicsModel(lambda i, t, s, h, om: om, lambda *a: 0.0)
    game = make_game(shocks=ShockModel.uniform([0.0, 0.25, 0.5, 0.75, 1.0]),
                     dynamics=dyn, rewards=rew)
    mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(game, "ir")

    flip = {0: 1, 1: 1, 2: 3, 3: 3, 4: 3}
    stay_value = engine.stay_value

    def planted(i, node, idx, x):
        # the staying value as computed, at a cutoff that flips inside period 1
        return stay_value(i, node, idx, x)[0], flip[idx] if node.t == 1 else engine.game.horizon

    monkeypatch.setattr(engine, "stay_value", planted)
    v = check_envelope(engine, carriers, conj, nodes)
    assert v.details["kink_cells"], "expected flagged kink cells"


def test_mso_passes_on_additive_separation(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    v = check_mso(engine, conj, nodes)
    assert v.passed
    assert v.worst <= 1e-9


def test_mso_trivial_at_final_period(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    last = [n for n in nodes if n.t == 3]
    v = check_mso(engine, conj, last)
    assert v.passed and v.worst == 0.0


def test_mso_fails_with_sign_alternating_response():
    """Periods pulling opposite directions separate the two derivative orders."""
    ms = [1.0, -2.0, 1.0]
    cs = [0.0, 9.0, 0.0]  # large period-2 intercept keeps long plans optimal

    def u(i, t, s, a):
        return ms[t - 1] * s + cs[t - 1]

    rew = RewardModel(u, lambda i, t, s, a: ms[t - 1])
    dyn = DynamicsModel(lambda i, t, s, h, om: s + 0.0 * om, lambda *a: 1.0)
    game = make_game(shocks=ShockModel.uniform([0.0]), dynamics=dyn, rewards=rew)
    mech = Mechanism(IDENTITY, CallableCoupling(lambda i, n, a: 0.0),
                     CallableOffSwitch(3, lambda i, n: 0.0))
    engine = Engine(game, mech)
    nodes = engine.walker.reachable_nodes(NOQUIT.plan())
    v = check_mso(engine, NOQUIT, nodes)
    assert not v.passed
    assert v.witness is not None


def test_phi_uniqueness_pass_and_terminal_value(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    solved = solve_phi_by_indifference(mech.rho, transforms, nodes, "ir")
    closed = {}
    for node in nodes:
        if node.t > 3 or 0 not in node.active:
            continue
        closed[(0, node.key)] = mech.phi.value(0, node)
    v = check_phi_uniqueness(closed, solved)
    assert v.passed
    # at the final period the solved value equals the peak carrier at the point
    for node in nodes:
        if node.t == 3 and 0 in node.active:
            assert solved[(0, node.key)] == pytest.approx(
                carriers.mg(0, node, 0), abs=1e-9)


def test_phi_uniqueness_detects_disagreement():
    v = check_phi_uniqueness({(0, 0): 1.0}, {(0, 0): 1.5}, tol=1e-6)
    assert not v.passed
    assert v.witness == {"cell": [0, 0]}


def test_theorem_chain_horizontal_implies_off_doic(doublewell, shelf_knowledgeable):
    """Conservation + membership + horizontal cutoff together certify alignment."""
    for bundle in (doublewell, shelf_knowledgeable):
        mech, carriers, transforms, conj, engine, nodes, parts, diags = bundle
        eta = posted_factor_eta(carriers, mech, nodes)
        flow = check_payoff_flow(engine, carriers, nodes, eta.values)
        assert all(v.passed for v in flow)
        verdicts = check_doic(engine, conj, nodes, mode="off", partitions=parts)
        assert all(v.passed for v in verdicts)


def test_phi_uniqueness_scope_is_per_coupling(doublewell):
    """Distinct couplings legitimately solve to distinct posted values.

    The uniqueness claim fixes the task and coupling policies; swapping the
    coupling moves the staying prospects, so the indifference level moves
    with it and no cross-coupling equality is asserted.
    """
    from offmenu.mechanism import ZeroCoupling
    from offmenu.synthesis import solve_phi_by_indifference

    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    with_c1 = solve_phi_by_indifference(mech.rho, transforms, nodes, "horizontal")
    with_zero = solve_phi_by_indifference(ZeroCoupling(), transforms, nodes, "horizontal")
    root = engine.root()
    assert with_c1[(0, root.key)] != pytest.approx(with_zero[(0, root.key)], abs=1e-9)


def test_off_doic_with_coupled_rewards_two_agents():
    """Spillovers from the other agent's action are absorbed by the coupling.

    The expected-coupling representative conditions on the others' obedient
    resolutions, so cross-agent reward terms cancel out of the on-rent
    pattern and the synthesized pair instance still verifies exactly.
    """
    from offmenu.model import DynamicsModel, ShockModel
    from offmenu.closures import piecewise_quadratic
    from offmenu.model import Grid, RewardModel
    from conftest import synth

    grid = Grid(0.0, 1.0, 5)
    shape = piecewise_quadratic(grid, (-4.0, -4.0, 8.0, -12.0, 20.0))

    def u(i, t, s, a):
        other = sum(v for k, v in a.items() if k != i)
        return shape.value(s) + 0.2 * other

    game = make_game(n=2, T=2,
                     shocks=ShockModel.uniform([0.0, 0.25, 0.5, 0.75, 1.0]),
                     dynamics=DynamicsModel(lambda i, t, s, h, om: om,
                                            lambda i, t, s, h, om: 0.0),
                     rewards=RewardModel(u, lambda i, t, s, a: shape.deriv(s)))
    mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(
        game, "horizontal", [0.25, 0.25, 0.75, 0.75])
    verdicts = check_doic(engine, conj, nodes, mode="off", partitions=parts)
    assert all(v.passed for v in verdicts)
    worst = 0.0
    for node in nodes:
        if node.t > 2:
            continue
        for i in node.active:
            for s in range(5):
                lam = engine.payoff_to_go(i, node, s, conj)
                rep = transforms.total(i, node, transforms.project(i, node, s))
                worst = max(worst, abs(lam - rep))
    assert worst <= 1e-9


def test_full_deviation_audit_passes_on_indifference_instance(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    regions = conj.regions
    v = audit_full_deviations(engine, conj, nodes, regions)
    assert v.passed
    assert v.worst <= 1e-9


def test_full_deviation_audit_catches_contingent_plans(shelf):
    """With strictly negative on-rent inside the off region, re-planned quitting
    beats the never-quit directive; the audit surfaces the gap."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = shelf
    v = audit_full_deviations(engine, conj, nodes, directive_regions={})
    assert not v.passed
    assert v.worst > 1e-6
    assert v.witness is not None


def test_doublewell_frozen_hand_computed_values(doublewell):
    """Frozen constants derived by hand for the double-well instance.

    Rewards at nodes are [0, -1, -.5, -1, 0] (exact antiderivative of the
    declared slopes), dynamics are an exogenous uniform draw over the grid.
    Single-period response = reward slope, so the peak carrier at the root
    equals the reward minus its bottom value; both wells project to
    themselves, so the premium vanishes and the posted value is the well
    depth -1.  First-hit quitting removes 0.4 of the mass each period.
    """
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    root = engine.root()
    mg = [carriers.mg(0, root, s) for s in range(5)]
    assert mg == pytest.approx([0.0, -1.0, -0.5, -1.0, 0.0], abs=1e-12)
    assert mech.phi.value(0, root) == pytest.approx(-1.0, abs=1e-12)
    rents = [engine.on_rent(0, root, s, conj) for s in range(5)]
    assert rents == pytest.approx([1.0, 0.0, 0.5, 0.0, 1.0], abs=1e-12)
    chi = engine.quit_distribution(0, root, conj.regions)
    assert chi[1] == pytest.approx(0.4, abs=1e-12)
    assert chi[2] == pytest.approx(0.6 * 0.4, abs=1e-12)
    assert chi[3] == pytest.approx(0.36 * 0.4, abs=1e-12)
    assert chi[4] == pytest.approx(0.6 ** 3, abs=1e-12)


# -- flow-c3 reference: the terminal walks recomputed on every call ----------


def _walk_unmemoized(engine, i, node, s, L, plan, a_pos, leaf_fn):
    if node.t == engine.game.horizon:   # every leaf past the horizon pays 0
        return 0.0
    menu = engine.walker.menu(i, node)
    pos = a_pos if a_pos is not None else menu.action_index_of_state[s]
    a_own = menu.actions[pos]
    a_idx = engine.game.action_grids[(i, node.t)].index_of(a_own, tol=1e-6)
    total = 0.0
    for br in engine.walker.other_branches(i, node, plan):
        child = engine.walker.child_after(i, node, s, a_idx, br)
        for pp, s2 in engine.walker.own_kernel(i, child, s):
            if node.t == L:
                total += br.prob * pp * leaf_fn(child, s2)
            else:
                total += br.prob * pp * _walk_unmemoized(engine, i, child, s2, L, plan, None,
                                                         leaf_fn)
    return total


def _terminal_unmemoized(engine, x, i, node, s, L, a_pos, leaf_fn):
    total = 0.0
    for p, plan in x.plans(i, node):
        total += p * _walk_unmemoized(engine, i, node, s, L, plan, a_pos, leaf_fn)
    return total


def _flow_c3_cells(engine, nodes):
    """(agent, node, state, deviation slot, pretended state, cutoff) in check order."""
    game = engine.game
    for node in nodes:
        for i in node.active:
            menu = engine.walker.menu(i, node)
            for s in range(game.grid(i, node.t).points):
                for pos in range(len(menu.actions)):
                    for L in range(node.t, game.horizon + 1):
                        yield i, node, s, pos, menu.generating_states[pos][-1], L


def _worst_c3(carriers, cells, rhs_of):
    """(worst margin, witness) of carrier gains against ``rhs_of(cell)``."""
    worst, witness = math.inf, None
    for i, node, s, pos, s_hat, L in cells:
        lhs = carriers.carrier(i, node, s_hat, L) - carriers.carrier(i, node, s, L)
        margin = rhs_of(i, node, s, pos, s_hat, L) - lhs
        if margin < worst:
            worst = margin
            if worst < -1e-9:
                witness = {"agent": i, "period": node.t, "node": node.key,
                           "state": s, "pretense": s_hat, "cutoff": L}
    return worst, witness


def _flow_c3_unmemoized(engine, carriers, eta, nodes):
    """(worst margin, witness) of flow-c3 with nothing kept between cells: one
    walk per cutoff, the deviation's off-switch and posted factor in one leaf."""
    x, phi = carriers.conjecture, engine.mechanism.phi

    def rhs(i, node, s, pos, s_hat, L):
        hat = engine.prospects(i, node, s_hat, x)[L - node.t] - _terminal_unmemoized(
            engine, x, i, node, s_hat, L, None, lambda child, s2: phi.value(i, child, s2))
        end = _terminal_unmemoized(
            engine, x, i, node, s, L, pos,
            lambda child, s2: phi.value(i, child, s2) - eta.get((i, child.key), 0.0))
        return hat - (engine.slot_prospects(i, node, s, x)[pos][L - node.t] - end)

    return _worst_c3(carriers, _flow_c3_cells(engine, nodes), rhs)


def _lambda_unmemoized(engine, x, i, node, s, L, a_pos):
    """Prospect stripped of the current expected coupling and the terminal off-switch."""
    g = (engine.prospects(i, node, s, x) if a_pos is None
         else engine.slot_prospects(i, node, s, x)[a_pos])[L - node.t]
    phi_term = _terminal_unmemoized(engine, x, i, node, s, L, a_pos,
                                    lambda child, s2: engine.mechanism.phi.value(i, child, s2))
    menu = engine.walker.menu(i, node)
    a_own = menu.actions[a_pos if a_pos is not None else menu.action_index_of_state[s]]
    erho = 0.0
    for p, plan in x.plans(i, node):
        for br in engine.walker.other_branches(i, node, plan):
            actions = dict(br.actions)
            actions[i] = a_own
            erho += p * br.prob * engine.mechanism.rho.value(i, node, actions)
    return g - phi_term - erho


def _flow_c3_stripped_prospects(engine, carriers, eta, nodes):
    """(worst margin, witness) of flow-c3 as the gap of the two stripped
    prospects, each with its own expected coupling, net of E[eta]."""
    x = carriers.conjecture

    def rhs(i, node, s, pos, s_hat, L):
        return (_lambda_unmemoized(engine, x, i, node, s_hat, L, None)
                - _lambda_unmemoized(engine, x, i, node, s, L, pos)
                - _terminal_unmemoized(engine, x, i, node, s, L, pos,
                                       lambda child, s2: eta.get((i, child.key), 0.0)))

    return _worst_c3(carriers, _flow_c3_cells(engine, nodes), rhs)


def _flow_setup(game, mech, conj, carrier_cls):
    walker = TreeWalker(game, IDENTITY)
    carriers = carrier_cls(walker, conj)
    engine = Engine(game, mech, walker=walker)
    nodes = walker.reachable_nodes(conj.plan())
    eta = posted_factor_eta(carriers, mech, nodes).values
    return engine, carriers, nodes, eta


@pytest.mark.parametrize("seed", range(10))
def test_payoff_flow_equals_unmemoized_reference_on_random_instances(seed):
    game, mech, conj = random_instance(np.random.default_rng(seed))
    engine, carriers, nodes, eta = _flow_setup(game, mech, conj, CarrierTables)
    ref_engine, ref_carriers, ref_nodes, ref_eta = _flow_setup(game, mech, conj,
                                                               TrapezoidCarriers)
    assert eta == ref_eta
    got = check_payoff_flow(engine, carriers, nodes, eta)
    want = check_payoff_flow(ref_engine, ref_carriers, ref_nodes, ref_eta)
    assert [v.name for v in got] == ["flow-c1", "flow-c2", "flow-c3"]
    assert [v.worst for v in got[:2]] == [v.worst for v in want[:2]]
    assert [v.witness for v in got[:2]] == [v.witness for v in want[:2]]
    worst, witness = _flow_c3_unmemoized(ref_engine, ref_carriers, ref_eta, ref_nodes)
    assert got[2].worst == worst
    assert got[2].witness == witness


def test_payoff_flow_memo_not_shared_across_eta(monotone_ir):
    """The flow-c3 memo lives for one call: a second eta gets its own walks."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    eta = posted_factor_eta(carriers, mech, nodes).values
    shifted = {k: v + 0.25 * k[1] for k, v in eta.items()}
    first = check_payoff_flow(engine, carriers, nodes, eta)[2]
    second = check_payoff_flow(engine, carriers, nodes, shifted)[2]
    again = check_payoff_flow(engine, carriers, nodes, eta)[2]
    assert second.worst != first.worst
    assert (second.worst, second.witness) == _flow_c3_unmemoized(engine, carriers, shifted, nodes)
    assert (again.worst, again.witness) == (first.worst, first.witness)


@pytest.mark.parametrize("seed", range(10))
def test_flow_c3_keeps_the_stripped_prospect_verdict_on_random_instances(seed):
    """The expected couplings cancel: leaving them out moves flow-c3 by rounding
    only.  Witnesses are not compared: rounding-level ties may pick another cell."""
    game, mech, conj = random_instance(np.random.default_rng(seed))
    engine, carriers, nodes, eta = _flow_setup(game, mech, conj, CarrierTables)
    got = check_payoff_flow(engine, carriers, nodes, eta)[2]
    worst, _ = _flow_c3_stripped_prospects(engine, carriers, eta, nodes)
    assert got.passed == (worst >= -1e-9)
    assert abs(got.worst - worst) <= 1e-12


def _bundled_flow(name):
    result = run_scenario(name, None, {"checks": ("payoff_flow",)})
    engine, carriers, nodes = result.engine, result.carriers, result.nodes
    eta = posted_factor_eta(carriers, engine.mechanism, nodes).values
    return result, engine, carriers, nodes, eta


@pytest.mark.parametrize("name", ["g2-appendix", "subscription", "double-well"])
def test_flow_c3_keeps_the_stripped_prospect_verdict_on_bundled_scenarios(name):
    result, engine, carriers, nodes, eta = _bundled_flow(name)
    got = {v["name"]: v for v in result.report["verdicts"]}["flow-c3"]
    worst, _ = _flow_c3_stripped_prospects(engine, carriers, eta, nodes)
    assert got["passed"] == (worst >= -1e-9)
    assert abs(got["worst"] - worst) <= 1e-12


@pytest.mark.parametrize("name", ["g2-appendix", "subscription"])
def test_flow_c3_pins_the_sign_of_the_posted_factor(name):
    """The posted factor enters the deviation's leaf with a minus sign: raising
    every emitted eta by 1e-3 breaks the inequality by 1e-3, lowering it does not."""
    _, engine, carriers, nodes, eta = _bundled_flow(name)
    raised = check_payoff_flow(engine, carriers, nodes,
                               {k: v + 1e-3 for k, v in eta.items()})[2]
    lowered = check_payoff_flow(engine, carriers, nodes,
                                {k: v - 1e-3 for k, v in eta.items()})[2]
    assert not raised.passed
    assert raised.worst == pytest.approx(-1e-3, abs=1e-9)
    assert lowered.passed


def test_flow_c2_checks_every_parent_of_a_node():
    """A constant policy reveals nothing, so a node's record does not say which
    previous state it came from: flow-c2 must hold along every parent edge."""
    result = run_scenario("subscription", None,
                          {"policy_kind": "constant", "policy_params": {"value": 0.5},
                           "checks": ("payoff_flow",)})
    engine, carriers, nodes = result.engine, result.carriers, result.nodes
    eta = posted_factor_eta(carriers, engine.mechanism, nodes)
    assert check_payoff_flow(engine, carriers, nodes, eta.values)[1].passed
    by_record = {}
    for n in nodes:
        by_record.setdefault((n.t, n.events, n.active), []).append(n)
    multi = []
    for n in nodes:
        if n.t > 1:
            rec = n.events[-1]
            active = tuple(sorted(set(rec.participants) | set(rec.quitters)))
            ps = by_record.get((n.t - 1, n.events[:-1], active), [])
            if len(ps) > 1:
                multi.append(ps)
    assert multi
    second = max(multi[0], key=lambda p: p.key)  # never the first parent
    carrier = carriers.carrier

    def shifted(i, node, s_idx, L):
        return carrier(i, node, s_idx, L) + (1.0 if node is second else 0.0)

    carriers.carrier = shifted  # marginal carriers stay as the run memoized them
    c2 = check_payoff_flow(engine, carriers, nodes, eta.values)[1]
    assert c2.name == "flow-c2" and not c2.passed
    assert c2.witness["parent"] == second.key
