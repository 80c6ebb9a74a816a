"""Equilibrium engine: prospects, on-rents, best responses, chi, fixed points."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from offmenu.equilibrium import Engine
from offmenu.histories import FixedPlan, ProfileConjecture, RegionConjecture, live_cells
from offmenu.mechanism import (
    CallableCoupling,
    CallableOffSwitch,
    Mechanism,
    ZeroCoupling,
    ZeroOffSwitch,
)
from offmenu.model import DynamicsModel, GameError, RewardModel, ShockModel
from offmenu.oracle import TreeOracle
from offmenu.run import run_scenario
from offmenu.scenario import bundled_scenarios, load_scenario

from conftest import IDENTITY, PerPlanIndexEngine, make_game, random_instance

NOQUIT = RegionConjecture({})


def test_prospect_terminal_plan_has_no_off_switch_term(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    root = engine.root()
    # perturbing every post-horizon off-switch value is impossible by the
    # terminal convention: the full-horizon plan never pays one
    for s in range(5):
        g_full = engine.prospect(0, root, s, 3, conj)
        oracle = TreeOracle(engine.game, mech, store=engine.store)
        assert g_full == pytest.approx(
            oracle.prospect(0, root, s, 3, conj.plans(0, root)), abs=1e-12)


def test_prospect_single_period_at_horizon(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    game = engine.game
    last = [n for n in nodes if n.t == 3][0]
    for s in range(5):
        menu = engine.walker.menu(0, last)
        a = menu.actions[menu.action_index_of_state[s]]
        z = game.reward(0, 3, game.grid(0, 3).value(s), {0: a}) + mech.rho.value(0, last, {0: a})
        assert engine.prospect(0, last, s, 3, conj) == pytest.approx(z, abs=1e-12)


def test_prospect_matches_oracle_with_deviation(g1):
    mech = Mechanism(IDENTITY, ZeroCoupling(),
                     CallableOffSwitch(3, lambda i, node: 0.1 * node.t))
    engine = Engine(g1, mech)
    oracle = TreeOracle(g1, mech, store=engine.store)
    root = engine.root()
    plans = NOQUIT.plans(0, root)
    for s in range(5):
        for pos in (0, 2, 4):
            for L in (1, 2, 3):
                got = engine.prospect(0, root, s, L, NOQUIT, pos)
                want = oracle.prospect(0, root, s, L, plans,
                                       engine.walker.menu(0, root).actions[pos])
                assert got == pytest.approx(want, abs=1e-10)


def _assert_prospect_vectors_equal_per_plan_index(engine, x, nodes) -> int:
    """Every plan index of every cell and first action, bit for bit; the cell count.

    Each first action is read both alone and from the cell's row of every
    menu slot, and the row's staying values match the reference's per-slot
    ``stay_value``.  The reference shares the engine's walker, so both read
    one interning order (a posted value may depend on the node key).
    """
    ref = PerPlanIndexEngine(engine.game, engine.mechanism, walker=engine.walker)
    cells = 0
    for i, node in live_cells(nodes):
        slots = range(len(engine.walker.menu(i, node).actions))
        for s in range(engine.game.grid(i, node.t).points):
            for a_pos in (None, *slots):
                vec = engine.prospects(i, node, s, x, a_pos)
                want = ref.prospects(i, node, s, x, a_pos)
                assert [v.hex() for v in vec] == [v.hex() for v in want], (i, node.key, s, a_pos)
                assert [engine.prospect(i, node, s, L, x, a_pos)
                        for L in range(node.t, engine.game.horizon + 1)] == list(vec)
                if a_pos is not None:
                    row = engine.slot_prospects(i, node, s, x)[a_pos]
                    assert [v.hex() for v in row] == [v.hex() for v in want], (i, node.key, s,
                                                                                a_pos)
                cells += 1
            assert engine.stay_values(i, node, s, x) == [ref.stay_value(i, node, s, x, pos)
                                                         for pos in slots]
    return cells


def _random_marginals(rng, game):
    marginals = {}
    for j in game.agents():
        w = rng.uniform(0.1, 1.0, size=game.horizon + 1)
        marginals[j] = {k: float(v) for k, v in zip(range(1, game.horizon + 2), w / w.sum())}
    return marginals


@pytest.mark.parametrize("seed", range(10))
def test_prospect_vectors_equal_per_plan_index_recursion_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    game, mech, conj = random_instance(rng)
    engine = Engine(game, mech)
    nodes = engine.walker.reachable_nodes(conj.plan())
    for x in (conj, ProfileConjecture.from_marginals(_random_marginals(rng, game))):
        assert _assert_prospect_vectors_equal_per_plan_index(engine, x, nodes) > 0


def test_prospect_vectors_equal_per_plan_index_recursion_on_a_history_keyed_mechanism():
    """Two agents whose coupling and posted values read the node key, so the
    prospect table keys on full histories, not on Markov classes."""
    scenario = load_scenario({**json.loads(bundled_scenarios()["pair-churn"].read_text()),
                              "horizon": 2})
    game = scenario.build_game()
    mech = Mechanism(scenario.build_policy(),
                     CallableCoupling(lambda i, n, a: 0.1 * a[i] + 0.01 * (n.key % 3)),
                     CallableOffSwitch(game.horizon, lambda i, n: 0.05 * (n.key % 5)))
    engine = Engine(game, mech)
    assert not engine._markov
    conj = RegionConjecture({(1, 1): frozenset({0}), (0, 2): frozenset({1})})
    nodes = engine.walker.reachable_nodes(conj.plan())
    marginals = _random_marginals(np.random.default_rng(5), game)
    for x in (conj, ProfileConjecture.from_marginals(marginals)):
        assert _assert_prospect_vectors_equal_per_plan_index(engine, x, nodes) > 0


def _feedback(base: str, **changes) -> dict:
    raw = json.loads(bundled_scenarios()[base].read_text())
    return {**raw, **changes, "samples": 300,
            "dynamics": {"kind": "action_feedback", "params": {"beta": 0.25, "scale": 0.5}}}


@pytest.mark.parametrize("raw", [_feedback("subscription"), _feedback("pair-churn", horizon=2)],
                         ids=["one-agent", "two-agents"])
def test_prospect_vectors_equal_per_plan_index_recursion_on_a_window_one_game(raw):
    result = run_scenario(load_scenario(raw), None, {"checks": ("doic",)})
    engine = result.engine
    assert engine.store.window == 1
    assert _assert_prospect_vectors_equal_per_plan_index(engine, result.conjecture,
                                                         result.nodes) > 0


# the store order after the fill below, as the fill one step per slot gave it
SEVERAL_PLAN_FILL_NODES = "78610770bccd50db38476149afdf4322d0dc52b4c3fe84966eac28f397f57121"


def test_rows_of_several_plans_match_the_per_plan_index_recursion_slot_by_slot():
    """Two agents, several branches at period T, and a conjecture of several
    plans built as ``om_fixed_point`` builds it: the rows filled at the first
    read of each cell match the per-L reference in every slot, and the nodes
    their deviations open intern in the order pinned above.  The reward
    reads the other agent's action, so the flows differ across branches and
    their order shows in the sums."""
    raw = json.loads(bundled_scenarios()["pair-churn"].read_text())
    raw["rewards"]["params"]["spill"] = 0.3
    scenario = load_scenario({**raw, "horizon": 2})
    result = run_scenario(scenario, None, {"checks": ()})
    engine, game = result.engine, result.engine.game
    x = ProfileConjecture.from_marginals({0: {1: 0.25, 2: 0.25, 3: 0.5},
                                          1: {1: 0.125, 2: 0.5, 3: 0.375}})
    cells = [(i, node, s) for i, node in live_cells(result.nodes)
             for s in range(game.grid(i, node.t).points)]
    for i, node, s in cells:
        engine.slot_prospects(i, node, s, x)
    store = engine.store
    sigs = "\n".join(store.node(k).signature() for k in range(len(store)))
    assert hashlib.sha256(sigs.encode()).hexdigest() == SEVERAL_PLAN_FILL_NODES
    ref = PerPlanIndexEngine(game, engine.mechanism, walker=engine.walker)
    several = branched = 0
    for i, node, s in cells:
        plans = {engine.walker.plan_id(plan): plan for _, plan in x.plans(i, node)}
        several += len(plans) > 1
        for pid, plan in plans.items():
            row = engine._rows[(i, engine.memo_key(node), s, pid)]
            for pos, vec in enumerate(row):
                want = [ref._g_at(i, node, s, L, pos, plan)
                        for L in range(node.t, game.horizon + 1)]
                assert [v.hex() for v in vec] == [v.hex() for v in want], (i, node.key, s, pos)
            if node.t == game.horizon:
                a = engine.walker.own_action(i, node, s)[0]
                branched += len(list(engine.walker.own_branches(i, node, ((1.0, plan),), a))) > 1
    assert several > 0 and branched > 0


@pytest.mark.parametrize("obedient_first", [True, False])
def test_a_deviation_to_the_obedient_slot_shares_the_obedient_entry(g1, obedient_first):
    """A cell's row holds its obedient entry at the obedient slot, in either
    read order, and the obedient slot's flows are computed once."""
    mech = Mechanism(IDENTITY, ZeroCoupling(), CallableOffSwitch(3, lambda i, node: 0.1 * node.t))
    engine = Engine(g1, mech)
    flows = []
    flow = engine.flow
    engine.flow = lambda *args: flows.append(args) or flow(*args)
    root, s = engine.root(), 2
    pos = engine.walker.menu(0, root).action_index_of_state[s]
    if obedient_first:
        vec = engine.prospects(0, root, s, NOQUIT)
        computed = len(flows)
        row = engine.slot_prospects(0, root, s, NOQUIT)
    else:
        row = engine.slot_prospects(0, root, s, NOQUIT)
        computed = len(flows)
        vec = engine.prospects(0, root, s, NOQUIT)
        assert len(flows) == computed   # the row filled the obedient entry
    pid = engine.walker.plan_id(NOQUIT.plan())
    key = (0, engine.memo_key(root), s, pid)
    assert row[pos] is engine._g[key] is vec
    assert engine.prospects(0, root, s, NOQUIT, pos) is vec
    assert engine._rows[key] is row
    # one agent: one branch per slot, so the obedient slot's root flow is computed once
    assert [a[4] for a in flows if a[1] is root].count(pos) == 1
    assert len({a[4] for a in flows if a[1] is root}) == len(row)
    if obedient_first:
        assert len(flows) > computed   # the row computed the deviation slots only


def test_on_rent_zero_at_bottom_state(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    for node in nodes:
        assert engine.on_rent(0, node, 0, conj) == pytest.approx(0.0, abs=1e-12)


def test_on_rent_affine_in_posted_value(g1):
    base = Mechanism(IDENTITY, ZeroCoupling(),
                     CallableOffSwitch(3, lambda i, node: 0.25))
    lowered = Mechanism(IDENTITY, ZeroCoupling(),
                        CallableOffSwitch(3, lambda i, node: 0.25 - 1.0 if node.t == 1 else 0.25))
    e1, e2 = Engine(g1, base), Engine(g1, lowered)
    z1 = e1.on_rent(0, e1.root(), 2, NOQUIT)
    z2 = e2.on_rent(0, e2.root(), 2, NOQUIT)
    assert z2 - z1 == pytest.approx(1.0, abs=1e-12)


def test_best_response_dominant_off_switch(g1):
    # a large posted value in the current period only: quitting now dominates
    mech = Mechanism(IDENTITY, ZeroCoupling(),
                     CallableOffSwitch(3, lambda i, node: 50.0 if node.t == 1 else 0.0))
    engine = Engine(g1, mech)
    br = engine.best_response(0, engine.root(), 4, NOQUIT)
    assert br.om == 1
    assert br.quit_period == 1


def test_best_response_zero_rent_follows_directive(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    # bottom state has exactly zero on-rent; the ir directive says stay
    br = engine.best_response(0, engine.root(), 0, conj)
    assert br.om == 0
    quitting = Engine(engine.game, mech, walker=engine.walker,
                      directive_quit=lambda i, t, s: s == 0)
    br2 = quitting.best_response(0, engine.root(), 0, conj)
    assert br2.om == 1


def test_best_response_obedient_on_synthesized_off_instance(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    oracle = TreeOracle(engine.game, mech, store=engine.store)
    for node in nodes[:8]:
        for s in range(5):
            br = engine.best_response(0, node, s, conj)
            in_off = s in parts[(0, node.t)].off_indices
            assert br.om == (1 if in_off else 0)
            if br.om == 0:
                menu = engine.walker.menu(0, node)
                assert br.action == menu.actions[menu.action_index_of_state[s]]
            got = oracle.best_response(0, node, s, conj.plans(0, node),
                                       directive_quit=lambda i, t, sx: sx in parts[(0, t)].off_indices)
            assert (br.om, br.action, br.quit_period) == got[:3]


def test_chi_empty_off_region_all_mass_at_never(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    chi = engine.quit_distribution(0, engine.root(), {})
    assert chi == {4: 1.0}


def test_chi_whole_space_immediate_quit(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    regions = {(0, t): frozenset(range(5)) for t in (1, 2, 3)}
    chi = engine.quit_distribution(0, engine.root(), regions)
    assert chi[1] == pytest.approx(1.0, abs=1e-12)


def test_chi_first_hit_matches_oracle_and_normalizes(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    chi = engine.quit_distribution(0, engine.root(), conj.regions)
    oracle = TreeOracle(engine.game, mech, store=engine.store)
    want = oracle.first_hit_distribution(0, engine.root(), conj.regions)
    assert sum(chi.values()) == pytest.approx(1.0, abs=1e-12)
    for k in set(chi) | set(want):
        assert chi.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-12)


def test_chi_singleton_off_region_explicit(g1):
    mech = Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3))
    engine = Engine(g1, mech)
    regions = {(0, t): frozenset({0}) for t in (1, 2, 3)}
    chi = engine.quit_distribution(0, engine.root(), regions)
    # period 1: uniform initial means 1/5 mass at the bottom node
    assert chi[1] == pytest.approx(0.2, abs=1e-12)
    assert sum(chi.values()) == pytest.approx(1.0, abs=1e-12)


def test_fixed_point_single_agent_immediate(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    root = engine.root()
    chi = {0: engine.quit_distribution(0, root, {})}
    fp = engine.om_fixed_point(root, chi)
    assert fp.converged and fp.iterations == 1
    assert fp.residual <= 1e-12


def test_fixed_point_symmetric_two_agent(pair_doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = pair_doublewell
    root = engine.root()
    chi = {i: engine.quit_distribution(i, root, conj.regions) for i in (0, 1)}
    fp = engine.om_fixed_point(root, chi)
    assert fp.converged
    assert fp.residual <= 1e-8
    assert fp.marginals[0] == fp.marginals[1]
    # the necessary alignment is on the immediate quit probability; later
    # components of chi describe re-planned behavior, not period-1 plans
    for i in (0, 1):
        assert fp.marginals[i][1] == pytest.approx(chi[i][1], abs=1e-8)


def test_fixed_point_converges_from_uniform_start(pair_doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = pair_doublewell
    root = engine.root()
    start = {i: {k: 0.25 for k in (1, 2, 3, 4)} for i in (0, 1)}
    fp = engine.om_fixed_point(root, start)
    assert fp.converged
    chi = engine.quit_distribution(0, root, conj.regions)
    assert fp.marginals[0][1] == pytest.approx(chi[1], abs=1e-6)


def test_plan_ids_follow_signatures_across_conjecture_rebuilds():
    """A plan built at a freed plan's address must not inherit that plan's id."""
    game = make_game(n=3, T=2)
    walker = Engine(game, Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(2))).walker
    root = walker.store.root()
    expected: dict[tuple, int] = {}
    for k in range(300):
        # quit periods cycle, so successive conjectures hold plans with new signatures
        marginals = {j: {1 + (k + j) % 3: 0.5, 1 + (k + 2 * j + 1) % 3: 0.5} for j in range(3)}
        conj = ProfileConjecture.from_marginals(marginals)
        for i in range(3):
            for _, plan in conj.plans(i, root):
                sig = plan.signature()
                assert walker.plan_id(plan) == expected.setdefault(sig, len(expected)), (k, sig)
        del conj  # the next conjecture's plans may reuse these addresses


def test_plan_id_reads_a_signature_once_per_plan_and_walker(monkeypatch):
    calls = []
    signature = FixedPlan.signature
    monkeypatch.setattr(FixedPlan, "signature", lambda self: calls.append(self) or signature(self))
    game = make_game(n=2, T=2)
    mech = Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(2))
    w1, w2 = Engine(game, mech).walker, Engine(game, mech).walker
    a, b = FixedPlan({1: 2}), FixedPlan({1: 2})
    assert [w1.plan_id(a), w1.plan_id(a), w1.plan_id(b), w1.plan_id(b)] == [0, 0, 0, 0]
    assert len(calls) == 2 and calls[0] is a and calls[1] is b   # one read per plan
    # another walker numbers plans from its own table, and the first keeps its ids
    assert w2.plan_id(FixedPlan({0: 1})) == 0 and w2.plan_id(a) == 1
    assert w1.plan_id(a) == 0 and w1.plan_id(FixedPlan({0: 1})) == 1


def test_simulate_deterministic_single_trajectory(g2):
    mech = Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3))
    engine = Engine(g2, mech)
    game = g2
    # point-mass initial state: identity dynamics repeat one trajectory
    init = {0: (0.0, 0.0, 1.0, 0.0, 0.0)}
    fixed = make_game(shocks={0: ShockModel.uniform([0.0])},
                      dynamics=DynamicsModel(lambda i, t, s, h, om: s + 0 * om,
                                             lambda *a: 1.0),
                      rewards=RewardModel(lambda i, t, s, a: s, lambda *a: 1.0),
                      initial=init)
    eng = Engine(fixed, Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3)))
    out = eng.simulate(64, seed=9)
    assert out.never_quit_freq[0] == 1.0
    assert out.state_hist[(0, 1, 2)] == 64
    assert out.state_hist[(0, 3, 2)] == 64
    assert out.mean_payoff[0] == pytest.approx(1.5, abs=1e-12)


def test_simulate_same_seed_identical(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    a = engine.simulate(500, seed=123)
    b = engine.simulate(500, seed=123)
    assert a == b
    c = engine.simulate(500, seed=124)
    assert a != c


@pytest.mark.parametrize("n_paths", [0, -3])
def test_simulate_rejects_fewer_than_one_path(doublewell, n_paths):
    engine = doublewell[4]
    with pytest.raises(GameError, match=f"samples must be at least 1, got {n_paths}"):
        engine.simulate(n_paths, seed=1)


def test_simulate_quit_frequencies_within_3_sigma(pair_doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = pair_doublewell
    n = 10_000
    out = engine.simulate(n, seed=77)
    for i in (0, 1):
        chi = engine.quit_distribution(i, engine.root(), conj.regions)
        for k in (1, 2, 3):
            p = chi.get(k, 0.0)
            emp = out.quit_freq.get((i, k), 0.0)
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) <= 3 * sigma + 1e-12, (i, k, emp, p)


def test_transform_representation_identity(doublewell, monotone_ir, pair_doublewell):
    # holds on indifference-region instances: the off region earns exactly the
    # posted value, so committed plans and re-planned behavior tie
    for bundle in (doublewell, monotone_ir, pair_doublewell):
        mech, carriers, transforms, conj, engine, nodes, parts, diags = bundle
        for node in nodes:
            for s in range(5):
                lam = engine.payoff_to_go(0, node, s, conj)
                rep = transforms.total(0, node, transforms.project(0, node, s))
                assert lam == pytest.approx(rep, abs=1e-9)


def test_dp_recursion_equals_plan_semantics_on_synthesized(doublewell):
    """Re-optimizing each period equals committing to the best plan here."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    game = engine.game
    plan = conj.plan()

    def dp(i, node, s):
        if node.t > game.horizon:
            return 0.0
        quit_val = engine.phi_value(i, node, s)
        a, a_idx = engine.walker.own_action(i, node, s)
        stay = 0.0
        for br in engine.walker.other_branches(i, node, plan):
            actions = dict(br.actions)
            actions[i] = a
            z = (game.reward(i, node.t, game.grid(i, node.t).value(s), actions)
                 + mech.rho.value(i, node, actions))
            child = engine.walker.child_after(i, node, s, a_idx, br)
            cont = 0.0
            if node.t < game.horizon:
                for pp, s2 in engine.walker.own_kernel(i, child, s):
                    cont += pp * dp(i, child, s2)
            stay += br.prob * (z + cont)
        return max(quit_val, stay)

    root = engine.root()
    for s in range(5):
        assert dp(0, root, s) == pytest.approx(engine.payoff_to_go(0, root, s, conj), abs=1e-9)


def test_expected_history_truncation_excludes_quitters_actions():
    """After an opponent's planned quit their action leaves the joint profile."""
    seen_profiles = []

    def recording_u(i, t, s, actions):
        if i == 0:
            seen_profiles.append((t, tuple(sorted(actions))))
        return s

    game = make_game(n=2, T=3,
                     shocks=ShockModel.uniform([0.0]),
                     dynamics=DynamicsModel(lambda i, t, s, h, om: s + 0 * om, lambda *a: 1.0),
                     rewards=RewardModel(recording_u, lambda i, t, s, a: 1.0))
    mech = Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3))
    engine = Engine(game, mech)
    x = ProfileConjecture(((1.0, ((1, 2),)),))  # opponent quits at period 2
    engine.prospect(0, engine.root(), 2, 3, x)
    by_period = {t: {prof for tt, prof in seen_profiles if tt == t} for t in (1, 2, 3)}
    assert all((0, 1) == prof for prof in by_period[1])
    assert all((0,) == prof for prof in by_period[2] | by_period[3])


def test_transform_representation_needs_indifference(shelf):
    """With strictly negative on-rent inside the off region, re-planning
    strictly beats every committed plan and the representation identity
    breaks, as the sufficiency theorems' indifference hypothesis predicts."""
    mech, carriers, transforms, conj, engine, nodes, parts, diags = shelf
    root = engine.root()
    lam = engine.payoff_to_go(0, root, 2, conj)
    rep = transforms.total(0, root, transforms.project(0, root, 2))
    assert rep > lam + 1e-6
    # inside the off region the on-rent is strictly negative here
    assert engine.on_rent(0, root, 0, conj) < -1e-6


def test_fixed_point_against_simplex_grid_search():
    """The damped iteration lands where a brute-force conjecture search lands.

    On a two-agent, two-period instance the quit-period marginals live on a
    small simplex; scanning a grid over it and scoring each point by its
    best-response residual must not find anything better than the iterate.
    """
    import itertools

    from offmenu.histories import ProfileConjecture
    from offmenu.model import DynamicsModel, Grid, RewardModel, ShockModel
    from offmenu.closures import piecewise_quadratic
    from conftest import synth

    grid = Grid(0.0, 1.0, 3)
    shape = piecewise_quadratic(grid, (-2.0, 4.0, 8.0))  # node values [0, 0.5, 3.5]... well at s0

    def u(i, t, s, a):
        other = sum(v for k, v in a.items() if k != i)
        return shape.value(s) + 0.1 * other

    game = make_game(n=2, T=2, grid=grid,
                     shocks=ShockModel.uniform([0.0, 0.5, 1.0]),
                     dynamics=DynamicsModel(lambda i, t, s, h, om: om,
                                            lambda i, t, s, h, om: 0.0),
                     rewards=RewardModel(u, lambda i, t, s, a: shape.deriv(s)))
    mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(
        game, "horizontal", [0.0, 0.0])
    root = engine.root()
    chi = {i: engine.quit_distribution(i, root, conj.regions) for i in (0, 1)}
    fp = engine.om_fixed_point(root, chi)
    assert fp.converged and fp.residual <= 1e-8

    def residual(mu):
        conj_mu = ProfileConjecture.from_marginals(mu)
        worst = 0.0
        for i in (0, 1):
            dist = {k: 0.0 for k in (1, 2, 3)}
            for p, s_idx in engine.walker.belief(i, root):
                br = engine.best_response(i, root, s_idx, conj_mu)
                dist[br.quit_period] += p
            worst = max(worst, max(abs(mu[i][k] - dist[k]) for k in (1, 2, 3)))
        return worst

    # scan the product of per-agent simplices with step 1/4 (symmetric points)
    weights = [k / 4.0 for k in range(5)]
    best_grid = None
    for w1, w2 in itertools.product(weights, repeat=2):
        if w1 + w2 > 1.0 + 1e-12:
            continue
        mu = {i: {1: w1, 2: w2, 3: 1.0 - w1 - w2} for i in (0, 1)}
        r = residual(mu)
        if best_grid is None or r < best_grid[0]:
            best_grid = (r, mu)
    assert residual(fp.marginals) <= best_grid[0] + 1e-9


def test_payoff_to_go_is_max_of_quit_and_best_plan(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    root = engine.root()
    for s in range(5):
        stay, _ = engine.stay_value(0, root, s, conj)
        lam = engine.payoff_to_go(0, root, s, conj)
        assert lam == max(engine.phi_value(0, root, s), stay)
        # obedience: the best pretense is the truth on this instance
        assert engine.value_fn(0, root, s, conj) == pytest.approx(stay, abs=1e-12)
