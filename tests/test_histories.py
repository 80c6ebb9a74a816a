"""TreeWalker's joint-step enumerator and closure walk against the old loops.

``LoopWalker``/``LoopEngine`` (conftest) keep the hand-rolled resolution
loops; every walk here must give the same branches, the same node lists,
the same quit distributions and the same store interning order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import IDENTITY, LoopEngine, LoopWalker, make_game, random_instance
from offmenu.equilibrium import Engine
from offmenu.histories import (
    NEVER_QUIT,
    FixedPlan,
    NodeStore,
    PeriodRecord,
    RegionConjecture,
    TreeWalker,
)
from offmenu.mechanism import Mechanism, TaskPolicy, ZeroCoupling, ZeroOffSwitch
from offmenu.model import DynamicsModel, GameError, Grid, ShockModel
from offmenu.sampling import choice_cdf
from offmenu.scenario import bundled_scenarios, load_scenario

CLOSURES = ("reachable_nodes", "one_shot_closure")
CASES = [*range(10), "pair-churn-t2", "three-agents"]


def _instance(case):
    if case == "three-agents":
        # three agents, so "the others" hold two and their order shows; with
        # these weights the product of three probabilities depends on its order
        weights = (0.1, 0.7, 0.2)
        game = make_game(n=3, T=2, grid=Grid(0.0, 1.0, 3),
                         shocks=ShockModel((-0.5, 0.0, 0.5), weights),
                         initial={i: weights for i in range(3)})
        regions = {(0, 1): frozenset({0}), (2, 1): frozenset({2}), (1, 2): frozenset({1})}
        return game, Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(2)), RegionConjecture(regions)
    if case == "pair-churn-t2":
        raw = json.loads(bundled_scenarios()["pair-churn"].read_text())
        scenario = load_scenario({**raw, "horizon": 2})
        game = scenario.build_game()
        regions = {k: p.off_indices for k, p in scenario.build_partitions(game).items()}
        mech = Mechanism(scenario.build_policy(), ZeroCoupling(), ZeroOffSwitch(game.horizon))
        return game, mech, RegionConjecture(regions)
    return random_instance(np.random.default_rng(case))


def _order(walker):
    store = walker.store
    return [store.node(k).signature() for k in range(len(store))]


def _sigs(nodes):
    return [n.signature() for n in nodes]


def _fields(branches):
    return [(b.prob, b.states, b.quitters, b.actions, b.actions_idx) for b in branches]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("closure", CLOSURES)
def test_closure_matches_old_loop_from_a_fresh_store(case, closure):
    game, mech, conj = _instance(case)
    new, old = TreeWalker(game, mech.sigma), LoopWalker(game, mech.sigma)
    got = getattr(new, closure)(conj.plan())
    want = getattr(old, closure)(conj.plan())
    assert _sigs(got) == _sigs(want)
    assert [n.key for n in got] == [n.key for n in want]
    assert _order(new) == _order(old)


@pytest.mark.parametrize("case", CASES)
def test_walks_match_old_loops_in_sequence(case):
    game, mech, conj = _instance(case)
    plan = conj.plan()
    new, old = TreeWalker(game, mech.sigma), LoopWalker(game, mech.sigma)
    for closure in CLOSURES:
        assert _sigs(getattr(new, closure)(plan)) == _sigs(getattr(old, closure)(plan))
        assert _order(new) == _order(old)
    new_engine = Engine(game, mech, walker=new)
    old_engine = LoopEngine(game, mech, walker=old)
    for i in game.agents():
        root = new_engine.root()
        assert (new_engine.quit_distribution(i, root, conj.regions)
                == old_engine.quit_distribution(i, old_engine.root(), conj.regions))
    assert _order(new) == _order(old)
    plans = [plan, NEVER_QUIT, FixedPlan({j: 1 for j in game.agents()}),
             FixedPlan({j: 2 for j in game.agents()})]
    for key in range(len(new.store)):
        node, twin = new.store.node(key), old.store.node(key)
        if node.t > game.horizon:
            continue
        for i in node.active:
            for pl in plans:
                assert (_fields(new.other_branches(i, node, pl))
                        == _fields(old.other_branches(i, twin, pl)))
    assert _order(new) == _order(old)


def test_pair_churn_case_has_two_agents_and_quits():
    # the multi-agent case must exercise other agents and plan quits
    game, mech, conj = _instance("pair-churn-t2")
    assert game.n_agents == 2 and any(conj.regions.values())


def _pair_walker():
    game = make_game(n=2, T=2)
    return TreeWalker(game, IDENTITY), RegionConjecture({}).plan()


def _assert_budget_advice(exc, what, budget):
    # every mode builds these closures, so the advice must not be "use mc"
    msg = str(exc.value)
    assert f"{what} exceeds its budget of {budget} nodes" in msg
    assert "horizon" in msg and "grid points" in msg
    assert "mode=mc" not in msg


def test_reachable_nodes_budget_error():
    walker, plan = _pair_walker()
    with pytest.raises(GameError) as exc:
        walker.reachable_nodes(plan, max_nodes=3)
    _assert_budget_advice(exc, "reachable node set", 3)


def test_one_shot_closure_budget_error():
    walker, plan = _pair_walker()
    reachable = len(walker.reachable_nodes(plan))
    assert len(walker.one_shot_closure(plan)) > reachable
    # the obedient walk fits the budget; the deviations take it over
    with pytest.raises(GameError) as exc:
        walker.one_shot_closure(plan, max_nodes=reachable)
    _assert_budget_advice(exc, "deviation closure", reachable)


def test_markov_classes_budget_error():
    walker, _ = _pair_walker()
    with pytest.raises(GameError) as exc:
        walker.markov_classes(max_nodes=3)
    _assert_budget_advice(exc, "Markov class set", 3)


@pytest.mark.parametrize("case", CASES)
def test_markov_classes_cover_every_class_the_closures_reach(case):
    game, mech, conj = _instance(case)
    walker = TreeWalker(game, mech.sigma)
    reps = walker.markov_classes()
    # one representative per class, each a decision node with a cell
    assert len({n.lump for n in reps}) == len(reps) == len(walker.store)
    assert all(n.t <= game.horizon and n.active for n in reps[1:])
    # the whole-grid closure of the old indifference solve, kept as a reference
    loop = LoopWalker(game, mech.sigma, store=walker.store)
    for nodes in [getattr(walker, c)(conj.plan()) for c in CLOSURES] + [
            loop.full_state_closure(conj.plan())]:
        assert {n.lump for n in nodes if n.active} <= {
            n.lump for n in reps}


def test_a_class_keeps_every_record_of_a_history_shorter_than_its_window():
    store = NodeStore(make_game(), window=3)
    def rec(a):
        return PeriodRecord((0,), (a,), ())
    first = store.intern(3, (0,), ((0, 0),), (rec(0), rec(1)))
    other = store.intern(3, (0,), ((0, 0),), (rec(1), rec(1)))
    assert first.lump != other.lump
    assert store.class_signature(first) == first.signature()
    assert NodeStore(make_game(), window=1).class_signature(first) == "t3|a0|p0=0|e0:1:"


# -- the transition cache ---------------------------------------------------------


def _direct(game, store, i, node, s_prev):
    """Agent i's state distribution at node.t straight from the game, as TreeWalker lists it."""
    if s_prev is None:
        return tuple((w, j) for j, w in enumerate(game.initial_dist(i)) if w > 0.0)
    s_val = game.grid(i, node.t - 1).value(s_prev)
    probs, _ = game.kernel(i, node.t, s_val, store.history(node))
    return tuple((float(p), j) for j, p in enumerate(probs) if p > 0.0)


def _direct_table(game, store, i, node, s_prev):
    """The table ``rng.choice`` searches for agent i's state at node.t, normalized
    as the per-draw samplers normalize it: the kernel row by its numpy sum, the
    initial row by Python's."""
    if s_prev is None:
        dist = game.initial_dist(i)
        return choice_cdf(np.asarray(dist) / sum(dist))
    probs, _ = game.kernel(i, node.t, game.grid(i, node.t - 1).value(s_prev),
                           store.history(node))
    return choice_cdf(probs / probs.sum())


def _transition_case(case):
    """(game, policy, plan): kernels that read the last record, the whole history, or neither."""
    if case == "action-feedback":
        raw = json.loads(bundled_scenarios()["subscription"].read_text())
        scenario = load_scenario({**raw, "dynamics": {"kind": "action_feedback",
                                                      "params": {"beta": 0.25, "scale": 0.5}}})
        return scenario.build_game(), scenario.build_policy(), NEVER_QUIT
    if case == "full-history":
        # period-3 states replay the agent's period-1 action
        dyn = DynamicsModel(lambda i, t, s, h, om: h[0].get(i, 0.0) if t == 3 else s + om,
                            lambda i, t, s, h, om: 0.0)
        return make_game(dynamics=dyn), IDENTITY, NEVER_QUIT
    if case == "quit":
        # agent 0 quits in its bottom state at period 1, so period 2 opens without
        # it; closures that read no history lump the nodes into Markov classes
        dyn = DynamicsModel(lambda i, t, s, h, om: s + om, lambda i, t, s, h, om: 1.0,
                            history_window=0)
        sigma = TaskPolicy(lambda i, t, s, h: s, "identity", history_window=0)
        plan = RegionConjecture({(0, 1): frozenset({0})}).plan()
        return make_game(n=2, T=3, dynamics=dyn), sigma, plan
    game, mech, conj = random_instance(np.random.default_rng(case))
    return game, mech.sigma, conj.plan()


@pytest.mark.parametrize("case", [*range(10), "action-feedback", "full-history", "quit"])
def test_beliefs_and_own_kernels_equal_direct_kernel_calls(case):
    game, sigma, plan = _transition_case(case)
    walker = TreeWalker(game, sigma)
    store = walker.store
    assert store.window == {"action-feedback": 1, "quit": 0}.get(case)
    quit_cells = 0
    root = store.root()
    for i in game.agents():
        assert walker.draw_table(i, root, None) == _direct_table(game, store, i, root, None)
    for node in LoopWalker(game, sigma, store=store).full_state_closure(plan):
        for i in game.agents():
            if i in node.active:
                prev = node.prev_state_of(i) if node.t > 1 else None
                assert walker.belief(i, node) == _direct(game, store, i, node, prev)
            elif node.t > 1:
                # own_kernel still serves an agent who has quit; its belief does not exist
                with pytest.raises(GameError):
                    walker.belief(i, node)
                quit_cells += node.t < game.horizon
            if node.t == game.horizon:
                continue
            for s in range(game.grid(i, node.t).points):
                for slot in range(len(walker.menu(i, node).actions)):
                    a_own, a_idx = walker.own_action(i, node, s, slot)
                    for _, _, br in walker.own_branches(i, node, ((1.0, plan),), a_own):
                        child = walker.child_after(i, node, s, a_idx, br)
                        assert walker.own_kernel(i, child, s) == _direct(game, store, i,
                                                                               child, s)
                        assert walker.draw_table(i, child, s) == _direct_table(game, store, i,
                                                                              child, s)
    assert quit_cells or case != "quit"
