"""Differential tests of the path samplers against per-draw ``rng.choice`` loops.

The reference functions below are the samplers as they were written before
the shared inverse-CDF core: one ``rng.choice(p=...)`` per draw and every
step rebuilt on every visit.  Each comparison builds two independent copies
of an instance, runs the same calls on both, one copy through the reference
loops and one through the engine, and asserts exact equality of every
result and of the interning order of the node stores (node keys feed the
random instances' posted values and the report's witnesses).
"""

from __future__ import annotations

import numpy as np
import pytest

from offmenu.carrier import CarrierTables
from offmenu.equilibrium import EmpiricalOutcome, Engine
from offmenu.histories import ProfileConjecture
from offmenu.mechanism import BoundaryProfile
from offmenu.persistence import PersistenceTransforms
from offmenu.regions import partition_from_boundary
from offmenu.run import run_scenario
from offmenu.sampling import CHUNK, choice_cdf, inverse_cdf_draws

from conftest import DOUBLEWELL_SLOPES, exo_game, random_instance, synth

SAMPLES = 120


# ---------------------------------------------------------------------------
# Reference samplers: one rng.choice per draw
# ---------------------------------------------------------------------------


def ref_prospect_mc(engine, i, node, s_idx, x, n_samples, seed, a_pos=None):
    rng = np.random.default_rng(seed)
    T = engine.game.horizon
    sums = np.zeros(T - node.t + 1)
    sq = np.zeros(T - node.t + 1)
    plans = [(p, pl) for p, pl in x.plans(i, node)]
    plan_probs = np.array([p for p, _ in plans])
    plan_probs = plan_probs / plan_probs.sum()
    for _ in range(n_samples):
        pl = plans[rng.choice(len(plans), p=plan_probs)][1]
        acc = 0.0
        cur_node, cur_s = node, s_idx
        vals = np.zeros(T - node.t + 1)
        for k in range(node.t, T + 1):
            menu = engine.walker.menu(i, cur_node)
            if k == node.t and a_pos is not None:
                a_own = menu.actions[a_pos]
            else:
                a_own = menu.actions[menu.action_index_of_state[cur_s]]
            a_own_idx = engine.game.action_grids[(i, k)].index_of(a_own, tol=1e-6)
            branches = list(engine.walker.other_branches(i, cur_node, pl))
            probs = np.array([b.prob for b in branches])
            br = branches[rng.choice(len(branches), p=probs / probs.sum())]
            actions = dict(br.actions)
            actions[i] = a_own
            s_val = engine.game.grid(i, k).value(cur_s)
            acc += (engine.game.reward(i, k, s_val, actions)
                    + engine.mechanism.rho.value(i, cur_node, actions))
            if k == T:   # quitting after the horizon pays 0
                vals[k - node.t] = acc
                break
            child = engine.walker.child_after(i, cur_node, cur_s, a_own_idx, br)
            kernel = engine.walker.own_kernel(i, cur_node, cur_s, child)
            pv = np.array([p for p, _ in kernel])
            nxt = kernel[rng.choice(len(kernel), p=pv / pv.sum())][1]
            vals[k - node.t] = acc + (engine.mechanism.phi.value(i, child, nxt)
                                      if engine.mechanism.phi.state_dependent()
                                      else engine.phi_value(i, child))
            cur_node, cur_s = child, nxt
        sums += vals
        sq += vals * vals
    mean = sums / n_samples
    var = np.maximum(sq / n_samples - mean * mean, 0.0)
    return mean, np.sqrt(var / max(1, n_samples - 1))


def ref_barrier_violations_mc(tr, i, node, s_idx, n_paths, seed):
    rng = np.random.default_rng(seed)
    plans = tr.carriers.conjecture.plans(i, node)
    probs = np.array([p for p, _ in plans])
    probs = probs / probs.sum()
    count = 0
    for _ in range(n_paths):
        plan = plans[rng.choice(len(plans), p=probs)][1]
        cur, s = node, s_idx
        while cur.t < tr.game.horizon:
            branches = list(tr.walker.other_branches(i, cur, plan))
            bw = np.array([b.prob for b in branches])
            br = branches[rng.choice(len(branches), p=bw / bw.sum())]
            _, a_idx = tr.walker.own_action(i, cur, s)
            child = tr.walker.child_after(i, cur, s, a_idx, br)
            kern = tr.walker.own_kernel(i, cur, s, child)
            kw = np.array([p for p, _ in kern])
            j2 = kern[rng.choice(len(kern), p=kw / kw.sum())][1]
            us = tr.project(i, child, j2)
            part = tr.partitions.get((i, child.t))
            if part is not None:
                kind, b = part.interval_of(us)
                count += kind == "off" and us != tr.d_up(i, child, b)
            cur, s = child, us
    return count


def ref_simulate(engine, n_paths, seed):
    game = engine.game
    rng = np.random.default_rng(seed)
    quit_counts, state_hist, action_hist = {}, {}, {}
    never_counts = {i: 0 for i in game.agents()}
    payoff = {i: 0.0 for i in game.agents()}
    for _ in range(n_paths):
        node = engine.root()
        states = {}
        for i in game.agents():
            dist = game.initial_dist(i)
            states[i] = int(rng.choice(len(dist), p=np.asarray(dist) / sum(dist)))
        alive = set(game.agents())
        for t in game.periods():
            for i in sorted(alive):
                state_hist[(i, t, states[i])] = state_hist.get((i, t, states[i]), 0) + 1
            quitters = [i for i in sorted(alive) if engine.directive_quit(i, t, states[i])]
            actions_idx, actions = {}, {}
            for i in sorted(alive):
                if i in quitters:
                    payoff[i] += engine.phi_value(i, node, states[i])
                    quit_counts[(i, t)] = quit_counts.get((i, t), 0) + 1
                    continue
                a, a_idx = engine.walker.own_action(i, node, states[i])
                actions[i] = a
                actions_idx[i] = a_idx
                action_hist[(i, t, a_idx)] = action_hist.get((i, t, a_idx), 0) + 1
            for i in list(actions):
                s_val = game.grid(i, t).value(states[i])
                payoff[i] += (game.reward(i, t, s_val, actions)
                              + engine.mechanism.rho.value(i, node, actions))
            alive -= set(quitters)
            if not alive or t == game.horizon:
                for i in sorted(alive):
                    never_counts[i] += 1
                break
            child = engine.store.child(node, states, quitters, actions_idx)
            for i in sorted(alive):
                probs, _ = game.kernel(i, t + 1, game.grid(i, t).value(states[i]),
                                       engine.store.history(child))
                states[i] = int(rng.choice(len(probs), p=probs / probs.sum()))
            node = child
    return EmpiricalOutcome(
        n_paths=n_paths, seed=seed,
        quit_freq={k: v / n_paths for k, v in sorted(quit_counts.items())},
        never_quit_freq={i: never_counts[i] / n_paths for i in game.agents()},
        state_hist=dict(sorted(state_hist.items())),
        action_hist=dict(sorted(action_hist.items())),
        mean_payoff={i: payoff[i] / n_paths for i in game.agents()},
    )


# ---------------------------------------------------------------------------
# Instances: each factory returns a fresh, independent copy
# ---------------------------------------------------------------------------


def doublewell_bundle(n=1):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(
        exo_game(DOUBLEWELL_SLOPES, n=n), "horizontal", [0.25, 0.25, 0.75, 0.75])
    return {"engine": engine, "conj": conj, "carriers": carriers, "transforms": transforms}


def random_bundle(seed):
    game, mech, conj = random_instance(np.random.default_rng(seed))
    engine = Engine(game, mech, directive_quit=lambda i, t, s: s in conj.regions.get((i, t), ()))
    parts = {}
    for i in game.agents():
        for t in game.periods():
            grid = game.grid(i, t)
            parts[(i, t)] = partition_from_boundary(
                grid, BoundaryProfile(((grid.lo, grid.value(1)),)))
    carriers = CarrierTables(engine.walker, conj)
    return {"engine": engine, "conj": conj, "carriers": carriers,
            "transforms": PersistenceTransforms(carriers, parts)}


INSTANCES = ([("double-well", doublewell_bundle), ("pair-doublewell", lambda: doublewell_bundle(2))]
             + [(f"random-{seed}", lambda seed=seed: random_bundle(seed)) for seed in range(10)])


def _profile(game, node):
    """A quit-profile conjecture with at least two plans for every agent."""
    late = game.horizon + 1
    return ProfileConjecture.from_marginals(
        {j: {node.t: 0.3, late: 0.7} for j in game.agents()})


def _calls(b, ref: bool) -> list:
    """The same sampler calls on one copy, through the reference or the engine."""
    engine, conj, tr = b["engine"], b["conj"], b["transforms"]
    game = engine.game
    root = engine.root()
    out = []
    seed = 11
    for i in game.agents():
        menu = engine.walker.menu(i, root)
        points = game.grid(i, 1).points
        for s in (range(points) if game.n_agents == 1 else (0, points // 2, points - 1)):
            seed += 1
            for x in (conj, _profile(game, root)):
                for a_pos in (None, 0, len(menu.actions) - 1):
                    if ref:
                        m, se = ref_prospect_mc(engine, i, root, s, x, SAMPLES, seed, a_pos)
                    else:
                        m, se = engine.prospect_mc(i, root, s, x, SAMPLES, seed, a_pos)
                    out.append(("prospect", m.tolist(), se.tolist()))
            if ref:
                bad = ref_barrier_violations_mc(tr, i, root, s, SAMPLES, seed)
            else:
                bad = tr.barrier_violations_mc(i, root, s, SAMPLES, seed)
            out.append(("barrier", bad))
        later = [n for n in engine.walker.reachable_nodes(conj.plan())
                 if n.t == 2 and i in n.active]
        if later:
            node = later[0]
            s = engine.walker.belief(i, node)[0][1]
            x = _profile(game, node)
            if ref:
                m, se = ref_prospect_mc(engine, i, node, s, x, SAMPLES, seed, 0)
            else:
                m, se = engine.prospect_mc(i, node, s, x, SAMPLES, seed, 0)
            out.append(("prospect-t2", m.tolist(), se.tolist()))
    sim = ref_simulate(engine, SAMPLES, 5) if ref else engine.simulate(SAMPLES, 5)
    out.append(("simulate", sim))
    out.append(("nodes", [n.signature() for n in engine.store._nodes]))
    return out


@pytest.mark.parametrize("name,make", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_samplers_match_per_draw_choice_loops(name, make):
    ref = _calls(make(), ref=True)
    new = _calls(make(), ref=False)
    assert len(ref) == len(new)
    for a, b in zip(ref, new):
        assert a == b, (name, a[0])


# ---------------------------------------------------------------------------
# The draw core
# ---------------------------------------------------------------------------


def test_inverse_cdf_draws_read_the_choice_stream():
    rng = np.random.default_rng(3)
    ps = [w / w.sum() for w in (rng.uniform(0, 1, int(n)) for n in rng.integers(1, 30, 400))]
    a = np.random.default_rng(8)
    b = np.random.default_rng(8)
    draw = inverse_cdf_draws(b, 7)   # several chunk refills
    assert [int(a.choice(len(p), p=p)) for p in ps] == [draw(choice_cdf(p)) for p in ps]


def test_inverse_cdf_draws_chunks_are_bounded():
    class Spy:
        def __init__(self):
            self.rng = np.random.default_rng(0)
            self.sizes = []

        def random(self, k):
            self.sizes.append(k)
            return self.rng.random(k)

    spy = Spy()
    draw = inverse_cdf_draws(spy, 3 * CHUNK)
    for _ in range(CHUNK + 1):
        draw([1.0])
    assert spy.sizes == [CHUNK, CHUNK]


def test_inverse_cdf_draws_break_ties_to_the_right():
    """A double equal to a table entry goes past it, as ``searchsorted(side="right")`` does."""
    class Fixed:
        def random(self, k):
            return np.array([0.0, 0.25, 0.75] * k)[:k]

    cdf = [0.0, 0.25, 0.75, 1.0]   # a zero-weight first outcome
    draw = inverse_cdf_draws(Fixed(), 3)
    got = [draw(cdf) for _ in range(3)]
    assert got == np.searchsorted(cdf, [0.0, 0.25, 0.75], side="right").tolist() == [1, 2, 3]


@pytest.mark.parametrize("row", [[1.5, -0.5], [float("nan"), 1.0], [float("inf"), 1.0],
                                 [-float("inf"), 2.0], [0.5, 0.5 + 2e-8]])
def test_choice_cdf_rejects_what_choice_rejects(row):
    p = np.array(row)
    with pytest.raises(ValueError) as ref:
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError) as new:
        choice_cdf(p)
    assert str(ref.value).startswith(str(new.value))


def test_choice_cdf_accepts_what_choice_accepts():
    for row in ([0.5, 0.5 + 1e-8], [0.0, 1.0], [1.0 - 1.4e-8, 0.0]):
        p = np.array(row)
        np.random.default_rng(0).choice(len(p), p=p)
        cdf = choice_cdf(p)
        assert cdf[-1] == 1.0


@pytest.mark.parametrize("row", [(1.5, -0.5), (float("nan"), 1.0)])
def test_bad_kernel_row_still_raises(row):
    b = doublewell_bundle()
    engine, walker = b["engine"], b["engine"].walker
    root = engine.root()
    walker.own_kernel = lambda i, node, s, child: ((row[0], 0), (row[1], 1))
    with pytest.raises(ValueError):
        ref_prospect_mc(engine, 0, root, 2, b["conj"], 5, 1)
    with pytest.raises(ValueError):
        engine.prospect_mc(0, root, 2, b["conj"], 5, 1)
    with pytest.raises(ValueError):
        b["transforms"].barrier_violations_mc(0, root, 2, 5, 1)
    game = engine.game
    bad = np.zeros(game.grid(0, 2).points)
    bad[:2] = row
    object.__setattr__(game, "kernel", lambda *a: (bad.copy(), []))
    with pytest.raises(ValueError):
        ref_simulate(engine, 5, 1)
    with pytest.raises(ValueError):
        engine.simulate(5, 1)


def test_check_doic_mc_passes_on_g2_appendix():
    result = run_scenario("g2-appendix", None,
                          {"mode": "mc", "checks": ("doic",), "samples": 200})
    verdicts = {v["name"]: v for v in result.report["verdicts"]}
    assert set(verdicts) == {"oaic", "raic"}
    for v in verdicts.values():
        assert v["mode"] == "mc"
        assert v["passed"], v
        assert v["details"]["samples"] == 200
