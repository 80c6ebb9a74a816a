"""Differential tests of the path samplers against per-draw ``rng.choice`` loops.

The reference functions below are the samplers as they were written before
the shared inverse-CDF core: one ``rng.choice(p=...)`` per draw, an own
transition's over the agent's full grid row, and every step rebuilt on
every visit.  Each comparison builds two independent copies of an
instance, runs the same calls on both, one copy through the reference
loops and one through the engine, and asserts exact equality of every
result and of the interning order of the node stores (node keys feed the
random instances' posted values and the report's witnesses).  A 9-point
instance has kernel rows whose full-row and support-only normalizations
differ, and its own-transition tables are pinned to the full row.  An
instance with late first visits checks the block walk where builds fall
between blocks; a work count and a subprocess guard pin how many paths
are walked one at a time and how many doubles are drawn at once, and
another work count pins the calls ``simulate`` makes, once per period
cell.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import offmenu
from offmenu import equilibrium, persistence, sampling
from offmenu.carrier import CarrierTables
from offmenu.equilibrium import EmpiricalOutcome, Engine
from offmenu.histories import NodeStore, ProfileConjecture
from offmenu.mechanism import BoundaryProfile, CallableCoupling, CallableOffSwitch, Mechanism
from offmenu.model import BaseGame, DynamicsModel, Grid, ShockModel
from offmenu.persistence import PersistenceTransforms
from offmenu.regions import partition_from_boundary
from offmenu.run import run_scenario
from offmenu.sampling import CHUNK, QUIET, PathSampler, choice_cdf, inverse_cdf_draws

from conftest import (DOUBLEWELL_SLOPES, IDENTITY, exo_game, make_game, pw_reward, random_instance,
                      synth)

SAMPLES = 120
GRID9 = Grid(0.0, 1.0, 9)


# ---------------------------------------------------------------------------
# Reference samplers: one rng.choice per draw
# ---------------------------------------------------------------------------


def ref_next_state(rng, game, store, i, child, s):
    """Agent i's state at ``child`` from ``s``: one ``rng.choice`` over its full grid row."""
    probs, _ = game.kernel(i, child.t, game.grid(i, child.t - 1).value(s), store.history(child))
    return int(rng.choice(len(probs), p=probs / probs.sum()))


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
            nxt = ref_next_state(rng, engine.game, engine.store, i, child, cur_s)
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
            j2 = ref_next_state(rng, tr.game, tr.walker.store, i, child, s)
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
                states[i] = ref_next_state(rng, game, engine.store, i, child, states[i])
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


def additive9_bundle():
    """One agent on 9 grid points with clamped additive dynamics: kernel rows
    with zero-mass states, where numpy's pairwise ``probs.sum()`` over the full
    row can differ in the last bit from a sum over the support alone."""
    shocks = ShockModel((-0.25, -0.125, 0.0, 0.125, 0.25), (0.4, 0.3, 0.2, 0.098, 0.002))
    _, carriers, transforms, conj, engine, *_ = synth(make_game(grid=GRID9, shocks=shocks),
                                                      "horizontal", [0.25, 0.25, 0.75, 0.75])
    return {"engine": engine, "conj": conj, "carriers": carriers, "transforms": transforms}


INSTANCES = ([("double-well", doublewell_bundle), ("pair-doublewell", lambda: doublewell_bundle(2)),
              ("additive-9", additive9_bundle)]
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
# Late first visits: builds between blocks, more than one chunk of doubles
# ---------------------------------------------------------------------------


class RecordingSampler(PathSampler):
    """A ``PathSampler`` that keeps itself and counts its blocks cut short by a build."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cuts = 0
        RecordingSampler.made.append(self)

    def _block(self, tables, u):
        got = super()._block(tables, u)
        self.cuts += len(got[0]) < len(u)
        return got


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(RecordingSampler, "made", [])
    monkeypatch.setattr(equilibrium, "PathSampler", RecordingSampler)
    monkeypatch.setattr(persistence, "PathSampler", RecordingSampler)
    return RecordingSampler.made


def rare_bundle():
    """Two agents whose top state is reached with probability 0.002 per
    transition, so its cells are first visited hundreds of paths in."""
    rare = ShockModel((0.0, 0.25, 0.5, 0.75, 1.0), (0.4, 0.3, 0.2, 0.098, 0.002))
    dyn = DynamicsModel(lambda i, t, s, h, om: om, lambda i, t, s, h, om: 0.0)
    game = make_game(n=2, T=2, shocks=rare, dynamics=dyn, rewards=pw_reward(DOUBLEWELL_SLOPES))
    _, carriers, transforms, conj, engine, *_ = synth(game, "horizontal",
                                                      [0.25, 0.25, 0.75, 0.75])
    return engine, conj, transforms


def _rare_calls(samples: int, ref: bool = False) -> list:
    """Obedient, deviating and two-plan prospects and the barrier count of
    agent 0 at the root, with the reference loops or the engine."""
    engine, conj, tr = rare_bundle()
    root = engine.root()
    # a quit-profile conjecture whose second plan is drawn once in 250 paths
    profile = ProfileConjecture.from_marginals({j: {1: 0.004, 3: 0.996} for j in (0, 1)})
    out = []
    for x, a_pos in ((conj, None), (conj, 0), (profile, None)):
        if ref:
            m, se = ref_prospect_mc(engine, 0, root, 2, x, samples, 7, a_pos)
        else:
            m, se = engine.prospect_mc(0, root, 2, x, samples, 7, a_pos)
        out.append(("prospect", m.tolist(), se.tolist()))
    if ref:
        out.append(("barrier", ref_barrier_violations_mc(tr, 0, root, 2, samples, 7)))
    else:
        out.append(("barrier", tr.barrier_violations_mc(0, root, 2, samples, 7)))
    out.append(("nodes", [n.signature() for n in engine.store._nodes]))
    return out


def _assert_late_builds(made: list, samples: int) -> None:
    """Every walk went to blocks, and a build between blocks sent a path back."""
    assert len(made) == 4
    for paths in made:
        assert QUIET <= paths.scalar_paths < samples
        assert paths.cuts >= 1


def test_blocks_match_per_draw_loops_when_first_visits_come_late(recording, monkeypatch):
    # a small chunk keeps the per-draw loops short: 3,000 paths of w = 4
    # (prospects) and w = 3 (barrier) doubles cross it several times
    monkeypatch.setattr(sampling, "CHUNK", 4_096)
    samples = 3_000
    ref = _rare_calls(samples, ref=True)
    assert recording == []
    new = _rare_calls(samples)
    assert len(ref) == len(new) == 5
    for a, b in zip(ref, new):
        assert a == b, a[0]
    _assert_late_builds(recording, samples)


def test_blocks_match_the_scalar_walk_past_a_chunk(recording, monkeypatch):
    samples = 22_000   # above CHUNK / w for both walks at T=2 (w = 4 and 3)
    assert samples * 3 > CHUNK
    new = _rare_calls(samples)
    _assert_late_builds(recording, samples)
    monkeypatch.setattr(sampling, "QUIET", samples + 1)   # every path walked alone
    assert _rare_calls(samples) == new


# the mc-obedience benchmark configuration: g2-appendix, sampled doic, 2000 samples
MC_OBEDIENCE = {"mode": "mc", "checks": ("doic",), "samples": 2000}
MC_OBEDIENCE_SCALAR_PATHS = 975   # of 15 walks x 2000 paths


def test_sampled_obedience_walks_few_paths_one_at_a_time(recording):
    """A deterministic work count: falling back to per-path walking fails here."""
    run_scenario("g2-appendix", None, MC_OBEDIENCE)
    assert len(recording) == 15
    assert sum(paths.scalar_paths for paths in recording) <= MC_OBEDIENCE_SCALAR_PATHS


# ---------------------------------------------------------------------------
# simulate: period cells built once
# ---------------------------------------------------------------------------


def rare_rollout_engine():
    """A fresh engine, nothing interned: two agents at T=3 whose rare state
    (the top one for agent 0, the bottom one for agent 1) has probability
    0.002 at the start and per transition, and who quit at states 1 and 3
    (agent 0) or 3 (agent 1) before T, so a period cell draws 0, 1 or 2
    doubles and cells with a rare state are first visited hundreds of paths
    in.  The agents' state laws differ, so the draws' order matters; the
    posted value reads the node key, so the interning order does too."""
    probs = (0.4, 0.3, 0.2, 0.098, 0.002)
    values = (0.0, 0.25, 0.5, 0.75, 1.0)
    shocks = {0: ShockModel(values, probs), 1: ShockModel(values, probs[::-1])}
    dyn = DynamicsModel(lambda i, t, s, h, om: om, lambda i, t, s, h, om: 0.0)
    game = make_game(n=2, T=3, shocks=shocks, dynamics=dyn,
                     initial={0: probs, 1: probs[::-1]},
                     rewards=pw_reward(DOUBLEWELL_SLOPES, act=0.3))
    mech = Mechanism(IDENTITY,
                     CallableCoupling(lambda i, node, a: 0.1 * a[i] - 0.05 * len(a)),
                     CallableOffSwitch(3, lambda i, node: 0.2 * node.t + 0.01 * (node.key % 7)))
    off = {0: (1, 3), 1: (3,)}
    return Engine(game, mech, directive_quit=lambda i, t, s: t < 3 and s in off[i])


def test_simulate_matches_the_per_draw_loop_across_chunks(monkeypatch):
    monkeypatch.setattr(sampling, "CHUNK", 4_096)   # 3,000 paths read up to 18,000 doubles
    engine, ref_engine = rare_rollout_engine(), rare_rollout_engine()
    got = engine.simulate(3_000, 21)
    ref = ref_simulate(ref_engine, 3_000, 21)
    assert got == ref
    assert [n.signature() for n in engine.store._nodes] == \
        [n.signature() for n in ref_engine.store._nodes]
    # the rare states are visited a few dozen times, and the quit region splits cells
    rare = {0: 4, 1: 0}
    assert 0 < sum(v for (i, t, s), v in got.state_hist.items() if s == rare[i]) < 60
    assert all(got.quit_freq[(i, t)] > 0 for i in (0, 1) for t in (1, 2))
    assert all(0 < got.never_quit_freq[i] < 1 for i in (0, 1))


# the calls ``simulate`` makes on bundled pair-churn (10,000 paths, 2,732
# agent-cells): a fallback to per-visit work asks the directive about 39,000 times;
# its draw tables come from the transition records the checks built, so no kernel call
PAIR_CHURN_SIMULATE_CALLS = {"kernel": 0, "reward": 492, "phi_value": 100, "child": 228,
                             "directive_quit": 2_732}


def test_simulate_builds_each_period_cell_once(monkeypatch):
    """A deterministic work count: the period body runs once per cell."""
    counts = Counter()
    inside = []

    def count(cls, name):
        fn = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[name] += bool(inside)
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in ((BaseGame, "kernel"), (BaseGame, "reward"), (Engine, "phi_value"),
                      (NodeStore, "child")):
        count(cls, name)
    simulate = Engine.simulate

    def traced(engine, n_paths, seed):
        directive = engine.directive_quit

        def counted_directive(*args):
            counts["directive_quit"] += 1
            return directive(*args)

        engine.directive_quit = counted_directive
        inside.append(True)
        try:
            return simulate(engine, n_paths, seed)
        finally:
            inside.pop()
            engine.directive_quit = directive

    monkeypatch.setattr(Engine, "simulate", traced)
    result = run_scenario("pair-churn")
    assert result.report["extras"]["simulation"]["paths"] == 10_000
    assert set(counts) == set(PAIR_CHURN_SIMULATE_CALLS)
    for name, bound in PAIR_CHURN_SIMULATE_CALLS.items():
        assert counts[name] <= bound, (name, counts[name])


GUARD = """
import json, sys
import numpy as np
from numpy.random import Generator, PCG64

requests = []

class Spy(Generator):
    def random(self, size=None, *args, **kwargs):
        requests.append(size)
        return super().random(size, *args, **kwargs)

np.random.default_rng = lambda seed=None: Spy(PCG64(seed))

from offmenu.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules,
                  "requests": [r for r in requests if r is not None]}))
"""


def test_sampled_verify_draws_in_bounded_chunks_without_numpy_ma(tmp_path):
    runs = [["verify", "g2-appendix", "--mode", "mc", "--checks", "doic", "--samples", "12000",
             "--out", str(tmp_path / "mc")],
            ["verify", "pair-churn", "--checks", "barrier", "--out", str(tmp_path / "barrier")]]
    env = dict(os.environ, PYTHONPATH=str(Path(offmenu.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", GUARD, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert not got["ma"]
    assert max(got["requests"]) == CHUNK   # 12,000 paths of 6 doubles take two chunks
    assert all(0 < r <= CHUNK for r in got["requests"])


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
    # one row, injected through the game, reaches every draw: both path
    # samplers and ``simulate`` draw own transitions from the walker's records
    b = doublewell_bundle()
    engine = b["engine"]
    game = engine.game
    bad = np.zeros(game.grid(0, 2).points)
    bad[:2] = row
    branches = [(row[0], 0.0, 0), (row[1], 0.25, 1)]   # (weight, shock, state), as ``kernel``
    object.__setattr__(game, "kernel", lambda *a: (bad.copy(), list(branches)))
    engine.walker._transitions.clear()   # the records synthesis built from the real kernel
    root = engine.root()
    calls = (lambda: ref_prospect_mc(engine, 0, root, 2, b["conj"], 5, 1),
             lambda: engine.prospect_mc(0, root, 2, b["conj"], 5, 1),
             lambda: b["transforms"].barrier_violations_mc(0, root, 2, 5, 1),
             lambda: ref_simulate(engine, 5, 1),
             lambda: engine.simulate(5, 1))
    for call in calls:
        with pytest.raises(ValueError, match="(?i)^probabilities"):
            call()


def test_own_transition_tables_follow_the_full_grid_row(recording):
    """Every own-transition table the sampler builds is ``choice``'s table
    over the full grid row, read at the support states; on the 9-point
    instance some differ from a table over the support alone."""
    b = additive9_bundle()
    engine, conj = b["engine"], b["conj"]
    game, store = engine.game, engine.store
    root = engine.root()
    for s in range(game.grid(0, 1).points):
        engine.prospect_mc(0, root, s, conj, SAMPLES, 3)
    moved = 0
    for paths in recording:
        for st, table in enumerate(paths._tcdf):
            if table is None:
                continue
            child, (c, _) = paths._child[st], paths._sfrom[st]
            s = paths._cells[c][1]
            probs, _ = game.kernel(0, child.t, game.grid(0, child.t - 1).value(s),
                                   store.history(child))
            full = choice_cdf(probs / probs.sum())
            support = [j for j, p in enumerate(probs) if p > 0.0]
            assert table == [full[j] for j in support]
            w = probs[support]
            moved += table != choice_cdf(w / w.sum())
    assert moved > 0


def test_check_doic_mc_passes_on_g2_appendix():
    result = run_scenario("g2-appendix", None,
                          {"mode": "mc", "checks": ("doic",), "samples": 200})
    verdicts = {v["name"]: v for v in result.report["verdicts"]}
    assert set(verdicts) == {"oaic", "raic"}
    for v in verdicts.values():
        assert v["mode"] == "mc"
        assert v["passed"], v
        assert v["details"]["samples"] == 200
