"""Markov-class memo keys against full-history keys.

Registered closures read at most the last ``history_window`` records, so
every memo table keyed by ``Node.lump`` must give exactly (``==``) what
the same table keyed by the full history gives.  The full-history runs
here replace ``history_window`` by one that always answers None, which
is what a custom closure without a declared window gets.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import make_game
from offmenu import histories
from offmenu.equilibrium import Engine
from offmenu.histories import NodeStore, RegionConjecture, TreeWalker
from offmenu.mechanism import (
    CallableCoupling,
    CallableOffSwitch,
    Mechanism,
    TaskPolicy,
    ZeroCoupling,
    ZeroOffSwitch,
)
from offmenu.model import BaseGame, DynamicsModel, GameError
from offmenu.run import run_scenario
from offmenu.scenario import KNOWN_CHECKS, bundled_scenarios, load_scenario
from offmenu.synthesis import posted_factor_eta, synthesize_mechanism
from offmenu.verify import check_doic, check_payoff_flow


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bundled(base, **changes):
    return {**json.loads(bundled_scenarios()[base].read_text()), **changes}


WELL_RIDGE = _bundled(
    "double-well", name="well-ridge", seed=9, samples=2000,
    rewards={"kind": "pw_slopes", "params": {"grid": {"lo": 0.0, "hi": 1.0, "points": 5},
                                             "slopes": [-4.0, -4.0, 20.0, -24.0, 36.0]}},
    mechanism={"variant": "knowledgeable", "boundaries": {"0": [[0.25, 0.25]]}},
    verify=["doic", "phi_uniqueness", "transform", "barrier", "fixed_point"])

ACTION_FEEDBACK = _bundled(
    "subscription", name="feedback",
    dynamics={"kind": "action_feedback", "params": {"beta": 0.25, "scale": 0.5}},
    verify=list(KNOWN_CHECKS), samples=300)

ACTION_FEEDBACK_PAIR = _bundled(
    "pair-churn", name="feedback-pair", horizon=2, samples=300,
    dynamics={"kind": "action_feedback", "params": {"beta": -0.5, "scale": 0.25}})


def _run(raw, tmp_path, tag):
    """(error message or None, output bytes by file name, pipeline result)."""
    out = tmp_path / tag
    try:
        result = run_scenario(load_scenario(raw), out)
    except GameError as exc:
        return str(exc), {}, None
    return None, {p.name: p.read_bytes() for p in sorted(out.iterdir())}, result


def _class_values(result):
    """Transform values the CSVs do not hold, per reachable cell."""
    tr = result.transforms
    out = []
    for node in result.nodes:
        for i in node.active:
            for s in range(result.engine.game.grid(i, node.t).points):
                out.append((node.key, i, s, tr.total(i, node, s), tr.delta_bar(i, node, s)))
    return out


def _class_rows(tables: bytes, window: int) -> set:
    """Every row of a tables file, its history signature cut to the last ``window`` records.

    A full-history file maps onto the class-keyed one only if each history
    holds its class's value.
    """
    body = json.loads(tables)
    rows = set()
    for name in ("coupling", "posted", "posted_intervals"):
        for i, sig, *rest in body[name]:
            head, events = sig.split("|e", 1)
            records = events.split(";") if events else []
            kept = ";".join(records[max(len(records) - window, 0):])
            rows.add((name, i, f"{head}|e{kept}", *rest))
    return rows


def _assert_lumping_exact(raw, tmp_path, monkeypatch, window=0, coarser=True):
    err, files, lumped = _run(raw, tmp_path, "lumped")
    with monkeypatch.context() as m:
        m.setattr(histories, "history_window", lambda game, sigma: None)
        full_err, full_files, full = _run(raw, tmp_path, "full")
    assert err == full_err
    # the tables key by class, so the two runs' files differ in their keys only
    tables, full_tables = files.pop("mechanism_tables.json", None), full_files.pop(
        "mechanism_tables.json", None)
    assert files == full_files
    if lumped is None:
        return
    assert json.loads(tables)["window"] == window and json.loads(full_tables)["window"] is None
    assert _class_rows(tables, window) == _class_rows(full_tables, window)
    store = lumped.engine.store
    assert store.window == window and full.engine.store.window is None
    assert _class_values(lumped) == _class_values(full)
    # the classes are coarser than the histories, and the full run has none
    if coarser:
        assert len({store.node(k).lump for k in range(len(store))}) < len(store)
    full_store = full.engine.store
    assert all(full_store.node(k).lump == k for k in range(len(full_store)))


@pytest.mark.parametrize("name", ["g2-appendix", "subscription", "double-well"])
def test_bundled_scenarios_match_full_history(name, tmp_path, monkeypatch):
    _assert_lumping_exact(_bundled(name), tmp_path, monkeypatch)


def test_pair_churn_t2_matches_full_history(tmp_path, monkeypatch):
    _assert_lumping_exact(_bundled("pair-churn", horizon=2), tmp_path, monkeypatch)


def test_knowledgeable_cutoff_matches_full_history(tmp_path, monkeypatch):
    _assert_lumping_exact(WELL_RIDGE, tmp_path, monkeypatch)


# at T=2 no history holds more than the window's one record, so each
# two-agent class is a single history; at T=3 histories hold two records
# against the window's one, and the two-agent classes merge
@pytest.mark.parametrize("raw, coarser", [(ACTION_FEEDBACK, True), (ACTION_FEEDBACK_PAIR, False),
                                          ({**ACTION_FEEDBACK_PAIR, "horizon": 3}, True)],
                         ids=["one-agent", "two-agents", "two-agents-T3"])
def test_action_feedback_window_one_matches_full_history(raw, coarser, tmp_path, monkeypatch):
    _assert_lumping_exact(raw, tmp_path, monkeypatch, window=1, coarser=coarser)


def _random_raw(seed: int) -> dict:
    """A small scenario built from registered closure families only."""
    rng = np.random.default_rng(seed)
    agents = int(rng.integers(1, 3))
    horizon = 2 if agents == 2 else int(rng.integers(2, 4))
    points = int(rng.integers(3, 5))
    grid = [k / (points - 1) for k in range(points)]
    shocks = sorted({float(v) for v in rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5],
                                                  size=int(rng.integers(1, 4)))})
    dynamics = [
        ("additive", {"scale": float(rng.uniform(0.5, 1.0))}),
        ("ar1", {"alpha": float(rng.uniform(0.2, 0.9))}),
        ("exogenous", {"offset": 0.5}),
        ("identity", {}),
        ("periodic", {"schedule": {str(t): str(rng.choice(["identity", "exogenous"]))
                                   for t in range(2, horizon + 1)}}),
        ("action_feedback", {"beta": float(rng.uniform(-0.5, 0.5))}),
    ][int(rng.integers(0, 6))]
    rewards = [
        ("linear_state", {"c": float(rng.uniform(-1.0, 2.0))}),
        ("bilinear", {"c": float(rng.uniform(-0.5, 0.5)), "spill": float(rng.uniform(-0.5, 0.5))}),
        ("additive_sep", {"m": float(rng.uniform(0.1, 2.0)), "r": float(rng.uniform(-0.2, 0.2)),
                          "spill": float(rng.uniform(-0.3, 0.3))}),
        ("pw_slopes", {"grid": {"lo": 0.0, "hi": 1.0, "points": points},
                       "slopes": [float(v) for v in rng.uniform(-3.0, 3.0, points)]}),
    ][int(rng.integers(0, 4))]
    policy = [
        ("identity", {}),
        ("affine", {"gain": -1.0, "shift": 1.0}),
        ("constant", {"value": grid[int(rng.integers(0, points))]}),
    ][int(rng.integers(0, 3))]
    variant = ["ir", "horizontal", "knowledgeable"][int(rng.integers(0, 3))]
    b = grid[int(rng.integers(1, points - 1))]
    return {
        "name": f"random-{seed}", "agents": agents, "horizon": horizon,
        "seed": seed, "samples": 50,
        "state_grid": {"lo": 0.0, "hi": 1.0, "points": points},
        "shocks": {"values": shocks},
        "dynamics": {"kind": dynamics[0], "params": dynamics[1]},
        "rewards": {"kind": rewards[0], "params": rewards[1]},
        "policy": {"kind": policy[0], "params": policy[1]},
        "mechanism": {"variant": variant,
                      "boundaries": {str(i): [[b, b]] for i in range(agents)}},
        "verify": list(KNOWN_CHECKS),
    }


@pytest.mark.parametrize("seed", range(8))
def test_random_registered_instances_match_full_history(seed, tmp_path, monkeypatch):
    raw = _random_raw(seed)
    window = 1 if raw["dynamics"]["kind"] == "action_feedback" else 0
    # a tiny random tree may have no two histories in one class
    _assert_lumping_exact(raw, tmp_path, monkeypatch, window, coarser=False)


def test_random_instances_cover_every_dynamics_family():
    kinds = {_random_raw(seed)["dynamics"]["kind"] for seed in range(8)}
    assert "action_feedback" in kinds and len(kinds) >= 4


# -- guards --------------------------------------------------------------------


def _first_action_game(window):
    """Period-3 states replay the agent's period-1 action: the whole history matters."""
    def kappa(i, t, s, h, om):
        return h[0].get(i, 0.0) if t == 3 else s + om

    return make_game(dynamics=DynamicsModel(kappa, lambda i, t, s, h, om: 0.0,
                                            history_window=window))


def _zero_mechanism_rents(game):
    # a policy that reads no history, so the dynamics alone set the window
    sigma = TaskPolicy(lambda i, t, s, h: s, "identity", history_window=0)
    engine = Engine(game, Mechanism(sigma, ZeroCoupling(), ZeroOffSwitch(game.horizon)))
    conj = RegionConjecture({})
    nodes = engine.walker.reachable_nodes(conj.plan())
    check_doic(engine, conj, nodes)
    # the obedient on-rent, then that of every menu slot played first
    rents = [stay - engine.phi_value(i, n, s) for n in nodes
             for i in n.active for s in range(game.grid(i, n.t).points)
             for stay in (engine.stay_value(i, n, s, conj)[0],
                          *(v for v, _ in engine.stay_values(i, n, s, conj)))]
    return engine.store, rents


def test_custom_closure_reading_whole_history_keeps_full_history_keys():
    store, rents = _zero_mechanism_rents(_first_action_game(None))
    assert store.window is None
    assert all(store.node(k).lump == k for k in range(len(store)))
    # the guard matters: declaring a window this closure does not honour
    # lumps histories it tells apart, and the values move
    _, wrong = _zero_mechanism_rents(_first_action_game(0))
    assert wrong != rents


def test_callable_mechanism_keeps_full_history_keys_on_a_lumped_store():
    """A custom coupling or off-switch may read the whole node; the engine must not lump it."""
    scenario = load_scenario(_bundled("pair-churn", horizon=2))
    game, sigma = scenario.build_game(), scenario.build_policy()
    mech = Mechanism(sigma,
                     CallableCoupling(lambda i, n, a: 0.1 * a[i] + 0.01 * (n.key % 3)),
                     CallableOffSwitch(game.horizon, lambda i, n: 0.05 * (n.key % 5)))
    conj = RegionConjecture({})
    values = []
    for store in (None, NodeStore(game)):
        engine = Engine(game, mech, walker=TreeWalker(game, sigma, store))
        nodes = engine.walker.reachable_nodes(conj.plan())
        values.append([engine.stay_value(i, n, s, conj) for n in nodes
                       for i in n.active for s in range(game.grid(i, n.t).points)])
        if store is None:
            assert engine.store.window == 0
            assert all(engine.memo_key(n) == n.key for n in nodes)
    assert values[0] == values[1]


def _doic_counts(raw, monkeypatch, full):
    """(pipeline result, prospect entries, reward calls) of a doic-only run."""
    calls = [0]
    reward = BaseGame.reward

    def counted(self, *args):
        calls[0] += 1
        return reward(self, *args)

    with monkeypatch.context() as m:
        m.setattr(BaseGame, "reward", counted)
        if full:
            m.setattr(histories, "history_window", lambda game, sigma: None)
        result = run_scenario(load_scenario(raw), None, {"checks": ("doic",)})
    return result, len(result.engine._g) + result.engine._row_slots, calls[0]


def test_doic_on_pair_churn_does_less_work_than_full_history(monkeypatch):
    raw = _bundled("pair-churn", horizon=2)
    lumped, entries, rewards = _doic_counts(raw, monkeypatch, False)
    full, full_entries, full_rewards = _doic_counts(raw, monkeypatch, True)
    assert lumped.report == full.report
    assert entries < full_entries and rewards < full_rewards
    # no walk builds a node past the horizon, and both runs open the same
    # histories
    assert len(lumped.engine.store) <= len(full.engine.store)


@pytest.mark.parametrize("name", ["subscription", "double-well"])
def test_doic_does_less_work_than_full_history(name, monkeypatch):
    raw = _bundled(name)
    lumped, entries, rewards = _doic_counts(raw, monkeypatch, False)
    full, full_entries, full_rewards = _doic_counts(raw, monkeypatch, True)
    assert lumped.report == full.report
    assert entries < full_entries and rewards < full_rewards
    # lumping saves memo entries and closure calls, not nodes: both runs open
    # the same histories, none past T
    assert len(lumped.engine.store) == len(full.engine.store)
    _assert_no_node_past_the_horizon(lumped)
    _assert_no_node_past_the_horizon(full)


# -- period T is terminal in every walk ----------------------------------------------


def _assert_no_node_past_the_horizon(result):
    """No stored node lies past the horizon: every walk, the reachable one too, ends at T."""
    store, horizon = result.engine.store, result.engine.game.horizon
    assert all(store.node(k).t <= horizon for k in range(len(store)))


def _workloads():
    """``perfbench/workloads.py``, loaded once without putting ``perfbench`` on the path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _workload(name):
    """The scenario a benchmark workload runs: its written file with its flags folded in."""
    workloads = _workloads()
    w = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        raw = json.loads(workloads.write_scenario(w, None, Path(tmp) / "w.json").read_text())
    flags = dict(zip(w.cli_args[::2], w.cli_args[1::2]))
    assert set(flags) <= {"--mode", "--checks", "--samples"}
    if "--mode" in flags:
        raw["mode"] = flags["--mode"]
    if "--checks" in flags:
        raw["verify"] = flags["--checks"].split(",")
    if "--samples" in flags:
        raw["samples"] = int(flags["--samples"])
    return raw


# the name predates the terminal rule: now no walk, the reachable one
# included, interns a node past T
@pytest.mark.parametrize("raw", [
    *(_bundled(name) for name in ("g2-appendix", "subscription", "double-well")),
    _bundled("pair-churn", horizon=2),
    {**_bundled("g2-appendix"), "mode": "mc", "verify": ["doic"], "samples": 300},
    *(_random_raw(seed) for seed in range(8)),
    *(pytest.param(_workload(name), id=f"workload-{name}")
      for name in ("pair-churn", "wide-grid", "mc-obedience")),
], ids=lambda raw: f"{raw['name']}-{raw.get('mode', 'exact')}-T{raw['horizon']}")
def test_walks_intern_no_node_past_the_horizon_outside_the_reachable_set(raw, tmp_path):
    # with exports, so the export's deviation closure runs too
    result = run_scenario(load_scenario(raw), tmp_path)
    assert (tmp_path / "mechanism_tables.json").exists()
    _assert_no_node_past_the_horizon(result)


# -- parent edges of flow-c2 and the posted factor --------------------------------


def _edges(result):
    store = result.engine.store
    return {(n.signature(), p.signature()) for n in result.nodes if n.t > 1
            for p in store.parents(n)}


@pytest.mark.parametrize("name", ["subscription", "double-well"])
def test_parent_edges_do_not_depend_on_earlier_checks(name):
    alone = run_scenario(name, None, {"checks": ("payoff_flow",)})
    after_doic = run_scenario(name, None, {"checks": ("doic", "payoff_flow")})
    assert alone.report["verdicts"] == after_doic.report["verdicts"][2:]
    edges = _edges(alone)
    assert edges == _edges(after_doic)
    # the root is the one parent at period 1; later, one parent per grid
    # state of each agent active at the parent
    game = alone.engine.game
    points = game.grid(0, 1).points
    want = sum(1 if n.t == 2 else points ** len(n.events[-1].participants + n.events[-1].quitters)
               for n in alone.nodes if n.t > 1)
    assert len(edges) == want


def test_flow_c2_fails_at_a_parent_no_reachable_walk_interns():
    scenario = load_scenario("subscription")
    game, sigma = scenario.build_game(), scenario.build_policy()
    mech, carriers, transforms, conj, diags = synthesize_mechanism(game, sigma, "ir")
    engine = Engine(game, mech, walker=carriers.walker)
    nodes = engine.walker.reachable_nodes(conj.plan())
    # played the top action from the bottom state: only a deviation opens it
    target = "t2|a0|p0=0|e0:4:"
    store = engine.store
    assert target not in {store.node(k).signature() for k in range(len(store))}
    marginal = carriers.marginal_carrier

    def shifted(i, node, s_idx):
        return marginal(i, node, s_idx) + (1.0 if node.signature() == target else 0.0)

    carriers.marginal_carrier = shifted
    eta = posted_factor_eta(carriers, mech, nodes)
    c2 = check_payoff_flow(engine, carriers, nodes, eta.values)[1]
    assert c2.name == "flow-c2" and not c2.passed
    assert c2.worst == pytest.approx(1.0)
    assert store.node(c2.witness["parent"]).signature() == target
