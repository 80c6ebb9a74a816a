"""Work counts: how many table entries and closure calls a run makes.

Counts are deterministic where timings are not, so they pin the work a
change removes: the prospect table keeps obedient entries apart from the
rows of one-shot deviations, a row is filled by one step, flow-c3 walks
no period-T cell, the walker reads each transition record from one
``kernel`` call, and the Markov-class walk expands each successor
signature once.
"""

from __future__ import annotations

import json

import pytest

from offmenu.equilibrium import Engine, TreeSizeError
from offmenu.histories import NodeStore, RegionConjecture, TreeWalker, live_cells
from offmenu.mechanism import CallableOffSwitch, Mechanism, ZeroCoupling
from offmenu.model import BaseGame
from offmenu.run import run_scenario
from offmenu.scenario import bundled_scenarios, load_scenario
from offmenu import verify
from offmenu.verify import check_doic

from conftest import IDENTITY

NOQUIT = RegionConjecture({})


def _counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_doic_fills_one_row_per_cell_read_and_obedient_entries_apart(monkeypatch):
    result = run_scenario("subscription", None, {"checks": ()})
    engine, x, nodes = result.engine, result.conjecture, result.nodes
    flows = _counting(monkeypatch, Engine, "flow")
    check_doic(engine, x, nodes)
    pid = engine.walker.plan_id(x.plan())
    cells = {(i, engine.memo_key(node), s, pid) for i, node in live_cells(nodes)
             for s in range(engine.game.grid(i, node.t).points)}
    # obedient entries carry no first action: (agent, class, state, plan)
    assert all(len(key) == 4 for key in engine._g)
    assert set(engine._rows) == cells
    assert engine._row_slots == sum(map(len, engine._rows.values()))
    for key, row in engine._rows.items():   # the obedient slot is the obedient entry
        assert sum(vec is engine._g[key] for vec in row) == 1
    # one agent, one branch per slot: a flow per obedient entry and per deviation slot
    assert len(flows) == len(engine._g) + engine._row_slots - len(engine._rows)
    assert len(flows) <= 275


def test_period_t_rows_take_one_step_and_flow_c3_walks_only_before_t(monkeypatch):
    steps: dict[Engine, int] = {}
    step = Engine._step

    def counted_step(engine, *args):
        steps[engine] = steps.get(engine, 0) + 1
        return step(engine, *args)

    monkeypatch.setattr(Engine, "_step", counted_step)
    walked = []
    original = verify._terminal_walks

    def counted(engine, memo, kind, node_id, i, node, *args):
        walked.append(node.t)
        return original(engine, memo, kind, node_id, i, node, *args)

    monkeypatch.setattr(verify, "_terminal_walks", counted)
    result = run_scenario("subscription", None, {})
    assert "flow-c3" in {v["name"] for v in result.report["verdicts"]}
    # a period-T cell's end and pretense walks are [0.0] and are not made
    assert walked and max(walked) < result.engine.game.horizon
    # in every engine of the run, one step per obedient entry and one per
    # row filled (39,270 steps on the benchmark's wide grid when each slot
    # took its own)
    assert result.engine in steps
    for engine, n in steps.items():
        assert n <= len(engine._g) + len(engine._rows)


def test_pair_churn_reads_each_transition_record_from_one_kernel_call(monkeypatch):
    kernels = _counting(monkeypatch, BaseGame, "kernel")
    shocks = _counting(monkeypatch, TreeWalker, "own_shock_branches")
    result = run_scenario("pair-churn", None, {})
    assert result.passed
    # 1,400 shock-branch reads; 1,738 kernel calls when each read made its own.
    # Of the rest, 120 build records, 130 are detect_monotone's CDF matrices and
    # 40 the support check's; simulate draws from the records (338 when it
    # called the kernel for its own tables)
    assert len(shocks) > len(kernels)
    assert len(kernels) <= 290
    records = result.engine.walker._transitions.values()
    assert sum(1 for rec in records if rec[1]) <= len(kernels)


def test_markov_classes_expand_each_successor_signature_once(monkeypatch):
    raw = {**json.loads(bundled_scenarios()["pair-churn"].read_text()), "horizon": 3,
           "dynamics": {"kind": "action_feedback", "params": {"beta": -0.5, "scale": 0.25}}}
    scenario = load_scenario(raw)
    walker = TreeWalker(scenario.build_game(), scenario.build_policy())
    assert walker.store.window == 1
    keys = _counting(monkeypatch, NodeStore, "class_key")
    classes = walker.markov_classes()
    assert len(classes) == 1401
    # one key per successor tried and one per interned class (425,201 when
    # every class expanded every quit set and move)
    assert len(keys) <= 2 * len(classes)


def test_the_budget_counts_row_slots_as_well_as_obedient_entries(g1):
    mech = Mechanism(IDENTITY, ZeroCoupling(), CallableOffSwitch(3, lambda i, node: 0.1 * node.t))
    sized = Engine(g1, mech)
    for s in range(5):
        sized.prospects(0, sized.root(), s, NOQUIT)
    entries = len(sized._g)
    for s in range(5):
        sized.slot_prospects(0, sized.root(), s, NOQUIT)
    table = len(sized._g) + sized._row_slots
    assert table - entries > sized._row_slots > 0   # the rows open obedient entries too
    # a budget of the full table fits it exactly
    fits = Engine(g1, mech, memo_budget=table)
    for s in range(5):
        fits.slot_prospects(0, fits.root(), s, NOQUIT)
    assert len(fits._g) + fits._row_slots == table
    for budget in (entries, table - 1):
        engine = Engine(g1, mech, memo_budget=budget)
        root = engine.root()
        for s in range(5):
            engine.prospects(0, root, s, NOQUIT)
        with pytest.raises(TreeSizeError, match="deviation rows"):
            for s in range(5):
                engine.slot_prospects(0, root, s, NOQUIT)
        assert len(engine._g) + engine._row_slots <= budget
