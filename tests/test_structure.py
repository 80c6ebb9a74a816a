"""Structural guards: the agent's own step is spelled out in one place.

Every exact walk resolves the others' branches through
``TreeWalker.own_branches`` and reads its own action and grid index from
``TreeWalker.own_action`` (``Menu.grid_indices``), and the node closures
are the three that share ``TreeWalker._closure``.  Recorded actions are
located on the menu by grid index, only the flow and the table exports
read the coupling, the engine's prospects are read as one vector of plan
indices, and sampled paths are walked only by ``PathSampler``.  This scan
of the package source (``oracle.py`` excepted: it is the independent
reference) fails when a hand-rolled copy of either loop, a fourth closure,
another reader, a per-L prospect loop or a per-path sampling loop comes
back.  The agent's next step has one owner: the walker's transition
records are the only kernel reader on a tree cell, and own transitions are
drawn from their tables and walked through ``TreeWalker.next_states``.

Period T is terminal in one place, ``TreeWalker._closure``: no closure's
successor function reads the horizon and ``live_cells`` takes no horizon
to filter by.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import offmenu
from offmenu.histories import live_cells

SRC = Path(offmenu.__file__).resolve().parent


def _scan(match):
    """(module file, enclosing qualname, node) for every AST node ``match`` accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if match(node):
                found.append((path.name, ".".join(scope), node))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(), str(path)), ())
    return found


def _calls(attr: str):
    """(module file, enclosing qualname, call) for every ``.attr(...)`` call."""
    return _scan(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == attr)


def _named_calls(name: str):
    """(module file, enclosing qualname, call) for every ``name(...)`` call."""
    return {(f, scope) for f, scope, _ in _scan(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == name)}


def _path_loops():
    """Where a ``for`` loop or comprehension runs over ``range`` of a sample or path count."""
    def counts_paths(node):
        it = getattr(node, "iter", None)
        return (isinstance(node, (ast.For, ast.comprehension)) and isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name) and it.func.id == "range"
                and any(isinstance(a, ast.Name) and ("sample" in a.id or "path" in a.id)
                        for a in it.args))
    return {(f, scope) for f, scope, _ in _scan(counts_paths)}


def _tol(call: ast.Call):
    args = [kw.value for kw in call.keywords if kw.arg == "tol"] + call.args[1:2]
    return [a.value for a in args if isinstance(a, ast.Constant)]


def _kernel_readers():
    return {(f, scope) for f, scope, _ in _calls("kernel")}


def test_the_next_step_has_one_owner():
    # the transition law comes from the kernel only through the walker's
    # records, and through the two readers of a whole current grid at one history
    assert _kernel_readers() == {("histories.py", "TreeWalker._record"),
                                 ("regions.py", "_cdf_matrix"),
                                 ("model.py", "BaseGame.validate_full_support")}
    # own transitions are drawn from the records' tables; the sampler builds
    # only its plan and branch tables
    assert _named_calls("choice_cdf") == {("histories.py", "TreeWalker.draw_table"),
                                          ("sampling.py", "PathSampler.__init__"),
                                          ("sampling.py", "PathSampler._cell")}
    # every other own step goes through ``next_states``: these walks add a flow
    # per branch before the kernel sum, or draw the branch
    assert {(f, s) for f, s, _ in _calls("child_after")} == {
        ("histories.py", "TreeWalker.next_states"),
        ("equilibrium.py", "Engine._step"),
        ("carrier.py", "CarrierTables._q_plan"),
        ("verify.py", "audit_full_deviations.stay"),
        ("sampling.py", "PathSampler._transition")}


def test_other_branches_is_called_only_by_own_branches_and_the_path_sampler():
    callers = {(f, scope) for f, scope, _ in _calls("other_branches")}
    assert callers == {("histories.py", "TreeWalker.own_branches"),
                       ("sampling.py", "PathSampler._cell")}


def test_the_closure_walk_serves_only_the_reachable_set_the_classes_and_the_deviations():
    callers = {(f, scope) for f, scope, _ in _calls("_closure")}
    assert callers == {("histories.py", "TreeWalker.reachable_nodes"),
                       ("histories.py", "TreeWalker.markov_classes"),
                       ("histories.py", "TreeWalker.one_shot_closure")}


def test_the_markov_classes_are_walked_only_by_the_export():
    # the indifference solve reads posted values on demand, not over every class
    callers = {(f, scope) for f, scope, _ in _calls("markov_classes")}
    assert callers == {("run.py", "export_mechanism_tables")}


def test_menu_actions_are_located_on_the_grid_only_by_the_menu_and_custom_actions():
    where = [(f, scope) for f, scope, call in _calls("index_of") if 1e-6 in _tol(call)]
    assert where == [("mechanism.py", "action_menu")]


def test_recorded_actions_are_located_on_the_menu_by_grid_index():
    # ``TreeWalker.recorded_slot`` reads ``Menu.grid_indices``; no float round trip
    assert [(f, scope) for f, scope, call in _calls("position") if 1e-6 in _tol(call)] == []


def _coupling_readers():
    return {(f, scope) for attr in ("value", "value_at_slot") for f, scope, call in _calls(attr)
            if isinstance(call.func.value, ast.Attribute) and call.func.value.attr == "rho"}


def test_the_coupling_is_read_only_by_the_flow_and_the_table_exports():
    # flow-c3's two expected couplings cancel, so no check sums the coupling itself
    assert _coupling_readers() == {("equilibrium.py", "Engine.flow"),
                                   ("run.py", "export_mechanism_tables"),
                                   ("reports.py", "mechanism_table_rows")}


def test_only_the_oracle_reads_one_plan_index_at_a_time():
    # the engine's prospects come as one vector per cell and first action;
    # a loop over plan indices that calls ``Engine.prospect`` per L must not
    # come back
    assert {(f, scope) for f, scope, _ in _calls("prospect")} == set()


def test_sampled_paths_are_walked_only_by_the_path_sampler():
    # a draw is a bisection of a CDF table: only the sampler's scalar walk
    # and the per-draw stream make one
    assert _named_calls("bisect_right") == {("sampling.py", "inverse_cdf_draws"),
                                            ("sampling.py", "PathSampler._scalar")}
    # the two sampled expectations reduce the sampler's per-path arrays;
    # ``simulate`` draws a varying number of doubles per path, so it keeps
    # its own walk over its period cells on the per-draw stream
    assert {(f, s) for f, s, _ in _calls("walk")} == {("equilibrium.py", "Engine.prospect_mc"),
                                                      ("persistence.py",
                                                       "PersistenceTransforms.barrier_violations_mc")}
    assert _named_calls("inverse_cdf_draws") == {("equilibrium.py", "Engine.simulate")}
    assert _path_loops() == {("equilibrium.py", "Engine.simulate")}


def _horizon_readers():
    """(module file, enclosing qualname) for every read of a ``horizon`` name or attribute."""
    return {(f, scope) for f, scope, _ in _scan(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "horizon")
        or (isinstance(node, ast.Name) and node.id == "horizon"))}


CLOSURES = ("TreeWalker.reachable_nodes", "TreeWalker.markov_classes",
            "TreeWalker.one_shot_closure")


def test_period_t_is_terminal_only_in_the_closure_walk():
    readers = {scope for f, scope in _horizon_readers() if f == "histories.py"}
    assert "TreeWalker._closure" in readers
    assert {s for s in readers if s.startswith(CLOSURES)} == set()
    assert list(inspect.signature(live_cells).parameters) == ["nodes"]


def test_scan_sees_a_planted_copy(tmp_path, monkeypatch):
    """The scan reads the package source, so a copy planted there is caught."""
    planted = tmp_path / "offmenu"
    planted.mkdir()
    for path in SRC.glob("*.py"):
        (planted / path.name).write_text(path.read_text().replace(
            "        def successors(node, tag):\n",
            "        def successors(node, tag):\n"
            "            if node.t == self.game.horizon:\n"
            "                return\n").replace(
            "        outcomes = self._tout[st] = ",
            "        self.walker.game.kernel(self.i, child.t, 0.0, ())\n"
            "        outcomes = self._tout[st] = "))
    (planted / "extra.py").write_text(
        "def walk(walker, i, node, plan, grid, a, mech, engine, x):\n"
        "    g = [engine.prospect(i, node, 0, L, x) for L in (1, 2)]\n"
        "    idx = grid.index_of(a, tol=1e-6)\n"
        "    pos = walker.menu(i, node).position(a, tol=1e-6)\n"
        "    rho = mech.rho.value(i, node, {i: a})\n"
        "    return [br for br in walker.other_branches(i, node, plan)], idx, pos, rho, g\n"
        "def sample(cdf, draw, n_samples):\n"
        "    return [bisect_right(cdf, draw()) for _ in range(n_samples)]\n")
    monkeypatch.setattr(f"{__name__}.SRC", planted)
    assert ("extra.py", "walk") in {(f, s) for f, s, _ in _calls("other_branches")}
    assert ("extra.py", "walk") in {(f, s) for f, s, c in _calls("index_of")
                                    if 1e-6 in _tol(c)}
    assert ("extra.py", "walk") in {(f, s) for f, s, c in _calls("position")
                                    if 1e-6 in _tol(c)}
    assert ("extra.py", "walk") in _coupling_readers()
    assert ("extra.py", "walk") in {(f, s) for f, s, _ in _calls("prospect")}
    assert ("extra.py", "sample") in _named_calls("bisect_right")
    assert ("extra.py", "sample") in _path_loops()
    assert {("histories.py", f"{c}.successors") for c in CLOSURES[:2]} <= _horizon_readers()
    assert ("sampling.py", "PathSampler._transition") in _kernel_readers()
