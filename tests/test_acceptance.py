"""Acceptance criteria: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every tolerance is pinned here; no criterion defers to later calibration.
"""

from __future__ import annotations

import math

import numpy as np

from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture
from offmenu.oracle import TreeOracle
from offmenu.regions import detect_monotone
from offmenu.synthesis import solve_phi_by_indifference, synthesize_mechanism
from offmenu.verify import (
    check_constrained_monotone,
    check_doic,
    check_envelope,
    check_mso,
)

from conftest import IDENTITY, random_g2_instance, random_instance, synth

NOQUIT = RegionConjecture({})


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# -- 1: oracle equivalence ----------------------------------------------------


def test_criterion_1_oracle_equivalence():
    tol = 1e-9
    worst = 0.0
    instances = 0
    cells = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        game, mech, conj = random_instance(rng)
        engine = Engine(game, mech)
        oracle = TreeOracle(game, mech, store=engine.store)
        root = engine.root()
        nodes = [root]
        nodes += [n for n in engine.walker.reachable_nodes(conj.plan())
                  if n.t == 2 and n.active][:2]
        for node in nodes:
            for i in node.active:
                plans = conj.plans(i, node)
                m = game.grid(i, node.t).points
                for s in range(m):
                    for L in range(node.t, game.horizon + 1):
                        d = abs(engine.prospects(i, node, s, conj)[L - node.t]
                                - oracle.prospect(i, node, s, L, plans))
                        worst = max(worst, d)
                    worst = max(worst, abs(engine.on_rent(i, node, s, conj)
                                           - oracle.on_rent(i, node, s, plans)))
                    worst = max(worst, abs(engine.payoff_to_go(i, node, s, conj)
                                           - oracle.payoff_to_go(i, node, s, plans)))
                    br = engine.best_response(i, node, s, conj)
                    om, act, qp, val = oracle.best_response(i, node, s, plans)
                    same = (br.om == om and br.quit_period == qp
                            and (br.action is None) == (act is None)
                            and (br.action is None or abs(br.action - act) <= tol)
                            and abs(br.value - val) <= tol)
                    if not same:
                        worst = math.inf
                    cells += 1
        instances += 1
    report(1, "oracle equivalence",
           instances >= 20 and worst <= tol,
           f"{instances} instances, {cells} cells, worst |engine - oracle| = {worst:.2e}")


# -- 2: individually rational construction on a monotone environment -----------


def test_criterion_2_ir_construction(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    mono = detect_monotone(carriers, nodes)
    worst_sign = math.inf
    worst_bottom = 0.0
    for node in nodes:
        for s in range(engine.game.grid(0, node.t).points):
            z = engine.on_rent(0, node, s, conj)
            worst_sign = min(worst_sign, z)
            if s == 0:
                worst_bottom = max(worst_bottom, abs(z))
    report(2, "ir construction on a monotone environment",
           mono.passed and worst_sign >= -1e-9 and worst_bottom <= 1e-9,
           f"monotone={mono.passed}, min on-rent = {worst_sign:.2e}, "
           f"bottom |on-rent| = {worst_bottom:.2e}")


# -- 3: payoff-to-go representation -------------------------------------------


def test_criterion_3_transform_representation(doublewell, monotone_ir,
                                              pair_doublewell, shelf_knowledgeable):
    worst = 0.0
    cells = 0
    for bundle in (doublewell, monotone_ir, pair_doublewell, shelf_knowledgeable):
        mech, carriers, transforms, conj, engine, nodes, parts, diags = bundle
        for node in nodes:
            for i in node.active:
                for s in range(engine.game.grid(i, node.t).points):
                    lam = engine.payoff_to_go(i, node, s, conj)
                    rep = transforms.total(i, node, transforms.project(i, node, s))
                    worst = max(worst, abs(lam - rep))
                    cells += 1
    report(3, "transform representation of the payoff-to-go",
           worst <= 1e-9, f"{cells} cells, worst residual = {worst:.2e}")


# -- 4: barrier property --------------------------------------------------------


def test_criterion_4_barrier_property(shelf, doublewell):
    violations = 0
    paths = 0
    for bundle in (shelf, doublewell):
        mech, carriers, transforms, conj, engine, nodes, parts, diags = bundle
        root = engine.root()
        for s in range(5):
            violations += len(transforms.barrier_violations(0, root, s))
        violations += transforms.barrier_violations_mc(0, root, 0, 10_000, seed=21)
        paths += 10_000
    report(4, "barrier property of the projected process",
           violations == 0,
           f"0 interior hits required; found {violations} over enumeration + {paths} paths")


# -- 5: premium reduction with an empty off region -------------------------------


def test_criterion_5_premium_reduction(g1, monotone_game):
    exact_zero = True
    cells = 0
    for game in (g1, monotone_game):
        mech, carriers, transforms, conj, engine, nodes, parts, diags = synth(game, "ir")
        for node in nodes:
            for s in range(5):
                if transforms.delta_bar(0, node, s) != 0.0:
                    exact_zero = False
                cells += 1
    report(5, "accumulated deviation vanishes exactly with an empty off region",
           exact_zero, f"{cells} cells, all premiums identically 0.0")


# -- 6: horizontal equality -------------------------------------------------------


def test_criterion_6_horizontal_equality(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    worst = 0.0
    level_ok = True
    for node in nodes:
        if 0 not in node.active:
            continue
        level_ok &= mech.phi.check_horizontal_conditions(0, node)
        vals = mech.phi.per_suboff_values(0, node)
        worst = max(worst, max(vals) - min(vals))
    report(6, "horizontal cutoff equality across sub-off intervals",
           level_ok and worst <= 1e-9,
           f"level conditions={level_ok}, worst per-interval spread = {worst:.2e}")


# -- 7: envelope condition ---------------------------------------------------------


def test_criterion_7_envelope(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    doic = check_doic(engine, conj, nodes, mode="ir")
    v = check_envelope(engine, carriers, conj, nodes)
    grid_step = engine.game.grid(0, 1).step
    lipschitz = carriers.impulse_bound(0, 1)
    bound = 5.0 * grid_step * lipschitz
    report(7, "envelope condition on a verified obedient instance",
           all(x.passed for x in doic) and v.worst <= bound,
           f"max |fd(V) - q| = {v.worst:.2e} <= {bound:.2e}, "
           f"kink cells excluded: {len(v.details['kink_cells'])}")


# -- 8: maximum-sensitive obedience -------------------------------------------------


def test_criterion_8_mso(g2_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = g2_ir
    v = check_mso(engine, conj, nodes)
    report(8, "max-sensitive obedience on the separable instance",
           v.passed and v.worst <= 1e-9, f"residual = {v.worst:.2e}")


# -- 9: fixed point and quit-frequency alignment --------------------------------------


def test_criterion_9_fixed_point_and_chi(pair_doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = pair_doublewell
    root = engine.root()
    chi = {i: engine.quit_distribution(i, root, conj.regions) for i in (0, 1)}
    fp = engine.om_fixed_point(root, chi)
    n = 10_000
    sim = engine.simulate(n, seed=77)
    ok = fp.converged and fp.residual <= 1e-8
    worst_z = 0.0
    for i in (0, 1):
        for k in range(1, engine.game.horizon + 1):
            p = chi[i].get(k, 0.0)
            emp = sim.quit_freq.get((i, k), 0.0)
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            z = abs(emp - p) / sigma
            worst_z = max(worst_z, z)
            ok = ok and abs(emp - p) <= 3.0 * sigma + 1e-12
    report(9, "fixed point residual and empirical quit alignment",
           ok, f"fp residual = {fp.residual:.2e}, worst |z| = {worst_z:.2f} (3-sigma gate)")


# -- 10: posted-value uniqueness --------------------------------------------------------


def test_criterion_10_phi_uniqueness(monotone_ir, doublewell, shelf_knowledgeable):
    worst = 0.0
    cells = 0
    for bundle, variant in ((monotone_ir, "ir"), (doublewell, "horizontal"),
                            (shelf_knowledgeable, "knowledgeable")):
        mech, carriers, transforms, conj, engine, nodes, parts, diags = bundle
        solved = solve_phi_by_indifference(mech.rho, transforms, nodes, variant)
        for node in nodes:
            if 0 not in node.active:
                continue
            if variant == "knowledgeable":
                part = parts[(0, node.t)]
                for w in range(len(part.intervals())):
                    rep = next(s for s in range(part.points)
                               if part.global_interval_index(s) == w)
                    worst = max(worst, abs(solved[(0, node.key, w)]
                                           - mech.phi.value(0, node, rep)))
                    cells += 1
            else:
                worst = max(worst, abs(solved[(0, node.key)] - mech.phi.value(0, node)))
                cells += 1
    report(10, "closed-form vs indifference-solved posted values",
           worst <= 1e-6, f"{cells} cells across three variants, worst gap = {worst:.2e}")


# -- 11: constrained monotonicity is necessary under max-sensitivity ----------------------


def test_criterion_11_cm_necessity():
    contradictions = 0
    qualified = 0
    for seed in range(10):
        rng = np.random.default_rng(4000 + seed)
        game = random_g2_instance(rng)
        mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
        engine = Engine(game, mech, walker=carriers.walker)
        nodes = engine.walker.reachable_nodes(conj.plan())
        doic_ok = all(v.passed for v in check_doic(engine, conj, nodes, mode="ir"))
        zero_rent = all(abs(engine.on_rent(0, node, 0, conj)) <= 1e-9
                        for node in nodes)
        mso_ok = check_mso(engine, conj, nodes).passed
        if doic_ok and zero_rent and mso_ok:
            qualified += 1
            if not check_constrained_monotone(carriers, nodes).passed:
                contradictions += 1
    report(11, "constrained monotonicity under max-sensitivity",
           qualified >= 10 and contradictions == 0,
           f"{qualified}/10 instances satisfied the premises, {contradictions} contradictions")
