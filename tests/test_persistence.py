"""Projections, the transformed process, accumulated deviations, barriers."""

from __future__ import annotations

import pytest

from offmenu.carrier import CarrierTables
from offmenu.histories import RegionConjecture, TreeWalker
from offmenu.oracle import TreeOracle
from offmenu.persistence import PersistenceTransforms
from offmenu.regions import partition_from_boundary
from offmenu.synthesis import ir_partitions

from conftest import IDENTITY, boundary_profile, exo_game, SHELF_SLOPES, DOUBLEWELL_SLOPES

NOQUIT = RegionConjecture({})


def build(game, boundaries=None, conjecture=NOQUIT):
    walker = TreeWalker(game, IDENTITY)
    carriers = CarrierTables(walker, conjecture)
    if boundaries is None:
        parts = ir_partitions(game)
    else:
        prof = boundary_profile(boundaries)
        parts = {(i, t): partition_from_boundary(game.grid(i, t), prof)
                 for i in game.agents() for t in game.periods()}
    return PersistenceTransforms(carriers, parts), walker, parts


def test_project_identity_outside_off_region():
    game = exo_game(SHELF_SLOPES)
    tr, walker, parts = build(game, [0.0, 0.25])
    root = walker.store.root()
    for s in (2, 3, 4):
        assert tr.project(0, root, s) == s


def test_project_increasing_marginal_carrier_hits_right_endpoint():
    game = exo_game(SHELF_SLOPES)  # strictly increasing marginal carrier
    tr, walker, parts = build(game, [0.0, 0.25])
    root = walker.store.root()
    assert tr.project(0, root, 0) == 1
    assert tr.project(0, root, 1) == 1


def test_project_constant_marginal_carrier_takes_largest():
    game = exo_game((2.0, 2.0, 2.0, 2.0, 2.0))  # linear value, flat marginal carrier
    tr, walker, parts = build(game, [0.0, 0.5])
    root = walker.store.root()
    for s in (0, 1, 2):
        assert tr.project(0, root, s) == 2


def test_project_idempotent():
    game = exo_game(DOUBLEWELL_SLOPES)
    tr, walker, parts = build(game, [0.25, 0.25, 0.75, 0.75])
    root = walker.store.root()
    for s in range(5):
        once = tr.project(0, root, s)
        assert tr.project(0, root, once) == once


def test_delta_bar_zero_at_final_period(g1):
    tr, walker, parts = build(g1, [0.0, 0.25])
    nodes = walker.reachable_nodes(NOQUIT.plan())
    last = [n for n in nodes if n.t == 3][0]
    assert tr.delta_bar(0, last, 2) == 0.0


def test_delta_bar_exactly_zero_with_empty_off_region(g1):
    tr, walker, parts = build(g1)  # bottom singletons only: identity projections
    nodes = walker.reachable_nodes(NOQUIT.plan())
    for node in nodes:
        if node.t > 3:
            continue
        for s in range(5):
            assert tr.delta_bar(0, node, s) == 0.0


def test_delta_bar_matches_oracle_enumeration():
    game = exo_game(SHELF_SLOPES)
    tr, walker, parts = build(game, [0.0, 0.25])
    car = tr.carriers
    from offmenu.mechanism import Mechanism, ZeroCoupling, ZeroOffSwitch

    oracle = TreeOracle(game, Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3)),
                        store=walker.store)
    root = walker.store.root()
    plans = NOQUIT.plans(0, root)
    want = oracle.delta_bar(
        0, root, 2, plans,
        project=lambda i, t, s, node: tr.project(i, node, s),
        max_carrier=lambda i, node, s: car.mg(i, node, s),
        expected_next=lambda i, node, s, plan: car.expected_next_mg(i, node, s))
    got = tr.delta_bar(0, root, 2)
    assert got != 0.0  # the shelf instance has a genuinely nonzero premium
    assert got == pytest.approx(want, abs=1e-10)


def test_barrier_property_enumeration_and_sampled(shelf):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = shelf
    for s in range(5):
        assert transforms.barrier_violations(0, engine.root(), s) == []
    assert transforms.barrier_violations_mc(0, engine.root(), 0, 10_000, seed=4) == 0
