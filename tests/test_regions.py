"""Partitions, monotone detection and the essential-region properties of synthesized mechanisms."""

from __future__ import annotations

import json

import numpy as np
import pytest

from offmenu.histories import RegionConjecture, TreeWalker, live_cells
from offmenu.carrier import CarrierTables
from offmenu.mechanism import BoundaryProfile
from offmenu.model import GameError, ShockModel, DynamicsModel, RewardModel
from offmenu.persistence import PersistenceTransforms
from offmenu.regions import _cdf_matrix, detect_monotone, partition_from_boundary
from offmenu.scenario import bundled_scenarios, load_scenario

from conftest import GRID5, IDENTITY, make_game

NOQUIT = RegionConjecture({})


def test_partition_bottom_singleton():
    part = partition_from_boundary(GRID5, BoundaryProfile.from_flat([0.0, 0.0]))
    assert part.sub_off == ((0, 0),)
    assert part.sub_on == ((1, 4),)
    assert part.off_indices == frozenset({0})


def test_partition_whole_space():
    part = partition_from_boundary(GRID5, BoundaryProfile.from_flat([0.0, 1.0]))
    assert part.sub_off == ((0, 4),)
    assert part.sub_on == ()


def test_partition_two_pairs_interval_arithmetic():
    part = partition_from_boundary(GRID5, BoundaryProfile.from_flat([0.25, 0.25, 0.75, 0.75]))
    assert part.sub_off == ((1, 1), (3, 3))
    assert part.sub_on == ((0, 0), (2, 2), (4, 4))
    assert part.intervals() == [(0, 0, "on", 0), (1, 1, "off", 0), (2, 2, "on", 1),
                                (3, 3, "off", 1), (4, 4, "on", 2)]
    assert part.full_cover


def test_partition_rejects_disorder_and_overlap():
    with pytest.raises(GameError):
        BoundaryProfile.from_flat([0.5, 0.25])
    with pytest.raises(GameError):
        partition_from_boundary(GRID5, BoundaryProfile.from_flat([0.0, 0.5, 0.25, 0.75]))


def test_partition_interval_lookup():
    part = partition_from_boundary(GRID5, BoundaryProfile.from_flat([0.25, 0.5]))
    assert part.interval_of(1) == ("off", 0)
    assert part.interval_of(0) == ("on", 0)
    assert part.interval_of(4) == ("on", 1)
    assert [part.global_interval_index(j) for j in range(5)] == [0, 1, 1, 2, 2]


def test_detect_monotone_pass_and_orientation(monotone_ir):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = monotone_ir
    rep = detect_monotone(carriers, nodes)
    assert rep.passed
    assert rep.orientation == "increasing"


def test_detect_monotone_fosd_violation_witness():
    dyn = DynamicsModel(lambda i, t, s, h, om: 1.0 - s + 0.0 * om,
                        lambda i, t, s, h, om: -1.0)
    game = make_game(shocks=ShockModel.uniform([0.0]), dynamics=dyn,
                     rewards=RewardModel(lambda i, t, s, a: s, lambda i, t, s, a: 1.0))
    walker = TreeWalker(game, IDENTITY)
    car = CarrierTables(walker, NOQUIT)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    rep = detect_monotone(car, nodes)
    assert not rep.passed
    assert rep.witness is not None


def test_membership_h_mode(doublewell):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = doublewell
    for node in nodes:
        W = [transforms.total(0, node, s) for s in range(5)]
        part = parts[(0, node.t)]
        outside = [j for j in range(5) if j not in part.off_indices]
        # each off interval peaks at its projection target, which everything outside dominates
        for b, (lo, hi) in enumerate(part.sub_off):
            pt = transforms.d_up(0, node, b)
            assert all(W[pt] >= W[j] - 1e-9 for j in range(lo, hi + 1))
            assert all(W[j] >= W[pt] - 1e-9 for j in outside)


def test_membership_k_mode(shelf_knowledgeable):
    mech, carriers, transforms, conj, engine, nodes, parts, diags = shelf_knowledgeable
    root = engine.root()
    part = parts[(0, 1)]
    W = [transforms.total(0, root, s) for s in range(5)]
    # off intervals: the projection target dominates inside
    for b, (lo, hi) in enumerate(part.sub_off):
        pt = transforms.d_up(0, root, b)
        assert all(W[pt] >= W[j] - 1e-12 for j in range(lo, hi + 1))
    # on intervals: the jump target is dominated inside (marginal-carrier minimum)
    for e, (lo, hi) in enumerate(part.sub_on):
        pt = transforms.d_down(0, root, e)
        assert all(W[j] >= W[pt] - 1e-12 for j in range(lo, hi + 1))


def test_monotone_shortcut_every_bottom_interval_essential(monotone_game):
    """On a verified monotone environment every bottom interval certifies."""
    walker = TreeWalker(monotone_game, IDENTITY)
    car = CarrierTables(walker, NOQUIT)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    rep = detect_monotone(car, nodes)
    assert rep.passed
    root = walker.store.root()
    for j in range(5):
        prof = BoundaryProfile(((0.0, GRID5.value(j)),))
        parts = {(0, t): partition_from_boundary(GRID5, prof) for t in (1, 2, 3)}
        tr = PersistenceTransforms(car, parts)
        W = [tr.total(0, root, s) for s in range(5)]
        # some point of the bottom interval [0, j] peaks inside it and is dominated above it
        assert any(all(W[pt] >= W[k] - 1e-9 for k in range(j + 1))
                   and all(W[k] >= W[pt] - 1e-9 for k in range(j + 1, 5))
                   for pt in range(j + 1)), j


def test_detect_monotone_on_clamped_additive_follows_tables(g1):
    """The first-order-dominance side holds for the clamped additive kernel;
    the overall verdict then reduces to the marginal-carrier table's shape."""
    walker = TreeWalker(g1, IDENTITY)
    car = CarrierTables(walker, NOQUIT)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    rep = detect_monotone(car, nodes)
    zeta_rows = [car.zeta_profile(0, n) for n in nodes if n.t <= 3]
    nondecreasing = all((z[1:] >= z[:-1] - 1e-9).all() for z in zeta_rows)
    assert rep.passed == nondecreasing
    if not rep.passed:
        assert rep.witness["kind"] == "zeta"  # the kernel side cannot be the witness


def test_cdf_rows_read_the_record_of_the_menu_action_played_at_each_state():
    """Under action feedback, row j of a period-t CDF matrix is the kernel
    row of the walker's transition record at the child after agent i plays
    its menu action at state j: t records, the last one that action."""
    raw = {**json.loads(bundled_scenarios()["subscription"].read_text()),
           "dynamics": {"kind": "action_feedback", "params": {"beta": 0.25, "scale": 0.5}}}
    scenario = load_scenario(raw)
    game = scenario.build_game()
    walker = TreeWalker(game, scenario.build_policy())
    plan = NOQUIT.plan()
    rows = moved = 0
    for i, node in live_cells(walker.reachable_nodes(plan)):
        if node.t == game.horizon:
            continue
        cdf = _cdf_matrix(walker, i, node)
        history = walker.store.history(node)
        for j in range(game.grid(i, node.t).points):
            a, a_idx = walker.own_action(i, node, j)
            for _, _, br in walker.own_branches(i, node, ((1.0, plan),), a):
                child = walker.child_after(i, node, j, a_idx, br)
                row = np.zeros(game.grid(i, child.t).points)
                for p, s2 in walker.own_kernel(i, child, j):
                    row[s2] = p
                assert np.array_equal(cdf[j], np.cumsum(row)), (node.key, j)
                rows += 1
            # the t - 1 records alone give another row: the instance tells them apart
            stale, _ = game.kernel(i, node.t + 1, game.grid(i, node.t).value(j), history)
            moved += not np.array_equal(cdf[j], np.cumsum(stale))
    assert rows > 0 and moved > 0
