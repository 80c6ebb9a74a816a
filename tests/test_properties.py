"""Randomized structural invariants over seeded instance sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from offmenu.carrier import CarrierTables
from offmenu.equilibrium import Engine
from offmenu.histories import RegionConjecture
from offmenu.synthesis import synthesize_mechanism

from conftest import IDENTITY, random_g2_instance, random_instance

SEEDS = range(30)


def test_kernels_row_stochastic_and_cdf_monotone():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        game, mech, conj = random_instance(rng)
        for i in game.agents():
            grid = game.grid(i, 1)
            for j in range(grid.points):
                probs, _ = game.kernel(i, 2, grid.value(j), [{}])
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                cdf = np.cumsum(probs)
                assert (np.diff(cdf) >= -1e-15).all()


def test_menus_cover_every_state_with_a_generating_slot():
    for seed in SEEDS:
        rng = np.random.default_rng(100 + seed)
        game, mech, conj = random_instance(rng)
        engine = Engine(game, mech)
        root = engine.root()
        for i in game.agents():
            menu = engine.walker.menu(i, root)
            m = game.grid(i, 1).points
            seen = set()
            for pos, gens in enumerate(menu.generating_states):
                assert gens, "every menu slot has a generating state"
                seen.update(gens)
                for s in gens:
                    assert menu.action_index_of_state[s] == pos
            assert seen == set(range(m))


def test_quit_distributions_normalize_under_random_regions():
    for seed in SEEDS:
        rng = np.random.default_rng(200 + seed)
        game, mech, conj = random_instance(rng)
        regions = {}
        for i in game.agents():
            for t in game.periods():
                if rng.uniform() < 0.5:
                    k = int(rng.integers(0, game.grid(i, t).points))
                    regions[(i, t)] = frozenset({k})
        engine = Engine(game, mech)
        for i in game.agents():
            chi = engine.quit_distribution(i, engine.root(), regions)
            assert sum(chi.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= 0.0 for v in chi.values())


def test_carrier_anchor_and_branch_agreement_random():
    for seed in SEEDS:
        rng = np.random.default_rng(300 + seed)
        game = random_g2_instance(rng)
        mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
        root = carriers.walker.store.root()
        menu = carriers.walker.menu(0, root)
        for L in range(1, game.horizon + 1):
            assert carriers.carrier(0, root, 0, L) == 0.0
        for s in range(game.grid(0, 1).points):
            pos = menu.action_index_of_state[s]
            for L in range(1, game.horizon + 1):
                assert (carriers.impulse_response(0, root, s, L, pos)
                        == carriers.impulse_response(0, root, s, L))


def test_payoff_to_go_decomposition_random():
    for seed in SEEDS:
        rng = np.random.default_rng(400 + seed)
        game, mech, conj = random_instance(rng)
        engine = Engine(game, mech)
        root = engine.root()
        for i in game.agents():
            for s in range(game.grid(i, 1).points):
                stay, _ = engine.stay_value(i, root, s, conj)
                lam = engine.payoff_to_go(i, root, s, conj)
                assert lam == max(engine.phi_value(i, root, s), stay)


def test_premium_vanishes_with_empty_off_region_random():
    for seed in range(12):
        rng = np.random.default_rng(500 + seed)
        game = random_g2_instance(rng)
        mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
        engine = Engine(game, mech, walker=carriers.walker)
        for node in engine.walker.reachable_nodes(conj.plan()):
            for s in range(game.grid(0, node.t).points):
                assert transforms.delta_bar(0, node, s) == 0.0


def test_synthesized_conservation_identity_random():
    """Expected one-period utility equals the marginal carrier, instance by instance."""
    for seed in range(12):
        rng = np.random.default_rng(600 + seed)
        game = random_g2_instance(rng)
        mech, carriers, transforms, conj, diags = synthesize_mechanism(game, IDENTITY, "ir")
        engine = Engine(game, mech, walker=carriers.walker)
        root = engine.root()
        plan = conj.plan()
        for s in range(game.grid(0, 1).points):
            a, _ = engine.walker.own_action(0, root, s)
            z = 0.0
            for br in engine.walker.other_branches(0, root, plan):
                actions = dict(br.actions)
                actions[0] = a
                z += br.prob * (game.reward(0, 1, game.grid(0, 1).value(s), actions)
                                + mech.rho.value(0, root, actions))
            assert z == pytest.approx(carriers.marginal_carrier(0, root, s), abs=1e-12)
