"""Impulse responses, carriers, maximum and marginal carriers."""

from __future__ import annotations

import numpy as np
import pytest

from offmenu.carrier import CarrierTables
from offmenu.histories import RegionConjecture, TreeWalker
from offmenu.mechanism import Mechanism, ZeroCoupling, ZeroOffSwitch
from offmenu.model import RewardModel
from offmenu.oracle import TreeOracle

from conftest import GRID5, IDENTITY, TrapezoidCarriers, make_game, random_instance

NOQUIT = RegionConjecture({})


def tables(game):
    walker = TreeWalker(game, IDENTITY)
    return CarrierTables(walker, NOQUIT), walker


def test_single_period_cutoff_is_expected_reward_slope(g1):
    # at the shortest cutoff the response is just E[du/ds]; the product is empty
    car, walker = tables(g1)
    root = walker.store.root()
    for s in range(5):
        want = GRID5.value(s)  # du/ds = own action = s under the identity policy
        assert car.impulse_response(0, root, s, 1) == pytest.approx(want, abs=1e-12)


def test_state_independent_reward_gives_zero_response():
    game = make_game(rewards=RewardModel(lambda i, t, s, a: a.get(i, 0.0),
                                         lambda i, t, s, a: 0.0))
    car, walker = tables(game)
    root = walker.store.root()
    for L in (1, 2, 3):
        assert car.impulse_response(0, root, 2, L) == 0.0


def test_unit_constants_response_counts_periods(g2):
    # unit state and persistence slopes: response = number of covered periods
    car, walker = tables(g2)
    root = walker.store.root()
    for s in range(5):
        for L in (1, 2, 3):
            assert car.impulse_response(0, root, s, L) == pytest.approx(L, abs=1e-12)


def test_response_matches_oracle_pathwise(g1):
    car, walker = tables(g1)
    mech = Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3))
    oracle = TreeOracle(g1, mech, store=walker.store)
    root = walker.store.root()
    plans = NOQUIT.plans(0, root)
    for s in range(5):
        for L in (1, 2, 3):
            got = car.impulse_response(0, root, s, L)
            want = oracle.impulse_response(0, root, s, L, plans)
            assert got == pytest.approx(want, abs=1e-10)


def test_carrier_empty_interval_is_zero(g1):
    car, walker = tables(g1)
    root = walker.store.root()
    assert car.carrier(0, root, 0, 2) == 0.0  # anchor defaults to the bottom node


def test_carrier_unit_constants_closed_form(g2):
    car, walker = tables(g2)
    root = walker.store.root()
    T = 3
    for s in range(5):
        want = T * (GRID5.value(s) - 0.0)
        assert car.carrier(0, root, s, T) == pytest.approx(want, abs=1e-12)


def test_carrier_branches_agree_at_obedient_action(g1):
    # the frozen-action branch of the impulse response, at the obedient slot
    car, walker = tables(g1)
    root = walker.store.root()
    menu = walker.menu(0, root)
    for s in range(5):
        pos = menu.action_index_of_state[s]
        for L in (1, 2, 3):
            assert (car.impulse_response(0, root, s, L, pos)
                    == car.impulse_response(0, root, s, L))


def test_anchor_vanishing_for_all_cutoffs(g1):
    car, walker = tables(g1)
    root = walker.store.root()
    for L in (1, 2, 3):
        assert car.carrier(0, root, 0, L) == 0.0


def test_max_carrier_nonnegative_response_prefers_latest(g2):
    car, walker = tables(g2)
    root = walker.store.root()
    for s in range(1, 5):
        _, argmax = car.max_carrier(0, root, s)
        assert argmax == 3


def test_max_carrier_terminal_singleton(g1):
    car, walker = tables(g1)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    last = [n for n in nodes if n.t == 3][0]
    val, argmax = car.max_carrier(0, last, 2)
    assert argmax == 3
    assert val == car.carrier(0, last, 2, 3)


def test_max_carrier_matches_exhaustive_scan_sign_changing():
    # per-period slopes +1, -2, +1 flip the response sign across cutoffs
    ms = [1.0, -2.0, 1.0]
    rew = RewardModel(lambda i, t, s, a: ms[t - 1] * s, lambda i, t, s, a: ms[t - 1])
    game = make_game(rewards=rew)
    car, walker = tables(game)
    root = walker.store.root()
    for s in range(5):
        got, argmax = car.max_carrier(0, root, s)
        scan = [car.carrier(0, root, s, L) for L in (1, 2, 3)]
        assert got == pytest.approx(max(scan), abs=1e-12)
        best = max(range(3), key=lambda k: (round(scan[k], 12), k)) + 1
        assert argmax == best


def test_marginal_carrier_terminal_equals_max_carrier(g1):
    car, walker = tables(g1)
    nodes = walker.reachable_nodes(NOQUIT.plan())
    last = [n for n in nodes if n.t == 3][0]
    for s in range(5):
        assert car.marginal_carrier(0, last, s) == car.mg(0, last, s)


def test_marginal_carrier_deterministic_dynamics(g2):
    # identity dynamics: the expectation degenerates to the next-period value
    car, walker = tables(g2)
    root = walker.store.root()
    plan = NOQUIT.plan()
    for s in range(5):
        a, a_idx = walker.own_action(0, root, s)
        br = list(walker.other_branches(0, root, plan))[0]
        child = walker.child_after(0, root, s, a_idx, br)
        want = car.mg(0, root, s) - car.mg(0, child, s)
        assert car.marginal_carrier(0, root, s) == pytest.approx(want, abs=1e-12)


def test_marginal_carrier_vs_enumerated_shock_expectation(g1):
    car, walker = tables(g1)
    root = walker.store.root()
    plan = NOQUIT.plan()
    for s in range(5):
        a, a_idx = walker.own_action(0, root, s)
        br = list(walker.other_branches(0, root, plan))[0]
        child = walker.child_after(0, root, s, a_idx, br)
        exp = sum(p * car.mg(0, child, j) for p, j in walker.own_kernel(0, child, s))
        assert car.marginal_carrier(0, root, s) == pytest.approx(
            car.mg(0, root, s) - exp, abs=1e-12)


def test_interchange_of_max_and_integral_on_separable_instance(g2):
    # nonnegative, cutoff-ordered responses: max of integrals == integral of max
    car, walker = tables(g2)
    root = walker.store.root()
    step = GRID5.step
    for s in range(5):
        direct = max(car.carrier(0, root, s, L) for L in (1, 2, 3))
        qmax = [max(car.impulse_response(0, root, j, L) for L in (1, 2, 3))
                for j in range(s + 1)]
        integral = sum(0.5 * (a + b) * step for a, b in zip(qmax, qmax[1:]))
        assert direct == pytest.approx(integral, abs=1e-12)


def test_response_bound_from_declared_constants(g2):
    car, walker = tables(g2)
    root = walker.store.root()
    bound = car.impulse_bound(0, 1)
    assert bound == pytest.approx(3.0)  # unit constants, three periods
    for s in range(5):
        for L in (1, 2, 3):
            assert abs(car.impulse_response(0, root, s, L)) <= bound + 1e-12


def test_response_bound_requires_declared_constants(g1):
    car, walker = tables(g1)
    assert car.impulse_bound(0, 1) is None


@pytest.mark.parametrize("seed", range(10))
def test_carrier_columns_equal_trapezoid_loop_on_random_instances(seed):
    """Column reads equal a fresh integral bit for bit, in any query order; the
    impulse responses and nodes they compute appear in the same order."""
    rng = np.random.default_rng(seed)
    game, mech, conj = random_instance(rng)
    car = CarrierTables(TreeWalker(game, IDENTITY), conj)
    ref = TrapezoidCarriers(TreeWalker(game, IDENTITY), conj)
    nodes = car.walker.reachable_nodes(conj.plan())
    ref_nodes = ref.walker.reachable_nodes(conj.plan())
    queries = []
    for k, node in enumerate(nodes):
        for i in node.active:
            for s in range(game.grid(i, node.t).points):
                queries += [(k, i, s, L) for L in range(node.t, game.horizon + 1)]
    for n in rng.permutation(len(queries)):
        k, i, s, L = queries[n]
        got = car.carrier(i, nodes[k], s, L)
        assert got == ref.carrier(i, ref_nodes[k], s, L)
        assert got == car.carrier(i, nodes[k], s, L)
    assert list(car._q) == list(ref._q)
    store, ref_store = car.walker.store, ref.walker.store
    assert ([store.node(k).signature() for k in range(len(store))]
            == [ref_store.node(k).signature() for k in range(len(ref_store))])
