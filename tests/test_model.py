"""Core model: grids, shocks, transitions, CDFs, rewards, support checks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from offmenu.closures import piecewise_quadratic
from offmenu.model import DynamicsModel, GameError, Grid, RewardModel, ShockModel
from offmenu.scenario import bundled_scenarios

from conftest import GRID5, make_game


def test_grid_snap_ties_to_larger_node():
    g = Grid(0.0, 1.0, 5)
    assert g.snap(0.125) == 1          # midpoint between 0 and 0.25
    assert g.snap(0.374) == 1
    assert g.snap(0.375) == 2
    assert g.snap(-3.0) == 0
    assert g.snap(7.0) == 4


def test_grid_validation():
    with pytest.raises(GameError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(GameError):
        Grid(1.0, 0.0, 5)
    with pytest.raises(GameError):
        GRID5.index_of(0.3)


def test_shock_model_validation():
    with pytest.raises(GameError):
        ShockModel((0.0, 1.0), (0.5, 0.6))
    with pytest.raises(GameError):
        ShockModel((0.0,), (-1.0,))
    sm = ShockModel.uniform([0.0, 1.0])
    assert sm.weights == (0.5, 0.5)
    with pytest.raises(GameError):
        sm.index_of(0.25)


def test_transition_zero_shock_identity(g1):
    # additive dynamics: zero shock returns the state unchanged
    assert g1.transition(0, 2, 0.5, [{}], 0.0) == 0.5


def test_transition_boundary_clamp(g1):
    assert g1.transition(0, 2, 1.0, [{}], 0.25) == 1.0


def test_transition_direct_closure_evaluation(g1):
    assert g1.transition(0, 2, 0.5, [{}], 0.25) == 0.75


def test_transition_rejects_unknown_shock_and_bad_history(g1):
    with pytest.raises(GameError):
        g1.transition(0, 2, 0.5, [{}], 0.1)
    with pytest.raises(GameError):
        g1.transition(0, 2, 0.5, [], 0.25)


def test_cdf_monotone_and_row_stochastic(g1):
    hist = [{}]
    for s in GRID5.values:
        probs, _ = g1.kernel(0, 2, float(s), hist)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        running = np.cumsum(probs)
        assert all(b >= a - 1e-15 for a, b in zip(running, running[1:]))


def test_reward_examples(g1):
    assert g1.reward(0, 1, 0.5, {0: 1.0}) == 0.5
    assert g1.reward(0, 1, 0.0, {0: 0.75}) == 0.0


def test_reward_action_independent_additive_separation(g2):
    # separable reward with a zero action part is action independent
    vals = {g2.reward(0, 1, 0.7, {0: a}) - 0.05 * a for a in (0.0, 0.5, 1.0)}
    assert len({round(v, 12) for v in vals}) == 1


def test_subset_closure_dynamics(g1):
    # dynamics evaluate for every participant subset
    for hist in ([{}], [{0: 0.5}]):
        g1.transition(0, 2, 0.5, hist, 0.0)


def test_full_support_uniform_kernel_passes():
    shock = ShockModel.uniform([0.0, 0.25, 0.5, 0.75, 1.0])
    game = make_game(shocks=shock,
                     dynamics=DynamicsModel(lambda i, t, s, h, om: om,
                                            lambda i, t, s, h, om: 0.0))
    assert game.validate_full_support(mode="strict").passed


def test_full_support_deterministic_fails_with_cells():
    game = make_game(shocks=ShockModel.uniform([0.0]))
    report = game.validate_full_support(mode="strict")
    assert not report.passed
    # every grid node misses all-but-one successor
    assert len(report.violations) == 2 * 5 * 4


def test_full_support_g1_relaxed(g1):
    strict = g1.validate_full_support(mode="strict")
    relaxed = g1.validate_full_support(mode="reachable")
    assert not strict.passed           # interior cells unreachable in one step
    assert relaxed.passed              # but the union of supports covers the grid


def test_determinism_identical_inputs(g1):
    a = g1.kernel(0, 2, 0.5, [{}])[0]
    b = g1.kernel(0, 2, 0.5, [{}])[0]
    assert (a == b).all()


def test_finite_difference_derivative_fallback():
    dyn = DynamicsModel(lambda i, t, s, h, om: 0.5 * s + om)  # no declared deriv
    game = make_game(dynamics=dyn)
    assert game.dkappa_ds(0, 2, 0.5, [{}], 0.0) == pytest.approx(0.5, abs=1e-9)
    rew = RewardModel(lambda i, t, s, a: s * s)
    game2 = make_game(rewards=rew)
    assert game2.du_ds(0, 1, 0.5, {0: 0.0}) == pytest.approx(1.0, abs=1e-9)


def _loop_value(shape, s):
    """``piecewise_quadratic.value`` re-adding every trapezoid below s, as it once did."""
    j = shape._cell(s)
    base = 0.0
    for k in range(j):
        base += 0.5 * (shape.slopes[k] + shape.slopes[k + 1]) * shape.grid.step
    ds = s - shape.grid.value(j)
    return base + shape.slopes[j] * ds + 0.5 * (shape.deriv(s) - shape.slopes[j]) * ds


def test_piecewise_quadratic_value_reads_the_running_trapezoid_sums():
    rng = np.random.default_rng(3)
    shapes = []
    for name in ("pair-churn", "double-well"):
        params = json.loads(bundled_scenarios()[name].read_text())["rewards"]["params"]
        g = params["grid"]
        shapes.append(piecewise_quadratic(Grid(g["lo"], g["hi"], g["points"]),
                                          tuple(params["slopes"])))
    for points in (2, 5, 9, 33):
        grid = Grid(float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.5, 2.0)), points)
        shapes.append(piecewise_quadratic(grid, tuple(rng.normal(0.0, 5.0, size=points))))
    for shape in shapes:
        grid = shape.grid
        points = [grid.value(k) for k in range(grid.points)]
        points += list(rng.uniform(grid.lo - grid.step, grid.hi + grid.step, size=200))
        for s in points:
            assert shape.value(s) == _loop_value(shape, s), (shape.slopes, s)
