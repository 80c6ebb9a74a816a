"""Impulse responses and carrier tables derived from the task policy.

The impulse response measures the expected marginal effect of the current
state on cumulative rewards up to a cutoff period: a sum, along continuing
outcomes, of reward slopes weighted by running products of state-dynamic
slopes.  Carriers integrate the impulse response from an anchor state; the
maximum carrier takes the best cutoff, and the marginal carrier is the
one-period difference between the current and expected next maximum
carrier.

Carriers depend on the game, the task policy and the conjecture about
others' quitting; they are independent of the coupling and off-switch
parts of a mechanism.  Tables are built lazily and memoized per node; the
expected-next-carrier helper here is the single implementation every
downstream identity (marginal carrier, expected-coupling synthesis, the
projected-process deviations) subtracts, which keeps those identities
exact in exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .histories import Conjecture, Node, OppPlan, TreeWalker
from .model import GameError
from .sampling import PathSampler

__all__ = ["CarrierTables"]


@dataclass(frozen=True)
class _Key:
    agent: int
    node: int
    state: int


class CarrierTables:
    """Lazily built q / g / Mg / zeta tables for one (game, policy, conjecture).

    ``theta`` maps (agent, period) to the anchor state index; it defaults to
    the bottom grid node, which makes carriers read as information rents
    relative to the lowest state.

    Carriers above the anchor are read from running trapezoid sums, one
    column per (agent, node, cutoff, frozen action), extended lazily up to
    the largest state asked for.  A column adds the same terms in the same
    order as a fresh integral would, so a read equals a recomputation
    bit for bit, and impulse responses are still computed in increasing
    state order.
    """

    def __init__(self, walker: TreeWalker, conjecture: Conjecture,
                 theta: Mapping[tuple[int, int], int] | None = None):
        self.walker = walker
        self.game = walker.game
        self.conjecture = conjecture
        self.theta = dict(theta or {})
        self._q: dict[tuple, float] = {}
        self._mg: dict[tuple, tuple[float, int]] = {}
        self._m: dict[tuple, float] = {}
        self._col: dict[tuple, list[float]] = {}

    # -- helpers ---------------------------------------------------------------

    def theta_index(self, i: int, t: int) -> int:
        return self.theta.get((i, t), 0)

    def _pid(self, plan: OppPlan) -> int:
        return self.walker.plan_id(plan)

    def _plans(self, i: int, node: Node):
        return self.conjecture.plans(i, node)

    # -- impulse response --------------------------------------------------------

    def impulse_response(self, i: int, node: Node, s_idx: int, L: int,
                         a_pos: int | None = None) -> float:
        """q(a | s, h, L): first action from ``a_pos`` (obedient when absent)."""
        if not node.t <= L <= self.game.horizon:
            raise GameError(f"cutoff {L} outside {node.t}..{self.game.horizon}")
        return sum(p * self._q_plan(i, node, s_idx, L, a_pos, plan)
                   for p, plan in self._plans(i, node))

    def _q_plan(self, i: int, node: Node, s_idx: int, L: int,
                a_pos: int | None, plan: OppPlan) -> float:
        key = (i, node.key, s_idx, L, a_pos, self._pid(plan))
        hit = self._q.get(key)
        if hit is not None:
            return hit
        walker = self.walker
        menu = walker.menu(i, node)
        if a_pos is None:
            a_own = menu.actions[menu.action_index_of_state[s_idx]]
        else:
            a_own = menu.actions[a_pos]
        a_idx = self.game.action_grids[(i, node.t)].index_of(a_own, tol=1e-6)
        s_val = self.game.grid(i, node.t).value(s_idx)
        total = 0.0
        for br in walker.other_branches(i, node, plan):
            actions = dict(br.actions)
            actions[i] = a_own
            term = self.game.du_ds(i, node.t, s_val, actions)
            if L > node.t:
                child = walker.child_after(i, node, s_idx, a_idx, br)
                for w, _omega, j2, dk in walker.own_shock_branches(i, node, s_idx, child):
                    term += w * dk * self._q_plan(i, child, j2, L, None, plan)
            total += br.prob * term
        self._q[key] = total
        return total

    def q_profile(self, i: int, node: Node, s_idx: int, a_pos: int | None = None) -> np.ndarray:
        """Impulse responses for all cutoffs node.t..T as one array."""
        T = self.game.horizon
        return np.array([self.impulse_response(i, node, s_idx, L, a_pos)
                         for L in range(node.t, T + 1)])

    def impulse_response_mc(self, i: int, node: Node, s_idx: int, samples: int,
                            seed: int, a_pos: int | None = None) -> np.ndarray:
        """Sampled impulse responses for every cutoff at once.

        Each sample draws one path of others' states and own shocks and reads
        off the running slope-product partial sums, so estimates across
        cutoffs share draws (common random numbers).
        """
        game = self.game
        n = game.horizon - node.t + 1
        samples = max(1, samples)
        sums = [0.0] * n

        def slope(cur: Node, s: int, actions: dict) -> float:
            return game.du_ds(i, cur.t, game.grid(i, cur.t).value(s), actions)

        paths = PathSampler(self.walker, i, self._plans(i, node), np.random.default_rng(seed),
                            samples * 2 * n, a_pos, slope, self.walker.own_shock_branches)
        for _ in range(samples):
            slot = paths.plan()
            cur, s, mp, acc = node, s_idx, 1.0, 0.0
            for k in range(n):
                step = paths.step(slot, cur, s, k == 0)
                acc += step.value * mp
                sums[k] += acc
                if k == n - 1:
                    break
                j = paths.transition(cur, s, step)
                _, _omega, j2, dk = step.outcomes[j]
                mp *= dk
                cur, s = step.child, j2
        return np.array(sums) / samples

    def impulse_bound(self, i: int, t: int) -> float | None:
        """Declared-constant bound: sum of reward slopes times running dynamic slopes."""
        total = 0.0
        for k in range(t, self.game.horizon + 1):
            c = self.game.lipschitz_reward(i, k)
            if c is None:
                return None
            prod = 1.0
            for t2 in range(t + 1, k + 1):
                chat = self.game.lipschitz_dynamics(i, t2)
                if chat is None:
                    return None
                prod *= chat
            total += c * prod
        return total

    # -- carriers -----------------------------------------------------------------

    def carrier(self, i: int, node: Node, s_idx: int, L: int,
                a_pos: int | None = None) -> float:
        """Trapezoid integral of the impulse response from the anchor to ``s_idx``.

        Obedient branch integrates q at the policy's own action of each grid
        state; a fixed ``a_pos`` freezes the first action along the whole
        integration range (the disobedience branch).  When the frozen action
        is the obedient one at ``s_idx`` the obedient branch applies, exactly.
        """
        if a_pos is not None:
            menu = self.walker.menu(i, node)
            if menu.action_index_of_state[s_idx] == a_pos:
                a_pos = None
        j0 = self.theta_index(i, node.t)
        if j0 == s_idx:
            return 0.0
        step = self.game.grid(i, node.t).step
        if s_idx < j0:
            qs = [self.impulse_response(i, node, j, L, a_pos) for j in range(s_idx, j0 + 1)]
            total = 0.0
            for a, b in zip(qs, qs[1:]):
                total += 0.5 * (a + b) * step
            return -total
        key = (i, node.key, L, a_pos)
        run = self._col.get(key)
        if run is None:
            run = self._col[key] = [0.0]
        # run[k] integrates from the anchor to j0 + k; extend only as far as asked
        if len(run) <= s_idx - j0:
            j = j0 + len(run) - 1
            q_prev = self.impulse_response(i, node, j, L, a_pos)
            total = run[-1]
            while j < s_idx:
                j += 1
                q = self.impulse_response(i, node, j, L, a_pos)
                total += 0.5 * (q_prev + q) * step
                run.append(total)
                q_prev = q
        return run[s_idx - j0]

    def max_carrier(self, i: int, node: Node, s_idx: int,
                    a_pos: int | None = None) -> tuple[float, int]:
        """(max over cutoffs of the carrier, argmax cutoff); ties take the largest cutoff."""
        key = (i, node.key, s_idx, a_pos)
        hit = self._mg.get(key)
        if hit is not None:
            return hit
        best, best_L = None, node.t
        for L in range(node.t, self.game.horizon + 1):
            v = self.carrier(i, node, s_idx, L, a_pos)
            if best is None or v > best + 1e-15 or abs(v - best) <= 1e-15:
                if best is None or v > best + 1e-15:
                    best = v
                best_L = L
        out = (best, best_L)
        self._mg[key] = out
        return out

    def mg(self, i: int, node: Node, s_idx: int, a_pos: int | None = None) -> float:
        return self.max_carrier(i, node, s_idx, a_pos)[0]

    def expected_next_mg(self, i: int, node: Node, s_idx: int) -> float:
        """E[Mg at t+1] from (s, node) under obedient play; 0 past the horizon.

        This is the one implementation of the expectation that the marginal
        carrier, the expected-coupling identity and the projected-process
        deviations all subtract.
        """
        if node.t >= self.game.horizon:
            return 0.0
        key = (i, node.key, s_idx)
        hit = self._m.get(key)
        if hit is not None:
            return hit
        walker = self.walker
        a_own, a_idx = walker.obedient_action(i, node, s_idx)
        total = 0.0
        for p, plan in self._plans(i, node):
            for br in walker.other_branches(i, node, plan):
                child = walker.child_after(i, node, s_idx, a_idx, br)
                for pp, j2 in walker.own_kernel(i, node, s_idx, child):
                    total += p * br.prob * pp * self.mg(i, child, j2)
        self._m[key] = total
        return total

    def marginal_carrier(self, i: int, node: Node, s_idx: int) -> float:
        """Current maximum carrier minus the expected next-period maximum carrier."""
        return self.mg(i, node, s_idx) - self.expected_next_mg(i, node, s_idx)

    def zeta_profile(self, i: int, node: Node) -> np.ndarray:
        m = self.game.grid(i, node.t).points
        return np.array([self.marginal_carrier(i, node, j) for j in range(m)])
