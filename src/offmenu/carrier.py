"""Impulse responses and carrier tables derived from the task policy.

The impulse response measures the expected marginal effect of the current
state on cumulative rewards up to a cutoff period: a sum, along continuing
outcomes, of reward slopes weighted by running products of state-dynamic
slopes.  Carriers integrate the impulse response from the bottom state; the
maximum carrier takes the best cutoff, and the marginal carrier is the
one-period difference between the current and expected next maximum
carrier.

Carriers depend on the game, the task policy and the conjecture about
others' quitting; they are independent of the coupling and off-switch
parts of a mechanism.  Tables are built lazily and memoized per Markov
class of node (``Node.lump``), since every entry is a class function; the
expected-next-carrier helper here is the single implementation every
downstream identity (marginal carrier, expected-coupling synthesis, the
projected-process deviations) subtracts, which keeps those identities
exact in exact mode.
"""

from __future__ import annotations

import numpy as np

from .histories import Conjecture, Node, OppPlan, TreeWalker
from .model import GameError

__all__ = ["CarrierTables"]


class CarrierTables:
    """Lazily built q / g / Mg / zeta tables for one (game, policy, conjecture).

    Carriers are anchored at the bottom grid state, so they read as
    information rents relative to the lowest state.  They are read from
    running trapezoid sums, one column per (agent, node class, cutoff),
    extended lazily up to the largest state asked for.  A
    column adds the same terms in the same order as a fresh integral would,
    so a read equals a recomputation bit for bit, and impulse responses are
    still computed in increasing state order.
    """

    def __init__(self, walker: TreeWalker, conjecture: Conjecture):
        self.walker = walker
        self.game = walker.game
        self.conjecture = conjecture
        self._q: dict[tuple, float] = {}
        self._mg: dict[tuple, tuple[float, int]] = {}
        self._m: dict[tuple, float] = {}
        self._col: dict[tuple, list[float]] = {}

    # -- impulse response --------------------------------------------------------

    def impulse_response(self, i: int, node: Node, s_idx: int, L: int,
                         a_pos: int | None = None) -> float:
        """q(a | s, h, L): first action from ``a_pos`` (obedient when absent)."""
        if not node.t <= L <= self.game.horizon:
            raise GameError(f"cutoff {L} outside {node.t}..{self.game.horizon}")
        return sum(p * self._q_plan(i, node, s_idx, L, a_pos, plan)
                   for p, plan in self.conjecture.plans(i, node))

    def _q_plan(self, i: int, node: Node, s_idx: int, L: int,
                a_pos: int | None, plan: OppPlan) -> float:
        key = (i, node.lump, s_idx, L, a_pos, self.walker.plan_id(plan))
        hit = self._q.get(key)
        if hit is not None:
            return hit
        walker = self.walker
        a_own, a_idx = walker.own_action(i, node, s_idx, a_pos)
        s_val = self.game.grid(i, node.t).value(s_idx)
        total = 0.0
        for w, actions, br in walker.own_branches(i, node, ((1.0, plan),), a_own):
            term = self.game.du_ds(i, node.t, s_val, actions)
            if L > node.t:
                child = walker.child_after(i, node, s_idx, a_idx, br)
                for ws, j2, dk in walker.own_shock_branches(i, node, s_idx, child):
                    term += ws * dk * self._q_plan(i, child, j2, L, None, plan)
            total += w * term
        self._q[key] = total
        return total

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

    def carrier(self, i: int, node: Node, s_idx: int, L: int) -> float:
        """Trapezoid integral of the impulse response from the bottom state to ``s_idx``.

        The integrand is q at the policy's own action of each grid state.
        """
        key = (i, node.lump, L)
        run = self._col.get(key)
        if run is None:
            run = self._col[key] = [0.0]
        # run[k] integrates from the bottom state to k; extend only as far as asked
        if len(run) <= s_idx:
            step = self.game.grid(i, node.t).step
            j = len(run) - 1
            q_prev = self.impulse_response(i, node, j, L)
            total = run[-1]
            while j < s_idx:
                j += 1
                q = self.impulse_response(i, node, j, L)
                total += 0.5 * (q_prev + q) * step
                run.append(total)
                q_prev = q
        return run[s_idx]

    def max_carrier(self, i: int, node: Node, s_idx: int) -> tuple[float, int]:
        """(max over cutoffs of the carrier, argmax cutoff); ties take the largest cutoff."""
        key = (i, node.lump, s_idx)
        hit = self._mg.get(key)
        if hit is not None:
            return hit
        best, best_L = None, node.t
        for L in range(node.t, self.game.horizon + 1):
            v = self.carrier(i, node, s_idx, L)
            if best is None or v > best + 1e-15 or abs(v - best) <= 1e-15:
                if best is None or v > best + 1e-15:
                    best = v
                best_L = L
        out = (best, best_L)
        self._mg[key] = out
        return out

    def mg(self, i: int, node: Node, s_idx: int) -> float:
        return self.max_carrier(i, node, s_idx)[0]

    def expected_next_mg(self, i: int, node: Node, s_idx: int) -> float:
        """E[Mg at t+1] from (s, node) under obedient play; 0 past the horizon.

        This is the one implementation of the expectation that the marginal
        carrier, the expected-coupling identity and the projected-process
        deviations all subtract.
        """
        if node.t >= self.game.horizon:
            return 0.0
        key = (i, node.lump, s_idx)
        hit = self._m.get(key)
        if hit is not None:
            return hit
        total = 0.0
        for w, child, j2 in self.walker.next_states(i, node, s_idx,
                                                    self.conjecture.plans(i, node)):
            total += w * self.mg(i, child, j2)
        self._m[key] = total
        return total

    def marginal_carrier(self, i: int, node: Node, s_idx: int) -> float:
        """Current maximum carrier minus the expected next-period maximum carrier."""
        return self.mg(i, node, s_idx) - self.expected_next_mg(i, node, s_idx)

    def zeta_profile(self, i: int, node: Node) -> np.ndarray:
        m = self.game.grid(i, node.t).points
        return np.array([self.marginal_carrier(i, node, j) for j in range(m)])
