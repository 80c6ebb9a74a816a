"""Agent-side equilibrium engine: prospects, on-rents, best responses.

The engine evaluates, by memoized recursion over the exact game tree, the
prospect of staying through a given period and then quitting, the interim
payoff-to-go (the better of quitting now and the best staying plan), the
induced quit-time distributions, the off-menu fixed point, and seeded
outcome simulations.

The prospect table has two parts, split by who reads them.  ``_g`` holds
one obedient entry per cell (agent, history class, state, opponent plan):
the tuple of the cell's prospects for every plan index L = t..T, built in
one backward recursion, so a staying value reads its max over plans from
one entry.  The recursion reads only these, since continuation play is
obedient.  ``_rows`` holds, per cell, one such tuple per menu slot played
first: every check of a one-shot deviation compares the obedient action
with the whole menu, so a row is filled by one ``_step`` call at the first
deviation read of its cell.  Its obedient slot is the ``_g`` entry.  At
period T a prospect is the expected one-period flow, and the row is built
branch by branch, every slot's flow added per branch; before T the slots
are walked in menu order, the order in which their children intern.
Each slot and each L is summed with the same float operations in the same
order as a recursion for that slot and L alone.

Semantics pinned here and shared with the carrier/persistence machinery:

* A prospect with plan index L collects single-period utilities from the
  current period through L and the off-switch value of period L+1 (zero
  past the horizon).  The planned quit period is therefore L+1; quitting
  immediately is the separate off-switch branch of the payoff-to-go.
* Deviations are one-shot: an alternative first action (equivalently, a
  pretended state) is followed by obedient play.
* Opponents behave per a conjecture: either the region rule induced by the
  principal-desired off regions, or an explicit quit-profile distribution.
* Zero on-rent ties are resolved by the principal's directive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .histories import (
    Conjecture,
    Node,
    NodeStore,
    OppPlan,
    ProfileConjecture,
    RegionPlan,
    TreeWalker,
)
from .mechanism import Mechanism
from .model import BaseGame, GameError, check_samples
from .sampling import PathSampler, inverse_cdf_draws

__all__ = ["Engine", "BestResponse", "FixedPointResult", "EmpiricalOutcome", "TreeSizeError"]

TIE_TOL = 1e-9           # values this close count as tied (plans, actions, the on-rent sign)
FIXED_POINT_TOL = 1e-8   # sup-norm residual at which the off-menu fixed point has converged
FIXED_POINT_DAMPING = 0.5
FIXED_POINT_MAX_ITER = 10_000


class TreeSizeError(GameError):
    """The exact prospect table exceeded its entry budget."""


@dataclass(frozen=True)
class BestResponse:
    om: int
    action: float | None
    quit_period: int          # T+1 encodes never quit
    value: float
    on_rent: float


@dataclass
class FixedPointResult:
    marginals: dict[int, dict[int, float]]
    residual: float
    iterations: int
    converged: bool
    residual_history: list[float]
    matches_chi: bool | None = None
    chi: dict[int, dict[int, float]] | None = None


@dataclass
class EmpiricalOutcome:
    n_paths: int
    seed: int
    quit_freq: dict[tuple[int, int], float]      # (agent, period) -> fraction of paths
    never_quit_freq: dict[int, float]
    state_hist: dict[tuple[int, int, int], int]  # (agent, period, state idx) -> visits
    action_hist: dict[tuple[int, int, int], int]
    mean_payoff: dict[int, float]


class Engine:
    """Memoized recursive evaluator for one (game, mechanism) pair.

    ``memo_budget`` caps the prospect table in entries: each obedient entry
    and each slot of a deviation row is one, and holds every plan index of
    its cell.
    """

    def __init__(self, game: BaseGame, mechanism: Mechanism, *,
                 walker: TreeWalker | None = None,
                 directive_quit: Callable[[int, int, int], bool] | None = None,
                 memo_budget: int = 4_000_000):
        self.game = game
        self.mechanism = mechanism
        self.walker = walker if walker is not None else TreeWalker(game, mechanism.sigma)
        self.directive_quit = directive_quit or (lambda i, t, s_idx: False)
        self.memo_budget = memo_budget
        self._g: dict[tuple, tuple[float, ...]] = {}
        self._rows: dict[tuple, tuple[tuple[float, ...], ...]] = {}
        self._row_slots = 0
        self._markov = mechanism.rho.markov and mechanism.phi.markov

    # -- plumbing -----------------------------------------------------------

    @property
    def store(self) -> NodeStore:
        return self.walker.store

    def root(self) -> Node:
        return self.store.root()

    def memo_key(self, node: Node) -> int:
        """Node id for memos of mechanism values: the Markov class when the
        coupling and off-switch are class functions, else the full history."""
        return node.lump if self._markov else node.key

    def _guard(self, new: int = 1) -> None:
        """Raise unless the table has room for ``new`` more entries."""
        if len(self._g) + self._row_slots + new > self.memo_budget:
            raise TreeSizeError(
                f"exact prospect table exceeds its budget of {self.memo_budget} entries; an "
                "entry is one cell (agent, history class, state, opponent plan) with one first "
                "action and holds the prospects of every plan index; the obedient entries are "
                "filled by the checks doic (exact mode), payoff_flow, transform, fixed_point, "
                "envelope, mso and phi_uniqueness and the on_rent.csv export, and the "
                "deviation rows, one entry per menu slot, by doic, payoff_flow, envelope and "
                "fixed_point, so only leaving those out, a shorter horizon or fewer grid "
                "points (states and menu slots) shrink it")

    def flow(self, i: int, node: Node, s_idx: int, actions: Mapping[int, float],
             pos: int) -> float:
        """Agent i's one-period payoff flow, playing menu slot ``pos`` of the
        profile ``actions``: intrinsic reward plus coupling."""
        s_val = self.game.grid(i, node.t).value(s_idx)
        return (self.game.reward(i, node.t, s_val, actions)
                + self.mechanism.rho.value_at_slot(i, node, pos, actions))

    def phi_value(self, i: int, node: Node, s_idx: int | None = None) -> float:
        return self.mechanism.phi.value(i, node, s_idx)

    # -- prospect (plan semantics) -------------------------------------------

    def prospect(self, i: int, node: Node, s_idx: int, L: int, x: Conjecture,
                 a_pos: int | None = None) -> float:
        """Expected utilities from node.t through L plus the period-(L+1) off-switch.

        ``a_pos`` selects a first action from the menu (one-shot deviation);
        obedient play when absent.  Continuation actions are always obedient.
        """
        if not node.t <= L <= self.game.horizon:
            raise GameError(f"plan index {L} outside {node.t}..{self.game.horizon}")
        return self.prospects(i, node, s_idx, x, a_pos)[L - node.t]

    def prospects(self, i: int, node: Node, s_idx: int, x: Conjecture,
                  a_pos: int | None = None) -> Sequence[float]:
        """The prospects of every plan index L = node.t..T, entry L - node.t.

        With ``a_pos`` this is slot ``a_pos`` of ``slot_prospects``.
        """
        if a_pos is not None:
            return self.slot_prospects(i, node, s_idx, x)[a_pos]
        plans = x.plans(i, node)
        if len(plans) == 1 and plans[0][0] == 1.0:
            # a sure plan's entry is the sum: entries start at +0.0, so none is
            # -0.0 and 0.0 + 1.0 * v is v, bit for bit
            plan = plans[0][1]
            return self._g_plan(i, node, s_idx, plan, self.walker.plan_id(plan))
        total = [0.0] * (self.game.horizon - node.t + 1)
        for p, plan in plans:
            vec = self._g_plan(i, node, s_idx, plan, self.walker.plan_id(plan))
            total = [acc + p * v for acc, v in zip(total, vec)]
        return total

    def slot_prospects(self, i: int, node: Node, s_idx: int,
                       x: Conjecture) -> Sequence[Sequence[float]]:
        """``prospects`` of every menu slot played first, in menu order.

        Each slot is combined over plans with the float operations of
        ``prospects``; a sure plan's result is its row.
        """
        plans = x.plans(i, node)
        rows = self._rows_of(i, node, s_idx, plans)
        if len(plans) == 1 and plans[0][0] == 1.0:
            return rows[0]
        n = self.game.horizon - node.t + 1
        totals = [[0.0] * n for _ in rows[0]]
        for (p, _), row in zip(plans, rows):
            totals = [[acc + p * v for acc, v in zip(total, vec)]
                      for total, vec in zip(totals, row)]
        return totals

    def _g_plan(self, i: int, node: Node, s_idx: int, plan: OppPlan,
                plan_id: int) -> tuple[float, ...]:
        """One plan's obedient prospects for L = node.t..T, memoized per cell."""
        # memo_key inlined: most reads are hits, so the hit path is the key and one get
        hit = self._g.get((i, node.lump if self._markov else node.key, s_idx, plan_id))
        if hit is not None:
            return hit
        return self._step(i, node, s_idx, (self.walker.own_slot(i, node, s_idx),), plan,
                          plan_id)[0]

    def _rows_of(self, i: int, node: Node, s_idx: int,
                 plans: Sequence[tuple[float, OppPlan]]) -> list[tuple[tuple[float, ...], ...]]:
        """Each plan's row: its prospects of every menu slot played first.

        A row's obedient slot is the cell's ``_g`` entry; every other slot is
        a one-shot deviation followed by obedient play.  One missing row is
        filled by one ``_step`` call over the whole menu.  Several are filled
        slot by slot in menu order, each slot over the plans in turn, so
        nodes intern in the order of one read per (slot, plan).
        """
        memo_id = node.lump if self._markov else node.key
        keys = [(i, memo_id, s_idx, self.walker.plan_id(plan)) for _, plan in plans]
        rows = [self._rows.get(key) for key in keys]
        if None in rows:
            slots = range(len(self.walker.menu(i, node).actions))
            todo = {key[3]: plan for key, (_, plan), row in zip(keys, plans, rows) if row is None}
            # the new slots count before they are filled, so the entries their
            # deviations open find the table as full as it will be
            new = len(slots) * len(todo)
            self._guard(new)
            self._row_slots += new
            if len(todo) == 1:
                (pid, plan), = todo.items()
                filled = self._step(i, node, s_idx, slots, plan, pid)
            else:
                filled = [self._step(i, node, s_idx, (pos,), plan, pid)[0]
                          for pos in slots for pid, plan in todo.items()]
            for k, pid in enumerate(todo):
                self._rows[(i, memo_id, s_idx, pid)] = tuple(filled[k::len(todo)])
            rows = [self._rows[key] for key in keys]
        return rows

    def _step(self, i: int, node: Node, s_idx: int, slots: Sequence[int], plan: OppPlan,
              plan_id: int) -> list[tuple[float, ...]]:
        """Prospects for L = node.t..T of playing each menu slot in ``slots``
        now, then obediently, in the order of ``slots``.

        The obedient slot is the cell's ``_g`` entry: read when present, else
        computed here and kept.  Entry 0 ends with the off-switch at the
        children; entry k >= 1 ends with entry k - 1 of the children's
        obedient prospects.  Each slot and entry takes the same float
        operations, in the same order, as a recursion for it alone.

        At period T a prospect is the expected flow, since quitting after the
        horizon pays 0: one ``own_branches`` pass adds every slot's flow
        branch by branch.  Before T the slots are walked one after another,
        because ``child_after`` interns the children in that order.
        """
        menu = self.walker.menu(i, node)
        obedient = menu.action_index_of_state[s_idx]
        g_key = (i, node.lump if self._markov else node.key, s_idx, plan_id)
        todo = [pos for pos in slots if pos != obedient or g_key not in self._g]
        n = self.game.horizon - node.t + 1
        if n == 1:
            if obedient in todo:
                self._guard()
            sums = [0.0] * len(todo)
            for w, actions, _ in self.walker.own_branches(i, node, ((1.0, plan),),
                                                          menu.actions[obedient]):
                for k, pos in enumerate(todo):
                    actions[i] = menu.actions[pos]
                    sums[k] += w * (self.flow(i, node, s_idx, actions, pos) + 0.0)
            filled = {pos: (v,) for pos, v in zip(todo, sums)}
            if obedient in filled:
                self._g[g_key] = filled[obedient]
        else:
            phi = self.mechanism.phi
            interval_keyed = phi.state_dependent()
            filled = {}
            for pos in todo:
                if pos == obedient:
                    self._guard()
                a_own, a_own_idx = menu.actions[pos], menu.grid_indices[pos]
                total = [0.0] * n
                for w, actions, br in self.walker.own_branches(i, node, ((1.0, plan),), a_own):
                    z = self.flow(i, node, s_idx, actions, pos)
                    child = self.walker.child_after(i, node, s_idx, a_own_idx, br)
                    kernel = self.walker.own_kernel(i, child, s_idx)
                    if interval_keyed:
                        c0 = 0.0
                        for pp, s2 in kernel:
                            c0 += pp * phi.value(i, child, s2)
                    else:
                        c0 = phi.value(i, child)
                    cont = [c0] + [0.0] * (n - 1)
                    for pp, s2 in kernel:
                        for k, v in enumerate(self._g_plan(i, child, s2, plan, plan_id), 1):
                            cont[k] += pp * v
                    total = [acc + w * (z + c) for acc, c in zip(total, cont)]
                filled[pos] = tuple(total)
                if pos == obedient:
                    self._g[g_key] = filled[pos]
        return [self._g[g_key] if pos == obedient else filled[pos] for pos in slots]

    # -- payoff-to-go, on-rent, best response ---------------------------------

    def stay_value(self, i: int, node: Node, s_idx: int, x: Conjecture,
                   a_pos: int | None = None) -> tuple[float, int]:
        """max over plan indices of the prospect; ties resolve to the largest L."""
        return _best_plan(self.prospects(i, node, s_idx, x, a_pos), node.t)

    def stay_values(self, i: int, node: Node, s_idx: int,
                    x: Conjecture) -> list[tuple[float, int]]:
        """``stay_value`` of every menu slot played first, in menu order."""
        return [_best_plan(vec, node.t) for vec in self.slot_prospects(i, node, s_idx, x)]

    def on_rent(self, i: int, node: Node, s_idx: int, x: Conjecture,
                a_pos: int | None = None) -> float:
        stay, _ = self.stay_value(i, node, s_idx, x, a_pos)
        return stay - self.phi_value(i, node, s_idx)

    def payoff_to_go(self, i: int, node: Node, s_idx: int, x: Conjecture,
                     a_pos: int | None = None) -> float:
        stay, _ = self.stay_value(i, node, s_idx, x, a_pos)
        return max(self.phi_value(i, node, s_idx), stay)

    def best_response(self, i: int, node: Node, s_idx: int, x: Conjecture) -> BestResponse:
        """Argmax over quit-now, menu actions and plan indices, ties to the directive.

        Action ties prefer the obedient action; plan ties take the latest
        quit period, matching the sup conventions used everywhere else.
        """
        menu = self.walker.menu(i, node)
        obedient_pos = menu.action_index_of_state[s_idx]
        best_val, best_pos, best_L = -math.inf, obedient_pos, node.t
        for pos, (v, L) in enumerate(self.stay_values(i, node, s_idx, x)):
            better = v > best_val + TIE_TOL
            tied = abs(v - best_val) <= TIE_TOL
            if better or (tied and pos == obedient_pos):
                best_val, best_pos, best_L = max(v, best_val), pos, L
        quit_val = self.phi_value(i, node, s_idx)
        rent = best_val - quit_val
        if rent > TIE_TOL:
            om = 0
        elif rent < -TIE_TOL:
            om = 1
        else:
            om = 1 if self.directive_quit(i, node.t, s_idx) else 0
        if om == 1:
            return BestResponse(1, None, node.t, quit_val, rent)
        return BestResponse(0, menu.actions[best_pos], best_L + 1, best_val, rent)

    def value_fn(self, i: int, node: Node, s_idx: int, x: Conjecture) -> float:
        """Best staying value over every menu slot, i.e. over all pretenses
        (the envelope object): every slot is the obedient action of some state."""
        return max(v for v, _ in self.stay_values(i, node, s_idx, x))

    # -- quit-time distribution (first hit) -----------------------------------

    def quit_distribution(self, i: int, node: Node,
                          regions: Mapping[tuple[int, int], frozenset[int]]) -> dict[int, float]:
        """First-hit quit-period distribution of agent i from a node.

        All agents follow the region rule with obedient actions.  Mass that
        survives the horizon sits at T+1; the weights always sum to one.
        """
        return dict(self._chi(i, node, RegionPlan(regions), {}))

    def _chi(self, i: int, node: Node, plan: RegionPlan, memo: dict) -> Mapping[int, float]:
        T1 = self.game.horizon + 1
        if i not in node.active:
            return {T1: 1.0}
        key = (i, node.lump)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out: dict[int, float] = {}
        for br in self.walker.joint_steps(node, plan, node.active):
            if i in br.quitters:
                out[node.t] = out.get(node.t, 0.0) + br.prob
                continue
            if node.t == self.game.horizon:   # staying through T survives the horizon
                out[T1] = out.get(T1, 0.0) + br.prob
                continue
            child = self.store.child(node, dict(br.states), br.quitters, br.actions_idx)
            for k, w in self._chi(i, child, plan, memo).items():
                out[k] = out.get(k, 0.0) + br.prob * w
        memo[key] = out
        return out

    # -- off-menu fixed point ---------------------------------------------------

    def om_fixed_point(self, node: Node,
                       start: Mapping[int, Mapping[int, float]]) -> FixedPointResult:
        """Damped best-response iteration on the quit-time stage game at a node.

        ``start`` gives per-agent quit-period marginals over node.t .. T+1.
        Each round maps every agent's marginal through the distribution of
        his best-responding quit period against the product conjecture of
        the others' current marginals; it stops once the sup-norm residual
        is below ``FIXED_POINT_TOL``.
        """
        T1 = self.game.horizon + 1
        periods = list(range(node.t, T1 + 1))
        mu = {i: {k: float(start[i].get(k, 0.0)) for k in periods} for i in node.active}
        history: list[float] = []
        residual = math.inf
        for it in range(1, FIXED_POINT_MAX_ITER + 1):
            conj = ProfileConjecture.from_marginals(mu)
            new = {}
            for i in node.active:
                dist = {k: 0.0 for k in periods}
                for p, s_idx in self.walker.belief(i, node):
                    br = self.best_response(i, node, s_idx, conj)
                    dist[br.quit_period] += p
                new[i] = dist
            residual = max(abs(mu[i][k] - new[i][k]) for i in node.active for k in periods)
            history.append(residual)
            if residual < FIXED_POINT_TOL:
                mu = new
                return FixedPointResult(mu, residual, it, True, history)
            mu = {i: {k: ((1.0 - FIXED_POINT_DAMPING) * mu[i][k]
                          + FIXED_POINT_DAMPING * new[i][k]) for k in periods}
                  for i in node.active}
        return FixedPointResult(mu, residual, FIXED_POINT_MAX_ITER, False, history)

    # -- Monte Carlo prospect (common random numbers across plans) --------------

    def prospect_mc(self, i: int, node: Node, s_idx: int, x: Conjecture,
                    n_samples: int, seed: int,
                    a_pos: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sampled prospect estimates for every plan index node.t..T at once.

        Each sample draws one resolution of the others' states/quits and the
        own shock path, then reads off the partial sums for all plan indices,
        so the max over plans is taken over a common sample set.  Returns
        (means, standard errors), one entry per plan index.
        """
        phi = self.mechanism.phi
        n = self.game.horizon - node.t + 1
        paths = PathSampler(self.walker, i, node, s_idx, x.plans(i, node), n,
                            lambda child, s2: (s2, phi.value(i, child, s2)),
                            functools.partial(self.flow, i), a_pos)
        sums = sq = np.zeros(n)
        for flows, posted in paths.walk(np.random.default_rng(seed), n_samples):
            vals = np.cumsum(flows, axis=1)   # each path's flows summed period by period
            vals[:, :-1] += posted            # quitting after the horizon pays 0
            # path by path, one add per plan index: the order of ``sums += v; sq += v * v``
            sums = np.add.accumulate(np.vstack((sums, vals)))[-1]
            sq = np.add.accumulate(np.vstack((sq, vals * vals)))[-1]
        mean = sums / n_samples
        var = np.maximum(sq / n_samples - mean * mean, 0.0)
        return mean, np.sqrt(var / max(1, n_samples - 1))

    # -- simulation ---------------------------------------------------------------

    def simulate(self, n_paths: int, seed: int) -> EmpiricalOutcome:
        """Seeded Monte Carlo rollouts with population dynamics.

        Agents quit per the engine's directive (the principal's desired off
        regions) and act obediently.  Identical seeds reproduce identical
        outputs bit for bit.

        A cell is one period at one history node with the active agents'
        states.  ``_period_cell`` builds it at its first visit, so nodes are
        interned in the order a per-period loop interns them.  A path is then
        its draws plus one table lookup per period; each visit counts the cell
        and adds its payoff terms in path order.  The histograms are read off
        the cells' visit counts after the walk.  States are drawn from the
        walker's transition records, through ``TreeWalker.draw_table``.
        """
        check_samples(n_paths)
        game = self.game
        draw = inverse_cdf_draws(np.random.default_rng(seed),
                                 n_paths * game.n_agents * game.horizon)
        root = self.root()
        initial = [self.walker.draw_table(i, root, None) for i in game.agents()]
        flows: dict[tuple, float] = {}   # per-call memo of quit or stay payoff flows by class
        cell_of: dict[tuple[int, ...], int] = {}   # (node key, *states) -> cell
        cells: list[tuple] = []
        visits: list[int] = []
        payoff = [0.0] * game.n_agents
        for _ in range(n_paths):
            key = (root.key, *map(draw, initial))
            while True:
                c = cell_of.get(key)
                if c is None:
                    c = cell_of[key] = len(cells)
                    cells.append(self._period_cell(self.store.node(key[0]), key[1:], flows))
                    visits.append(0)
                terms, cdfs, child, _ = cells[c]
                visits[c] += 1
                for i, v in terms:
                    payoff[i] += v
                if cdfs is None:
                    break
                key = (child, *map(draw, cdfs))
        quit_counts: dict[tuple[int, int], int] = {}
        never_counts = [0] * game.n_agents
        state_hist: dict[tuple[int, int, int], int] = {}
        action_hist: dict[tuple[int, int, int], int] = {}
        for (node_key, *states), c in cell_of.items():
            node, n = self.store.node(node_key), visits[c]
            _, cdfs, _, played = cells[c]
            for i, s, a_idx in zip(node.active, states, played):
                state_hist[(i, node.t, s)] = state_hist.get((i, node.t, s), 0) + n
                if a_idx is None:
                    quit_counts[(i, node.t)] = quit_counts.get((i, node.t), 0) + n
                    continue
                action_hist[(i, node.t, a_idx)] = action_hist.get((i, node.t, a_idx), 0) + n
                if cdfs is None:
                    never_counts[i] += n
        return EmpiricalOutcome(
            n_paths=n_paths,
            seed=seed,
            quit_freq={k: v / n_paths for k, v in sorted(quit_counts.items())},
            never_quit_freq={i: never_counts[i] / n_paths for i in game.agents()},
            state_hist=dict(sorted(state_hist.items())),
            action_hist=dict(sorted(action_hist.items())),
            mean_payoff={i: payoff[i] / n_paths for i in game.agents()},
        )

    def _period_cell(self, node: Node, states: tuple[int, ...], flows: dict) -> tuple:
        """One period of ``simulate`` at ``node``, ``states`` being the active
        agents' states: (payoff terms, next-state CDFs, child key, played).

        The terms are (agent, quit or stay payoff) per active agent; the CDFs
        are the stayers' next-state tables, None when the path ends here;
        ``played`` is each active agent's action grid index, None if it quits.
        """
        game, t = self.game, node.t
        memo_id = self.memo_key(node)
        s = dict(zip(node.active, states))
        quitters = [i for i in node.active if self.directive_quit(i, t, s[i])]
        actions_idx: dict[int, int] = {}
        actions: dict[int, float] = {}
        terms = []
        for i in node.active:
            if i in quitters:
                key = (i, memo_id, s[i])
                v = flows.get(key)
                if v is None:
                    v = flows[key] = self.phi_value(i, node, s[i])
                terms.append((i, v))
                continue
            actions[i], actions_idx[i] = self.walker.own_action(i, node, s[i])
        profile = tuple(actions.items())
        for i in actions:
            key = (i, memo_id, s[i], profile)
            z = flows.get(key)
            if z is None:
                z = flows[key] = self.flow(i, node, s[i], actions,
                                           self.walker.own_slot(i, node, s[i]))
            terms.append((i, z))
        played = tuple(actions_idx.get(i) for i in node.active)
        if not actions or t == game.horizon:
            return tuple(terms), None, -1, played
        child = self.store.child(node, s, quitters, actions_idx)
        cdfs = tuple(self.walker.draw_table(i, child, s[i]) for i in child.active)
        return tuple(terms), cdfs, child.key, played


def _best_plan(vec: Sequence[float], t: int) -> tuple[float, int]:
    """(max of a prospect vector starting at plan index t, its plan index);
    values within ``TIE_TOL`` tie, and ties resolve to the largest index."""
    best, best_L = -math.inf, t
    for L, v in enumerate(vec, t):
        if v >= best - TIE_TOL:
            if v > best + TIE_TOL or L > best_L:
                best_L = L
            best = max(best, v)
    return best, best_L
