"""Executable incentive checks with witnesses.

Every check enumerates grid cells over the obedient-reachable tree and
returns a verdict carrying the worst residual, the tolerance used, the
evaluation mode, and a witness cell on failure.  The obedience checks are
one-shot-deviation checks: a deviation is an alternative menu action (a
pretended state) or an alternative quit plan at a single period, with
obedient play afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .carrier import CarrierTables
from .equilibrium import Engine
from .histories import Conjecture, Node, live_cells
from .model import GameError
from .regions import PartitionSet

__all__ = [
    "Verdict",
    "check_doic",
    "check_doic_mc",
    "check_payoff_flow",
    "check_constrained_monotone",
    "check_envelope",
    "check_mso",
    "check_phi_uniqueness",
]

Z_GATE = 3.0   # standard errors a sampled margin is widened by before it is gated
ENVELOPE_BOUND_FACTOR = 5.0   # envelope bound in units of grid step times slope constant


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    worst: float
    tolerance: float
    mode: str = "exact"
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "worst": self.worst,
               "tolerance": self.tolerance, "mode": self.mode}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = {k: v for k, v in self.details.items()}
        return out


def _cells(engine: Engine, nodes: Sequence[Node], support_only: bool = False):
    for i, node in live_cells(nodes):
        if support_only:
            for _, s in engine.walker.belief(i, node):
                yield i, node, s
        else:
            for s in range(engine.game.grid(i, node.t).points):
                yield i, node, s


# ---------------------------------------------------------------------------
# Obedience
# ---------------------------------------------------------------------------


def check_doic(engine: Engine, x: Conjecture, nodes: Sequence[Node],
               mode: str = "ir", partitions: PartitionSet | None = None,
               tol: float = 1e-9) -> list[Verdict]:
    """Exhaustive on-rent checks over every cell and menu deviation.

    ir mode: staying must weakly dominate quitting everywhere (nonnegative
    obedient on-rent) and the obedient action must weakly dominate every
    menu deviation.  off-region mode: the on-rent's sign must additionally
    match the partition (nonpositive inside the desired off region,
    nonnegative outside), so the directed quit pattern is a best response.
    """
    def cells():
        for i, node, s in _cells(engine, nodes):
            # on-rents are staying values net of the same quit value, read once;
            # staying first, as on_rent does: a synthesized off-switch interns
            # nodes when read, and the goldens pin the interning order
            stay = engine.stay_value(i, node, s, x)[0]
            quit_val = engine.phi_value(i, node, s)
            z_obed = stay - quit_val
            yield i, node, s, z_obed, None, [z_obed - (dev - quit_val)
                                             for dev, _ in engine.stay_values(i, node, s, x)]

    return _obedience(cells(), mode, partitions, tol)


def check_doic_mc(engine: Engine, x: Conjecture, nodes: Sequence[Node],
                  samples: int, seed: int, mode: str = "ir",
                  partitions: PartitionSet | None = None,
                  tol: float = 1e-9) -> list[Verdict]:
    """Sampled on-rent checks: margins widened by ``Z_GATE`` standard errors.

    Prospects per plan index come from common-random-number path samples,
    so the max over plans and the obedient-vs-deviation comparisons share
    draws.  Cells are the positive-probability ones; each verdict records
    the sampled mode and the worst widened margin, which passes at ``-tol``
    or above, as in ``check_doic``.
    """
    def cells():
        for k, (i, node, s) in enumerate(_cells(engine, nodes, support_only=True), 1):
            mean, se = engine.prospect_mc(i, node, s, x, samples, seed + 17 * k)
            quit_val = engine.phi_value(i, node, s)
            z = float(mean.max()) - quit_val
            z_se = float(se[int(mean.argmax())])
            menu = engine.walker.menu(i, node)
            margins = []
            for pos in range(len(menu.actions)):
                # the obedient slot's draws are the cell's own: same seed, same paths
                if pos == menu.action_index_of_state[s]:
                    m2, se2 = mean, se
                else:
                    m2, se2 = engine.prospect_mc(i, node, s, x, samples, seed + 17 * k, pos)
                margin = z - (float(m2.max()) - quit_val)
                margins.append(margin + Z_GATE * (z_se + float(se2[int(m2.argmax())])))
            yield i, node, s, z, Z_GATE * z_se, margins

    return _obedience(cells(), mode, partitions, tol, samples)


def _obedience(cells, mode: str, partitions: PartitionSet | None, tol: float,
               samples: int | None = None) -> list[Verdict]:
    """The on-rent sign verdict and ``raic`` of per-cell obedience margins.

    ``cells`` yields (agent, node, state, obedient on-rent, its sampled
    widening or None, the margin of each menu deviation in menu order).  In
    off mode the on-rent's sign flips inside the desired off region.  A
    sampled run gives its ``samples``; its verdicts record mode ``mc``.
    """
    if mode not in ("ir", "off"):
        raise GameError(f"unknown doic mode {mode!r}")
    if mode == "off" and partitions is None:
        raise GameError("off-region mode needs the partitions")
    worst_oaic, worst_raic = math.inf, math.inf
    wit_oaic = wit_raic = None
    for i, node, s, z, widening, margins in cells:
        for pos, margin in enumerate(margins):
            if margin < worst_raic:
                worst_raic = margin
                if margin < -tol:
                    wit_raic = {"agent": i, "period": node.t, "node": node.key,
                                "state": s, "deviation_slot": pos}
        in_off = (mode == "off" and (i, node.t) in partitions
                  and s in partitions[(i, node.t)].off_indices)
        sign_margin = -z if in_off else z
        if widening is not None:
            # exact margins take no term: adding 0.0 would turn -0.0 into 0.0
            sign_margin += widening
        if sign_margin < worst_oaic:
            worst_oaic = sign_margin
            if sign_margin < -tol:
                wit_oaic = {"agent": i, "period": node.t, "node": node.key, "state": s}
    name = "oaic" if mode == "ir" else "off-region-alignment"
    kind = "exact" if samples is None else "mc"
    details = {} if samples is None else {"samples": samples, "z": Z_GATE}
    return [
        Verdict(name, worst_oaic >= -tol, worst_oaic, tol, mode=kind, witness=wit_oaic,
                details=details),
        Verdict("raic", worst_raic >= -tol, worst_raic, tol, mode=kind, witness=wit_raic,
                details=details),
    ]


# ---------------------------------------------------------------------------
# Payoff-flow conservation
# ---------------------------------------------------------------------------


def check_payoff_flow(engine: Engine, carriers: CarrierTables, nodes: Sequence[Node],
                      eta: Mapping[tuple[int, int], float],
                      tol: float = 1e-9) -> list[Verdict]:
    """Residuals of the conservation system for the mechanism under test.

    Identity 1: expected one-period utility (reward plus coupling, over the
    others' obedient resolutions) equals the marginal carrier, cell by cell.
    Identity 2: along every tree edge, the posted value plus the previous
    marginal carrier equals the emitted posted factor plus the previous
    single-period carrier.  Inequality 3: carrier gains from any pretense
    are capped by the stripped-prospect gaps net of the posted factor.
    """
    game = engine.game
    mech = engine.mechanism
    walker = engine.walker
    worst_c1 = 0.0
    wit_c1 = None
    for i, node, s in _cells(engine, nodes):
        pos = walker.own_slot(i, node, s)
        a_own, _ = walker.own_action(i, node, s, pos)
        ez = 0.0
        for w, actions, _ in walker.own_branches(i, node, carriers.conjecture.plans(i, node),
                                                 a_own):
            ez += w * engine.flow(i, node, s, actions, pos)
        r = abs(ez - carriers.marginal_carrier(i, node, s))
        if r > worst_c1:
            worst_c1 = r
            wit_c1 = {"agent": i, "period": node.t, "node": node.key, "state": s}
    verdicts = [Verdict("flow-c1", worst_c1 <= tol, worst_c1, tol,
                        witness=wit_c1 if worst_c1 > tol else None)]

    worst_c2 = 0.0
    wit_c2 = None
    for n in nodes:
        if n.t == 1:
            continue
        for parent in engine.store.parents(n):
            for i in n.active:
                if (i, n.key) not in eta:
                    continue
                pos = walker.recorded_slot(i, parent, n)
                if pos is None:
                    continue
                phi_v = mech.phi.value(i, n, 0)   # per-interval cutoffs: bottom interval
                for s in walker.menu(i, parent).generating_states[pos]:
                    lhs = phi_v + carriers.marginal_carrier(i, parent, s)
                    rhs = eta[(i, n.key)] + carriers.carrier(i, parent, s, parent.t)
                    r = abs(lhs - rhs)
                    if r > worst_c2:
                        worst_c2 = r
                        wit_c2 = {"agent": i, "node": n.key, "parent": parent.key, "state": s}
    verdicts.append(Verdict("flow-c2", worst_c2 <= tol, worst_c2, tol,
                            witness=wit_c2 if worst_c2 > tol else None))

    # Inequality 3 is checked per cutoff: the carrier gain from a pretense
    # must not exceed the stripped-prospect gap net of the posted factor
    # at the same cutoff.  (Under additive separation both sides coincide
    # cutoff by cutoff, which is the collapse the theory predicts; see
    # the project decision notes on the quantifier.)  The pretended state
    # is the last generating state of the deviation's slot, so both
    # prospects play that slot first and their expected couplings cancel.
    x = carriers.conjecture
    phi = mech.phi

    # histories only openable by a deviation carry no emitted posted factor;
    # they default to zero, which is exact on the separable family where the
    # inequality is asserted (the factor vanishes identically there).  So
    # eta is no class function, and the deviation's walks keep full-history
    # keys.
    def end_leaf(i, child, s2):
        return phi.value(i, child, s2) - eta.get((i, child.key), 0.0)

    worst_c3 = math.inf
    wit_c3 = None
    memo: dict[tuple, list[float]] = {}   # obedient terminal walks, valid for this eta
    hats: dict[tuple, list[float]] = {}   # stripped prospects of the pretended states
    for i, node, s in _cells(engine, nodes):
        cutoffs = range(node.t, game.horizon + 1)
        # at period T every leaf lies past the horizon, where it pays 0, so
        # each walk is [0.0] and none is made
        last = node.t == game.horizon
        devs = engine.slot_prospects(i, node, s, x)
        own = [carriers.carrier(i, node, s, L) for L in cutoffs]
        for pos, (states, dev) in enumerate(zip(walker.menu(i, node).generating_states, devs)):
            s_hat = states[-1]
            hat = hats.get((i, node.key, s_hat))
            if hat is None:
                phis = [0.0] if last else _terminal_walks(engine, memo, "phi", engine.memo_key,
                                                          i, node, s_hat, x, None, phi.value)
                hat = hats[(i, node.key, s_hat)] = [
                    g - e for g, e in zip(engine.prospects(i, node, s_hat, x), phis)]
            ends = [0.0] if last else _terminal_walks(engine, memo, "end", _full_history,
                                                      i, node, s, x, pos, end_leaf)
            for L, c, h, g, e in zip(cutoffs, own, hat, dev, ends):
                lhs = carriers.carrier(i, node, s_hat, L) - c
                rhs = h - (g - e)
                margin = rhs - lhs
                if margin < worst_c3:
                    worst_c3 = margin
                    if margin < -tol:
                        wit_c3 = {"agent": i, "period": node.t, "node": node.key,
                                  "state": s, "pretense": s_hat, "cutoff": L}
    verdicts.append(Verdict("flow-c3", worst_c3 >= -tol, worst_c3, tol, witness=wit_c3))
    return verdicts


def _terminal_walks(engine: Engine, memo, kind, node_id, i, node, s, x, a_pos, leaf):
    """Expectations of leaf(i, child at L+1, own state there), one per cutoff L = t..T.

    Period T is terminal: at L = T every leaf is past the horizon, where
    neither the off-switch nor the posted factor pays anything, so the
    expectation is 0 and no leaf is built.  flow-c3 therefore walks only
    cells before T; a walk reaching period T ends there with [0.0].
    ``node_id(node)`` keys the memo of obedient walks: the Markov class
    when the leaf values are class functions, else the full history.
    """
    total = [0.0] * (engine.game.horizon - node.t + 1)
    for p, plan in x.plans(i, node):
        for k, v in enumerate(_terminal_walk(engine, memo, kind, node_id, i, node, s, plan,
                                             a_pos, leaf)):
            total[k] += p * v
    return total


def _terminal_walk(engine: Engine, memo, kind, node_id, i, node, s, plan, a_pos, leaf):
    """Entry 0 sums the leaves at the children; entry k sums child entry k - 1."""
    horizon = engine.game.horizon
    if node.t == horizon:
        return [0.0]
    # obedient walks repeat across deviations and pretenses; the one-off
    # deviation walk at the top is not kept
    if a_pos is None:
        key = (kind, i, node_id(node), s, engine.walker.plan_id(plan))
        hit = memo.get(key)
        if hit is not None:
            return hit
    total = [0.0] * (horizon - node.t + 1)
    for w, child, s2 in engine.walker.next_states(i, node, s, ((1.0, plan),), a_pos):
        total[0] += w * leaf(i, child, s2)
        for k, v in enumerate(_terminal_walk(engine, memo, kind, node_id, i, child, s2,
                                             plan, None, leaf), 1):
            total[k] += w * v
    if a_pos is None:
        memo[key] = total
    return total


def _full_history(node: Node) -> int:
    return node.key


# ---------------------------------------------------------------------------
# Constrained monotonicity
# ---------------------------------------------------------------------------


def check_constrained_monotone(carriers: CarrierTables, nodes: Sequence[Node],
                               tol: float = 1e-9) -> Verdict:
    """Best carrier gain along the policy beats the frozen-action gain, pairwise.

    For every ordered state pair the best-over-cutoffs integral of the
    obedient impulse response from one state to the other must weakly exceed
    the best-over-cutoffs integral with the first action frozen at the
    source state's action.
    """
    game = carriers.game
    T = game.horizon
    worst = math.inf
    witness = None
    for i, node in live_cells(nodes):
        grid = game.grid(i, node.t)
        step = grid.step
        menu = carriers.walker.menu(i, node)
        qs_obed = {L: [carriers.impulse_response(i, node, j, L)
                       for j in range(grid.points)]
                   for L in range(node.t, T + 1)}
        for sp in range(grid.points):
            pos = menu.action_index_of_state[sp]
            qs_frozen = {L: [carriers.impulse_response(i, node, j, L, pos)
                             for j in range(grid.points)]
                         for L in range(node.t, T + 1)}
            for s in range(grid.points):
                if s == sp:
                    continue
                lhs = max(_trapz(qs_obed[L], sp, s, step) for L in range(node.t, T + 1))
                rhs = max(_trapz(qs_frozen[L], sp, s, step) for L in range(node.t, T + 1))
                margin = lhs - rhs
                if margin < worst:
                    worst = margin
                    if margin < -tol:
                        witness = {"agent": i, "period": node.t, "node": node.key,
                                   "from": sp, "to": s}
    return Verdict("constrained-monotone", worst >= -tol, worst, tol, witness=witness)


def _trapz(vals, j0, j1, step):
    if j0 == j1:
        return 0.0
    lo, hi, sign = (j0, j1, 1.0) if j1 > j0 else (j1, j0, -1.0)
    total = 0.0
    for a, b in zip(vals[lo:hi], vals[lo + 1:hi + 1]):
        total += 0.5 * (a + b) * step
    return sign * total


# ---------------------------------------------------------------------------
# Envelope and max-sensitivity
# ---------------------------------------------------------------------------


def check_envelope(engine: Engine, carriers: CarrierTables, x: Conjecture,
                   nodes: Sequence[Node]) -> Verdict:
    """Grid finite differences of the best value against the impulse response.

    The value function's central difference at interior cells is compared
    with the impulse response at the cutoff ``Engine.stay_value`` picks, the
    best staying plan's index.  Cells where that cutoff differs across the
    stencil are kinks: excluded and reported.  The bound is
    ``ENVELOPE_BOUND_FACTOR * grid_step * C``, where C is the declared
    impulse-response bound, or else the largest impulse response at the node.
    Every cell is held to its own node's bound; ``worst`` is the largest
    deviation, the tolerance the largest bound, and the witness the cell
    furthest over its own bound.
    """
    game = engine.game
    worst = 0.0
    excess = 0.0   # the largest excess of a deviation over its cell's bound
    witness = None
    kinks: list[dict] = []
    bound_used = None
    for i, node in live_cells(nodes):
        grid = game.grid(i, node.t)
        if grid.points < 3:
            continue
        C = carriers.impulse_bound(i, node.t)
        if C is None:
            C = max(abs(carriers.impulse_response(i, node, j, L))
                    for j in range(grid.points)
                    for L in range(node.t, game.horizon + 1)) or 1.0
        bound = ENVELOPE_BOUND_FACTOR * grid.step * C
        bound_used = bound if bound_used is None else max(bound_used, bound)

        def cut(idx: int) -> int:
            return engine.stay_value(i, node, idx, x)[1]

        V = [engine.value_fn(i, node, j, x) for j in range(grid.points)]
        for j in range(1, grid.points - 1):
            if cut(j - 1) != cut(j + 1) or cut(j) != cut(j + 1):
                kinks.append({"agent": i, "period": node.t, "node": node.key, "state": j})
                continue
            fd = (V[j + 1] - V[j - 1]) / (2.0 * grid.step)
            q = carriers.impulse_response(i, node, j, cut(j))
            dev = abs(fd - q)
            worst = max(worst, dev)
            if dev - bound > excess:
                excess = dev - bound
                witness = {"agent": i, "period": node.t, "node": node.key, "state": j}
    tol = bound_used if bound_used is not None else 0.0
    return Verdict("envelope", witness is None, worst, tol, witness=witness,
                   details={"kink_cells": kinks})


def check_mso(engine: Engine, x: Conjecture, nodes: Sequence[Node],
              tol: float = 1e-9) -> Verdict:
    """Interchange of the state derivative and the max over staying plans.

    Both sides are grid central differences of the same prospect tables, so
    the comparison is consistent with exact-mode snapping: d/ds max_L G
    against max_L d/ds G at every interior cell.
    """
    game = engine.game
    worst = 0.0
    witness = None
    for i, node in live_cells(nodes):
        grid = game.grid(i, node.t)
        if grid.points < 3:
            continue
        # G[j][k]: the prospect at state j of plan index node.t + k
        G = [engine.prospects(i, node, j, x) for j in range(grid.points)]
        for j in range(1, grid.points - 1):
            lhs = (max(G[j + 1]) - max(G[j - 1])) / (2 * grid.step)
            rhs = max((hi - lo) / (2 * grid.step) for hi, lo in zip(G[j + 1], G[j - 1]))
            dev = abs(lhs - rhs)
            if dev > worst:
                worst = dev
                if dev > tol:
                    witness = {"agent": i, "period": node.t, "node": node.key, "state": j}
    return Verdict("max-sensitive-obedience", worst <= tol, worst, tol, witness=witness)


# ---------------------------------------------------------------------------
# Off-switch uniqueness
# ---------------------------------------------------------------------------


def check_phi_uniqueness(closed_form: Mapping[tuple, float],
                         solved: Mapping[tuple, float],
                         tol: float = 1e-6) -> Verdict:
    """Closed-form and indifference-solved posted values agree cell by cell."""
    worst = 0.0
    witness = None
    keys = set(closed_form) | set(solved)
    for k in sorted(keys):
        if k not in closed_form or k not in solved:
            return Verdict("phi-uniqueness", False, math.inf, tol,
                           witness={"missing": list(k)})
        dev = abs(closed_form[k] - solved[k])
        if dev > worst:
            worst = dev
            if dev > tol:
                witness = {"cell": list(k)}
    return Verdict("phi-uniqueness", worst <= tol, worst, tol, witness=witness)
