"""Construction of coupling policies and cutoff off-switches from a task policy.

The expected-coupling representative makes each agent's expected one-period
utility equal his marginal carrier: expected coupling = marginal carrier
minus the expected intrinsic reward at the action's generating state.  The
cutoff off-switch posts, per history, the carrier-plus-premium total at a
variant-specific evaluation point:

* ir            -- the bottom grid state (boundary profile {lowest state});
* horizontal    -- the up-projection target of each sub-off interval (the
                   per-interval values must agree; the builder checks this
                   and the level-set conditions that guarantee it);
* knowledgeable -- per partition interval, the jump-projection target of
                   that interval (requires a full-cover partition).

Also here: the posted-factor solve from the conservation identity, the
vanishing-cutoff test that certifies a coupling-only mechanism, and an
independent indifference solver used to cross-check cutoff values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .carrier import CarrierTables
from .equilibrium import Engine
from .histories import Node, RegionConjecture, TreeWalker, live_cells
from .mechanism import BoundaryProfile, CouplingPolicy, Mechanism, OffSwitch, TaskPolicy
from .model import BaseGame, GameError
from .persistence import PersistenceTransforms
from .regions import PartitionSet, off_regions

__all__ = [
    "SynthesizedCoupling",
    "SynthesizedCutoff",
    "synthesize_mechanism",
    "posted_factor_eta",
    "check_dcm_zero",
    "IndifferenceCutoff",
    "posted_values",
    "solve_phi_by_indifference",
    "SynthesisDiagnostics",
]

VARIANTS = ("ir", "horizontal", "knowledgeable")
HORIZONTAL_TOL = 1e-9   # how far a horizontal cutoff's sub-off totals and level sets may spread


@dataclass
class SynthesisDiagnostics:
    c1_backmap_spread: float = 0.0          # worst disagreement across generating states
    horizontal_ok: bool | None = None
    horizontal_spread: float = 0.0
    notes: list[str] = field(default_factory=list)


class SynthesizedCoupling(CouplingPolicy):
    """Expected-coupling representative pinned by the conservation identity.

    Keyed by the agent's own action only (constant in others' realized
    actions).  Values are computed lazily per node: marginal carrier at the
    action's generating state minus the expected intrinsic reward there.
    Non-injective policies are served from the largest generating state;
    the spread across generating states lands in the diagnostics.  Values
    are class functions of the node, memoized per ``Node.lump``.
    """

    markov = True

    def __init__(self, carriers: CarrierTables, diagnostics: SynthesisDiagnostics | None = None):
        self.carriers = carriers
        self.walker = carriers.walker
        self.diagnostics = diagnostics or SynthesisDiagnostics()
        self._memo: dict[tuple[int, int, int], float] = {}

    def expected_reward(self, i: int, node: Node, s_idx: int, a_own: float) -> float:
        """Expected intrinsic reward over the others' obedient actions and quits."""
        game = self.walker.game
        s_val = game.grid(i, node.t).value(s_idx)
        total = 0.0
        plans = self.carriers.conjecture.plans(i, node)
        for w, actions, _ in self.walker.own_branches(i, node, plans, a_own):
            total += w * game.reward(i, node.t, s_val, actions)
        return total

    def value_at_slot(self, i, node, pos, actions):
        key = (i, node.lump, pos)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        menu = self.walker.menu(i, node)
        a_own = menu.actions[pos]
        gens = menu.generating_states[pos]
        vals = [self.carriers.marginal_carrier(i, node, s)
                - self.expected_reward(i, node, s, a_own) for s in gens]
        if len(vals) > 1:
            spread = max(vals) - min(vals)
            self.diagnostics.c1_backmap_spread = max(self.diagnostics.c1_backmap_spread, spread)
        out = vals[-1]  # largest generating state is canonical
        self._memo[key] = out
        return out

    def value(self, i, node, actions):
        if i not in actions:
            raise GameError(f"agent {i} missing from the action profile")
        menu = self.walker.menu(i, node)
        return self.value_at_slot(i, node, menu.position(actions[i]), actions)


class SynthesizedCutoff(OffSwitch):
    """Cutoff off-switch evaluated lazily per node class from the carrier tables."""

    markov = True

    def __init__(self, variant: str, transforms: PersistenceTransforms,
                 diagnostics: SynthesisDiagnostics):
        if variant not in VARIANTS:
            raise GameError(f"unknown cutoff variant {variant!r}")
        self.variant = variant
        self.transforms = transforms
        self.horizon = transforms.game.horizon
        self.diagnostics = diagnostics
        self._memo: dict[tuple, float] = {}

    def state_dependent(self) -> bool:
        return self.variant == "knowledgeable"

    def per_interval_values(self, i: int, node: Node) -> dict[int, float]:
        """Carrier-plus-premium totals at each interval's projection target."""
        part = self.transforms.partition(i, node.t)
        if part is None:
            raise GameError(f"no partition for agent {i}, period {node.t}")
        return {w: self.transforms.total(i, node, pt)
                for w, pt in enumerate(self.transforms.interval_targets(i, node))}

    def per_suboff_values(self, i: int, node: Node) -> list[float]:
        part = self.transforms.partition(i, node.t)
        if part is None:
            raise GameError(f"no partition for agent {i}, period {node.t}")
        return [self.transforms.total(i, node, self.transforms.d_up(i, node, b))
                for b in range(len(part.sub_off))]

    def check_horizontal_conditions(self, i: int, node: Node) -> bool:
        """Level-set conditions: equal marginal carrier at non-extreme boundaries
        and projection targets, dominated by every on-interval value."""
        part = self.transforms.partition(i, node.t)
        tr = self.transforms
        grid_last = part.points - 1
        levels: list[float] = []
        for b, (lo, hi) in enumerate(part.sub_off):
            for j in (lo, hi):
                if j not in (0, grid_last):
                    levels.append(tr.carriers.marginal_carrier(i, node, j))
            levels.append(tr.carriers.marginal_carrier(i, node, tr.d_up(i, node, b)))
        if max(levels) - min(levels) > HORIZONTAL_TOL:
            return False
        level = max(levels)
        for lo, hi in part.sub_on:
            for j in range(lo, hi + 1):
                if tr.carriers.marginal_carrier(i, node, j) < level - HORIZONTAL_TOL:
                    return False
        return True

    def value(self, i, node, state_index=None):
        if node.t > self.horizon:
            return 0.0
        if self.variant == "knowledgeable":
            if state_index is None:
                raise GameError("knowledgeable cutoff needs the state's interval")
            part = self.transforms.partition(i, node.t)
            w = part.global_interval_index(state_index)
            key = (i, node.lump, w)
            hit = self._memo.get(key)
            if hit is None:
                hit = self.per_interval_values(i, node)[w]
                self._memo[key] = hit
            return hit
        key = (i, node.lump)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.variant == "ir":
            hit = self.transforms.total(i, node, 0)
        else:
            vals = self.per_suboff_values(i, node)
            spread = max(vals) - min(vals)
            self.diagnostics.horizontal_spread = max(self.diagnostics.horizontal_spread, spread)
            ok = spread <= HORIZONTAL_TOL and self.check_horizontal_conditions(i, node)
            if self.diagnostics.horizontal_ok is None:
                self.diagnostics.horizontal_ok = ok
            else:
                self.diagnostics.horizontal_ok = self.diagnostics.horizontal_ok and ok
            if not ok and "non-horizontal" not in " ".join(self.diagnostics.notes):
                self.diagnostics.notes.append(
                    f"non-horizontal cutoff at agent {i}, node {node.key}: spread {spread:.3e}")
            hit = vals[0]
        self._memo[key] = hit
        return hit


def ir_partitions(game: BaseGame) -> dict[tuple[int, int], "RegionPartition"]:
    """Singleton bottom-state partitions: boundary profile {lowest state} everywhere."""
    from .regions import partition_from_boundary

    out = {}
    for i in game.agents():
        for t in game.periods():
            grid = game.grid(i, t)
            prof = BoundaryProfile(((grid.lo, grid.lo),))
            out[(i, t)] = partition_from_boundary(grid, prof)
    return out


def synthesize_mechanism(game: BaseGame, sigma: TaskPolicy, variant: str,
                         partitions: PartitionSet | None = None):
    """Full pipeline: conjecture -> carriers -> transforms -> coupling -> cutoff.

    For the ir variant the desired off region is empty (everyone stays; the
    boundary profile is the bottom singleton).  Returns (mechanism, carriers,
    transforms, conjecture, diagnostics).
    """
    if variant not in VARIANTS:
        raise GameError(f"unknown cutoff variant {variant!r}")
    walker = TreeWalker(game, sigma)
    if variant == "ir":
        parts = ir_partitions(game)
        conj = RegionConjecture({})
    else:
        if partitions is None:
            raise GameError(f"variant {variant!r} needs boundary partitions")
        parts = dict(partitions)
        conj = RegionConjecture(off_regions(game, parts))
    diags = SynthesisDiagnostics()
    carriers = CarrierTables(walker, conj)
    transforms = PersistenceTransforms(carriers, parts)
    rho = SynthesizedCoupling(carriers, diags)
    phi = SynthesizedCutoff(variant, transforms, diags)
    mech = Mechanism(sigma, rho, phi)
    return mech, carriers, transforms, conj, diags


# ---------------------------------------------------------------------------
# Posted factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaResult:
    values: Mapping[tuple[int, int], float]          # (agent, node key) -> emitted eta
    consistent: bool
    worst_spread: float                              # across generating states, canonical L
    worst_spread_all_L: float                        # informational: across every cutoff
    witness: tuple | None


def posted_factor_eta(carriers: CarrierTables, mech: Mechanism, nodes,
                      tol: float = 1e-9) -> EtaResult:
    """Solve the conservation identity for the posted factor along tree edges.

    For a node at period t reached by recording the agent's period-(t-1)
    action, eta = phi(node) + marginal_carrier(parent state) - carrier(parent
    state, single-period cutoff), evaluated at every generating state of the
    recorded action.  Period-1 nodes post eta = phi by the empty-history
    convention.  A single eta per node must fit all generating states; the
    across-cutoff spread is reported separately (see the decisions notes).
    """
    game, walker = carriers.game, carriers.walker
    values: dict[tuple[int, int], float] = {}
    spread = 0.0
    spread_all = 0.0
    witness = None
    # phi is read at state 0: a per-interval cutoff posts its bottom interval's value
    for n in nodes:
        if n.t == 1:
            for i in n.active:
                values[(i, n.key)] = mech.phi.value(i, n, 0)
    for n in nodes:
        if n.t == 1:
            continue
        # the lowest key: the reachable parent, since reachable nodes are interned first
        parent = walker.store.parents(n)[0]
        for i in n.active:
            pos = walker.recorded_slot(i, parent, n)
            if pos is None:
                continue
            cands = []
            cands_all = []
            for s in walker.menu(i, parent).generating_states[pos]:
                base = mech.phi.value(i, n, 0) + carriers.marginal_carrier(i, parent, s)
                cands.append(base - carriers.carrier(i, parent, s, parent.t))
                for L in range(parent.t, game.horizon + 1):
                    cands_all.append(base - carriers.carrier(i, parent, s, L))
            emitted = cands[-1]
            d = max(cands) - min(cands)
            d_all = max(cands_all) - min(cands_all)
            if d > spread:
                spread, witness = d, (i, n.key)
            spread_all = max(spread_all, d_all)
            key = (i, n.key)
            if key in values and abs(values[key] - emitted) > tol:
                spread = max(spread, abs(values[key] - emitted))
                witness = (i, n.key)
            values[key] = emitted
    return EtaResult(values, spread <= tol, spread, spread_all, witness)


# ---------------------------------------------------------------------------
# Vanishing-cutoff test (coupling-only mechanisms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DcmZeroReport:
    passed: bool
    worst: float
    residuals: Mapping[tuple[int, int, int], float]  # (agent, node key, interval) -> residual


def check_dcm_zero(mech: Mechanism, transforms: PersistenceTransforms, nodes,
                   tol: float = 1e-9) -> DcmZeroReport:
    """Do the synthesized cutoff values vanish at every projection target?

    The targets are the sub-off ones, plus the on-interval ones when the
    mechanism posts a value per interval (the knowledgeable cutoff).
    Passing means the coupling-only mechanism inherits the off-switch
    mechanism's incentive properties.
    """
    every_interval = mech.phi.state_dependent()
    res: dict[tuple[int, int, int], float] = {}
    worst = 0.0
    for i, node in live_cells(nodes):
        part = transforms.partition(i, node.t)
        if part is None:
            continue
        for b in range(len(part.sub_off)):
            r = transforms.total(i, node, transforms.d_up(i, node, b))
            res[(i, node.key, b)] = r
            worst = max(worst, abs(r))
        if every_interval:
            for e in range(len(part.sub_on)):
                r = transforms.total(i, node, transforms.d_down(i, node, e))
                res[(i, node.key, len(part.sub_off) + e)] = r
                worst = max(worst, abs(r))
    return DcmZeroReport(worst <= tol, worst, res)


# ---------------------------------------------------------------------------
# Indifference solver (independent cutoff route)
# ---------------------------------------------------------------------------


class IndifferenceCutoff(OffSwitch):
    """Posted values that leave the variant's evaluation state indifferent
    between staying and quitting, each solved the first time it is read.

    The evaluation state is the bottom state (ir), the first sub-off
    target (horizontal) or the queried state's interval target
    (knowledgeable); the value is the engine's staying value there.  The
    engine is built over this off-switch, so staying values read the later
    periods' posted values through it, which is exact because a period's
    own posted value never enters its own staying prospects.  Memoized by
    ``Engine.memo_key``: per class under a ``markov`` coupling, else per history.
    """

    def __init__(self, variant: str, rho: CouplingPolicy, transforms: PersistenceTransforms):
        self.variant, self.transforms = variant, transforms
        self.horizon = transforms.game.horizon
        self.markov = rho.markov
        self.engine = Engine(transforms.game, Mechanism(transforms.walker.sigma, rho, self),
                             walker=transforms.walker)
        self._memo: dict[tuple, float] = {}

    def state_dependent(self) -> bool:
        return self.variant == "knowledgeable"

    def value(self, i, node, state_index=None):
        if self._terminal(node):
            return 0.0
        tr = self.transforms
        key = (i, self.engine.memo_key(node))
        if self.variant == "knowledgeable":
            if state_index is None:
                raise GameError("knowledgeable cutoff needs the state's interval")
            key += (tr.partition(i, node.t).global_interval_index(state_index),)
        hit = self._memo.get(key)
        if hit is None:
            pt = (tr.interval_targets(i, node)[key[2]] if self.variant == "knowledgeable"
                  else 0 if self.variant == "ir" else tr.d_up(i, node, 0))
            hit = self._memo[key] = self.engine.stay_value(i, node, pt, tr.carriers.conjecture)[0]
        return hit


def posted_values(phi: OffSwitch, transforms: PersistenceTransforms, nodes) -> dict[tuple, float]:
    """{(agent, node key[, interval]): posted value} at the cells of ``nodes``;
    a per-interval off-switch is read at each interval's lowest state."""
    out = {}
    for i, node in live_cells(nodes):
        if phi.state_dependent():
            for w, (lo, _, _, _) in enumerate(transforms.partition(i, node.t).intervals()):
                out[(i, node.key, w)] = phi.value(i, node, lo)
        else:
            out[(i, node.key)] = phi.value(i, node)
    return out


def solve_phi_by_indifference(rho: CouplingPolicy, transforms: PersistenceTransforms,
                              nodes, variant: str = "ir") -> dict[tuple, float]:
    """``posted_values`` of the ``IndifferenceCutoff`` under coupling ``rho``; the
    game, task policy and opponent conjecture are the transforms'."""
    return posted_values(IndifferenceCutoff(variant, rho, transforms), transforms, nodes)
